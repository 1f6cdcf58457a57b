"""Seeded generation of the two independent Brownian increment ensembles.

Generation is counter-based: paths are split into fixed-size blocks and each
block draws from its own jumped Philox sub-stream, so a parallel fill and a
sequential fill produce bit-identical arrays.  The backward Brownian motion B
is simulated forward in time like W; its terminal-side role is honoured by
the solver's measurability conventions, not by reversed simulation.
"""
from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, Scenario

log = logging.getLogger(__name__)

# Fixed block size: sub-stream assignment must not depend on worker count.
_BLOCK = 4096


def worker_count() -> int:
    """Parallelism cap from RBDSDE_THREADS (default 1); a value that is not
    an integer is logged and read as 1."""
    raw = os.environ.get("RBDSDE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        log.warning("RBDSDE_THREADS=%r is not an integer; using 1 worker", raw)
        return 1


@dataclass(frozen=True, eq=False)
class NoisePaths:
    """Increment and cumulative-state arrays for both Brownian motions."""

    dW: np.ndarray       # (M, N, d)
    dB: np.ndarray       # (M, N, l)
    W_state: np.ndarray  # (M, N+1, d), W_0 = 0
    B_state: np.ndarray  # (M, N+1, l), B_0 = 0
    seed: int

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]


def _cumulative(increments: np.ndarray) -> np.ndarray:
    m, n, k = increments.shape
    state = np.zeros((m, n + 1, k))
    np.cumsum(increments, axis=1, out=state[:, 1:, :])
    return state


def generate_paths(s: Scenario) -> NoisePaths:
    """Draw the M x N x d and M x N x l Gaussian increment ensembles.

    Bit-reproducible for fixed (seed, M, N, d, l) regardless of the worker
    count: block b of 4096 paths uses jumped sub-streams 2b (for W) and
    2b + 1 (for B) of one Philox generator keyed by the scenario seed.
    """
    m, n = s.mc_paths, s.grid.steps
    d, l = s.dims.d, s.dims.l
    sqrt_dt = np.sqrt(s.grid.dt)
    key = np.uint64(s.seed & 0xFFFFFFFFFFFFFFFF)

    dW = np.empty((m, n, d))
    dB = np.empty((m, n, l))

    def fill(block: int) -> None:
        start = block * _BLOCK
        stop = min(start + _BLOCK, m)
        rng_w = np.random.Generator(np.random.Philox(key=key).jumped(2 * block))
        rng_b = np.random.Generator(np.random.Philox(key=key).jumped(2 * block + 1))
        dW[start:stop] = rng_w.standard_normal((stop - start, n, d)) * sqrt_dt
        dB[start:stop] = rng_b.standard_normal((stop - start, n, l)) * sqrt_dt

    blocks = range((m + _BLOCK - 1) // _BLOCK)
    workers = worker_count()
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    else:
        for b in blocks:
            fill(b)

    return NoisePaths(dW=dW, dB=dB, W_state=_cumulative(dW), B_state=_cumulative(dB), seed=s.seed)


@dataclass(frozen=True, eq=False)
class ObstacleGrid:
    """Barrier and terminal values evaluated along the generated paths, plus
    the per-path condition flags that validation had to defer."""

    xi: np.ndarray                        # (M,)
    lower: np.ndarray | None              # (M, N+1)
    upper: np.ndarray | None              # (M, N+1)
    lower_terminal_bad: np.ndarray | None  # (M,) paths with S_T > xi
    upper_terminal_bad: np.ndarray | None  # (M,) paths with xi > U_T
    ordering_bad: np.ndarray | None        # (M, N) interior points with L >= U

    @property
    def any_flag(self) -> bool:
        return bool(self.flag_messages())

    def flag_messages(self) -> list[str]:
        """One message per deferred per-path condition that fails."""
        msgs = []
        for flag, condition in ((self.lower_terminal_bad, "S_T <= xi"),
                                (self.upper_terminal_bad, "xi <= U_T")):
            if flag is not None and np.any(flag):
                msgs.append(f"{condition} violated on {int(np.count_nonzero(flag))} paths")
        if self.ordering_bad is not None and np.any(self.ordering_bad):
            msgs.append("barrier crossing: L >= U at sampled interior points")
        return msgs

    def check_flags(self) -> None:
        """Raise ConfigError naming every failed per-path condition."""
        msgs = self.flag_messages()
        if msgs:
            raise ConfigError(*msgs)


def _eval_on_grid(spec, times: np.ndarray, w_state: np.ndarray) -> np.ndarray:
    m, n_plus_1, _ = w_state.shape
    out = np.empty((m, n_plus_1))
    for i in range(n_plus_1):
        out[:, i] = spec.evaluate(times[i], w_state[:, i, :])
    return out


def obstacle_on_grid(s: Scenario, p: NoisePaths) -> ObstacleGrid:
    """Evaluate terminal value and barriers on every (path, grid time)."""
    if p.dW.shape != (s.mc_paths, s.grid.steps, s.dims.d):
        raise ValueError("dimension mismatch between scenario and paths")
    if p.dB.shape != (s.mc_paths, s.grid.steps, s.dims.l):
        raise ValueError("dimension mismatch between scenario and paths")

    times = s.grid.times
    n = s.grid.steps
    xi = s.terminal.evaluate(s.grid.horizon, p.W_state[:, n, :])

    lower = upper = None
    lower_terminal_bad = upper_terminal_bad = ordering_bad = None
    if s.obstacles.has_lower:
        lower = _eval_on_grid(s.obstacles.lower, times, p.W_state)
        lower_terminal_bad = lower[:, n] > xi
    if s.obstacles.has_upper:
        upper = _eval_on_grid(s.obstacles.upper, times, p.W_state)
        upper_terminal_bad = xi > upper[:, n]
    if lower is not None and upper is not None:
        ordering_bad = lower[:, :n] >= upper[:, :n]

    return ObstacleGrid(
        xi=xi,
        lower=lower,
        upper=upper,
        lower_terminal_bad=lower_terminal_bad,
        upper_terminal_bad=upper_terminal_bad,
        ordering_bad=ordering_bad,
    )
