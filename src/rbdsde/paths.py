"""Seeded generation of the two independent Brownian increment ensembles.

Generation is counter-based: paths are split into fixed-size blocks and each
block draws from its own jumped Philox sub-stream, so the arrays do not
depend on the number of workers that fill them.  The backward Brownian motion B
is simulated forward in time like W; its terminal-side role is honoured by
the solver's measurability conventions, not by reversed simulation.
"""
from __future__ import annotations

import logging
import math
import os
import queue
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .model import CONSTANT_KINDS, CoefficientSpec, ConfigError, Scenario

log = logging.getLogger(__name__)

# Fixed block size: sub-stream assignment must not depend on worker count.
_BLOCK = 4096


def worker_count() -> int:
    """Parallelism cap from RBDSDE_THREADS, by default the number of cores
    this process may run on; a value that is not an integer is logged and
    read as 1.  The drawn bits do not depend on it."""
    raw = os.environ.get("RBDSDE_THREADS")
    if raw is None:
        usable = getattr(os, "sched_getaffinity", None)
        return len(usable(0)) if usable is not None else os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        log.warning("RBDSDE_THREADS=%r is not an integer; using 1 worker", raw)
        return 1


def _advance(base, increments: np.ndarray, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """The running sum's row at grid time ``stop`` into ``out``, from its row
    at ``start`` in ``base`` (``out`` may be ``base``; the row at 0 may be
    the number 0.0): increment rows start to stop - 1 of the (N, M, k)
    ``increments`` added one at a time, the first copied, as ``np.cumsum``
    forms it."""
    if start == stop:
        out[...] = base
    for j in range(start, stop):
        if j == 0:
            out[...] = increments[0]
        else:
            np.add(base if j == start else out, increments[j], out=out)
    return out


def _cumulative(increments: np.ndarray) -> np.ndarray:
    """Running sums over time of (N, M, k) increments, from 0: the rows of
    ``np.cumsum(axis=0)`` after a zero row, each made from the last by one
    whole-row add."""
    n, m, k = increments.shape
    state = np.empty((n + 1, m, k))
    state[0] = 0.0
    for i in range(n):
        _advance(state[i], increments, i, i + 1, state[i + 1])
    return state


@dataclass(frozen=True, eq=False)
class _WRows:
    """The state of W formed where it is read, from the (N, M, d) time-major
    increments and the marks: the rows of the forward running sum at every
    ``stride``-th grid time down from the horizon, N, N - stride, ... > 0,
    with stride = isqrt(N + 1) (square-root checkpointing; W_0 = 0 needs no
    mark).  A row is formed from the mark at or below it, or from W_0, by
    the running sum's own adds, fewer than ``stride`` of them, so its bits
    are those of ``NoisePaths.W_state[:, i]``."""

    increments: np.ndarray  # (N, M, d)
    stride: int
    first: int              # the grid time of the lowest mark
    marks: np.ndarray       # (ceil(N / stride), M, d), lowest first, read-only

    @classmethod
    def of(cls, increments: np.ndarray) -> "_WRows":
        n, m, d = increments.shape
        stride = math.isqrt(n + 1)
        marks = np.empty(((n - 1) // stride + 1, m, d))
        first = n - (len(marks) - 1) * stride
        base, start = 0.0, 0
        for j, at in enumerate(range(first, n + 1, stride)):
            base, start = _advance(base, increments, start, at, marks[j]), at
        marks.flags.writeable = False
        return cls(increments, stride, first, marks)

    @property
    def shape(self) -> tuple[int, int]:
        """(M, N+1), the paths and grid times of the state."""
        n, m, _ = self.increments.shape
        return m, n + 1

    def row(self, i: int, out: np.ndarray | None = None) -> np.ndarray:
        """(M, d), W at grid time i: written into ``out`` if given, else a
        new array, or the read-only mark where i has one."""
        m, n_plus_1 = self.shape
        if not 0 <= i < n_plus_1:
            raise IndexError(f"grid time {i} is not in [0, {n_plus_1 - 1}]")
        j = (i - self.first) // self.stride  # the mark at or below i; -1 below the lowest
        base, start = (self.marks[j], self.first + j * self.stride) if j >= 0 else (0.0, 0)
        if out is None:
            if j >= 0 and start == i:
                return base
            out = np.empty((m, self.increments.shape[2]))
        return _advance(base, self.increments, start, i, out)


@dataclass(frozen=True)
class _Undrawn:
    """Increments not drawn yet: ``make()`` draws them, as a time-major
    (N, M, k) array; ``shape`` is the (M, N, k) shape ``NoisePaths`` shows."""

    shape: tuple[int, int, int]
    make: Callable[[], np.ndarray]


@dataclass(frozen=True, eq=False, init=False)
class NoisePaths:
    """Increment arrays of both Brownian motions.

    Indexed path first, stored time first: each array is a transposed view
    of a C-ordered (N, M, k) buffer, so the M x k slice of one grid time,
    ``dW[:, i, :]``, is contiguous.  Neither state is stored whole.  Of W,
    the paths keep the rows at every isqrt(N+1)-th grid time down from the
    horizon, summed once when the paths are made (8 rows of 51 at N = 50),
    and ``w_row(i)`` forms any row from the kept one below it.  The state
    of B is summed only when read, because the solver reads B through its
    increments.  Both arrays are read-only views: W's kept rows are summed
    from ``dW`` once, and a solution ensemble keeps the increments alive to
    form Y and Z again, so neither may change after the paths are made.

    ``dB`` is given as its array or as a draw not yet made (``_Undrawn``),
    which the first read of ``dB`` or ``B_state`` makes and keeps: the
    paths ``generate_paths`` draws for a zero noise coefficient hold no B
    until something reads it.  ``dB_shape`` is B's shape, read without
    drawing it."""

    dW: np.ndarray       # (M, N, d)
    dB: np.ndarray       # (M, N, l), held as ``_b`` and read by the property below
    seed: int

    def __init__(self, dW: np.ndarray, dB: np.ndarray | _Undrawn, seed: int):
        object.__setattr__(self, "dW", _read_only(dW))
        object.__setattr__(self, "_b", dB if isinstance(dB, _Undrawn) else _read_only(dB))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "_w", _WRows.of(_path_major(self.dW)))

    @property
    def dB(self) -> np.ndarray:
        """(M, N, l), B's increments, drawn on the first read if they were
        not drawn when the paths were made."""
        if isinstance(self._b, _Undrawn):
            object.__setattr__(self, "_b", _read_only(_path_major(self._b.make())))
        return self._b

    @property
    def dB_shape(self) -> tuple[int, int, int]:
        """(M, N, l), the shape of ``dB``, read without drawing B."""
        return self._b.shape

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    def w_row(self, i: int, out: np.ndarray | None = None) -> np.ndarray:
        """(M, d), W at grid time i, bit-identical to ``W_state[:, i]``, in
        fewer than isqrt(N+1) row adds.  Written into ``out`` if given, so a
        reader of many rows reuses one buffer; else a new array, or a
        read-only view where the row is a kept one."""
        return self._w.row(i, out)

    @property
    def W_state(self) -> np.ndarray:
        """(M, N+1, d), W_0 = 0: the running sums of ``dW``, formed anew on
        every read, in the layout of ``dW``.  The library reads W through
        ``w_row``."""
        return _path_major(_cumulative(_path_major(self.dW)))

    @property
    def B_state(self) -> np.ndarray:
        """(M, N+1, l), B_0 = 0: the running sums of ``dB``, formed anew on
        every read, in the layout of ``W_state``."""
        return _path_major(_cumulative(_path_major(self.dB)))


def _path_major(time_major: np.ndarray) -> np.ndarray:
    """The (M, N, k) view of a time-major (N, M, k) array, and back."""
    return time_major.transpose(1, 0, 2)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that cannot be written through."""
    view = array.view()
    view.flags.writeable = False
    return view


def _noise_paths(dW: np.ndarray, dB: np.ndarray | _Undrawn, seed: int) -> NoisePaths:
    """Paths over time-major (N, M, k) increments, B's perhaps not drawn yet."""
    return NoisePaths(dW=_path_major(dW), dB=dB if isinstance(dB, _Undrawn) else _path_major(dB),
                      seed=seed)


def _fill_block(key: np.uint64, stream: int, sqrt_dt: float, out: np.ndarray, start: int,
                draws: np.ndarray) -> None:
    """Draw the paths of one block, from ``start`` on, in path-major order
    into ``draws``, (paths, N, k), from jumped sub-stream ``stream`` of the
    Philox generator keyed by ``key``, and write their slice of every time
    row of the time-major ``out``, scaled by sqrt(dt)."""
    np.random.Generator(np.random.Philox(key=key).jumped(stream)).standard_normal(out=draws)
    np.multiply(_path_major(draws), sqrt_dt, out=out[:, start:start + len(draws)])


def _draw(seed: int, dt: float, n: int, m: int, widths: dict[int, int]) -> list[np.ndarray]:
    """The time-major (N, M, k) increments of each Brownian motion in
    ``widths``, which maps the motion, 0 for W and 1 for B, to its k: block
    b of 4096 paths draws from jumped sub-stream 2b + motion of one Philox
    generator keyed by ``seed``.  Bit-reproducible for fixed (seed, M, N, k)
    regardless of the worker count, and whether or not the other motion
    is drawn in the same call."""
    outs = [(motion, np.empty((n, m, k))) for motion, k in widths.items()]
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    sqrt_dt = np.sqrt(dt)
    blocks = range((m + _BLOCK - 1) // _BLOCK)
    workers = min(worker_count(), len(blocks))
    # one draw buffer per concurrent fill, allocated here once and handed
    # from fill to fill; a fill draws each motion in turn into its buffer
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(min(_BLOCK, m) * n * max(widths.values())))

    def fill(block: int) -> None:
        start = block * _BLOCK
        size = min(_BLOCK, m - start)
        buffer = buffers.get()
        for motion, out in outs:
            _fill_block(key, 2 * block + motion, sqrt_dt, out, start,
                        buffer[:size * n * out.shape[2]].reshape(size, n, -1))
        buffers.put(buffer)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, blocks))
    return [out for _, out in outs]


def generate_paths(s: Scenario) -> NoisePaths:
    """Draw the M x N x d and M x N x l Gaussian increment ensembles.

    W is drawn here.  B is drawn here too, in the same block fills, unless
    the noise coefficient G is the ``zero`` spec: a solve then reads B only
    through the basis's dB columns, and B is drawn on the first read of
    ``dB`` (``NoisePaths``).  Either way its bits are the same, because
    each motion draws from streams of its own: bit-reproducible for fixed
    (seed, M, N, d, l) regardless of the worker count, block b of 4096
    paths uses jumped sub-streams 2b (for W) and 2b + 1 (for B) of one
    Philox generator keyed by the scenario seed.
    """
    seed, dt, n, m = s.seed, s.grid.dt, s.grid.steps, s.mc_paths
    d, l = s.dims.d, s.dims.l
    if s.noise_coeff.kind == "zero":
        (dW,) = _draw(seed, dt, n, m, {0: d})
        dB = _Undrawn((m, n, l), lambda: _draw(seed, dt, n, m, {1: l})[0])
    else:
        dW, dB = _draw(seed, dt, n, m, {0: d, 1: l})
    return _noise_paths(dW, dB, seed)


def coarsen(p: NoisePaths, k: int) -> NoisePaths:
    """The same Brownian paths on a grid k times coarser: each block of k
    consecutive increments is summed, which is exact for Brownian motion.
    A B not drawn yet stays so: the coarse one draws and sums the fine one
    on its first read."""
    m, n, _ = p.dW.shape
    if k < 1 or n % k:
        raise ValueError(f"coarsening factor {k} does not divide {n} steps")

    def summed(increments: np.ndarray) -> np.ndarray:
        return increments.reshape(n // k, k, m, -1).sum(axis=1)

    fine_b = p._b
    if isinstance(fine_b, _Undrawn):
        dB = _Undrawn((m, n // k, fine_b.shape[2]), lambda: summed(fine_b.make()))
    else:
        dB = summed(_path_major(fine_b))
    return _noise_paths(summed(_path_major(p.dW)), dB, p.seed)


# per barrier side, its symbol in the per-path conditions
_SYMBOL = {"lower": "L", "upper": "U"}


@dataclass(frozen=True, eq=False, init=False)
class ObstacleGrid:
    """Terminal and barrier values along the generated paths; the per-path
    conditions that validation cannot decide are read from them.  ``held``
    maps each present side, ``"lower"`` then ``"upper"``, to an (M, N+1)
    array, a constant barrier being a read-only view of one value, or to
    the spec of a barrier that is not constant, which is evaluated one time
    row where it is read, at the grid ``times`` and W's row there:
    ``row(side, i)`` forms one row, from the row of W it is handed or else
    from W's nearest mark below, and ``lower`` and ``upper`` stack those
    rows into a whole (M, N+1) array on every read.  A grid holds the times
    and W's increments and marks only while it holds a spec, and is for
    reading only.  A spec must be a pure function of (t, W_t)."""

    xi: np.ndarray                              # (M,)
    held: Mapping[str, np.ndarray | CoefficientSpec]
    times: np.ndarray | None                    # (N+1,)
    w: _WRows | None

    def __init__(self, xi, lower=None, upper=None, times=None, w=None):
        held = {side: value for side, value in (("lower", lower), ("upper", upper))
                if value is not None}
        if not any(isinstance(value, CoefficientSpec) for value in held.values()):
            times = w = None
        elif times is None or w is None:
            raise ValueError("a barrier held as a spec needs the grid times and W's rows")
        for name, value in (("xi", xi), ("held", MappingProxyType(held)),
                            ("times", times), ("w", w)):
            object.__setattr__(self, name, value)

    @property
    def sides(self) -> tuple[str, ...]:
        """The sides, ``"lower"`` then ``"upper"``, whose barrier is present."""
        return tuple(self.held)

    def row(self, side: str, i: int, w: np.ndarray | None = None) -> np.ndarray:
        """The (M,) barrier values on ``side`` at grid time i.  ``w``, if
        given, is W's (M, d) row at time i, which a barrier held as a spec
        then evaluates without forming it."""
        held = self.held[side]
        if isinstance(held, CoefficientSpec):
            return held.evaluate(self.times[i], self.w.row(i) if w is None else w)
        return held[:, i]

    @property
    def lower(self) -> np.ndarray | None:
        """The (M, N+1) lower barrier, or None without one."""
        return self._whole("lower")

    @property
    def upper(self) -> np.ndarray | None:
        """The (M, N+1) upper barrier, or None without one."""
        return self._whole("upper")

    def _whole(self, side: str) -> np.ndarray | None:
        """A held array as it is, or a held spec's rows, from ``row``, in
        one time-major array formed anew.  W's rows are formed forward in
        one buffer, each from the last by one add of the running sum, so
        they have the bits of ``w.row``."""
        held = self.held.get(side)
        if not isinstance(held, CoefficientSpec):
            return held
        m, n_plus_1 = self.w.shape
        out = np.empty((n_plus_1, m))
        w = np.zeros((m, self.w.increments.shape[2]))  # W_0
        for i in range(n_plus_1):
            if i:
                _advance(w, self.w.increments, i - 1, i, w)
            out[i] = self.row(side, i, w)
        return out.T

    def excess(self, side: str, y, i: int | None = None) -> np.ndarray:
        """How far the process y lies beyond the barrier on ``side``: L - y
        below and y - U above, positive where y violates the barrier.  With
        a grid time index ``i``, y is that time's row of paths and only that
        row of the barrier is formed."""
        barrier = getattr(self, side) if i is None else self.row(side, i)
        return barrier - y if side == "lower" else y - barrier

    def flag_messages(self) -> list[str]:
        """One message per per-path condition that fails: finite terminal
        and barrier values, S_T <= xi, xi <= U_T, and L < U at the interior
        grid points.  The barriers are read one time row at a time."""
        sides = self.sides
        nonfinite = {side: np.zeros(self.xi.shape, dtype=bool) for side in sides}
        crossed = False
        rows = {}
        n_rows = (len(self.times) if self.times is not None
                  else self.held[sides[0]].shape[1] if sides else 0)
        for i in range(n_rows):
            rows = {side: self.row(side, i) for side in sides}
            for side, row in rows.items():
                nonfinite[side] |= ~np.isfinite(row)
            if len(rows) == 2 and i < n_rows - 1:
                crossed = crossed or bool(np.any(rows["lower"] >= rows["upper"]))
        # rows now holds the barriers at the horizon
        per_path = [("-inf < xi < inf", ~np.isfinite(self.xi))]
        per_path += [(f"-inf < {_SYMBOL[side]} < inf", nonfinite[side]) for side in sides]
        if "lower" in rows:
            per_path.append(("S_T <= xi", rows["lower"] > self.xi))
        if "upper" in rows:
            per_path.append(("xi <= U_T", self.xi > rows["upper"]))
        msgs = [f"{condition} violated on {int(np.count_nonzero(bad))} paths"
                for condition, bad in per_path if np.any(bad)]
        if crossed:
            msgs.append("barrier crossing: L >= U at sampled interior points")
        return msgs

    def check_flags(self) -> None:
        """Raise ConfigError naming every failed per-path condition."""
        msgs = self.flag_messages()
        if msgs:
            raise ConfigError(*msgs)


def _eval_on_grid(spec, times: np.ndarray, w: _WRows) -> np.ndarray | CoefficientSpec:
    """A barrier along the paths, as ObstacleGrid holds it.  A constant-like
    spec is evaluated at one state and returned as a read-only (M, N+1)
    view of that value; any other spec is returned itself, for the grid to
    evaluate its time rows where they are read."""
    if spec.kind in CONSTANT_KINDS:
        value = spec.evaluate(times[0], np.zeros((1, w.increments.shape[2])))  # at W_0 = 0, shape (1,)
        return np.broadcast_to(value[:, None], w.shape)
    return spec


def obstacle_on_grid(s: Scenario, p: NoisePaths) -> ObstacleGrid:
    """The terminal values along the paths and each declared barrier,
    constant ones as one value and the others as their specs."""
    if p.dW.shape != (s.mc_paths, s.grid.steps, s.dims.d):
        raise ValueError("dimension mismatch between scenario and paths")
    if p.dB_shape != (s.mc_paths, s.grid.steps, s.dims.l):
        raise ValueError("dimension mismatch between scenario and paths")

    times = s.grid.times
    xi = s.terminal.evaluate(s.grid.horizon, p.w_row(s.grid.steps))
    barriers = {side: _eval_on_grid(getattr(s.obstacles, side), times, p._w)
                for side in s.obstacles.sides}
    return ObstacleGrid(xi=xi, times=times, w=p._w, **barriers)
