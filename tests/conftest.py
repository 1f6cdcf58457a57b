import pytest

from rbdsde import RegressionConfig, generate_paths
from rbdsde import paths
from rbdsde.scenarios import stopping_drift_scenario


@pytest.fixture(scope="session")
def fast_cfg():
    """Regression setup used by the obstacle tests: g = 0 there, so the
    backward-increment columns would be pure noise regressors."""
    return RegressionConfig(degree_w=5, include_dB=False)


@pytest.fixture(scope="session")
def binding_problem():
    """Stopping scenario with a running cost: the obstacle genuinely binds
    (mean K_T close to 0.66), shared by several structural tests."""
    sc = stopping_drift_scenario(paths=20_000, steps=50, seed=42)
    return sc, generate_paths(sc)


@pytest.fixture
def block_fills(monkeypatch):
    """The motion of every path block fill the test makes, 0 for W and 1
    for B, in the order the fills start."""
    motions = []
    fill = paths._fill_block

    def counted(key, stream, *args):
        motions.append(stream % 2)
        return fill(key, stream, *args)

    monkeypatch.setattr(paths, "_fill_block", counted)
    return motions
