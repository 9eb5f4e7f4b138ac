"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from chronolab import Field1D, Grid1D

# property tests draw the same examples on every run, keep no example
# database, and stay a small share of the suite's run time
settings.register_profile("chronolab", derandomize=True, database=None,
                          max_examples=40, deadline=2000)
settings.load_profile("chronolab")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def gaussian_field(grid: Grid1D, center: float, width: float) -> Field1D:
    """Unit-norm real Gaussian on a grid (normalized by quadrature)."""
    v = np.exp(-((grid.points - center) ** 2) / (2.0 * width**2))
    v = v / np.sqrt(np.sum(grid.weights * v * v))
    return Field1D(grid, v)


def ho_ground(grid: Grid1D, m: float, k: float, hbar: float = 1.0) -> np.ndarray:
    """Analytic harmonic ground state (mw/pi hbar)^(1/4) exp(-m w x^2 / 2 hbar)."""
    w = np.sqrt(k / m)
    x = grid.points
    return (m * w / (np.pi * hbar)) ** 0.25 * np.exp(-m * w * x**2 / (2.0 * hbar))


@pytest.fixture(scope="session")
def default_residual_calls():
    """The arguments of every `_channel_residual` and `tdse_residual` call of
    the default emergence scan (four points) and of the default beam-on-atom
    directed run, as (args, kwargs) pairs by function name."""
    from chronolab import dynamics, stationary
    from chronolab.scenarios import BeamOnAtomConfig

    calls = {"_channel_residual": [], "tdse_residual": []}

    def recording(module, name):
        real = getattr(module, name)

        def record(*args, **kwargs):
            calls[name].append((args, kwargs))
            return real(*args, **kwargs)
        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stationary, "_channel_residual", recording(stationary, "_channel_residual"))
        mp.setattr(dynamics, "tdse_residual", recording(dynamics, "tdse_residual"))
        dynamics.emergence_scan(dynamics.EmergenceScanConfig(), jobs=1)
        beam = BeamOnAtomConfig()
        dynamics.directed_run(beam, beam.system_basis(), beam.kinetic_energy)
    return calls
