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
