"""Quantum clock readings: plane waves, Gaussians and WKB branches."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from chronolab import (
    ClockModel,
    ComplexTimeMap,
    DegenerateInputError,
    Field1D,
    Grid1D,
    Harmonic,
    WKBState,
    clock_time_map,
    perfect_clock,
    quantum_time,
)
from chronolab.errors import StationaryPointError


def _wkb_state(clock: ClockModel) -> WKBState:
    """WKB tables of a clock branch: W = cumulative integral of p, A = p^(-1/2)."""
    p = clock.momentum_table()
    w = cumulative_trapezoid(p, clock.r_grid.points, initial=0.0)
    return WKBState(clock.r_grid, w, p ** (-0.5), p, clock.M, 1.0)


# ---------------------------------------------------------------------------
# the perfect clock


def test_perfect_clock_reads_linear_time():
    grid = Grid1D(0.0, 4.0, 1001)
    pc = perfect_clock(50.0, 2.0, grid)
    tmap = pc.time_map()
    np.testing.assert_allclose(tmap.times, 50.0 * grid.points / 2.0, rtol=1e-14)


def test_perfect_clock_chi_is_flat_plane_wave():
    grid = Grid1D(0.0, 4.0, 1001)
    chi = perfect_clock(50.0, 2.0, grid).chi()
    np.testing.assert_allclose(np.abs(chi.values), (2 * np.pi) ** -0.5, rtol=1e-14)
    # one full phase turn every 2 pi / P
    assert chi.values[0] == pytest.approx(chi.values[-1] * np.exp(-1j * 2.0 * 4.0), rel=1e-10)


def test_perfect_clock_input_validation():
    grid = Grid1D(0.0, 1.0, 11)
    with pytest.raises(DegenerateInputError):
        perfect_clock(-1.0, 2.0, grid)
    with pytest.raises(DegenerateInputError):
        perfect_clock(1.0, 0.0, grid)


def test_quantum_time_of_plane_wave():
    grid = Grid1D(0.0, 4.0, 40001)
    pc = perfect_clock(50.0, 2.0, grid)
    tau = quantum_time(pc.chi(), 50.0)
    exact = 50.0 * grid.points / 2.0
    err = np.max(np.abs(tau.values.real - exact)) / exact[-1]
    assert err < 1e-8
    assert tau.max_imag_fraction < 1e-10


# ---------------------------------------------------------------------------
# imaginary readings of a clock at rest


def test_quantum_time_of_real_gaussian_is_imaginary():
    # chi = exp(-R^2 / 2 s^2) on a window right of the peak:
    # tau(R) = -i (M s^2 / hbar) ln(R / R0), exactly
    grid = Grid1D(1.0, 3.0, 20001)
    s, M = 1.3, 7.0
    chi = Field1D(grid, np.exp(-grid.points**2 / (2 * s * s)))
    tau = quantum_time(chi, M)
    exact = -1j * M * s * s * np.log(grid.points / grid.points[0])
    assert np.max(np.abs(tau.values - exact)) < 1e-6
    assert np.all(tau.values.real == 0.0)


def test_quantum_time_rejects_stationary_chi():
    grid = Grid1D(-2.0, 2.0, 201)
    with pytest.raises(StationaryPointError):
        quantum_time(Field1D(grid, np.ones(201)), 1.0)
    # peak inside the window: dchi/dR crosses zero there
    with pytest.raises(StationaryPointError) as exc:
        quantum_time(Field1D(grid, np.exp(-grid.points**2)), 1.0)
    assert len(exc.value.locations) > 0


# ---------------------------------------------------------------------------
# WKB clocks


def test_both_routes_agree_on_a_wkb_clock():
    # the quantum time of the WKB clock state against the classical time map
    grid = Grid1D(0.0, 1.0, 8001)
    clock = ClockModel(Harmonic(1.0), 500.0, 4.0, grid)
    classical = clock_time_map(clock).times
    via_chi = quantum_time(_wkb_state(clock).chi(), clock.M)
    assert np.max(np.abs(via_chi.values.real - classical)) / classical[-1] < 1e-2


def test_wkb_state_checks_its_own_consistency():
    grid = Grid1D(0.0, 1.0, 2001)
    wkb = _wkb_state(ClockModel(Harmonic(1.0), 500.0, 4.0, grid))
    assert wkb.momentum_defect < 1e-4
    with pytest.raises(DegenerateInputError):
        # action table inconsistent with the momentum table
        WKBState(grid, np.zeros(grid.n), wkb.amplitude, wkb.momentum, 500.0, 1.0)


# ---------------------------------------------------------------------------
# complex map plumbing


def test_complex_map_collapse_and_guards():
    grid = Grid1D(0.0, 1.0, 101)
    real_map = ComplexTimeMap(grid, np.linspace(0.0, 2.0, 101) + 0j)
    assert real_map.max_imag_fraction == 0.0
    skew = ComplexTimeMap(grid, np.linspace(0.0, 2.0, 101) + 0.1j)
    assert skew.max_imag_fraction == pytest.approx(0.05)
    with pytest.raises(DegenerateInputError):
        ComplexTimeMap(grid, np.full(101, np.nan + 0j))
