"""Grids, fields, potentials, couplings and the channel basis container."""

import numpy as np
import pytest

from chronolab import (
    Bilinear,
    ChannelBasis,
    CompositeSpec,
    Constant,
    Coupling,
    DegenerateInputError,
    Field1D,
    Field2D,
    GaussianWell,
    Grid1D,
    Grid2D,
    GridMismatchError,
    Harmonic,
    Linear,
    SystemSpec,
    WindowedPulse,
    ZeroCoupling,
    inner_product,
    norm,
    normalize,
)
from chronolab.core import _d1, central_difference
from conftest import gaussian_field, ho_ground


# ---------------------------------------------------------------------------
# grids


def test_grid_points_and_spacing():
    g = Grid1D(-2.0, 3.0, 11)
    assert g.spacing == pytest.approx(0.5)
    assert g.points[0] == -2.0 and g.points[-1] == 3.0
    assert g.points.size == 11


def test_grid_weights_integrate_linear_exactly():
    g = Grid1D(0.0, 2.0, 57)
    # trapezoid is exact on affine integrands
    assert np.sum(g.weights * (3.0 * g.points + 1.0)) == pytest.approx(8.0, abs=1e-13)


def test_grid_rejects_degenerate_input():
    with pytest.raises(DegenerateInputError):
        Grid1D(1.0, 1.0, 5)
    with pytest.raises(DegenerateInputError):
        Grid1D(0.0, 1.0, 2)


def test_subgrid_preserves_points():
    g = Grid1D(0.0, 1.0, 101)
    s = g.subgrid(10, 90)
    assert s.n == 81
    np.testing.assert_allclose(s.points, g.points[10:91], atol=1e-15)
    with pytest.raises(DegenerateInputError):
        g.subgrid(50, 50)


def test_field_shape_validation():
    g = Grid1D(0.0, 1.0, 8)
    with pytest.raises(GridMismatchError):
        Field1D(g, np.zeros(9))
    gg = Grid2D(g, Grid1D(0.0, 1.0, 5))
    with pytest.raises(GridMismatchError):
        Field2D(gg, np.zeros((5, 8)))
    f = Field2D(gg, np.zeros((8, 5)))
    assert f.values.dtype == complex


# ---------------------------------------------------------------------------
# inner products and derivatives


def test_norm_of_gaussian():
    g = Grid1D(-12.0, 12.0, 1201)
    f = gaussian_field(g, 0.3, 1.1)
    assert norm(f) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_conjugate_symmetry(rng):
    g = Grid1D(-1.0, 1.0, 64)
    a = Field1D(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    b = Field1D(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_inner_product_rejects_mismatched_grids():
    a = Field1D(Grid1D(0.0, 1.0, 8), np.ones(8))
    b = Field1D(Grid1D(0.0, 2.0, 8), np.ones(8))
    with pytest.raises(GridMismatchError):
        inner_product(a, b)


def test_normalize_unit_and_zero():
    g = Grid1D(-1.0, 1.0, 33)
    f = Field1D(g, 7.3j * np.ones(33))
    assert norm(normalize(f)) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DegenerateInputError):
        normalize(Field1D(g, np.zeros(33)))


def test_derivatives_second_order_on_sine():
    errs = []
    for n in (201, 401):
        g = Grid1D(0.0, 2.0 * np.pi, n)
        f = np.sin(g.points)
        d1 = _d1(f, g.spacing) - np.cos(g.points)
        d2 = central_difference(f, g.spacing, 2) + np.sin(g.points[1:-1])
        errs.append(max(np.max(np.abs(d1[2:-2])), np.max(np.abs(d2[1:-1]))))
    # halving h should cut the interior error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


@pytest.mark.parametrize("deriv", [0, 3])
@pytest.mark.parametrize("order", [2, 4])
def test_central_difference_rejects_other_derivatives(deriv, order):
    with pytest.raises(DegenerateInputError, match="derivative must be 1 or 2"):
        central_difference(np.zeros(9), 0.1, deriv, order)


# ---------------------------------------------------------------------------
# potentials


def test_potential_values():
    q = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(Harmonic(3.0)(q), 1.5 * q**2)
    np.testing.assert_allclose(Linear(0.7)(q), 0.7 * q)
    np.testing.assert_allclose(Constant(4.2)(q), 4.2)
    np.testing.assert_allclose(
        GaussianWell(depth=2.0, width=0.5, center=0.0)(q), -2.0 * np.exp(-q**2 / 0.5)
    )


# ---------------------------------------------------------------------------
# couplings


COUPLINGS = [
    Bilinear(0.3),
    Coupling(GaussianWell(1.0, 0.7, 0.0), Linear(2.0), 1.0),
    WindowedPulse(0.5, 1.0, 0.4, Linear(1.0)),
    ZeroCoupling(),
]


@pytest.mark.parametrize("coupling", COUPLINGS)
def test_factorized_matches_direct_evaluation(coupling):
    x = np.linspace(-2.0, 2.0, 11)[:, None]
    r = np.linspace(-1.0, 3.0, 9)[None, :]
    g = coupling.strength * coupling.env(r)
    np.testing.assert_allclose(g * coupling.sys(x), coupling(x, r), atol=1e-14)


@pytest.mark.parametrize(
    "coupling", COUPLINGS + [Coupling(Harmonic(1.5), GaussianWell(0.8, 0.6, -0.3), 0.7)]
)
def test_coupling_derivatives_match_central_differences(coupling):
    x = np.linspace(-2.0, 2.0, 11)[:, None]
    r = np.linspace(-1.0, 3.0, 9)[None, :]
    h = 1e-5
    d_dx = (coupling(x + h, r) - coupling(x - h, r)) / (2.0 * h)
    d_dr = (coupling(x, r + h) - coupling(x, r - h)) / (2.0 * h)
    assert coupling.d_dx(x, r).shape == coupling.d_dr(x, r).shape == (11, 9)
    np.testing.assert_allclose(coupling.d_dx(x, r), d_dx, rtol=0, atol=1e-8)
    np.testing.assert_allclose(coupling.d_dr(x, r), d_dr, rtol=0, atol=1e-8)


def test_windowed_pulse_shape():
    p = WindowedPulse(0.5, 1.0, 0.4, Linear(1.0))
    assert p(2.0, 1.0) == pytest.approx(1.0)  # peak of the envelope
    assert p(2.0, 1.0 + 0.4) == pytest.approx(np.exp(-0.5))
    # symmetric about the center
    assert p(1.3, 0.2) == pytest.approx(p(1.3, 1.8))


def test_bilinear_and_zero_values():
    assert Bilinear(0.25)(2.0, -3.0) == pytest.approx(-1.5)
    assert np.all(ZeroCoupling()(np.ones(4), np.ones(4)) == 0.0)


# ---------------------------------------------------------------------------
# specs


def test_spec_validation():
    with pytest.raises(DegenerateInputError):
        SystemSpec(-1.0, 1.0, Harmonic(1.0))
    with pytest.raises(DegenerateInputError):
        CompositeSpec(1.0, 1.0, 0.0, Constant(), Harmonic(1.0), ZeroCoupling())


def test_composite_spec_system_view():
    spec = CompositeSpec(10.0, 2.0, 1.0, Constant(), Harmonic(3.0), Bilinear(0.1))
    sysm = spec.system
    assert sysm.m == 2.0 and sysm.v_sys is spec.v_sys
    assert spec.total_potential(1.0, 2.0) == pytest.approx(1.5 + 0.2)


# ---------------------------------------------------------------------------
# channel basis


def _analytic_ho_basis(grid: Grid1D, k: float):
    x = grid.points
    g0 = ho_ground(grid, 1.0, k)
    w = np.sqrt(k)
    g1 = np.sqrt(2.0 * w) * x * g0  # first excited via the raising operator
    return ChannelBasis(grid, np.array([g0, g1]), np.array([0.5, 1.5]) * w, 2)


def test_channel_basis_orthonormal():
    basis = _analytic_ho_basis(Grid1D(-9.0, 9.0, 601), 1.0)
    assert len(basis) == 2
    np.testing.assert_allclose(basis.gram(), np.eye(2), atol=1e-10)
    assert basis.states.shape == (2, 601)
    assert basis.states.dtype == complex


def test_channel_basis_rejects_skewed_states():
    grid = Grid1D(-9.0, 9.0, 301)
    g0 = ho_ground(grid, 1.0, 1.0)
    with pytest.raises(DegenerateInputError):
        ChannelBasis(grid, np.array([g0, g0]), np.array([0.5, 1.5]), 2)
    # one row per energy, one column per grid point
    with pytest.raises(GridMismatchError):
        ChannelBasis(grid, g0[None, :], np.array([0.5, 1.5]), 2)
    with pytest.raises(GridMismatchError):
        ChannelBasis(grid, g0[None, 1:], np.array([0.5]), 2)
