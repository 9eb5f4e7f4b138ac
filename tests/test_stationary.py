"""Composite eigenproblems, factorization, channels and directed states."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chronolab import (
    Bilinear,
    ChannelBasis,
    CompositeSpec,
    Constant,
    DegenerateInputError,
    Field1D,
    Field2D,
    Grid1D,
    Grid2D,
    GridMismatchError,
    Harmonic,
    Linear,
    SystemSpec,
    WindowedPulse,
    ZeroCoupling,
    assemble_tise,
    bo_surface,
    close_coupled_residuals,
    compute_back_reaction,
    conditional_equation_residual,
    factorize_prescribed,
    factorize_selfconsistent,
    project_channels,
    schmidt_spectrum,
    solve_bo_states,
    solve_directed_state,
    solve_eigenpairs,
    solve_system_basis,
)
from chronolab.core import _apply_kinetic, _kinetic_coeffs
from chronolab.stationary import (
    _channel_residual,
    _project,
    _transfer_scan,
)


@pytest.fixture(scope="module")
def weak_pair():
    """Lowest eigenpair of a weakly coupled two-oscillator composite."""
    grid = Grid1D(-7.0, 7.0, 128)
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), Bilinear(0.15),
                         energy=5.0, clock_energy=2.0)
    h = assemble_tise(spec, Grid2D(grid, grid))
    pair = solve_eigenpairs(h, e_target=1.6, k=1)[0]
    return spec, grid, pair


# ---------------------------------------------------------------------------
# spectra


def test_separable_spectrum_matches_oscillator_sums():
    grid = Grid1D(-7.0, 7.0, 64)
    grid2 = Grid2D(grid, grid)
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), ZeroCoupling())
    h = assemble_tise(spec, grid2)
    pairs = solve_eigenpairs(h, e_target=1.4, k=4)
    got = np.array([p.energy for p in pairs])
    # w_R = 1, w_x = 2: sums (nR + 1/2) + 2 (nx + 1/2)
    expect = np.array([1.5, 2.5, 3.5, 3.5])
    np.testing.assert_allclose(got, expect, rtol=1e-3)
    for p in pairs:
        assert p.residual < 1e-8 * abs(p.energy)


def test_eigensolve_is_deterministic():
    grid = Grid1D(-6.0, 6.0, 48)
    grid2 = Grid2D(grid, grid)
    spec = CompositeSpec(1.5, 1.0, 1.0, Harmonic(1.0), Harmonic(1.0), Bilinear(0.1))
    h = assemble_tise(spec, grid2)
    a = solve_eigenpairs(h, e_target=1.0, k=2)
    b = solve_eigenpairs(h, e_target=1.0, k=2)
    assert [p.energy for p in a] == [p.energy for p in b]
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.state.values, pb.state.values)


def test_system_basis_energies_and_orthonormality():
    grid = Grid1D(-8.0, 8.0, 801)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(4.0)), grid, 4, order=4)
    np.testing.assert_allclose(basis.energies, 2.0 * (np.arange(4) + 0.5), rtol=1e-6)
    np.testing.assert_allclose(basis.gram(), np.eye(4), atol=1e-10)
    assert basis.stencil_order == 4


# ---------------------------------------------------------------------------
# factorization


def test_prescribed_factorization_reconstructs_state(weak_pair):
    spec, grid, pair = weak_pair
    wx = grid.weights
    marginal = np.sqrt(np.sum(wx * np.abs(pair.state.values) ** 2, axis=1))
    fs = factorize_prescribed(pair.state, Field1D(grid, marginal))
    i0, i1 = fs.window
    recon = fs.chi.values[:, None] * fs.psi.values
    assert np.max(np.abs(recon - pair.state.values[i0:i1 + 1])) < 1e-12
    # the window drops only the negligible tails
    dropped = np.abs(marginal[[0, -1]]).max() / np.abs(marginal).max()
    assert dropped < 1e-8


def test_prescribed_factorization_rejects_wrong_grid(weak_pair):
    spec, grid, pair = weak_pair
    other = Grid1D(-7.0, 7.0, 130)
    with pytest.raises(GridMismatchError):
        factorize_prescribed(pair.state, Field1D(other, np.ones(130)))


def test_selfconsistent_factorization_recovers_total_energy(weak_pair):
    spec, grid, pair = weak_pair
    fs, trace = factorize_selfconsistent(pair, spec)
    assert fs.mode == "selfconsistent"
    # the clock eigenvalue of the effective 1D problem is the composite energy
    assert trace.energies[-1] == pytest.approx(pair.energy, abs=1e-6)
    assert fs.u_s is not None
    res = conditional_equation_residual(fs, spec, u_s=fs.u_s)
    assert res < 1e-4


def test_back_reaction_of_uncoupled_state_is_flat():
    grid = Grid1D(-7.0, 7.0, 96)
    grid2 = Grid2D(grid, grid)
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), ZeroCoupling())
    h = assemble_tise(spec, grid2)
    pair = solve_eigenpairs(h, e_target=1.4, k=1)[0]
    wx = grid.weights
    marginal = np.sqrt(np.sum(wx * np.abs(pair.state.values) ** 2, axis=1))
    fs = factorize_prescribed(pair.state, Field1D(grid, marginal))
    u = compute_back_reaction(fs, spec).values
    # product state: psi is the bare system level, so U_S == eps_0 everywhere
    assert np.ptp(u.real) < 1e-8
    assert np.mean(u.real) == pytest.approx(1.0, rel=1e-4)
    assert np.max(np.abs(u.imag)) < 1e-10


# ---------------------------------------------------------------------------
# schmidt spectrum


def test_schmidt_spectrum_orders_and_normalizes(weak_pair):
    spec, grid, pair = weak_pair
    sch = schmidt_spectrum(pair.state)
    assert np.all(np.diff(sch.values) <= 1e-12)
    assert sch.norm_sq == pytest.approx(1.0, rel=1e-10)
    # weak coupling: almost a product state, but not exactly
    assert 0.999 < sch.purity < 1.0


def test_schmidt_product_state_is_pure():
    g = Grid1D(-6.0, 6.0, 101)
    gg = Grid2D(g, g)
    a = np.exp(-g.points**2)
    psi = Field2D(gg, np.outer(a, a))
    sch = schmidt_spectrum(psi)
    assert 1.0 - sch.purity < 1e-12


# ---------------------------------------------------------------------------
# channel projections


def test_close_coupled_residual_drops_with_channels(weak_pair):
    spec, grid, pair = weak_pair
    worst = {}
    for k in (2, 4):
        basis = solve_system_basis(spec.system, grid, k, order=4)
        dec = project_channels(pair.state, basis)
        rep = close_coupled_residuals(dec, spec, pair.energy, order_r=4)
        worst[k] = float(rep.residuals.max())
        assert rep.hermiticity_defect < 1e-10
    assert worst[2] / worst[4] > 10.0


def test_projection_defect_shrinks_with_basis(weak_pair):
    spec, grid, pair = weak_pair
    defects = []
    for k in (2, 6):
        basis = solve_system_basis(spec.system, grid, k, order=4)
        defects.append(project_channels(pair.state, basis).defect)
    assert defects[0] > defects[1]
    assert defects[1] < 1e-10


def test_projection_rejects_foreign_basis(weak_pair):
    spec, grid, pair = weak_pair
    other = Grid1D(-7.0, 7.0, 256)
    basis = solve_system_basis(spec.system, other, 2, order=4)
    with pytest.raises(GridMismatchError):
        project_channels(pair.state, basis)


# ---------------------------------------------------------------------------
# fixed-environment system states


def test_bo_curve_matches_displaced_oscillator():
    # bilinear coupling shifts the oscillator and lowers it by (lam R)^2 / 2k
    grid = Grid1D(-7.0, 7.0, 128)
    lam, k_sys = 0.15, 4.0
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(k_sys), Bilinear(lam))
    r = np.linspace(-3.0, 3.0, 41)
    surf = bo_surface(spec, grid, r, k=2)
    exact = np.sqrt(k_sys) / 2.0 - (lam * r) ** 2 / (2.0 * k_sys)
    np.testing.assert_allclose(surf.energies[0], exact, atol=1e-4)


def test_bo_states_sign_convention():
    grid = Grid1D(-7.0, 7.0, 128)
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), Bilinear(0.15))
    states, vals = solve_bo_states(spec, grid, 0.5, 2)
    for s in states:
        peak = np.argmax(np.abs(s.values))
        assert s.values[peak].real > 0.0


# ---------------------------------------------------------------------------
# directed states


def _directed_problem(coupling, slices=801, e_kin=50.0, v_env=None):
    """(spec, basis, fine R grid, stride) of a beam crossing a harmonic system."""
    M, hbar = 200.0, 1.0
    x_grid = Grid1D(-8.0, 8.0, 161)
    system = SystemSpec(1.0, hbar, Harmonic(4.0))
    # enough headroom channels that truncation leakage stays tiny
    basis = solve_system_basis(system, x_grid, 6, order=2)
    e_total = e_kin + float(basis.energies[0])
    v = np.sqrt(2.0 * e_kin / M)
    span = v * 2.0
    k_max = np.sqrt(2.0 * M * e_total) / hbar
    n_min = int(np.ceil(span * k_max / 0.02))
    stride = max(1, -(-n_min // (slices - 1)))
    r_grid = Grid1D(0.0, span, stride * (slices - 1) + 1)
    spec = CompositeSpec(M, 1.0, hbar, v_env or Constant(), Harmonic(4.0), coupling,
                         energy=e_total, clock_energy=e_total)
    return spec, basis, r_grid, stride


def _directed_setup(coupling, slices=801, e_kin=50.0, v_env=None):
    spec, basis, r_grid, stride = _directed_problem(coupling, slices, e_kin, v_env)
    pair = solve_directed_state(spec, basis, r_grid, spec.energy, 0, 1e-6, stride=stride)
    return basis, pair


def test_directed_free_beam_keeps_its_channel():
    basis, pair = _directed_setup(ZeroCoupling())
    assert pair.residual < 1e-6
    wx = basis.x_grid.weights
    mat = basis.state_matrix()
    amps = (np.conj(mat) * wx) @ pair.state.values.T
    pops = np.abs(amps) ** 2
    # no coupling: the incoming channel rides through untouched
    assert np.ptp(pops[0]) / np.max(pops[0]) < 1e-8
    assert np.max(pops[1:]) < 1e-12 * np.max(pops[0])


def test_directed_pulse_transfers_population():
    # keep the envelope negligible at both open ends of the beam
    pulse = WindowedPulse(0.3, 0.7, 0.08, Linear(1.0))
    basis, pair = _directed_setup(pulse)
    assert pair.residual < 1e-6
    wx = basis.x_grid.weights
    mat = basis.state_matrix()
    amps = (np.conj(mat) * wx) @ pair.state.values.T
    pops = np.abs(amps) ** 2
    pops /= pops[:, 0].sum()
    # the pulse moves some population up, mostly to the adjacent channel
    assert pops[1, -1] > 1e-6
    assert pops[1, -1] > 10.0 * pops[2, -1]


def test_directed_entry_edge_must_be_free():
    # a pulse centred on the entry edge: the free seed wave is not a solution there
    with pytest.raises(DegenerateInputError, match="entry edge"):
        _directed_setup(WindowedPulse(0.3, 0.0, 0.08, Linear(1.0)))
    # a sloped clock potential: V_env changes across the first step
    with pytest.raises(DegenerateInputError, match="entry edge"):
        _directed_setup(ZeroCoupling(), v_env=Linear(1.0))


# ---------------------------------------------------------------------------
# blocked transfer scan and channel-space residual


def _sequential_scan(seed, diag, w, g):
    """The recurrence one row at a time, as an oracle for _transfer_scan."""
    n, k = diag.shape
    kap = np.zeros((n, k), dtype=complex)
    kap[:2] = seed
    for j in range(1, n - 1):
        kap[j + 1] = 2.0 * kap[j] - kap[j - 1] + diag[j] * kap[j] + g[j] * w @ kap[j]
    return kap


def _directed_residual(spec, basis, r_grid, energy, kappas, block=2048):
    """The directed residual in x space, as an oracle for _channel_residual.

    Assembles the channel-sum field in row blocks and applies the
    composite H - E with the order-2 R stencil (wall rows taken as they
    stand) and the basis stencil in x, over interior rows and columns.
    """
    mat = basis.state_matrix()
    x = basis.x_grid.points
    v_sys_x = np.asarray(spec.v_sys(x), dtype=float)
    c0, c1, _ = _kinetic_coeffs(2, r_grid.spacing, spec.M, spec.hbar)
    wr = r_grid.weights
    wx = basis.x_grid.weights
    num2 = 0.0
    den2 = 0.0
    n = r_grid.n
    for a in range(1, n - 1, block):
        b = min(a + block, n - 1)
        psi = kappas[a - 1:b + 1] @ mat  # one halo row each side
        mid = psi[1:-1]
        lhs = c0 * mid + c1 * (psi[:-2] + psi[2:])
        lhs += _apply_kinetic(mid, 1, basis.stencil_order, basis.x_grid.spacing,
                              spec.m, spec.hbar)
        rows = r_grid.points[a:b]
        v = v_sys_x[None, :] + np.asarray(spec.v_env(rows), dtype=float)[:, None] \
            + np.asarray(spec.v_int(x[None, :], rows[:, None]), dtype=float)
        lhs += (v - energy) * mid
        w = np.outer(wr[a:b], wx[1:-1])
        num2 += float(np.sum(w * np.abs(lhs[:, 1:-1]) ** 2))
        den2 += float(np.sum(w * np.abs(mid[:, 1:-1]) ** 2))
    return float(np.sqrt(num2 / den2))


def _hermitian(rng, shape, scale):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return scale * (a + np.conj(np.swapaxes(a, -1, -2)))


@given(n=st.integers(3, 600), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(n=3, k=1, seed=0)
@example(n=12, k=2, seed=1)  # 10 steps: 3 blocks of 4, the last padded
@example(n=600, k=4, seed=3)
def test_transfer_scan_matches_sequential_recurrence(n, k, seed):
    rng = np.random.default_rng(seed)
    kh = rng.uniform(1e-3, 5e-2)  # lattice phase per step
    diag = -kh**2 * (1.0 + 0.2 * rng.random((n, k)))
    seed_rows = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    w = _hermitian(rng, (k, k), 0.05 * kh**2)
    g = rng.standard_normal(n)
    want = _sequential_scan(seed_rows, diag, w, g)
    got = _transfer_scan(seed_rows, diag, w, g)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_channel_residual_matches_x_space_residual():
    pulse = WindowedPulse(0.3, 0.7, 0.08, Linear(1.0))
    spec, basis, r_grid, stride = _directed_problem(pulse, slices=4001, e_kin=15.0)
    assert stride == 1
    pair = solve_directed_state(spec, basis, r_grid, spec.energy, 0, 1e-6)
    kappas = _project(basis, pair.state.values).T
    g_r = pulse.strength * pulse.env(r_grid.points)

    def both(kap):
        return (_channel_residual(spec, basis, r_grid, spec.energy, kap, g_r, block=1000),
                _directed_residual(spec, basis, r_grid, spec.energy, kap))

    chan, xspace = both(kappas)
    assert chan < 1e-6 and xspace < 1e-6
    assert abs(chan - xspace) < 1e-4 * xspace
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(kappas.shape) + 1j * rng.standard_normal(kappas.shape)
    chan, xspace = both(kappas + 1e-6 * np.max(np.abs(kappas)) * noise)
    assert abs(chan - xspace) < 1e-8 * xspace
