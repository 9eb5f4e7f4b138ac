"""Composite eigenproblems, factorization, channels and directed states."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

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
    NodeError,
    SystemSpec,
    WindowedPulse,
    ZeroCoupling,
    assemble_tise,
    close_coupled_residuals,
    compute_back_reaction,
    factorize_prescribed,
    factorize_selfconsistent,
    project_channels,
    solve_directed_state,
    solve_eigenpairs,
    solve_system_basis,
)
from chronolab import stationary
from chronolab.cli import _detail
from chronolab.core import _apply_kinetic, _kinetic_coeffs, norm
from chronolab.dynamics import EmergenceScanConfig, directed_run
from chronolab.stationary import (
    RESIDUAL_BLOCK,
    WINDOW_THRESHOLD,
    _channel_residual,
    _embed_states,
    _kinetic_banded,
    _transfer_scan,
)


@pytest.fixture(scope="module")
def weak_pair():
    """Lowest eigenpair of a weakly coupled two-oscillator composite."""
    grid = Grid1D(-7.0, 7.0, 128)
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), Bilinear(0.15))
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


def test_eigenpairs_match_the_per_pair_loop():
    # the pairs as they were formed one at a time: the same fields to the
    # bit, and residuals to rounding (the norms sum in another order)
    grid2 = Grid2D(Grid1D(-7.0, 7.0, 40), Grid1D(-7.0, 7.0, 48))
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), Bilinear(0.15))
    h = assemble_tise(spec, grid2)
    pairs = solve_eigenpairs(h, e_target=1.6, k=3)
    v0 = np.random.default_rng(0).standard_normal(h.matrix.shape[0])
    vals, vecs = eigsh(h.matrix, k=3, sigma=1.6, which="LM", v0=v0)
    for pair, idx in zip(pairs, np.argsort(vals)):
        full = np.zeros((40, 48), dtype=complex)
        full[1:-1, 1:-1] = vecs[:, idx].reshape(38, 46)
        f = Field2D(grid2, full)
        f = Field2D(grid2, full / norm(f))
        u = f.values[1:-1, 1:-1].ravel()
        res = np.linalg.norm(h.matrix @ u - vals[idx] * u) / np.linalg.norm(u)
        assert pair.energy == vals[idx]
        assert np.array_equal(pair.state.values, f.values)
        assert pair.residual == pytest.approx(res, rel=64 * np.finfo(float).eps)


def test_embedded_states_match_the_per_row_loop(rng):
    # random interior vectors, so that both signs meet the gauge
    grid = Grid1D(-3.0, 2.0, 161)
    vecs = rng.standard_normal((159, 5))
    rows = []
    for j in range(5):
        full = np.zeros(161, dtype=complex)
        full[1:-1] = vecs[:, j]
        f = Field1D(grid, full / norm(Field1D(grid, full)))
        i = int(np.argmax(np.abs(f.values)))
        rows.append(-f.values if f.values[i].real < 0 else f.values)
    assert np.array_equal(_embed_states(grid, vecs), np.array(rows))


def test_system_basis_energies_and_orthonormality():
    grid = Grid1D(-8.0, 8.0, 801)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(4.0)), grid, 4, order=4)
    np.testing.assert_allclose(basis.energies, 2.0 * (np.arange(4) + 0.5), rtol=1e-6)
    np.testing.assert_allclose(basis.gram(), np.eye(4), atol=1e-10)
    assert basis.stencil_order == 4
    # sign convention: real and positive at the amplitude maximum
    for s in basis.states:
        assert s[np.argmax(np.abs(s))].real > 0.0


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


@given(nr=st.integers(5, 40), nx=st.integers(3, 16), seed=st.integers(0, 2**32 - 1))
def test_factorization_identity_for_random_node_free_chi(nr, nx, seed):
    rng = np.random.default_rng(seed)
    grid = Grid2D(Grid1D(-1.0, 1.0, nr), Grid1D(0.0, 2.0, nx))
    state = Field2D(grid, rng.standard_normal((nr, nx)) + 1j * rng.standard_normal((nr, nx)))
    # node-free: |chi| spans six decades, all far above the window threshold
    phase = np.exp(2j * np.pi * rng.random(nr))
    chi = Field1D(grid.r, 10.0 ** rng.uniform(-6.0, 0.0, nr) * phase)
    fs = factorize_prescribed(state, chi)
    assert fs.window == (0, nr - 1)
    recon = fs.chi.values[:, None] * fs.psi.values
    assert np.max(np.abs(recon - state.values)) <= 1e-12 * np.max(np.abs(state.values))

    # one interior point below the threshold is a node of chi
    j = int(rng.integers(1, nr - 1))
    dipped = chi.values.copy()
    dipped[j] = 0.5 * WINDOW_THRESHOLD * np.max(np.abs(np.delete(dipped, j))) * phase[j]
    with pytest.raises(NodeError) as exc:
        factorize_prescribed(state, Field1D(grid.r, dipped))
    assert list(exc.value.locations) == [grid.r.points[j]]


def test_prescribed_factorization_rejects_wrong_grid(weak_pair):
    spec, grid, pair = weak_pair
    other = Grid1D(-7.0, 7.0, 130)
    with pytest.raises(GridMismatchError):
        factorize_prescribed(pair.state, Field1D(other, np.ones(130)))


def test_selfconsistent_factorization_recovers_total_energy(weak_pair):
    spec, grid, pair = weak_pair
    fs, trace = factorize_selfconsistent(pair, spec)
    # the clock eigenvalue of the effective 1D problem is the composite energy
    assert trace["energies"][-1] == pytest.approx(pair.energy, abs=1e-6)
    assert fs.u_s is not None


def test_factorization_trace_is_plain_json(weak_pair):
    # a ConvergenceError carries the trace in this shape, and a failing
    # stage writes its fields to the manifest through `_detail`
    spec, grid, pair = weak_pair
    _, trace = factorize_selfconsistent(pair, spec)
    assert json.loads(json.dumps(_detail(trace))) == trace
    assert len(trace["steps"]) == len(trace["energies"]) >= 1


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
# channel projections


def test_close_coupled_residual_drops_with_channels(weak_pair):
    spec, grid, pair = weak_pair
    worst = {}
    for k in (2, 4):
        basis = solve_system_basis(spec.system, grid, k, order=4)
        dec = project_channels(pair.state, basis)
        rep = close_coupled_residuals(dec, spec, pair.energy)
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
# directed states


def _directed_problem(coupling, slices=801, e_kin=50.0, v_env=None):
    """(spec, basis, fine R grid, stride, total energy) of a beam crossing a
    harmonic system."""
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
    spec = CompositeSpec(M, 1.0, hbar, v_env or Constant(), Harmonic(4.0), coupling)
    return spec, basis, r_grid, stride, e_total


def _directed_setup(coupling, slices=801, e_kin=50.0, v_env=None):
    spec, basis, r_grid, stride, energy = _directed_problem(coupling, slices, e_kin, v_env)
    pair = solve_directed_state(spec, basis, r_grid, energy, 0, 1e-6, stride=stride)
    return basis, pair


def test_directed_free_beam_keeps_its_channel():
    basis, pair = _directed_setup(ZeroCoupling())
    assert pair.residual < 1e-6
    wx = basis.x_grid.weights
    amps = (np.conj(basis.states) * wx) @ (pair.amplitudes @ basis.states).T
    pops = np.abs(amps) ** 2
    # no coupling: the incoming channel rides through untouched
    assert np.ptp(pops[0]) / np.max(pops[0]) < 1e-8
    assert np.max(pops[1:]) < 1e-12 * np.max(pops[0])


@pytest.mark.parametrize("stride", [1, 4])
def test_directed_state_carries_its_composite_and_fine_lattice(stride):
    # the state's own grid and stride give back the fine grid of the solve
    # exactly, so a reader of the lattice needs nothing beside the state
    spec, basis, r_grid, _, energy = _directed_problem(ZeroCoupling())
    fine = Grid1D(r_grid.lo, r_grid.hi, 2000 * stride + 1)
    state = solve_directed_state(spec, basis, fine, energy, 0, 1e-6, stride=stride)
    assert state.spec is spec
    assert state.stride == stride
    assert state.r_grid.n == 2001
    assert state.fine_spacing == fine.spacing
    assert (state.r_grid.n - 1) * state.stride + 1 == state.fine_points == fine.n


def test_directed_pulse_transfers_population():
    # keep the envelope negligible at both open ends of the beam
    pulse = WindowedPulse(0.3, 0.7, 0.08, Linear(1.0))
    basis, pair = _directed_setup(pulse)
    assert pair.residual < 1e-6
    wx = basis.x_grid.weights
    amps = (np.conj(basis.states) * wx) @ (pair.amplitudes @ basis.states).T
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
    mat = basis.states
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
        lhs += _apply_kinetic(mid, basis.stencil_order, basis.x_grid.spacing,
                              spec.m, spec.hbar)
        rows = r_grid.points[a:b]
        v = v_sys_x[None, :] + np.asarray(spec.v_env(rows), dtype=float)[:, None] \
            + np.asarray(spec.v_int(x[None, :], rows[:, None]), dtype=float)
        lhs += (v - energy) * mid
        w = np.outer(wr[a:b], wx[1:-1])
        num2 += float(np.sum(w * np.abs(lhs[:, 1:-1]) ** 2))
        den2 += float(np.sum(w * np.abs(mid[:, 1:-1]) ** 2))
    return float(np.sqrt(num2 / den2))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_kinetic_table_and_stencil_are_one_operator(order, seed):
    # the banded table (eigensolves, the composite matrix) and the stencil
    # (channel operators, back-reaction) are one interior Dirichlet matrix
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    h, mass, hbar = rng.uniform(0.01, 1.0), rng.uniform(0.1, 10.0), rng.uniform(0.5, 2.0)
    values = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    bands = _kinetic_banded(n - 2, order, h, mass, hbar)
    dense = np.diag(bands[-1])
    for d in range(1, len(bands)):
        upper = np.diag(bands[-1 - d, d:], d)
        dense += upper + upper.T
    out = _apply_kinetic(values, order, h, mass, hbar)
    expected = values[:, 1:-1] @ dense.T
    assert np.all(out[:, [0, -1]] == 0.0)
    np.testing.assert_allclose(out[:, 1:-1], expected, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(expected)))


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


def test_channel_residual_matches_x_space_residual(monkeypatch):
    pulse = WindowedPulse(0.3, 0.7, 0.08, Linear(1.0))
    spec, basis, r_grid, stride, energy = _directed_problem(pulse, slices=4001, e_kin=15.0)
    assert stride == 1
    pair = solve_directed_state(spec, basis, r_grid, energy, 0, 1e-6, stride=1)
    kappas = pair.amplitudes
    # blocks of 1,000 rows: the sums run over several blocks and a short last one
    monkeypatch.setattr(stationary, "RESIDUAL_BLOCK", 1000)
    g_r = pulse.strength * pulse.env(r_grid.points)

    def both(kap):
        return (_channel_residual(spec, basis, r_grid, energy, kap, g_r),
                _directed_residual(spec, basis, r_grid, energy, kap))

    chan, xspace = both(kappas)
    assert chan < 1e-6 and xspace < 1e-6
    assert abs(chan - xspace) < 1e-4 * xspace
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(kappas.shape) + 1j * rng.standard_normal(kappas.shape)
    chan, xspace = both(kappas + 1e-6 * np.max(np.abs(kappas)) * noise)
    assert abs(chan - xspace) < 1e-8 * xspace


@pytest.fixture(scope="module")
def top_scan_point():
    """The arguments `solve_directed_state` hands to `_transfer_scan` and to
    `_channel_residual` at the top point of the default scan (52,001 fine
    R rows), by function name."""
    captured = {}

    def recording(name):
        real = getattr(stationary, name)

        def record(*args):
            captured[name] = args
            return real(*args)
        return record

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_transfer_scan", "_channel_residual"):
            mp.setattr(stationary, name, recording(name))
        cfg = EmergenceScanConfig()
        directed_run(cfg, cfg.system_basis(), max(cfg.kinetic_energies))
    return captured


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transfer_scan_holds_only_its_step_tables_and_rows(top_scan_point):
    seed, diag, w, g = top_scan_point["_transfer_scan"]
    n, k = diag.shape
    assert n == 52001
    # diag and g are handed over as temporaries, as the solve does
    peak = _peak_bytes(_transfer_scan, seed, diag.copy(), w, g.copy())
    # the float step tables of diag and g and the complex rows, each at most
    # sqrt(n) + 1 rows past n; anything else stays below half a float (n, k)
    # table (measured: 8.22 MiB against 7.57 MiB of tables and rows)
    rows = n + math.isqrt(n) + 1
    assert peak < (8 * (k + 1) + 16 * k) * rows + 8 * n * k / 2


def test_channel_residual_memory_is_three_block_tables(top_scan_point):
    args = top_scan_point["_channel_residual"]
    n, k = args[4].shape
    assert n == 52001
    # the y table, its conjugate and two (RESIDUAL_BLOCK, k) scratch tables,
    # whatever n (measured: 1.52 MiB, 2.70 y tables; 8,192-row blocks with
    # per-block temporaries took 7.16 MiB)
    assert _peak_bytes(_channel_residual, *args) < 3 * RESIDUAL_BLOCK * 3 * k * 16
