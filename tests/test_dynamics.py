"""Time propagation: grid TDSE, amplitude ODEs, conditional states, scans."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from chronolab import (
    CompositeSpec,
    ConditionalTrajectory,
    Constant,
    Coupling,
    CouplingDrive,
    DegenerateInputError,
    ZeroCoupling,
    EmergenceScanConfig,
    Field1D,
    GaussianWell,
    Grid1D,
    Harmonic,
    SystemSpec,
    TimeMap,
    compare_amplitudes_to_grid,
    conditional_from_composite,
    emergence_scan,
    norm,
    normalize,
    propagate_amplitudes,
    propagate_tdse,
    solve_directed_state,
    solve_system_basis,
    tdse_residual,
)
from chronolab.core import _apply_kinetic, central_difference
from chronolab.dynamics import BLOCK_STEPS, DirectedRunConfig, _lattice_clock, directed_run
from chronolab.errors import BlowUpError, StabilityError


def _packet(grid, center=0.0, width=1.0, k0=0.0):
    x = grid.points
    v = np.exp(-((x - center) ** 2) / (2 * width**2) + 1j * k0 * x)
    return normalize(Field1D(grid, v))


# ---------------------------------------------------------------------------
# grid propagation


def test_cn_norm_conservation():
    grid = Grid1D(-10.0, 10.0, 801)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    traj = propagate_tdse(system, None, _packet(grid, 0.7), np.linspace(0.0, 2.0, 2001))
    assert traj.norm_drift < 1e-10


@given(nx=st.integers(5, 300), steps=st.integers(1, 200), scale=st.floats(0.0, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_cn_conserves_norm_for_random_real_potentials(nx, steps, scale, seed):
    # Crank-Nicolson is a Cayley transform of a Hermitian matrix: unitary
    # for any real potential, smooth or not, static or time-dependent
    rng = np.random.default_rng(seed)
    grid = Grid1D(-5.0, 5.0, nx)
    system = SystemSpec(1.0, 1.0, Constant())
    v_static, v_wave = scale * rng.standard_normal((2, nx))
    omega = rng.uniform(0.0, 20.0)

    def drive(x, t):
        return v_static + np.cos(omega * t) * v_wave

    psi0 = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
    psi0[[0, -1]] = 0.0
    t = np.cumsum(np.r_[0.0, rng.uniform(1e-3, 0.1, steps)])
    traj = propagate_tdse(system, drive, Field1D(grid, psi0), t)
    norms = traj.slice_norms()
    assert np.max(np.abs(norms - norms[0])) <= 1e-12 * norms[0]


def test_free_packet_dispersion_law():
    grid = Grid1D(-20.0, 20.0, 4001)
    system = SystemSpec(1.0, 1.0, Constant())
    t = np.linspace(0.0, 1.0, 1001)
    traj = propagate_tdse(system, None, _packet(grid, 0.0, 1.0), t)
    x = grid.points
    w = grid.weights
    # variance of |psi|^2 at the final slice vs the analytic spreading law
    # sigma^2(t) = sigma0^2 + (hbar t / 2 m sigma0)^2 with sigma0^2 = 1/2
    prob = np.abs(traj.values[-1]) ** 2
    var = np.sum(w * x**2 * prob) / np.sum(w * prob)
    assert var == pytest.approx(0.5 + 0.5, rel=1e-4)


def test_cn_step_halving_is_second_order():
    grid = Grid1D(-10.0, 10.0, 801)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    psi0 = _packet(grid, 0.7)

    def run(steps):
        return propagate_tdse(system, None, psi0, np.linspace(0.0, 1.0, steps + 1)).values[-1]

    ref = run(4000)
    errs = [np.max(np.abs(run(s) - ref)) for s in (500, 1000)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_eigenstate_acquires_only_a_phase():
    grid = Grid1D(-9.0, 9.0, 901)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    basis = solve_system_basis(system, grid, 1, order=2)
    psi0 = basis.states[0]
    eps0 = float(basis.energies[0])
    t = np.linspace(0.0, 3.0, 3001)
    traj = propagate_tdse(system, None, psi0, t)
    exact = psi0.values[None, :] * np.exp(-1j * eps0 * t)[:, None]
    assert np.max(np.abs(traj.values - exact)) < 1e-7


def test_trajectory_slicing():
    grid = Grid1D(-10.0, 10.0, 401)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    traj = propagate_tdse(system, None, _packet(grid), np.linspace(0.0, 0.5, 101))
    mid = traj.slice(50)
    assert isinstance(mid, Field1D)
    assert norm(mid) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# amplitude ODEs


def test_rabi_oscillation_in_degenerate_limit():
    grid = Grid1D(-8.0, 8.0, 321)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    from chronolab import ChannelBasis
    degenerate = ChannelBasis(grid, basis.states, np.zeros(2), basis.stencil_order)

    lam = 0.3
    x = grid.points
    w = grid.weights
    c = float(np.sum(w * basis.states[0].values.real * x * basis.states[1].values.real))
    t = np.linspace(0.0, 6.0, 3001)
    amps = propagate_amplitudes(degenerate, lambda xx, tt: lam * xx, [1.0, 0.0], t)
    pops = amps.populations()
    np.testing.assert_allclose(pops[:, 1], np.sin(lam * c * t) ** 2, atol=1e-6)
    assert amps.population_drift < 1e-9


def test_amplitudes_without_drive_are_constant():
    grid = Grid1D(-8.0, 8.0, 161)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(4.0)), grid, 3, order=2)
    t = np.linspace(0.0, 5.0, 11)
    amps = propagate_amplitudes(basis, None, [0.6, 0.8j, 0.0], t)
    assert np.array_equal(amps.amplitudes[0], amps.amplitudes[-1])


def test_amplitude_stepper_flags_instability():
    grid = Grid1D(-8.0, 8.0, 161)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(4.0)), grid, 2, order=2)
    coarse = np.linspace(0.0, 20.0, 21)
    with pytest.raises(StabilityError) as exc:
        propagate_amplitudes(basis, lambda x, t: 40.0 * x, [1.0, 0.0], coarse)
    assert exc.value.suggested_step < 1.0


def test_two_route_comparison_close_on_two_level_drive():
    grid = Grid1D(-8.0, 8.0, 321)
    system = SystemSpec(1.0, 1.0, Harmonic(4.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    rmap = Grid1D(-3.5, 3.5, 2001)
    from chronolab import ClockModel, WindowedPulse, Linear, clock_time_map
    clock = ClockModel(Harmonic(1.0), 80.0, 10.0, rmap)
    tmap = clock_time_map(clock)
    drive = CouplingDrive(WindowedPulse(0.2, 0.0, 0.8, Linear(1.0)), tmap)
    t = np.linspace(0.0, 0.9 * tmap.span[1], 2001)
    rep = compare_amplitudes_to_grid(system, basis, drive, basis.states[0], t)
    assert rep.basis_defect < 1e-6
    assert rep.max_deviation < 5e-3


def test_two_route_comparison_rejects_out_of_span_state():
    grid = Grid1D(-8.0, 8.0, 321)
    system = SystemSpec(1.0, 1.0, Harmonic(4.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    sharp = _packet(grid, 0.0, 0.2)  # far outside a two-state span
    with pytest.raises(DegenerateInputError):
        compare_amplitudes_to_grid(system, basis, None, sharp, np.linspace(0.0, 1.0, 11))


# ---------------------------------------------------------------------------
# block tables against per-sample steppers


def _rk4_per_sample(basis, drive, a0, t, hbar):
    """RK4 with the drive and its matrix elements evaluated at each stage."""
    deps = basis.energies[:, None] - basis.energies[None, :]
    x = basis.x_grid.points
    w = basis.x_grid.weights
    mat = basis.state_matrix()
    out = np.empty((t.size, len(basis)), dtype=complex)
    out[0] = a0

    def rhs(time, a):
        v = (np.conj(mat) * (w * np.asarray(drive(x, time), dtype=float))) @ mat.T
        return (-1j / hbar) * ((v * np.exp(1j * deps * time / hbar)) @ a)

    for i in range(t.size - 1):
        dt = t[i + 1] - t[i]
        a = out[i]
        k1 = rhs(t[i], a)
        k2 = rhs(t[i] + 0.5 * dt, a + 0.5 * dt * k1)
        k3 = rhs(t[i] + 0.5 * dt, a + 0.5 * dt * k2)
        k4 = rhs(t[i] + dt, a + dt * k3)
        out[i + 1] = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def _cn_per_sample(system, drive, psi0, t):
    """Crank-Nicolson with the drive evaluated at each midpoint, banded solves."""
    from scipy.linalg import solve_banded
    from chronolab.core import _kinetic_coeffs

    grid = psi0.grid
    x = grid.points
    c0, c1, _ = _kinetic_coeffs(2, grid.spacing, system.m, system.hbar)
    v_static = np.asarray(system.v_sys(x), dtype=float)
    out = np.zeros((t.size, grid.n), dtype=complex)
    out[0, 1:-1] = psi0.values[1:-1]
    ab = np.zeros((3, grid.n - 2), dtype=complex)
    for i, dtau in enumerate(np.diff(t).astype(complex)):
        u = out[i, 1:-1]
        tm = 0.5 * (t[i] + t[i + 1])
        vm = np.asarray(v_static + np.asarray(drive(x, tm), dtype=float), dtype=complex)[1:-1]
        alpha = 1j * dtau / (2.0 * system.hbar)
        hu = (c0 + vm) * u
        hu[:-1] += c1 * u[1:]
        hu[1:] += c1 * u[:-1]
        ab[0, 1:] = alpha * c1
        ab[1, :] = 1.0 + alpha * (c0 + vm)
        ab[2, :-1] = alpha * c1
        out[i + 1, 1:-1] = solve_banded((1, 1), ab, u - alpha * hu)
    return out


class _RecordingDrive:
    """A drive that keeps a copy of every time table it is called with."""

    def __init__(self, drive):
        self.drive = drive
        self.times = []

    def __call__(self, x, t):
        self.times.append(np.array(t))
        return self.drive(x, t)


def test_block_propagators_match_per_sample_steppers_bit_for_bit():
    from chronolab import ClockModel, Linear, WindowedPulse, clock_time_map

    grid = Grid1D(-8.0, 8.0, 161)
    system = SystemSpec(1.0, 0.9, Harmonic(4.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    tmap = clock_time_map(ClockModel(Harmonic(1.0), 80.0, 10.0, Grid1D(-3.5, 3.5, 2001)))
    tmap = TimeMap(tmap.r_grid, tmap.times - 0.5 * tmap.span[1])  # the pulse at t = 0
    drive = CouplingDrive(WindowedPulse(0.2, 0.0, 0.8, Linear(1.0)), tmap)

    # more than two blocks with a partial last one; the steps shrink into
    # t = 0 and grow out of it by factors of 3 to 10, where t[i] + dt need
    # not round to t[i+1], and are non-uniform elsewhere
    rng = np.random.default_rng(7)
    steps = 2 * BLOCK_STEPS + 37
    near = 1e-8 * np.cumprod(rng.uniform(3.0, 10.0, 8))
    far = near[-1] + np.cumsum(rng.uniform(0.5, 1.5, steps - 15) * 0.006)
    t = np.r_[-near[::-1], near, far]
    dt = np.diff(t)
    assert t.size == steps + 1 and np.any(t[:-1] + dt != t[1:])
    a0 = np.array([0.6, 0.8j])
    psi0 = basis.states[0]

    recorded = _RecordingDrive(drive)
    amps = propagate_amplitudes(basis, recorded, a0, t, hbar=system.hbar)
    assert np.array_equal(amps.amplitudes, _rk4_per_sample(basis, drive, a0, t, system.hbar))
    # one call per block, on the block's distinct stage times, as a column
    stages = np.stack([t[:-1], t[:-1] + 0.5 * dt, t[:-1] + dt], axis=1)
    blocks = [stages[s:s + BLOCK_STEPS] for s in range(0, steps, BLOCK_STEPS)]
    assert len(recorded.times) == len(blocks) == 3
    for times, block in zip(recorded.times, blocks):
        assert times.ndim == 2 and times.shape[1] == 1
        assert np.unique(times).size == times.size
        assert np.array_equal(np.sort(times[:, 0]), np.unique(block))

    recorded = _RecordingDrive(drive)
    traj = propagate_tdse(system, recorded, psi0, t)
    assert np.array_equal(traj.values, _cn_per_sample(system, drive, psi0, t))
    assert [r.shape for r in recorded.times] == [(BLOCK_STEPS, 1)] * 2 + [(37, 1)]
    assert np.array_equal(np.concatenate(recorded.times)[:, 0], 0.5 * (t[:-1] + t[1:]))


def test_amplitude_blow_up_is_not_a_silent_nan():
    grid = Grid1D(-8.0, 8.0, 161)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(4.0)), grid, 2, order=2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError):
        propagate_amplitudes(basis, lambda x, t: 1e300 * x, [1.0, 0.0],
                             np.linspace(0.0, 20.0, 21))


@pytest.mark.parametrize("bad_step", [0, 300])
def test_grid_blow_up_names_the_first_bad_step(bad_step):
    grid = Grid1D(-8.0, 8.0, 161)
    system = SystemSpec(1.0, 1.0, Harmonic(4.0))
    t = np.linspace(0.0, 5.49, 2 * BLOCK_STEPS + 38)  # 549 steps; step 300 is inside block 2
    t_bad = 0.5 * (t[bad_step] + t[bad_step + 1])

    def drive(x, tm):
        return np.where(tm >= t_bad, np.nan, 0.1 * x)

    with pytest.raises(BlowUpError, match=rf"at step {bad_step} "):
        propagate_tdse(system, drive, _packet(grid), t)


# ---------------------------------------------------------------------------
# conditional states from directed composites


def _conditional_x(state, wkb, spec):
    """The conditional in x space, as an oracle for conditional_from_composite.

    Returns psi = Psi / chi on the (R, x) grid and u_s, the normalized
    slice expectation of H_S + V_I(., R) with the basis stencil in x.
    """
    field = state.field()
    x_grid = field.grid.x
    x, r = x_grid.points, field.grid.r.points
    psi = field.values / wkb.chi().values[:, None]
    hs = _apply_kinetic(psi, 1, state.basis.stencil_order, x_grid.spacing, spec.m, spec.hbar)
    hs += (np.asarray(spec.v_sys(x), dtype=float)[None, :]
           + np.asarray(spec.v_int(x[None, :], r[:, None]), dtype=float)) * psi
    wx = x_grid.weights
    u_s = np.sum(wx * np.conj(psi) * hs, axis=1) / np.sum(wx * np.abs(psi) ** 2, axis=1)
    return psi, u_s


def _tdse_residual_x(x_grid, order, t, psi, u, system, drive, mv2):
    """The TDSE residual in x space, as an oracle for tdse_residual.

    Applies (H_S + V_I - Re U_S - i hbar d/dt) to the phase-transformed
    slices psi[it, ix] with the order-`order` x stencil and returns
    (residual, rho, resampled, rows), rows being the interior residual
    rows over the norm of the interior slices.
    """
    diffs = np.diff(t)
    mean_dt = float(np.mean(diffs))
    resampled = bool(np.max(np.abs(diffs - mean_dt)) > 1e-9 * mean_dt)
    if resampled:
        uniform = np.linspace(t[0], t[-1], t.size)
        psi = CubicSpline(t, psi, axis=0)(uniform)
        u = CubicSpline(t, u)(uniform)
        t = uniform
    dt = float(t[1] - t[0])
    hbar = system.hbar
    x = x_grid.points
    phase = np.exp((1j / hbar) * cumulative_trapezoid(u.real, t, initial=0.0))
    tpsi = psi * phase[:, None]
    inner = tpsi[1:-1]
    resid = np.asarray(system.v_sys(x), dtype=float)[None, :] * inner
    resid += _apply_kinetic(inner, 1, order, x_grid.spacing, system.m, hbar)
    if drive is not None:
        v_drive = np.asarray(drive(x[None, :], t[:, None]), dtype=float)
        resid += np.broadcast_to(v_drive, tpsi.shape)[1:-1] * inner
    resid -= u.real[1:-1, None] * inner
    resid -= 1j * hbar * central_difference(tpsi, dt, 1)

    wx = x_grid.weights

    def _norm(rows):
        return float(np.sqrt(np.sum(wx[1:-1] * np.abs(rows[:, 1:-1]) ** 2)))

    den = _norm(inner)
    d1 = central_difference(psi, dt, 1)
    d2 = central_difference(psi, dt, 2)
    rho = (hbar * hbar / (2.0 * mv2)) * _norm(d2) / (hbar * _norm(d1))
    return _norm(resid) / den, rho, resampled, resid / den


def _out_of_span(basis, rows):
    """Interior norm of rows minus their projection on the basis span."""
    mat = basis.state_matrix()
    w = basis.x_grid.weights
    perp = rows - ((np.conj(mat) * w) @ rows.T).T @ mat
    return float(np.sqrt(np.sum(w[1:-1] * np.abs(perp[:, 1:-1]) ** 2)))


def test_free_beam_conditional_carries_emergent_phase():
    # The clock carries the full energy, so the conditional state is not
    # frozen: it picks up the phase exp(-i eps0 t) of the channel it rides.
    M, hbar = 200.0, 1.0
    x_grid = Grid1D(-8.0, 8.0, 161)
    system = SystemSpec(1.0, hbar, Harmonic(4.0))
    basis = solve_system_basis(system, x_grid, 4, order=2)
    eps0 = float(basis.energies[0])
    e_total = 50.0 + eps0
    r_grid = Grid1D(0.0, 1.4, 8001)
    spec = CompositeSpec(M, 1.0, hbar, Constant(), Harmonic(4.0),
                         ZeroCoupling(),
                         energy=e_total, clock_energy=e_total)
    state = solve_directed_state(spec, basis, r_grid, e_total, 0, 1e-6, stride=4)
    wkb, tmap = _lattice_clock(state, spec, r_grid.spacing)
    traj = conditional_from_composite(state, wkb, tmap, spec)

    assert np.ptp(traj.slice_norms()) < 1e-10
    np.testing.assert_allclose(traj.u_s.real, eps0, rtol=1e-8)

    # phase-locked comparison against the entry slice
    t_rel = traj.times - traj.times[0]
    amps = traj.amplitudes
    locked = amps[0][None, :] * np.exp(-1j * eps0 * t_rel / hbar)[:, None]
    dev = np.max(np.abs(amps - locked)) / np.max(np.abs(amps[0]))
    mv2 = 2.0 * (e_total - eps0)
    # residual phase drift accumulates at the correction rate: eps0^2 T / (2 M v^2)
    assert dev == pytest.approx(eps0**2 * t_rel[-1] / (2.0 * mv2), rel=0.05)

    # the conditional-equation defect IS the leading correction eps0/(2 M v^2)
    rep = tdse_residual(traj, system, mv2=mv2)
    assert rep.rho == pytest.approx(eps0 / (2.0 * mv2), rel=0.02)
    assert rep.residual == pytest.approx(rep.rho, rel=0.02)


def test_channel_conditional_and_residual_match_x_space_on_a_pulse():
    cfg = DirectedRunConfig(slices=801)
    system, basis = cfg.system_basis()
    spec, r_grid, state, _ = directed_run(cfg, basis, 50.0)
    wkb, tmap = _lattice_clock(state, spec, r_grid.spacing)
    drive = CouplingDrive(spec.v_int, tmap)
    traj = conditional_from_composite(state, wkb, tmap, spec)
    rep = tdse_residual(traj, system, drive=drive)

    psi, u_s = _conditional_x(state, wkb, spec)
    wx = basis.x_grid.weights
    np.testing.assert_allclose(traj.slice_norms(),
                               np.sqrt(np.sum(wx * np.abs(psi) ** 2, axis=1)), rtol=1e-10)
    assert np.max(np.abs(traj.u_s - u_s)) <= 1e-10 * np.max(np.abs(u_s))
    residual, rho, resampled, rows = _tdse_residual_x(
        basis.x_grid, basis.stencil_order, traj.times, psi, u_s, system, drive, rep.mv2)
    assert not rep.resampled and not resampled
    assert rep.residual == pytest.approx(residual, rel=1e-10)
    assert rep.rho == pytest.approx(rho, rel=1e-10)
    # out of the span only channel truncation is left: the directed-solve level
    assert 1e-9 < rep.out_of_span < 1e-4 * rep.residual
    # the oracle subtracts the span part from rows of size ~1: its rounding,
    # about 1e-15 absolute, is 3e-8 of an out-of-span norm of 3e-8
    assert rep.out_of_span == pytest.approx(_out_of_span(basis, rows), rel=1e-6)


@given(k=st.integers(1, 4), nt=st.integers(3, 40), uniform=st.booleans(),
       order=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
@example(k=3, nt=25, uniform=True, order=2, seed=0)
@example(k=2, nt=30, uniform=False, order=4, seed=1)
def test_channel_residual_matches_x_space_on_random_trajectories(k, nt, uniform, order, seed):
    # a random trajectory in the span of a basis that does not diagonalize
    # the system, under a random product drive: every block of the quadratic
    # form, the -Re(U_S) term and the phase transform all carry weight
    rng = np.random.default_rng(seed)
    grid = Grid1D(-6.0, 6.0, 61)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(rng.uniform(1.0, 5.0))),
                               grid, k, order=order)
    system = SystemSpec(rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5),
                        Harmonic(rng.uniform(0.5, 6.0), rng.uniform(-0.5, 0.5)))
    steps = np.full(nt - 1, 0.05) if uniform else rng.uniform(0.02, 0.08, nt - 1)
    t = rng.uniform(-1.0, 1.0) + np.r_[0.0, np.cumsum(steps)]
    amps = rng.standard_normal((nt, k)) + 1j * rng.standard_normal((nt, k))
    u_s = rng.uniform(-3.0, 3.0, nt) + 1j * rng.uniform(-1.0, 1.0, nt)
    r_map = Grid1D(0.0, 1.0, 40)
    s = r_map.points
    tmap = TimeMap(r_map, t[0] - 0.1 + (t[-1] - t[0] + 0.2) * (s + 0.5 * s * s) / 1.5)
    coupling = Coupling(GaussianWell(-1.0, rng.uniform(0.1, 0.5), rng.uniform(0.0, 1.0)),
                        Harmonic(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)),
                        rng.uniform(-2.0, 2.0))
    drive = CouplingDrive(coupling, tmap)
    traj = ConditionalTrajectory(basis, t, amps, u_s)
    rep = tdse_residual(traj, system, drive=drive, mv2=rng.uniform(10.0, 1e3))

    psi = amps @ basis.state_matrix()
    residual, rho, resampled, rows = _tdse_residual_x(
        grid, order, t, psi, u_s, system, drive, rep.mv2)
    assert rep.resampled == resampled == (not uniform)
    assert rep.residual == pytest.approx(residual, rel=1e-10)
    assert rep.rho == pytest.approx(rho, rel=1e-10)
    assert rep.out_of_span == pytest.approx(_out_of_span(basis, rows), rel=1e-10)


def test_stationary_superposition_has_no_residual():
    grid = Grid1D(-9.0, 9.0, 901)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    t = np.linspace(0.0, 2.0, 2001)
    amps = np.array([0.6, 0.8j]) * np.exp(-1j * np.outer(t, basis.energies))
    traj = ConditionalTrajectory(basis, t, amps)
    rep = tdse_residual(traj, system, mv2=100.0)
    assert rep.residual < 1e-5
    assert rep.out_of_span < 1e-10
    assert not rep.resampled

    # the channel-space residual needs the product form of the drive
    with pytest.raises(TypeError, match="CouplingDrive"):
        tdse_residual(traj, system, drive=lambda x, tt: 0.0 * x, mv2=100.0)


def test_emergence_scan_config_validation():
    with pytest.raises(DegenerateInputError):
        emergence_scan(EmergenceScanConfig(kinetic_energies=(10.0, 40.0)))
    with pytest.raises(DegenerateInputError):
        emergence_scan(EmergenceScanConfig(kinetic_energies=(10.0, 40.0, 160.0)))


def test_measured_residual_keeps_the_minus_one_exponent():
    # with time read at the lattice group velocity no dispersion floor is
    # left under the residual; read at p / M, the (k dR)^2 / 6 mismatch
    # flattened the local slopes to about -0.95 above M v^2 = 1e3
    energies = (15.0, 50.0, 150.0, 500.0, 1500.0)
    report = emergence_scan(EmergenceScanConfig(kinetic_energies=energies))
    assert all(r.error is None for r in report.rows)
    assert [(r.fine_points, r.stride) for r in report.rows] == [
        (4001, 1), (8001, 2), (16001, 4), (52001, 13), (152001, 38)]
    mv2, residual = report.column("mv2"), report.column("residual")
    local = np.diff(np.log(residual)) / np.diff(np.log(mv2))
    above = local[mv2[:-1] >= 100.0]
    assert above.size == 3
    assert np.max(np.abs(above + 1.0)) < 0.005, local
