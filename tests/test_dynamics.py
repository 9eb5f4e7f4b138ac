"""Time propagation: grid TDSE, amplitude ODEs, conditional states, scans."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from chronolab import (
    ChannelBasis,
    ClockModel,
    CompositeSpec,
    ConditionalTrajectory,
    ConfigError,
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
    Linear,
    Potential,
    SystemSpec,
    TimeMap,
    WindowedPulse,
    clock_time_map,
    compare_amplitudes_to_grid,
    conditional_from_composite,
    emergence_scan,
    normalize,
    propagate_amplitudes,
    propagate_tdse,
    solve_directed_state,
    solve_system_basis,
    tdse_residual,
)
from chronolab.core import _apply_kinetic, _kinetic_coeffs, central_difference
from chronolab.dynamics import BLOCK_STEPS, DirectedRunConfig, directed_run, lattice_clock
from chronolab.errors import BlowUpError, StabilityError
from chronolab.scenarios import TwoLevelConfig


@dataclass(frozen=True)
class _Func(Potential):
    """A potential given by any array function of its coordinate."""

    f: object

    def __call__(self, q):
        return self.f(np.asarray(q, dtype=float))


def _shifted_harmonic(k, center):
    """0.5 k (q - center)^2: off centre, it mixes channels of both parities."""
    return _Func(lambda q: 0.5 * k * (q - center) ** 2)


def _clock(t0, t1):
    """A clock map that reads R = t on [t0, t1], up to rounding."""
    grid = Grid1D(t0, t1, 3)
    return TimeMap(grid, grid.points, np.ones(3))


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
    v_static, v_wave = scale * rng.standard_normal((2, nx))
    system = SystemSpec(1.0, 1.0, _Func(lambda x: v_static))
    omega = rng.uniform(0.0, 20.0)

    psi0 = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
    psi0[[0, -1]] = 0.0
    t = np.cumsum(np.r_[0.0, rng.uniform(1e-3, 0.1, steps)])
    drive = CouplingDrive(Coupling(_Func(lambda r: np.cos(omega * r)), _Func(lambda x: v_wave), 1.0),
                          _clock(t[0], t[-1]))
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
    psi0 = Field1D(grid, basis.states[0])
    eps0 = float(basis.energies[0])
    t = np.linspace(0.0, 3.0, 3001)
    traj = propagate_tdse(system, None, psi0, t)
    exact = psi0.values[None, :] * np.exp(-1j * eps0 * t)[:, None]
    assert np.max(np.abs(traj.values - exact)) < 1e-7


def test_one_interior_point_steps_by_the_cayley_factor():
    grid = Grid1D(0.0, 2.0, 3)
    system = SystemSpec(2.0, 1.5, Harmonic(3.0))
    t = np.array([0.0, 0.1, 0.3, 0.35])
    traj = propagate_tdse(system, None, Field1D(grid, np.array([0.0, 0.8 + 0.6j, 0.0])), t)
    # H on the one interior point x = 1: the kinetic diagonal plus V(1) = 1.5
    h = _kinetic_coeffs(2, grid.spacing, system.m, system.hbar)[0] + 1.5
    alpha = 1j * np.diff(t) / (2.0 * system.hbar)
    expect = (0.8 + 0.6j) * np.cumprod(np.r_[1.0, (1 - alpha * h) / (1 + alpha * h)])
    np.testing.assert_allclose(traj.values[:, 1], expect, rtol=1e-14)
    assert np.all(traj.values[:, [0, 2]] == 0.0)


# ---------------------------------------------------------------------------
# amplitude ODEs


def test_rabi_oscillation_in_degenerate_limit():
    grid = Grid1D(-8.0, 8.0, 321)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    degenerate = ChannelBasis(grid, basis.states, np.zeros(2), basis.stencil_order)

    lam = 0.3
    x = grid.points
    w = grid.weights
    c = float(np.sum(w * basis.states[0].real * x * basis.states[1].real))
    t = np.linspace(0.0, 6.0, 3001)
    drive = CouplingDrive(Coupling(Constant(1.0), Linear(1.0), lam), _clock(0.0, 6.0))
    amps = propagate_amplitudes(degenerate, drive, [1.0, 0.0], t)
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
    drive = CouplingDrive(Coupling(Constant(1.0), Linear(1.0), 40.0), _clock(0.0, 20.0))
    with pytest.raises(StabilityError) as exc:
        propagate_amplitudes(basis, drive, [1.0, 0.0], coarse)
    assert exc.value.suggested_step < 1.0


@given(k=st.integers(1, 5), steps=st.integers(1, 100), log_strength=st.floats(-2.0, 1.7),
       seed=st.integers(0, 2**32 - 1))
def test_rk4_keeps_population_or_suggests_a_smaller_step(k, steps, log_strength, seed):
    # RK4 is not unitary: for a Hermitian drive it either holds the total
    # population to 1e-6 or refuses the grid with a step below every step
    # it took.  |sys| <= 1 bounds ||W|| by 1 and dt |g| ||W|| by 5, so the
    # amplitudes of 100 steps stay finite; a log-uniform strength gives
    # both outcomes about equally often.
    strength = 10.0 ** log_strength
    rng = np.random.default_rng(seed)
    grid = Grid1D(-1.0, 1.0, 16)
    q, _ = np.linalg.qr(rng.standard_normal((grid.n, k)) + 1j * rng.standard_normal((grid.n, k)))
    basis = ChannelBasis(grid, (q / np.sqrt(grid.weights)[:, None]).T, rng.uniform(-10.0, 10.0, k), 2)
    v = rng.standard_normal(grid.n)
    v /= np.max(np.abs(v))
    omega = rng.uniform(0.0, 20.0)
    a0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    t = np.cumsum(np.r_[rng.uniform(-5.0, 5.0), rng.uniform(1e-3, 0.1, steps)])
    drive = CouplingDrive(Coupling(_Func(lambda r: np.cos(omega * r)), _Func(lambda x: v), strength),
                          _clock(t[0], t[-1]))
    try:
        amps = propagate_amplitudes(basis, drive, a0 / np.linalg.norm(a0), t)
    except StabilityError as exc:
        assert exc.suggested_step < np.min(np.diff(t))
    else:
        assert amps.population_drift <= 1e-6


def test_two_route_comparison_close_on_two_level_drive():
    grid = Grid1D(-8.0, 8.0, 321)
    system = SystemSpec(1.0, 1.0, Harmonic(4.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    rmap = Grid1D(-3.5, 3.5, 2001)
    clock = ClockModel(Harmonic(1.0), 80.0, 10.0, rmap)
    tmap = clock_time_map(clock)
    drive = CouplingDrive(WindowedPulse(0.2, 0.0, 0.8, Linear(1.0)), tmap)
    t = np.linspace(0.0, 0.9 * tmap.span[1], 2001)
    rep = compare_amplitudes_to_grid(system, basis, drive, Field1D(grid, basis.states[0]), t)
    assert rep.basis_defect < 1e-6
    assert rep.max_deviation < 5e-3


def _two_level_grid_route(x_points):
    """The `harmonic-clock-two-level` defaults on `x_points` points: a function
    of the step count that returns the grid route's channel projections."""
    p = TwoLevelConfig()
    grid = Grid1D(-p.x_half, p.x_half, x_points)
    system = SystemSpec(p.system_mass, p.hbar, Harmonic(p.system_stiffness))
    basis = solve_system_basis(system, grid, 2, order=2)
    clock = ClockModel(Harmonic(p.env_stiffness), p.clock_mass, p.clock_energy,
                       Grid1D(-p.clock_half_range, p.clock_half_range, p.clock_points))
    tmap = clock_time_map(clock)
    drive = CouplingDrive(WindowedPulse(p.pulse_amplitude, p.pulse_center, p.pulse_width,
                                        Linear(1.0)), tmap)
    t0, t1 = tmap.span
    t_end = t0 + p.duration_fraction * (t1 - t0)
    psi0 = Field1D(grid, basis.states[0])
    return lambda steps: compare_amplitudes_to_grid(
        system, basis, drive, psi0, np.linspace(t0, t_end, steps + 1)).projected


def test_two_route_grid_route_is_fourth_order():
    # the Richardson combination of two Crank-Nicolson runs: halving the
    # step cuts the error 16x (measured 16.00 on this grid)
    projected = _two_level_grid_route(41)
    ref = projected(800)
    errs = [np.max(np.abs(projected(s) - ref[::800 // s])) for s in (100, 200)]
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)


def test_two_route_grid_route_at_the_defaults_is_converged():
    # 1,000 steps lie within 1e-7 of 8,000 (measured 8.2e-9)
    p = TwoLevelConfig()
    projected = _two_level_grid_route(p.x_points)
    err = np.max(np.abs(projected(p.time_steps) - projected(8 * p.time_steps)[::8]))
    assert err < 1e-7


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
    """RK4 with the profile, the stage matrices and the step matrix formed
    step by step: A(t) = -(i/hbar) g(t) W exp(i deps t / hbar) at the
    three stage times, then a <- P a with P = I + dt/6 (K1 + 2 K2 + 2 K3 + K4)."""
    deps = basis.energies[:, None] - basis.energies[None, :]
    x = basis.x_grid.points
    w = basis.x_grid.weights
    mat = basis.states
    wmat = (np.conj(mat) * (w * np.asarray(drive.coupling.sys(x), dtype=float))) @ mat.T
    eye = np.eye(len(basis))
    out = np.empty((t.size, len(basis)), dtype=complex)
    out[0] = a0

    def a_of(time):
        return ((-1j / hbar) * drive(time)) * wmat * np.exp(1j * deps * time / hbar)

    for i in range(t.size - 1):
        dt = t[i + 1] - t[i]
        a1, a2, a4 = a_of(t[i]), a_of(t[i] + 0.5 * dt), a_of(t[i + 1])
        k2 = a2 @ (eye + (0.5 * dt) * a1)
        k3 = a2 @ (eye + (0.5 * dt) * k2)
        k4 = a4 @ (eye + dt * k3)
        out[i + 1] = (eye + (dt / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)) @ out[i]
    return out


def _cn_per_sample(system, drive, psi0, t):
    """Crank-Nicolson with the profile read at each midpoint: a banded
    solve y = (1 + alpha H)^-1 u, then u <- 2 y - u."""
    from scipy.linalg import solve_banded
    from chronolab.core import _kinetic_coeffs

    grid = psi0.grid
    x = grid.points
    c0, c1, _ = _kinetic_coeffs(2, grid.spacing, system.m, system.hbar)
    h_static = c0 + np.asarray(system.v_sys(x), dtype=float)[1:-1]
    sys_x = np.asarray(drive.coupling.sys(x), dtype=float)[1:-1]
    out = np.zeros((t.size, grid.n), dtype=complex)
    out[0, 1:-1] = psi0.values[1:-1]
    ab = np.zeros((3, grid.n - 2), dtype=complex)
    for i, dt in enumerate(np.diff(t)):
        u = out[i, 1:-1]
        g = drive(0.5 * (t[i] + t[i + 1]))
        alpha = 1j * (dt / (2.0 * system.hbar))
        ab[0, 1:] = alpha * c1
        ab[1, :] = 1.0 + alpha * (h_static + g * sys_x)
        ab[2, :-1] = alpha * c1
        y = solve_banded((1, 1), ab, u)
        out[i + 1, 1:-1] = (y + y) - u
    return out


@dataclass(frozen=True)
class _RecordingDrive(CouplingDrive):
    """A drive that keeps a copy of every time table its profile is called with."""

    times: list = field(default_factory=list)

    def __call__(self, t):
        self.times.append(np.array(t))
        return super().__call__(t)


def test_block_propagators_match_per_sample_steppers_bit_for_bit():
    from chronolab import ClockModel, Linear, WindowedPulse, clock_time_map

    grid = Grid1D(-8.0, 8.0, 161)
    system = SystemSpec(1.0, 0.9, Harmonic(4.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    tmap = clock_time_map(ClockModel(Harmonic(1.0), 80.0, 10.0, Grid1D(-3.5, 3.5, 2001)))
    tmap = TimeMap(tmap.r_grid, tmap.times - 0.5 * tmap.span[1], tmap.rates)  # pulse at t = 0
    drive = CouplingDrive(WindowedPulse(0.2, 0.0, 0.8, Linear(1.0)), tmap)

    # more than two Crank-Nicolson blocks with a partial last one; the steps
    # shrink into t = 0 and grow out of it by factors of 3 to 10, where
    # t[i] + dt need not round to t[i+1], and are non-uniform elsewhere
    rng = np.random.default_rng(7)
    steps = 2 * BLOCK_STEPS + 37
    near = 1e-8 * np.cumprod(rng.uniform(3.0, 10.0, 8))
    far = near[-1] + np.cumsum(rng.uniform(0.5, 1.5, steps - 15) * 0.006)
    t = np.r_[-near[::-1], near, far]
    dt = np.diff(t)
    assert t.size == steps + 1 and np.any(t[:-1] + dt != t[1:])
    a0 = np.array([0.6, 0.8j])
    psi0 = Field1D(grid, basis.states[0])

    recorded = _RecordingDrive(drive.coupling, drive.timemap)
    amps = propagate_amplitudes(basis, recorded, a0, t, hbar=system.hbar)
    assert np.array_equal(amps.amplitudes, _rk4_per_sample(basis, drive, a0, t, system.hbar))
    # one profile call, on the distinct stage times; the last stage of a
    # step is the first of the next
    stages = np.stack([t[:-1], t[:-1] + 0.5 * dt, t[1:]], axis=1)
    [times] = recorded.times
    assert np.array_equal(times, np.unique(stages))
    assert times.size == 2 * steps + 1

    recorded = _RecordingDrive(drive.coupling, drive.timemap)
    traj = propagate_tdse(system, recorded, psi0, t)
    assert np.array_equal(traj.values, _cn_per_sample(system, drive, psi0, t))
    [times] = recorded.times
    assert np.array_equal(times, 0.5 * (t[:-1] + t[1:]))


def test_propagators_take_only_a_coupling_drive():
    grid = Grid1D(-8.0, 8.0, 161)
    system = SystemSpec(1.0, 1.0, Harmonic(4.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(TypeError, match="CouplingDrive"):
        propagate_amplitudes(basis, lambda x, tt: 0.1 * x, [1.0, 0.0], t)
    with pytest.raises(TypeError, match="CouplingDrive"):
        propagate_tdse(system, lambda x, tt: 0.1 * x, Field1D(grid, basis.states[0]), t)


def test_amplitude_blow_up_is_not_a_silent_nan():
    grid = Grid1D(-8.0, 8.0, 161)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(4.0)), grid, 2, order=2)
    drive = CouplingDrive(Coupling(Constant(1.0), Linear(1.0), 1e300), _clock(0.0, 20.0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError):
        propagate_amplitudes(basis, drive, [1.0, 0.0], np.linspace(0.0, 20.0, 21))


@pytest.mark.parametrize("bad_step", [0, 300])
def test_grid_blow_up_names_the_first_bad_step(bad_step):
    grid = Grid1D(-8.0, 8.0, 161)
    system = SystemSpec(1.0, 1.0, Harmonic(4.0))
    t = np.linspace(0.0, 5.49, 2 * BLOCK_STEPS + 38)  # 549 steps; step 300 is inside block 2
    t_bad = 0.5 * (t[bad_step] + t[bad_step + 1])
    # NaN from half a step before t_bad: the clock reads R = t only to rounding
    nan_from = _Func(lambda r: np.where(r >= t_bad - 0.5 * (t[1] - t[0]), np.nan, 1.0))
    drive = CouplingDrive(Coupling(nan_from, Linear(0.1), 1.0), _clock(t[0], t[-1]))

    with pytest.raises(BlowUpError, match=rf"at step {bad_step} "):
        propagate_tdse(system, drive, _packet(grid), t)


# ---------------------------------------------------------------------------
# conditional states from directed composites


def _conditional_x(state, wkb, spec):
    """The conditional in x space, as an oracle for conditional_from_composite.

    Returns psi = Psi / chi on the (R, x) grid and u_s, the normalized
    slice expectation of H_S + V_I(., R) with the basis stencil in x.
    """
    x_grid = state.basis.x_grid
    x, r = x_grid.points, state.r_grid.points
    psi = (state.amplitudes @ state.basis.states) / wkb.chi().values[:, None]
    hs = _apply_kinetic(psi, state.basis.stencil_order, x_grid.spacing, spec.m, spec.hbar)
    hs += (np.asarray(spec.v_sys(x), dtype=float)[None, :]
           + np.asarray(spec.v_int(x[None, :], r[:, None]), dtype=float)) * psi
    wx = x_grid.weights
    u_s = np.sum(wx * np.conj(psi) * hs, axis=1) / np.sum(wx * np.abs(psi) ** 2, axis=1)
    return psi, u_s


def _tdse_residual_x(x_grid, order, t, psi, u, system, drive, mv2):
    """The TDSE residual in x space, as an oracle for tdse_residual.

    Applies (H_S + V_I - Re U_S - i hbar d/dt) to the phase-transformed
    slices psi[it, ix] with the order-`order` x stencil and returns
    (residual, rho, rows), rows being the interior residual rows over the
    norm of the interior slices.
    """
    dt = float(t[1] - t[0])
    hbar = system.hbar
    x = x_grid.points
    phase = np.exp((1j / hbar) * cumulative_trapezoid(u.real, t, initial=0.0))
    tpsi = psi * phase[:, None]
    inner = tpsi[1:-1]
    resid = np.asarray(system.v_sys(x), dtype=float)[None, :] * inner
    resid += _apply_kinetic(inner, order, x_grid.spacing, system.m, hbar)
    if drive is not None:
        r = drive.timemap.r_of_t(t)
        v_drive = np.asarray(drive.coupling(x[None, :], r[:, None]), dtype=float)
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
    return _norm(resid) / den, rho, resid / den


def _out_of_span(basis, rows):
    """Interior norm of rows minus their projection on the basis span."""
    mat = basis.states
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
    spec = CompositeSpec(M, 1.0, hbar, Constant(), Harmonic(4.0), ZeroCoupling())
    state = solve_directed_state(spec, basis, r_grid, e_total, 0, 1e-6, stride=4)
    wkb, tmap = lattice_clock(state)
    traj = conditional_from_composite(state, wkb, tmap)

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
    rep = tdse_residual(traj, system, None, mv2=mv2)
    assert rep.rho == pytest.approx(eps0 / (2.0 * mv2), rel=0.02)
    assert rep.residual == pytest.approx(rep.rho, rel=0.02)


def test_channel_conditional_and_residual_match_x_space_on_a_pulse():
    cfg = DirectedRunConfig(slices=801)
    basis = cfg.system_basis()
    state = directed_run(cfg, basis, 50.0)
    spec, system = state.spec, state.spec.system
    wkb, tmap = lattice_clock(state)
    drive = CouplingDrive(spec.v_int, tmap)
    traj = conditional_from_composite(state, wkb, tmap)
    mv2 = 2.0 * 50.0
    rep = tdse_residual(traj, system, drive=drive, mv2=mv2)

    psi, u_s = _conditional_x(state, wkb, spec)
    wx = basis.x_grid.weights
    np.testing.assert_allclose(traj.slice_norms(),
                               np.sqrt(np.sum(wx * np.abs(psi) ** 2, axis=1)), rtol=1e-10)
    assert np.max(np.abs(traj.u_s - u_s)) <= 1e-10 * np.max(np.abs(u_s))
    residual, rho, rows = _tdse_residual_x(
        basis.x_grid, basis.stencil_order, traj.times, psi, u_s, system, drive, mv2)
    assert rep.residual == pytest.approx(residual, rel=1e-10)
    assert rep.rho == pytest.approx(rho, rel=1e-10)
    # out of the span only channel truncation is left: the directed-solve level
    assert 1e-9 < rep.out_of_span < 1e-4 * rep.residual
    # the oracle subtracts the span part from rows of size ~1: its rounding,
    # about 1e-15 absolute, is 3e-8 of an out-of-span norm of 3e-8
    assert rep.out_of_span == pytest.approx(_out_of_span(basis, rows), rel=1e-6)


@given(k=st.integers(1, 4), nt=st.integers(3, 40),
       order=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
@example(k=3, nt=25, order=2, seed=0)
@example(k=2, nt=30, order=4, seed=1)
def test_channel_residual_matches_x_space_on_random_trajectories(k, nt, order, seed):
    # a random trajectory in the span of a basis that does not diagonalize
    # the system, under a random product drive: every block of the quadratic
    # form, the -Re(U_S) term and the phase transform all carry weight
    rng = np.random.default_rng(seed)
    grid = Grid1D(-6.0, 6.0, 61)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(rng.uniform(1.0, 5.0))),
                               grid, k, order=order)
    system = SystemSpec(rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5),
                        _shifted_harmonic(rng.uniform(0.5, 6.0), rng.uniform(-0.5, 0.5)))
    steps = np.full(nt - 1, 0.05)
    t = rng.uniform(-1.0, 1.0) + np.r_[0.0, np.cumsum(steps)]
    amps = rng.standard_normal((nt, k)) + 1j * rng.standard_normal((nt, k))
    u_s = rng.uniform(-3.0, 3.0, nt) + 1j * rng.uniform(-1.0, 1.0, nt)
    r_map = Grid1D(0.0, 1.0, 40)
    s = r_map.points
    scale = (t[-1] - t[0] + 0.2) / 1.5
    tmap = TimeMap(r_map, t[0] - 0.1 + scale * (s + 0.5 * s * s), scale * (1.0 + s))
    coupling = Coupling(GaussianWell(-1.0, rng.uniform(0.1, 0.5), rng.uniform(0.0, 1.0)),
                        _shifted_harmonic(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)),
                        rng.uniform(-2.0, 2.0))
    drive = CouplingDrive(coupling, tmap)
    traj = ConditionalTrajectory(basis, t, amps, u_s)
    mv2 = rng.uniform(10.0, 1e3)
    rep = tdse_residual(traj, system, drive=drive, mv2=mv2)

    psi = amps @ basis.states
    residual, rho, rows = _tdse_residual_x(
        grid, order, t, psi, u_s, system, drive, mv2)
    assert rep.residual == pytest.approx(residual, rel=1e-10)
    assert rep.rho == pytest.approx(rho, rel=1e-10)
    assert rep.out_of_span == pytest.approx(_out_of_span(basis, rows), rel=1e-10)


def test_stationary_superposition_has_no_residual():
    grid = Grid1D(-9.0, 9.0, 901)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    basis = solve_system_basis(system, grid, 2, order=2)
    t = np.linspace(0.0, 2.0, 2001)
    amps = np.array([0.6, 0.8j]) * np.exp(-1j * np.outer(t, basis.energies))
    traj = ConditionalTrajectory(basis, t, amps, np.zeros(t.size))
    rep = tdse_residual(traj, system, None, mv2=100.0)
    assert rep.residual < 1e-5
    assert rep.out_of_span < 1e-10

    # the channel-space residual needs the product form of the drive
    with pytest.raises(TypeError, match="CouplingDrive"):
        tdse_residual(traj, system, drive=lambda x, tt: 0.0 * x, mv2=100.0)
    # and its time stencils need uniformly spaced slices
    with pytest.raises(DegenerateInputError, match="uniformly spaced"):
        tdse_residual(ConditionalTrajectory(basis, t ** 1.5, amps, np.zeros(t.size)), system, None,
                      mv2=100.0)


def test_emergence_scan_config_validation():
    # the config refuses a scan the slope fit cannot read when it is built,
    # so `chronolab validate` refuses it too, before any eigensolve
    for energies, message in [((10.0, 40.0), "at least 3 points, got 2"),
                              ((10.0, 40.0, 160.0), "span 16.0x is below the required 30x")]:
        with pytest.raises(ConfigError, match=message) as exc:
            EmergenceScanConfig(kinetic_energies=energies)
        assert exc.value.path == "/parameters/kinetic_energies"
    # the inherited cross-field checks still run first
    with pytest.raises(ConfigError) as exc:
        EmergenceScanConfig(channels=4, incoming=4, kinetic_energies=(1.0, 2.0))
    assert exc.value.path == "/parameters/incoming"


def test_measured_residual_keeps_the_minus_one_exponent():
    # with time read at the lattice group velocity no dispersion floor is
    # left under the residual; read at p / M, the (k dR)^2 / 6 mismatch
    # flattened the local slopes to about -0.95 above M v^2 = 1e3
    energies = (15.0, 50.0, 150.0, 500.0, 1500.0)
    report = emergence_scan(EmergenceScanConfig(kinetic_energies=energies), jobs=1)
    assert not any(report.error)
    cols = report.columns
    assert list(zip(cols["fine_points"].tolist(), cols["stride"].tolist())) == [
        (4001, 1), (8001, 2), (16001, 4), (52001, 13), (152001, 38)]
    mv2, residual = cols["mv2"], cols["residual"]
    local = np.diff(np.log(residual)) / np.diff(np.log(mv2))
    above = local[mv2[:-1] >= 100.0]
    assert above.size == 3
    assert np.max(np.abs(above + 1.0)) < 0.005, local
