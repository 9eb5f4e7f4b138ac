"""Time propagation: grid TDSE, amplitude ODEs, conditional states, scans."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronolab import (
    Bilinear,
    CompositeSpec,
    Constant,
    CouplingDrive,
    DegenerateInputError,
    ZeroCoupling,
    EmergenceScanConfig,
    Field1D,
    Grid1D,
    Harmonic,
    SystemSpec,
    TimeMap,
    WKBState,
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
from chronolab.dynamics import BLOCK_STEPS
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
    assert [r.shape for r in recorded.times] == [(BLOCK_STEPS, 3, 1)] * 2 + [(37, 3, 1)]
    stages = np.stack([t[:-1], t[:-1] + 0.5 * dt, t[:-1] + dt], axis=1)
    assert np.array_equal(np.concatenate(recorded.times)[..., 0], stages)

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


# ---------------------------------------------------------------------------
# conditional states from directed composites


def test_free_beam_conditional_carries_emergent_phase():
    # The clock carries the full energy, so the conditional state is not
    # frozen: it picks up the phase exp(-i eps0 t) of the channel it rides.
    from chronolab.stationary import _discrete_wavenumber

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
    pair = solve_directed_state(spec, basis, r_grid, e_total, 0, 1e-6, stride=4)

    r_sub = pair.state.grid.r
    p_lat = hbar * _discrete_wavenumber(e_total, r_grid.spacing, M, hbar)
    rel = r_sub.points - r_sub.points[0]
    wkb = WKBState(r_sub, p_lat * rel, np.full(r_sub.n, p_lat**-0.5),
                   np.full(r_sub.n, p_lat), e_total, M, hbar)
    tmap = TimeMap(r_sub, (M / p_lat) * rel)
    traj = conditional_from_composite(pair, wkb, tmap, spec, x_stencil_order=2)

    assert np.ptp([norm(Field1D(x_grid, row)) for row in traj.values]) < 1e-10
    assert traj.u_s is not None
    np.testing.assert_allclose(traj.u_s.real, eps0, rtol=1e-8)

    # phase-locked comparison against the entry slice
    t_rel = traj.times - traj.times[0]
    locked = traj.values[0][None, :] * np.exp(-1j * eps0 * t_rel / hbar)[:, None]
    dev = np.max(np.abs(traj.values - locked)) / np.max(np.abs(traj.values[0]))
    mv2 = 2.0 * (e_total - eps0)
    # residual phase drift accumulates at the correction rate: eps0^2 T / (2 M v^2)
    assert dev == pytest.approx(eps0**2 * t_rel[-1] / (2.0 * mv2), rel=0.05)

    # the conditional-equation defect IS the leading correction eps0/(2 M v^2)
    rep = tdse_residual(traj, system, mv2=mv2)
    assert rep.rho == pytest.approx(eps0 / (2.0 * mv2), rel=0.02)
    assert rep.residual == pytest.approx(rep.rho, rel=0.02)


def test_residual_report_term_norms():
    grid = Grid1D(-9.0, 9.0, 901)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    basis = solve_system_basis(system, grid, 1, order=2)
    t = np.linspace(0.0, 2.0, 2001)
    traj = propagate_tdse(system, None, basis.states[0], t)
    rep = tdse_residual(traj, system, mv2=100.0)
    assert rep.residual < 1e-5
    assert not rep.resampled

    # the drive is called once on the whole (t, x) table; a drive that
    # only takes scalar times fails loudly
    def scalar_times_only(x, t):
        if np.ndim(t):
            raise TypeError("scalar times only")
        return 0.0 * x

    with pytest.raises(TypeError, match="scalar times only"):
        tdse_residual(traj, system, drive=scalar_times_only, mv2=100.0)


def test_emergence_scan_config_validation():
    with pytest.raises(DegenerateInputError):
        emergence_scan(EmergenceScanConfig(kinetic_energies=(10.0, 40.0)))
    with pytest.raises(DegenerateInputError):
        emergence_scan(EmergenceScanConfig(kinetic_energies=(10.0, 40.0, 160.0)))
