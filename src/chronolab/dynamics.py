"""Reduced time-dependent quantum mechanics.

Once the heavy clock supplies a time variable, the system obeys a TDSE
with the coupling read as a drive V_I(x, t).  This module propagates
that equation on the grid (Crank-Nicolson) and in a channel basis
(interaction-picture amplitude ODEs), builds conditional wavefunctions
from composite states, measures how well they satisfy the TDSE and how
large the leading correction term is, and runs the clock-energy scan
that turns the correction's 1/(M v^2) scaling into a fitted exponent.
Both propagators evaluate the drive once per block of BLOCK_STEPS time
steps, so a drive takes array times that broadcast against x.

Phase convention: psi(x,t) = sum_n a_n(t) phi_n(x) exp(-i eps_n t/hbar),
so grid-to-amplitude comparisons multiply projections by
exp(+i eps_m t / hbar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline
from scipy.linalg import get_lapack_funcs

from .classical import CouplingDrive, TimeMap
from .core import (
    ChannelBasis,
    CompositeSpec,
    Constant,
    Field1D,
    Grid1D,
    Harmonic,
    Linear,
    SystemSpec,
    WindowedPulse,
    ZeroCoupling,
    _kinetic_coeffs,
    central_difference,
)
from .errors import (
    BlowUpError,
    ChronolabError,
    DegenerateInputError,
    GridMismatchError,
    StabilityError,
)
from .params import FRACTION, GRID, INDEX, INT2, NUMBER, POSITIVE, array, param, require
from .semiclassical import WKBState
from .stationary import (
    DirectedState,
    _coupling_factors,
    _discrete_wavenumber,
    _matrix_elements,
    _project,
    _span_gram,
    _system_action,
    solve_directed_state,
    solve_system_basis,
)

__all__ = [
    "WavefunctionTrajectory",
    "propagate_tdse",
    "AmplitudeSet",
    "propagate_amplitudes",
    "TwoRouteReport",
    "compare_amplitudes_to_grid",
    "ConditionalTrajectory",
    "conditional_from_composite",
    "ResidualReport",
    "tdse_residual",
    "DirectedRunConfig",
    "directed_run",
    "EmergenceScanConfig",
    "QuantumEmergenceRow",
    "EmergenceReport",
    "emergence_scan",
]

# time steps per block of drive evaluations in the propagators.  A block's
# largest table is the (u, k, nx) product inside its RK4 stage matrices, u
# <= 3 * steps distinct stage times: under 8 MB at k = 2 and nx = 321,
# whatever the length of the run
BLOCK_STEPS = 256


def _blocks(t: np.ndarray):
    """(start, stop) step ranges of at most BLOCK_STEPS steps covering t."""
    for start in range(0, t.size - 1, BLOCK_STEPS):
        yield start, min(start + BLOCK_STEPS, t.size - 1)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class WavefunctionTrajectory:
    """System wavefunction sampled along a time axis: values[it, ix].

    Slice norms are reported as they come; nothing is renormalized.
    """

    x_grid: Grid1D
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.times.size, self.x_grid.n):
            raise GridMismatchError(
                f"trajectory shape {self.values.shape} does not match "
                f"({self.times.size}, {self.x_grid.n})"
            )
        if self.times.size < 2 or np.any(np.diff(self.times) <= 0.0):
            raise DegenerateInputError("need at least 2 strictly increasing times")

    def slice_norms(self) -> np.ndarray:
        w = self.x_grid.weights
        return np.sqrt(np.sum(w * np.abs(self.values) ** 2, axis=1))

    @property
    def norm_drift(self) -> float:
        n = self.slice_norms()
        return float(np.max(np.abs(n - n[0])))

    def slice(self, k: int) -> Field1D:
        return Field1D(self.x_grid, self.values[k])


# ---------------------------------------------------------------------------
# Crank-Nicolson


def propagate_tdse(
    system: SystemSpec,
    drive,
    psi0: Field1D,
    t_grid,
) -> WavefunctionTrajectory:
    """Crank-Nicolson propagation of the driven system TDSE.

    The drive (or None) is evaluated at the step midpoints, which keeps
    the stepping second order in the step for time-dependent drives.
    `drive(x, t)` is called once per block of BLOCK_STEPS steps, with x
    as a (1, nx) row and t as a (steps, 1) column of midpoints, and must
    return an array that broadcasts to (steps, nx); CouplingDrive does.
    Walls are Dirichlet.  Each step is one tridiagonal LAPACK solve
    (gtsv) on the block's diagonals, formed before its steps; the
    stepping is exactly norm-conserving for real potentials.  The first
    step whose solve fails or whose amplitudes are not finite raises
    BlowUpError naming it.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise DegenerateInputError("need at least 2 strictly increasing times")
    grid = psi0.grid
    x = grid.points
    hbar = system.hbar
    c0, c1, _ = _kinetic_coeffs(2, grid.spacing, system.m, hbar)
    v_static = np.asarray(system.v_sys(x), dtype=float)
    dtaus = np.diff(t).astype(complex)
    gtsv, = get_lapack_funcs(("gtsv",), (dtaus,))
    out = np.zeros((t.size, grid.n), dtype=complex)
    out[0, 1:-1] = psi0.values[1:-1]
    for start, stop in _blocks(t):
        v = v_static
        if drive is not None:
            tm = 0.5 * (t[start:stop] + t[start + 1:stop + 1])
            v = v_static + np.asarray(drive(x[None, :], tm[:, None]), dtype=float)
        v = np.broadcast_to(v, (stop - start, grid.n))
        h_diag = c0 + v[:, 1:-1].astype(complex)
        alpha = 1j * dtaus[start:stop] / (2.0 * hbar)
        diag = 1.0 + alpha[:, None] * h_diag
        off = np.repeat((alpha * c1)[:, None], grid.n - 3, axis=1)
        info, failed = 0, stop
        for j, i in enumerate(range(start, stop)):
            u = out[i, 1:-1]
            hu = h_diag[j] * u
            hu[:-1] += c1 * u[1:]
            hu[1:] += c1 * u[:-1]
            rhs = u - alpha[j] * hu
            if rhs.size == 1:  # one interior point: gtsv needs two
                unew = rhs / diag[j]
            else:
                _, _, _, unew, info = gtsv(off[j], diag[j], off[j], rhs, overwrite_b=True)
                if info != 0:
                    failed = i
                    break
            out[i + 1, 1:-1] = unew
        # the first non-finite row, or the failed solve, names the step
        bad = np.flatnonzero(~np.all(np.isfinite(out[start + 1:failed + 1]), axis=1))
        if bad.size:
            info, failed = 0, start + int(bad[0])
        if failed < stop:
            raise BlowUpError(f"non-finite amplitudes at step {failed} (gtsv info {info})")
    return WavefunctionTrajectory(grid, t, out)


# ---------------------------------------------------------------------------
# channel amplitudes


@dataclass(eq=False)
class AmplitudeSet:
    """Interaction-picture channel amplitudes a_m(t_k): amplitudes[k, m]."""

    times: np.ndarray
    amplitudes: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.energies = np.asarray(self.energies, dtype=float)
        if self.amplitudes.shape != (self.times.size, self.energies.size):
            raise GridMismatchError("amplitude table shape mismatch")

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def population_drift(self) -> float:
        tot = np.sum(self.populations(), axis=1)
        return float(np.max(np.abs(tot - tot[0])))


def propagate_amplitudes(
    basis: ChannelBasis,
    drive,
    a0,
    t_grid,
    hbar: float = 1.0,
) -> AmplitudeSet:
    """RK4 on i hbar da_m/dt = sum_n V_mn(t) a_n exp(i (eps_m - eps_n) t / hbar).

    The stage times of step i are t[i], t[i] + dt/2 and t[i] + dt with
    dt = t[i+1] - t[i].  `drive(x, t)` (or None) is called once per block
    of BLOCK_STEPS steps, with x as a (1, nx) row and t as a (u, 1)
    column of the block's distinct stage times, and must return an array
    that broadcasts to (u, nx); CouplingDrive does.  The drive, its
    matrix elements and their phase factors are formed once per distinct
    time and indexed into the block's (steps, 3, k, k) drive matrices
    before its steps are taken, so where t[i] + dt equals t[i+1] the
    last stage of step i and the first of step i+1 share one evaluation.
    Non-finite amplitudes raise BlowUpError.  A Hermitian drive
    conserves total population; a drift that is not within 1e-6 raises
    StabilityError suggesting a smaller step.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise DegenerateInputError("need at least 2 strictly increasing times")
    a0 = np.asarray(a0, dtype=complex)
    k = len(basis)
    if a0.shape != (k,):
        raise GridMismatchError(f"a0 must have {k} entries")
    eps = basis.energies
    out = np.empty((t.size, k), dtype=complex)
    out[0] = a0

    if drive is None:
        out[:] = a0[None, :]
        return AmplitudeSet(t, out, eps)

    deps = eps[:, None] - eps[None, :]
    x = basis.x_grid.points
    for start, stop in _blocks(t):
        ti = t[start:stop]
        dts = t[start + 1:stop + 1] - ti
        stage_t = np.stack([ti, ti + 0.5 * dts, ti + dts], axis=1)
        times, where = np.unique(stage_t, return_inverse=True)
        v = np.broadcast_to(
            np.asarray(drive(x[None, :], times[:, None]), dtype=float),
            times.shape + x.shape)
        m = _matrix_elements(basis, v) * np.exp(1j * deps * times[:, None, None] / hbar)
        m = m[where.reshape(stage_t.shape)]
        for j, dt in enumerate(dts):
            m1, m2, m4 = m[j]
            a = out[start + j]
            k1 = (-1j / hbar) * (m1 @ a)
            k2 = (-1j / hbar) * (m2 @ (a + 0.5 * dt * k1))
            k3 = (-1j / hbar) * (m2 @ (a + 0.5 * dt * k2))
            k4 = (-1j / hbar) * (m4 @ (a + dt * k3))
            out[start + j + 1] = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    bad = np.flatnonzero(~np.all(np.isfinite(out), axis=1))
    if bad.size:
        raise BlowUpError(f"non-finite amplitudes at t = {t[bad[0]]:g}")
    result = AmplitudeSet(t, out, eps)
    drift = result.population_drift
    if not drift <= 1e-6:
        raise StabilityError(
            f"population drift {drift:.3e} > 1.0e-06",
            suggested_step=float(np.min(np.diff(t))) / 2.0,
        )
    return result


@dataclass(frozen=True)
class TwoRouteReport:
    """Amplitude ODEs against grid projections of the same evolution."""

    times: np.ndarray
    ode: AmplitudeSet
    projected: np.ndarray  # (nt, k) phase-corrected grid projections
    max_deviation: float
    basis_defect: float


def compare_amplitudes_to_grid(
    system: SystemSpec,
    basis: ChannelBasis,
    drive,
    psi0: Field1D,
    t_grid,
) -> TwoRouteReport:
    """Run both propagators from the same state and compare channel by channel.

    psi0 must live in the basis span (representation defect below
    1e-6); projections of the grid evolution are corrected by
    exp(+i eps_m t / hbar) before comparison.  `drive(x, t)` (or None)
    must take array times that broadcast against x, as both
    propagators call it once per block of BLOCK_STEPS steps;
    CouplingDrive does.
    """
    if psi0.grid != basis.x_grid:
        raise GridMismatchError("psi0 grid does not match basis grid")
    w = basis.x_grid.weights
    a0 = _project(basis, psi0.values)
    total = float(np.sum(w * np.abs(psi0.values) ** 2))
    if total == 0.0:
        raise DegenerateInputError("zero initial state")
    defect = 1.0 - float(np.sum(np.abs(a0) ** 2)) / total
    if defect > 1e-6:
        raise DegenerateInputError(
            f"initial state is not in the basis span (defect {defect:.3e})"
        )

    t = np.asarray(t_grid, dtype=float)
    ode = propagate_amplitudes(basis, drive, a0, t, hbar=system.hbar)
    traj = propagate_tdse(system, drive, psi0, t)
    proj = _project(basis, traj.values)  # (k, nt)
    proj = proj.T * np.exp(1j * basis.energies[None, :] * t[:, None] / system.hbar)
    deviation = float(np.max(np.abs(ode.amplitudes - proj)))
    return TwoRouteReport(t, ode, proj, deviation, defect)


# ---------------------------------------------------------------------------
# conditional wavefunctions


@dataclass(eq=False)
class ConditionalTrajectory:
    """Conditional state psi(x, t_j) = sum_n amplitudes[j, n] phi_n(x), its
    back-reaction samples u_s (zero if not given), and the clock mass and
    mean velocity that give the M v^2 of the TDSE correction term."""

    basis: ChannelBasis
    times: np.ndarray
    amplitudes: np.ndarray
    u_s: np.ndarray | None = None
    clock_mass: float | None = None
    v_mean: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        n = self.times.size
        self.u_s = np.zeros(n, complex) if self.u_s is None else np.asarray(self.u_s, complex)
        if self.amplitudes.shape != (n, len(self.basis)) or self.u_s.shape != (n,):
            raise GridMismatchError("amplitude or u_s table does not match the time axis")
        if n < 2 or np.any(np.diff(self.times) <= 0.0):
            raise DegenerateInputError("need at least 2 strictly increasing times")

    def slice_norms(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.amplitudes) ** 2, axis=1))


def conditional_from_composite(
    state: DirectedState,
    wkb: WKBState,
    tmap: TimeMap,
    spec: CompositeSpec,
) -> ConditionalTrajectory:
    """Conditional system state psi(x, t(R)) = Psi(x, R) / chi_WKB(R).

    It lies in the channel span with the directed state: a = kappa / chi,
    a (slices, k) table, norms as they come out of the division.  Each
    slice carries u_s = a^H (H_s + g(R) W) a / |a|^2 with
    H_s = <phi_m|H_S phi_n>, W = <phi_m|sys|phi_n> and g = strength * env;
    the O(1/M) derivative terms of the full back-reaction are omitted
    because slices may be strided in R (the factorization has them).
    """
    if wkb.r_grid != state.r_grid:
        raise GridMismatchError("WKB grid does not match the state's R axis")
    if tmap.r_grid != state.r_grid:
        raise GridMismatchError("time map grid does not match the state's R axis")

    basis = state.basis
    amps = state.amplitudes / wkb.chi().values[:, None]
    weight = np.sum(np.abs(amps) ** 2, axis=1)
    if np.any(weight <= 0.0):
        raise DegenerateInputError("conditional slice with zero weight")
    hs = _project(basis, _system_action(spec, basis))
    g, w = _coupling_factors(spec, basis, state.r_grid.points)
    u_s = np.sum(np.conj(amps) * (amps @ hs.T + g[:, None] * (amps @ w.T)), axis=1) / weight
    v_clock = wkb.momentum / wkb.M
    return ConditionalTrajectory(basis, tmap.times, amps, u_s, wkb.M, float(np.mean(v_clock)))


# ---------------------------------------------------------------------------
# TDSE residual of a trajectory


@dataclass(frozen=True)
class ResidualReport:
    """How far a conditional trajectory is from solving the driven TDSE.

    `residual` is ||(H_S + V_I - U_S - i hbar d/dt) psi~|| / ||psi~||
    with the U_S phase removed from psi~ beforehand, and `out_of_span`
    the part of it outside the channel span, over the same norm; `rho`
    is the neglected-to-retained ratio ||(hbar^2/2Mv^2) d2psi/dt2|| /
    ||hbar dpsi/dt|| on the raw slices.  Endpoint slices are excluded
    from every norm.
    """

    residual: float
    out_of_span: float
    rho: float
    mv2: float
    resampled: bool


def tdse_residual(
    traj: ConditionalTrajectory,
    system: SystemSpec,
    drive: CouplingDrive | None = None,
    mv2: float | None = None,
) -> ResidualReport:
    """Measure the TDSE residual and the correction-term ratio of a trajectory.

    Needs at least 3 slices; non-uniform time samples are resampled by
    cubic interpolation first.  The purely time-dependent part of the
    back-reaction is removed by the phase transformation
    a~ = a * exp(+(i/hbar) int Re U_S dt) before the residual operator
    (which retains the -U_S term) is applied; the imaginary part of U_S
    is not used.  rho uses M v^2 from the trajectory's clock metadata
    unless `mv2` is given.

    All of it is computed from the amplitudes.  The drive (a CouplingDrive
    or None) is g(t) sys(x), g = strength * env(R(t)).  Row j of the
    residual is sum_m c_jm phi_m + sum_n a~_jn (d_n + g_j e_n), with
    c = H_s a~ + g W a~ - Re(U_S) a~ - i hbar D_t a~ and d_n, e_n as in
    `_span_gram`: a quadratic form in (c, a~, g a~) with the Gram matrix of
    (phi, d, e).  `rho` is a ratio of amplitude norms.
    """
    if drive is not None and not isinstance(drive, CouplingDrive):
        raise TypeError("the drive of a channel-space residual must be a CouplingDrive")
    if traj.times.size < 3:
        raise DegenerateInputError("need at least 3 slices for time stencils")
    t, amps, u = traj.times, traj.amplitudes, traj.u_s
    diffs = np.diff(t)
    mean_dt = float(np.mean(diffs))
    resampled = bool(np.max(np.abs(diffs - mean_dt)) > 1e-9 * mean_dt)
    if resampled:
        uniform = np.linspace(t[0], t[-1], t.size)
        amps = CubicSpline(t, amps, axis=0)(uniform)
        u = CubicSpline(t, u)(uniform)
        t = uniform
    dt = float(t[1] - t[0])

    if mv2 is None:
        if traj.clock_mass is None or traj.v_mean is None:
            raise DegenerateInputError(
                "no clock metadata on the trajectory; pass mv2 explicitly"
            )
        mv2 = float(traj.clock_mass * traj.v_mean**2)

    hbar = system.hbar
    k = len(traj.basis)
    cpl, r = (ZeroCoupling(), t) if drive is None else (drive.coupling, drive.timemap.r_of_t(t))
    g = np.asarray(cpl.strength * cpl.env(r), dtype=float)
    hs, w, gram = _span_gram(system, traj.basis, cpl.sys(traj.basis.x_grid.points))

    tamps = amps * np.exp((1j / hbar) * cumulative_trapezoid(u.real, t, initial=0.0))[:, None]
    inner, g = tamps[1:-1], g[1:-1, None]
    c = (inner @ hs.T + g * (inner @ w.T) - u.real[1:-1, None] * inner
         - 1j * hbar * central_difference(tamps, dt, 1))
    y = np.concatenate([c, inner, g * inner], axis=1)
    den2 = np.vdot(inner, inner @ gram[:k, :k].T).real  # summed over rows
    if den2 == 0.0:
        raise DegenerateInputError("trajectory is zero on the interior slices")
    residual = np.sqrt(max(np.vdot(y, y @ gram.T).real, 0.0) / den2)
    outside = np.sqrt(max(np.vdot(y[:, k:], y[:, k:] @ gram[k:, k:].T).real, 0.0) / den2)

    retained = hbar * np.linalg.norm(central_difference(amps, dt, 1))
    correction = (hbar * hbar / (2.0 * mv2)) * np.linalg.norm(central_difference(amps, dt, 2))
    if retained == 0.0:
        raise DegenerateInputError("trajectory is time-independent; no retained term")
    return ResidualReport(float(residual), float(outside), float(correction / retained),
                          mv2, resampled)


# ---------------------------------------------------------------------------
# the emergence scan


@dataclass(frozen=True)
class DirectedRunConfig:
    """A free heavy clock carries a windowed coupling pulse past a harmonic
    system; each clock kinetic energy is one directed composite solve
    (`directed_run`).

    The drive seen in emergent time is the same at every kinetic energy
    (the pulse center and width are fixed fractions of the duration);
    only the clock gets heavier and faster.  `max_phase_per_step` bounds
    k * dR on the fine R grid of the solve.  The scan reads time at the
    lattice group velocity (`_lattice_clock`), so dispersion does not
    enter the measured residual at first order, and the bound only sets
    how well the lattice resolves the clock wave and the pulse: the local
    residual slopes above M v^2 = 100 move by under 2e-4 between 0.01
    and 0.04."""

    clock_mass: float = param(200.0, POSITIVE)
    system_mass: float = param(1.0, POSITIVE)
    hbar: float = param(1.0, POSITIVE)
    system_stiffness: float = param(4.0, POSITIVE)
    pulse_amplitude: float = param(0.3, NUMBER)
    duration: float = param(2.0, POSITIVE)
    pulse_center_fraction: float = param(0.4, FRACTION)
    pulse_width_fraction: float = param(1.0 / 12.0, FRACTION)
    channels: int = param(6, INT2)
    x_half: float = param(8.0, POSITIVE)
    x_points: int = param(161, GRID)
    max_phase_per_step: float = param(0.04, POSITIVE)
    slices: int = param(4001, GRID)
    incoming: int = param(0, INDEX)
    residual_tol: float = param(1e-6, POSITIVE)

    def __post_init__(self):
        require(self.channels <= self.x_points - 2, "channels",
                f"{self.channels} channels need at least {self.channels + 2} x_points, "
                f"got {self.x_points}")
        require(self.incoming < self.channels, "incoming",
                f"incoming channel {self.incoming} is outside the {self.channels} channels")

    def system_basis(self) -> tuple:
        """The harmonic system and its lowest `channels` order-2 eigenstates."""
        x_grid = Grid1D(-self.x_half, self.x_half, self.x_points)
        system = SystemSpec(self.system_mass, self.hbar, Harmonic(self.system_stiffness))
        return system, solve_system_basis(system, x_grid, self.channels, order=2)


def directed_run(cfg: DirectedRunConfig, basis: ChannelBasis, e_kin: float) -> tuple:
    """Directed composite state of one clock kinetic energy.

    The clock enters in channel `incoming` and crosses R in
    [0, v * duration] on a fine grid of stride * (slices - 1) + 1
    points, with the smallest stride that keeps k_max * dR at or below
    `max_phase_per_step`; the returned state keeps every stride-th row.
    On that grid the clock wave moves at the lattice group velocity,
    which is below p / M by a fraction (k dR)^2 / 6: a clock read off
    this state must use it (`_lattice_clock` does).
    Returns (spec, fine R grid, directed state, v).
    """
    M, hbar = cfg.clock_mass, cfg.hbar
    eps0 = float(basis.energies[cfg.incoming])
    v = float(np.sqrt(2.0 * e_kin / M))
    span = v * cfg.duration
    e_total = e_kin + eps0

    k_max = float(np.sqrt(2.0 * M * e_total)) / hbar
    n_min = int(np.ceil(span * k_max / cfg.max_phase_per_step))
    stride = max(1, -(-n_min // (cfg.slices - 1)))  # ceil division
    r_grid = Grid1D(0.0, span, stride * (cfg.slices - 1) + 1)

    coupling = WindowedPulse(
        cfg.pulse_amplitude,
        cfg.pulse_center_fraction * span,
        cfg.pulse_width_fraction * cfg.duration * v,
        Linear(1.0),
    )
    spec = CompositeSpec(M, cfg.system_mass, hbar, Constant(0.0),
                         Harmonic(cfg.system_stiffness), coupling,
                         energy=e_total, clock_energy=e_total)
    state = solve_directed_state(spec, basis, r_grid, e_total, cfg.incoming,
                                 cfg.residual_tol, stride=stride)
    return spec, r_grid, state, v


@dataclass(frozen=True)
class EmergenceScanConfig(DirectedRunConfig):
    """Standard heavy-clock scan: the directed run repeated at increasing
    clock kinetic energy."""

    kinetic_energies: tuple = param((15.0, 50.0, 150.0, 500.0), array(POSITIVE, 3))


@dataclass(frozen=True)
class QuantumEmergenceRow:
    """One scan point. `mv2` = M v^2 = 2 E_kin is the x axis of the slope fit,
    but `rho` is computed with the M v^2 of the clock factor, M v_mean^2,
    about 2 (E_kin + eps_0): `_scan_point` builds the clock from the
    lattice momentum of the total energy. The difference is a next-order
    term, not an inconsistency: rho * M v_mean^2 reads about
    0.563 + 1.0 / (M v_mean^2), 5% above its limit at E_kin 15, so the
    1/(M v^2) law holds on either axis up to that term, and the 2 E_kin
    axis stays.
    `fine_points` and `stride` are the directed solve's fine R grid and
    the step between the rows it keeps."""

    scan_value: float
    mv2: float
    residual: float
    rho: float
    v_mean: float
    norm_spread: float
    residual_out_of_span: float
    fine_points: int
    stride: int
    error: str | None = None


@dataclass(frozen=True)
class EmergenceReport:
    """Scan rows with the log-log slopes of rho (`slope`) and of the
    measured residual (`residual_slope`) against M v^2."""

    rows: tuple
    slope: float
    residual_slope: float
    config: EmergenceScanConfig

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def _lattice_clock(state: DirectedState, spec: CompositeSpec, fine_spacing: float) -> tuple:
    """The free clock of a directed state on its R grid: (WKB factor, time map).

    Both come from the order-2 lattice of the solve grid (spacing
    `fine_spacing`) at the total energy.  The composite channels carry
    its discrete wavenumber k, and dividing by the continuum sqrt(2ME)
    phase would leave a spurious drift growing with E^2 h^2 that buries
    the physical correction at the top of the scan; so the WKB factor
    has momentum hbar k.  On that lattice the clock moves at the group
    velocity v_g = hbar sin(k h) / (M h), below hbar k / M by about
    (k h)^2 / 6; time read at hbar k / M would carry that mismatch into
    the TDSE residual as a floor, so t = (R - R_0) / v_g.
    """
    M, hbar = spec.M, spec.hbar
    k = _discrete_wavenumber(spec.energy, fine_spacing, M, hbar)
    p_lat = hbar * k
    v_g = hbar * np.sin(k * fine_spacing) / (M * fine_spacing)
    r_sub = state.r_grid
    rel = r_sub.points - r_sub.points[0]
    wkb = WKBState(r_sub, p_lat * rel, np.full(r_sub.n, p_lat ** -0.5),
                   np.full(r_sub.n, p_lat), M, hbar)
    return wkb, TimeMap(r_sub, rel / v_g)


def _scan_point(cfg: EmergenceScanConfig, system: SystemSpec, basis: ChannelBasis,
                e_kin: float) -> QuantumEmergenceRow:
    spec, r_grid, state, v = directed_run(cfg, basis, e_kin)
    wkb, tmap = _lattice_clock(state, spec, r_grid.spacing)
    traj = conditional_from_composite(state, wkb, tmap, spec)
    report = tdse_residual(traj, system, drive=CouplingDrive(spec.v_int, tmap))

    norms = traj.slice_norms()
    spread = float((norms.max() - norms.min()) / norms.mean())
    stride = (r_grid.n - 1) // (state.r_grid.n - 1)
    return QuantumEmergenceRow(e_kin, spec.M * v * v, report.residual, report.rho,
                               float(traj.v_mean), spread, report.out_of_span,
                               r_grid.n, stride)


def emergence_scan(
    config: EmergenceScanConfig | None = None,
    jobs: int = 1,
) -> EmergenceReport:
    """Scan the clock kinetic energy and fit the correction-term exponent.

    For each scan point: solve the directed composite state, divide out
    the WKB clock factor, and measure the conditional TDSE residual and
    the correction ratio rho.  Stage errors are recorded per point and
    the scan continues; the log-log slopes of rho and of the residual vs
    M v^2 are fitted over the successful points; fewer than two raise
    DegenerateInputError listing every point's error.  `jobs` > 1
    dispatches scan points to a thread pool; row order always follows
    the config.
    """
    cfg = config if config is not None else EmergenceScanConfig()
    if len(cfg.kinetic_energies) < 3:
        raise DegenerateInputError("scan needs at least 3 points")
    lo, hi = min(cfg.kinetic_energies), max(cfg.kinetic_energies)
    if hi < 30.0 * lo:
        raise DegenerateInputError(
            f"scan span {hi / lo:.1f}x is below the required 30x"
        )

    system, basis = cfg.system_basis()

    def one(e_kin: float) -> QuantumEmergenceRow:
        try:
            return _scan_point(cfg, system, basis, e_kin)
        except ChronolabError as exc:
            return QuantumEmergenceRow(e_kin, 2.0 * e_kin, *[float("nan")] * 7,
                                       f"{type(exc).__name__}: {exc}")

    points = [float(e) for e in cfg.kinetic_energies]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(one, points))
    else:
        rows = [one(e) for e in points]

    good = [r for r in rows if r.error is None]
    if len(good) < 2:
        failures = "; ".join(f"E_kin={r.scan_value:g}: {r.error}" for r in rows if r.error)
        raise DegenerateInputError(
            f"{len(good)} of {len(rows)} scan points succeeded, the slope fit needs 2: {failures}"
        )
    lx = np.log([r.mv2 for r in good])

    def fit(name: str) -> float:
        return float(np.polyfit(lx, np.log([getattr(r, name) for r in good]), 1)[0])

    return EmergenceReport(tuple(rows), fit("rho"), fit("residual"), cfg)
