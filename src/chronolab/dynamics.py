"""Reduced time-dependent quantum mechanics.

Once the heavy clock supplies a time variable, the system obeys a TDSE
with the coupling read as a drive V_I(x, t) = g(t) sys(x), a
CouplingDrive: its profile g(t) = strength * env(R(t)) times one fixed
function of x.  This module propagates that equation on the grid
(Crank-Nicolson, made fourth order for the two-route comparison by
Richardson extrapolation) and in a channel basis (interaction-picture
amplitude ODEs), builds conditional wavefunctions from composite
states, measures how well they satisfy the TDSE and how large the
leading correction term is, and runs the clock-energy scan that turns
the correction's 1/(M v^2) scaling into a fitted exponent.  Every
reader takes the drive in that product form: one profile call on all
the times it needs, and sys(x) or its matrix elements
W = <phi_m|sys|phi_n>.  The channel space (H_s, W, the span norm) is
`core`'s.

Phase convention: psi(x,t) = sum_n a_n(t) phi_n(x) exp(-i eps_n t/hbar),
so grid-to-amplitude comparisons multiply projections by
exp(+i eps_m t / hbar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    _channel_operators,
    _coupling_matrix,
    _cumulative_trapezoid,
    _discrete_wavenumber,
    _gram_norms,
    _kinetic_coeffs,
    _loglog_slope,
    _project,
    central_difference,
)
from .errors import (
    BlowUpError,
    ChronolabError,
    DegenerateInputError,
    GridMismatchError,
    StabilityError,
)
from .params import FRACTION, GRID, INDEX, INT2, MAX_FINE_ROWS, NUMBER, POSITIVE, array, param, require
from .semiclassical import WKBState
from .stationary import DirectedState, solve_directed_state, solve_system_basis

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
    "lattice_clock",
    "EmergenceScanConfig",
    "EmergenceReport",
    "emergence_scan",
]

# time steps per block of Crank-Nicolson diagonals: a block's two tables,
# the diagonals and off-diagonals of its steps' tridiagonal matrices, are
# under 1.4 MB each at nx = 321, whatever the length of the run
BLOCK_STEPS = 256


def _blocks(t: np.ndarray):
    """(start, stop) step ranges of at most BLOCK_STEPS steps covering t."""
    for start in range(0, t.size - 1, BLOCK_STEPS):
        yield start, min(start + BLOCK_STEPS, t.size - 1)


def _time_axis(times) -> np.ndarray:
    """`times` as a float array; DegenerateInputError unless it holds at
    least 2 strictly increasing times."""
    t = np.asarray(times, dtype=float)
    if t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise DegenerateInputError("need at least 2 strictly increasing times")
    return t


def _drive_parts(drive, times) -> tuple:
    """(profile g at `times`, coupling) of a CouplingDrive; g = 0 and
    ZeroCoupling for None.  Any other drive raises TypeError."""
    if drive is None:
        return np.zeros(np.shape(times)), ZeroCoupling()
    if not isinstance(drive, CouplingDrive):
        raise TypeError("a drive must be a CouplingDrive (or None)")
    return np.asarray(drive(times), dtype=float), drive.coupling


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
        _time_axis(self.times)

    def slice_norms(self) -> np.ndarray:
        # |psi|^2 summed over the (re, im) pairs of the real view
        re_im = self.values.view(float).reshape(self.values.shape + (2,))
        return np.sqrt(np.einsum("txc,txc,x->t", re_im, re_im, self.x_grid.weights))

    @property
    def norm_drift(self) -> float:
        n = self.slice_norms()
        return float(np.max(np.abs(n - n[0])))


# ---------------------------------------------------------------------------
# Crank-Nicolson


def propagate_tdse(
    system: SystemSpec,
    drive,
    psi0: Field1D,
    t_grid,
) -> WavefunctionTrajectory:
    """Crank-Nicolson propagation of the driven system TDSE.

    The drive (a CouplingDrive or None) is g(t) sys(x), read at the step
    midpoints, which keeps the stepping second order in the step for
    time-dependent drives: one profile call on all the midpoints.  Walls
    are Dirichlet.  With alpha = i dt / (2 hbar), each step is
    u <- 2 (1 + alpha H)^-1 u - u, the same Cayley factor as
    (1 + alpha H)^-1 (1 - alpha H) u: one tridiagonal LAPACK solve
    (gtsv) and one update, on diagonals formed per block of BLOCK_STEPS
    steps before its steps.  The stepping is exactly norm-conserving for
    real potentials.  The first step whose solve fails or whose
    amplitudes are not finite raises BlowUpError naming it.
    """
    from scipy.linalg import get_lapack_funcs

    t = _time_axis(t_grid)
    grid = psi0.grid
    x = grid.points
    hbar = system.hbar
    g, coupling = _drive_parts(drive, 0.5 * (t[:-1] + t[1:]))
    c0, c1, _ = _kinetic_coeffs(2, grid.spacing, system.m, hbar)
    h_static = c0 + np.asarray(system.v_sys(x), dtype=float)[1:-1]
    sys_x = np.asarray(coupling.sys(x), dtype=float)[1:-1]
    alpha = 1j * (np.diff(t) / (2.0 * hbar))
    gtsv, = get_lapack_funcs(("gtsv",), (alpha,))
    out = np.zeros((t.size, grid.n), dtype=complex)
    out[0, 1:-1] = psi0.values[1:-1]
    for start, stop in _blocks(t):
        a = alpha[start:stop, None]
        diag = 1.0 + a * (h_static + g[start:stop, None] * sys_x)
        off = np.repeat(a * c1, grid.n - 3, axis=1)
        info, failed = 0, stop
        for j, i in enumerate(range(start, stop)):
            u = out[i, 1:-1]
            if u.size == 1:  # one interior point: gtsv needs two
                y = u / diag[j]
            else:
                _, _, _, y, info = gtsv(off[j], diag[j], off[j], u)
                if info != 0:
                    failed = i
                    break
            np.subtract(y + y, u, out=out[i + 1, 1:-1])
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

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 2 or len(self.amplitudes) != self.times.size:
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
    """RK4 on i hbar da_m/dt = sum_n g(t) W_mn a_n exp(i (eps_m - eps_n) t / hbar).

    The drive (a CouplingDrive or None) is g(t) sys(x); W =
    <phi_m|sys|phi_n> is formed once (`_coupling_matrix`) and the
    profile once, in one call on the distinct stage times.  The stage
    times of step i are t[i], t[i] + dt/2 and t[i+1] with
    dt = t[i+1] - t[i], so the last stage of step i and the first of
    step i+1 share one evaluation.  With
    A(t) = -(i/hbar) g(t) W * exp(i deps t / hbar) the step is linear,
    a <- P a with P = I + dt/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A(t),
    K2 = A(t + dt/2) (I + dt/2 K1), K3 = A(t + dt/2) (I + dt/2 K2) and
    K4 = A(t + dt) (I + dt K3); the (steps, k, k) step matrices are built
    in one batch, and the steps are a loop of k x k mat-vecs.
    Non-finite amplitudes raise BlowUpError.  A Hermitian drive
    conserves total population; a drift that is not within 1e-6 raises
    StabilityError suggesting a smaller step.
    """
    t = _time_axis(t_grid)
    a0 = np.asarray(a0, dtype=complex)
    k = len(basis)
    if a0.shape != (k,):
        raise GridMismatchError(f"a0 must have {k} entries")
    eps = basis.energies
    dt = np.diff(t)
    stage_t = np.stack([t[:-1], t[:-1] + 0.5 * dt, t[1:]], axis=1)
    times, where = np.unique(stage_t, return_inverse=True)
    g, coupling = _drive_parts(drive, times)
    deps = eps[:, None] - eps[None, :]
    a = (((-1j / hbar) * g[:, None, None]) * _coupling_matrix(basis, coupling.sys)
         * np.exp(1j * deps * times[:, None, None] / hbar))
    a = a[where.reshape(stage_t.shape)]
    a1, a2, a4 = a[:, 0], a[:, 1], a[:, 2]
    h = dt[:, None, None]
    eye = np.eye(k)
    k2 = a2 @ (eye + (0.5 * h) * a1)
    k3 = a2 @ (eye + (0.5 * h) * k2)
    k4 = a4 @ (eye + h * k3)
    p = eye + (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)

    out = np.empty((t.size, k), dtype=complex)
    out[0] = a0
    for i in range(t.size - 1):
        out[i + 1] = p[i] @ out[i]

    bad = np.flatnonzero(~np.all(np.isfinite(out), axis=1))
    if bad.size:
        raise BlowUpError(f"non-finite amplitudes at t = {t[bad[0]]:g}")
    result = AmplitudeSet(t, out)
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
    exp(+i eps_m t / hbar) before comparison.  The drive is a
    CouplingDrive or None, as both propagators require.

    The grid route is Richardson's (4 fine - coarse) / 3 of the
    projections of two `propagate_tdse` runs, on t and on t with every
    interval halved.  The midpoint Cayley step is symmetric, so the
    global error holds only even powers of the step: the combination
    cancels the dt^2 term and is fourth order.  Each run is projected as
    it returns, so one grid table is alive at a time.
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
    halves = np.empty(2 * t.size - 1)
    halves[::2], halves[1::2] = t, 0.5 * (t[:-1] + t[1:])
    coarse = _project(basis, propagate_tdse(system, drive, psi0, t).values)  # (k, nt)
    fine = _project(basis, propagate_tdse(system, drive, psi0, halves).values[::2])
    proj = (4.0 * fine - coarse) / 3.0
    proj = proj.T * np.exp(1j * basis.energies[None, :] * t[:, None] / system.hbar)
    deviation = float(np.max(np.abs(ode.amplitudes - proj)))
    return TwoRouteReport(ode, proj, deviation, defect)


# ---------------------------------------------------------------------------
# conditional wavefunctions


@dataclass(eq=False)
class ConditionalTrajectory:
    """Conditional state psi(x, t_j) = sum_n amplitudes[j, n] phi_n(x) and
    its back-reaction samples u_s.  The M v^2 of the TDSE correction term
    is the caller's: `tdse_residual` takes it."""

    basis: ChannelBasis
    times: np.ndarray
    amplitudes: np.ndarray
    u_s: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        n = self.times.size
        self.u_s = np.asarray(self.u_s, complex)
        if self.amplitudes.shape != (n, len(self.basis)) or self.u_s.shape != (n,):
            raise GridMismatchError("amplitude or u_s table does not match the time axis")
        _time_axis(self.times)

    def slice_norms(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.amplitudes) ** 2, axis=1))


def conditional_from_composite(
    state: DirectedState,
    wkb: WKBState,
    tmap: TimeMap,
) -> ConditionalTrajectory:
    """Conditional system state psi(x, t(R)) = Psi(x, R) / chi_WKB(R).

    It lies in the channel span with the directed state: a = kappa / chi,
    a (slices, k) table, norms as they come out of the division.  Each
    slice carries u_s = a^H (H_s + g(R) W) a / |a|^2 with
    H_s = <phi_m|H_S phi_n>, W = <phi_m|sys|phi_n> and g = strength * env,
    all of the composite the state was solved for (`state.spec`); the
    O(1/M) derivative terms of the full back-reaction are omitted
    because slices may be strided in R (the factorization has them).
    """
    if wkb.r_grid != state.r_grid:
        raise GridMismatchError("WKB grid does not match the state's R axis")
    if tmap.r_grid != state.r_grid:
        raise GridMismatchError("time map grid does not match the state's R axis")

    basis, spec = state.basis, state.spec
    amps = state.amplitudes / wkb.chi().values[:, None]
    weight = np.sum(np.abs(amps) ** 2, axis=1)
    if np.any(weight <= 0.0):
        raise DegenerateInputError("conditional slice with zero weight")
    hs, w, _ = _channel_operators(spec, basis, spec.v_int.sys)
    g = spec.v_int.profile(state.r_grid.points)
    u_s = np.sum(np.conj(amps) * (amps @ hs.T + g[:, None] * (amps @ w.T)), axis=1) / weight
    return ConditionalTrajectory(basis, tmap.times, amps, u_s)


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


def tdse_residual(
    traj: ConditionalTrajectory,
    system: SystemSpec,
    drive: CouplingDrive | None,
    *,
    mv2: float,
) -> ResidualReport:
    """Measure the TDSE residual and the correction-term ratio of a trajectory.

    Needs at least 3 slices on uniformly spaced times (steps within
    1e-9 of their mean); DegenerateInputError otherwise.  The purely
    time-dependent part of the back-reaction is removed by the phase
    transformation a~ = a * exp(+(i/hbar) int Re U_S dt) before the
    residual operator (which retains the -U_S term) is applied; the
    imaginary part of U_S is not used.  rho uses the clock's M v^2, `mv2`.

    All of it is computed from the amplitudes.  The drive (a CouplingDrive
    or None) is g(t) sys(x), g = strength * env(R(t)).  Row j of the
    residual is the row y_j = (c_j, a~_j, g_j a~_j) of `_gram_norms`, the
    directed residual's norm, with c = H_s a~ + g W a~ - Re(U_S) a~ -
    i hbar D_t a~; the three norms (total, field and `out_of_span`, the
    (d, e) block) are read from the one Gram product S = y^H y.  `rho`
    is a ratio of amplitude norms.
    """
    if traj.times.size < 3:
        raise DegenerateInputError("need at least 3 slices for time stencils")
    t, amps, u = traj.times, traj.amplitudes, traj.u_s
    diffs = np.diff(t)
    mean_dt = float(np.mean(diffs))
    if np.max(np.abs(diffs - mean_dt)) > 1e-9 * mean_dt:
        raise DegenerateInputError("the time stencils need uniformly spaced slice times")
    dt = float(t[1] - t[0])

    hbar = system.hbar
    g, coupling = _drive_parts(drive, t)
    hs, w, gram = _channel_operators(system, traj.basis, coupling.sys)

    tamps = amps * np.exp((1j / hbar) * _cumulative_trapezoid(u.real, t))[:, None]
    inner, g = tamps[1:-1], g[1:-1, None]
    c = (inner @ hs.T + g * (inner @ w.T) - u.real[1:-1, None] * inner
         - 1j * hbar * central_difference(tamps, dt, 1))
    y = np.concatenate([c, inner, g * inner], axis=1)
    total2, den2, outside2 = _gram_norms(gram, np.conj(y).T @ y)
    if den2 == 0.0:
        raise DegenerateInputError("trajectory is zero on the interior slices")
    residual = np.sqrt(max(total2, 0.0) / den2)
    outside = np.sqrt(max(outside2, 0.0) / den2)

    # plain sums, not np.linalg.norm: a BLAS norm moves with the thread count
    retained = hbar * np.sqrt(np.sum(np.abs(central_difference(amps, dt, 1)) ** 2))
    correction = ((hbar * hbar / (2.0 * mv2))
                  * np.sqrt(np.sum(np.abs(central_difference(amps, dt, 2)) ** 2)))
    if retained == 0.0:
        raise DegenerateInputError("trajectory is time-independent; no retained term")
    return ResidualReport(float(residual), float(outside), float(correction / retained))


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
    lattice group velocity (`lattice_clock`), so dispersion does not
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

    def system_basis(self) -> ChannelBasis:
        """The lowest `channels` order-2 eigenstates of the harmonic system."""
        x_grid = Grid1D(-self.x_half, self.x_half, self.x_points)
        system = SystemSpec(self.system_mass, self.hbar, Harmonic(self.system_stiffness))
        return solve_system_basis(system, x_grid, self.channels, order=2)

    def clock_speed(self, e_kin):
        """v = sqrt(2 E_kin / M), the clock speed of kinetic energy `e_kin`
        (a number or an array) that sizes a directed run."""
        return np.sqrt(2.0 * e_kin / self.clock_mass)


def directed_run(cfg: DirectedRunConfig, basis: ChannelBasis, e_kin: float) -> DirectedState:
    """Directed composite state of one clock kinetic energy.

    The clock enters in channel `incoming` and crosses R in
    [0, v * duration] on a fine grid of stride * (slices - 1) + 1
    points, with the smallest stride that keeps k_max * dR at or below
    `max_phase_per_step`; the returned state keeps every stride-th row,
    and carries the composite and the stride, so its fine grid needs no
    second copy.  A grid of more than MAX_FINE_ROWS points is refused
    with DegenerateInputError before anything is allocated.
    On that grid the clock wave moves at the lattice group velocity,
    which is below p / M by a fraction (k dR)^2 / 6: a clock read off
    this state must use it (`lattice_clock` does).
    """
    M, hbar = cfg.clock_mass, cfg.hbar
    eps0 = float(basis.energies[cfg.incoming])
    v = float(cfg.clock_speed(e_kin))
    span = v * cfg.duration
    e_total = e_kin + eps0

    k_max = float(np.sqrt(2.0 * M * e_total)) / hbar
    n_min = np.ceil(span * k_max / cfg.max_phase_per_step)
    # in floats, so an overflowing (inf or nan) grid is refused before it is
    # sized; the ceiling of the quotient is exact while both counts are below 2^53
    stride = np.maximum(1.0, np.ceil(n_min / (cfg.slices - 1)))
    rows = stride * (cfg.slices - 1) + 1
    if not rows <= MAX_FINE_ROWS:
        raise DegenerateInputError(
            f"the directed solve needs {rows:.4g} fine R rows, above the bound of "
            f"{MAX_FINE_ROWS:.0e}"
        )
    stride = int(stride)
    r_grid = Grid1D(0.0, span, int(rows))

    coupling = WindowedPulse(
        cfg.pulse_amplitude,
        cfg.pulse_center_fraction * span,
        cfg.pulse_width_fraction * cfg.duration * v,
        Linear(1.0),
    )
    spec = CompositeSpec(M, cfg.system_mass, hbar, Constant(0.0),
                         Harmonic(cfg.system_stiffness), coupling)
    return solve_directed_state(spec, basis, r_grid, e_total, cfg.incoming,
                                cfg.residual_tol, stride=stride)


@dataclass(frozen=True)
class EmergenceScanConfig(DirectedRunConfig):
    """Standard heavy-clock scan: the directed run repeated at increasing
    clock kinetic energy, over at least 3 points spanning at least 30x,
    so that the slope fit has a range to read."""

    kinetic_energies: tuple = param((15.0, 50.0, 150.0, 500.0), array(POSITIVE, 3))

    def __post_init__(self):
        super().__post_init__()
        energies = self.kinetic_energies
        require(len(energies) >= 3, "kinetic_energies",
                f"the scan needs at least 3 points, got {len(energies)}")
        lo, hi = min(energies), max(energies)
        require(hi >= 30.0 * lo, "kinetic_energies",
                f"scan span {hi / lo:.1f}x is below the required 30x")


@dataclass(frozen=True, eq=False)
class EmergenceReport:
    """The scan's columns with the log-log slopes of rho (`slope`) and of
    the measured residual (`residual_slope`) against M v^2, fitted over
    the points that succeeded.

    `columns` maps each output column's name to one 1-D array, a cell
    per scan point in config order: `scan_value` (E_kin) and `mv2`
    (M v^2 at the v that sizes the directed run), then the values that
    `_scan_point` measures, under its names.  `error` holds one text per
    point, empty where the point succeeded; a failed point has NaN in
    every measured column, which makes an integer column float."""

    columns: dict
    error: tuple
    slope: float
    residual_slope: float


def lattice_clock(state: DirectedState) -> tuple:
    """The free clock of a directed state on its R grid: (WKB factor, time map).

    Both come from the order-2 lattice the state was solved on (spacing
    `state.fine_spacing`, the clock mass of `state.spec`) at the total
    energy.  The composite channels carry
    its discrete wavenumber k, and dividing by the continuum sqrt(2ME)
    phase would leave a spurious drift growing with E^2 h^2 that buries
    the physical correction at the top of the scan; so the WKB factor
    has momentum hbar k.  On that lattice the clock moves at the group
    velocity v_g = hbar sin(k h) / (M h), below hbar k / M by about
    (k h)^2 / 6; time read at hbar k / M would carry that mismatch into
    the TDSE residual as a floor, so t = (R - R_0) / v_g, at the rate
    dt/dR = 1 / v_g.
    """
    M, hbar = state.spec.M, state.spec.hbar
    fine_spacing = state.fine_spacing
    k = _discrete_wavenumber(state.energy, fine_spacing, M, hbar)
    p_lat = hbar * k
    v_g = hbar * np.sin(k * fine_spacing) / (M * fine_spacing)
    r_sub = state.r_grid
    rel = r_sub.points - r_sub.points[0]
    wkb = WKBState(r_sub, p_lat * rel, np.full(r_sub.n, p_lat ** -0.5),
                   np.full(r_sub.n, p_lat), M, hbar)
    return wkb, TimeMap(r_sub, rel / v_g, np.full(r_sub.n, 1.0 / v_g))


def _scan_point(cfg: EmergenceScanConfig, basis: ChannelBasis, e_kin: float) -> dict:
    """The values one scan point measures, by output column name.

    `rho` is computed with the M v^2 of the clock factor, M v_mean^2,
    about 2 (E_kin + eps_0), not with the scan's 2 E_kin axis: the clock
    is built from the lattice momentum of the total energy.  The
    difference is a next-order term, not an inconsistency: rho * M
    v_mean^2 reads about 0.563 + 1.0 / (M v_mean^2), 5% above its limit
    at E_kin 15, so the 1/(M v^2) law holds on either axis up to that
    term, and the 2 E_kin axis stays.  `fine_points` and `stride` are
    the directed solve's fine R grid and the step between the rows it
    keeps, as the state carries them.
    """
    state = directed_run(cfg, basis, e_kin)
    spec = state.spec
    wkb, tmap = lattice_clock(state)
    traj = conditional_from_composite(state, wkb, tmap)
    v_mean = float(np.mean(wkb.momentum / wkb.M))
    report = tdse_residual(traj, spec.system, drive=CouplingDrive(spec.v_int, tmap),
                           mv2=float(wkb.M * v_mean**2))

    norms = traj.slice_norms()
    return {"residual": report.residual, "rho": report.rho, "v_mean": v_mean,
            "norm_spread": float((norms.max() - norms.min()) / norms.mean()),
            "residual_out_of_span": report.out_of_span,
            "fine_points": state.fine_points, "stride": state.stride}


def emergence_scan(
    config: EmergenceScanConfig | None = None,
    *,
    jobs: int,
) -> EmergenceReport:
    """Scan the clock kinetic energy and fit the correction-term exponent.

    For each scan point: solve the directed composite state, divide out
    the WKB clock factor, and measure the conditional TDSE residual and
    the correction ratio rho.  Stage errors are recorded per point and
    the scan continues; the log-log slopes of rho and of the residual vs
    M v^2 are fitted over the successful points; fewer than two raise
    DegenerateInputError listing every point's error.  `jobs` > 1
    dispatches scan points to a thread pool; the columns always follow
    the config.
    """
    cfg = config if config is not None else EmergenceScanConfig()
    basis = cfg.system_basis()

    def one(e_kin: float) -> tuple:
        try:
            return _scan_point(cfg, basis, e_kin), ""
        except ChronolabError as exc:
            return {}, f"{type(exc).__name__}: {exc}"

    energies = [float(e) for e in cfg.kinetic_energies]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(one, energies))
    else:
        points = [one(e) for e in energies]
    measured, errors = zip(*points)

    good = np.array([not e for e in errors])
    if good.sum() < 2:
        failures = "; ".join(f"E_kin={e:g}: {err}" for e, err in zip(energies, errors) if err)
        raise DegenerateInputError(
            f"{good.sum()} of {len(errors)} scan points succeeded, the slope fit needs 2: "
            f"{failures}"
        )
    scan_value = np.array(energies)
    v = cfg.clock_speed(scan_value)
    columns = {"scan_value": scan_value, "mv2": cfg.clock_mass * v * v}
    for name in next(m for m in measured if m):
        columns[name] = np.array([m.get(name, np.nan) for m in measured])
    mv2 = columns["mv2"][good]
    return EmergenceReport(columns, errors, _loglog_slope(mv2, columns["rho"][good]),
                           _loglog_slope(mv2, columns["residual"][good]))
