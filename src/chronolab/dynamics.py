"""Reduced time-dependent quantum mechanics.

Once the heavy clock supplies a time variable, the system obeys a TDSE
with the coupling read as a drive V_I(x, t).  This module propagates
that equation on the grid (Crank-Nicolson) and in a channel basis
(interaction-picture amplitude ODEs), builds conditional wavefunctions
from composite states, measures how well they satisfy the TDSE and how
large the leading correction term is, and runs the clock-energy scan
that turns the correction's 1/(M v^2) scaling into a fitted exponent.
A complex-step Crank-Nicolson variant explores propagation along
complex time paths.

Phase convention: psi(x,t) = sum_n a_n(t) phi_n(x) exp(-i eps_n t/hbar),
so grid-to-amplitude comparisons multiply projections by
exp(+i eps_m t / hbar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

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
    _apply_kinetic,
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
from .semiclassical import ComplexTimeMap, WKBState
from .stationary import (
    EigenPair,
    _discrete_wavenumber,
    _matrix_elements,
    _project,
    _slice_hamiltonian,
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
    "conditional_from_composite",
    "ResidualReport",
    "tdse_residual",
    "DirectedRunConfig",
    "directed_run",
    "EmergenceScanConfig",
    "QuantumEmergenceRow",
    "EmergenceReport",
    "emergence_scan",
    "ComplexTimeTrajectory",
    "propagate_complex_time",
]


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class WavefunctionTrajectory:
    """System wavefunction sampled along a time axis: values[it, ix].

    `u_s` carries the per-slice back-reaction samples when the
    trajectory came out of a composite factorization; the clock metadata
    (mass, window-averaged velocity and its spread) feeds the correction
    term of the TDSE residual.  Slice norms are reported as they come;
    nothing is renormalized.
    """

    x_grid: Grid1D
    times: np.ndarray
    values: np.ndarray
    x_stencil_order: int = 2
    u_s: np.ndarray | None = None
    clock_mass: float | None = None
    v_mean: float | None = None
    v_spread: float | None = None

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
        if self.u_s is not None:
            self.u_s = np.asarray(self.u_s, dtype=complex)
            if self.u_s.shape != (self.times.size,):
                raise GridMismatchError("u_s table does not match the time axis")

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
# Crank-Nicolson core (shared by real and complex stepping)


def _crank_nicolson(
    x_grid: Grid1D,
    mass: float,
    hbar: float,
    psi0: np.ndarray,
    dtaus: np.ndarray,
    v_mid,
    max_growth: float | None = None,
):
    """Trapezoidal stepping of i hbar dpsi/dtau = H psi on a Dirichlet grid.

    `dtaus` may be complex; `v_mid(i)` returns the full potential row
    (length nx, real or complex) at the midpoint of step i.  Exactly
    norm-conserving for real steps and real potentials; the optional
    `max_growth` bound (relative to the initial norm) guards complex
    stepping against blow-up.
    """
    nx = x_grid.n
    h = x_grid.spacing
    c0, c1, _ = _kinetic_coeffs(2, h, mass, hbar)
    out = np.zeros((dtaus.size + 1, nx), dtype=complex)
    out[0] = psi0
    out[0, 0] = 0.0
    out[0, -1] = 0.0
    norm0 = float(np.sqrt(np.sum(np.abs(out[0]) ** 2)))
    ab = np.zeros((3, nx - 2), dtype=complex)
    for i, dtau in enumerate(dtaus):
        u = out[i, 1:-1]
        vm = np.asarray(v_mid(i), dtype=complex)[1:-1]
        alpha = 1j * dtau / (2.0 * hbar)
        hu = (c0 + vm) * u
        hu[:-1] += c1 * u[1:]
        hu[1:] += c1 * u[:-1]
        rhs = u - alpha * hu
        ab[0, 1:] = alpha * c1
        ab[1, :] = 1.0 + alpha * (c0 + vm)
        ab[2, :-1] = alpha * c1
        unew = solve_banded((1, 1), ab, rhs)
        if not np.all(np.isfinite(unew)):
            raise BlowUpError(f"non-finite amplitudes at step {i}")
        out[i + 1, 1:-1] = unew
        if max_growth is not None:
            n = float(np.sqrt(np.sum(np.abs(unew) ** 2)))
            if n > max_growth * max(norm0, 1e-300):
                raise BlowUpError(
                    f"norm grew past {max_growth:.1e} x initial at step {i}"
                )
    return out


def propagate_tdse(
    system: SystemSpec,
    drive,
    psi0: Field1D,
    t_grid,
) -> WavefunctionTrajectory:
    """Crank-Nicolson propagation of the driven system TDSE.

    `drive` is any callable v(x_array, t_scalar) -> array (or None); it
    is evaluated at step midpoints, which keeps the stepping second
    order in the step for time-dependent drives.  Walls are Dirichlet.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise DegenerateInputError("need at least 2 strictly increasing times")
    x = psi0.grid.points
    v_static = np.asarray(system.v_sys(x), dtype=float)

    def v_mid(i):
        if drive is None:
            return v_static
        tm = 0.5 * (t[i] + t[i + 1])
        return v_static + np.asarray(drive(x, tm), dtype=float)

    vals = _crank_nicolson(psi0.grid, system.m, system.hbar, psi0.values,
                           np.diff(t).astype(complex), v_mid)
    return WavefunctionTrajectory(psi0.grid, t, vals, x_stencil_order=2)


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
    drift_tol: float = 1e-6,
) -> AmplitudeSet:
    """RK4 on i hbar da_m/dt = sum_n V_mn(t) a_n exp(i (eps_m - eps_n) t / hbar).

    The drive matrix is recomputed at every RK4 stage.  A Hermitian
    drive conserves total population; drift beyond `drift_tol` raises
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

    def rhs(time, a):
        v = _matrix_elements(basis, np.asarray(drive(x, time), dtype=float))
        return (-1j / hbar) * ((v * np.exp(1j * deps * time / hbar)) @ a)

    for i in range(t.size - 1):
        dt = t[i + 1] - t[i]
        a = out[i]
        k1 = rhs(t[i], a)
        k2 = rhs(t[i] + 0.5 * dt, a + 0.5 * dt * k1)
        k3 = rhs(t[i] + 0.5 * dt, a + 0.5 * dt * k2)
        k4 = rhs(t[i] + dt, a + dt * k3)
        out[i + 1] = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    result = AmplitudeSet(t, out, eps)
    if result.population_drift > drift_tol:
        raise StabilityError(
            f"population drift {result.population_drift:.3e} > {drift_tol:.1e}",
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
    defect_tol: float = 1e-6,
) -> TwoRouteReport:
    """Run both propagators from the same state and compare channel by channel.

    psi0 must live in the basis span (representation defect below
    `defect_tol`); projections of the grid evolution are corrected by
    exp(+i eps_m t / hbar) before comparison.
    """
    if psi0.grid != basis.x_grid:
        raise GridMismatchError("psi0 grid does not match basis grid")
    w = basis.x_grid.weights
    a0 = _project(basis, psi0.values)
    total = float(np.sum(w * np.abs(psi0.values) ** 2))
    if total == 0.0:
        raise DegenerateInputError("zero initial state")
    defect = 1.0 - float(np.sum(np.abs(a0) ** 2)) / total
    if defect > defect_tol:
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


def conditional_from_composite(
    pair: EigenPair,
    wkb: WKBState,
    tmap: TimeMap,
    spec: CompositeSpec,
    x_stencil_order: int = 2,
) -> WavefunctionTrajectory:
    """Conditional system wavefunction psi(x, t(R)) = Psi(x, R) / chi_WKB(R).

    Slice norms are left as they come out of the division.  Each slice
    carries a back-reaction sample u_s computed as the normalized slice
    expectation of H_S + V_I(., R); the O(1/M) derivative terms of the
    full back-reaction are omitted here because slices may be strided in
    R (the full object lives in the factorization machinery).
    """
    state = pair.state
    if wkb.r_grid != state.grid.r:
        raise GridMismatchError("WKB grid does not match the state's R axis")
    if tmap.r_grid != state.grid.r:
        raise GridMismatchError("time map grid does not match the state's R axis")

    chi = wkb.chi().values
    psi = state.values / chi[:, None]

    wx = state.grid.x.weights
    hs = _slice_hamiltonian(spec, psi, state.grid.x, state.grid.r.points, x_stencil_order)
    weight = np.sum(wx * np.abs(psi) ** 2, axis=1)
    if np.any(weight <= 0.0):
        raise DegenerateInputError("conditional slice with zero weight")
    u_s = np.sum(wx * np.conj(psi) * hs, axis=1) / weight

    v_clock = wkb.momentum / wkb.M
    return WavefunctionTrajectory(
        state.grid.x,
        tmap.times,
        psi,
        x_stencil_order=x_stencil_order,
        u_s=u_s,
        clock_mass=wkb.M,
        v_mean=float(np.mean(v_clock)),
        v_spread=float(np.std(v_clock)),
    )


# ---------------------------------------------------------------------------
# TDSE residual of a trajectory


@dataclass(frozen=True)
class ResidualReport:
    """How far a trajectory is from solving the driven TDSE.

    `residual` is ||(H_S + V_I - U_S - i hbar d/dt) psi~|| / ||psi~||
    with the U_S phase removed from psi~ beforehand; `rho` is the
    neglected-to-retained ratio ||(hbar^2/2Mv^2) d2psi/dt2|| /
    ||hbar dpsi/dt|| on the raw slices.  Endpoint slices are excluded
    from every norm.
    """

    residual: float
    rho: float
    mv2: float
    dt: float
    resampled: bool


def tdse_residual(
    traj: WavefunctionTrajectory,
    system: SystemSpec,
    drive=None,
    mv2: float | None = None,
) -> ResidualReport:
    """Measure the TDSE residual and the correction-term ratio of a trajectory.

    Needs at least 3 slices; non-uniform time samples are resampled by
    cubic interpolation first.  The purely time-dependent part of the
    back-reaction is removed by the phase transformation
    psi~ = psi * exp(+(i/hbar) int Re U_S dt) before the residual
    operator (which retains the -U_S term) is applied; the imaginary
    part of U_S is not used.  The correction ratio rho uses
    M v^2 from the trajectory's clock metadata unless `mv2` is given.

    `drive(x, t)`, when given, is called once with x as a (1, nx) row and
    t as an (nt, 1) column, and must return an array that broadcasts to
    (nt, nx); CouplingDrive does.
    """
    if traj.times.size < 3:
        raise DegenerateInputError("need at least 3 slices for time stencils")
    t = traj.times
    psi = traj.values
    u = traj.u_s if traj.u_s is not None else np.zeros(t.size, dtype=complex)

    diffs = np.diff(t)
    mean_dt = float(np.mean(diffs))
    resampled = bool(np.max(np.abs(diffs - mean_dt)) > 1e-9 * mean_dt)
    if resampled:
        uniform = np.linspace(t[0], t[-1], t.size)
        psi = CubicSpline(t, psi, axis=0)(uniform)
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
    x = traj.x_grid.points
    phase = np.exp((1j / hbar) * cumulative_trapezoid(u.real, t, initial=0.0))
    tpsi = psi * phase[:, None]

    inner = tpsi[1:-1]
    resid = np.asarray(system.v_sys(x), dtype=float)[None, :] * inner
    resid += _apply_kinetic(inner, 1, traj.x_stencil_order, traj.x_grid.spacing,
                            system.m, hbar)
    if drive is not None:
        v_drive = np.asarray(drive(x[None, :], t[:, None]), dtype=float)
        resid += np.broadcast_to(v_drive, tpsi.shape)[1:-1] * inner
    resid -= u.real[1:-1, None] * inner
    resid -= 1j * hbar * central_difference(tpsi, dt, 1)

    wx = traj.x_grid.weights[1:-1]

    def _norm(rows):
        return float(np.sqrt(np.sum(wx * np.abs(rows[:, 1:-1]) ** 2)))

    den = _norm(inner)
    if den == 0.0:
        raise DegenerateInputError("trajectory is zero on the interior slices")
    residual = _norm(resid) / den

    d1 = central_difference(psi, dt, 1)
    d2 = central_difference(psi, dt, 2)
    retained = hbar * _norm(d1)
    correction = (hbar * hbar / (2.0 * mv2)) * _norm(d2)
    if retained == 0.0:
        raise DegenerateInputError("trajectory is time-independent; no retained term")
    return ResidualReport(residual, correction / retained, mv2, dt, resampled)


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
    k * dR so lattice dispersion stays out of the measurement."""

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
    max_phase_per_step: float = param(0.01, POSITIVE)
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
    Returns (spec, fine R grid, pair, v).
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
    pair = solve_directed_state(spec, basis, r_grid, e_total, cfg.incoming,
                                cfg.residual_tol, stride=stride)
    return spec, r_grid, pair, v


@dataclass(frozen=True)
class EmergenceScanConfig(DirectedRunConfig):
    """Standard heavy-clock scan: the directed run repeated at increasing
    clock kinetic energy."""

    kinetic_energies: tuple = param((15.0, 50.0, 150.0, 500.0), array(POSITIVE, 3))


@dataclass(frozen=True)
class QuantumEmergenceRow:
    scan_value: float
    mv2: float
    residual: float
    rho: float
    v_mean: float
    norm_spread: float
    error: str | None = None


@dataclass(frozen=True)
class EmergenceReport:
    rows: tuple
    slope: float
    config: EmergenceScanConfig

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def _scan_point(cfg: EmergenceScanConfig, system: SystemSpec, basis: ChannelBasis,
                e_kin: float) -> QuantumEmergenceRow:
    spec, r_grid, pair, v = directed_run(cfg, basis, e_kin)
    M, hbar, e_total = cfg.clock_mass, cfg.hbar, spec.energy

    # clock factor from the lattice dispersion of the solve grid: the
    # composite channels carry discrete wavenumbers, and dividing by the
    # continuum sqrt(2ME) phase would leave a spurious drift growing
    # with E^2 h^2 that buries the physical correction at the top of
    # the scan
    r_sub = pair.state.grid.r
    p_lat = hbar * _discrete_wavenumber(e_total, r_grid.spacing, M, hbar)
    rel = r_sub.points - r_sub.points[0]
    wkb = WKBState(r_sub, p_lat * rel, np.full(r_sub.n, p_lat ** -0.5),
                   np.full(r_sub.n, p_lat), e_total, M, hbar)
    tmap = TimeMap(r_sub, (M / p_lat) * rel)
    traj = conditional_from_composite(pair, wkb, tmap, spec,
                                      x_stencil_order=basis.stencil_order)
    report = tdse_residual(traj, system, drive=CouplingDrive(spec.v_int, tmap))

    norms = traj.slice_norms()
    spread = float((norms.max() - norms.min()) / norms.mean())
    return QuantumEmergenceRow(e_kin, M * v * v, report.residual, report.rho,
                               float(traj.v_mean), spread)


def emergence_scan(
    config: EmergenceScanConfig | None = None,
    jobs: int = 1,
) -> EmergenceReport:
    """Scan the clock kinetic energy and fit the correction-term exponent.

    For each scan point: solve the directed composite state, divide out
    the WKB clock factor, and measure the conditional TDSE residual and
    the correction ratio rho.  Stage errors are recorded per point and
    the scan continues; the log-log slope of rho vs M v^2 is fitted over
    the successful points; fewer than two raise DegenerateInputError
    listing every point's error.  `jobs` > 1 dispatches scan points to a
    thread pool; row order always follows the config.
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
            return QuantumEmergenceRow(
                e_kin, 2.0 * e_kin, float("nan"), float("nan"),
                float("nan"), float("nan"), f"{type(exc).__name__}: {exc}")

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
    ly = np.log([r.rho for r in good])
    slope = float(np.polyfit(lx, ly, 1)[0])
    return EmergenceReport(tuple(rows), slope, cfg)


# ---------------------------------------------------------------------------
# complex time


@dataclass(eq=False)
class ComplexTimeTrajectory:
    """Wavefunction stepped along a complex time polyline."""

    x_grid: Grid1D
    tau: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=complex)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.tau.size, self.x_grid.n):
            raise GridMismatchError("trajectory shape does not match tau axis")

    def slice_norms(self) -> np.ndarray:
        w = self.x_grid.weights
        return np.sqrt(np.sum(w * np.abs(self.values) ** 2, axis=1))


def propagate_complex_time(
    system: SystemSpec,
    psi0: Field1D,
    tau_path,
    drive=None,
    u_s=None,
    blowup_factor: float = 1e6,
) -> ComplexTimeTrajectory:
    """Crank-Nicolson stepping along a complex tau polyline.

    The stepped equation is (H_S + V_I(tau) + U_S(tau) - i hbar d/dtau)
    psi = 0 with the back-reaction entering with a plus sign (kept as
    the exploratory form prescribes; see the docs for the sign
    discussion).  `tau_path` is a ComplexTimeMap or a complex array.
    Norm is not conserved off the real axis; growth beyond
    `blowup_factor` times the initial norm raises BlowUpError.  A real
    path reproduces propagate_tdse exactly.
    """
    tau = tau_path.values if isinstance(tau_path, ComplexTimeMap) else tau_path
    tau = np.asarray(tau, dtype=complex)
    if tau.size < 2:
        raise DegenerateInputError("need at least 2 tau samples")
    dtaus = np.diff(tau)
    if np.any(dtaus == 0.0):
        raise DegenerateInputError("tau path contains a zero step")
    x = psi0.grid.points
    v_static = np.asarray(system.v_sys(x), dtype=float)

    def v_mid(i):
        tm = 0.5 * (tau[i] + tau[i + 1])
        v = v_static.astype(complex)
        if drive is not None:
            v = v + np.asarray(drive(x, tm))
        if u_s is not None:
            v = v + np.asarray(u_s(tm))
        return v

    vals = _crank_nicolson(psi0.grid, system.m, system.hbar, psi0.values,
                           dtaus, v_mid, max_growth=blowup_factor)
    return ComplexTimeTrajectory(psi0.grid, tau, vals)
