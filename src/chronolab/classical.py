"""Classical side of the laboratory.

A closed composite is timeless: trajectories come out of a variational
principle over paths at fixed total energy, and time enters only as a
readout of the heavy clock coordinate.  This module provides

* discrete fixed-energy path minimization and the momenta it induces,
* symplectic integration of the composite and of the reduced, driven
  system,
* the clock model p(R) = sqrt(2 M (E_c - V(R))) and the time map
  t(R) = M * integral dR' / p(R'),
* the comparison pipeline that measures how well the reduced, time
  dependent description tracks the timeless composite as the clock
  kinetic energy grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize as sp_minimize

from .core import Coupling, Grid1D, Potential, SystemSpec
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    ForbiddenRegionError,
    StabilityError,
    TurningPointError,
)

__all__ = [
    "PathProblem",
    "DiscretePath",
    "minimize_action_path",
    "path_momenta",
    "endpoint_momentum_check",
    "EndpointReport",
    "Trajectory",
    "integrate_composite",
    "CouplingDrive",
    "integrate_driven_system",
    "ClockModel",
    "clock_momentum",
    "TimeMap",
    "clock_time_map",
    "energy_correction",
    "compare_composite_reduced",
    "EmergenceRow",
    "ClassicalEmergenceReport",
]


# ---------------------------------------------------------------------------
# fixed-energy paths


@dataclass(frozen=True)
class PathProblem:
    """Fixed-energy path problem: potential, its gradient, masses, energy.

    `potential` and `gradient` take an array q of shape (..., d) and
    return shapes (...) and (..., d); each is called once per action
    evaluation, on all segment midpoints at once.  The kinetic metric is
    diagonal, a_ij = masses[i] * delta_ij; a general symmetric metric
    could be wired in at the few call sites marked below, but only the
    diagonal case is exercised.
    """

    potential: object
    gradient: object
    masses: np.ndarray
    energy: float

    def __post_init__(self):
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        if np.any(self.masses <= 0):
            raise DegenerateInputError("all masses must be > 0")


@dataclass(eq=False)
class DiscretePath:
    """Polyline path with N segments between fixed endpoints."""

    problem: PathProblem
    nodes: np.ndarray  # (N+1, d)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[0] < 2:
            raise DegenerateInputError("path needs at least 2 nodes of shape (N+1, d)")

    @property
    def segments(self) -> int:
        return self.nodes.shape[0] - 1


def _speed_factor(problem: PathProblem, points: np.ndarray) -> np.ndarray:
    """f = sqrt(2 (E - V)) at the given points; errors in forbidden regions."""
    v = np.asarray(problem.potential(points), dtype=float)
    gap = problem.energy - v
    if np.any(gap <= 0.0):
        bad = np.atleast_2d(points)[np.atleast_1d(gap <= 0.0)]
        raise ForbiddenRegionError(
            f"E - V <= 0 at {min(len(bad), 3)} of the evaluated points, e.g. {bad[0]}"
        )
    return np.sqrt(2.0 * gap)


def _action_and_gradient(problem: PathProblem, nodes: np.ndarray):
    """Discrete abbreviated action W and its gradient w.r.t. interior nodes.

    W = sum_s f(mid_s) * L_s with L_s = sqrt(dq . A . dq) on segment s and
    f evaluated at the segment midpoint.
    """
    a = problem.masses
    dq = nodes[1:] - nodes[:-1]
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    lengths = np.sqrt(np.einsum("sd,d,sd->s", dq, a, dq))
    if np.any(lengths == 0.0):
        raise DegenerateInputError("zero-length path segment")
    f = _speed_factor(problem, mids)
    w = float(np.sum(f * lengths))

    # dW/dq_i collects: endpoint terms f * A dq / L and midpoint terms
    # (1/2) grad f * L, with grad f = -grad V / f.
    gradv = np.asarray(problem.gradient(mids), dtype=float)
    df = -gradv / f[:, None]
    unit = (dq * a) / lengths[:, None]
    g = np.zeros_like(nodes)
    g[1:] += f[:, None] * unit + 0.5 * df * lengths[:, None]
    g[:-1] += -f[:, None] * unit + 0.5 * df * lengths[:, None]
    return w, g


def _straight_seed(q_start, q_end, segments):
    frac = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return (1.0 - frac) * np.asarray(q_start, dtype=float) + frac * np.asarray(q_end, dtype=float)


def minimize_action_path(
    problem: PathProblem,
    q_start,
    q_end,
    segments: int = 64,
    tol_rel: float = 1e-7,
    max_iter: int = 50000,
    seed_nodes: np.ndarray | None = None,
) -> DiscretePath:
    """Minimize the discrete fixed-energy action over interior nodes.

    Quasi-Newton (L-BFGS) driver on the analytic action gradient from a
    straight-line seed, accepted when the max-norm of the interior
    gradient drops below tol_rel * W.  The near-flat node-sliding modes
    of the discrete action make curvature information essential here;
    plain gradient descent crawls.

    Raises ForbiddenRegionError if the seed leaves the allowed region
    and ConvergenceError if the iteration budget is exhausted.
    """
    q_start = np.asarray(q_start, dtype=float)
    q_end = np.asarray(q_end, dtype=float)
    if q_start.shape != q_end.shape or q_start.ndim != 1:
        raise DegenerateInputError("endpoints must be 1D points of equal dimension")
    if segments < 2:
        raise DegenerateInputError("need at least 2 segments")
    nodes = _straight_seed(q_start, q_end, segments) if seed_nodes is None else np.array(seed_nodes, dtype=float)
    d = q_start.size

    # the seed itself must be classically allowed
    w0, _ = _action_and_gradient(problem, nodes)

    def unpack(z: np.ndarray) -> np.ndarray:
        full = np.empty((segments + 1, d))
        full[0] = q_start
        full[-1] = q_end
        full[1:-1] = z.reshape(segments - 1, d)
        return full

    def objective(z: np.ndarray):
        # forbidden-region trials look like a huge flat wall, which the
        # line search backs away from
        try:
            w, g = _action_and_gradient(problem, unpack(z))
        except ForbiddenRegionError:
            return 1e16, np.zeros_like(z)
        return w, g[1:-1].ravel()

    z = nodes[1:-1].ravel().copy()
    budget = max_iter
    for _ in range(3):
        res = sp_minimize(objective, z, jac=True, method="L-BFGS-B",
                          options={"maxiter": budget, "ftol": 1e-18,
                                   "gtol": 0.1 * tol_rel * abs(w0)})
        z = res.x
        budget -= int(res.nit)
        w, g = _action_and_gradient(problem, unpack(z))
        gmax = float(np.max(np.abs(g[1:-1]))) if segments > 2 else 0.0
        if gmax < tol_rel * abs(w):
            return DiscretePath(problem, unpack(z))
        if budget <= 0:
            break
    raise ConvergenceError(
        f"path minimization stalled at gradient max {gmax:.3e} "
        f"(target {tol_rel * abs(w):.3e})",
        trace={"gradient_max": gmax, "action": w},
    )


def path_action(path: DiscretePath) -> float:
    w, _ = _action_and_gradient(path.problem, path.nodes)
    return w


def path_momenta(path: DiscretePath) -> np.ndarray:
    """Per-segment momenta p = f (dq.A.dq)^(-1/2) A dq, shape (N, d).

    By construction each segment satisfies the energy constraint
    (1/2) p . A^(-1) . p + V(mid) = E to rounding.
    """
    problem = path.problem
    a = problem.masses
    dq = path.nodes[1:] - path.nodes[:-1]
    mids = 0.5 * (path.nodes[1:] + path.nodes[:-1])
    lengths = np.sqrt(np.einsum("sd,d,sd->s", dq, a, dq))
    if np.any(lengths == 0.0):
        raise DegenerateInputError("zero-length path segment")
    f = _speed_factor(problem, mids)
    return f[:, None] * (dq * a) / lengths[:, None]


def constraint_residuals(path: DiscretePath) -> np.ndarray:
    """|SUM p^2/2m + V(mid) - E| per segment."""
    p = path_momenta(path)
    mids = 0.5 * (path.nodes[1:] + path.nodes[:-1])
    v = np.asarray(path.problem.potential(mids), dtype=float)
    kin = 0.5 * np.einsum("sd,d->s", p * p, 1.0 / path.problem.masses)
    return np.abs(kin + v - path.problem.energy)


@dataclass(frozen=True)
class EndpointReport:
    """Finite-difference gradient of the minimized action at both endpoints.

    The probe should match the analytic gradient of the discrete action
    to second order in `delta` (envelope theorem: interior nodes are at
    a minimum).  The boundary-segment momentum differs from the analytic
    gradient by the midpoint-potential term of the outermost segment,
    which shrinks linearly with the segment length; in flat potential
    regions the two coincide.
    """

    fd_grad_end: np.ndarray
    analytic_end: np.ndarray
    momentum_end: np.ndarray
    fd_grad_start: np.ndarray
    analytic_start: np.ndarray
    momentum_start: np.ndarray
    delta: float

    @property
    def probe_error_end(self) -> float:
        return float(np.max(np.abs(self.fd_grad_end - self.analytic_end)))

    @property
    def probe_error_start(self) -> float:
        return float(np.max(np.abs(self.fd_grad_start - self.analytic_start)))

    @property
    def max_diff_end(self) -> float:
        return float(np.max(np.abs(self.fd_grad_end - self.momentum_end)))

    @property
    def max_diff_start(self) -> float:
        return float(np.max(np.abs(self.fd_grad_start + self.momentum_start)))


def endpoint_momentum_check(
    problem: PathProblem,
    q_start,
    q_end,
    segments: int = 64,
    delta: float = 1e-4,
    **minimize_kwargs,
) -> EndpointReport:
    """Probe dW/dq at both endpoints by re-minimizing at displaced endpoints.

    Central differences of the minimized action should reproduce the
    terminal momentum (and minus the initial momentum) to second order in
    `delta`.
    """
    q_start = np.asarray(q_start, dtype=float)
    q_end = np.asarray(q_end, dtype=float)
    base = minimize_action_path(problem, q_start, q_end, segments, **minimize_kwargs)
    p = path_momenta(base)
    _, g = _action_and_gradient(problem, base.nodes)

    def minimized_w(a, b):
        seed = base.nodes + np.linspace(0.0, 1.0, segments + 1)[:, None] * (b - q_end) \
            + np.linspace(1.0, 0.0, segments + 1)[:, None] * (a - q_start)
        return path_action(minimize_action_path(problem, a, b, segments,
                                                seed_nodes=seed, **minimize_kwargs))

    d = q_end.shape[0]
    fd_end = np.empty(d)
    fd_start = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = delta
        fd_end[j] = (minimized_w(q_start, q_end + e) - minimized_w(q_start, q_end - e)) / (2 * delta)
        fd_start[j] = (minimized_w(q_start + e, q_end) - minimized_w(q_start - e, q_end)) / (2 * delta)
    return EndpointReport(fd_end, g[-1], p[-1], fd_start, g[0], p[0], delta)


# ---------------------------------------------------------------------------
# symplectic integration


@dataclass(eq=False)
class Trajectory:
    """Sampled phase-space history over a parameter grid.

    A single run has parameter (n,), positions and momenta (n, d), action
    and energies (n,).  A run of L lanes puts the lane axis after the
    sample axis: positions and momenta (n, L, d), action and energies
    (n, L), parameter (n,) when the lanes share one grid and (n, L) when
    each lane has its own.
    """

    parameter: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    action: np.ndarray  # accumulated integral of p . dq
    energies: np.ndarray

    @property
    def energy_drift(self) -> float:
        """Largest relative energy excursion from the start, over all lanes."""
        e0 = self.energies[0]
        scale = np.maximum(np.abs(e0), 1e-300)
        return float(np.max(np.abs(self.energies - e0) / scale))


def _verlet(positions0, momenta0, masses, force, times):
    """Velocity Verlet of L lanes stepped together.

    `positions0` and `momenta0` are (L, d); `times` is (n, L), or (n, 1)
    for lanes on one grid, and each lane steps by its own
    dt = times[i + 1] - times[i].  `force(q, i)` returns the (L, d) force
    at the lane states q on grid row i.  Returns positions and momenta
    (n, L, d) and the accumulated action (n, L), the trapezoid of p . dq.
    """
    n = times.shape[0]
    q = np.empty((n,) + positions0.shape)
    p = np.empty_like(q)
    q[0] = positions0
    p[0] = momenta0
    dt = np.diff(times, axis=0)[:, :, None]
    half_dt = 0.5 * dt
    inv_m = 1.0 / masses
    f = force(q[0], 0)
    for i in range(n - 1):
        p_half = p[i] + half_dt[i] * f
        q[i + 1] = q[i] + dt[i] * p_half * inv_m
        f = force(q[i + 1], i + 1)
        p[i + 1] = p_half + half_dt[i] * f
    # the action is formed in place after the step arrays are freed, so
    # the peak holds two temporaries of the trajectory's size
    del dt, half_dt
    p_mid = p[:-1] + p[1:]
    p_mid *= 0.5
    p_mid *= np.diff(q, axis=0)
    w = np.zeros(q.shape[:2])
    np.cumsum(p_mid.sum(axis=-1), axis=0, out=w[1:])
    return q, p, w


def integrate_composite(
    spec,
    r0,
    pr0,
    x0,
    px0,
    span: float,
    steps: int,
    drift_tol: float = 1e-6,
    max_halvings: int = 3,
) -> Trajectory:
    """Leapfrog the closed composite (R, x) over the internal parameter.

    The composite Hamiltonian is p_R^2/2M + p_x^2/2m + V(x, R).  With
    scalar initial data the trajectory has positions and momenta
    (steps + 1, 2), columns (R, x).  When any of r0, pr0, x0, px0 is an
    (L,) array, the L initial states are integrated as lanes of one array
    on one shared parameter grid, and positions and momenta are
    (steps + 1, L, 2).  The step count doubles for the whole batch while
    any lane's relative energy drift exceeds `drift_tol`; StabilityError
    is raised when it still does after `max_halvings` doublings.
    """
    start = np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                           for v in (r0, pr0, x0, px0))), axis=-1)
    lanes = start.ndim == 2
    start = np.atleast_2d(start)
    masses = np.array([spec.M, spec.m])

    def force(q, _i):
        r, x = q[:, 0], q[:, 1]
        f = np.empty_like(q)
        f[:, 0] = -(spec.v_env.derivative(r) + spec.v_int.d_dr(x, r))
        f[:, 1] = -(spec.v_sys.derivative(x) + spec.v_int.d_dx(x, r))
        return f

    n = steps
    for _ in range(max_halvings + 1):
        times = np.linspace(0.0, span, n + 1)
        q, p, w = _verlet(start[:, [0, 2]], start[:, [1, 3]], masses, force, times[:, None])
        r, x = q[..., 0], q[..., 1]
        e = (0.5 * p[..., 0] ** 2 / spec.M + 0.5 * p[..., 1] ** 2 / spec.m
             + spec.total_potential(x, r))
        traj = Trajectory(times, q, p, w, e) if lanes else Trajectory(
            times, q[:, 0], p[:, 0], w[:, 0], e[:, 0])
        if traj.energy_drift <= drift_tol:
            return traj
        n *= 2
    raise StabilityError(
        f"energy drift {traj.energy_drift:.3e} > {drift_tol:.1e} after {max_halvings} halvings",
        suggested_step=span / (2 * n),
    )


@dataclass(frozen=True)
class CouplingDrive:
    """Coupling V_I(x, R) read through a clock map R(t)."""

    coupling: Coupling
    timemap: "TimeMap"

    def __call__(self, x, t):
        return self.coupling(x, self.timemap.r_of_t(t))


def integrate_driven_system(
    system: SystemSpec,
    drive: CouplingDrive | list[CouplingDrive],
    x0,
    px0,
    t_grid: np.ndarray,
) -> Trajectory:
    """Leapfrog the 1D system under V_sys(x) + V_I(x, R(t)).

    `drive` is one CouplingDrive with an (n,) `t_grid`, giving positions
    and momenta (n, 1).  For L lanes it is a sequence of L CouplingDrives
    that share one coupling, each with its own clock map, `t_grid` is
    (n, L) with one time column per lane, x0 and px0 are scalars or (L,)
    arrays, and positions and momenta are (n, L, 1).  R(t) is tabulated
    once per lane before stepping; each step evaluates the coupling's
    x-derivative on all lanes at once, and the energies are computed
    after the loop with one drive call per lane.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    lanes = t_grid.ndim == 2
    drives = list(drive) if lanes else [drive]
    times = t_grid if lanes else t_grid[:, None]
    if times.shape[1] != len(drives):
        raise DegenerateInputError(f"{len(drives)} drives for {times.shape[1]} time columns")
    coupling = drives[0].coupling
    if any(d.coupling != coupling for d in drives):
        raise DegenerateInputError("the lanes of a driven run must share one coupling")
    r = np.column_stack([d.timemap.r_of_t(times[:, j]) for j, d in enumerate(drives)])
    x0, px0 = (np.broadcast_to(np.asarray(v, dtype=float), (len(drives),))[:, None]
               for v in (x0, px0))

    def force(q, i):
        x = q[:, 0]
        return (-system.v_sys.derivative(x) - coupling.d_dx(x, r[i]))[:, None]

    q, p, w = _verlet(x0, px0, np.array([system.m]), force, times)
    x = q[..., 0]
    e = 0.5 * p[..., 0] ** 2 / system.m + system.v_sys(x)
    e = e + np.column_stack([d(x[:, j], times[:, j]) for j, d in enumerate(drives)])
    if lanes:
        return Trajectory(t_grid, q, p, w, e)
    return Trajectory(t_grid, q[:, 0], p[:, 0], w[:, 0], e[:, 0])


# ---------------------------------------------------------------------------
# the clock


@dataclass(frozen=True)
class ClockModel:
    """Heavy coordinate treated as a clock on one monotone branch.

    Requires E_c > V(R) across the grid: the branch must stay away from
    turning points.
    """

    v_env: Potential
    M: float
    E_c: float
    r_grid: Grid1D

    def __post_init__(self):
        if self.M <= 0:
            raise DegenerateInputError(f"clock mass must be > 0, got {self.M}")
        gap = self.E_c - np.asarray(self.v_env(self.r_grid.points), dtype=float)
        if np.any(gap <= 0.0):
            bad = self.r_grid.points[gap <= 0.0]
            raise TurningPointError(
                f"E_c - V <= 0 at {bad.size} grid points starting at R={bad[0]:.6g}",
                locations=bad[:8],
            )

    def momentum_table(self) -> np.ndarray:
        return np.sqrt(2.0 * self.M * (self.E_c - np.asarray(self.v_env(self.r_grid.points), dtype=float)))


def clock_momentum(clock: ClockModel, r):
    """p(R) = sqrt(2 M (E_c - V(R))); turning-point error when E_c <= V."""
    r = np.asarray(r, dtype=float)
    gap = clock.E_c - np.asarray(clock.v_env(r), dtype=float)
    if np.any(gap <= 0.0):
        bad = np.atleast_1d(r)[np.atleast_1d(gap <= 0.0)]
        raise TurningPointError(
            f"clock momentum undefined at R={bad[0]:.6g} (E_c <= V)", locations=bad[:8]
        )
    return np.sqrt(2.0 * clock.M * gap)


@dataclass(eq=False)
class TimeMap:
    """Strictly increasing map between clock readings R and time t."""

    r_grid: Grid1D
    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.shape != (self.r_grid.n,):
            raise DegenerateInputError("time table does not match grid")
        if np.any(np.diff(self.times) <= 0.0):
            raise DegenerateInputError("time map must be strictly increasing")
        self._t_of_r = PchipInterpolator(self.r_grid.points, self.times)
        self._r_of_t = PchipInterpolator(self.times, self.r_grid.points)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def t_of_r(self, r):
        return self._t_of_r(r)

    def r_of_t(self, t):
        return self._r_of_t(t)


def clock_time_map(clock: ClockModel) -> TimeMap:
    """t(R) = M * cumulative integral of dR'/p(R') from the grid start.

    Also usable as the abbreviated clock action via `clock_action`.
    """
    p = clock.momentum_table()
    t = cumulative_trapezoid(clock.M / p, clock.r_grid.points, initial=0.0)
    return TimeMap(clock.r_grid, t)


def clock_action(clock: ClockModel) -> np.ndarray:
    """W(R) = cumulative integral of p dR' from the grid start."""
    return cumulative_trapezoid(clock.momentum_table(), clock.r_grid.points, initial=0.0)


def energy_correction(e_system: float, M: float, v: float) -> float:
    """First-order corrected system energy E_S (1 - E_S / (2 M v^2))."""
    if M <= 0 or v == 0.0:
        raise DegenerateInputError("need M > 0 and v != 0")
    return e_system * (1.0 - e_system / (2.0 * M * v * v))


# ---------------------------------------------------------------------------
# composite vs reduced comparison


@dataclass(frozen=True)
class EmergenceRow:
    """One scan point of the composite-vs-reduced comparison.

    `neglected_mean` is the run average of the quadratic clock-transfer
    term dp^2/2M (dp = composite p_R minus clock-model p); the retained
    term is the instantaneous system energy.  `ratio_estimate` is the
    a-priori E_S/(2 M v^2)."""

    scan_value: float
    mv2: float
    deviation: float
    neglected_mean: float
    retained_mean: float
    ratio_measured: float
    ratio_estimate: float


@dataclass(frozen=True)
class ClassicalEmergenceReport:
    rows: tuple
    slope: float

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def _loglog_slope(x, y):
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    coeffs = np.polyfit(x, y, 1)
    return float(coeffs[0])


def _composite_lane(spec, q, p, clock_energy, t_span, steps):
    """Clock model and readouts of one composite lane.

    `q` and `p` are the lane's (n, 2) composite history, columns (R, x).
    Returns the lane's drive, its time grid over the common window, the
    composite system coordinate on that grid, the run averages of the
    neglected term dp^2/2M and of the retained system energy, and the
    mean clock velocity.
    """
    r_comp = q[:, 0]
    r_hi = float(np.max(r_comp))
    r_grid = Grid1D(r_comp[0], r_hi, 4001)
    clock = ClockModel(spec.v_env, spec.M, clock_energy, r_grid)
    tmap = clock_time_map(clock)
    t_max = min(tmap.span[1], float(tmap.t_of_r(r_hi)), t_span)
    t_grid = np.linspace(0.0, t_max, steps + 1)

    # composite system coordinate re-read against clock time
    if np.any(np.diff(r_comp) <= 0.0):
        raise TurningPointError("composite clock coordinate is not monotone on this run")
    t_comp = np.asarray(tmap.t_of_r(np.clip(r_comp, r_grid.lo, r_grid.hi)), dtype=float)
    x_comp = np.interp(t_grid, t_comp, q[:, 1])

    # neglected (dW_S/dR)^2/2M vs retained system energy, averaged
    # over the samples inside the common time window
    mask = t_comp <= t_max
    p_r = p[:, 0][mask]
    r_m = np.clip(r_comp[mask], r_grid.lo, r_grid.hi)
    p_clock = np.asarray(clock_momentum(clock, r_m), dtype=float)
    dp = p_r - p_clock
    neglected_mean = float(np.mean(dp * dp / (2.0 * spec.M)))
    xs, pxs = q[:, 1][mask], p[:, 1][mask]
    e_s_inst = 0.5 * pxs**2 / spec.m + np.asarray(spec.v_sys(xs), dtype=float) \
        + np.asarray(spec.v_int(xs, r_m), dtype=float)
    retained_mean = float(np.mean(np.abs(e_s_inst)))
    if retained_mean == 0.0:
        raise DegenerateInputError("retained system energy averages to zero")
    v_mean = float(np.mean(p_clock) / spec.M)
    return (CouplingDrive(spec.v_int, tmap), t_grid, x_comp, neglected_mean, retained_mean,
            v_mean)


def compare_composite_reduced(
    spec,
    total_energies,
    x0: float,
    px0: float,
    t_span: float,
    steps: int = 20000,
    clock_energy_offset: str | float = "system",
) -> ClassicalEmergenceReport:
    """Composite run vs reduced driven run across a total-energy scan.

    For each scan value E the composite starts with the system at
    (x0, px0) and the clock taking up the remaining energy; it is
    integrated in its internal parameter, its system coordinate re-read
    against the clock time t(R), and compared with the reduced system
    driven by V_I(x, R(t)).  Every scan value is one lane of a single
    composite run and of a single driven run.

    The clock model behind t(R) carries E minus `clock_energy_offset`:
    "system" subtracts the initial system energy (the tuned clock, which
    makes the reduced description exact when V_I = 0), "none" subtracts
    nothing (the untuned clock, whose momentum mismatch realizes the
    first-order energy shift E_S^2/(2 M v^2)), a float subtracts that
    value.

    Each row reports the deviation D = max_t |x_comp - x_red|, the run
    averages of the neglected quadratic term dp^2/2M and of the retained
    system energy, their ratio, and the a-priori estimate E_S/(2 M v^2).
    """
    total_energies = np.asarray(total_energies, dtype=float)
    if total_energies.size < 1:
        raise DegenerateInputError("empty energy scan")
    e_sys0 = float(0.5 * px0**2 / spec.m + spec.v_sys(x0))
    if clock_energy_offset == "system":
        offset = e_sys0
    elif clock_energy_offset == "none":
        offset = 0.0
    else:
        offset = float(clock_energy_offset)

    # composite launch: clock takes whatever the system leaves over
    r0 = 0.0
    ke_clock = total_energies - e_sys0 - float(spec.v_env(r0)) - float(spec.v_int(x0, r0))
    if np.any(ke_clock <= 0.0):
        raise DegenerateInputError(
            f"no clock kinetic energy left at E={total_energies[ke_clock <= 0.0][0]} "
            f"(system holds {e_sys0})"
        )
    pr0 = np.sqrt(2.0 * spec.M * ke_clock)
    span = t_span * 1.1  # internal-parameter span; clock covers >= t_span
    comp = integrate_composite(spec, r0, pr0, x0, px0, span, steps)

    lanes = [_composite_lane(spec, comp.positions[:, k], comp.momenta[:, k], e_total - offset,
                             t_span, steps)
             for k, e_total in enumerate(total_energies)]
    del comp  # the lane readouts are all the comparison needs from here on
    drives, t_grid, x_comp, neglected, retained, v_means = zip(*lanes)
    red = integrate_driven_system(spec.system, drives, x0, px0, np.column_stack(t_grid))
    deviation = np.max(np.abs(np.column_stack(x_comp) - red.positions[..., 0]), axis=0)

    rows = []
    for e_total, p_r0, dev, neg, ret, v_mean in zip(total_energies, pr0, deviation,
                                                     neglected, retained, v_means):
        v0 = float(p_r0) / spec.M
        rows.append(EmergenceRow(float(e_total), spec.M * v0**2, float(dev), neg, ret,
                                 neg / ret, e_sys0 / (2.0 * spec.M * v_mean**2)))

    slope = (
        _loglog_slope([r.mv2 for r in rows], [max(r.deviation, 1e-300) for r in rows])
        if len(rows) >= 2
        else float("nan")
    )
    return ClassicalEmergenceReport(tuple(rows), slope)
