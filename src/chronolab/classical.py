"""Classical side of the laboratory.

A closed composite is timeless: trajectories come out of a variational
principle over paths at fixed total energy, and time enters only as a
readout of the heavy clock coordinate.  This module provides

* discrete fixed-energy path minimization and the momenta it induces,
* fourth-order symplectic integration (Yoshida's triple jump of velocity
  Verlet steps) of the composite and of the reduced, driven system,
* the clock model p(R) = sqrt(2 M (E_c - V(R))) and the time map
  t(R) = M * integral dR' / p(R'), read both ways through a cubic
  Hermite interpolant whose slopes are the clock's rate dt/dR = M / p,
* the comparison pipeline that measures how well the reduced, time
  dependent description tracks the timeless composite as the clock
  kinetic energy grows, reading the composite at clock time through the
  same interpolant so that the read-out keeps the step's order.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .core import Coupling, Grid1D, Potential, SystemSpec, _cumulative_trapezoid, _loglog_slope
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
    "path_action",
    "constraint_residuals",
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
    "ClassicalEmergenceReport",
]


# ---------------------------------------------------------------------------
# fixed-energy paths


@dataclass(frozen=True)
class PathProblem:
    """Fixed-energy path problem: potential, its gradient, masses, energy.

    `potential` and `gradient` take an array q of shape (..., d) and
    return shapes (...) and (..., d); each is called once per action
    evaluation, on all segment midpoints at once.  `minimize_action_path`
    also makes one call per Hessian on the midpoints of a stack of 6 d
    paths, so both must be array functions of any leading shape.  The
    kinetic metric is diagonal, a_ij = masses[i] * delta_ij.
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


def _segments(problem: PathProblem, nodes: np.ndarray) -> tuple:
    """(dq, mids, lengths, f) of each segment of a polyline, or of a stack
    of them (nodes (..., N+1, d)): its step, its midpoint, its length
    L = sqrt(dq . A . dq) and the speed factor f at its midpoint.  Raises
    on a zero-length segment."""
    dq = nodes[..., 1:, :] - nodes[..., :-1, :]
    mids = 0.5 * (nodes[..., 1:, :] + nodes[..., :-1, :])
    lengths = np.sqrt(np.einsum("...sd,d,...sd->...s", dq, problem.masses, dq))
    if np.any(lengths == 0.0):
        raise DegenerateInputError("zero-length path segment")
    return dq, mids, lengths, _speed_factor(problem, mids)


def _action_and_gradient(problem: PathProblem, nodes: np.ndarray):
    """Discrete abbreviated action W and its gradient w.r.t. the nodes.

    W = sum_s f(mid_s) * L_s with L_s = sqrt(dq . A . dq) on segment s and
    f evaluated at the segment midpoint.  Nodes (..., N+1, d) give W of
    shape (...) and the gradient (..., N+1, d), one path per leading index.
    """
    a = problem.masses
    dq, mids, lengths, f = _segments(problem, nodes)
    w = np.sum(f * lengths, axis=-1)

    # dW/dq_i collects: endpoint terms f * A dq / L and midpoint terms
    # (1/2) grad f * L, with grad f = -grad V / f.
    gradv = np.asarray(problem.gradient(mids), dtype=float)
    df = -gradv / f[..., None]
    unit = (dq * a) / lengths[..., None]
    g = np.zeros_like(nodes)
    g[..., 1:, :] += f[..., None] * unit + 0.5 * df * lengths[..., None]
    g[..., :-1, :] += -f[..., None] * unit + 0.5 * df * lengths[..., None]
    return w, g


# a minimized path is accepted at an interior gradient max-norm below this times W
PATH_GRADIENT_TOL = 1e-7
# iterations of one path minimization, rejected trial points included
PATH_MAX_ITER = 50000


def _straight_seed(q_start, q_end, segments):
    frac = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return (1.0 - frac) * np.asarray(q_start, dtype=float) + frac * np.asarray(q_end, dtype=float)


def _coloured_hessian(grad, z: np.ndarray, d: int, step: float) -> np.ndarray:
    """Hessian of W over the interior nodes from 3 d central differences of `grad`.

    W couples only neighbouring nodes, so the gradient at interior node i
    depends on nodes i - 1, i, i + 1 alone and the Hessian is block
    tridiagonal.  Perturbing every third node along one coordinate at
    once therefore leaves each gradient row touched by exactly one
    perturbed node, and one pair of gradients fills three blocks per
    perturbed node.  `grad` maps flat interior coordinates z, (..., m d),
    to the flat interior gradient; it is called once, on the stack of
    all 6 d probe points.  The (m d, m d) result is symmetrised.
    """
    m = z.size // d
    colours = min(3, m)
    shifts = np.zeros((colours, d, m, d))
    for colour in range(colours):
        shifts[colour, :, colour::3, :] = step * np.eye(d)[:, None, :]
    shifts = shifts.reshape(colours * d, m * d)
    probes = grad(np.concatenate((z + shifts, z - shifts)))
    # dg[colour, k, i] = d(gradient at node i) / d(node j, coordinate k)
    # for the one perturbed node j of that colour next to i
    dg = ((probes[:colours * d] - probes[colours * d:]) / (2.0 * step)).reshape(colours, d, m, d)
    hess = np.zeros((m, d, m, d))
    nodes = np.arange(m)
    for offset in (-1, 0, 1):
        j = nodes[(nodes + offset >= 0) & (nodes + offset < m)]
        hess[j + offset, :, j, :] = dg[j % 3, :, j + offset, :].transpose(0, 2, 1)
    hess = hess.reshape(m * d, m * d)
    return 0.5 * (hess + hess.T)


@dataclass(frozen=True)
class _NewtonResult:
    x: np.ndarray
    nit: int  # iterations, rejected trials included
    nfev: int  # action evaluations


def _damped_newton(fun, hess, x0: np.ndarray, lam: float) -> _NewtonResult:
    """Levenberg–Marquardt-damped Newton iteration from x0.

    `fun(x)` returns (W, gradient) and `hess(x)` the Hessian; both raise
    ForbiddenRegionError where the action is not defined.  Each iteration
    shifts the Hessian by lam * max|diag H|, tests it for definiteness
    with a Cholesky factorisation and solves for the step.  lam, from
    its given start, grows 4-fold on an indefinite shifted Hessian and on
    a trial that does not lower W or that (or one of its Hessian probes)
    crosses E = V, and falls 8-fold on an accepted step.  It stops where
    `minimize_action_path` says; stopped at the gradient tolerance, it
    takes one unshifted Newton step, kept where H is positive definite,
    the trial allowed and W not higher: that settles the near-flat modes
    the 2-norm barely sees.

    Raises ConvergenceError where W, its gradient (or the gradient's
    2-norm) or its Hessian is not finite at x0 or at an accepted point.
    """
    def checked(w, g, h):
        gnorm = np.linalg.norm(g)
        if not (np.isfinite(w) and np.isfinite(gnorm) and np.all(np.isfinite(h))):
            raise ConvergenceError("path minimization met non-finite values")
        return w, g, gnorm, h

    x = x0
    w, g = fun(x)
    w, g, gnorm, h = checked(w, g, hess(x))
    gtol = 0.1 * PATH_GRADIENT_TOL * abs(w)
    nit, nfev = 0, 1
    while nit < PATH_MAX_ITER and gnorm >= gtol:
        nit += 1
        shifted = h + lam * np.max(np.abs(np.diag(h))) * np.eye(x.size)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lam *= 4.0
            continue
        step = np.linalg.solve(shifted, -g)
        if np.max(np.abs(step)) < np.finfo(float).eps * np.max(np.abs(x)):
            break
        trial = x + step
        nfev += 1
        try:
            w_new, g_new = fun(trial)
            h_new = hess(trial) if w_new < w else None
        except ForbiddenRegionError:
            h_new = None
        if h_new is None:
            lam *= 4.0
            continue
        x = trial
        w, g, gnorm, h = checked(w_new, g_new, h_new)
        lam = max(lam / 8.0, np.finfo(float).eps)
    if gnorm < gtol:
        with contextlib.suppress(np.linalg.LinAlgError, ForbiddenRegionError):
            np.linalg.cholesky(h)
            trial = x + np.linalg.solve(h, -g)
            nfev += 1
            if fun(trial)[0] <= w:
                x = trial
    return _NewtonResult(x, nit, nfev)


# The bench times the minimizer by wrapping this module attribute; the
# ROADMAP item "One timing and health record" removes the name.
sp_minimize = _damped_newton


def minimize_action_path(
    problem: PathProblem,
    q_start,
    q_end,
    segments: int,
    seed_nodes: np.ndarray | None = None,
) -> DiscretePath:
    """Minimize the discrete fixed-energy action over interior nodes.

    Levenberg–Marquardt-damped Newton steps (`_damped_newton`) on the
    analytic action gradient from a straight-line seed, or from
    `seed_nodes`.  The Hessian is the block-tridiagonal one of
    `_coloured_hessian`: 3 d central differences of the gradient with a
    step of cbrt(eps) times the seed's mean segment length, from one
    gradient call on a stack of 6 d probe paths.  It is shifted by
    lam * max|diag H| and factorised dense.  Exact curvature is what
    resolves the near-flat node-sliding modes of the discrete action,
    along which gradient and quasi-Newton iterations stall.

    The damping starts at lam = 1 from the straight seed and at 1e-6 from
    `seed_nodes`, which are taken to lie near the minimum.  A trial point
    outside the allowed region, E - V <= 0 at a segment midpoint of the
    trial path or of one of its Hessian probes, is rejected and the
    damping grows.  PATH_MAX_ITER bounds the iterations, rejected trial
    points and indefinite shifted Hessians included.  The iteration stops
    at a gradient 2-norm of 0.1 * PATH_GRADIENT_TOL times the seed's W, or
    where the damped step falls below the rounding of the nodes; the path
    is accepted when the max-norm of the interior gradient is below
    PATH_GRADIENT_TOL * W.

    Raises ForbiddenRegionError if the seed, or one of its Hessian probes,
    leaves the allowed region, and ConvergenceError if W, its gradient or
    its Hessian is not finite at the seed or an accepted point, or if the
    iteration ends short of the gate, as it does where the endpoints lie
    too far apart for the energy and the path is pressed against E = V;
    that error's trace holds the gradient max, the action and the
    iteration count.
    """
    q_start = np.asarray(q_start, dtype=float)
    q_end = np.asarray(q_end, dtype=float)
    if q_start.shape != q_end.shape or q_start.ndim != 1:
        raise DegenerateInputError("endpoints must be 1D points of equal dimension")
    if segments < 2:
        raise DegenerateInputError("need at least 2 segments")
    nodes = _straight_seed(q_start, q_end, segments) if seed_nodes is None else np.array(seed_nodes, dtype=float)
    d = q_start.size

    def unpack(z: np.ndarray) -> np.ndarray:
        full = np.empty((*z.shape[:-1], segments + 1, d))
        full[..., 0, :] = q_start
        full[..., -1, :] = q_end
        full[..., 1:-1, :] = z.reshape(*z.shape[:-1], segments - 1, d)
        return full

    def action(z: np.ndarray):  # W (...) and the flat interior gradient (..., m d)
        w, g = _action_and_gradient(problem, unpack(z))
        return w, g[..., 1:-1, :].reshape(z.shape)

    step = np.cbrt(np.finfo(float).eps) * np.mean(np.linalg.norm(np.diff(nodes, axis=0), axis=1))

    def hessian(z: np.ndarray) -> np.ndarray:
        return _coloured_hessian(lambda probes: action(probes)[1], z, d, step)

    # heavy damping far from the minimum, light near it (K. Madsen,
    # H. B. Nielsen & O. Tingleff, Methods for Non-Linear Least Squares
    # Problems, 2nd ed., 2004)
    res = sp_minimize(action, hessian, nodes[1:-1].ravel(), 1.0 if seed_nodes is None else 1e-6)
    w, g = _action_and_gradient(problem, unpack(res.x))
    gmax = float(np.max(np.abs(g[1:-1]))) if segments > 2 else 0.0
    if gmax < PATH_GRADIENT_TOL * abs(w):
        return DiscretePath(problem, unpack(res.x))
    raise ConvergenceError(
        f"path minimization stalled at gradient max {gmax:.3e} "
        f"(target {PATH_GRADIENT_TOL * abs(w):.3e}) after {res.nit} iterations",
        trace={"gradient_max": gmax, "action": float(w), "iterations": res.nit},
    )


def path_action(path: DiscretePath) -> float:
    w, _ = _action_and_gradient(path.problem, path.nodes)
    return float(w)


def _momenta_at_midpoints(path: DiscretePath) -> tuple:
    """(p, mids): the momenta of `path_momenta` and the segment midpoints."""
    dq, mids, lengths, f = _segments(path.problem, path.nodes)
    return f[:, None] * (dq * path.problem.masses) / lengths[:, None], mids


def path_momenta(path: DiscretePath) -> np.ndarray:
    """Per-segment momenta p = f (dq.A.dq)^(-1/2) A dq, shape (N, d).

    By construction each segment satisfies the energy constraint
    (1/2) p . A^(-1) . p + V(mid) = E to rounding.
    """
    return _momenta_at_midpoints(path)[0]


def constraint_residuals(path: DiscretePath) -> np.ndarray:
    """|SUM p^2/2m + V(mid) - E| per segment."""
    p, mids = _momenta_at_midpoints(path)
    v = np.asarray(path.problem.potential(mids), dtype=float)
    kin = 0.5 * np.einsum("sd,d->s", p * p, 1.0 / path.problem.masses)
    return np.abs(kin + v - path.problem.energy)


@dataclass(frozen=True)
class EndpointReport:
    """Finite-difference gradient of the minimized action at both endpoints,
    with the minimized base path the probes start from.

    The probe should match the analytic gradient of the discrete action
    to second order in the probe step (envelope theorem: interior nodes are at
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
    path: DiscretePath

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
    segments: int,
    delta: float = 1e-4,
) -> EndpointReport:
    """Probe dW/dq at both endpoints by re-minimizing at displaced endpoints.

    Central differences of the minimized action should reproduce the
    terminal momentum (and minus the initial momentum) to second order in
    `delta`.  Each displaced minimization starts from the base path with
    its ends shifted and converges well past the gradient gate, so the
    probe error is the delta^2 truncation term, not the minimizer's
    tolerance.  The report carries the minimized base path as `path`, so
    a caller that needs it does not minimize the same inputs again.
    """
    q_start = np.asarray(q_start, dtype=float)
    q_end = np.asarray(q_end, dtype=float)
    base = minimize_action_path(problem, q_start, q_end, segments)
    p = path_momenta(base)
    _, g = _action_and_gradient(problem, base.nodes)

    def minimized_w(a, b):
        seed = base.nodes + np.linspace(0.0, 1.0, segments + 1)[:, None] * (b - q_end) \
            + np.linspace(1.0, 0.0, segments + 1)[:, None] * (a - q_start)
        return path_action(minimize_action_path(problem, a, b, segments, seed_nodes=seed))

    d = q_end.shape[0]
    fd_end = np.empty(d)
    fd_start = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = delta
        fd_end[j] = (minimized_w(q_start, q_end + e) - minimized_w(q_start, q_end - e)) / (2 * delta)
        fd_start[j] = (minimized_w(q_start + e, q_end) - minimized_w(q_start - e, q_end)) / (2 * delta)
    return EndpointReport(fd_end, g[-1], p[-1], fd_start, g[0], p[0], base)


# ---------------------------------------------------------------------------
# symplectic integration


@dataclass(eq=False)
class Trajectory:
    """Sampled phase-space history of L lanes over a parameter grid.

    The lane axis follows the sample axis: positions and momenta
    (n, L, d), energies (n, L), parameter (n,) when the lanes share one
    grid and (n, L) when each lane has its own.  One run is one lane.
    """

    parameter: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    energies: np.ndarray

    @property
    def energy_drift(self) -> float:
        """Largest relative energy excursion from the start, over all lanes."""
        e0 = self.energies[0]
        scale = np.maximum(np.abs(e0), 1e-300)
        return float(np.max(np.abs(self.energies - e0) / scale))


# Yoshida's triple jump: one fourth-order step of dt is three velocity
# Verlet steps of w1 dt, w0 dt and w1 dt, with w0 = 1 - 2 w1 < 0
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_DRIFTS = (_W1, _W0, _W1)
_KICKS = (0.5 * _W1, 0.5 * (_W1 + _W0), 0.5 * (_W0 + _W1), 0.5 * _W1)
# the step fractions at which the three drifts end and the force is read
_STAGE_FRACTIONS = np.array([_W1, _W1 + _W0, 1.0])
# a composite run's relative energy drift bound and its step-count doublings
COMPOSITE_DRIFT_TOL = 1e-6
COMPOSITE_MAX_HALVINGS = 3


def _verlet(positions0, momenta0, masses, gradient, times):
    """Fourth-order symplectic step of L lanes stepped together.

    Yoshida's composition of three kick-drift-kick velocity Verlet steps
    of w1 dt, w0 dt and w1 dt, w1 = 1 / (2 - 2^(1/3)), w0 = 1 - 2 w1,
    with the adjacent half kicks merged: three drifts and three force
    evaluations per step.  `positions0` and `momenta0` are (L, d);
    `times` is (n, L), or (n, 1) for lanes on one grid, and each lane
    steps by its own dt = times[i + 1] - times[i].  `gradient(q, j)`
    returns the (L, d) potential gradient, minus the force, at the lane
    states q on stage j: j = 0 is times[0], and j = 1 + 3 i + s is the
    end of drift s of step i, at times[i] + _STAGE_FRACTIONS[s] * dt:
    0.35 dt past times[i + 1] for s = 0, 0.35 dt before times[i] for
    s = 1, and times[i + 1] for s = 2.  Returns positions and momenta
    (n, L, d).
    """
    n = times.shape[0]
    q = np.empty((n,) + positions0.shape)
    p = np.empty_like(q)
    q[0] = positions0
    p[0] = momenta0
    dt = np.diff(times, axis=0)[:, None, :, None]
    kicks = dt * np.array(_KICKS)[:, None, None]  # (n - 1, 4, L, 1)
    drifts = dt * np.array(_DRIFTS)[:, None, None] / masses  # (n - 1, 3, L, d)
    g = gradient(q[0], 0)
    for i in range(n - 1):
        qi, pi, kick, drift = q[i], p[i], kicks[i], drifts[i]
        for s in range(3):
            pi = pi - kick[s] * g
            qi = qi + drift[s] * pi
            g = gradient(qi, 1 + 3 * i + s)
        q[i + 1] = qi
        p[i + 1] = pi - kick[3] * g
    return q, p


def integrate_composite(
    spec,
    r0,
    pr0,
    x0,
    px0,
    span: float,
    steps: int,
) -> Trajectory:
    """Step the closed composite (R, x) over the internal parameter.

    The composite Hamiltonian is p_R^2/2M + p_x^2/2m + V(x, R), stepped
    with the fourth-order symplectic step of `_verlet`.  r0, pr0, x0 and
    px0 broadcast to L launches (scalars give L = 1), integrated as lanes
    of one array on one shared parameter grid: positions and momenta are
    (steps + 1, L, 2), columns (R, x), and energies (steps + 1, L).  The
    step count doubles for the whole batch while any lane's relative
    energy drift exceeds COMPOSITE_DRIFT_TOL or is not finite;
    StabilityError is raised when it still does after
    COMPOSITE_MAX_HALVINGS doublings, and before the first step, with no
    suggested step, when a lane's launch energy is not finite: no step
    size can help a launch that overflows.
    """
    start = np.atleast_2d(np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                         for v in (r0, pr0, x0, px0))), axis=-1))
    q0, p0 = start[:, [0, 2]], start[:, [1, 3]]
    masses = np.array([spec.M, spec.m])

    def energy(q, p):
        return (0.5 * p[..., 0] ** 2 / spec.M + 0.5 * p[..., 1] ** 2 / spec.m
                + spec.total_potential(q[..., 1], q[..., 0]))

    if not np.all(np.isfinite(energy(q0, p0))):
        raise StabilityError("the launch energy is not finite: the run overflows")

    def gradient(q, _j):
        r, x = q[:, 0], q[:, 1]
        g = np.empty_like(q)
        g[:, 0] = spec.v_env.derivative(r) + spec.v_int.d_dr(x, r)
        g[:, 1] = spec.v_sys.derivative(x) + spec.v_int.d_dx(x, r)
        return g

    n = steps
    for _ in range(COMPOSITE_MAX_HALVINGS + 1):
        times = np.linspace(0.0, span, n + 1)
        q, p = _verlet(q0, p0, masses, gradient, times[:, None])
        traj = Trajectory(times, q, p, energy(q, p))
        if traj.energy_drift <= COMPOSITE_DRIFT_TOL:
            return traj
        n *= 2
    raise StabilityError(
        f"energy drift {traj.energy_drift:.3e} > {COMPOSITE_DRIFT_TOL:.1e} "
        f"after {COMPOSITE_MAX_HALVINGS} halvings",
        suggested_step=span / (2 * n),
    )


@dataclass(frozen=True)
class CouplingDrive:
    """Coupling V_I(x, R) = g(R) sys(x) read through a clock map R(t).

    Read along the clock, the drive is a time profile times one fixed
    function of x.  Calling the drive gives the profile
    g(t) = strength * env(R(t)) at array times, with the shape of t;
    `coupling.sys` gives sys(x).  Both quantum propagators, the driven
    classical run and the TDSE residual read it in that product form.
    """

    coupling: Coupling
    timemap: "TimeMap"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(self.coupling.profile(self.timemap.r_of_t(t)), t.shape)


def integrate_driven_system(
    system: SystemSpec,
    drives,
    x0,
    px0,
    t_grid: np.ndarray,
) -> Trajectory:
    """Step the 1D system under V_sys(x) + g(t) sys(x), fourth order (`_verlet`).

    `drives` is a sequence of L CouplingDrives that share one sys(x),
    each with its own profile g(t) (clock map, envelope and strength);
    `t_grid` is (n, L), one time column per lane; x0 and px0 are scalars
    or (L,) arrays.  Positions and momenta are (n, L, 1), energies
    (n, L).  Each lane's profile is tabulated once before stepping, at
    the start and at the three force stages of every step; the first and
    the last step read the clock up to 0.35 dt outside the time grid, on
    the end cubics of the clock map's Hermite read-out.  Each stage
    evaluates sys'(x) on all lanes at once, and the energies are computed
    after the loop from the profile at the grid times, which are every
    third stage.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 2 or times.shape[1] != len(drives):
        raise DegenerateInputError(
            f"{len(drives)} drives need an (n, {len(drives)}) time grid, got {times.shape}")
    sys = drives[0].coupling.sys
    if any(d.coupling.sys != sys for d in drives):
        raise DegenerateInputError("the lanes of a driven run must share one sys(x)")
    stages = times[:-1, None] + _STAGE_FRACTIONS[:, None] * np.diff(times, axis=0)[:, None]
    stages[:, 2] = times[1:]
    stages = np.concatenate([times[:1], stages.reshape(-1, len(drives))])
    g = np.column_stack([d(stages[:, j]) for j, d in enumerate(drives)])
    x0, px0 = (np.broadcast_to(np.asarray(v, dtype=float), (len(drives),))[:, None]
               for v in (x0, px0))

    def gradient(q, j):
        x = q[:, 0]
        return (system.v_sys.derivative(x) + g[j] * sys.derivative(x))[:, None]

    q, p = _verlet(x0, px0, np.array([system.m]), gradient, times)
    x = q[..., 0]
    e = 0.5 * p[..., 0] ** 2 / system.m + system.v_sys(x) + g[::3] * sys(x)
    return Trajectory(times, q, p, e)


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
        self.momentum_table()  # TurningPointError where E_c <= V on the grid

    def momentum_table(self) -> np.ndarray:
        return clock_momentum(self, self.r_grid.points)


def clock_momentum(clock: ClockModel, r):
    """p(R) = sqrt(2 M (E_c - V(R))); turning-point error when E_c <= V."""
    r = np.asarray(r, dtype=float)
    gap = clock.E_c - np.asarray(clock.v_env(r), dtype=float)
    if np.any(gap <= 0.0):
        bad = np.atleast_1d(r)[np.atleast_1d(gap <= 0.0)]
        raise TurningPointError(
            f"E_c - V <= 0 at {bad.size} points starting at R={bad[0]:.6g}", locations=bad[:8]
        )
    return np.sqrt(2.0 * clock.M * gap)


def _hermite(t, y, slopes, t_new):
    """Cubic Hermite interpolant through the samples (t, y) with slopes dy/dt, at t_new.

    Exact at the nodes; beyond the first and the last node it continues
    the end cubic."""
    k = np.clip(np.searchsorted(t, t_new, side="right") - 1, 0, t.size - 2)
    h = t[k + 1] - t[k]
    s = (t_new - t[k]) / h
    u = 1.0 - s
    return (u * u * ((1.0 + 2.0 * s) * y[k] + s * h * slopes[k])
            + s * s * ((3.0 - 2.0 * s) * y[k + 1] - u * h * slopes[k + 1]))


@dataclass(eq=False)
class TimeMap:
    """Strictly increasing map between clock readings R and time t.

    `times` is t at the grid nodes and `rates` the clock's own rate
    dt/dR there.  Both directions are cubic Hermite interpolants
    (`_hermite`) through the table: t(R) with slopes `rates`, R(t) with
    slopes 1 / `rates`.  Both are exact at the nodes and fourth order
    between them; outside the table each continues its end cubic.
    """

    r_grid: Grid1D
    times: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.times.shape != (self.r_grid.n,) or self.rates.shape != (self.r_grid.n,):
            raise DegenerateInputError("time or rate table does not match grid")
        if np.any(np.diff(self.times) <= 0.0):
            raise DegenerateInputError("time map must be strictly increasing")
        with np.errstate(divide="ignore", over="ignore"):
            self._inverse_rates = 1.0 / self.rates
        table = np.concatenate([self.times, self.rates, self._inverse_rates])
        if not (np.all(np.isfinite(table)) and np.all(self.rates > 0.0)):
            raise DegenerateInputError(
                "time map cannot be interpolated both ways: it needs finite times and "
                "finite, positive rates dt/dR with a finite inverse")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def t_of_r(self, r):
        return _hermite(self.r_grid.points, self.times, self.rates, r)

    def r_of_t(self, t):
        return _hermite(self.times, self.r_grid.points, self._inverse_rates, t)


def clock_time_map(clock: ClockModel) -> TimeMap:
    """t(R) = M * cumulative trapezoid integral of dR'/p(R') from the grid
    start, with the rate dt/dR = M / p of the integrand."""
    rate = clock.M / clock.momentum_table()
    return TimeMap(clock.r_grid, _cumulative_trapezoid(rate, clock.r_grid.points), rate)


def energy_correction(e_system: float, M: float, v: float) -> float:
    """First-order corrected system energy E_S (1 - E_S / (2 M v^2))."""
    if M <= 0 or v == 0.0:
        raise DegenerateInputError("need M > 0 and v != 0")
    return e_system * (1.0 - e_system / (2.0 * M * v * v))


# ---------------------------------------------------------------------------
# composite vs reduced comparison


@dataclass(frozen=True, eq=False)
class ClassicalEmergenceReport:
    """The composite-vs-reduced comparison's columns, with the log-log
    slope of the deviation against M v^2 (NaN for a single energy).

    `columns` maps each output column's name to one 1-D array, a cell
    per scan energy: `scan_value`, `mv2`, `deviation`, `neglected_mean`
    (the run average of the quadratic clock-transfer term dp^2/2M, dp =
    composite p_R minus clock-model p), `retained_mean` (that of the
    instantaneous system energy), their ratio `ratio_measured`, and
    `ratio_estimate`, the a-priori E_S/(2 M v^2)."""

    columns: dict
    slope: float


def _composite_lane(spec, q, p, energy, clock_energy, t_span, steps):
    """Clock model and readouts of the composite lane at scan energy `energy`.

    `q` and `p` are the lane's (n, 2) composite history, columns (R, x).
    The system coordinate is re-read at clock time through a cubic
    Hermite interpolant whose slopes dx/dt = (p_x / m) p_clock(R) / p_R
    come from the same samples.  Returns the lane's drive, its time grid
    over the common window, the composite system coordinate on that
    grid, the run averages of the neglected term dp^2/2M and of the
    retained system energy, and the mean clock velocity.
    """
    r_comp = q[:, 0]
    if np.any(p[:, 0] <= 0.0) or np.any(np.diff(r_comp) <= 0.0):
        raise TurningPointError("composite clock turns on this run: p_R <= 0 or R not increasing")
    r_grid = Grid1D(r_comp[0], float(np.max(r_comp)), 4001)
    clock = ClockModel(spec.v_env, spec.M, clock_energy, r_grid)
    tmap = clock_time_map(clock)
    t_max = min(tmap.span[1], t_span)
    t_grid = np.linspace(0.0, t_max, steps + 1)

    # composite system coordinate re-read against clock time
    t_comp = tmap.t_of_r(r_comp)
    if not np.all(np.isfinite(t_comp)):
        raise DegenerateInputError(f"clock time t(R) is not finite at E={energy}")
    p_clock = np.asarray(clock_momentum(clock, r_comp), dtype=float)
    dxdt = p[:, 1] / spec.m * p_clock / p[:, 0]
    x_comp = _hermite(t_comp, q[:, 1], dxdt, t_grid)
    if not np.all(np.isfinite(x_comp)):
        raise DegenerateInputError(f"composite system coordinate is not finite at E={energy}")

    # neglected (dW_S/dR)^2/2M vs retained system energy, averaged
    # over the samples inside the common time window
    mask = t_comp <= t_max
    p_clock = p_clock[mask]
    dp = p[:, 0][mask] - p_clock
    neglected_mean = float(np.mean(dp * dp / (2.0 * spec.M)))
    xs, pxs = q[:, 1][mask], p[:, 1][mask]
    e_s_inst = 0.5 * pxs**2 / spec.m + np.asarray(spec.v_sys(xs), dtype=float) \
        + np.asarray(spec.v_int(xs, r_comp[mask]), dtype=float)
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
    steps: int,
    clock_energy_offset: str | float,
) -> ClassicalEmergenceReport:
    """Composite run vs reduced driven run across a total-energy scan.

    For each scan value E the composite starts with the system at
    (x0, px0) and the clock taking up the remaining energy; it is
    integrated in its internal parameter over `steps` steps (more if
    its energy drifts), its system coordinate re-read against the clock
    time t(R) on `steps` + 1 times, and compared with the reduced system
    driven by V_I(x, R(t)).  The scan values are the L lanes of one
    composite run and of one driven run.

    The clock model behind t(R) carries E minus `clock_energy_offset`:
    "system" subtracts the initial system energy (the tuned clock, which
    makes the reduced description exact when V_I = 0), a float subtracts
    that value; 0.0 is the untuned clock, whose momentum mismatch
    realizes the first-order energy shift E_S^2/(2 M v^2).

    Each scan energy reports the deviation D = max_t |x_comp - x_red|,
    the run averages of the neglected quadratic term dp^2/2M and of the
    retained system energy, their ratio, and the a-priori estimate
    E_S/(2 M v^2).
    """
    total_energies = np.asarray(total_energies, dtype=float)
    if total_energies.size < 1:
        raise DegenerateInputError("empty energy scan")
    e_sys0 = float(0.5 * np.square(px0) / spec.m + spec.v_sys(x0))
    if not np.isfinite(e_sys0):
        raise DegenerateInputError(f"initial system energy is not finite at x0={x0}, px0={px0}")
    offset = e_sys0 if clock_energy_offset == "system" else float(clock_energy_offset)

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

    readouts = [_composite_lane(spec, comp.positions[:, k], comp.momenta[:, k], e_total,
                                e_total - offset, t_span, steps)
                for k, e_total in enumerate(total_energies)]
    del comp  # the lane readouts are all the comparison needs from here on
    drives, t_grid, x_comp, neglected, retained, v_means = zip(*readouts)
    red = integrate_driven_system(spec.system, drives, x0, px0, np.column_stack(t_grid))
    deviation = np.max(np.abs(np.column_stack(x_comp) - red.positions[..., 0]), axis=0)
    neglected, retained, v_means = (np.array(v) for v in (neglected, retained, v_means))
    mv2 = spec.M * (pr0 / spec.M) ** 2
    bad = ~(np.isfinite(deviation) & np.isfinite(mv2) & (mv2 > 0.0))
    if np.any(bad):
        raise DegenerateInputError(
            f"deviation or M v^2 is not finite and positive at E={total_energies[bad][0]}")
    columns = {"scan_value": total_energies, "mv2": mv2, "deviation": deviation,
               "neglected_mean": neglected, "retained_mean": retained,
               "ratio_measured": neglected / retained,
               "ratio_estimate": e_sys0 / (2.0 * spec.M * v_means**2)}
    slope = (_loglog_slope(mv2, np.maximum(deviation, 1e-300)) if mv2.size >= 2
             else float("nan"))
    return ClassicalEmergenceReport(columns, slope)
