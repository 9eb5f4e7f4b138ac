"""Fixed-energy paths, symplectic integration, clocks and the reduced limit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronolab import (
    Bilinear,
    ClockModel,
    CompositeSpec,
    Constant,
    Coupling,
    CouplingDrive,
    DegenerateInputError,
    ForbiddenRegionError,
    Grid1D,
    Harmonic,
    Linear,
    PathProblem,
    SystemSpec,
    TimeMap,
    TurningPointError,
    WindowedPulse,
    ZeroCoupling,
    clock_momentum,
    clock_time_map,
    compare_composite_reduced,
    constraint_residuals,
    endpoint_momentum_check,
    energy_correction,
    integrate_composite,
    integrate_driven_system,
    minimize_action_path,
    path_action,
    path_momenta,
)
from chronolab import classical
from chronolab.errors import ConvergenceError, StabilityError
from chronolab.scenarios import SCENARIOS, default_config


def _free_problem(energy=2.0, masses=(1.0, 1.0)):
    return PathProblem(
        potential=lambda q: np.zeros(np.asarray(q).shape[:-1]),
        gradient=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        masses=np.array(masses),
        energy=energy,
    )


def _harmonic_problem(energy=2.0, k=1.0, center=(0.6, 0.2), masses=(1.0, 1.0)):
    c = np.asarray(center)
    return PathProblem(
        potential=lambda q: 0.5 * k * np.sum((np.asarray(q) - c) ** 2, axis=-1),
        gradient=lambda q: k * (np.asarray(q, dtype=float) - c),
        masses=np.asarray(masses),
        energy=energy,
    )


# ---------------------------------------------------------------------------
# fixed-energy paths


def test_free_path_is_straight():
    path = minimize_action_path(_free_problem(), [0.0, 0.0], [1.0, 0.6], segments=48)
    # cross-track deviation from the chord
    chord = np.array([1.0, 0.6]) / np.hypot(1.0, 0.6)
    rel = path.nodes - path.nodes[0]
    cross = rel[:, 0] * chord[1] - rel[:, 1] * chord[0]
    assert np.max(np.abs(cross)) < 1e-6


def test_free_path_action_and_momenta():
    e, ln = 2.0, np.hypot(1.0, 0.6)
    path = minimize_action_path(_free_problem(e), [0.0, 0.0], [1.0, 0.6], segments=48)
    assert path_action(path) == pytest.approx(np.sqrt(2 * e) * ln, rel=1e-12)
    p = path_momenta(path)
    # constant momentum along the chord, |p| = sqrt(2 m E)
    np.testing.assert_allclose(np.hypot(p[:, 0], p[:, 1]), np.sqrt(2 * e), rtol=1e-12)
    assert np.max(np.abs(p - p[0])) < 1e-6


def test_constraint_holds_exactly_by_construction():
    path = minimize_action_path(_harmonic_problem(), [0.0, 0.0], [1.0, 0.6], segments=48)
    res = constraint_residuals(path)
    assert np.max(res) < 1e-12 * path.problem.energy


def test_harmonic_path_action_frozen():
    # reference value from a converged run of this minimizer; guards the
    # discretization and the optimizer wiring at once
    path = minimize_action_path(_harmonic_problem(), [0.0, 0.0], [1.0, 0.6], segments=48)
    assert path_action(path) == pytest.approx(2.292814271949325, rel=1e-9)


def test_action_decreases_with_refinement():
    w = [
        path_action(minimize_action_path(_harmonic_problem(), [0.0, 0.0], [1.0, 0.6], segments=s))
        for s in (12, 24, 48)
    ]
    assert w[0] >= w[1] >= w[2]
    # second-order discretization: successive gaps shrink by about 4
    assert (w[0] - w[1]) / (w[1] - w[2]) == pytest.approx(4.0, rel=0.3)


def test_minimizer_rejects_forbidden_seed_and_bad_input(monkeypatch):
    with pytest.raises(ForbiddenRegionError):
        minimize_action_path(_harmonic_problem(energy=0.01), [0.0, 0.0], [1.0, 0.6], segments=64)
    with pytest.raises(DegenerateInputError):
        minimize_action_path(_free_problem(), [0.0, 0.0], [1.0, 0.6], segments=1)
    monkeypatch.setattr(classical, "PATH_MAX_ITER", 2)
    with pytest.raises(ConvergenceError):
        minimize_action_path(_harmonic_problem(), [0.0, 0.0], [1.0, 0.6], segments=64)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("segments", [7, 8, 9])  # m = 6, 7, 8 interior nodes
def test_coloured_hessian_matches_dense_differences(d, segments):
    # anisotropic masses and an off-centre well, so every Hessian block is full
    problem = _harmonic_problem(2.5, 1.7, np.linspace(0.3, -0.2, d), np.linspace(0.8, 2.1, d))
    q_end = np.linspace(0.9, -0.4, d)
    nodes = classical._straight_seed(np.zeros(d), q_end, segments)
    bend = np.sin(np.pi * np.arange(segments + 1) / segments)[:, None]
    nodes += 0.1 * bend * np.linspace(1.0, -0.5, d)

    def gradient(z):  # flat interior coordinates (..., m d), one path per leading index
        full = np.broadcast_to(nodes, (*z.shape[:-1], *nodes.shape)).copy()
        full[..., 1:-1, :] = z.reshape(*z.shape[:-1], -1, d)
        return classical._action_and_gradient(problem, full)[1][..., 1:-1, :].reshape(z.shape)

    z, step = nodes[1:-1].ravel(), 1e-6
    coloured = classical._coloured_hessian(gradient, z, d, step)
    # one central difference per coordinate, column by column
    dense = np.empty_like(coloured)
    for j in range(z.size):
        e = np.zeros(z.size)
        e[j] = step
        dense[:, j] = (gradient(z + e) - gradient(z - e)) / (2.0 * step)
    dense = 0.5 * (dense + dense.T)
    np.testing.assert_allclose(coloured, dense, rtol=0.0, atol=1e-9 * np.max(np.abs(dense)))
    # the neighbour blocks are there and nothing lies outside them
    m = segments - 1
    blocks = np.abs(coloured.reshape(m, d, m, d)).max(axis=(1, 3))
    assert np.all(np.diag(blocks, 1) > 0.0)
    assert np.all(np.triu(blocks, 2) == 0.0)


def test_minimizer_meets_the_gate_where_quasi_newton_stalled():
    # an earlier quasi-Newton minimizer (L-BFGS with restarts) stalled here
    # at a gradient max of 2.2e-3 against a gate of 1.8e-7
    problem = _harmonic_problem(1.9799, 3.0988, [0.2399], [2.0643])
    path = minimize_action_path(problem, [0.0], [-0.8362], segments=24)
    w, g = classical._action_and_gradient(problem, path.nodes)
    assert np.max(np.abs(g[1:-1])) < 1e-7 * w


def test_minimizer_backs_off_the_forbidden_wall(monkeypatch):
    action_and_gradient = classical._action_and_gradient
    walls = []

    def counted(problem, nodes):
        try:
            return action_and_gradient(problem, nodes)
        except ForbiddenRegionError:
            walls.append(nodes.ndim)  # 2 for a trial path, 3 for a stack of Hessian probes
            raise

    monkeypatch.setattr(classical, "_action_and_gradient", counted)
    # damped Newton steps from the straight seed overshoot into E < V here
    problem = _harmonic_problem(1.5532, 2.1454, [0.1976, -0.3574], [1.4474, 0.8396])
    path = minimize_action_path(problem, [0.0, 0.0], [0.8292, 0.4818], segments=30)
    # a trial path crossed E = V, was rejected, and the iteration went on
    assert 2 in walls
    w, g = action_and_gradient(problem, path.nodes)
    assert np.max(np.abs(g[1:-1])) < classical.PATH_GRADIENT_TOL * w

    # the action L-BFGS, trust-region Newton and the damped Newton step
    # all converged to on this problem, whose trials stay clear of E = V
    problem = _harmonic_problem(1.2656, 1.8165, [0.5682, 0.3152, -0.0352],
                               [2.7893, 0.5717, 1.1992])
    path = minimize_action_path(problem, [0.0, 0.0, 0.0], [0.5145, 0.7389, 0.7465], segments=64)
    assert path_action(path) == pytest.approx(1.7462974927629262, rel=1e-10)


def test_minimizer_stops_at_the_wall_without_an_interior_minimum():
    # endpoints too far apart for the energy: the path is pressed against
    # E = V with a growing gradient until the damped step falls below the
    # rounding of the nodes: 97 iterations measured, where trust-exact
    # gave up after 119 in about five times the time
    problem = _harmonic_problem(1.8245, 2.4603, [0.4597, 0.9591, 0.2122],
                                [2.633, 2.5545, 1.9668])
    with pytest.raises(ConvergenceError, match="path minimization stalled") as exc:
        minimize_action_path(problem, [0.0, 0.0, 0.0], [0.0127, -0.1397, 0.2921], segments=50)
    trace = exc.value.trace
    assert trace["iterations"] <= 120
    assert trace["gradient_max"] > classical.PATH_GRADIENT_TOL * trace["action"]


def test_endpoint_probe_second_order():
    prob = _harmonic_problem()
    reports = [
        endpoint_momentum_check(prob, [0.0, 0.0], [1.0, 0.6], segments=24, delta=d)
        for d in (4e-3, 2e-3, 1e-4)
    ]
    errs = [r.probe_error_end for r in reports]
    assert errs[0] < 2e-4
    # halving delta should cut the probe error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)
    # at small delta the probe sits near its delta^2 floor only when every
    # minimization has converged well past the gradient gate
    assert errs[2] < 1e-8


def test_endpoint_gradient_equals_momentum_for_free_motion():
    rep = endpoint_momentum_check(_free_problem(), [0.0, 0.0], [1.0, 0.6], segments=24)
    # no potential: the boundary-segment momentum is the exact gradient
    assert rep.max_diff_end < 1e-6
    assert rep.max_diff_start < 1e-6
    np.testing.assert_allclose(rep.analytic_end, rep.momentum_end, atol=1e-12)


def test_endpoint_momentum_gap_shrinks_with_segments():
    prob = _harmonic_problem()
    reports = [endpoint_momentum_check(prob, [0.0, 0.0], [1.0, 0.6], segments=s) for s in (24, 48)]
    gaps = [np.max(np.abs(r.momentum_end - r.analytic_end)) for r in reports]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.35)


# ---------------------------------------------------------------------------
# symplectic integration


def test_composite_energy_conservation_and_harmonic_motion():
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    traj = integrate_composite(spec, 0.0, 10.0, 0.5, 0.0, span=6.0, steps=500)
    # a scalar launch is one lane
    assert traj.positions.shape == traj.momenta.shape == (501, 1, 2)
    assert traj.energies.shape == (501, 1)
    assert traj.energy_drift < 1e-6
    # uncoupled system: x(t) = x0 cos(w t), R(t) = v t
    w = 2.0
    np.testing.assert_allclose(traj.positions[:, 0, 1], 0.5 * np.cos(w * traj.parameter),
                               atol=5e-6)
    np.testing.assert_allclose(traj.positions[:, 0, 0], 0.2 * traj.parameter, atol=1e-10)


def test_composite_error_scales_fourth_order(monkeypatch):
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    # a loose drift tolerance keeps the integrator from refining on its own
    monkeypatch.setattr(classical, "COMPOSITE_DRIFT_TOL", 1e-3)
    errs = []
    for steps in (100, 200):
        traj = integrate_composite(spec, 0.0, 10.0, 0.5, 0.0, span=6.0, steps=steps)
        errs.append(np.max(np.abs(traj.positions[:, 0, 1] - 0.5 * np.cos(2.0 * traj.parameter))))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)


def _free_clock(grid, v):
    # a clock that runs at speed v: t = R / v, at the rate dt/dR = 1 / v
    return TimeMap(grid, grid.points / v, np.full(grid.n, 1.0 / v))


def _ramped_force_run(t, lam=0.3, v=2.0, k=4.0, x0=0.5):
    # V_I = lam * x * R with R = v t: a linearly ramped force on the
    # oscillator, run as one lane; returns the driven run's x and the
    # exact solution
    grid = Grid1D(0.0, 20.0, 2001)
    drive = CouplingDrive(Bilinear(lam), _free_clock(grid, v))
    traj = integrate_driven_system(SystemSpec(1.0, 1.0, Harmonic(k)), [drive], x0, 0.0,
                                   t[:, None])
    w = np.sqrt(k)
    exact = x0 * np.cos(w * t) + lam * v / (k * w) * np.sin(w * t) - lam * v / k * t
    return traj.positions[:, 0, 0], exact


def test_driven_system_matches_ramped_force_solution():
    x, exact = _ramped_force_run(np.linspace(0.0, 3.0, 6000))
    np.testing.assert_allclose(x, exact, atol=2e-6)


def test_driven_system_error_scales_fourth_order():
    # the force reads R(t) at each stage's own time, inside the step and
    # 0.35 dt outside it; a clock read at any other time breaks the order
    errs = [np.max(np.abs(np.subtract(*_ramped_force_run(np.linspace(0.0, 3.0, steps + 1)))))
            for steps in (100, 200)]
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)


def _same_trajectory(batch, lane, solo):
    # lane `lane` of a batched run against a run of that lane alone
    for name in ("positions", "momenta", "energies"):
        np.testing.assert_array_equal(getattr(batch, name)[:, lane], getattr(solo, name)[:, 0])


def test_driven_lanes_match_solo_runs_and_the_ramped_force_solution():
    # two clocks of different speed carry the same V_I = lam * x * R past
    # two oscillators, each lane on its own time grid
    lam, k = 0.3, 4.0
    grid = Grid1D(0.0, 20.0, 2001)
    speeds, x0s, t_ends = (2.0, 3.0), (0.5, -0.3), (3.0, 2.5)
    drives = [CouplingDrive(Bilinear(lam), _free_clock(grid, v)) for v in speeds]
    system = SystemSpec(1.0, 1.0, Harmonic(k))
    t = np.column_stack([np.linspace(0.0, t_end, 600) for t_end in t_ends])
    batch = integrate_driven_system(system, drives, np.array(x0s), 0.0, t)
    assert batch.positions.shape == (600, 2, 1)
    w = np.sqrt(k)
    for j, (drive, v, x0) in enumerate(zip(drives, speeds, x0s)):
        _same_trajectory(batch, j, integrate_driven_system(system, [drive], x0, 0.0, t[:, [j]]))
        tj = t[:, j]
        exact = x0 * np.cos(w * tj) + lam * v / (k * w) * np.sin(w * tj) - lam * v / k * tj
        np.testing.assert_allclose(batch.positions[:, j, 0], exact, atol=2e-6)


def test_driven_lanes_with_different_pulses_match_solo_runs():
    # lanes share only sys(x) = x: each has its own clock and its own
    # pulse centre, width and strength, so its own profile g(t)
    grid = Grid1D(0.0, 20.0, 2001)
    pulses = [WindowedPulse(0.3, 2.0, 0.5, Linear(1.0)),
              WindowedPulse(-0.8, 3.5, 1.2, Linear(1.0)),
              WindowedPulse(1.5, 1.0, 0.3, Linear(1.0))]
    speeds, x0s = (2.0, 3.0, 1.5), (0.5, -0.3, 0.1)
    drives = [CouplingDrive(c, _free_clock(grid, v)) for c, v in zip(pulses, speeds)]
    system = SystemSpec(1.0, 1.0, Harmonic(4.0))
    t = np.column_stack([np.linspace(0.0, t_end, 400) for t_end in (3.0, 2.5, 2.0)])
    batch = integrate_driven_system(system, drives, np.array(x0s), 0.0, t)
    for j, (drive, x0) in enumerate(zip(drives, x0s)):
        solo = integrate_driven_system(system, [drive], x0, 0.0, t[:, [j]])
        _same_trajectory(batch, j, solo)
        # the pulse acts: the lane leaves the undriven oscillator
        free = x0 * np.cos(2.0 * t[:, j])
        assert np.max(np.abs(solo.positions[:, 0, 0] - free)) > 1e-3


def test_driven_lanes_must_share_one_sys():
    grid = Grid1D(0.0, 20.0, 2001)
    tmap = _free_clock(grid, 2.0)
    drives = [CouplingDrive(Bilinear(0.3), tmap),
              CouplingDrive(Coupling(Linear(1.0), Harmonic(1.0), 0.3), tmap)]
    t = np.column_stack([np.linspace(0.0, 1.0, 11)] * 2)
    with pytest.raises(DegenerateInputError, match="share one sys"):
        integrate_driven_system(SystemSpec(1.0, 1.0, Harmonic(4.0)), drives, 0.5, 0.0, t)


@pytest.mark.parametrize("columns", [None, 2], ids=["1-D", "two-columns"])
def test_driven_run_needs_one_time_column_per_drive(columns):
    # a 1-D time grid is not a lane of one drive: a run is always (n, L)
    drive = CouplingDrive(Bilinear(0.3), _free_clock(Grid1D(0.0, 20.0, 2001), 2.0))
    t = np.linspace(0.0, 1.0, 11)
    if columns:
        t = np.column_stack([t] * columns)
    with pytest.raises(DegenerateInputError, match=r"1 drives need an \(n, 1\) time grid"):
        integrate_driven_system(SystemSpec(1.0, 1.0, Harmonic(4.0)), [drive], 0.5, 0.0, t)


def test_composite_batch_refines_every_lane_together():
    # lane 0 drifts 5.3e-6 at 100 steps and needs 200 for a 1e-6 drift,
    # lane 1 passes at 100 (7.9e-8)
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    x0s = np.array([0.5, 0.05])
    batch = integrate_composite(spec, 0.0, 10.0, x0s, 0.0, span=6.0, steps=100)
    assert batch.parameter.size - 1 == 200
    assert batch.positions.shape == (201, 2, 2)
    assert batch.energy_drift <= 1e-6
    alone = integrate_composite(spec, 0.0, 10.0, x0s[1], 0.0, span=6.0, steps=100)
    assert alone.parameter.size - 1 == 100
    # on the refined grid each lane is the run of that lane alone
    for j, x0 in enumerate(x0s):
        _same_trajectory(batch, j, integrate_composite(spec, 0.0, 10.0, x0, 0.0,
                                                       span=6.0, steps=200))


def test_composite_batch_reports_exhausted_refinement(monkeypatch):
    # 25 -> 50 -> 100 steps, and lane 0 still drifts 5.3e-6 at 100
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    monkeypatch.setattr(classical, "COMPOSITE_MAX_HALVINGS", 2)
    with pytest.raises(StabilityError) as info:
        integrate_composite(spec, 0.0, 10.0, np.array([0.5, 0.05]), 0.0, span=6.0, steps=25)
    assert info.value.suggested_step > 0.0
    assert info.value.suggested_step < 6.0 / 100


def test_overflowing_launch_fails_at_once(monkeypatch):
    # p_R = 1e200 overflows the energy at the launch: no step size helps,
    # so the run raises before its first step, with no suggested step
    verlet, calls = classical._verlet, []

    def counted(*args):
        calls.append(args)
        return verlet(*args)

    monkeypatch.setattr(classical, "_verlet", counted)
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StabilityError) as info:
        integrate_composite(spec, 0.0, 1e200, 0.5, 0.0, span=6.0, steps=100)
    assert len(calls) == 0
    assert info.value.suggested_step is None


def test_finite_launch_that_overflows_is_refined(monkeypatch):
    # omega dt = 2.9 at 1,500 steps over span 4.4 is beyond the step's
    # stability limit: the run overflows from a finite launch energy, and
    # three doublings bring the drift under 1e-2
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(0.0), Harmonic(1e6), Bilinear(0.02))
    monkeypatch.setattr(classical, "COMPOSITE_DRIFT_TOL", 1e-2)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate_composite(spec, 0.0, np.sqrt(2e4), 0.5, 0.0, span=4.4, steps=1500)
    assert traj.parameter.size - 1 == 12000
    assert traj.energy_drift <= 1e-2


# ---------------------------------------------------------------------------
# the clock


def test_clock_momentum_free_and_harmonic():
    grid = Grid1D(0.0, 2.0, 101)
    free = ClockModel(Constant(), 8.0, 4.0, grid)
    np.testing.assert_allclose(clock_momentum(free, grid.points), 8.0)
    held = ClockModel(Harmonic(1.0), 2.0, 9.0, grid)
    np.testing.assert_allclose(
        clock_momentum(held, 1.0), np.sqrt(2 * 2.0 * (9.0 - 0.5)), rtol=1e-14
    )
    with pytest.raises(TurningPointError):
        clock_momentum(held, 100.0)
    with pytest.raises(TurningPointError):
        ClockModel(Harmonic(1.0), 2.0, 0.5, grid)


def test_free_clock_time_is_linear():
    grid = Grid1D(0.0, 4.0, 4001)
    clock = ClockModel(Constant(), 50.0, 2.0, grid)
    tmap = clock_time_map(clock)
    p = np.sqrt(2 * 50.0 * 2.0)
    np.testing.assert_allclose(tmap.times, 50.0 * grid.points / p, rtol=1e-12)
    # the map inverts consistently
    t_probe = np.linspace(*tmap.span, 37)
    np.testing.assert_allclose(tmap.t_of_r(tmap.r_of_t(t_probe)), t_probe, atol=1e-10)


@given(n=st.integers(50, 400), seed=st.integers(0, 2**32 - 1))
def test_time_map_round_trip(n, seed):
    # a smooth, strictly increasing t(R): a drifting clock whose rate wobbles
    # by up to 90% over at most 3 periods, at least 16 points per period;
    # between the nodes the two Hermite read-outs, with the clock's own
    # rate as their slopes, are inverse to within about 1e-5 of the time
    # span there
    rng = np.random.default_rng(seed)
    lo, span = rng.uniform(-5.0, 5.0), rng.uniform(0.1, 10.0)
    grid = Grid1D(lo, lo + span, n)
    rate = rng.uniform(0.1, 10.0)
    wobble = rng.uniform(0.0, 0.9)
    waves = rng.uniform(0.5, 3.0)
    k = 2.0 * np.pi * waves / span
    rel = grid.points - lo
    tmap = TimeMap(grid, rate * (rel + wobble / k * np.sin(k * rel)),
                   rate * (1.0 + wobble * np.cos(k * rel)))
    # at the nodes both interpolants are exact
    np.testing.assert_allclose(tmap.r_of_t(tmap.times), grid.points, rtol=0, atol=1e-12 * span)
    t_probe = np.sort(rng.uniform(*tmap.span, 50))
    t_span = tmap.span[1] - tmap.span[0]
    np.testing.assert_allclose(tmap.t_of_r(tmap.r_of_t(t_probe)), t_probe,
                               rtol=0, atol=1e-3 * t_span)


def test_time_map_validation():
    grid = Grid1D(0.0, 1.0, 11)
    times, rates = grid.points, np.ones(11)
    with pytest.raises(DegenerateInputError):
        TimeMap(grid, np.zeros(11), rates)
    with pytest.raises(DegenerateInputError):
        TimeMap(grid, np.linspace(1.0, 0.0, 11), rates)
    with pytest.raises(DegenerateInputError, match="rate table"):
        TimeMap(grid, times, np.ones(10))
    # increasing, but the last time overflowed: no interpolant either way
    with pytest.raises(DegenerateInputError, match="interpolated"):
        TimeMap(Grid1D(0.0, 1.0, 3), np.array([0.0, 1e308, np.inf]), np.ones(3))
    # a rate that is not finite and positive, or whose inverse overflows,
    # gives no slope for one of the two directions
    for bad in (0.0, -1.0, np.nan, np.inf, 1e-310):
        with pytest.raises(DegenerateInputError, match="interpolated"):
            TimeMap(grid, times, np.where(np.arange(11) == 5, bad, 1.0))


def test_time_map_error_scales_fourth_order():
    # with the clock's own rate as the slopes, doubling the nodes cuts the
    # error of both read-outs 16x; slopes estimated from the table would
    # make them third order, 8x
    rate, wobble, k = 2.0, 0.5, 2.0 * np.pi * 1.5 / 4.0

    def t_exact(r):
        return rate * (r + wobble / k * np.sin(k * r))

    def r_exact(t):  # Newton on t(R) = t; the rate is at least 1
        r = t / rate
        for _ in range(40):
            r = r - (t_exact(r) - t) / (rate * (1.0 + wobble * np.cos(k * r)))
        return r

    r_probe = np.linspace(0.0, 4.0, 20001)
    t_probe = np.linspace(0.0, t_exact(4.0), 20001)
    errs = []
    for n in (101, 201):
        grid = Grid1D(0.0, 4.0, n)
        tmap = TimeMap(grid, t_exact(grid.points),
                       rate * (1.0 + wobble * np.cos(k * grid.points)))
        errs.append([np.max(np.abs(tmap.t_of_r(r_probe) - t_exact(r_probe))),
                     np.max(np.abs(tmap.r_of_t(t_probe) - r_exact(t_probe)))])
    np.testing.assert_allclose(np.divide(*errs), 16.0, rtol=0.2)


def test_energy_correction_formula():
    assert energy_correction(1.0, 200.0, 0.5) == pytest.approx(1.0 - 1.0 / 100.0)
    with pytest.raises(DegenerateInputError):
        energy_correction(1.0, 200.0, 0.0)


# ---------------------------------------------------------------------------
# composite vs reduced


def test_tuned_clock_makes_reduced_run_exact():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    rep = compare_composite_reduced(spec, [80.0], 0.5, 0.0, t_span=3.0, steps=1000,
                                    clock_energy_offset="system")
    # without coupling the tuned clock reproduces composite time exactly;
    # what is left is resampling error of the comparison itself
    assert rep.columns["deviation"][0] < 1e-7


def test_untuned_clock_deviation_shrinks_with_clock_energy():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), Bilinear(0.02))
    rep = compare_composite_reduced(spec, [40.0, 160.0, 640.0], 0.5, 0.0,
                                    t_span=3.0, steps=1000, clock_energy_offset=0.0)
    dev = rep.columns["deviation"]
    assert dev[0] > dev[1] > dev[2]
    assert -1.5 < rep.slope < -0.5
    # the measured neglected/retained ratio tracks the a-priori estimate
    cols = rep.columns
    assert cols["ratio_measured"][-1] == pytest.approx(cols["ratio_estimate"][-1], rel=0.3)


def test_energy_lanes_match_single_energy_runs():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), Bilinear(0.02))
    energies = [40.0, 160.0, 640.0]
    rep = compare_composite_reduced(spec, energies, 0.5, 0.0, t_span=3.0, steps=1000,
                                    clock_energy_offset=0.0)
    solo = [compare_composite_reduced(spec, [e], 0.5, 0.0, t_span=3.0, steps=1000,
                                      clock_energy_offset=0.0).columns
            for e in energies]
    assert list(rep.columns) == list(solo[0])
    for name, col in rep.columns.items():
        assert col.tolist() == [float(s[name][0]) for s in solo], name
    fit = np.polyfit(np.log([s["mv2"][0] for s in solo]),
                     np.log([s["deviation"][0] for s in solo]), 1)
    assert rep.slope == float(fit[0])


def test_default_emergence_deviations_match_a_four_times_finer_run():
    params = default_config("classical-emergence")["parameters"]
    runs = [SCENARIOS["classical-emergence"].run({**params, "steps": steps})["classical_emergence"]
            for steps in (params["steps"], 4 * params["steps"])]
    dev = [np.array([row[t.columns.index("deviation")] for row in t.rows]) for t in runs]
    np.testing.assert_allclose(dev[0], dev[1], rtol=1e-5, atol=0.0)


def test_float_clock_energy_offset_matches_the_named_ones():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), Bilinear(0.02))

    def columns(offset):
        cols = compare_composite_reduced(spec, [40.0, 160.0], 0.5, 0.0, t_span=1.0,
                                         steps=2000, clock_energy_offset=offset).columns
        return {name: col.tolist() for name, col in cols.items()}

    e_sys0 = 0.5 * 4.0 * 0.5**2  # x0 = 0.5 at rest in the k = 4 well
    assert columns(e_sys0) == columns("system")


def test_compare_rejects_exhausted_clock():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    with pytest.raises(DegenerateInputError):
        compare_composite_reduced(spec, [0.4], 0.5, 0.0, t_span=1.0, steps=100,
                                  clock_energy_offset="system")


def test_turning_clock_is_reported():
    # harmonic environment with little clock energy: R turns around mid-run
    spec = CompositeSpec(1.0, 1.0, 1.0, Harmonic(4.0), Harmonic(4.0), ZeroCoupling())
    with pytest.raises(TurningPointError):
        compare_composite_reduced(spec, [0.75], 0.5, 0.0, t_span=8.0, steps=4000,
                                  clock_energy_offset="system")
