"""Fixed-energy paths, symplectic integration, clocks and the reduced limit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from chronolab import (
    Bilinear,
    ClockModel,
    CompositeSpec,
    Constant,
    CouplingDrive,
    DegenerateInputError,
    ForbiddenRegionError,
    Grid1D,
    Harmonic,
    PathProblem,
    SystemSpec,
    TimeMap,
    TurningPointError,
    ZeroCoupling,
    clock_action,
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
from chronolab.errors import ConvergenceError, StabilityError


def _free_problem(energy=2.0, masses=(1.0, 1.0)):
    return PathProblem(
        potential=lambda q: np.zeros(np.asarray(q).shape[:-1]),
        gradient=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        masses=np.array(masses),
        energy=energy,
    )


def _harmonic_problem(energy=2.0, k=1.0, center=(0.6, 0.2)):
    c = np.asarray(center)
    return PathProblem(
        potential=lambda q: 0.5 * k * np.sum((np.asarray(q) - c) ** 2, axis=-1),
        gradient=lambda q: k * (np.asarray(q, dtype=float) - c),
        masses=np.array([1.0, 1.0]),
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


def test_minimizer_rejects_forbidden_seed_and_bad_input():
    with pytest.raises(ForbiddenRegionError):
        minimize_action_path(_harmonic_problem(energy=0.01), [0.0, 0.0], [1.0, 0.6])
    with pytest.raises(DegenerateInputError):
        minimize_action_path(_free_problem(), [0.0, 0.0], [1.0, 0.6], segments=1)
    with pytest.raises(ConvergenceError):
        minimize_action_path(_harmonic_problem(), [0.0, 0.0], [1.0, 0.6], max_iter=2)


def test_endpoint_probe_second_order():
    prob = _harmonic_problem()
    reports = [
        endpoint_momentum_check(prob, [0.0, 0.0], [1.0, 0.6], segments=24, delta=d)
        for d in (4e-3, 2e-3)
    ]
    errs = [r.probe_error_end for r in reports]
    assert errs[0] < 2e-4
    # halving delta should cut the probe error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)


def test_endpoint_gradient_equals_momentum_for_free_motion():
    rep = endpoint_momentum_check(_free_problem(), [0.0, 0.0], [1.0, 0.6], segments=24)
    # no potential: the boundary-segment momentum is the exact gradient
    assert rep.max_diff_end < 1e-6
    assert rep.max_diff_start < 1e-6
    np.testing.assert_allclose(rep.analytic_end, rep.momentum_end, atol=1e-12)


def test_endpoint_momentum_gap_shrinks_with_segments():
    prob = _harmonic_problem()
    gaps = [
        np.max(np.abs(endpoint_momentum_check(prob, [0.0, 0.0], [1.0, 0.6], segments=s).momentum_end
                      - endpoint_momentum_check(prob, [0.0, 0.0], [1.0, 0.6], segments=s).analytic_end))
        for s in (24, 48)
    ]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.35)


# ---------------------------------------------------------------------------
# symplectic integration


def test_composite_energy_conservation_and_harmonic_motion():
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    traj = integrate_composite(spec, 0.0, 10.0, 0.5, 0.0, span=6.0, steps=8000)
    assert traj.energy_drift < 1e-6
    # uncoupled system: x(t) = x0 cos(w t), R(t) = v t
    w = 2.0
    np.testing.assert_allclose(traj.positions[:, 1], 0.5 * np.cos(w * traj.parameter), atol=5e-6)
    np.testing.assert_allclose(traj.positions[:, 0], 0.2 * traj.parameter, atol=1e-10)


def test_verlet_error_scales_second_order():
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    errs = []
    for steps in (1000, 2000):
        # loose drift_tol keeps the integrator from refining on its own
        traj = integrate_composite(spec, 0.0, 10.0, 0.5, 0.0, span=6.0, steps=steps,
                                   drift_tol=1e-3)
        errs.append(np.max(np.abs(traj.positions[:, 1] - 0.5 * np.cos(2.0 * traj.parameter))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_driven_system_matches_ramped_force_solution():
    # V_I = lam * x * R with R = v t: a linearly ramped force on the oscillator
    lam, v, k, x0 = 0.3, 2.0, 4.0, 0.5
    grid = Grid1D(0.0, 20.0, 2001)
    tmap = TimeMap(grid, grid.points / v)
    drive = CouplingDrive(Bilinear(lam), tmap)
    system = SystemSpec(1.0, 1.0, Harmonic(k))
    t = np.linspace(0.0, 3.0, 6000)
    traj = integrate_driven_system(system, drive, x0, 0.0, t)
    w = np.sqrt(k)
    exact = x0 * np.cos(w * t) + lam * v / (k * w) * np.sin(w * t) - lam * v / k * t
    np.testing.assert_allclose(traj.positions[:, 0], exact, atol=2e-6)


def _same_trajectory(batch, lane, solo):
    # lane `lane` of a batched run against a run of that lane alone
    for name in ("positions", "momenta", "action", "energies"):
        np.testing.assert_array_equal(getattr(batch, name)[:, lane], getattr(solo, name))


def test_driven_lanes_match_solo_runs_and_the_ramped_force_solution():
    # two clocks of different speed carry the same V_I = lam * x * R past
    # two oscillators, each lane on its own time grid
    lam, k = 0.3, 4.0
    grid = Grid1D(0.0, 20.0, 2001)
    speeds, x0s, t_ends = (2.0, 3.0), (0.5, -0.3), (3.0, 2.5)
    drives = [CouplingDrive(Bilinear(lam), TimeMap(grid, grid.points / v)) for v in speeds]
    system = SystemSpec(1.0, 1.0, Harmonic(k))
    t = np.column_stack([np.linspace(0.0, t_end, 6000) for t_end in t_ends])
    batch = integrate_driven_system(system, drives, np.array(x0s), 0.0, t)
    assert batch.positions.shape == (6000, 2, 1)
    w = np.sqrt(k)
    for j, (drive, v, x0) in enumerate(zip(drives, speeds, x0s)):
        _same_trajectory(batch, j, integrate_driven_system(system, drive, x0, 0.0, t[:, j]))
        tj = t[:, j]
        exact = x0 * np.cos(w * tj) + lam * v / (k * w) * np.sin(w * tj) - lam * v / k * tj
        np.testing.assert_allclose(batch.positions[:, j, 0], exact, atol=2e-6)


def test_driven_lanes_must_share_one_coupling():
    grid = Grid1D(0.0, 20.0, 2001)
    tmap = TimeMap(grid, grid.points / 2.0)
    drives = [CouplingDrive(Bilinear(0.3), tmap), CouplingDrive(Bilinear(0.4), tmap)]
    t = np.column_stack([np.linspace(0.0, 1.0, 11)] * 2)
    with pytest.raises(DegenerateInputError):
        integrate_driven_system(SystemSpec(1.0, 1.0, Harmonic(4.0)), drives, 0.5, 0.0, t)


def test_composite_batch_refines_every_lane_together():
    # lane 0 needs 500 -> 4000 steps for a 1e-6 drift, lane 1 passes at 500
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    x0s = np.array([0.5, 0.05])
    batch = integrate_composite(spec, 0.0, 10.0, x0s, 0.0, span=6.0, steps=500)
    assert batch.parameter.size - 1 == 4000
    assert batch.positions.shape == (4001, 2, 2)
    assert batch.energy_drift <= 1e-6
    alone = integrate_composite(spec, 0.0, 10.0, x0s[1], 0.0, span=6.0, steps=500)
    assert alone.parameter.size - 1 == 500
    # on the refined grid each lane is the run of that lane alone
    for j, x0 in enumerate(x0s):
        _same_trajectory(batch, j, integrate_composite(spec, 0.0, 10.0, x0, 0.0,
                                                       span=6.0, steps=4000))


def test_composite_batch_reports_exhausted_refinement():
    spec = CompositeSpec(50.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    with pytest.raises(StabilityError) as info:
        integrate_composite(spec, 0.0, 10.0, np.array([0.5, 0.05]), 0.0, span=6.0,
                            steps=500, max_halvings=2)
    assert info.value.suggested_step > 0.0
    assert info.value.suggested_step < 6.0 / 2000


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
    # between the nodes the two PCHIP interpolants are inverse to within
    # about 1e-4 of the time span there
    rng = np.random.default_rng(seed)
    lo, span = rng.uniform(-5.0, 5.0), rng.uniform(0.1, 10.0)
    grid = Grid1D(lo, lo + span, n)
    rate = rng.uniform(0.1, 10.0)
    wobble = rng.uniform(0.0, 0.9)
    waves = rng.uniform(0.5, 3.0)
    k = 2.0 * np.pi * waves / span
    rel = grid.points - lo
    tmap = TimeMap(grid, rate * (rel + wobble / k * np.sin(k * rel)))
    # at the nodes both interpolants are exact
    np.testing.assert_allclose(tmap.r_of_t(tmap.times), grid.points, rtol=0, atol=1e-12 * span)
    t_probe = np.sort(rng.uniform(*tmap.span, 50))
    t_span = tmap.span[1] - tmap.span[0]
    np.testing.assert_allclose(tmap.t_of_r(tmap.r_of_t(t_probe)), t_probe,
                               rtol=0, atol=1e-3 * t_span)


def test_clock_action_against_quadrature():
    grid = Grid1D(0.0, 1.5, 4001)
    clock = ClockModel(Harmonic(2.0), 3.0, 4.0, grid)
    w_end = clock_action(clock)[-1]
    ref, _ = quad(lambda r: np.sqrt(2 * 3.0 * (4.0 - r * r)), 0.0, 1.5)
    assert w_end == pytest.approx(ref, rel=1e-7)


def test_time_map_validation():
    grid = Grid1D(0.0, 1.0, 11)
    with pytest.raises(DegenerateInputError):
        TimeMap(grid, np.zeros(11))
    with pytest.raises(DegenerateInputError):
        TimeMap(grid, np.linspace(1.0, 0.0, 11))


def test_energy_correction_formula():
    assert energy_correction(1.0, 200.0, 0.5) == pytest.approx(1.0 - 1.0 / 100.0)
    with pytest.raises(DegenerateInputError):
        energy_correction(1.0, 200.0, 0.0)


# ---------------------------------------------------------------------------
# composite vs reduced


def test_tuned_clock_makes_reduced_run_exact():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    rep = compare_composite_reduced(spec, [80.0], 0.5, 0.0, t_span=3.0, steps=8000,
                                    clock_energy_offset="system")
    # without coupling the tuned clock reproduces composite time exactly;
    # what is left is resampling error of the comparison itself
    assert rep.rows[0].deviation < 1e-7


def test_untuned_clock_deviation_shrinks_with_clock_energy():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), Bilinear(0.02))
    rep = compare_composite_reduced(spec, [40.0, 160.0, 640.0], 0.5, 0.0,
                                    t_span=3.0, steps=6000, clock_energy_offset="none")
    dev = rep.column("deviation")
    assert dev[0] > dev[1] > dev[2]
    assert -1.5 < rep.slope < -0.5
    # the measured neglected/retained ratio tracks the a-priori estimate
    r = rep.rows[-1]
    assert r.ratio_measured == pytest.approx(r.ratio_estimate, rel=0.3)


def test_energy_lanes_match_single_energy_runs():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), Bilinear(0.02))
    energies = [40.0, 160.0, 640.0]
    rep = compare_composite_reduced(spec, energies, 0.5, 0.0, t_span=3.0, steps=6000,
                                    clock_energy_offset="none")
    solo = [compare_composite_reduced(spec, [e], 0.5, 0.0, t_span=3.0, steps=6000,
                                      clock_energy_offset="none").rows[0]
            for e in energies]
    assert rep.rows == tuple(solo)
    fit = np.polyfit(np.log([r.mv2 for r in solo]), np.log([r.deviation for r in solo]), 1)
    assert rep.slope == float(fit[0])


def test_compare_rejects_exhausted_clock():
    spec = CompositeSpec(100.0, 1.0, 1.0, Constant(), Harmonic(4.0), ZeroCoupling())
    with pytest.raises(DegenerateInputError):
        compare_composite_reduced(spec, [0.4], 0.5, 0.0, t_span=1.0, steps=100)


def test_turning_clock_is_reported():
    # harmonic environment with little clock energy: R turns around mid-run
    spec = CompositeSpec(1.0, 1.0, 1.0, Harmonic(4.0), Harmonic(4.0), ZeroCoupling())
    with pytest.raises(TurningPointError):
        compare_composite_reduced(spec, [0.75], 0.5, 0.0, t_span=8.0, steps=4000)
