"""Release gate: the ten numbered acceptance criteria, one test each.

Run with -v to get one pass/fail line per criterion.  Every test prints
its measured numbers next to the bound it enforces, and the criteria
that carry a runtime budget assert it.
"""

import time

import numpy as np
import pytest

from chronolab import (
    Bilinear,
    ChannelBasis,
    ClockModel,
    CompositeSpec,
    Constant,
    Coupling,
    CouplingDrive,
    Field1D,
    Grid1D,
    Grid2D,
    Harmonic,
    Linear,
    PathProblem,
    SystemSpec,
    TimeMap,
    ZeroCoupling,
    assemble_tise,
    clock_momentum,
    close_coupled_residuals,
    constraint_residuals,
    emergence_scan,
    endpoint_momentum_check,
    energy_correction,
    factorize_prescribed,
    factorize_selfconsistent,
    integrate_composite,
    minimize_action_path,
    normalize,
    perfect_clock,
    project_channels,
    propagate_amplitudes,
    propagate_tdse,
    quantum_time,
    solve_eigenpairs,
    solve_system_basis,
)
from chronolab.cli import main
from chronolab.scenarios import SCENARIOS, default_config


@pytest.fixture(scope="module")
def weak_pair():
    """Ground pair of the weakly coupled composite on the reference grid."""
    grid = Grid1D(-7.0, 7.0, 128)
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), Bilinear(0.15))
    h = assemble_tise(spec, Grid2D(grid, grid))
    pair = solve_eigenpairs(h, e_target=1.6, k=1)[0]
    return spec, grid, pair


@pytest.fixture(scope="module")
def separable_pairs():
    grid = Grid1D(-7.0, 7.0, 128)
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), ZeroCoupling())
    h = assemble_tise(spec, Grid2D(grid, grid))
    return spec, grid, solve_eigenpairs(h, e_target=1.4, k=6)


def _marginal(grid, state):
    return np.sqrt(np.sum(grid.weights * np.abs(state.values) ** 2, axis=1))


def test_criterion_01_factorization_identity(weak_pair, separable_pairs):
    # product reconstruction chi(R) psi(x; R) == Psi(R, x) on the window
    factored = []
    spec, grid, pair = weak_pair
    factored.append((pair.state,
                     factorize_prescribed(pair.state, Field1D(grid, _marginal(grid, pair.state)))))
    factored.append((pair.state, factorize_selfconsistent(pair, spec)[0]))
    sspec, sgrid, spairs = separable_pairs
    for p in spairs:
        m = _marginal(sgrid, p.state)
        keep = np.nonzero(m > 1e-6 * m.max())[0]
        # an interior dip marks a clock node: no single-window product form
        if np.all(np.diff(keep) == 1):
            factored.append((p.state, factorize_prescribed(p.state, Field1D(sgrid, m))))
    assert len(factored) >= 4
    worst = 0.0
    for state, fs in factored:
        i0, i1 = fs.window
        recon = fs.chi.values[:, None] * fs.psi.values
        worst = max(worst, float(np.max(np.abs(recon - state.values[i0:i1 + 1]))))
    print(f"criterion 1: max |chi psi - Psi| = {worst:.3e} "
          f"over {len(factored)} factorized eigenstates (bound 1e-12)")
    assert worst < 1e-12


def test_criterion_02_eigen_quality():
    t0 = time.perf_counter()
    grid = Grid1D(-7.0, 7.0, 128)
    spec = CompositeSpec(2.0, 1.0, 1.0, Harmonic(2.0), Harmonic(4.0), ZeroCoupling())
    h = assemble_tise(spec, Grid2D(grid, grid))
    pairs = solve_eigenpairs(h, e_target=1.4, k=6)
    got = np.array([p.energy for p in pairs])
    # separable oscillator sums: w_R = 1, w_x = 2
    exact = np.array([1.5, 2.5, 3.5, 3.5, 4.5, 4.5])
    rel = np.abs(got - exact) / exact
    res_rel = np.array([p.residual / abs(p.energy) for p in pairs])
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: 128x128 spectrum max rel err {rel.max():.3e} "
          f"(bound 1e-4), max residual {res_rel.max():.3e}|E| (bound 1e-8), "
          f"{elapsed:.1f} s (budget 60 s)")
    assert rel.max() < 1e-4
    assert res_rel.max() < 1e-8
    assert elapsed < 60.0


def test_criterion_03_perfect_clock():
    # plane-wave clock: emergent time is exactly M R / P
    clock = perfect_clock(50.0, 2.0, Grid1D(0.0, 4.0, 400001))
    tau = quantum_time(clock.chi(), clock.M)
    exact = clock.time_map().times
    rel = np.max(np.abs(tau.values[1:] - exact[1:]) / exact[1:])

    # real Gaussian clock factor: purely imaginary time, log profile
    M, s = 7.0, 1.3
    r_grid = Grid1D(1.0, 3.0, 200001)
    r = r_grid.points
    chi = Field1D(r_grid, np.exp(-(r**2) / (2 * s**2)))
    tau_g = quantum_time(chi, M)
    oracle = -1j * M * s**2 * np.log(r / r[0])
    err = np.max(np.abs(tau_g.values - oracle))
    print(f"criterion 3: plane-wave rel err {rel:.3e} (bound 1e-10); "
          f"Gaussian log-oracle err {err:.3e} (bound 1e-6), "
          f"max real part {np.max(np.abs(tau_g.values.real)):.1e}")
    assert rel < 1e-10
    assert err < 1e-6
    assert np.max(np.abs(tau_g.values.real)) == 0.0


def test_criterion_04_emergence_exponent():
    t0 = time.perf_counter()
    report = emergence_scan(jobs=2)
    residuals = report.columns["residual"]
    rho = report.columns["rho"]
    elapsed = time.perf_counter() - t0
    assert not any(report.error)
    print(f"criterion 4: slope {report.slope:.4f} (bound [-1.3, -0.7]); "
          f"residuals {residuals[0]:.2e} -> {residuals[-1]:.2e}; "
          f"rho {rho[0]:.2e} -> {rho[-1]:.2e}; "
          f"{elapsed:.1f} s (budget 600 s)")
    assert -1.3 < report.slope < -0.7
    assert np.all(np.diff(residuals) < 0.0)
    assert elapsed < 600.0


def test_criterion_05_two_route_equivalence():
    t0 = time.perf_counter()
    params = default_config("harmonic-clock-two-level")["parameters"]
    tables = SCENARIOS["harmonic-clock-two-level"].run(params)
    summary = dict(zip(tables["summary"].columns, tables["summary"].rows[0]))

    # degenerate limit: exact two-level rotation |a_1|^2 = sin^2(lam c t)
    grid = Grid1D(-8.0, 8.0, 321)
    basis = solve_system_basis(SystemSpec(1.0, 1.0, Harmonic(1.0)), grid, 2, order=2)
    degenerate = ChannelBasis(grid, basis.states, np.zeros(2), basis.stencil_order)
    lam, x, w = 0.3, grid.points, grid.weights
    c = float(np.sum(w * basis.states[0].real * x * basis.states[1].real))
    t = np.linspace(0.0, 6.0, 3001)
    drive = CouplingDrive(Coupling(Constant(1.0), Linear(1.0), lam),
                          TimeMap(Grid1D(0.0, 6.0, 3), np.linspace(0.0, 6.0, 3), np.ones(3)))
    amps = propagate_amplitudes(degenerate, drive, [1.0, 0.0], t)
    rabi_err = np.max(np.abs(amps.populations()[:, 1] - np.sin(lam * c * t) ** 2))
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: channel deviation {summary['max_deviation']:.3e} "
          f"(bound 1e-3), basis defect {summary['basis_defect']:.3e} (bound 1e-6); "
          f"Rabi err {rabi_err:.3e} (bound 1e-6); {elapsed:.1f} s (budget 120 s)")
    assert summary["max_deviation"] < 1e-3
    assert summary["basis_defect"] < 1e-6
    assert rabi_err < 1e-6
    assert elapsed < 120.0


def test_criterion_06_classical_emergence():
    t0 = time.perf_counter()
    params = default_config("classical-emergence")["parameters"]
    tables = SCENARIOS["classical-emergence"].run(params)
    slope = dict(zip(tables["summary"].columns, tables["summary"].rows[0]))["slope"]
    deviations = np.array([row[2] for row in tables["classical_emergence"].rows])

    # untuned free clock: its momentum surplus over the composite, turned
    # into power at the beam velocity, is the shifted system energy
    M, ks, x0 = 100.0, 4.0, 0.5
    e_total = 2.5 + 0.5 * ks * x0**2
    spec = CompositeSpec(M, 1.0, 1.0, Constant(0.0), Harmonic(ks), ZeroCoupling())
    traj = integrate_composite(spec, 0.0, np.sqrt(2 * M * 2.5), x0, 0.0,
                               span=2.0, steps=4000)
    p_comp = float(np.mean(traj.momenta[:, 0, 0]))
    v = p_comp / M
    x, px = traj.positions[:, 0, 1], traj.momenta[:, 0, 1]
    e_sys = float(np.mean(0.5 * px**2 + 0.5 * ks * x**2))
    r_grid = Grid1D(0.0, float(traj.positions[:, 0, 0].max()) + 0.1, 101)
    model = ClockModel(Constant(0.0), M, e_total, r_grid)
    p_model = float(np.mean(clock_momentum(model, r_grid.points)))
    shift = (p_model - p_comp) * v
    oracle = energy_correction(e_sys, M, v)
    shift_rel = abs(shift - oracle) / oracle
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: deviation slope {slope:.4f} (bound [-1.5, -0.5]); "
          f"shift {shift:.5f} vs first-order {oracle:.5f}, rel {shift_rel:.3e} "
          f"(bound 0.1); {elapsed:.1f} s (budget 120 s)")
    assert -1.5 < slope < -0.5
    assert np.all(np.diff(deviations) < 0.0)
    assert shift_rel < 0.10
    assert elapsed < 120.0


def test_criterion_07_fixed_energy_paths():
    t0 = time.perf_counter()
    free = PathProblem(
        potential=lambda q: np.zeros(np.asarray(q).shape[:-1]),
        gradient=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
        masses=np.array([1.0, 1.0]),
        energy=2.0,
    )
    path = minimize_action_path(free, [0.0, 0.0], [1.0, 0.6], segments=48)
    chord = np.array([1.0, 0.6]) / np.hypot(1.0, 0.6)
    rel = path.nodes - path.nodes[0]
    cross = np.max(np.abs(rel[:, 0] * chord[1] - rel[:, 1] * chord[0]))

    center = np.asarray([0.6, 0.2])
    harm = PathProblem(
        potential=lambda q: 0.5 * np.sum((np.asarray(q) - center) ** 2, axis=-1),
        gradient=lambda q: np.asarray(q, dtype=float) - center,
        masses=np.array([1.0, 1.0]),
        energy=2.0,
    )
    probes = [endpoint_momentum_check(harm, [0.0, 0.0], [1.0, 0.6],
                                      segments=24, delta=d).probe_error_end
              for d in (4e-3, 2e-3)]
    ratio = probes[0] / probes[1]
    hpath = minimize_action_path(harm, [0.0, 0.0], [1.0, 0.6], segments=48)
    resid = np.max(np.abs(constraint_residuals(hpath)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: free-path cross-track {cross:.3e} (bound 1e-6); "
          f"probe-error ratio {ratio:.2f} (second order: ~4); "
          f"constraint residual {resid:.3e} (bound 1e-8 E = 2e-8); "
          f"{elapsed:.1f} s (budget 60 s)")
    assert cross < 1e-6
    assert ratio == pytest.approx(4.0, rel=0.5)
    assert resid < 1e-8 * harm.energy
    assert elapsed < 60.0


def test_criterion_08_propagator_contracts():
    t0 = time.perf_counter()
    grid = Grid1D(-10.0, 10.0, 801)
    system = SystemSpec(1.0, 1.0, Harmonic(1.0))
    x = grid.points
    psi0 = normalize(Field1D(grid, np.exp(-((x - 0.7) ** 2) / 2.0)))
    traj = propagate_tdse(system, None, psi0, np.linspace(0.0, 2.0, 2001))
    drift = traj.norm_drift / 2.0  # per 1e3 steps

    free = SystemSpec(1.0, 1.0, Constant())
    fgrid = Grid1D(-20.0, 20.0, 4001)
    fx = fgrid.points
    fpsi = normalize(Field1D(fgrid, np.exp(-(fx**2) / 2.0)))
    ftraj = propagate_tdse(free, None, fpsi, np.linspace(0.0, 1.0, 1001))
    prob = np.abs(ftraj.values[-1]) ** 2
    var = np.sum(fgrid.weights * fx**2 * prob) / np.sum(fgrid.weights * prob)
    disp_rel = abs(var - 1.0)  # sigma0^2 = 1/2 doubles after t = 1

    def run(steps):
        return propagate_tdse(system, None, psi0,
                              np.linspace(0.0, 1.0, steps + 1)).values[-1]

    ref = run(4000)
    errs = [np.max(np.abs(run(s) - ref)) for s in (500, 1000)]
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: norm drift {drift:.3e}/1e3 steps (bound 1e-10); "
          f"dispersion err {disp_rel:.3e} (bound 1e-4); "
          f"halving ratio {ratio:.2f} (~4); {elapsed:.1f} s (budget 60 s)")
    assert drift < 1e-10
    assert disp_rel < 1e-4
    assert ratio == pytest.approx(4.0, rel=0.25)
    assert elapsed < 60.0


def test_criterion_09_close_coupled_residuals(weak_pair):
    t0 = time.perf_counter()
    spec, grid, pair = weak_pair
    worst = {}
    herm = 0.0
    for k in (2, 8):
        basis = solve_system_basis(spec.system, grid, k, order=4)
        dec = project_channels(pair.state, basis)
        rep = close_coupled_residuals(dec, spec, pair.energy)
        worst[k] = float(rep.residuals.max())
        herm = max(herm, rep.hermiticity_defect)
    drop = worst[2] / worst[8]
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: residual {worst[2]:.3e} -> {worst[8]:.3e}, "
          f"drop x{drop:.1e} (bound >= 10); hermiticity defect {herm:.3e} "
          f"(bound 1e-10); {elapsed:.1f} s (budget 120 s)")
    assert drop >= 10.0
    assert herm < 1e-10
    assert elapsed < 120.0


def test_criterion_10_scenario_determinism(tmp_path):
    mismatches = []
    for name in sorted(SCENARIOS):
        jobs = ["--jobs", "2"] if name == "emergence-scan" else []
        out_a, out_b = tmp_path / "a" / name, tmp_path / "b" / name
        assert main(["run", name, "--out", str(out_a)]) == 0
        # the second pass may use a different worker count; output may not
        assert main(["run", name, "--out", str(out_b)] + jobs) == 0
        files_a = sorted(p.name for p in out_a.glob("*.csv"))
        files_b = sorted(p.name for p in out_b.glob("*.csv"))
        assert files_a == files_b and files_a
        for fname in files_a:
            if (out_a / fname).read_bytes() != (out_b / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    print(f"criterion 10: {len(sorted(SCENARIOS))} scenarios regenerated, "
          f"mismatched files: {mismatches or 'none'}")
    assert mismatches == []
