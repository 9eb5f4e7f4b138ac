"""Builtin experiment scenarios.

Each scenario is a named pipeline: a frozen parameter class, whose
fields declare every parameter once with its default and its schema
bounds, and a runner that turns a parameter instance into plot-ready
tables (column names + rows).  The registry derives each scenario's
defaults and config schema from its parameter class.  Complex quantities
are split into re_/im_ columns at table-building time so every cell is a
plain number or string.  The registry is fixed; new pipelines are
composed in configs, not plugged in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import dynamics
from .classical import (
    ClockModel,
    CouplingDrive,
    PathProblem,
    clock_time_map,
    compare_composite_reduced,
    constraint_residuals,
    endpoint_momentum_check,
    path_action,
    path_momenta,
)
from .core import (
    Bilinear,
    CompositeSpec,
    Constant,
    Field1D,
    Grid1D,
    Harmonic,
    Linear,
    SystemSpec,
    WindowedPulse,
)
from .errors import ConfigError
from .params import FRACTION, GRID, INT2, NUMBER, POSITIVE, STRIDE, array, param, require
from .semiclassical import perfect_clock, quantum_time
from .stationary import solve_system_basis

__all__ = ["Table", "Scenario", "SCENARIOS", "get_scenario", "config_schema"]


@dataclass(frozen=True)
class Table:
    """One output table: a header and rows of plain cells."""

    columns: tuple
    rows: tuple


def _table(columns, rows) -> Table:
    return Table(tuple(columns), tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# parameters and runners


@dataclass(frozen=True)
class PerfectClockConfig:
    clock_mass: float = param(50.0, POSITIVE)
    momentum: float = param(2.0, POSITIVE)
    hbar: float = param(1.0, POSITIVE)
    r_min: float = param(0.0, NUMBER)
    r_max: float = param(4.0, NUMBER)
    points: int = param(4001, GRID)

    def __post_init__(self):
        require(self.r_min < self.r_max, "r_max",
                f"r_max {self.r_max} must exceed r_min {self.r_min}")


def _run_perfect_clock(p: PerfectClockConfig, jobs: int) -> dict:
    r_grid = Grid1D(p.r_min, p.r_max, p.points)
    clock = perfect_clock(p.clock_mass, p.momentum, r_grid, p.hbar)
    tau = quantum_time(clock.chi(), clock.M, p.hbar)
    exact = clock.time_map().times
    err = np.abs(tau.values - exact)
    rows = [
        (r, t.real, t.imag, e, d)
        for r, t, e, d in zip(r_grid.points, tau.values, exact, err)
    ]
    rel = err[1:] / np.abs(exact[1:]) if r_grid.n > 1 else np.zeros(1)
    summary = [(float(np.max(err)), float(np.max(rel)), float(tau.max_imag_fraction))]
    return {
        "perfect_clock": _table(("r", "re_tau", "im_tau", "exact_t", "abs_error"), rows),
        "summary": _table(("max_abs_error", "max_rel_error", "max_imag_fraction"), summary),
    }


@dataclass(frozen=True)
class TwoLevelConfig:
    clock_mass: float = param(80.0, POSITIVE)
    env_stiffness: float = param(1.0, POSITIVE)
    clock_energy: float = param(10.0, POSITIVE)
    clock_half_range: float = param(3.5, POSITIVE)
    clock_points: int = param(2001, GRID)
    system_mass: float = param(1.0, POSITIVE)
    system_stiffness: float = param(4.0, POSITIVE)
    hbar: float = param(1.0, POSITIVE)
    pulse_amplitude: float = param(0.2, NUMBER)
    pulse_center: float = param(0.0, NUMBER)
    pulse_width: float = param(0.8, POSITIVE)
    x_half: float = param(8.0, POSITIVE)
    x_points: int = param(321, GRID)
    time_steps: int = param(8000, INT2)
    duration_fraction: float = param(0.9, FRACTION)
    output_stride: int = param(10, STRIDE)


def _run_two_level(p: TwoLevelConfig, jobs: int) -> dict:
    x_grid = Grid1D(-p.x_half, p.x_half, p.x_points)
    system = SystemSpec(p.system_mass, p.hbar, Harmonic(p.system_stiffness))
    basis = solve_system_basis(system, x_grid, 2, order=2)

    r_grid = Grid1D(-p.clock_half_range, p.clock_half_range, p.clock_points)
    clock = ClockModel(Harmonic(p.env_stiffness), p.clock_mass, p.clock_energy, r_grid)
    tmap = clock_time_map(clock)
    t_end = tmap.span[0] + p.duration_fraction * (tmap.span[1] - tmap.span[0])
    t = np.linspace(tmap.span[0], t_end, p.time_steps + 1)
    # smooth pulse in R: a sudden drive would leak population into the
    # third level and spoil the two-channel truncation
    pulse = WindowedPulse(p.pulse_amplitude, p.pulse_center, p.pulse_width, Linear(1.0))
    drive = CouplingDrive(pulse, tmap)

    psi0 = Field1D(x_grid, basis.states[0].values)
    rep = dynamics.compare_amplitudes_to_grid(system, basis, drive, psi0, t)

    stride = max(1, p.output_stride)
    rows = []
    for i in range(0, t.size, stride):
        a = rep.ode.amplitudes[i]
        g = rep.projected[i]
        rows.append((
            t[i],
            a[0].real, a[0].imag, a[1].real, a[1].imag,
            float(np.abs(a[0]) ** 2), float(np.abs(a[1]) ** 2),
            float(np.abs(g[0]) ** 2), float(np.abs(g[1]) ** 2),
            float(np.max(np.abs(a - g))),
        ))
    summary = [(rep.max_deviation, rep.basis_defect, rep.ode.population_drift)]
    return {
        "two_level": _table(
            ("t", "re_a0", "im_a0", "re_a1", "im_a1",
             "pop0_ode", "pop1_ode", "pop0_grid", "pop1_grid", "deviation"),
            rows),
        "summary": _table(("max_deviation", "basis_defect", "population_drift"), summary),
    }


@dataclass(frozen=True)
class BeamOnAtomConfig(dynamics.DirectedRunConfig):
    kinetic_energy: float = param(50.0, POSITIVE)
    max_phase_per_step: float = param(0.02, POSITIVE)
    output_stride: int = param(10, STRIDE)


def _run_beam_on_atom(p: BeamOnAtomConfig, jobs: int) -> dict:
    _, basis = p.system_basis()
    spec, _, state, _ = dynamics.directed_run(p, basis, p.kinetic_energy)
    e_total = spec.energy

    # the beam's own time axis: the free-clock map its tables are built from
    r_sub = state.r_grid
    clock = ClockModel(Constant(0.0), p.clock_mass, e_total, r_sub)
    tmap = clock_time_map(clock)

    pops = np.abs(state.amplitudes) ** 2
    pops /= pops[0].sum()  # entry slice defines the unit of population

    out_stride = max(1, p.output_stride)
    idx = range(0, r_sub.n, out_stride)
    pop_cols = [f"pop_{n}" for n in range(len(basis))]
    rows = [
        (r_sub.points[i], tmap.times[i], *pops[i]) for i in idx
    ]
    summary = [(state.residual, float(e_total), p.incoming,
                *pops[0], *pops[-1])]
    sum_cols = (["residual", "energy", "incoming"]
                + [f"entry_{c}" for c in pop_cols] + [f"exit_{c}" for c in pop_cols])
    return {
        "channel_populations": _table(["r", "t"] + pop_cols, rows),
        "summary": _table(sum_cols, summary),
    }


@dataclass(frozen=True)
class ClassicalEmergenceConfig:
    clock_mass: float = param(100.0, POSITIVE)
    system_mass: float = param(1.0, POSITIVE)
    system_stiffness: float = param(4.0, POSITIVE)
    coupling: float = param(0.02, NUMBER)
    x0: float = param(0.5, NUMBER)
    px0: float = param(0.0, NUMBER)
    # two points at least: the slope is fitted across them
    energies: tuple = param((20.0, 60.0, 200.0, 600.0, 2000.0), array(POSITIVE, 2))
    t_span: float = param(4.0, POSITIVE)
    steps: int = param(12000, INT2)
    clock_energy_offset: str | float = param(
        "none", {"anyOf": [{"enum": ["system", "none"]}, {"type": "number"}]})


def _run_classical_emergence(p: ClassicalEmergenceConfig, jobs: int) -> dict:
    spec = CompositeSpec(
        p.clock_mass, p.system_mass, 1.0,
        Constant(0.0), Harmonic(p.system_stiffness),
        Bilinear(p.coupling),
        energy=max(p.energies), clock_energy=max(p.energies),
    )
    report = compare_composite_reduced(
        spec, p.energies, p.x0, p.px0, p.t_span,
        steps=p.steps, clock_energy_offset=p.clock_energy_offset,
    )
    rows = [
        (r.scan_value, r.mv2, r.deviation, r.neglected_mean,
         r.retained_mean, r.ratio_measured, r.ratio_estimate)
        for r in report.rows
    ]
    return {
        "classical_emergence": _table(
            ("scan_value", "mv2", "deviation", "neglected_mean",
             "retained_mean", "ratio_measured", "ratio_estimate"),
            rows),
        "summary": _table(("slope", "points"), [(report.slope, len(report.rows))]),
    }


@dataclass(frozen=True)
class JacobiPathsConfig:
    masses: tuple = param((1.0, 1.0), array(POSITIVE, 1))
    energy: float = param(2.0, POSITIVE)
    q_start: tuple = param((0.0, 0.0), array(NUMBER, 1))
    q_end: tuple = param((1.0, 0.6), array(NUMBER, 1))
    segments: int = param(48, INT2)
    well: str = param("harmonic", {"enum": ["none", "harmonic"]})
    stiffness: float = param(1.0, POSITIVE)
    center: tuple = param((0.6, 0.2), array(NUMBER, 1))

    def __post_init__(self):
        dims = len(self.q_start)
        require(len(self.q_end) == dims, "q_end",
                f"q_end has {len(self.q_end)} coordinates, q_start has {dims}")
        require(len(self.masses) == dims, "masses",
                f"{len(self.masses)} masses for {dims}-dimensional endpoints")
        if self.well == "harmonic":
            require(len(self.center) == dims, "center",
                    f"center has {len(self.center)} coordinates, the endpoints have {dims}")


def _run_jacobi_paths(p: JacobiPathsConfig, jobs: int) -> dict:
    masses = np.asarray(p.masses, dtype=float)
    q_start = np.asarray(p.q_start, dtype=float)
    q_end = np.asarray(p.q_end, dtype=float)
    if p.well == "none":
        potential = lambda q: np.zeros(np.asarray(q).shape[:-1])
        gradient = lambda q: np.zeros_like(np.asarray(q, dtype=float))
    else:
        k = p.stiffness
        center = np.asarray(p.center, dtype=float)
        potential = lambda q: 0.5 * k * np.sum((np.asarray(q) - center) ** 2, axis=-1)
        gradient = lambda q: k * (np.asarray(q, dtype=float) - center)
    problem = PathProblem(potential, gradient, masses, p.energy)

    endpoint = endpoint_momentum_check(problem, q_start, q_end, p.segments)
    path = endpoint.path
    action = path_action(path)
    momenta = path_momenta(path)
    residuals = constraint_residuals(path)

    seg = np.linalg.norm(np.diff(path.nodes, axis=0), axis=1)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    rows = [(i, s[i], *path.nodes[i]) for i in range(path.nodes.shape[0])]
    coord_cols = [f"q{j + 1}" for j in range(path.nodes.shape[1])]

    summary = [(
        action,
        path.segments,
        float(np.max(np.abs(residuals))),
        endpoint.probe_error_end,
        endpoint.probe_error_start,
        endpoint.max_diff_end,
        endpoint.max_diff_start,
        *momenta[-1],
    )]
    sum_cols = (["action", "segments", "max_constraint_residual",
                 "probe_error_end", "probe_error_start",
                 "momentum_gap_end", "momentum_gap_start"]
                + [f"p_end_{c}" for c in coord_cols])
    return {
        "path": _table(["node", "s"] + coord_cols, rows),
        "summary": _table(sum_cols, summary),
    }


def _run_emergence_scan(p: dynamics.EmergenceScanConfig, jobs: int) -> dict:
    report = dynamics.emergence_scan(p, jobs=jobs)
    rows = [
        (r.scan_value, r.mv2, r.residual, r.rho, report.slope, report.residual_slope)
        for r in report.rows
    ]
    details = [
        (r.scan_value, r.v_mean, r.norm_spread, r.residual_out_of_span,
         r.fine_points, r.stride, r.error if r.error else "")
        for r in report.rows
    ]
    return {
        "emergence_scan": _table(
            ("scan_value", "mv2", "residual", "rho", "slope_fit", "residual_slope"), rows),
        "scan_details": _table(
            ("scan_value", "v_mean", "norm_spread", "residual_out_of_span",
             "fine_points", "stride", "error"),
            details),
    }


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Scenario:
    """A builtin pipeline: its parameter class and its runner."""

    name: str
    description: str
    config: type  # frozen dataclass whose fields are the parameters
    runner: object

    @property
    def defaults(self) -> dict:
        """Default parameters as a config document holds them (lists, not tuples)."""
        return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
                for f in fields(self.config)}

    @property
    def properties(self) -> dict:
        """jsonschema of the parameter block, from the fields' metadata."""
        return {f.name: f.metadata["schema"] for f in fields(self.config)}

    def run(self, params: dict, jobs: int = 1) -> dict:
        return self.runner(self.config(**params), jobs)


SCENARIOS = {s.name: s for s in (
    Scenario("perfect-clock",
             "Free plane-wave clock: complex quantum time against the exact linear map.",
             PerfectClockConfig, _run_perfect_clock),
    Scenario("harmonic-clock-two-level",
             "Two harmonic channels driven through a harmonic clock: amplitude ODEs vs grid propagation.",
             TwoLevelConfig, _run_two_level),
    Scenario("beam-on-atom",
             "Directed beam crossing a coupling pulse on a harmonic system: channel populations along the beam.",
             BeamOnAtomConfig, _run_beam_on_atom),
    Scenario("classical-emergence",
             "Composite vs clock-driven reduced trajectories across a clock-energy scan.",
             ClassicalEmergenceConfig, _run_classical_emergence),
    Scenario("jacobi-paths",
             "Fixed-energy variational paths: geodesics, momenta, endpoint gradients.",
             JacobiPathsConfig, _run_jacobi_paths),
    Scenario("emergence-scan",
             "Clock-energy scan of the conditional TDSE residual and correction ratio.",
             dynamics.EmergenceScanConfig, _run_emergence_scan),
)}


def get_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r} (known: {known})", path="/scenario")
    return SCENARIOS[name]


def config_schema(name: str) -> dict:
    """Full jsonschema for one scenario's run config."""
    sc = get_scenario(name)
    return {
        "type": "object",
        "properties": {
            "scenario": {"const": name},
            "seed": {"type": "integer", "minimum": 0},
            "out": {"type": "string"},
            "parameters": {
                "type": "object",
                "properties": sc.properties,
                "additionalProperties": False,
            },
        },
        "required": ["scenario"],
        "additionalProperties": False,
    }


def default_config(name: str) -> dict:
    sc = get_scenario(name)
    return {"scenario": name, "seed": 0, "parameters": dict(sc.defaults)}
