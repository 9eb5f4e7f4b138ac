"""Builtin experiment scenarios.

Each scenario is a named pipeline: a frozen parameter class, whose
fields declare every parameter once with its default and its schema
bounds, and a runner that turns a parameter instance into plot-ready
tables (column names + one sequence of cells per column).  A runner
passes its arrays straight through as columns; `_table` refuses ragged,
multi-dimensional and complex columns, so complex quantities are split
into re_/im_ columns by the runner and every cell is a plain number or
string.  The registry derives each scenario's defaults and config schema
from its parameter class.  The registry is fixed; new pipelines are
composed in configs, not plugged in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import dynamics
from .classical import (
    COMPOSITE_MAX_HALVINGS,
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
from .params import FRACTION, GRID, INT2, NONNEGATIVE, NUMBER, POSITIVE, STRIDE, array, param, require
from .semiclassical import perfect_clock, quantum_time
from .stationary import solve_system_basis

__all__ = ["Table", "Scenario", "SCENARIOS", "get_scenario", "config_schema"]


@dataclass(frozen=True, eq=False)
class Table:
    """One output table: a header and one sequence of cells per column.

    A numeric column is a 1-D real ndarray; a column of text, of error
    cells or of a summary's mixed one-row cells is a list.
    """

    columns: tuple
    data: tuple

    @property
    def rows(self) -> tuple:
        """The cells row by row, zipped on demand (the writers read columns)."""
        return tuple(zip(*self.data))


def _table(columns, data) -> Table:
    """A Table of named columns, each a 1-D real ndarray or a list of cells.

    Raises ValueError on a name without a column or a column without a
    name, a column that is not 1-D, a complex column, or columns of
    unequal length: a runner's fault, caught before anything is written.
    """
    columns, data = tuple(columns), tuple(
        col if isinstance(col, np.ndarray) else list(col) for col in data)
    if len(data) != len(columns):
        raise ValueError(f"{len(columns)} column names for {len(data)} columns")
    for name, col in zip(columns, data):
        if isinstance(col, np.ndarray) and col.ndim != 1:
            raise ValueError(f"column {name!r} has shape {col.shape}, not one dimension")
        if (col.dtype.kind == "c" if isinstance(col, np.ndarray)
                else any(isinstance(v, (complex, np.complexfloating)) for v in col)):
            raise ValueError(f"column {name!r} is complex: split it into re_ and im_ columns")
    if len({len(col) for col in data}) > 1:
        raise ValueError("columns of unequal length: "
                         + ", ".join(f"{n} {len(c)}" for n, c in zip(columns, data)))
    return Table(columns, data)


def _summary(columns, values) -> Table:
    """A one-row Table: a list of one cell per column."""
    return _table(columns, ([v] for v in values))


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
    rel = err[1:] / np.abs(exact[1:])
    return {
        "perfect_clock": _table(("r", "re_tau", "im_tau", "exact_t", "abs_error"),
                                (r_grid.points, tau.values.real, tau.values.imag, exact, err)),
        "summary": _summary(("max_abs_error", "max_rel_error", "max_imag_fraction"),
                            (float(np.max(err)), float(np.max(rel)),
                             float(tau.max_imag_fraction))),
    }


# largest grid table of the two-level comparison, in complex cells: the
# Richardson route's halved Crank-Nicolson run holds (2 time_steps + 1)
# x_points of them at 16 bytes each, so 1.5e8 cells is 2.4 GB, a little
# above the 1.8 GB of the directed solve's MAX_FINE_ROWS; the defaults need
# 2,001 x 321 = 642,321
MAX_GRID_CELLS = 150_000_000

# largest composite run of the classical comparison, in lane steps: its last
# attempt steps (steps + 1) 2^COMPOSITE_MAX_HALVINGS times per energy lane and
# holds positions, momenta, kicks and drifts, 112 bytes a lane step, so 1.6e7
# lane steps are 1.8 GB; the defaults need 1,501 x 5 x 8 = 60,040
MAX_LANE_STEPS = 16_000_000

# largest dense Hessian of the path minimizer, in entries, ((segments - 1) d)^2:
# 2.5e7 is a 5,000 x 5,000 table of 200 MB, and the damped Newton loop holds
# about six tables of its size at once; the defaults need 94^2 = 8,836
MAX_HESSIAN_ENTRIES = 25_000_000


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
    time_steps: int = param(1000, INT2)
    duration_fraction: float = param(0.9, FRACTION)
    output_stride: int = param(1, STRIDE)

    def __post_init__(self):
        cells = (2 * self.time_steps + 1) * self.x_points
        require(cells <= MAX_GRID_CELLS, "time_steps",
                f"time_steps {self.time_steps} and x_points {self.x_points} need a grid "
                f"table of {cells:.4g} cells, above the bound of {MAX_GRID_CELLS:.1e}")


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

    psi0 = Field1D(x_grid, basis.states[0])
    rep = dynamics.compare_amplitudes_to_grid(system, basis, drive, psi0, t)

    stride = p.output_stride
    a = rep.ode.amplitudes[::stride]
    g = rep.projected[::stride]
    return {
        "two_level": _table(
            ("t", "re_a0", "im_a0", "re_a1", "im_a1",
             "pop0_ode", "pop1_ode", "pop0_grid", "pop1_grid", "deviation"),
            (t[::stride], a[:, 0].real, a[:, 0].imag, a[:, 1].real, a[:, 1].imag,
             *(np.abs(a) ** 2).T, *(np.abs(g) ** 2).T, np.max(np.abs(a - g), axis=1))),
        "summary": _summary(("max_deviation", "basis_defect", "population_drift"),
                            (rep.max_deviation, rep.basis_defect, rep.ode.population_drift)),
    }


@dataclass(frozen=True)
class BeamOnAtomConfig(dynamics.DirectedRunConfig):
    kinetic_energy: float = param(50.0, POSITIVE)
    max_phase_per_step: float = param(0.02, POSITIVE)
    output_stride: int = param(10, STRIDE)


def _run_beam_on_atom(p: BeamOnAtomConfig, jobs: int) -> dict:
    basis = p.system_basis()
    state = dynamics.directed_run(p, basis, p.kinetic_energy)

    # the beam's own time axis: its clock wave moves at the lattice group velocity
    r_sub = state.r_grid
    _, tmap = dynamics.lattice_clock(state)

    pops = np.abs(state.amplitudes) ** 2
    pops /= pops[0].sum()  # entry slice defines the unit of population

    stride = p.output_stride
    pop_cols = [f"pop_{n}" for n in range(len(basis))]
    sum_cols = (["residual", "energy", "incoming"]
                + [f"entry_{c}" for c in pop_cols] + [f"exit_{c}" for c in pop_cols])
    return {
        "channel_populations": _table(
            ["r", "t"] + pop_cols,
            (r_sub.points[::stride], tmap.times[::stride], *pops[::stride].T)),
        "summary": _summary(sum_cols, (state.residual, float(state.energy), p.incoming,
                                       *pops[0], *pops[-1])),
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
    steps: int = param(1500, INT2)
    clock_energy_offset: str | float = param(
        0.0, {"anyOf": [{"enum": ["system"]}, {"type": "number"}]})

    def __post_init__(self):
        require(max(self.energies) > min(self.energies), "energies",
                f"the slope needs two distinct energies, got {list(self.energies)}")
        lane_steps = (self.steps + 1) * len(self.energies) * 2**COMPOSITE_MAX_HALVINGS
        require(lane_steps <= MAX_LANE_STEPS, "steps",
                f"steps {self.steps} at {len(self.energies)} energies may need "
                f"{lane_steps:.4g} composite lane steps, above the bound of {MAX_LANE_STEPS:.1e}")


def _run_classical_emergence(p: ClassicalEmergenceConfig, jobs: int) -> dict:
    spec = CompositeSpec(
        p.clock_mass, p.system_mass, 1.0,
        Constant(0.0), Harmonic(p.system_stiffness),
        Bilinear(p.coupling),
    )
    report = compare_composite_reduced(
        spec, p.energies, p.x0, p.px0, p.t_span,
        steps=p.steps, clock_energy_offset=p.clock_energy_offset,
    )
    return {
        "classical_emergence": _table(report.columns.keys(), report.columns.values()),
        "summary": _summary(("slope", "points"), (report.slope, len(report.columns["mv2"]))),
    }


@dataclass(frozen=True)
class JacobiPathsConfig:
    masses: tuple = param((1.0, 1.0), array(POSITIVE, 1))
    energy: float = param(2.0, POSITIVE)
    q_start: tuple = param((0.0, 0.0), array(NUMBER, 1))
    q_end: tuple = param((1.0, 0.6), array(NUMBER, 1))
    segments: int = param(48, INT2)
    # the harmonic well 0.5 k |q - center|^2; k = 0 is the free particle
    stiffness: float = param(1.0, NONNEGATIVE)
    center: tuple = param((0.6, 0.2), array(NUMBER, 1))

    def __post_init__(self):
        dims = len(self.q_start)
        require(len(self.q_end) == dims, "q_end",
                f"q_end has {len(self.q_end)} coordinates, q_start has {dims}")
        require(len(self.masses) == dims, "masses",
                f"{len(self.masses)} masses for {dims}-dimensional endpoints")
        require(len(self.center) == dims, "center",
                f"center has {len(self.center)} coordinates, the endpoints have {dims}")
        entries = ((self.segments - 1) * dims) ** 2
        require(entries <= MAX_HESSIAN_ENTRIES, "segments",
                f"segments {self.segments} in {dims} dimensions need a Hessian of "
                f"{entries:.4g} entries, above the bound of {MAX_HESSIAN_ENTRIES:.1e}")


def _run_jacobi_paths(p: JacobiPathsConfig, jobs: int) -> dict:
    masses = np.asarray(p.masses, dtype=float)
    q_start = np.asarray(p.q_start, dtype=float)
    q_end = np.asarray(p.q_end, dtype=float)
    k = p.stiffness
    center = np.asarray(p.center, dtype=float)

    def potential(q):  # (k d) d, not k d^2: at k = 0 no distance overflows
        d = np.asarray(q) - center
        return 0.5 * np.sum(k * d * d, axis=-1)

    gradient = lambda q: k * (np.asarray(q, dtype=float) - center)
    problem = PathProblem(potential, gradient, masses, p.energy)

    endpoint = endpoint_momentum_check(problem, q_start, q_end, p.segments)
    path = endpoint.path
    action = path_action(path)
    momenta = path_momenta(path)
    residuals = constraint_residuals(path)

    seg = np.linalg.norm(np.diff(path.nodes, axis=0), axis=1)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    coord_cols = [f"q{j + 1}" for j in range(path.nodes.shape[1])]

    summary = (
        action,
        path.segments,
        float(np.max(np.abs(residuals))),
        endpoint.probe_error_end,
        endpoint.probe_error_start,
        endpoint.max_diff_end,
        endpoint.max_diff_start,
        *momenta[-1],
    )
    sum_cols = (["action", "segments", "max_constraint_residual",
                 "probe_error_end", "probe_error_start",
                 "momentum_gap_end", "momentum_gap_start"]
                + [f"p_end_{c}" for c in coord_cols])
    return {
        "path": _table(["node", "s"] + coord_cols,
                       (np.arange(path.nodes.shape[0]), s, *path.nodes.T)),
        "summary": _summary(sum_cols, summary),
    }


def _run_emergence_scan(p: dynamics.EmergenceScanConfig, jobs: int) -> dict:
    report = dynamics.emergence_scan(p, jobs=jobs)
    cols, n = report.columns, len(report.error)
    head = ("scan_value", "mv2", "residual", "rho")
    # every other measured column is a detail of the scan point
    details = ["scan_value"] + [name for name in cols if name not in head]
    return {
        "emergence_scan": _table(
            head + ("slope_fit", "residual_slope"),
            [cols[name] for name in head]
            + [np.full(n, report.slope), np.full(n, report.residual_slope)]),
        "scan_details": _table(details + ["error"],
                               [cols[name] for name in details] + [report.error]),
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
        """JSON Schema of the parameter block, from the fields' metadata."""
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
    """Full JSON Schema for one scenario's run config."""
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
