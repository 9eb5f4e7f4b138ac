"""Workloads of the scenario benchmark: seeded configs and output checks.

A workload is a fixed list of builtin scenarios.  `make_configs` turns a
workload and a seed into run configs: seed 0 gives each scenario's stock
defaults unchanged; any other seed scales the physical parameters listed
in PERTURBED by independent factors drawn from [1, 1 + SCALE), one
factor per parameter, so a scan list moves as a whole.  The range is
one-sided and narrow on purpose:
  - the directed-state fine grid is quantised in steps of (slices - 1)
    points, and the 50-energy point of the emergence scan sits 1% above
    a step, so a downward draw would shrink that grid by 17%;
  - |slope + 1| is a small difference, and scaling the scan energies by
    up to 3% already moved it by 10% between seeds.
With factors in [1, 1.01) every fine grid and step count equals its
default, and the quantum scan span stays above 30x (500 / 15.15 = 33).

`check_outputs` reads a scenario's written tables back and applies the
acceptance-test bounds; a scenario run counts as failed when any of them
is violated.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

WORKLOADS = {
    # item 2's target: the directed-state solve on grids up to 204,001 points
    "quantum-scan": ("emergence-scan",),
    # item 3's classical target: per-sample Verlet callbacks, no stationary layer
    "classical-scan": ("classical-emergence",),
    # the layers neither scan touches (L-BFGS, RK4, Crank-Nicolson, quantum
    # time), one short directed solve and the most CSV rows
    "scenario-mix": ("jacobi-paths", "harmonic-clock-two-level",
                     "beam-on-atom", "perfect-clock"),
}

SCALE = 0.01

# scenario -> parameters scaled by the seed (energies, endpoints, amplitudes)
PERTURBED = {
    "emergence-scan": ("kinetic_energies", "pulse_amplitude"),
    "classical-emergence": ("energies", "coupling"),
    "jacobi-paths": ("energy", "q_end"),
    "harmonic-clock-two-level": ("clock_energy", "pulse_amplitude"),
    "beam-on-atom": ("kinetic_energy", "pulse_amplitude"),
    "perfect-clock": ("momentum",),
}


def make_configs(workload: str, seed: int, default_config) -> list:
    """Config documents for one workload, in run order.

    `default_config(name)` is the program's own source of defaults, so
    seed 0 reproduces `chronolab run <name>` exactly.
    """
    rng = random.Random(seed)
    docs = []
    for name in WORKLOADS[workload]:
        doc = default_config(name)
        if seed:
            params = doc["parameters"]
            for key in PERTURBED[name]:
                params[key] = _scaled(params[key], rng)
            doc["seed"] = seed
        docs.append(doc)
    return docs


def _scaled(value, rng: random.Random):
    factor = 1.0 + SCALE * rng.random()
    if isinstance(value, list):
        return [round(v * factor, 9) for v in value]
    return round(value * factor, 9)


def write_configs(docs: list, directory: Path) -> list:
    paths = []
    for doc in docs:
        path = directory / f"{doc['scenario']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# correctness checks, read back from the written tables


def _table(out: Path, name: str) -> list:
    with open(out / f"{name}.csv", encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def check_outputs(doc: dict, out: Path) -> tuple:
    """(problems, headline) for one scenario's written outputs.

    `problems` lists every violated bound (empty when the run passes);
    `headline` maps the paper's headline numbers this scenario produces,
    slope_dev or two_route_dev, to their values.
    """
    name = doc["scenario"]
    params = doc["parameters"]
    problems = []
    headline = {}

    def need(ok: bool, what: str):
        if not ok:
            problems.append(f"{name}: {what}")

    if name == "emergence-scan":
        rows = _table(out, "emergence_scan")
        details = _table(out, "scan_details")
        errors = [r["error"] for r in details if r["error"]]
        need(not errors, f"scan point errors {errors}")
        slope = float(rows[0]["slope_fit"])
        need(-1.3 <= slope <= -0.7, f"slope {slope} outside [-1.3, -0.7]")
        need(_strictly_decreasing([float(r["residual"]) for r in rows]),
             "residuals not strictly decreasing")
        headline["slope_dev"] = abs(slope + 1.0)
    elif name == "classical-emergence":
        slope = float(_table(out, "summary")[0]["slope"])
        need(-1.5 <= slope <= -0.5, f"slope {slope} outside [-1.5, -0.5]")
        rows = _table(out, "classical_emergence")
        need(_strictly_decreasing([float(r["deviation"]) for r in rows]),
             "deviations not strictly decreasing")
        headline["slope_dev"] = abs(slope + 1.0)
    elif name == "harmonic-clock-two-level":
        s = _table(out, "summary")[0]
        dev = float(s["max_deviation"])
        need(dev < 1e-3, f"max_deviation {dev} >= 1e-3")
        need(float(s["basis_defect"]) < 1e-6, f"basis_defect {s['basis_defect']} >= 1e-6")
        headline["two_route_dev"] = dev
    elif name == "jacobi-paths":
        res = float(_table(out, "summary")[0]["max_constraint_residual"])
        need(res < 2e-8, f"max_constraint_residual {res} >= 2e-8")
    elif name == "beam-on-atom":
        s = _table(out, "summary")[0]
        bound = params["residual_tol"] * abs(float(s["energy"]))
        need(float(s["residual"]) <= bound, f"residual {s['residual']} > {bound}")
    elif name == "perfect-clock":
        rel = float(_table(out, "summary")[0]["max_rel_error"])
        # finite-difference floor at 4,001 points is 6.7e-7
        need(rel < 1e-5, f"max_rel_error {rel} >= 1e-5")
    else:
        raise KeyError(f"no output check for scenario {name!r}")
    return problems, headline
