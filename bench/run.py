"""Scenario benchmark for chronolab.

    python3 bench/run.py --workload quantum-scan --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's own `src/`, and nothing
outside the checkout is read or written.  One process drives
`chronolab run <config> --out <dir> --jobs 1` in-process as a closed
loop: each pass runs the workload's scenarios in order, and the next pass
starts when the previous one has finished and its wall time would still
fit in `--seconds`.  There is always at least one pass.

`--trace 0` reports the end-to-end metrics:
  setup_s      median wall time of SETUP_PROBES fresh interpreters that
               import chronolab's CLI and validate the workload's configs
  wall_s       median time of one pass (validate, compute, write) in
               reference seconds: wall time rescaled piece by piece by the
               host's speed, sampled during the pass (bench/speed.py)
  peak_rss_mb  peak resident memory of this process
  accuracy_dev the workload's headline deviation: |slope + 1| on the two
               scans, the two-route max_deviation on scenario-mix

`--trace 1` reports the per-layer metrics of bench/spans.py from traced
passes, alternated with untraced ones to measure the tracing overhead.

Every scenario run is checked (exit code 0, manifest.json written,
acceptance bounds read back from the tables, tables identical in every
pass); `attempted` and `failed` count scenario runs.  The last line of
standard output is one JSON object; the full record, with environment
and spans, goes to `.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1  # one process, --jobs 1; set for this process and its children
SETUP_PROBES = 7
MIN_COVERAGE = 0.9  # share of a traced pass that layer spans must cover
PROBE_TIMEOUT_S = 60

# span -> workloads it must appear on; zero calls there means "missing"
EXPECTED = {
    "solve_directed_state": ("quantum-scan", "scenario-mix"),
    "solve_system_basis": ("quantum-scan", "scenario-mix"),
    "conditional_from_composite": ("quantum-scan",),
    "tdse_residual": ("quantum-scan",),
    "emergence_scan": ("quantum-scan",),
    "propagate_amplitudes": ("scenario-mix",),
    "propagate_tdse": ("scenario-mix",),
    "integrate_composite": ("classical-scan",),
    "integrate_driven_system": ("classical-scan",),
    "CouplingDrive.calls": ("classical-scan", "scenario-mix"),
    "TimeMap.r_of_t.calls": ("classical-scan", "scenario-mix"),
    "clock_time_map": ("classical-scan", "scenario-mix"),
    "compare_composite_reduced": ("classical-scan",),
    "minimize_action_path": ("scenario-mix",),
    "lbfgs": ("scenario-mix",),
    "quantum_time": ("scenario-mix",),
    "validate_config": tuple(workloads.WORKLOADS),
    "write_csv": tuple(workloads.WORKLOADS),
}

# per-layer metric -> (span, summary field, unit); counts come from the
# first traced pass, times are medians over traced passes
LAYER = {
    "solve_directed_state.calls": ("solve_directed_state", "calls", "count"),
    "solve_directed_state.self_s": ("solve_directed_state", "self_s", "s"),
    "solve_directed_state.points": ("solve_directed_state", "points", "count"),
    "solve_directed_state.points_max": ("solve_directed_state", "points_max", "count"),
    "solve_directed_state.residual_max": ("solve_directed_state", "residual_max", "1"),
    "solve_system_basis.calls": ("solve_system_basis", "calls", "count"),
    "solve_system_basis.self_s": ("solve_system_basis", "self_s", "s"),
    "conditional_from_composite.calls": ("conditional_from_composite", "calls", "count"),
    "conditional_from_composite.self_s": ("conditional_from_composite", "self_s", "s"),
    "tdse_residual.calls": ("tdse_residual", "calls", "count"),
    "tdse_residual.self_s": ("tdse_residual", "self_s", "s"),
    "propagate_amplitudes.calls": ("propagate_amplitudes", "calls", "count"),
    "propagate_amplitudes.self_s": ("propagate_amplitudes", "self_s", "s"),
    "propagate_amplitudes.steps": ("propagate_amplitudes", "steps", "count"),
    "propagate_amplitudes.population_drift":
        ("propagate_amplitudes", "population_drift_max", "1"),
    "propagate_tdse.calls": ("propagate_tdse", "calls", "count"),
    "propagate_tdse.self_s": ("propagate_tdse", "self_s", "s"),
    "propagate_tdse.steps": ("propagate_tdse", "steps", "count"),
    "propagate_tdse.norm_drift": ("propagate_tdse", "norm_drift_max", "1"),
    "emergence_scan.self_s": ("emergence_scan", "self_s", "s"),
    "integrate_composite.calls": ("integrate_composite", "calls", "count"),
    "integrate_composite.self_s": ("integrate_composite", "self_s", "s"),
    "integrate_composite.steps": ("integrate_composite", "steps", "count"),
    "integrate_composite.energy_drift_max":
        ("integrate_composite", "energy_drift_max", "1"),
    "integrate_driven_system.calls": ("integrate_driven_system", "calls", "count"),
    "integrate_driven_system.self_s": ("integrate_driven_system", "self_s", "s"),
    "integrate_driven_system.steps": ("integrate_driven_system", "steps", "count"),
    "CouplingDrive.calls": ("CouplingDrive.calls", "calls", "count"),
    "TimeMap.r_of_t.calls": ("TimeMap.r_of_t.calls", "calls", "count"),
    "clock_time_map.calls": ("clock_time_map", "calls", "count"),
    "clock_time_map.self_s": ("clock_time_map", "self_s", "s"),
    "compare_composite_reduced.self_s": ("compare_composite_reduced", "self_s", "s"),
    "minimize_action_path.calls": ("minimize_action_path", "calls", "count"),
    "minimize_action_path.self_s": ("minimize_action_path", "self_s", "s"),
    "lbfgs.calls": ("lbfgs", "calls", "count"),
    "lbfgs.self_s": ("lbfgs", "self_s", "s"),
    "lbfgs.nit": ("lbfgs", "nit", "count"),
    "lbfgs.nfev": ("lbfgs", "nfev", "count"),
    "quantum_time.calls": ("quantum_time", "calls", "count"),
    "quantum_time.self_s": ("quantum_time", "self_s", "s"),
    "validate_config.self_s": ("validate_config", "self_s", "s"),
    "write_csv.calls": ("write_csv", "calls", "count"),
    "write_csv.self_s": ("write_csv", "self_s", "s"),
    "write_csv.rows": ("write_csv", "rows", "count"),
    "write_csv.bytes": ("write_csv", "bytes", "count"),
}
TIMES = ("self_s", "total_s")
SCENARIO_NAMES = tuple(dict.fromkeys(n for ns in workloads.WORKLOADS.values() for n in ns))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_chronolab():
    """chronolab from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "chronolab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark error: no chronolab sources under {src}")
    sys.path.insert(0, str(src))
    import chronolab
    from chronolab import cli, scenarios

    if Path(chronolab.__file__).resolve().parent != src / "chronolab":
        raise SystemExit(f"benchmark error: imported chronolab from {chronolab.__file__}")
    return chronolab, cli, scenarios


def environment(chronolab) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "chronolab": chronolab.__version__,
        "load": "1 process, closed loop, chronolab run --jobs 1",
    }


# ---------------------------------------------------------------------------
# passes


def setup_times(paths) -> tuple:
    """Wall and reference times of fresh interpreters (the median absorbs a
    first one that fills the bytecode cache).  Each probe reports the
    host's speed over its own run, which rescales its wall time."""
    cmd = [sys.executable, "-I", str(Path(__file__).with_name("setup_probe.py")),
           str(ROOT), *map(str, paths)]
    walls, refs = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark error: set-up probe failed:\n{proc.stderr}")
        refs.append(walls[-1] * float(proc.stdout.split()[-1]))
    return walls, refs


def run_pass(cli, docs, paths, out_root: Path, metered: bool) -> tuple:
    """One closed-loop pass; returns (wall seconds, reference seconds or
    None when not metered, exit codes, captured text)."""
    for doc in docs:
        shutil.rmtree(out_root / doc["scenario"], ignore_errors=True)
    buf = io.StringIO()
    codes = []
    meter = speed.Meter() if metered else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        with meter:
            for doc, path in zip(docs, paths):
                try:
                    code = cli.main(["run", str(path), "--out",
                                     str(out_root / doc["scenario"]), "--jobs", "1"])
                except Exception:  # the CLI process would exit 1 with this traceback
                    traceback.print_exc()
                    code = 1
                codes.append(code)
        wall = time.perf_counter() - t0
    if metered:  # the kernel samples are not the program's time
        wall = meter.wall
    return wall, meter.reference if metered else None, codes, buf.getvalue()


def check_pass(docs, codes, out_root: Path, digests: dict) -> tuple:
    """Problems per scenario run of one pass, and the headline numbers.

    `digests` holds each scenario's table hashes from the first pass;
    later passes must write identical tables.
    """
    problems = []
    headline = {}
    for doc, code in zip(docs, codes):
        name = doc["scenario"]
        out = out_root / name
        found = []
        if code != 0:
            found.append(f"{name}: exit code {code}")
        if not (out / "manifest.json").is_file():
            found.append(f"{name}: no manifest.json")
        if not found:
            try:
                found, numbers = workloads.check_outputs(doc, out)
                headline.update(numbers)
            except (OSError, KeyError, IndexError, ValueError) as exc:
                found = [f"{name}: unreadable output: {type(exc).__name__}: {exc}"]
        tables = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.glob("*.csv"))}
        if digests.setdefault(name, tables) != tables:
            found.append(f"{name}: tables differ from the first pass")
        problems.append(found)
    return problems, headline


class Loop:
    """Closed-loop passes with their checks and failure counts."""

    def __init__(self, cli, docs, paths, out_root):
        self.cli, self.docs, self.paths, self.out_root = cli, docs, paths, out_root
        self.attempted = 0
        self.failures = []
        self.headline = {}
        self._digests = {}

    def once(self, metered: bool = False) -> tuple:
        """(wall, reference) seconds of one pass; reference is None unless metered."""
        wall, reference, codes, text = run_pass(self.cli, self.docs, self.paths,
                                                self.out_root, metered)
        problems, headline = check_pass(self.docs, codes, self.out_root, self._digests)
        self.attempted += len(problems)
        bad = [p for p in problems if p]
        if bad:
            print(text, file=sys.stderr)
            self.failures.extend("; ".join(p) for p in bad)
        self.headline = self.headline or headline
        return wall, reference


def end_to_end(loop: Loop, seconds: float, paths) -> tuple:
    setup_walls, setup = setup_times(paths)
    walls, refs = [], []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() + walls[-1] <= t_end:
        wall, ref = loop.once(metered=True)
        walls.append(wall)
        refs.append(ref)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    key = "two_route_dev" if "two_route_dev" in loop.headline else "slope_dev"
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(refs), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    if key in loop.headline:
        metrics["accuracy_dev"] = (loop.headline[key], "1")
    samples = {"setup_s": setup, "wall_s": refs,
               "setup_wall_s": setup_walls, "pass_wall_s": walls}
    return metrics, samples, {}


def traced(loop: Loop, seconds: float, workload: str) -> tuple:
    """Warm-up pass, then traced and untraced passes alternately."""
    loop.once()
    plain, walls, summaries, records, namespaces = [], [], [], [], {}
    t_end = time.perf_counter() + seconds
    while not walls or not plain or time.perf_counter() + walls[-1] <= t_end:
        if len(walls) <= len(plain):
            recorder = spans.Recorder()
            installed = spans.Installed(recorder)
            try:
                walls.append(loop.once()[0])
            finally:
                installed.remove()
            namespaces = installed.namespaces
            summaries.append(recorder.summary())
            records.append(recorder.records())
        else:
            plain.append(loop.once()[0])

    metrics = {}
    first = summaries[0]
    for metric, (span, field, unit) in LAYER.items():
        if field in TIMES:
            value = statistics.median(s.get(span, {}).get(field, 0.0) for s in summaries)
        else:
            value = first.get(span, {}).get(field, 0)
        metrics[metric] = (value, unit)
    sdir = first.get("solve_directed_state", {})
    metrics["solve_directed_state.us_per_point"] = (
        1e6 * metrics["solve_directed_state.self_s"][0] / sdir["points"]
        if sdir.get("points") else 0.0, "us")
    comp = first.get("integrate_composite", {})
    metrics["integrate_composite.step_yield"] = (
        comp["steps"] / comp["taken"] if comp.get("taken") else 0.0, "1")
    for name in SCENARIO_NAMES:
        metrics[f"{name}.s"] = (statistics.median(
            s.get(spans.SCENARIO_PREFIX + name, {}).get("total_s", 0.0)
            for s in summaries), "s")
    metrics["scenarios.self_s"] = (statistics.median(
        sum(v["self_s"] for k, v in s.items() if k.startswith(spans.SCENARIO_PREFIX))
        for s in summaries), "s")
    wall = statistics.median(walls)
    # layer spans only: a scenario runner's self time is glue, not a layer
    covered = statistics.median(
        sum(v.get("self_s", 0.0) for k, v in s.items()
            if not k.startswith(spans.SCENARIO_PREFIX)) / w
        for s, w in zip(summaries, walls))
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - statistics.median(plain), "s")
    metrics["trace.coverage"] = (covered, "fraction")

    # counts must repeat exactly between traced passes
    unsteady = sorted({f"{span}.{key}" for s in summaries[1:] for span, agg in first.items()
                       for key, value in agg.items()
                       if key not in TIMES and s.get(span, {}).get(key) != value})

    expected = [spans.SCENARIO_PREFIX + n for n in workloads.WORKLOADS[workload]]
    expected += [span for span, where in EXPECTED.items() if workload in where]
    missing = [span for span in expected if not first.get(span, {}).get("calls")]
    for span in missing:
        name = span.removeprefix(spans.SCENARIO_PREFIX)
        for metric in [m for m in metrics if m == name or m.startswith(name + ".")]:
            del metrics[metric]
    samples = {"trace.wall_s": walls, "untraced_wall_s": plain}
    extra = {"missing": missing, "unsteady_counts": unsteady,
             "coverage_low": covered < MIN_COVERAGE,
             "namespaces": namespaces, "spans": records}
    return metrics, samples, extra


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    chronolab, cli, scenarios = import_chronolab()

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        docs = workloads.make_configs(args.workload, args.seed, scenarios.default_config)
        paths = workloads.write_configs(docs, work)
        loop = Loop(cli, docs, paths, work / "out")
        if args.trace:
            metrics, samples, extra = traced(loop, args.seconds, args.workload)
        else:
            metrics, samples, extra = end_to_end(loop, args.seconds, paths)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(loop.failures)
    correct = failed == 0 and not any(
        extra.get(k) for k in ("missing", "unsteady_counts", "coverage_low"))
    env = environment(chronolab)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "configs": docs,
        "attempted": loop.attempted, "failed": failed, "failures": loop.failures,
        "headline": loop.headline, "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    counts = ", ".join(f"{len(v)} {k} samples" for k, v in samples.items())
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s: {counts}; "
          f"{env['load']}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for name, values in samples.items():
        if name not in metrics:
            print(f"  {name + ' (median)':40s} {statistics.median(values):.6g} s")
    for name, value in loop.headline.items():
        print(f"  {name:40s} {value:.6g} 1")
    print(f"  {'error_rate':40s} {failed / max(loop.attempted, 1):.6g} fraction "
          f"({failed} of {loop.attempted} scenario runs failed)")
    for line in loop.failures:
        print(f"failed: {line}", file=sys.stderr)
    for name in extra.get("unsteady_counts", ()):
        print(f"unsteady: count {name} differs between traced passes", file=sys.stderr)
    if extra.get("coverage_low"):
        print(f"coverage: layer spans cover less than {MIN_COVERAGE:g} of the traced pass",
              file=sys.stderr)
    for span in extra.get("missing", ()):
        print(f"missing: boundary {span} recorded no calls on {args.workload}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
