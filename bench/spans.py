"""Outside-in span recorder for the scenario benchmark.

The benchmark wraps, from its own files, the public functions each
chronolab layer exposes and records a span per call: name, start, end,
parent and the part of its interval that child spans cover, so a span's
self time is its duration minus that part.  Size and health numbers are
read off the arguments and the return value at the same boundary.

chronolab imports names by value (`from .stationary import
solve_directed_state` in both `dynamics` and `scenarios`), so a wrapper
is installed under every module attribute bound to the original object.
Scenario runners are looked up through the `SCENARIOS` registry and are
wrapped there.  Two per-sample callbacks, `CouplingDrive.__call__` and
`TimeMap.r_of_t`, are only counted: a span per sample would cost more
than the work it measures.

Spans assume one thread, which holds for `chronolab run --jobs 1`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter


def _directed(args, result):
    return {"points": args["r_grid"].n, "residual": result.residual}


def _amplitudes(args, result):
    return {"steps": len(args["t_grid"]) - 1,
            "population_drift": result.population_drift}


def _tdse(args, result):
    return {"steps": len(args["t_grid"]) - 1, "norm_drift": result.norm_drift}


def _composite(args, result):
    return {"steps": args["steps"], "taken": result.parameter.size - 1,
            "energy_drift": result.energy_drift}


def _driven(args, result):
    return {"steps": len(args["t_grid"]) - 1}


def _lbfgs(args, result):
    return {"nit": int(result.nit), "nfev": int(result.nfev)}


def _csv(args, result):
    return {"rows": len(args["table"].rows), "bytes": os.path.getsize(args["path"])}


# (span name, defining module, attribute, probe reading sizes and health)
TIMED = (
    ("solve_directed_state", "stationary", "solve_directed_state", _directed),
    ("solve_system_basis", "stationary", "solve_system_basis", None),
    ("conditional_from_composite", "dynamics", "conditional_from_composite", None),
    ("tdse_residual", "dynamics", "tdse_residual", None),
    ("propagate_amplitudes", "dynamics", "propagate_amplitudes", _amplitudes),
    ("propagate_tdse", "dynamics", "propagate_tdse", _tdse),
    ("emergence_scan", "dynamics", "emergence_scan", None),
    ("integrate_composite", "classical", "integrate_composite", _composite),
    ("integrate_driven_system", "classical", "integrate_driven_system", _driven),
    ("clock_time_map", "classical", "clock_time_map", None),
    ("compare_composite_reduced", "classical", "compare_composite_reduced", None),
    ("minimize_action_path", "classical", "minimize_action_path", None),
    ("lbfgs", "classical", "sp_minimize", _lbfgs),
    ("quantum_time", "semiclassical", "quantum_time", None),
    ("validate_config", "cli", "validate_config", None),
    ("write_csv", "cli", "write_csv", _csv),
)

# (counter name, defining module, class, method)
COUNTED = (
    ("CouplingDrive.calls", "classical", "CouplingDrive", "__call__"),
    ("TimeMap.r_of_t.calls", "classical", "TimeMap", "r_of_t"),
)

SCENARIO_PREFIX = "scenario:"
PACKAGE = "chronolab"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Recorder.spans, -1 at the top
    end: float = 0.0
    covered: float = 0.0  # seconds of [start, end] inside child spans
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def timed(self, name, fn, probe=None):
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                if span.parent >= 0:
                    self.spans[span.parent].covered += span.end - span.start
            if probe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = probe(bound.arguments, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """name -> calls, self_s, total_s and the summed/maxed probe values."""
        out = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += s.self_s
            agg["total_s"] += s.end - s.start
            for key, value in s.attrs.items():
                agg[key] = agg.get(key, 0) + value
                agg[key + "_max"] = max(agg.get(key + "_max", value), value)
        for name, n in self.counts.items():
            out[name] = {"calls": n}
        return out

    def records(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self_s": s.self_s, **s.attrs}
                for s in self.spans]


class Installed:
    """Wrappers installed for one recorder; `remove` restores the originals."""

    def __init__(self, recorder: Recorder):
        self._undo = []
        self.namespaces = {}
        modules = [m for k, m in sys.modules.items()
                   if (k == PACKAGE or k.startswith(PACKAGE + ".")) and m is not None]
        for name, module, attr, probe in TIMED:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = recorder.timed(name, original, probe)
            where = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
                        where.append(f"{mod.__name__}.{key}")
            self.namespaces[name] = sorted(where)
        for name, module, cls_name, method in COUNTED:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            self._set(cls, method, recorder.counted(name, vars(cls)[method]))
            self.namespaces[name] = [f"{cls.__module__}.{cls_name}.{method}"]
        registry = sys.modules[f"{PACKAGE}.scenarios"].SCENARIOS
        for key, scenario in list(registry.items()):
            runner = recorder.timed(SCENARIO_PREFIX + key, scenario.runner)
            self._undo.append((registry.__setitem__, key, scenario))
            registry[key] = dataclasses.replace(scenario, runner=runner)

    def _set(self, target, key, value):
        self._undo.append((functools.partial(setattr, target), key, getattr(target, key)))
        setattr(target, key, value)

    def remove(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)
