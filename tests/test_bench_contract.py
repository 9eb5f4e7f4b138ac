"""The benchmark's span table against the library it wraps.

`bench/spans.py` wraps chronolab functions by module and attribute name
and reads their arguments by parameter name.  A rename in the library
would only make the benchmark report a boundary as missing; these tests
make it fail here instead.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def _argument_keys(probe) -> set:
    """Every constant key `k` of an `args["k"]` read in the probe's source."""
    tree = ast.parse(inspect.getsource(probe))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
            and isinstance(node.slice, ast.Constant)}


@pytest.mark.parametrize("name, module, attr, probe", SPANS.TIMED,
                         ids=[entry[0] for entry in SPANS.TIMED])
def test_timed_span_wraps_a_library_function(name, module, attr, probe):
    fn = getattr(importlib.import_module(f"{SPANS.PACKAGE}.{module}"), attr)
    assert callable(fn)
    if probe is not None:
        params = inspect.signature(fn).parameters
        keys = _argument_keys(probe)
        assert keys <= set(params), f"{name} probe reads {sorted(keys - set(params))}"


@pytest.mark.parametrize("name, module, cls_name, method", SPANS.COUNTED,
                         ids=[entry[0] for entry in SPANS.COUNTED])
def test_counted_span_wraps_a_library_method(name, module, cls_name, method):
    cls = getattr(importlib.import_module(f"{SPANS.PACKAGE}.{module}"), cls_name)
    assert callable(vars(cls)[method])


def test_probes_read_the_grid_arguments():
    read = {name: _argument_keys(probe) for name, _, _, probe in SPANS.TIMED if probe}
    assert read["solve_directed_state"] == {"r_grid"}
    assert read["propagate_amplitudes"] == read["propagate_tdse"] == {"t_grid"}


def test_a_run_looks_up_the_wrapped_stage_functions(tmp_path, monkeypatch):
    # the benchmark swaps `cli.validate_config` and `cli.write_csv` for its
    # wrappers after import, so a run must call them through the module
    from chronolab import cli

    calls = []
    for attr in ("validate_config", "write_csv"):
        def counted(*args, _fn=getattr(cli, attr), _attr=attr):
            calls.append(_attr)
            return _fn(*args)

        monkeypatch.setattr(cli, attr, counted)
    config = tmp_path / "config.json"
    config.write_text('{"scenario": "perfect-clock", "parameters": {"points": 11}}',
                      encoding="utf-8")
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    # one validation, one CSV per table (perfect_clock, summary)
    assert sorted(calls) == ["validate_config", "write_csv", "write_csv"]
