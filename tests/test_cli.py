"""Scenario registry and command-line driver, exercised through main()."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chronolab
from chronolab.cli import (
    BLOCK_ROWS,
    _cell,
    _config_hash,
    _schema_errors,
    load_config,
    main,
    validate_config,
    write_csv,
    write_json_table,
)
from chronolab.core import _loglog_slope
from chronolab.dynamics import directed_run
from chronolab.errors import (
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    StabilityError,
    TurningPointError,
)
from chronolab.scenarios import (
    MAX_GRID_CELLS,
    MAX_HESSIAN_ENTRIES,
    MAX_LANE_STEPS,
    SCENARIOS,
    Table,
    _table,
    config_schema,
    default_config,
    get_scenario,
)

BUILTINS = [
    "beam-on-atom",
    "classical-emergence",
    "emergence-scan",
    "harmonic-clock-two-level",
    "jacobi-paths",
    "perfect-clock",
]

# small, fast run used as the workhorse config in the driver tests
FAST_CLOCK = {
    "scenario": "perfect-clock",
    "seed": 0,
    "parameters": {"points": 101, "r_max": 2.0},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# registry


def test_registry_names():
    assert sorted(SCENARIOS) == BUILTINS


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError) as exc:
        get_scenario("no-such-thing")
    assert exc.value.path == "/scenario"


@pytest.mark.parametrize("name", BUILTINS)
def test_default_config_validates(name):
    doc = default_config(name)
    got_name, params = validate_config(doc)
    assert got_name == name
    assert params == doc["parameters"]
    schema = config_schema(name)
    assert schema["properties"]["scenario"]["const"] == name


# sha256 of each builtin's default config document
DEFAULT_HASHES = {
    "beam-on-atom": "c9c78d9ea5bb76a1b53ec4ed013b5735e2a115a46ec7286ef0a77d26295b8459",
    "classical-emergence": "9831bb3e5e961c180ff580798176d90496e69b4bdbf9b074390e9eae055c3b6a",
    "emergence-scan": "e610f6388b9f487204aed9652435e9572f79bf2ae0cb6ec3482c9b0ccd27e149",
    "harmonic-clock-two-level": "1866b82758061fb140d173c1c4c0f642aa5bc5658c40aef847d206e41a966f4f",
    "jacobi-paths": "6888a899d19c492d84abfe7c037c8457096810baa13c086d2444b5cefa2dea42",
    "perfect-clock": "1c70c1b5fccb2c45ccaf564e4fd79589289ee53c4c089eb58d17eb9818351cba",
}


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_defaults_are_pinned(name):
    assert _config_hash(default_config(name), "") == DEFAULT_HASHES[name]


def test_unknown_parameter_key_rejected():
    doc = default_config("perfect-clock")
    doc["parameters"]["tilt"] = 1.0
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert exc.value.path == "/parameters"


def test_bad_parameter_value_gets_pointer_path():
    doc = {"scenario": "perfect-clock", "parameters": {"points": 1}}
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert exc.value.path == "/parameters/points"
    assert str(exc.value).startswith("/parameters/points:")


def test_missing_scenario_key():
    with pytest.raises(ConfigError) as exc:
        validate_config({"parameters": {}})
    assert exc.value.path == "/scenario"


# ---------------------------------------------------------------------------
# the schema reader, with jsonschema as its oracle


def _subschemas(schema: dict):
    """`schema` and every schema under it: properties, items, anyOf branches."""
    yield schema
    below = [*schema.get("properties", {}).values(), *schema.get("anyOf", ())]
    for sub in below + ([schema["items"]] if "items" in schema else []):
        yield from _subschemas(sub)


@pytest.mark.parametrize("name", BUILTINS)
def test_schema_reader_reads_every_keyword_of_the_schemas(name):
    for node in _subschemas(config_schema(name)):
        # the reader reads each keyword of a node whatever the value, and
        # raises on a keyword or a type name that it does not know
        list(_schema_errors(None, node))
        # const and enum compare with ==, which is JSON Schema's equality
        # for strings (not for true against 1)
        assert all(isinstance(v, str) for v in [*node.get("enum", ()), node.get("const", "")])


def test_schema_reader_refuses_a_keyword_it_does_not_read():
    with pytest.raises(ValueError, match="multipleOf"):
        list(_schema_errors(4, {"type": "integer", "multipleOf": 3}))


def _first_error(errors) -> tuple | None:
    """(pointer, message) of the first (path, message) pair under the
    order validate_config reports in, or None."""
    errors = sorted(errors, key=lambda e: [str(x) for x in e[0]])
    return ("/" + "/".join(str(x) for x in errors[0][0]), errors[0][1]) if errors else None


# a value of every JSON kind, numbers finite and integral floats among them
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 300), st.integers(-2, 300).map(float),
    st.sampled_from((0.5, 1e-300, 1e300, -7.25)), st.sampled_from(("", "none", "system", "x")),
    st.lists(st.integers(-1, 3) | st.sampled_from((0.5, True, "a")), max_size=3),
    st.dictionaries(st.sampled_from(("a", "points")), st.integers(0, 3), max_size=2))
# numbers at and around the schemas' bounds (minima 0 to 3, maximum 1)
_NEAR_BOUNDS = st.sampled_from((-1, 0, 0.0, -0.5, 0.5, 1, 1.0, 1.5, 2, 2.5, 3, 3.0))


@st.composite
def _mutated_configs(draw):
    """(name, config): a builtin's default config with one to four of:
    a parameter or an array item replaced by any value or by a number near
    the bounds, an array cut short, a key added at the top or among the
    parameters, a top-level entry replaced or dropped, and another
    builtin's scenario, which `name`'s schema rejects by its const."""
    name = draw(st.sampled_from(BUILTINS))
    doc = default_config(name)
    keys = sorted(SCENARIOS[name].properties)
    arrays = [k for k in keys if SCENARIOS[name].properties[k].get("type") == "array"]
    for _ in range(draw(st.integers(1, 4))):
        params = doc["parameters"] if isinstance(doc.get("parameters"), dict) else {}
        kind = draw(st.sampled_from(("value", "number", "item", "short", "extra", "top",
                                     "drop", "scenario")))
        if kind in ("value", "number"):
            params[draw(st.sampled_from(keys))] = draw(_ANY_VALUE if kind == "value" else _NEAR_BOUNDS)
        elif kind in ("item", "short") and arrays:
            items = params.setdefault(draw(st.sampled_from(arrays)), [])
            at = draw(st.integers(0, len(items))) if isinstance(items, list) else None
            if kind == "item" and at is not None and at < len(items):
                items[at] = draw(_ANY_VALUE | _NEAR_BOUNDS)
            elif at is not None:
                del items[at:]
        elif kind == "extra":
            where = draw(st.sampled_from((doc, params)))
            where[draw(st.sampled_from(("tilt", "0", "aa", "zz")))] = draw(_ANY_VALUE)
        elif kind == "top":
            doc[draw(st.sampled_from(("seed", "out", "parameters")))] = draw(_ANY_VALUE)
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(("scenario", "seed", "parameters"))), None)
        elif kind == "scenario":
            doc["scenario"] = draw(st.sampled_from(BUILTINS))
    return name, doc


@settings(max_examples=400)
@given(case=_mutated_configs())
def test_schema_reader_reports_the_first_error_jsonschema_reports(case):
    name, doc = case
    schema = config_schema(name)
    expected = _first_error((e.absolute_path, e.message)
                            for e in jsonschema.Draft202012Validator(schema).iter_errors(doc))
    assert _first_error(_schema_errors(doc, schema)) == expected
    if doc.get("scenario") == name and expected is not None:
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert (exc.value.path, exc.value.args[0]) == expected


# one config per wording, with the pointer and message validate_config reports
WORDINGS = [
    ("perfect-clock", {"parameters": {"tilt": 1}},
     "/parameters", "Additional properties are not allowed ('tilt' was unexpected)"),
    ("perfect-clock", {"parameters": {"tilt": 1, "bend": 2}, "extra": 0},
     "/", "Additional properties are not allowed ('extra' was unexpected)"),
    ("perfect-clock", {"parameters": {"tilt": 1, "bend": 2}},
     "/parameters", "Additional properties are not allowed ('bend', 'tilt' were unexpected)"),
    ("perfect-clock", {"parameters": {"points": 1}},
     "/parameters/points", "1 is less than the minimum of 3"),
    ("perfect-clock", {"parameters": {"clock_mass": 0}},
     "/parameters/clock_mass", "0 is less than or equal to the minimum of 0"),
    ("harmonic-clock-two-level", {"parameters": {"duration_fraction": 1.5}},
     "/parameters/duration_fraction", "1.5 is greater than the maximum of 1"),
    ("perfect-clock", {"parameters": {"points": 10.5}},
     "/parameters/points", "10.5 is not of type 'integer'"),
    ("perfect-clock", {"parameters": {"clock_mass": True}},
     "/parameters/clock_mass", "True is not of type 'number'"),
    ("perfect-clock", {"parameters": [], "seed": -1, "out": 3},
     "/out", "3 is not of type 'string'"),
    ("perfect-clock", {"parameters": [], "seed": -1},
     "/parameters", "[] is not of type 'object'"),
    ("perfect-clock", {"seed": -1}, "/seed", "-1 is less than the minimum of 0"),
    ("jacobi-paths", {"parameters": {"masses": []}}, "/parameters/masses", "[] should be non-empty"),
    ("jacobi-paths", {"parameters": {"masses": 1.0}},
     "/parameters/masses", "1.0 is not of type 'array'"),
    ("jacobi-paths", {"parameters": {"masses": [1.0, "2"]}},
     "/parameters/masses/1", "'2' is not of type 'number'"),
    ("jacobi-paths", {"parameters": {"stiffness": -0.5}},
     "/parameters/stiffness", "-0.5 is less than the minimum of 0"),
    ("classical-emergence", {"parameters": {"energies": [20.0]}},
     "/parameters/energies", "[20.0] is too short"),
    ("classical-emergence", {"parameters": {"clock_energy_offset": "clock"}},
     "/parameters/clock_energy_offset", "'clock' is not valid under any of the given schemas"),
    # the second spellings are gone: the free path is stiffness 0, the untuned clock 0.0
    ("jacobi-paths", {"parameters": {"well": "none"}},
     "/parameters", "Additional properties are not allowed ('well' was unexpected)"),
    ("classical-emergence", {"parameters": {"clock_energy_offset": "none"}},
     "/parameters/clock_energy_offset", "'none' is not valid under any of the given schemas"),
    ("perfect-clock", {"parameters": {"points": 10**30}},
     "/parameters/points", f"{10**30} is greater than the maximum of 10000000"),
]


@pytest.mark.parametrize("name, doc, pointer, message", WORDINGS)
def test_each_wording_is_the_one_jsonschema_reports(name, doc, pointer, message):
    doc = {"scenario": name, **doc}
    errors = jsonschema.Draft202012Validator(config_schema(name)).iter_errors(doc)
    assert _first_error((e.absolute_path, e.message) for e in errors) == (pointer, message)
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert (exc.value.path, exc.value.args[0]) == (pointer, message)


def _number_slots(name: str):
    """(pointer, setter) of the top-level seed and of each number in the
    parameters of `name`'s default config: a scalar, or an array's first item."""
    yield "/seed", lambda doc, v: doc.__setitem__("seed", v)
    for key, schema in SCENARIOS[name].properties.items():
        item = schema.get("items", schema)
        if {"number", "integer"} & {s.get("type") for s in item.get("anyOf", [item])}:
            if "items" in schema:
                yield f"/parameters/{key}/0", lambda doc, v, k=key: doc["parameters"][k].__setitem__(0, v)
            else:
                yield f"/parameters/{key}", lambda doc, v, k=key: doc["parameters"].__setitem__(k, v)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", BUILTINS)
def test_a_number_that_is_not_finite_is_a_config_error(name, value):
    slots = list(_number_slots(name))
    assert len(slots) > 1
    for pointer, put in slots:
        doc = default_config(name)
        put(doc, value)
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert exc.value.path == pointer
        assert exc.value.args[0] in (f"{value!r} is not a finite number",
                                     f"{value!r} is not valid under any of the given schemas")


@pytest.mark.parametrize("name", BUILTINS)
def test_an_integer_beyond_the_float_range_is_a_config_error(name):
    # a JSON integer has no size limit, but every parameter is read as a float
    for value in (10**400, -(10**400)):
        for pointer, put in _number_slots(name):
            doc = default_config(name)
            put(doc, value)
            with pytest.raises(ConfigError) as exc:
                validate_config(doc)
            assert exc.value.path == pointer
            assert exc.value.args[0] in ("an integer of 1329 bits is not a finite number",
                                         f"{value!r} is not valid under any of the given schemas")
    # the largest integer a float holds is still a number
    assert not list(_schema_errors(int(sys.float_info.max), {"type": "number"}))


def _validate_and_run(tmp_path, text: str) -> tuple:
    """Exit codes of `validate` and `run` on a config file holding `text`,
    their stderr, and the run's stages as (name, status) pairs."""
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        codes = main(["validate", str(cfg)]), main(["run", str(cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return codes, err.getvalue(), [(s["name"], s["status"]) for s in manifest["stages"]]


def test_an_integer_without_a_float_exits_2_on_validate_and_run(tmp_path):
    # 10^400 passed the schema, and the run died in numpy as an internal error
    codes, err, stages = _validate_and_run(
        tmp_path, '{"scenario": "perfect-clock", "parameters": {"r_max": 1%s}}' % ("0" * 400))
    assert codes == (2, 2)
    line = "config error: /parameters/r_max: an integer of 1329 bits is not a finite number\n"
    assert err.count(line) == 2
    assert "Traceback" not in err
    assert stages == [("validate", "failed")]


def test_an_integer_literal_past_the_digit_limit_exits_2_on_validate_and_run(tmp_path):
    # Python's JSON reader refuses an integer literal of more than 4,300 digits
    # with a plain ValueError, which is not a JSONDecodeError
    codes, err, stages = _validate_and_run(
        tmp_path, '{"scenario": "perfect-clock", "parameters": {"r_max": 1%s}}' % ("0" * 4999))
    assert codes == (2, 2)
    assert err.count("config error: /: config holds a number too long to read: ") == 2
    assert "value has 5000 digits" in err
    assert "Traceback" not in err
    assert stages == [("validate", "failed")]


@pytest.mark.parametrize("key", ["pulse_amplitude", "pulse_center_fraction"])
def test_a_nan_scan_parameter_exits_2_before_the_scan(tmp_path, capsys, key):
    # Python's json reads NaN; before the check the scan ran and wrote NaN tables
    cfg = write_config(tmp_path, {"scenario": "emergence-scan", "parameters": {key: math.nan}})
    assert "NaN" in Path(cfg).read_text(encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert f"/parameters/{key}: nan is not a finite number" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_partial_parameters_merge_with_defaults():
    name, params = validate_config(FAST_CLOCK)
    assert name == "perfect-clock"
    assert params["points"] == 101
    assert params["clock_mass"] == default_config(name)["parameters"]["clock_mass"]


def test_perfect_clock_tables_have_expected_shape():
    tables = SCENARIOS["perfect-clock"].run(validate_config(FAST_CLOCK)[1])
    assert set(tables) == {"perfect_clock", "summary"}
    assert tables["perfect_clock"].columns == (
        "r", "re_tau", "im_tau", "exact_t", "abs_error")
    assert len(tables["perfect_clock"].rows) == 101
    summary = dict(zip(tables["summary"].columns, tables["summary"].rows[0]))
    # coarse grid: finite-difference phase error only, still well bounded
    assert summary["max_rel_error"] < 1e-2
    assert summary["max_imag_fraction"] < 1e-6


def test_beam_on_atom_time_runs_at_the_lattice_group_velocity():
    # t = (r - r0) / v_g with v_g = hbar sin(k h) / (M h) on the fine grid
    # of the directed solve, k its plane wave at the total energy
    params = default_config("beam-on-atom")["parameters"]
    cfg = get_scenario("beam-on-atom").config(**params)
    state = directed_run(cfg, cfg.system_basis(), cfg.kinetic_energy)
    M, hbar, h = cfg.clock_mass, cfg.hbar, state.fine_spacing
    k = np.arccos(1.0 - M * h * h * state.energy / hbar**2) / h
    v_g = hbar * np.sin(k * h) / (M * h)
    table = SCENARIOS["beam-on-atom"].run(params)["channel_populations"]
    r, t = np.array([row[:2] for row in table.rows]).T
    np.testing.assert_allclose(t, (r - r[0]) / v_g, rtol=1e-12, atol=0.0)
    # the continuum clock p / M runs faster by about (k h)^2 / 6
    p = np.sqrt(2.0 * M * state.energy)
    assert (r[-1] - r[0]) * M / p < t[-1] * (1.0 - 1e-5)


def test_load_config_builtin_name_gives_defaults():
    assert load_config("perfect-clock") == default_config("perfect-clock")


def test_load_config_missing_file():
    with pytest.raises(ConfigError) as exc:
        load_config("does-not-exist.json")
    assert exc.value.path == "/"


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    if kind == "directory":
        cfg = tmp_path / "config.d"
        cfg.mkdir()
    else:  # Latin-1 bytes, not UTF-8
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"scenario": "perfect-clock", "out": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ConfigError) as exc:
        load_config(str(cfg))
    assert exc.value.path == "/"
    out = tmp_path / "out"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: /: cannot read config")
        assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    [stage] = manifest["stages"]
    assert (stage["name"], stage["status"]) == ("validate", "failed")
    assert stage["detail"] == {"path": "/"}


@pytest.mark.parametrize("name", BUILTINS)
def test_integer_fields_accept_integral_floats(name):
    # jsonschema counts 101.0 as an integer; the runners need an int
    defaults = SCENARIOS[name].defaults
    keys = [k for k, prop in SCENARIOS[name].properties.items() if prop.get("type") == "integer"]
    assert keys
    for key in keys:
        doc = {"scenario": name, "parameters": {key: float(defaults[key])}}
        _, params = validate_config(doc)
        assert params == defaults
        assert type(params[key]) is int


def test_integral_float_points_write_the_same_csvs(tmp_path):
    outs = []
    for points in (101, 101.0):
        doc = {**FAST_CLOCK, "parameters": {**FAST_CLOCK["parameters"], "points": points}}
        outs.append(tmp_path / f"out-{points!r}")
        assert main(["run", write_config(tmp_path, doc), "--out", str(outs[-1])]) == 0
    for fname in ("perfect_clock.csv", "summary.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


# ---------------------------------------------------------------------------
# driver commands


def test_version_command(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == chronolab.__version__


def test_list_command_text(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        assert name in out


def test_list_command_json(capsys):
    assert main(["list", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [item["name"] for item in doc] == BUILTINS
    assert all(item["description"] for item in doc)


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_exits_2_in_the_parser(tmp_path, capsys, jobs):
    # refused as --format xml is: before any stage runs or any file is written
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "perfect-clock", "--jobs", jobs, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --jobs: {jobs!r} is not an integer of at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_validate_command_accepts_builtin(capsys):
    assert main(["validate", "perfect-clock"]) == 0
    assert "ok: perfect-clock" in capsys.readouterr().out


def test_validate_command_rejects_bad_value(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "perfect-clock",
                                  "parameters": {"clock_mass": -3}})
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert "/parameters/clock_mass" in err


def test_a_count_past_the_array_bound_exits_2(tmp_path, capsys):
    # without a maximum, 10^30 points passed validate and failed allocating
    cfg = write_config(tmp_path, {"scenario": "perfect-clock",
                                  "parameters": {"points": 10**30}})
    for argv in (["validate", cfg], ["run", cfg, "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert (f"/parameters/points: {10**30} is greater than the maximum of 10000000"
                in capsys.readouterr().err)


@pytest.mark.parametrize("time_steps, code", [(4_999_999, 0), (5_000_000, 2), (10**7, 2)])
def test_a_two_level_grid_past_the_bound_is_refused(tmp_path, capsys, time_steps, code):
    # (2 time_steps + 1) x_points complex cells; validated only, never run
    doc = {"scenario": "harmonic-clock-two-level",
           "parameters": {"time_steps": time_steps, "x_points": 15}}
    assert ((2 * time_steps + 1) * 15 > MAX_GRID_CELLS) == bool(code)
    assert main(["validate", write_config(tmp_path, doc)]) == code
    err = capsys.readouterr().err
    if code:
        assert "config error: /parameters/time_steps: " in err
        assert "above the bound of 1.5e+08" in err


# array-sizing products of the other scenarios, at and one step past their
# bounds: the classical composite's last attempt, (steps + 1) x 5 default
# energies x 2^3 lane steps, and the path minimizer's dense ((segments - 1) 2)^2
# Hessian; validated only, never run
SIZING_PRODUCTS = [
    ("classical-emergence", "steps", 399_999, 0),
    ("classical-emergence", "steps", 400_000, 2),
    ("classical-emergence", "steps", 10_000_000, 2),
    ("jacobi-paths", "segments", 2_501, 0),
    ("jacobi-paths", "segments", 2_502, 2),
    ("jacobi-paths", "segments", 20_000, 2),
]


@pytest.mark.parametrize("name, key, value, code", SIZING_PRODUCTS,
                         ids=[f"{name}-{value}" for name, _, value, _ in SIZING_PRODUCTS])
def test_an_array_sizing_product_past_its_bound_is_refused(tmp_path, capsys, name, key, value,
                                                           code):
    product = ((value + 1) * 5 * 8 if name == "classical-emergence" else (2 * (value - 1)) ** 2)
    bound = MAX_LANE_STEPS if name == "classical-emergence" else MAX_HESSIAN_ENTRIES
    assert (product > bound) == bool(code)
    doc = {"scenario": name, "parameters": {key: value}}
    assert main(["validate", write_config(tmp_path, doc)]) == code
    err = capsys.readouterr().err
    if code:
        assert f"config error: /parameters/{key}: " in err
        assert f"above the bound of {bound:.1e}" in err


def test_run_writes_tables_and_manifest(tmp_path):
    cfg = write_config(tmp_path, FAST_CLOCK)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "perfect_clock.csv").exists()
    assert (out / "summary.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["scenario"] == "perfect-clock"
    assert manifest["seed"] == 0
    assert manifest["artifact_version"] == chronolab.__version__
    assert len(manifest["config_sha256"]) == 64
    assert [s["status"] for s in manifest["stages"]] == ["ok", "ok", "ok"]
    assert len(manifest["outputs"]) == 2
    header = (out / "perfect_clock.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "r,re_tau,im_tau,exact_t,abs_error"


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, FAST_CLOCK)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out_a)]) == 0
    assert main(["run", cfg, "--out", str(out_b)]) == 0
    for fname in ("perfect_clock.csv", "summary.csv"):
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()


# sha256 of every CSV each built-in scenario writes at its defaults, at any
# BLAS thread count; a change that moves a digit updates the hash and says so
DEFAULT_CSV_HASHES = {
    "beam-on-atom": {
        "channel_populations.csv": "7e16f1c6bbda584bccfeafdbee5409d858aba4057caafea6e939895983ccbb1a",
        "summary.csv": "9370cb3d1df0105b9e8ca5c46054ca599ade7058dabe02abf50931722046a508",
    },
    "classical-emergence": {
        "classical_emergence.csv": "af65d189a7c98bc9385af4dc8e64b42d0d146ec8e5294285a44deefc247d89b5",
        "summary.csv": "2a3f2c939e4210f86aa03498c467fa3b20328139be0a2256e7fd7e670961eead",
    },
    "emergence-scan": {
        "emergence_scan.csv": "e474f5c9c9356da1ed6bdb1663b50f317336e7ad7ea01320b94f996df8915eb2",
        "scan_details.csv": "0b102e396f1e3f57630aa7cb5ff2dde75a93c06ba27cd12c7dabb38411ae5f9d",
    },
    "harmonic-clock-two-level": {
        "summary.csv": "7d66fb625c1c3ca05c3f6fed50f6058e76e3cd34c5a64ea92e5cbd6c12e28c57",
        "two_level.csv": "12859d6827516dec18161a8d10ecf28c56e6281810d9f17df55fc994cb03a1f4",
    },
    "jacobi-paths": {
        "path.csv": "4bd5b4913319e4394d0104d6ccbd0388297dd7c23cd1cb8f9d0de273a2c6223e",
        "summary.csv": "cddd71648a0afa1edf0ae7c490aa92e2f43077a534277b4aff27bdd3727826ce",
    },
    "perfect-clock": {
        "perfect_clock.csv": "e2430f4f8fc9085036c6a27cfc095a29065cc26987c09697e5946d2eb3f93014",
        "summary.csv": "0e60873abda57a51afa48815edb38b5f53b664afa4ef5b97d817bcb122d183b4",
    },
}


def _run_python(*args: str, threads: int | None = None) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter with `threads` BLAS threads,
    or with this process's thread settings if `threads` is None.

    The child imports the same chronolab as this test.
    """
    src = str(Path(chronolab.__file__).resolve().parents[1])
    limit = {} if threads is None else {
        k: str(threads) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src, **limit},
    )


def _run_child(*args: str, threads: int | None = None) -> subprocess.CompletedProcess:
    """`python -m chronolab.cli *args` in a child, threads as in `_run_python`."""
    return _run_python("-m", "chronolab.cli", *args, threads=threads)


@pytest.mark.parametrize("name", sorted(DEFAULT_CSV_HASHES))
def test_default_csvs_are_pinned(tmp_path, name):
    out = tmp_path / "out"
    proc = _run_child("run", name, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert written == DEFAULT_CSV_HASHES[name]


# sha256 of the directed state's amplitudes, (fine R rows, stride): the
# beam-on-atom defaults and the top point of the default emergence scan.
# The blocked scan's arithmetic is pinned bit for bit.
DIRECTED_AMPLITUDE_HASHES = {
    "beam-on-atom": (12001, 3, "d1910ccff0973ce11f0e5dd55357efbc9007e211fd0235285fcd6827a5ea5441"),
    "emergence-scan": (52001, 13,
                       "b7cd52c54abb14540f875752efce88c2955d22bca5bf575cbe1a80db5df80b65"),
}


def test_directed_amplitudes_are_pinned_bit_for_bit():
    code = """
import hashlib, json
from chronolab.dynamics import EmergenceScanConfig, directed_run
from chronolab.scenarios import BeamOnAtomConfig
beam, scan = BeamOnAtomConfig(), EmergenceScanConfig()
out = {}
for name, cfg, e_kin in (("beam-on-atom", beam, beam.kinetic_energy),
                         ("emergence-scan", scan, max(scan.kinetic_energies))):
    state = directed_run(cfg, cfg.system_basis(), e_kin)
    out[name] = [state.fine_points, state.stride,
                 hashlib.sha256(state.amplitudes.tobytes()).hexdigest()]
print(json.dumps(out))
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    got = {name: tuple(v) for name, v in json.loads(proc.stdout).items()}
    assert got == DIRECTED_AMPLITUDE_HASHES


# the default tables whose bytes do not depend on the BLAS thread count
THREAD_FREE_CSVS = {
    "beam-on-atom": ("channel_populations.csv", "summary.csv"),
    "emergence-scan": ("emergence_scan.csv", "scan_details.csv"),
    "harmonic-clock-two-level": ("summary.csv", "two_level.csv"),
}


@pytest.mark.parametrize("name", sorted(THREAD_FREE_CSVS))
def test_gram_product_tables_do_not_depend_on_the_thread_count(tmp_path, name):
    written = {}
    for threads in (1, 2):
        out = tmp_path / str(threads)
        proc = _run_child("run", name, "--out", str(out), threads=threads)
        assert proc.returncode == 0, proc.stderr
        written[threads] = {f: (out / f).read_bytes() for f in THREAD_FREE_CSVS[name]}
    assert written[1] == written[2]


# sha256 of every `--format json` table each built-in scenario writes at its
# defaults, at any BLAS thread count
DEFAULT_JSON_HASHES = {
    "beam-on-atom": {
        "channel_populations.json": "476c5065e81a17fb8b4c380de156a73c30d4e43dcc07727c38f592c814b1d5ae",
        "summary.json": "cea237ef2ec401c45677c91430085d00dc206eda13bfb8f5b12aeced3ad1aa93",
    },
    "classical-emergence": {
        "classical_emergence.json": "e7b3db6874caf38a4760a1236a5f277fd5ca5eaeee2ea4118a5a14f04e748547",
        "summary.json": "158eb251e70b9ac223f5202b93929f2e65c244282e70feb9c5447d934153996b",
    },
    "emergence-scan": {
        "emergence_scan.json": "bae5e5966bec140f09a97e72c92f30ceb5bb6187cdf839b9494b15f08c34e00d",
        "scan_details.json": "c6ec18eb700309206dfd4bcbacbe024a9e1edc538bc963e6cc5c2125e6a3c0e8",
    },
    "harmonic-clock-two-level": {
        "summary.json": "b331b0b4ee0db19b1b1998011424cf0e3b7e76886e19a18bd5e869a7edbba502",
        "two_level.json": "01c3693deb28713674c53c335d1eea6c52af382e89ea3e02a3e06a55aed91cc1",
    },
    "jacobi-paths": {
        "path.json": "d4cb416ab6d02fcb45231b9d14f1ed0d76f2631774283ad949f49248132cb502",
        "summary.json": "10e44105f3d927e428e1720dda1c3905f11230df06b7c40c7d3c69062ec393a6",
    },
    "perfect-clock": {
        "perfect_clock.json": "1dac6c23e8a6ef035e6fbcdc3ae6d5a0a7cb1f929d553c8880f8da5eb6957bff",
        "summary.json": "62dcb6275942efbc41ce21ea07064d34ad8ea3839b386049623138638169803d",
    },
}


@pytest.mark.parametrize("name", sorted(DEFAULT_JSON_HASHES))
def test_default_json_tables_are_pinned(tmp_path, name):
    out = tmp_path / "out"
    proc = _run_child("run", name, "--out", str(out), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.glob("*.json") if p.name != "manifest.json"}
    assert written == DEFAULT_JSON_HASHES[name]


@pytest.mark.parametrize("name, params", [
    *(pytest.param(name, {}, id=name) for name in BUILTINS),
    pytest.param("emergence-scan", {"kinetic_energies": [15.0, 50.0, 1e9]},
                 id="emergence-scan-failed-point")])
def test_numeric_columns_are_arrays(name, params):
    # a runner hands its arrays to the table; a numeric column of cells
    # would send every cell through the writers' per-cell path, and so
    # would the NaN of a failed scan point among integer counts
    tables = SCENARIOS[name].run({**SCENARIOS[name].defaults, **params})
    for tname, table in tables.items():
        for cname, col in zip(table.columns, table.data):
            numeric = all(isinstance(v, (int, float, np.integer, np.floating))
                          and not isinstance(v, (bool, np.bool_)) for v in col)
            if numeric and len(col) > 1:
                assert isinstance(col, np.ndarray), (tname, cname)
                assert col.ndim == 1 and col.dtype.kind in "fiu", (tname, cname, col.dtype)


def test_jacobi_paths_minimizes_each_path_once(monkeypatch):
    from chronolab import classical

    minimize = classical.minimize_action_path
    calls = []

    def counted(*args, **kwargs):
        path = minimize(*args, **kwargs)
        calls.append((args, kwargs, path))
        return path

    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "chronolab"]:
        if getattr(module, "minimize_action_path", None) is minimize:
            monkeypatch.setattr(module, "minimize_action_path", counted)
    params = SCENARIOS["jacobi-paths"].defaults
    tables = SCENARIOS["jacobi-paths"].run(params)
    # the base path, then two displaced endpoints per coordinate at each end
    assert len(calls) == 1 + 4 * len(params["q_start"])

    args, kwargs, base = calls[0]
    assert np.array_equal(minimize(*args, **kwargs).nodes, base.nodes)
    rows = np.array(tables["path"].rows, dtype=float)
    assert np.array_equal(rows[:, 2:], base.nodes)

    # the endpoint report carries that base path
    problem, q_start, q_end, _ = args
    report = classical.endpoint_momentum_check(problem, q_start, q_end, 12)
    assert np.array_equal(report.path.nodes, minimize(problem, q_start, q_end, 12).nodes)


def test_default_endpoint_probes_sit_at_their_delta_squared_floor():
    # at delta = 1e-4 the probes' delta^2 truncation is about 3e-9; a
    # minimizer that stops with its near-flat node-sliding modes short of
    # their minimum lifts probe_error_start to 1e-8
    tables = SCENARIOS["jacobi-paths"].run(SCENARIOS["jacobi-paths"].defaults)
    summary = dict(zip(tables["summary"].columns, tables["summary"].rows[0]))
    assert summary["probe_error_start"] < 5e-9
    assert summary["probe_error_end"] < 5e-9


def test_zero_stiffness_is_the_free_path_wherever_the_center_is():
    # stiffness 0 is the flat potential, even about a center whose squared
    # distance from the path overflows: the path runs straight along the chord
    params = {**SCENARIOS["jacobi-paths"].defaults, "stiffness": 0.0}
    near = SCENARIOS["jacobi-paths"].run(params)
    far = SCENARIOS["jacobi-paths"].run({**params, "center": [1e200, -1e300]})
    assert far.keys() == near.keys()
    assert all((far[k].columns, far[k].rows) == (near[k].columns, near[k].rows) for k in near)
    nodes = np.array(near["path"].rows, dtype=float)[:, 2:]
    chord = np.subtract(params["q_end"], params["q_start"])
    rel = nodes - nodes[0]
    assert np.max(np.abs(rel[:, 0] * chord[1] - rel[:, 1] * chord[0])) < 1e-6


def test_seed_override_lands_in_manifest(tmp_path):
    cfg = write_config(tmp_path, {**FAST_CLOCK, "seed": 7})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 7


def test_json_output_format(tmp_path):
    cfg = write_config(tmp_path, FAST_CLOCK)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert doc["columns"] == ["max_abs_error", "max_rel_error", "max_imag_fraction"]
    assert len(doc["rows"]) == 1
    assert isinstance(doc["rows"][0][1], float)
    assert doc["rows"][0][1] < 1e-2


def test_missing_config_exits_2_with_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(tmp_path / "nope.json"), "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stages"][0]["status"] == "failed"
    assert manifest["outputs"] == []


def test_schema_violation_exits_2_with_pointer(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "perfect-clock",
                                  "parameters": {"points": 1}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "/parameters/points" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stages"][0]["detail"] == {"path": "/parameters/points"}


# grid point counts below the 3 points a Grid1D needs
TOO_FEW_POINTS = [
    ("perfect-clock", "points"),
    ("harmonic-clock-two-level", "clock_points"),
    ("harmonic-clock-two-level", "x_points"),
    ("beam-on-atom", "slices"),
    ("emergence-scan", "slices"),
]


@pytest.mark.parametrize("name, key", TOO_FEW_POINTS)
def test_two_point_grid_exits_2_with_pointer(tmp_path, capsys, name, key):
    cfg = write_config(tmp_path, {"scenario": name, "parameters": {key: 2}})
    assert main(["validate", cfg]) == 2
    assert f"/parameters/{key}" in capsys.readouterr().err
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"/parameters/{key}" in capsys.readouterr().err


def test_pulse_on_the_entry_edge_exits_3(tmp_path, capsys):
    # the directed solve needs a free entry edge; this pulse sits on it
    cfg = write_config(tmp_path, {"scenario": "beam-on-atom",
                                  "parameters": {"pulse_center_fraction": 1e-3}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "entry edge" in err
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    statuses = {s["name"]: s["status"] for s in manifest["stages"]}
    assert statuses == {"validate": "ok", "compute": "failed"}


def test_numerical_failure_exits_3(tmp_path, capsys):
    # endpoints sit above the available energy, so no allowed path exists
    doc = default_config("jacobi-paths")
    doc["parameters"].update({"energy": 0.05, "stiffness": 60.0})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    assert "numerical error" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    statuses = {s["name"]: s["status"] for s in manifest["stages"]}
    assert statuses == {"validate": "ok", "compute": "failed"}


def test_amplitude_overflow_exits_3(tmp_path, capsys):
    # a pulse this strong overflows the 20 RK4 steps; the non-finite
    # amplitudes must stop the run, not land in the tables as NaN, and
    # numpy's overflow warnings go into the manifest, not onto stderr
    cfg = write_config(tmp_path, {"scenario": "harmonic-clock-two-level",
                                  "parameters": {"pulse_amplitude": 1e6, "time_steps": 20}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "BlowUpError" in err
    assert "RuntimeWarning" not in err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    statuses = {s["name"]: s["status"] for s in manifest["stages"]}
    assert statuses == {"validate": "ok", "compute": "failed"}
    noted = manifest["stages"][1]["warnings"]
    assert any(w["message"] == "overflow encountered in matmul"
               and w["location"].startswith("dynamics.py:") for w in noted)
    assert len(noted) == len({(w["message"], w["location"]) for w in noted})
    assert not list(out.glob("*.csv"))


# schema-valid configs whose fields contradict each other
CROSS_FIELD = [
    ("beam-on-atom", {"incoming": 9}, "/parameters/incoming"),
    ("beam-on-atom", {"channels": 200}, "/parameters/channels"),
    ("jacobi-paths", {"masses": [1, 1, 1]}, "/parameters/masses"),
    ("perfect-clock", {"r_min": 5, "r_max": 1}, "/parameters/r_max"),
    ("classical-emergence", {"energies": [200]}, "/parameters/energies"),
    ("emergence-scan", {"kinetic_energies": [15, 50, 100]}, "/parameters/kinetic_energies"),
    ("classical-emergence", {"energies": [20, 20]}, "/parameters/energies"),
]


# a few values for each end, so that r_min = r_max and both orders all occur
_ENDS = st.sampled_from((-1.0, 0.0, 2.0, 4.0))


def _vector(items):
    return st.integers(1, 3).flatmap(lambda n: st.lists(items, min_size=n, max_size=n))


@st.composite
def _cross_field_configs(draw):
    """perfect-clock and jacobi-paths configs near their cross-field checks:
    the ends drawn from a few values, each array at its own length."""
    if draw(st.booleans()):
        optional = {"r_min": _ENDS, "r_max": _ENDS}
        return {"scenario": "perfect-clock",
                "parameters": draw(st.fixed_dictionaries({}, optional=optional))}
    coordinate = _vector(st.sampled_from((0.0, 0.5, 1.0)))
    optional = {"q_start": coordinate, "q_end": coordinate, "center": coordinate,
                "masses": _vector(st.sampled_from((1.0, 2.5)))}
    return {"scenario": "jacobi-paths",
            "parameters": draw(st.fixed_dictionaries({}, optional=optional))}


def _cross_field_violations(doc: dict) -> set:
    """The parameters whose cross-field check the config fails."""
    p = {**default_config(doc["scenario"])["parameters"], **doc["parameters"]}
    if doc["scenario"] == "perfect-clock":
        return {"r_max"} if p["r_min"] >= p["r_max"] else set()
    return {k for k in ("q_end", "masses", "center") if len(p[k]) != len(p["q_start"])}


@given(doc=_cross_field_configs())
def test_validate_fails_exactly_on_a_cross_field_violation(doc):
    jsonschema.validate(doc, config_schema(doc["scenario"]))
    violated = _cross_field_violations(doc)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", str(cfg)])
    assert code == (2 if violated else 0)
    if violated:
        assert any(f"/parameters/{k}:" in err.getvalue() for k in violated)


@pytest.mark.parametrize("name, params, pointer", CROSS_FIELD)
def test_cross_field_config_exits_2_with_pointer(tmp_path, capsys, name, params, pointer):
    cfg = write_config(tmp_path, {"scenario": name, "parameters": params})
    assert main(["validate", cfg]) == 2
    assert pointer in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert pointer in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [("validate", "failed")]


def test_internal_error_exits_5_with_manifest(tmp_path, capsys, monkeypatch):
    def broken(p, jobs):
        raise RuntimeError("broken runner")

    monkeypatch.setitem(SCENARIOS, "perfect-clock",
                        dataclasses.replace(SCENARIOS["perfect-clock"], runner=broken))
    cfg = write_config(tmp_path, FAST_CLOCK)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: broken runner" in err
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    statuses = {s["name"]: s["status"] for s in manifest["stages"]}
    assert statuses == {"validate": "ok", "compute": "failed"}


# an error raised by the runner: the exit code, the stderr line, and the
# error's own fields as the manifest's "detail" holds them (None: no detail)
FAILED_COMPUTE = [
    (OSError("the tabulated potential is gone"), 4,
     "I/O error: the tabulated potential is gone", None),
    (DegenerateInputError("empty scan"), 3,
     "numerical error: DegenerateInputError: empty scan", None),
    (ConfigError("points do not fit", path="/parameters/points"), 2,
     "config error: /parameters/points: points do not fit", {"path": "/parameters/points"}),
    (TurningPointError("E_c - V <= 0", locations=np.array([0.5, 1.25])), 3,
     "numerical error: TurningPointError: E_c - V <= 0", {"locations": [0.5, 1.25]}),
    (ConvergenceError("stalled", trace={"gradient_max": np.float64(3.5e3), "action": 2.0,
                                        "steps": np.arange(3)}), 3,
     "numerical error: ConvergenceError: stalled",
     {"trace": {"gradient_max": 3500.0, "action": 2.0, "steps": [0, 1, 2]}}),
    (StabilityError("drift", suggested_step=np.float64(0.125)), 3,
     "numerical error: StabilityError: drift", {"suggested_step": 0.125}),
]


@pytest.mark.parametrize("error, code, line, detail", FAILED_COMPUTE,
                         ids=[type(e[0]).__name__ for e in FAILED_COMPUTE])
def test_failed_compute_stage_records_its_error(tmp_path, capsys, monkeypatch,
                                                error, code, line, detail):
    def failing(p, jobs):
        raise error

    monkeypatch.setitem(SCENARIOS, "perfect-clock",
                        dataclasses.replace(SCENARIOS["perfect-clock"], runner=failing))
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, FAST_CLOCK), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert line in err.splitlines()
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    # the failure is the compute stage's, and no write stage follows
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [
        ("validate", "ok"), ("compute", "failed")]
    assert manifest["stages"][1]["error"] == line.split(": ", 1)[1]
    assert manifest["stages"][1].get("detail") == detail
    assert manifest["outputs"] == []


def _parameter(schema: dict, cap: int, size: int):
    """A strategy for one parameter, read off its schema; `size` items per array."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "anyOf" in schema:
        return st.one_of([_parameter(s, cap, size) for s in schema["anyOf"]])
    if schema["type"] == "array":
        n = max(size, schema["minItems"])
        return st.lists(_parameter(schema["items"], cap, size), min_size=n, max_size=n)
    if schema["type"] == "integer":  # also as an integral float, which the schema admits
        ints = st.integers(schema["minimum"], cap)
        return ints | ints.map(float)
    return st.floats(schema.get("exclusiveMinimum", schema.get("minimum")), schema.get("maximum"),
                     exclude_min="exclusiveMinimum" in schema,
                     allow_nan=False, allow_infinity=False)


@st.composite
def _configs(draw, name: str, cap: int, required: tuple = ()):
    """Schema-valid configs of one scenario: the `required` parameters and
    any subset of the others, every array of one drawn length, integers at
    most `cap`."""
    size = draw(st.integers(1, 3))
    optional = {k: _parameter(s, cap, size) for k, s in SCENARIOS[name].properties.items()}
    drawn = {k: optional.pop(k) for k in required}
    return {"scenario": name, "parameters": draw(st.fixed_dictionaries(drawn, optional=optional))}


def _run_under_contract(doc: dict) -> tuple:
    """Run and validate one schema-valid config, and check the run contract:
    a manifest, an exit code in {0, 2, 3}, no traceback, stages that stop
    at the first failure, and `validate` failing exactly where the run's
    validation does.  Returns the exit code and the written CSVs as
    {stem: rows}."""
    jsonschema.validate(doc, config_schema(doc["scenario"]))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg), "--out", str(out)])
            checked = main(["validate", str(cfg)])
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        tables = {p.stem: list(csv.DictReader(p.read_text(encoding="utf-8").splitlines()))
                  for p in out.glob("*.csv")}
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    stages = [(s["name"], s["status"]) for s in manifest["stages"]]
    if code == 0:
        assert stages == [("validate", "ok"), ("compute", "ok"), ("write", "ok")]
    else:  # the last stage failed, and no stage ran after it
        assert stages[-1][1] == "failed"
        assert all(status == "ok" for _, status in stages[:-1])
    # `validate` rejects exactly the configs whose run fails validation
    assert (checked == 2) == (stages[0][1] == "failed")
    return code, tables


# the two-level grids and step count are always drawn, so that every run is small
@given(doc=_configs("perfect-clock", 2001) | _configs("jacobi-paths", 12)
       | _configs("harmonic-clock-two-level", 201,
                  required=("clock_points", "x_points", "time_steps")))
def test_schema_valid_configs_end_with_a_manifest_and_a_documented_code(doc):
    _run_under_contract(doc)


# `steps` is always drawn and capped, so that every run fits the deadline
@given(doc=_configs("classical-emergence", 200, required=("steps",)))
def test_schema_valid_classical_configs_end_with_finite_results(doc):
    code, tables = _run_under_contract(doc)
    if code == 0:
        assert np.isfinite(float(tables["summary"][0]["slope"]))
        assert all(np.isfinite(float(r["deviation"])) for r in tables["classical_emergence"])


# beam-on-atom's directed solve takes about slices + 2 D sqrt(E (E + eps)) / (hbar phi)
# fine R rows, for duration D, kinetic energy E, phase step phi and incoming
# channel energy eps; these draws, with the system at its default mass,
# stiffness and box (so eps < 150 on every channel and x grid drawn), keep it under
# about 2e4 rows
_BEAM_GRID = {"kinetic_energy": st.floats(5.0, 50.0), "duration": st.floats(1e-3, 2.0),
              "max_phase_per_step": st.floats(0.05, 1.0), "hbar": st.floats(0.5, 2.0),
              "slices": st.integers(3, 201)}


@st.composite
def _beam_configs(draw):
    doc = draw(_configs("beam-on-atom", 8))
    params = doc["parameters"]
    for key in ("system_mass", "system_stiffness", "x_half"):
        params.pop(key, None)
    params.update(draw(st.fixed_dictionaries(_BEAM_GRID)))
    return doc


@given(doc=_beam_configs())
def test_schema_valid_beam_configs_end_with_a_manifest_and_a_documented_code(doc):
    # the directed run, the state's own lattice clock and the populations
    code, tables = _run_under_contract(doc)
    if code == 0:
        rows = np.array([list(r.values()) for r in tables["channel_populations"]], dtype=float)
        assert np.all(np.isfinite(rows))
        assert np.all(np.diff(rows[:, 1]) > 0.0)  # t, read off the lattice clock
        assert np.isfinite(float(tables["summary"][0]["residual"]))


# each scan point's directed solve takes the fine-row count of beam-on-atom's;
# with the system at its defaults (so eps < 180), a top kinetic energy below
# 4 * 37.5 = 150 and these draws, that is under 201 + 80 sqrt(150 * 330), about
# 1.8e4 rows.  The pulse sits at least 6 widths past the entry edge, which the
# directed solve needs free, so that most scans that compute get to the residual.
_SCAN_GRID = {"max_phase_per_step": st.floats(0.1, 1.0), "duration": st.floats(1e-3, 2.0),
              "hbar": st.floats(0.5, 2.0), "slices": st.integers(3, 201),
              "pulse_center_fraction": st.floats(0.3, 0.7),
              "pulse_width_fraction": st.floats(0.02, 0.05)}


@st.composite
def _scan_energies(draw):
    """At least 3 kinetic energies spanning at least 30x, the lowest first,
    the highest last and the others between them."""
    lo, span = draw(st.floats(1.0, 4.0)), draw(st.floats(30.0, 37.5))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))
    return [lo, *(lo * span**f for f in inner), lo * span]


@st.composite
def _scan_configs(draw):
    doc = draw(_configs("emergence-scan", 8))
    params = doc["parameters"]
    for key in ("system_mass", "system_stiffness", "x_half"):
        params.pop(key, None)
    params.update(draw(st.fixed_dictionaries(_SCAN_GRID)))
    # channels and a system grid that holds them, so that most runs compute
    params["channels"] = draw(st.integers(2, 6))
    params["x_points"] = draw(st.integers(params["channels"] + 2, 41))
    params["kinetic_energies"] = draw(_scan_energies())
    return doc


@given(doc=_scan_configs())
def test_schema_valid_scan_configs_end_with_a_manifest_and_a_documented_code(doc):
    # the directed run of every scan point, its conditional and its residual
    code, tables = _run_under_contract(doc)
    if code == 0:
        details = tables["scan_details"]
        assert len(details) == len(doc["parameters"]["kinetic_energies"])
        assert sum(row["error"] == "" for row in details) >= 2
        assert np.isfinite(float(tables["emergence_scan"][0]["slope_fit"]))


# configs whose numbers overflow in the path minimizer's action, gradient
# or Hessian, in scipy's banded eigensolve of the system, in the clock's
# time or rate table, in the system's launch energy, kinetic prefactor or
# pulse width, with the chronolab error that names it
OVERFLOWING = [
    ("perfect-clock", {"clock_mass": 6.3e307}, "DegenerateInputError: time map"),
    ("perfect-clock", {"clock_mass": 5e-324, "points": 3}, "DegenerateInputError: time map"),
    ("jacobi-paths", {"masses": [3.6e307, 1.5e-125], "energy": 6.1e307,
                      "q_start": [5.4e16, 1.4e-190], "segments": 10},
     "ConvergenceError: path minimization"),
    ("jacobi-paths", {"segments": 8, "masses": [1.3e308, 2.2e16]},
     "ConvergenceError: path minimization"),
    ("classical-emergence", {"px0": 1e200}, "DegenerateInputError: initial system energy"),
    ("harmonic-clock-two-level", {"x_half": 1e154}, "DegenerateInputError: band table"),
    ("harmonic-clock-two-level", {"system_mass": 5e-324},
     "DegenerateInputError: kinetic prefactor"),
    ("harmonic-clock-two-level", {"pulse_width": 1.4e154},
     "DegenerateInputError: gaussian well width"),
    # the scan solves its basis once, outside the per-point error rows
    ("emergence-scan", {"x_half": 1e154}, "DegenerateInputError: band table"),
    # a band table near the underflow range, where LAPACK's banded solver fails
    ("harmonic-clock-two-level", {"system_mass": 5.231975621026697e+299,
                                  "system_stiffness": 5e-324},
     "ConvergenceError: banded eigensolve did not converge"),
]


@pytest.mark.parametrize("name, parameters, error", OVERFLOWING,
                         ids=["-".join([name, *parameters]) for name, parameters, _ in OVERFLOWING])
def test_overflow_inside_scipy_is_a_numerical_error(tmp_path, capsys, name, parameters, error):
    cfg = write_config(tmp_path, {"scenario": name, "parameters": parameters})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"numerical error: {error}" in err
    assert "Traceback" not in err


# directed fine grids past the row bound, with the row count they would need
HUGE_GRIDS = [
    ({"kinetic_energy": 1e9}, "2e+11"),
    ({"max_phase_per_step": 1e-12}, "2.02e+14"),
    ({"clock_mass": 5e-324, "kinetic_energy": 1e-10}, "inf"),  # the clock speed overflows
]


@pytest.mark.parametrize("parameters, rows", HUGE_GRIDS,
                         ids=["-".join(parameters) for parameters, _ in HUGE_GRIDS])
def test_a_directed_grid_past_the_bound_is_refused(tmp_path, capsys, parameters, rows):
    # refused with the count, before any allocation
    cfg = write_config(tmp_path, {"scenario": "beam-on-atom", "parameters": parameters})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert (f"numerical error: DegenerateInputError: the directed solve needs {rows} "
            "fine R rows, above the bound of 1e+07") in err
    assert "Traceback" not in err


def test_a_directed_solve_past_the_table_bound_is_refused(tmp_path, capsys):
    # 400 open channels on 1,004,001 fine rows, under the row bound: a 6.4 GB
    # row table and 10 GB of first-pass scan tables, refused with their size
    # before they are allocated
    cfg = write_config(tmp_path, {"scenario": "beam-on-atom", "parameters": {
        "kinetic_energy": 5000.0, "channels": 400, "x_points": 1001}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert ("numerical error: DegenerateInputError: the directed solve's tables at "
            "1.004e+06 fine R rows and 400 channels need 1.67e+10 bytes, above the bound "
            "of 1.8e+09") in err
    assert "Traceback" not in err


def test_an_overflowing_directed_solve_is_a_numerical_error(tmp_path, capsys):
    # a 2e50 pulse overflows the R recurrence; its nan residual compared
    # False against every tolerance, and the run wrote all-nan tables with exit 0
    cfg = write_config(tmp_path, {"scenario": "beam-on-atom", "parameters": {
        "pulse_amplitude": 2e50, "residual_tol": 1e300, "slices": 149}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical error: ConvergenceError: directed state residual nan exceeds" in err
    assert not list(out.glob("*.csv"))


def test_a_scan_point_past_the_grid_bound_is_an_error_row(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "emergence-scan",
                                  "parameters": {"kinetic_energies": [15.0, 50.0, 1e9]}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "scan_details.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["error"] for r in rows[:2]] == ["", ""]
    # every measured cell of the failed point is nan, and the error names the grid
    assert rows[2] == {
        "scan_value": "1000000000", "v_mean": "nan", "norm_spread": "nan",
        "residual_out_of_span": "nan", "fine_points": "nan", "stride": "nan",
        "error": "DegenerateInputError: the directed solve needs 1e+11 fine R rows, "
                 "above the bound of 1e+07"}
    # its M v^2 is the good points' M v^2 at v = sqrt(2 E_kin / M), and the
    # slopes are the fits over the two good rows as written
    scan = list(csv.DictReader((out / "emergence_scan.csv").read_text(encoding="utf-8")
                               .splitlines()))
    M = default_config("emergence-scan")["parameters"]["clock_mass"]
    assert [float(r["mv2"]) for r in scan] == [
        M * v * v for v in np.sqrt(2.0 * np.array([15.0, 50.0, 1e9]) / M)]
    mv2 = [float(r["mv2"]) for r in scan[:2]]
    fits = {key: format(_loglog_slope(mv2, [float(r[column]) for r in scan[:2]]), ".17g")
            for key, column in (("slope_fit", "rho"), ("residual_slope", "residual"))}
    assert scan[2] == {"scan_value": "1000000000", "mv2": "2000000000.0000002",
                       "residual": "nan", "rho": "nan", **fits}


def test_a_clock_that_never_moves_is_named(tmp_path, capsys):
    # at t_span 5e-324 the composite clock stays at R = 0: the error names
    # the clock, not the empty R grid a time map would be built on
    cfg = write_config(tmp_path, {"scenario": "classical-emergence",
                                  "parameters": {"t_span": 5e-324}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical error: TurningPointError: composite clock turns" in err
    assert "Traceback" not in err


# clocks at the edge of the float range whose time and rate tables are
# finite: the read-out takes its slopes from the rate table as given, and
# estimates none from differences that could overflow
EXTREME_CLOCKS = [
    ("perfect-clock", {"momentum": 3.57e306, "points": 1921}),
    ("classical-emergence", {"energies": [1e300, 2e300]}),
]


@pytest.mark.parametrize("name, parameters", EXTREME_CLOCKS,
                         ids=["-".join([name, *parameters]) for name, parameters in EXTREME_CLOCKS])
def test_extreme_but_finite_clocks_end_with_finite_outputs(tmp_path, capsys, name, parameters):
    cfg = write_config(tmp_path, {"scenario": name, "parameters": parameters})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    tables = list(out.glob("*.csv"))
    assert len(tables) == 2
    for path in tables:
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))[1:]
        assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_degenerate_scan_fails_fast(tmp_path, capsys):
    # the scan insists on a >= 30x spread in clock kinetic energy; its config
    # checks that, so `validate` refuses it too, and a run stops at validation
    doc = default_config("emergence-scan")
    doc["parameters"]["kinetic_energies"] = [10.0, 20.0, 40.0]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg, "--out", str(out)]) == 2
    line = "config error: /parameters/kinetic_energies: scan span 4.0x is below the required 30x"
    assert capsys.readouterr().err.count(line) == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [("validate", "failed")]
    assert manifest["stages"][0]["seconds"] < 1.0


def test_scan_without_two_good_points_exits_3(tmp_path, capsys):
    # the pulse sits on the entry edge at every scan point, so no point
    # solves and there is no slope to fit
    cfg = write_config(tmp_path, {"scenario": "emergence-scan",
                                  "parameters": {"pulse_center_fraction": 0.1, "slices": 401}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "0 of 4 scan points succeeded" in err
    assert err.count("entry edge") == 4
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    statuses = {s["name"]: s["status"] for s in manifest["stages"]}
    assert statuses == {"validate": "ok", "compute": "failed"}
    assert manifest["outputs"] == []


def test_unwritable_output_dir_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory", encoding="utf-8")
    cfg = write_config(tmp_path, FAST_CLOCK)
    assert main(["run", cfg, "--out", str(blocker)]) == 4
    assert "I/O error" in capsys.readouterr().err


def test_failed_write_is_timed_from_its_own_start(tmp_path, capsys, monkeypatch):
    def slow(p, jobs):
        time.sleep(0.3)
        return {"table": Table(("a",), ((1.0,),))}

    def refusing(path, table):
        raise OSError("no room for the table")

    monkeypatch.setitem(SCENARIOS, "perfect-clock",
                        dataclasses.replace(SCENARIOS["perfect-clock"], runner=slow))
    monkeypatch.setattr("chronolab.cli.write_csv", refusing)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, FAST_CLOCK), "--out", str(out)]) == 4
    assert "I/O error: no room for the table" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    stages = {s["name"]: s for s in manifest["stages"]}
    assert [stages[n]["status"] for n in ("compute", "write")] == ["ok", "failed"]
    assert stages["write"]["seconds"] < stages["compute"]["seconds"]


def test_output_dir_from_environment(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, FAST_CLOCK)
    env_out = tmp_path / "from-env"
    monkeypatch.setenv("CHRONOLAB_OUT", str(env_out))
    assert main(["run", cfg]) == 0
    assert (env_out / "manifest.json").exists()


def test_out_that_is_not_a_string_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the schema rejects it, and the manifest goes where it would without it
    cfg = write_config(tmp_path, {**FAST_CLOCK, "out": 5})
    monkeypatch.setenv("CHRONOLAB_OUT", str(tmp_path / "from-env"))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: /out:" in err
    assert "Traceback" not in err
    manifest = json.loads((tmp_path / "from-env" / "manifest.json").read_text(encoding="utf-8"))
    assert [(s["name"], s["status"]) for s in manifest["stages"]] == [("validate", "failed")]


def test_config_out_beats_environment(tmp_path, monkeypatch):
    doc = dict(FAST_CLOCK)
    doc["out"] = str(tmp_path / "from-doc")
    cfg = write_config(tmp_path, doc)
    monkeypatch.setenv("CHRONOLAB_OUT", str(tmp_path / "from-env"))
    assert main(["run", cfg]) == 0
    assert (tmp_path / "from-doc" / "manifest.json").exists()
    assert not (tmp_path / "from-env").exists()


def test_csv_cells_are_full_precision(tmp_path):
    cfg = write_config(tmp_path, FAST_CLOCK)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "perfect_clock.csv").read_text(encoding="utf-8").splitlines()
    r_cell, re_cell = lines[2].split(",")[:2]
    # cells must round-trip: %.17g of the in-process table values
    table = SCENARIOS["perfect-clock"].run(validate_config(FAST_CLOCK)[1])
    row = table["perfect_clock"].rows[1]
    assert r_cell == format(float(row[0]), ".17g")
    assert re_cell == format(float(row[1]), ".17g")
    assert float(re_cell) == pytest.approx(50.0 * 0.02 / 2.0, rel=1e-3)


# ---------------------------------------------------------------------------
# table writers against the per-row writers they replaced


def _oracle_csv(path, table):
    """The per-row CSV writer: csv.writer, `_cell` and `format(v, ".17g")`,
    each row ended by a line feed.  The writer runs with a CRLF terminator,
    which makes it quote a cell holding a carriage return on every Python
    version; before 3.13 it does not with a bare LF terminator."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    with open(path, "w", encoding="utf-8", newline="") as f:
        for cells in (table.columns, *([format(v, ".17g") if isinstance(v, float) else str(v)
                                        for v in map(_cell, row)] for row in table.rows)):
            buf.seek(0)
            buf.truncate()
            writer.writerow(cells)
            f.write(buf.getvalue()[:-2] + "\n")


def _oracle_json(path, table):
    """The per-row JSON writer: `_cell` on every cell."""
    doc = {"columns": list(table.columns),
           "rows": [[_cell(v) for v in row] for row in table.rows]}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


_FLOATS = st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                           1.7976931348623157e308, -1.7976931348623157e308)) | st.floats()
_INTS = st.sampled_from((-2**63, 2**63 - 1, 0, -1)) | st.integers(-2**63, 2**63 - 1)
_TEXT = st.text(st.sampled_from(',"\r\n ') | st.characters(blacklist_categories=("Cs",)),
                max_size=6)
_MIXED = st.one_of(_FLOATS, _INTS, _TEXT, st.booleans(), _FLOATS.map(np.float64),
                   _INTS.map(np.int64), st.booleans().map(np.bool_))


@st.composite
def _tables(draw):
    """Tables of every column kind the writers read, some longer than a
    block: a few drawn cells repeated to the drawn length."""
    n = draw(st.sampled_from((0, 1, 2, 3, BLOCK_ROWS, BLOCK_ROWS + 3)))
    names = draw(st.lists(_TEXT, min_size=1, max_size=4))
    data = []
    for _ in names:
        kind = draw(st.sampled_from(("float", "float32", "int", "uint", "bool", "text", "mixed")))
        cells = {"float": _FLOATS, "float32": _FLOATS, "int": _INTS,
                 "uint": st.integers(0, 2**64 - 1), "bool": st.booleans(),
                 "text": _TEXT, "mixed": _MIXED}[kind]
        drawn = draw(st.lists(cells, min_size=1, max_size=5))
        cycle = [drawn[i % len(drawn)] for i in range(n)]
        if kind in ("text", "mixed"):
            data.append(cycle)
        else:
            dtype = {"float": np.float64, "int": np.int64, "uint": np.uint64,
                     "bool": bool}.get(kind, np.float32)
            with np.errstate(over="ignore"):  # float32 rounds a large float to inf
                data.append(np.array(cycle, dtype=dtype))
    return _table(names, data)


@settings(max_examples=60, deadline=None)
@given(table=_tables())
def test_writers_write_the_bytes_of_the_per_row_writers(table):
    with tempfile.TemporaryDirectory() as tmp:
        for write, oracle, suffix in ((write_csv, _oracle_csv, "csv"),
                                      (write_json_table, _oracle_json, "json")):
            got, want = Path(tmp) / f"got.{suffix}", Path(tmp) / f"want.{suffix}"
            write(got, table)
            oracle(want, table)
            assert got.read_bytes() == want.read_bytes(), suffix


def test_csv_cells_with_line_breaks_read_back_cell_for_cell(tmp_path):
    table = _table(("n", "error"), (np.arange(4), ["bad\rline", "crlf\r\nline", "lf\nline", ""]))
    write_csv(tmp_path / "t.csv", table)
    with open(tmp_path / "t.csv", encoding="utf-8", newline="") as f:
        assert list(csv.reader(f)) == [["n", "error"], ["0", "bad\rline"], ["1", "crlf\r\nline"],
                                       ["2", "lf\nline"], ["3", ""]]


def _peak_bytes_writing(tmp_path, rows):
    table = _table("abcde", np.random.default_rng(0).normal(size=(5, rows)))
    tracemalloc.start()
    try:
        write_csv(tmp_path / f"{rows}.csv", table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_does_not_grow_with_the_table(tmp_path):
    small, large = (_peak_bytes_writing(tmp_path, rows) for rows in (20_000, 200_000))
    assert large < 4 * 2**20
    assert abs(large - small) < 0.1 * small


def test_table_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match="unequal length: a 3, b 2"):
        _table(("a", "b"), (np.zeros(3), np.zeros(2)))


def test_table_refuses_a_column_that_is_not_one_dimensional():
    with pytest.raises(ValueError, match="column 'a' has shape"):
        _table(("a",), (np.zeros((3, 2)),))


@pytest.mark.parametrize("column", [np.zeros(3, complex), [1.0, 2j], [np.complex128(1.0)]])
def test_table_refuses_a_complex_column(column):
    with pytest.raises(ValueError, match="column 'a' is complex"):
        _table(("a",), (column,))


def test_table_refuses_names_that_do_not_match_its_columns():
    with pytest.raises(ValueError, match="2 column names for 1 columns"):
        _table(("a", "b"), (np.zeros(3),))


def test_table_rows_zip_its_columns():
    table = _table(("x", "note"), (np.arange(3.0), ["a", "b", "c"]))
    assert table.rows == ((0.0, "a"), (1.0, "b"), (2.0, "c"))


def test_module_entry_point():
    proc = _run_child("version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == chronolab.__version__


# the scipy modules a child has loaded, as a Python expression
SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"
# jsonschema and the packages it brings, none of which validation needs
SCHEMA_LIBS = ("jsonschema", "referencing", "rpds", "attrs")


def test_start_up_and_validation_load_no_scipy():
    # each scipy subpackage is imported inside the function that calls it,
    # and the CLI reads the config schemas itself, so importing the CLI and
    # validating a config need numpy alone
    loaded = f"{SCIPY_LOADED} + sorted(m for m in sys.modules if m.split('.')[0] in {SCHEMA_LIBS})"
    code = ("import json, sys\n"
            "from chronolab.cli import validate_config\n"
            "from chronolab.scenarios import SCENARIOS, default_config\n"
            f"loaded = [{loaded}]\n"
            "for name in sorted(SCENARIOS):\n"
            "    validate_config(default_config(name))\n"
            f"loaded.append({loaded})\n"
            "print(json.dumps(loaded))")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    after_import, after_validation = json.loads(proc.stdout)
    assert after_import == []
    assert after_validation == []


@pytest.mark.parametrize("name", ["classical-emergence", "jacobi-paths", "perfect-clock"])
def test_runs_without_a_scipy_layer_load_no_scipy(tmp_path, name):
    code = ("import json, sys\n"
            "from chronolab.cli import main\n"
            f"code = main(['run', {name!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            f"print(json.dumps([code, {SCIPY_LOADED}]))")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]


def test_threaded_scan_in_a_fresh_interpreter_matches_one_job(tmp_path):
    # criterion 10 runs in this process, where the test modules have
    # already imported scipy; here the run makes the first scipy import
    # itself, with the scan's thread pool in use
    written = {}
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        proc = _run_child("run", "emergence-scan", "--out", str(out), "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
        written[jobs] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert sorted(written["1"]) == ["emergence_scan.csv", "scan_details.csv"]
    assert written["2"] == written["1"]
