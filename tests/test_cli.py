"""Scenario registry and command-line driver, exercised through main()."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chronolab
from chronolab.cli import _config_hash, load_config, main, validate_config
from chronolab.errors import ConfigError
from chronolab.scenarios import SCENARIOS, config_schema, default_config, get_scenario

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
    "classical-emergence": "8efe575d3f1587e5954e8b1d78b8f0a659a7a97d82d9bf45f84edd2c29db7183",
    "emergence-scan": "e610f6388b9f487204aed9652435e9572f79bf2ae0cb6ec3482c9b0ccd27e149",
    "harmonic-clock-two-level": "4e0b9b53c2e97b139bd636070a427745b49906cdd956dfc5ed64d8b41cc7a257",
    "jacobi-paths": "6882e200532337bfce8f8212bf81155363e5fef58a0fa7e5162fe91ac4f9d6bc",
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


def test_validate_command_accepts_builtin(capsys):
    assert main(["validate", "perfect-clock"]) == 0
    assert "ok: perfect-clock" in capsys.readouterr().out


def test_validate_command_rejects_bad_value(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "perfect-clock",
                                  "parameters": {"clock_mass": -3}})
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert "/parameters/clock_mass" in err


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


# sha256 of every CSV the two-route and fixed-energy-path scenarios write at
# their defaults with one BLAS thread; a change that moves a digit updates
# the hash and says so
DEFAULT_CSV_HASHES = {
    "jacobi-paths": {
        "path.csv": "e13ead03be8bd318303e060a85fa0f3009961926f46b1e4bcf39cca7efdfb9ef",
        "summary.csv": "671838bd5916dedb53c78d6932a2f5ed487a92387dd41aa5f5a81e519fb850ec",
    },
    "harmonic-clock-two-level": {
        "summary.csv": "23c25943f1483eb478c354c07a923201d4b7e9d1d403a819c944f8f33d906748",
        "two_level.csv": "5b5893d9c2c8ec7959ed3d19982934f3bc5dc182df1939f12821bf1f85d91e87",
    },
}


def _run_child(*args: str) -> subprocess.CompletedProcess:
    """`python -m chronolab.cli *args` in a child with one BLAS thread.

    The child imports the same chronolab as this test.  A threaded GEMM
    sums in another order than a single thread and can move the last bit
    of a cell, so the pinned hashes hold at one thread only.
    """
    src = str(Path(chronolab.__file__).resolve().parents[1])
    one = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return subprocess.run(
        [sys.executable, "-m", "chronolab.cli", *args],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src, **one},
    )


@pytest.mark.parametrize("name", sorted(DEFAULT_CSV_HASHES))
def test_default_csvs_are_pinned(tmp_path, name):
    out = tmp_path / "out"
    proc = _run_child("run", name, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert written == DEFAULT_CSV_HASHES[name]


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
]


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


def test_degenerate_scan_fails_fast(tmp_path, capsys):
    # the scan insists on a >= 30x spread in clock kinetic energy and
    # checks that before any eigensolve starts
    doc = default_config("emergence-scan")
    doc["parameters"]["kinetic_energies"] = [10.0, 20.0, 40.0]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    assert "30x" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    compute = [s for s in manifest["stages"] if s["name"] == "compute"][0]
    assert compute["status"] == "failed"
    assert compute["seconds"] < 1.0


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


def test_output_dir_from_environment(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, FAST_CLOCK)
    env_out = tmp_path / "from-env"
    monkeypatch.setenv("CHRONOLAB_OUT", str(env_out))
    assert main(["run", cfg]) == 0
    assert (env_out / "manifest.json").exists()


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


def test_module_entry_point():
    proc = _run_child("version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == chronolab.__version__
