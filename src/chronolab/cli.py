"""Command line interface.

Subcommands: run, list, validate, version.  A run takes a JSON config
file (or the name of a builtin scenario, which runs its defaults),
validates it against the scenario's schema, executes the pipeline, and
writes one CSV (or JSON) file per output table plus a manifest.  The
manifest is written even when a stage fails.  Floats are serialized
with 17 significant digits so a fixed config and seed regenerate
byte-identical CSVs.

Exit codes: 0 ok, 2 config error (schema or cross-field), 3
numerical/convergence error, 4 I/O error, 5 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .errors import ChronolabError, ConfigError
from .scenarios import SCENARIOS, Table, config_schema, default_config

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config handling


def load_config(arg: str) -> dict:
    """Read a config document from a file path or a builtin scenario name."""
    if arg in SCENARIOS:
        return default_config(arg)
    path = Path(arg)
    if not path.exists():
        raise ConfigError(
            f"no such config file or builtin scenario: {arg}", path="/"
        )
    raw = path.read_text(encoding="utf-8")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", path="/") from exc


def validate_config(doc) -> tuple:
    """Check a config document; returns (scenario, merged parameters).

    Unknown keys anywhere are rejected; the first schema violation is
    reported with a JSON-pointer-style path into the document.  The
    merged parameters then build the scenario's parameter class, whose
    cross-field checks report their own pointer.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", path="/")
    if "scenario" not in doc:
        raise ConfigError("missing required key 'scenario'", path="/scenario")
    name = doc["scenario"]
    if not isinstance(name, str):
        raise ConfigError("'scenario' must be a string", path="/scenario")
    schema = config_schema(name)  # rejects unknown scenario names
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: [str(x) for x in e.absolute_path])
    if errors:
        first = errors[0]
        pointer = "/" + "/".join(str(x) for x in first.absolute_path)
        raise ConfigError(first.message, path=pointer)
    params = dict(SCENARIOS[name].defaults)
    params.update(doc.get("parameters", {}))
    SCENARIOS[name].config(**params)
    return name, params


# ---------------------------------------------------------------------------
# table serialization


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path: Path, table: Table) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_cell(v) for v in row])


def write_json_table(path: Path, table: Table) -> None:
    def plain(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return bool(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        return float(v)

    doc = {
        "columns": list(table.columns),
        "rows": [[plain(v) for v in row] for row in table.rows],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


# ---------------------------------------------------------------------------
# run driver


def _config_hash(doc, fallback: str) -> str:
    if isinstance(doc, dict):
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        canon = fallback
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def run_command(args) -> int:
    stages = []
    outputs = []
    code = 0
    doc = None
    name = "unknown"
    params = {}

    t0 = time.perf_counter()
    try:
        doc = load_config(args.config)
        name, params = validate_config(doc)
        stages.append({"name": "validate", "status": "ok",
                       "seconds": time.perf_counter() - t0})
    except ConfigError as exc:
        stages.append({"name": "validate", "status": "failed",
                       "seconds": time.perf_counter() - t0, "error": str(exc)})
        print(f"config error: {exc}", file=sys.stderr)
        code = 2

    seed = args.seed
    if seed is None:
        seed = doc.get("seed", 0) if isinstance(doc, dict) else 0
    out_dir = args.out
    if out_dir is None and isinstance(doc, dict):
        out_dir = doc.get("out")
    if out_dir is None:
        out_dir = os.environ.get("CHRONOLAB_OUT")
    if out_dir is None:
        out_dir = os.path.join("runs", name)
    out_path = Path(out_dir)
    try:
        out_path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"I/O error: cannot create {out_path}: {exc}", file=sys.stderr)
        return 4

    if code == 0:
        suffix = ".csv" if args.format == "csv" else ".json"
        writer = write_csv if args.format == "csv" else write_json_table
        t1 = time.perf_counter()
        try:
            tables = SCENARIOS[name].run(params, jobs=args.jobs)
            stages.append({"name": "compute", "status": "ok",
                           "seconds": time.perf_counter() - t1})
            t2 = time.perf_counter()
            for tname in sorted(tables):
                fpath = out_path / (tname + suffix)
                writer(fpath, tables[tname])
                outputs.append(str(fpath))
            stages.append({"name": "write", "status": "ok",
                           "seconds": time.perf_counter() - t2})
        except ConfigError as exc:
            stages.append({"name": "compute", "status": "failed",
                           "seconds": time.perf_counter() - t1, "error": str(exc)})
            print(f"config error: {exc}", file=sys.stderr)
            code = 2
        except ChronolabError as exc:
            stages.append({"name": "compute", "status": "failed",
                           "seconds": time.perf_counter() - t1,
                           "error": f"{type(exc).__name__}: {exc}"})
            print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 3
        except OSError as exc:
            stages.append({"name": "write", "status": "failed",
                           "seconds": time.perf_counter() - t1, "error": str(exc)})
            print(f"I/O error: {exc}", file=sys.stderr)
            code = 4
        except Exception as exc:  # a fault of the program: still leave a manifest
            stages.append({"name": "compute", "status": "failed",
                           "seconds": time.perf_counter() - t1,
                           "error": f"{type(exc).__name__}: {exc}"})
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 5

    manifest = {
        "artifact_version": __version__,
        "scenario": name,
        "seed": seed,
        "config_sha256": _config_hash(doc, str(args.config)),
        "stages": stages,
        "outputs": outputs,
    }
    try:
        with open(out_path / "manifest.json", "w", encoding="utf-8", newline="\n") as f:
            json.dump(manifest, f, indent=1)
            f.write("\n")
    except OSError as exc:
        print(f"I/O error: cannot write manifest: {exc}", file=sys.stderr)
        return 4

    for st in stages:
        line = f"[{st['name']}] {st['status']} ({st['seconds']:.3f} s)"
        if st["status"] != "ok":
            line += f": {st.get('error', '')}"
        print(line)
    for f in outputs:
        print(f"wrote {f}")
    print(f"manifest: {out_path / 'manifest.json'}")
    return code


def list_command(args) -> int:
    items = [SCENARIOS[k] for k in sorted(SCENARIOS)]
    if args.format == "json":
        doc = [{"name": s.name, "description": s.description} for s in items]
        print(json.dumps(doc, indent=1))
    else:
        for s in items:
            print(f"{s.name:28s} {s.description}")
    return 0


def validate_command(args) -> int:
    try:
        doc = load_config(args.config)
        name, _ = validate_config(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chronolab",
        description="Emergent-time laboratory: clock-driven classical and "
                    "quantum dynamics from timeless composites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config (or a builtin by name)")
    run_p.add_argument("config", help="path to a JSON config, or a builtin scenario name")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker pool size for independent scan points")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output table format")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")

    list_p = sub.add_parser("list", help="list builtin scenarios")
    list_p.add_argument("--format", choices=("text", "json"), default="text")

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config", help="path to a JSON config, or a builtin scenario name")

    sub.add_parser("version", help="print the artifact version")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_command(args)
    if args.command == "list":
        return list_command(args)
    if args.command == "validate":
        return validate_command(args)
    print(__version__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
