"""Command line interface.

Subcommands: run, list, validate, version.  A run takes a JSON config
file (or the name of a builtin scenario, which runs its defaults)
through three stages, validate (schema, then cross-field checks),
compute and write (one CSV or JSON file per output table), and writes a
manifest even when a stage fails; `validate` is the first stage alone.
`_stage` times each stage, lists (does not print) its RuntimeWarnings
and classifies its exception through `FAILURES`: a stderr line, an exit
code, and on the stage's record the message and the error's own fields
under "detail".  Floats are serialized with 17 significant digits so a
fixed config and seed regenerate byte-identical CSVs.

Exit codes: 0 ok, 2 config error (unreadable, schema or cross-field), 3
numerical/convergence error, 4 I/O error, 5 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ChronolabError, ConfigError
from .scenarios import SCENARIOS, Table, config_schema, default_config

__all__ = ["main"]

# (exception class, exit code, stderr label, whether the message leads with
# the exception's class name); the first class that matches classifies it
FAILURES = (
    (ConfigError, 2, "config error", False),
    (ChronolabError, 3, "numerical error", True),
    (OSError, 4, "I/O error", False),
    (Exception, 5, "internal error", True),
)


# ---------------------------------------------------------------------------
# config handling


def load_config(arg: str) -> dict:
    """Read a config document from a file path or a builtin scenario name."""
    if arg in SCENARIOS:
        return default_config(arg)
    try:
        return json.loads(Path(arg).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"no such config file or builtin scenario: {arg}", path="/") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", path="/") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8
        raise ConfigError(f"cannot read config: {exc}", path="/") from exc
    except ValueError as exc:  # an integer literal past Python's 4,300-digit limit
        raise ConfigError(f"config holds a number too long to read: {exc}", path="/") from exc


# bound keyword -> (whether a number breaks the bound, jsonschema's words)
_BOUNDS = {"minimum": (operator.lt, "less than the minimum"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
           "maximum": (operator.gt, "greater than the maximum")}


def _finite(number) -> bool:
    """Whether a number has a finite float: NaN and +-inf have none, nor
    has an int beyond the float range."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way `value` breaks `schema`.

    Reads the JSON Schema keywords that `config_schema` emits, in the
    schema's own order and with jsonschema's wording, and raises
    ValueError on any other keyword.  A number must also be finite: JSON
    (RFC 8259, section 6) has no NaN or Infinity, though Python's reader
    accepts them and every bound compares False against NaN; and an
    integer must have a float, which one past about 1.8e308 has not.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    obj = value if isinstance(value, dict) else {}
    for key, arg in schema.items():
        if key == "type":
            if arg in ("number", "integer") and number and not _finite(value):
                shown = repr(value) if isinstance(value, float) else (
                    f"an integer of {value.bit_length()} bits")
                yield path, f"{shown} is not a finite number"
            elif not {"object": isinstance(value, dict), "array": isinstance(value, list),
                      "string": isinstance(value, str), "number": number,
                      "integer": number and (isinstance(value, int) or value.is_integer())}[arg]:
                yield path, f"{value!r} is not of type {arg!r}"
        elif key == "const":
            if value != arg:
                yield path, f"{arg!r} was expected"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif key == "anyOf":
            if all(any(_schema_errors(value, sub, path)) for sub in arg):
                yield path, f"{value!r} is not valid under any of the given schemas"
        elif key in _BOUNDS:
            if number and _BOUNDS[key][0](value, arg):
                yield path, f"{value!r} is {_BOUNDS[key][1]} of {arg!r}"
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "items":
            for index, item in enumerate(value if isinstance(value, list) else ()):
                yield from _schema_errors(item, arg, path + (index,))
        elif key == "properties":
            for name in [name for name in arg if name in obj]:
                yield from _schema_errors(obj[name], arg[name], path + (name,))
        elif key == "required":
            for name in [name for name in arg if isinstance(value, dict) and name not in value]:
                yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and arg is False:
            extras = sorted(obj.keys() - schema.get("properties", {}).keys(), key=str)
            if extras:
                yield path, ("Additional properties are not allowed (%s %s unexpected)"
                             % (", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"))
        else:
            raise ValueError(f"unsupported schema keyword {key!r}: {arg!r}")


def validate_config(doc) -> tuple:
    """Check a config document; returns (scenario, merged parameters).

    Unknown keys anywhere are rejected, and so is a number that is not
    finite; the first schema violation, in jsonschema's order and words,
    is reported with a JSON-pointer-style path into the document.  The
    merged parameters then build the scenario's parameter class, whose
    cross-field checks report their own pointer.  Integer fields come
    back as int: the schema also admits an integral float such as 101.0.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", path="/")
    if "scenario" not in doc:
        raise ConfigError("missing required key 'scenario'", path="/scenario")
    name = doc["scenario"]
    if not isinstance(name, str):
        raise ConfigError("'scenario' must be a string", path="/scenario")
    schema = config_schema(name)  # rejects unknown scenario names
    errors = sorted(_schema_errors(doc, schema), key=lambda e: [str(x) for x in e[0]])
    if errors:
        path, message = errors[0]
        raise ConfigError(message, path="/" + "/".join(str(x) for x in path))
    scenario = SCENARIOS[name]
    params = {**scenario.defaults, **doc.get("parameters", {})}
    for key, prop in scenario.properties.items():
        if prop.get("type") == "integer":
            params[key] = int(params[key])
    scenario.config(**params)
    return name, params


# ---------------------------------------------------------------------------
# serialization


def _cell(value):
    """A table cell as a JSON scalar: str, bool, int or float."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _detail(value):
    """An error field (pointer, locations, trace, step) as plain JSON."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {str(k): _detail(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_detail(v) for v in value]
    return None if value is None else _cell(value)


# rows formatted per write: the text of one block is alive at a time, so
# a writer's memory does not grow with the table
BLOCK_ROWS = 4096

# CSV format of a cell of an array column, by dtype kind; bools and any
# other kind go cell by cell through `_text`
_SPECS = {"f": "%.17g", "i": "%d", "u": "%d"}


def _text(value, lone: bool) -> str:
    """A cell as CSV text: a float with 17 significant digits, anything else
    as str.  Text holding a comma, a double quote, a line feed or a carriage
    return is quoted, its quotes doubled (RFC 4180); the empty cell of a
    one-column table is quoted too, so its row is not a blank line."""
    value = _cell(value)
    text = format(value, ".17g") if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\n\r') or (lone and not text):
        return '"%s"' % text.replace('"', '""')
    return text


def write_csv(path: Path, table: Table) -> None:
    """Write a table as CSV, converting each column once by its dtype.

    A float array is printed with `%.17g` and an integer array with `%d`;
    any other column (text, bools, a summary's mixed cells) goes cell by
    cell through `_text`.  Rows are written in blocks of BLOCK_ROWS, each
    row one `%` format of a per-table line.
    """
    lone = len(table.columns) == 1
    specs, converters = [], []
    for col in table.data:
        spec = _SPECS.get(col.dtype.kind) if isinstance(col, np.ndarray) else None
        specs.append(spec or "%s")
        converters.append(np.ndarray.tolist if spec
                          else lambda cells: [_text(v, lone) for v in cells])
    line = ",".join(specs) + "\n"
    n = len(table.data[0]) if table.data else 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(_text(name, lone) for name in table.columns) + "\n")
        for lo in range(0, n, BLOCK_ROWS):
            cols = [convert(col[lo:lo + BLOCK_ROWS]) for convert, col in zip(converters, table.data)]
            f.write("".join([line % row for row in zip(*cols)]))


def write_json_table(path: Path, table: Table) -> None:
    """Write a table as JSON, converting each column once."""
    cols = [col.tolist() if isinstance(col, np.ndarray) and col.dtype.kind != "O"
            else [_cell(v) for v in col] for col in table.data]
    doc = {"columns": list(table.columns), "rows": list(zip(*cols))}
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


def _stage(stages: list, name: str, fn) -> tuple:
    """Run `fn()` as one stage; returns (exit code, its result or None).

    Appends the stage's record to `stages`: its status and time, on
    failure the error as FAILURES classifies it (also printed to stderr)
    and a chronolab error's own fields under "detail", and the distinct
    RuntimeWarnings it raised under "warnings"; other warnings are shown.
    """
    result = failure = None
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            result = fn()
        except Exception as exc:  # a fault of the program too: still leave a manifest
            failure = exc
    record = {"name": name, "status": "ok" if failure is None else "failed",
              "seconds": time.perf_counter() - t0}
    code = 0
    if failure is not None:
        code, label, named = next(f[1:] for f in FAILURES if isinstance(failure, f[0]))
        record["error"] = f"{type(failure).__name__}: {failure}" if named else str(failure)
        print(f"{label}: {record['error']}", file=sys.stderr)
        if isinstance(failure, ChronolabError) and vars(failure):
            record["detail"] = _detail(vars(failure))
    noted = {}
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            noted[str(w.message), f"{Path(w.filename).name}:{w.lineno}"] = None
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if noted:
        record["warnings"] = [{"message": m, "location": loc} for m, loc in noted]
    stages.append(record)
    return code, result


def run_command(args) -> int:
    stages, outputs, doc = [], [], None

    def validate():
        nonlocal doc
        doc = load_config(args.config)
        return validate_config(doc)

    code, checked = _stage(stages, "validate", validate)
    name, params = checked or ("unknown", {})
    given = doc if isinstance(doc, dict) else {}
    seed = given.get("seed", 0)
    out_path = Path(next(d for d in (args.out, given.get("out"), os.environ.get("CHRONOLAB_OUT"),
                                     os.path.join("runs", name)) if isinstance(d, str)))
    try:
        out_path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"I/O error: cannot create {out_path}: {exc}", file=sys.stderr)
        return 4

    def write():  # each table to <name>.<format>, listed once written
        writer = write_csv if args.format == "csv" else write_json_table
        for tname in sorted(tables):
            fpath = out_path / f"{tname}.{args.format}"
            writer(fpath, tables[tname])
            outputs.append(str(fpath))

    if code == 0:
        code, tables = _stage(stages, "compute",
                              lambda: SCENARIOS[name].run(params, jobs=args.jobs))
    if code == 0:
        code, _ = _stage(stages, "write", write)

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
        error = f": {st['error']}" if "error" in st else ""
        print(f"[{st['name']}] {st['status']} ({st['seconds']:.3f} s){error}")
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
    code, checked = _stage([], "validate", lambda: validate_config(load_config(args.config)))
    if code == 0:
        print(f"ok: {checked[0]}")
    return code


def _jobs(text: str) -> int:
    """A --jobs value: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return jobs


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than parsing with it."""
    parser = argparse.ArgumentParser(
        prog="chronolab",
        description="Emergent-time laboratory: clock-driven classical and "
                    "quantum dynamics from timeless composites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config (or a builtin by name)")
    run_p.add_argument("config", help="path to a JSON config, or a builtin scenario name")
    run_p.add_argument("--jobs", type=_jobs, default=1,
                       help="worker pool size for independent scan points")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output table format")

    list_p = sub.add_parser("list", help="list builtin scenarios")
    list_p.add_argument("--format", choices=("text", "json"), default="text")

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config", help="path to a JSON config, or a builtin scenario name")

    sub.add_parser("version", help="print the artifact version")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
