"""Experiment parameters as frozen-dataclass fields.

Each parameter is declared once, as a field carrying its default and, in
its metadata, its JSON Schema bounds; the scenario registry derives
defaults and config schema from the fields.  Constraints that tie fields
together are checked in the class's __post_init__ through `require`, so
`chronolab validate` and `chronolab run` reject the same configs.
"""

from __future__ import annotations

from dataclasses import field

from .errors import ConfigError

POSITIVE = {"type": "number", "exclusiveMinimum": 0}
NONNEGATIVE = {"type": "number", "minimum": 0}
NUMBER = {"type": "number"}
# largest fine R grid a directed solve allocates: its peak is 184 bytes a row
# at 6 channels (264 MiB at 1.5 M rows, measured with tracemalloc), so about
# 1.8 GB; the M v^2 = 3e4 run needs 1.5 M rows at the default 0.04 phase step
# and 6 M at 0.01.  No count that sizes an array goes above it.
MAX_FINE_ROWS = 10_000_000
# largest directed-solve tables, in bytes: the complex (k, n) rows and the four
# float (k, 2k, about sqrt(n)) tables of the scan's first pass at k channels
# and n fine rows may take the 1.8 GB the whole solve takes at MAX_FINE_ROWS
# and the default 6 channels, whose tables are 0.97 GB of it; so up to 11
# channels only the row bound binds
MAX_DIRECTED_BYTES = 1.8e9
INT2 = {"type": "integer", "minimum": 2, "maximum": MAX_FINE_ROWS}
GRID = {"type": "integer", "minimum": 3, "maximum": MAX_FINE_ROWS}  # point count of a Grid1D
INDEX = {"type": "integer", "minimum": 0}
STRIDE = {"type": "integer", "minimum": 1}
FRACTION = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}


def param(default, schema: dict):
    """A parameter field: its default and its JSON Schema."""
    return field(default=default, metadata={"schema": schema})


def array(items: dict, min_items: int) -> dict:
    return {"type": "array", "items": items, "minItems": min_items}


def require(ok: bool, key: str, message: str) -> None:
    """Raise ConfigError pointing at parameter `key` unless `ok`."""
    if not ok:
        raise ConfigError(message, path=f"/parameters/{key}")
