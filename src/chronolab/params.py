"""Experiment parameters as frozen-dataclass fields.

Each parameter is declared once, as a field carrying its default and, in
its metadata, its jsonschema bounds; the scenario registry derives
defaults and config schema from the fields.  Constraints that tie fields
together are checked in the class's __post_init__ through `require`, so
`chronolab validate` and `chronolab run` reject the same configs.
"""

from __future__ import annotations

from dataclasses import field

from .errors import ConfigError

POSITIVE = {"type": "number", "exclusiveMinimum": 0}
NUMBER = {"type": "number"}
INT2 = {"type": "integer", "minimum": 2}
INDEX = {"type": "integer", "minimum": 0}
STRIDE = {"type": "integer", "minimum": 1}
FRACTION = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}


def param(default, schema: dict):
    """A parameter field: its default and its jsonschema."""
    return field(default=default, metadata={"schema": schema})


def array(items: dict, min_items: int) -> dict:
    return {"type": "array", "items": items, "minItems": min_items}


def require(ok: bool, key: str, message: str) -> None:
    """Raise ConfigError pointing at parameter `key` unless `ok`."""
    if not ok:
        raise ConfigError(message, path=f"/parameters/{key}")
