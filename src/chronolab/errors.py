"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class.  All of them derive from `ChronolabError`, an `Exception`, so
that `except ChronolabError` catches everything we raise deliberately.
"""

from __future__ import annotations

__all__ = [
    "ChronolabError",
    "GridMismatchError",
    "DegenerateInputError",
    "ForbiddenRegionError",
    "TurningPointError",
    "StationaryPointError",
    "NodeError",
    "WindowError",
    "ConvergenceError",
    "StabilityError",
    "BlowUpError",
    "ConfigError",
]


class ChronolabError(Exception):
    """Base class for all deliberate errors raised by this package."""


class GridMismatchError(ChronolabError):
    """Fields defined on different grids were combined."""


class DegenerateInputError(ChronolabError):
    """Input is degenerate (zero field, zero-length segment, empty scan)."""


class ForbiddenRegionError(ChronolabError):
    """A path or grid point lies in the classically forbidden region E <= V."""


class _LocatedError(ChronolabError):
    """An error at grid points, which `locations` lists."""

    def __init__(self, message: str, locations=None):
        super().__init__(message)
        self.locations = list(locations) if locations is not None else []


class TurningPointError(_LocatedError):
    """Clock momentum vanishes: the requested point is at or past a turning point."""


class StationaryPointError(_LocatedError):
    """dchi/dR vanishes somewhere, so the time integrand is singular."""


class NodeError(_LocatedError):
    """chi has an interior node, so division by chi is ill-defined."""


class WindowError(ChronolabError):
    """The retained window is too narrow for the requested stencil."""


class ConvergenceError(ChronolabError):
    """An iterative solver failed to reach its tolerance.

    `trace` carries per-iteration diagnostics (residuals or step norms)
    so the caller can see how the iteration behaved before failing.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class StabilityError(ChronolabError):
    """A fixed-step integration violated its conservation bound.

    Retry with a smaller step; `suggested_step` is a starting point.
    """

    def __init__(self, message: str, suggested_step: float | None = None):
        super().__init__(message)
        self.suggested_step = suggested_step


class BlowUpError(ChronolabError):
    """A propagated field norm grew beyond the configured bound."""


class ConfigError(ChronolabError):
    """A scenario configuration failed validation.

    `path` is a JSON-pointer-style location of the offending entry.
    """

    def __init__(self, message: str, path: str):
        super().__init__(message)
        self.path = path

    def __str__(self) -> str:
        return f"{self.path}: {super().__str__()}"
