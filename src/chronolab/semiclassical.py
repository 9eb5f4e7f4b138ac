"""The classical limit of the clock.

Holds the WKB action and amplitude tables of the heavy coordinate, the
perfect (free, sharp-momentum) clock, and the complex quantum time

    tau(R) = (i/hbar) M * integral of chi / (d chi/dR')  dR'.

For a plane-wave clock tau is the real classical time M R / P; for real
wavefunctions it is purely imaginary; in between it interpolates.

All derivatives of sampled data use the shared second-order stencils
from `core`.  `quantum_time` and `perfect_clock` default hbar to 1; the
records are given it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import TimeMap
from .core import Field1D, Grid1D, _cumulative_trapezoid, _d1
from .errors import DegenerateInputError, StationaryPointError

__all__ = [
    "WKBState",
    "ComplexTimeMap",
    "quantum_time",
    "PerfectClock",
    "perfect_clock",
]


@dataclass(eq=False)
class WKBState:
    """Action and amplitude tables of a semiclassical clock.

    action W(R) is the cumulative momentum integral, amplitude
    A(R) = p(R)^(-1/2) (unnormalized); the construction identity
    dW/dR = p is re-checked by finite difference on creation.
    """

    r_grid: Grid1D
    action: np.ndarray
    amplitude: np.ndarray
    momentum: np.ndarray
    M: float
    hbar: float

    def __post_init__(self):
        self.action = np.asarray(self.action, dtype=float)
        self.amplitude = np.asarray(self.amplitude, dtype=float)
        self.momentum = np.asarray(self.momentum, dtype=float)
        n = self.r_grid.n
        if self.action.shape != (n,) or self.amplitude.shape != (n,) or self.momentum.shape != (n,):
            raise DegenerateInputError("WKB tables do not match the grid")
        if np.any(self.momentum <= 0.0):
            raise DegenerateInputError("WKB momentum must be positive on the grid")
        fd = _d1(self.action, self.r_grid.spacing)
        self.momentum_defect = float(np.max(np.abs(fd - self.momentum)) / np.max(self.momentum))
        if self.momentum_defect > 1e-2:
            raise DegenerateInputError(
                f"dW/dR disagrees with p beyond stencil error ({self.momentum_defect:.3e}); "
                "grid too coarse for this clock"
            )

    def chi(self) -> Field1D:
        """chi_WKB = A * exp(i W / hbar)."""
        return Field1D(self.r_grid, self.amplitude * np.exp(1j * self.action / self.hbar))


@dataclass(eq=False)
class ComplexTimeMap:
    """Complex clock readings tau(R) along a grid, tau(R_min) = 0."""

    r_grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.r_grid.n,):
            raise DegenerateInputError("tau table does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise DegenerateInputError("tau table contains non-finite entries")

    @property
    def max_imag_fraction(self) -> float:
        scale = float(np.max(np.abs(self.values.real)))
        if scale == 0.0:
            return float("inf") if np.any(self.values.imag != 0.0) else 0.0
        return float(np.max(np.abs(self.values.imag))) / scale


def quantum_time(chi: Field1D, M: float, hbar: float = 1.0) -> ComplexTimeMap:
    """tau(R) = (i/hbar) M * cumulative integral of chi / chi'.

    chi' is the sampled second-order derivative; grid points where |chi'|
    falls below 1e-12 * max|chi'| are stationary points of the clock
    state and raise StationaryPointError with their locations.
    """
    if M <= 0 or hbar <= 0:
        raise DegenerateInputError("need M > 0 and hbar > 0")
    dchi = _d1(chi.values, chi.grid.spacing)
    mags = np.abs(dchi)
    top = float(mags.max())
    if top == 0.0:
        raise StationaryPointError("chi is constant: no clock runs here",
                                   locations=chi.grid.points[:8])
    low = mags < 1e-12 * top
    if np.any(low):
        bad = chi.grid.points[low]
        raise StationaryPointError(
            f"dchi/dR below threshold at {bad.size} grid points, e.g. R={bad[0]:.6g}",
            locations=bad[:8],
        )
    integrand = chi.values / dchi
    tau = (1j * M / hbar) * _cumulative_trapezoid(integrand, chi.grid.points)
    return ComplexTimeMap(chi.grid, tau)


@dataclass(frozen=True)
class PerfectClock:
    """Free clock at sharp momentum: the one case with no approximation."""

    M: float
    P: float
    r_grid: Grid1D
    hbar: float

    def chi(self) -> Field1D:
        """Plane wave (2 pi hbar)^(-1/2) exp(i P R / hbar)."""
        pref = (2.0 * np.pi * self.hbar) ** -0.5
        return Field1D(self.r_grid, pref * np.exp(1j * self.P * self.r_grid.points / self.hbar))

    def time_map(self) -> TimeMap:
        """t(R) = M (R - R_min) / P, at the rate dt/dR = M / P."""
        return TimeMap(self.r_grid, self.M * (self.r_grid.points - self.r_grid.lo) / self.P,
                       np.full(self.r_grid.n, self.M / self.P))


def perfect_clock(M: float, P: float, r_grid: Grid1D, hbar: float = 1.0) -> PerfectClock:
    """Clock with V = 0 and sharp momentum P > 0; t = M R / P exactly."""
    if M <= 0:
        raise DegenerateInputError(f"clock mass must be > 0, got {M}")
    if P <= 0:
        raise DegenerateInputError(f"a forward-running clock needs P > 0, got {P}")
    return PerfectClock(M, P, r_grid, hbar)
