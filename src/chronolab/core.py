"""Grids, fields, potentials and the shared numerical primitives.

Everything downstream works on uniform 1D grids and on 2D fields stored
row-major with the system coordinate x varying fastest: ``values[iR, ix]``.
Integrals are trapezoid sums.

A coupling V_I(x, R) is one product form, `Coupling(env, sys, strength)`
= strength * sys(x) * env(R); `Bilinear`, `WindowedPulse` and
`ZeroCoupling` are constructors of it.

This module is the one home of the finite-difference stencils:
`central_difference` (first and second derivatives, order 2 or 4, at the
interior rows), the one-sided edges that `_d1`/`_d2` add on top of it,
and the kinetic-energy coefficients `_kinetic_coeffs` with their
matrix-free application `_apply_kinetic`, from which the stationary
module assembles its banded and sparse matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    DegenerateInputError,
    DomainError,
    GridMismatchError,
)

__all__ = [
    "Grid1D",
    "Grid2D",
    "Field1D",
    "Field2D",
    "Potential",
    "Harmonic",
    "Linear",
    "Constant",
    "GaussianWell",
    "Tabulated",
    "Coupling",
    "Bilinear",
    "WindowedPulse",
    "ZeroCoupling",
    "SystemSpec",
    "CompositeSpec",
    "ChannelBasis",
    "eval_potential",
    "inner_product",
    "norm",
    "normalize",
    "first_derivative",
    "second_derivative",
]


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with `n` points on [lo, hi]."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.hi > self.lo:
            raise DegenerateInputError(f"grid needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.n < 3:
            raise DegenerateInputError(f"grid needs at least 3 points, got {self.n}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights."""
        w = np.full(self.n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def subgrid(self, i0: int, i1: int) -> "Grid1D":
        """Grid restricted to index range [i0, i1] inclusive."""
        if not (0 <= i0 < i1 <= self.n - 1):
            raise DegenerateInputError(f"bad subgrid range [{i0}, {i1}] for n={self.n}")
        p = self.points
        return Grid1D(float(p[i0]), float(p[i1]), i1 - i0 + 1)


@dataclass(frozen=True)
class Grid2D:
    """Product grid; fields on it are stored as values[iR, ix]."""

    r: Grid1D
    x: Grid1D

    @cached_property
    def weights(self) -> np.ndarray:
        return np.outer(self.r.weights, self.x.weights)


# ---------------------------------------------------------------------------
# fields


@dataclass(eq=False)
class Field1D:
    """Complex samples over a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise GridMismatchError(f"field shape {v.shape} does not match grid n={self.grid.n}")
        self.values = v


@dataclass(eq=False)
class Field2D:
    """Complex samples over a Grid2D, x fastest: values[iR, ix]."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.r.n, self.grid.x.n):
            raise GridMismatchError(
                f"field shape {v.shape} does not match grid ({self.grid.r.n}, {self.grid.x.n})"
            )
        self.values = v


def _same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


def inner_product(a, b) -> complex:
    """Trapezoid inner product <a|b> = integral of conj(a) * b.

    Works for Field1D and Field2D; both arguments must share a grid.
    """
    _same_grid(a, b)
    return complex(np.sum(a.grid.weights * np.conj(a.values) * b.values))


def norm(a) -> float:
    return float(np.sqrt(inner_product(a, a).real))


def normalize(a):
    """Return a unit-norm copy; raises on (numerically) zero input."""
    nrm = norm(a)
    scale = float(np.max(np.abs(a.values))) if a.values.size else 0.0
    if nrm == 0.0 or (scale > 0.0 and nrm < 1e-300 * scale) or scale == 0.0:
        raise DegenerateInputError("cannot normalize a zero field")
    cls = type(a)
    return cls(a.grid, a.values / nrm)


# ---------------------------------------------------------------------------
# finite-difference stencils


def central_difference(values: np.ndarray, h: float, deriv: int, order: int = 2) -> np.ndarray:
    """Central derivative along axis 0 at the interior rows only.

    `deriv` is 1 or 2 and `order` (2 or 4) the stencil's accuracy; the
    result drops order // 2 rows at each end of the axis.
    """
    v = values
    if order == 2:
        if deriv == 1:
            return (v[2:] - v[:-2]) / (2.0 * h)
        return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    if order == 4:
        if deriv == 1:
            return (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
        return (-v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2] + 16.0 * v[1:-3] - v[:-4]) / (12.0 * h * h)
    raise DegenerateInputError(f"central stencil order must be 2 or 4, got {order}")


def _d1(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """First derivative: central interior, one-sided second order at edges."""
    v = np.moveaxis(np.asarray(values), axis, 0)
    if v.shape[0] < 3:
        raise DegenerateInputError("need at least 3 points for a derivative")
    out = np.empty_like(v)
    out[1:-1] = central_difference(v, h, 1)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second derivative: 3-point central interior, one-sided at edges."""
    v = np.moveaxis(np.asarray(values), axis, 0)
    m = v.shape[0]
    if m < 3:
        raise DegenerateInputError("need at least 3 points for a second derivative")
    out = np.empty_like(v)
    h2 = h * h
    out[1:-1] = central_difference(v, h, 2)
    if m >= 4:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    else:
        # with 3 points the central stencil is all we have
        out[0] = out[1]
        out[-1] = out[1]
    return np.moveaxis(out, 0, axis)


def _kinetic_coeffs(order: int, h: float, mass: float, hbar: float):
    """Coefficients of -hbar^2/(2 mass) d^2/dq^2 as (diag, off1, off2)."""
    pref = hbar * hbar / (2.0 * mass * h * h)
    if order == 2:
        return 2.0 * pref, -1.0 * pref, 0.0
    if order == 4:
        return 30.0 / 12.0 * pref, -16.0 / 12.0 * pref, 1.0 / 12.0 * pref
    raise DegenerateInputError(f"kinetic stencil order must be 2 or 4, got {order}")


def _apply_kinetic(values: np.ndarray, axis: int, order: int, h: float, mass: float,
                   hbar: float) -> np.ndarray:
    """Apply the kinetic operator along one axis.

    The wall points are forced to zero and the stencil sees zero ghosts
    beyond them, which keeps the operator exactly symmetric (the
    Dirichlet box).
    """
    v = np.moveaxis(values, axis, 0)
    c0, c1, c2 = _kinetic_coeffs(order, h, mass, hbar)
    pad = 2
    z = np.zeros((v.shape[0] + 2 * pad,) + v.shape[1:], dtype=v.dtype)
    z[pad + 1:-pad - 1] = v[1:-1]  # walls forced to zero
    out = c0 * z[pad:-pad] + c1 * (z[pad - 1:-pad - 1] + z[pad + 1:-pad + 1])
    if c2 != 0.0:
        out += c2 * (z[pad - 2:-pad - 2] + z[pad + 2:])
    out[0] = 0.0
    out[-1] = 0.0
    return np.moveaxis(out, 0, axis)


def first_derivative(f: Field1D) -> Field1D:
    return Field1D(f.grid, _d1(f.values, f.grid.spacing))


def second_derivative(f: Field1D) -> Field1D:
    return Field1D(f.grid, _d2(f.values, f.grid.spacing))


# ---------------------------------------------------------------------------
# 1D potentials


class Potential:
    """Scalar potential of one coordinate.

    Subclasses implement __call__ and derivative; both accept scalars or
    arrays and broadcast.
    """

    def __call__(self, q):
        raise NotImplementedError

    def derivative(self, q):
        raise NotImplementedError


@dataclass(frozen=True)
class Harmonic(Potential):
    k: float
    center: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise DegenerateInputError(f"harmonic stiffness must be >= 0, got {self.k}")

    def __call__(self, q):
        d = np.asarray(q) - self.center
        return 0.5 * self.k * d * d

    def derivative(self, q):
        return self.k * (np.asarray(q) - self.center)


@dataclass(frozen=True)
class Linear(Potential):
    slope: float

    def __call__(self, q):
        return self.slope * np.asarray(q)

    def derivative(self, q):
        return np.full_like(np.asarray(q, dtype=float), self.slope)


@dataclass(frozen=True)
class Constant(Potential):
    value: float = 0.0

    def __call__(self, q):
        return np.full_like(np.asarray(q, dtype=float), self.value)

    def derivative(self, q):
        return np.zeros_like(np.asarray(q, dtype=float))


@dataclass(frozen=True)
class GaussianWell(Potential):
    """V(q) = -depth * exp(-(q - center)^2 / (2 width^2)).

    A negative depth makes a bump; depth -1 is the unit Gaussian envelope
    of `WindowedPulse`.
    """

    depth: float
    width: float
    center: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise DegenerateInputError(f"gaussian well width must be > 0, got {self.width}")

    def __call__(self, q):
        d = np.asarray(q) - self.center
        return -self.depth * np.exp(-d * d / (2.0 * self.width**2))

    def derivative(self, q):
        d = np.asarray(q) - self.center
        return self.depth * d / self.width**2 * np.exp(-d * d / (2.0 * self.width**2))


class Tabulated(Potential):
    """Cubic interpolation through sampled values; out-of-span lookups fail."""

    def __init__(self, grid: Grid1D, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.n,):
            raise GridMismatchError("tabulated values do not match grid")
        if grid.n < 4:
            raise DegenerateInputError("tabulated potential needs at least 4 samples")
        self.grid = grid
        self.samples = v
        self._spline = CubicSpline(grid.points, v)
        self._dspline = self._spline.derivative()

    def _check(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < self.grid.lo) or np.any(q > self.grid.hi):
            raise DomainError(
                f"coordinate outside tabulated span [{self.grid.lo}, {self.grid.hi}]"
            )
        return q

    def __call__(self, q):
        return self._spline(self._check(q))

    def derivative(self, q):
        return self._dspline(self._check(q))


# ---------------------------------------------------------------------------
# couplings V_I(x, R)


@dataclass(frozen=True)
class Coupling:
    """V_I(x, R) = strength * sys(x) * env(R), a product of two 1D potentials.

    The system sees the clock only through env(R): read along a clock map
    R(t), the coupling is the drive strength * env(R(t)) * sys(x).  The
    stationary solves use the same split, as the profile g(R) =
    strength * env(R) times the matrix elements of sys(x).
    """

    env: Potential
    sys: Potential
    strength: float = 1.0

    def __call__(self, x, r):
        return (self.strength * self.sys(x)) * self.env(r)

    def d_dx(self, x, r):
        return (self.strength * self.sys.derivative(x)) * self.env(r)

    def d_dr(self, x, r):
        return (self.strength * self.sys(x)) * self.env.derivative(r)


def Bilinear(strength: float) -> Coupling:
    """V_I(x, R) = strength * x * R."""
    return Coupling(Linear(1.0), Linear(1.0), strength)


def WindowedPulse(amplitude: float, center: float, width: float, profile: Potential) -> Coupling:
    """V_I(x, R) = amplitude * profile(x) * exp(-(R - center)^2 / (2 width^2))."""
    return Coupling(GaussianWell(-1.0, width, center), profile, amplitude)


def ZeroCoupling() -> Coupling:
    """V_I = 0: the system does not see the clock."""
    return Coupling(Constant(0.0), Constant(0.0), 0.0)


def eval_potential(spec, coords):
    """Evaluate a Potential at q, or a Coupling at (x, r).

    Raises DomainError outside a tabulated span and rejects non-finite
    results, so downstream code can rely on finite energies.
    """
    if isinstance(spec, Coupling):
        x, r = coords
        val = spec(x, r)
    else:
        val = spec(coords)
    arr = np.asarray(val)
    if not np.all(np.isfinite(arr)):
        raise DomainError("potential evaluated to a non-finite value")
    return val


# ---------------------------------------------------------------------------
# model specs


@dataclass(frozen=True)
class SystemSpec:
    """System half of a composite: mass, hbar and the static potential."""

    m: float
    hbar: float
    v_sys: Potential

    def __post_init__(self):
        if self.m <= 0:
            raise DegenerateInputError(f"system mass must be > 0, got {self.m}")
        if self.hbar <= 0:
            raise DegenerateInputError(f"hbar must be > 0, got {self.hbar}")


@dataclass(frozen=True)
class CompositeSpec:
    """Closed composite: heavy environment (mass M, coordinate R) plus system
    (mass m, coordinate x), with V(x,R) = v_env(R) + v_sys(x) + v_int(x,R).

    `energy` is the composite eigenvalue E; `clock_energy` is the share
    assigned to the environment when it is used as a clock.  Either may be
    left unset until a solve determines it.
    """

    M: float
    m: float
    hbar: float
    v_env: Potential
    v_sys: Potential
    v_int: Coupling
    energy: float | None = None
    clock_energy: float | None = None

    def __post_init__(self):
        if self.M <= 0 or self.m <= 0:
            raise DegenerateInputError(f"masses must be > 0, got M={self.M}, m={self.m}")
        if self.hbar <= 0:
            raise DegenerateInputError(f"hbar must be > 0, got {self.hbar}")
        if self.energy is not None and self.clock_energy is not None:
            if self.clock_energy > self.energy + 1e-12 * max(1.0, abs(self.energy)):
                raise DegenerateInputError(
                    f"clock energy {self.clock_energy} exceeds total energy {self.energy}"
                )

    @property
    def system(self) -> SystemSpec:
        return SystemSpec(self.m, self.hbar, self.v_sys)

    def total_potential(self, x, r):
        return self.v_env(r) + self.v_sys(x) + self.v_int(x, r)


# largest |<phi_m|phi_n> - delta_mn| a ChannelBasis accepts
ORTHONORMALITY_TOL = 1e-8


@dataclass(eq=False)
class ChannelBasis:
    """Orthonormal system states with their energies.

    `stencil_order` records which kinetic stencil produced the states so
    residual evaluators can stay consistent with them.
    """

    x_grid: Grid1D
    states: tuple
    energies: np.ndarray
    stencil_order: int = 2

    def __post_init__(self):
        self.states = tuple(self.states)
        self.energies = np.asarray(self.energies, dtype=float)
        if len(self.states) != self.energies.shape[0]:
            raise GridMismatchError("state count does not match energy count")
        for s in self.states:
            if s.grid != self.x_grid:
                raise GridMismatchError("basis state grid differs from basis grid")
        g = self.gram()
        defect = float(np.max(np.abs(g - np.eye(len(self.states)))))
        if defect > ORTHONORMALITY_TOL:
            raise DegenerateInputError(
                f"basis not orthonormal: max defect {defect:.3e} > {ORTHONORMALITY_TOL:.1e}"
            )

    def __len__(self):
        return len(self.states)

    def gram(self) -> np.ndarray:
        w = self.x_grid.weights
        mat = np.array([s.values for s in self.states])
        return (mat * w) @ np.conj(mat).T

    def state_matrix(self) -> np.ndarray:
        """(k, nx) array of state values."""
        return np.array([s.values for s in self.states])
