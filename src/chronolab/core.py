"""Grids, fields, potentials and the shared numerical primitives.

Everything downstream works on uniform 1D grids and on 2D fields stored
row-major with the system coordinate x varying fastest: ``values[iR, ix]``.
Integrals are trapezoid sums; `_cumulative_trapezoid` is the one running
sum: the classical and the quantum clock time, and the back-reaction phase.

A coupling V_I(x, R) is one product form, `Coupling(env, sys, strength)`
= strength * sys(x) * env(R); `Bilinear`, `WindowedPulse` and
`ZeroCoupling` are constructors of it.

This module is the one home of the finite-difference stencils:
`central_difference` (first and second derivatives, order 2 or 4, at the
interior rows), the one-sided edges that `_d1` adds on top of it, the
kinetic-energy coefficients `_kinetic_coeffs` with their matrix-free
application `_apply_kinetic` along the last axis, and the order-2
lattice's dispersion `_discrete_wavenumber`.  The stationary module
tabulates the coefficients once as a banded kinetic table and derives
the composite's sparse matrix from it; there is no matrix-free
composite Hamiltonian.

It is also the one home of a `ChannelBasis`'s channel space.  A basis
is its real (k, nx) table of states, and every channel-space reader
takes that table as it is: `_project`, `_coupling_matrix`, the basis'
own Gram check, and `_channel_operators`, which builds the real H_s, W
and Gram matrix of the out-of-span parts, and `_gram_norms`, the one
quadratic form: the norms the directed and the TDSE residual read off
the real Gram sums of their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, GridMismatchError, TurningPointError

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
    "Coupling",
    "Bilinear",
    "WindowedPulse",
    "ZeroCoupling",
    "SystemSpec",
    "CompositeSpec",
    "ChannelBasis",
    "inner_product",
    "norm",
    "normalize",
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
    if deriv not in (1, 2):
        raise DegenerateInputError(f"central stencil derivative must be 1 or 2, got {deriv}")
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


def _d1(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative: central interior, one-sided second order at edges."""
    v = np.asarray(values)
    if v.shape[0] < 3:
        raise DegenerateInputError("need at least 3 points for a derivative")
    out = np.empty_like(v)
    out[1:-1] = central_difference(v, h, 1)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of the samples y over x, 0 at x[0]."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _kinetic_coeffs(order: int, h: float, mass: float, hbar: float):
    """Coefficients of -hbar^2/(2 mass) d^2/dq^2 as (diag, off1, off2).

    Raises DegenerateInputError when the prefactor hbar^2/(2 mass h^2) is
    not finite, as when 2 mass h^2 underflows to zero."""
    den = 2.0 * mass * h * h
    pref = hbar * hbar / den if den > 0.0 else np.inf
    if not np.isfinite(pref):
        raise DegenerateInputError(
            f"kinetic prefactor hbar^2/(2 m h^2) is not finite at m={mass:.3g}, h={h:.3g}"
        )
    if order == 2:
        return 2.0 * pref, -1.0 * pref, 0.0
    if order == 4:
        return 30.0 / 12.0 * pref, -16.0 / 12.0 * pref, 1.0 / 12.0 * pref
    raise DegenerateInputError(f"kinetic stencil order must be 2 or 4, got {order}")


def _discrete_wavenumber(energy_kin: float, h: float, mass: float, hbar: float) -> float:
    """Wavenumber of the order-2 lattice plane wave at kinetic energy e:
    the dispersion of the 3-point stencil of `_kinetic_coeffs`."""
    c = 1.0 - mass * h * h * energy_kin / (hbar * hbar)
    if not -1.0 < c < 1.0:
        raise TurningPointError(
            f"no open lattice mode at kinetic energy {energy_kin:.6g} with spacing {h:.3g}"
        )
    return float(np.arccos(c) / h)


def _apply_kinetic(values: np.ndarray, order: int, h: float, mass: float,
                   hbar: float) -> np.ndarray:
    """Apply the kinetic operator along the last axis.

    The wall points are forced to zero and the stencil sees zero ghosts
    beyond them, which keeps the operator exactly symmetric (the
    Dirichlet box).
    """
    c0, c1, c2 = _kinetic_coeffs(order, h, mass, hbar)
    pad = 2
    z = np.zeros(values.shape[:-1] + (values.shape[-1] + 2 * pad,), dtype=values.dtype)
    z[..., pad + 1:-pad - 1] = values[..., 1:-1]  # walls forced to zero
    out = c0 * z[..., pad:-pad] + c1 * (z[..., pad - 1:-pad - 1] + z[..., pad + 1:-pad + 1])
    if c2 != 0.0:
        out += c2 * (z[..., pad - 2:-pad - 2] + z[..., pad + 2:])
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


def _loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    coeffs = np.polyfit(np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float)), 1)
    return float(coeffs[0])


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
    """V(q) = 0.5 * k * q^2."""

    k: float

    def __post_init__(self):
        if self.k < 0:
            raise DegenerateInputError(f"harmonic stiffness must be >= 0, got {self.k}")

    def __call__(self, q):
        q = np.asarray(q)
        return 0.5 * self.k * q * q

    def derivative(self, q):
        return self.k * np.asarray(q)


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
    center: float

    def __post_init__(self):
        if self.width <= 0:
            raise DegenerateInputError(f"gaussian well width must be > 0, got {self.width}")
        if not np.isfinite(self.width * self.width):
            raise DegenerateInputError(f"gaussian well width {self.width} has no finite square")

    def __call__(self, q):
        d = np.asarray(q) - self.center
        return -self.depth * np.exp(-d * d / (2.0 * self.width**2))

    def derivative(self, q):
        d = np.asarray(q) - self.center
        return self.depth * d / self.width**2 * np.exp(-d * d / (2.0 * self.width**2))


# ---------------------------------------------------------------------------
# couplings V_I(x, R)


@dataclass(frozen=True)
class Coupling:
    """V_I(x, R) = strength * sys(x) * env(R), a product of two 1D potentials.

    The system sees the clock only through env(R): read along a clock map
    R(t), the coupling is the drive strength * env(R(t)) * sys(x).  Every
    reader uses that split: the profile g(R) = strength * env(R)
    (`profile`) times sys(x) or its matrix elements.
    """

    env: Potential
    sys: Potential
    strength: float

    def __call__(self, x, r):
        return (self.strength * self.sys(x)) * self.env(r)

    def profile(self, r):
        """g(R) = strength * env(R), the factor that multiplies sys(x)."""
        return self.strength * np.asarray(self.env(r), dtype=float)

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

    The spec holds no energy: a solve takes E as its argument and the
    state it returns carries it.
    """

    M: float
    m: float
    hbar: float
    v_env: Potential
    v_sys: Potential
    v_int: Coupling

    def __post_init__(self):
        if self.M <= 0 or self.m <= 0:
            raise DegenerateInputError(f"masses must be > 0, got M={self.M}, m={self.m}")
        if self.hbar <= 0:
            raise DegenerateInputError(f"hbar must be > 0, got {self.hbar}")

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

    `states` is the one table of the basis: a real, C-contiguous (k, nx)
    array whose row n is phi_n on `x_grid`, the k rows matching the k
    `energies`.  A complex table is accepted only with an imaginary part
    that is exactly zero (DegenerateInputError otherwise), so every
    channel-space matrix built from the states is real.  `stencil_order`
    records which kinetic stencil produced the states so residual
    evaluators can stay consistent with them.
    """

    x_grid: Grid1D
    states: np.ndarray
    energies: np.ndarray
    stencil_order: int

    def __post_init__(self):
        states = np.asarray(self.states)
        if np.iscomplexobj(states):
            if np.any(states.imag):
                raise DegenerateInputError("channel states must be real: the imaginary part "
                                           "of the state table is not zero")
            states = states.real
        self.states = np.ascontiguousarray(states, dtype=float)
        self.energies = np.asarray(self.energies, dtype=float)
        if self.states.shape != (self.energies.shape[0], self.x_grid.n):
            raise GridMismatchError(
                f"state table {self.states.shape} does not match "
                f"({self.energies.shape[0]} energies, {self.x_grid.n} grid points)"
            )
        g = self.gram()
        defect = float(np.max(np.abs(g - np.eye(len(self)))))
        if defect > ORTHONORMALITY_TOL:
            raise DegenerateInputError(
                f"basis not orthonormal: max defect {defect:.3e} > {ORTHONORMALITY_TOL:.1e}"
            )

    def __len__(self):
        return self.states.shape[0]

    def gram(self) -> np.ndarray:
        return (self.states * self.x_grid.weights) @ self.states.T


# ---------------------------------------------------------------------------
# channel space


def _project(basis: ChannelBasis, values: np.ndarray) -> np.ndarray:
    """<phi_m | values> over the last axis of `values`, (k, ...) by quadrature.

    An unoptimized einsum sums each x row in one fixed order, so a
    projection does not depend on the BLAS thread count.
    """
    return np.einsum("kx,...x->k...", basis.states * basis.x_grid.weights, values,
                     optimize=False)


def _real_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of two real tables as a contiguous real table, summed as one
    complex product.

    The channel-space matrices are quadrature sums over the x grid, and
    the out-of-span norms the residuals read from them are differences of
    near-equal sums, which move with the last bit of a sum: the complex
    product's rounding is the one the directed amplitudes and the recorded
    residuals carry, bit for bit."""
    return np.ascontiguousarray((a.astype(complex) @ b).real)


def _coupling_matrix(basis: ChannelBasis, sys: Potential) -> np.ndarray:
    """W = <phi_m | sys | phi_n> by quadrature, a real (k, k) table, for the
    x factor `sys` of a coupling g(R) sys(x): the one formula for W."""
    sys_x = np.asarray(sys(basis.x_grid.points), dtype=float)
    return _real_product(basis.states * (basis.x_grid.weights * sys_x), basis.states.T)


def _channel_operators(system, basis: ChannelBasis, sys: Potential) -> tuple:
    """(hs, W, gram) of a system (SystemSpec or CompositeSpec) and a coupling g(R) sys(x),
    three real tables, each summed in complex arithmetic as `_real_product`
    explains (hs by the complex einsum of `_project`).

    hs = <phi_m|H_S phi_n> at the basis stencil, W from `_coupling_matrix`
    and gram the 3k x 3k Gram matrix over the interior x columns of
    (phi_n, d_n, e_n), where d_n = H_S phi_n - sum_m hs_mn phi_m and
    e_n = sys phi_n - sum_m W_mn phi_m are the parts outside the span."""
    mat = basis.states
    x = basis.x_grid.points
    hs_phi = (_apply_kinetic(mat, basis.stencil_order, basis.x_grid.spacing, system.m,
                             system.hbar)
              + np.asarray(system.v_sys(x), dtype=float) * mat)
    sys_phi = np.asarray(sys(x), dtype=float) * mat
    hs = np.ascontiguousarray(_project(basis, hs_phi.astype(complex)).real)
    w = _coupling_matrix(basis, sys)
    vecs = np.concatenate([mat, hs_phi - _real_product(hs.T, mat),
                           sys_phi - _real_product(w.T, mat)])[:, 1:-1]
    return hs, w, _real_product(vecs * basis.x_grid.weights[1:-1], vecs.T)


def _gram_norms(gram: np.ndarray, sums: np.ndarray) -> tuple:
    """Squared norms summed over rows sum_m c_m phi_m + sum_n a_n (d_n + g e_n),
    each row given as y = (c, a, g a), from the real `gram` of
    `_channel_operators` and the rows' real (3k, 3k) Gram sums,
    sums = Re y^H y over all rows.

    A row's squared norm y^H gram y is sum(gram * conj(y) y^T), whose
    imaginary part cancels for a real symmetric gram, so the sum over
    rows is sum(gram * sums): the caller forms sums with one product per
    block of rows instead of a form per row, as yf yf^T of the rows'
    real and imaginary parts side by side.  Returns (rows, field,
    outside): field is the norm of sum_n a_n phi_n, the a block of sums
    on the phi block of gram, and outside that of the rows' part outside
    the span, the (a, g a) block on the (d, e) block."""
    k = len(gram) // 3
    terms = gram * sums
    field = gram[:k, :k] * sums[k:2 * k, k:2 * k]
    return float(terms.sum()), float(field.sum()), float(terms[k:, k:].sum())
