"""Stationary quantum mechanics of the closed composite.

The composite obeys a single time-independent Schroedinger equation on a
2D box.  This module builds the grid Hamiltonian, solves for interior
eigenpairs and for directed channel states, splits eigenstates into a
clock factor chi(R) times a conditional factor psi(x, R), evaluates the
back-reaction potential U_S(R) and the residuals of the projected
equations, and provides fixed-R channel bases with the close-coupled
residual and the Schmidt spectrum.

Channel-space constructions use the product form of the coupling,
strength * env(R) * sys(x): the coupling matrices on R row j are
g(R_j) times the one (k, k) matrix of sys(x), with g = strength * env.

Kinetic stencils are the 5-point (fourth-order) form per axis by
default; operators can be built with per-axis order 2 where a downstream
construction needs the 3-point form.  Residual evaluators take their
stencil orders from the objects they test so operator and diagnostic
stay consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eig_banded
from scipy.sparse.linalg import eigsh

from .core import (
    ChannelBasis,
    Field1D,
    Field2D,
    Grid1D,
    Grid2D,
    _apply_kinetic,
    _kinetic_coeffs,
    central_difference,
    norm,
)
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    GridMismatchError,
    NodeError,
    TurningPointError,
    WindowError,
)

__all__ = [
    "Hamiltonian2D",
    "assemble_tise",
    "EigenPair",
    "solve_eigenpairs",
    "solve_directed_state",
    "FactorizedState",
    "factorize_prescribed",
    "factorize_selfconsistent",
    "compute_back_reaction",
    "conditional_equation_residual",
    "solve_system_basis",
    "solve_bo_states",
    "bo_surface",
    "project_channels",
    "ChannelDecomposition",
    "close_coupled_residuals",
    "CloseCoupledReport",
    "schmidt_spectrum",
    "SchmidtSpectrum",
]

# relative amplitude below which chi is treated as absent
WINDOW_THRESHOLD = 1e-8


# ---------------------------------------------------------------------------
# kinetic matrices (coefficients from core)


def _kinetic_banded(n_interior: int, order: int, h: float, mass: float, hbar: float) -> np.ndarray:
    """Upper banded form (for eig_banded) of the interior kinetic matrix."""
    c0, c1, c2 = _kinetic_coeffs(order, h, mass, hbar)
    bands = np.zeros((3 if order == 4 else 2, n_interior))
    bands[-1] = c0
    bands[-2, 1:] = c1
    if order == 4:
        bands[-3, 2:] = c2
    return bands


def _kinetic_sparse(n_interior: int, order: int, h: float, mass: float, hbar: float):
    c0, c1, c2 = _kinetic_coeffs(order, h, mass, hbar)
    diagonals = [np.full(n_interior, c0)]
    offsets = [0]
    diagonals += [np.full(n_interior - 1, c1)] * 2
    offsets += [1, -1]
    if order == 4 and n_interior > 2:
        diagonals += [np.full(n_interior - 2, c2)] * 2
        offsets += [2, -2]
    return sparse.diags(diagonals, offsets, format="csr")


# ---------------------------------------------------------------------------
# the composite Hamiltonian


@dataclass(eq=False)
class Hamiltonian2D:
    """Matrix-free composite Hamiltonian on a Dirichlet box.

    Acts on Field2D values stored as values[iR, ix].  The domain is the
    open box: wall values are projected to zero on application, and
    residual norms run over interior rows only.
    """

    grid: Grid2D
    M: float
    m: float
    hbar: float
    v_table: np.ndarray  # (nR, nx)
    order_r: int = 4
    order_x: int = 4

    def __post_init__(self):
        self.v_table = np.asarray(self.v_table, dtype=float)
        if self.v_table.shape != (self.grid.r.n, self.grid.x.n):
            raise GridMismatchError("potential table does not match grid")

    def apply(self, f: Field2D) -> Field2D:
        if f.grid != self.grid:
            raise GridMismatchError("field grid does not match Hamiltonian grid")
        v = f.values
        out = _apply_kinetic(v, 0, self.order_r, self.grid.r.spacing, self.M, self.hbar)
        out += _apply_kinetic(v, 1, self.order_x, self.grid.x.spacing, self.m, self.hbar)
        pot = self.v_table * v
        pot[0, :] = 0.0
        pot[-1, :] = 0.0
        pot[:, 0] = 0.0
        pot[:, -1] = 0.0
        out += pot
        return Field2D(self.grid, out)

    def residual(self, f: Field2D, energy: float) -> float:
        """||(H - E) f|| / ||f|| with the norm over interior rows."""
        hf = self.apply(f).values - energy * f.values
        w = self.grid.weights
        inner = (slice(1, -1), slice(1, -1))
        num = np.sqrt(float(np.sum(w[inner] * np.abs(hf[inner]) ** 2)))
        den = np.sqrt(float(np.sum(w[inner] * np.abs(f.values[inner]) ** 2)))
        if den == 0.0:
            raise DegenerateInputError("zero field in residual")
        return num / den

    def to_sparse(self):
        """Interior-point sparse matrix (row-major, x fastest)."""
        nr, nx = self.grid.r.n - 2, self.grid.x.n - 2
        kr = _kinetic_sparse(nr, self.order_r, self.grid.r.spacing, self.M, self.hbar)
        kx = _kinetic_sparse(nx, self.order_x, self.grid.x.spacing, self.m, self.hbar)
        h = sparse.kron(kr, sparse.identity(nx)) + sparse.kron(sparse.identity(nr), kx)
        h = h + sparse.diags(self.v_table[1:-1, 1:-1].ravel())
        return h.tocsc()


def assemble_tise(spec, grid: Grid2D, order_r: int = 4, order_x: int = 4) -> Hamiltonian2D:
    """Build the composite Hamiltonian for a CompositeSpec on a box grid."""
    r = grid.r.points[:, None]
    x = grid.x.points[None, :]
    v = np.asarray(spec.v_env(r) + spec.v_sys(x) + spec.v_int(x, r), dtype=float)
    v = np.broadcast_to(v, (grid.r.n, grid.x.n)).copy()
    if not np.all(np.isfinite(v)):
        raise DegenerateInputError("potential table contains non-finite values")
    return Hamiltonian2D(grid, spec.M, spec.m, spec.hbar, v, order_r, order_x)


# ---------------------------------------------------------------------------
# eigenpairs


@dataclass(eq=False)
class EigenPair:
    """Converged eigenpair: energy, unit-norm field, interior residual."""

    energy: float
    state: Field2D
    residual: float


def solve_eigenpairs(
    h: Hamiltonian2D,
    e_target: float,
    k: int,
    seed: int = 0,
    residual_tol: float = 1e-8,
) -> list[EigenPair]:
    """The k eigenpairs nearest e_target via shift-invert Lanczos.

    Deterministic for a fixed seed (the Krylov start vector is seeded).
    Raises ConvergenceError if any returned pair misses the residual
    bound residual_tol * |E|.
    """
    if k < 1:
        raise DegenerateInputError("need k >= 1")
    a = h.to_sparse()
    n = a.shape[0]
    if k >= n:
        raise DegenerateInputError(f"k={k} too large for {n} interior points")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    vals, vecs = eigsh(a, k=k, sigma=e_target, which="LM", v0=v0)
    order = np.argsort(vals)
    pairs = []
    for idx in order:
        full = np.zeros((h.grid.r.n, h.grid.x.n), dtype=complex)
        full[1:-1, 1:-1] = vecs[:, idx].reshape(h.grid.r.n - 2, h.grid.x.n - 2)
        f = Field2D(h.grid, full)
        f = Field2D(h.grid, full / norm(f))
        res = h.residual(f, float(vals[idx]))
        pairs.append(EigenPair(float(vals[idx]), f, res))
    bad = [p for p in pairs if p.residual > residual_tol * max(abs(p.energy), 1e-300)]
    if bad:
        raise ConvergenceError(
            f"{len(bad)} eigenpairs exceed the residual bound",
            trace=[(p.energy, p.residual) for p in pairs],
        )
    return pairs


# ---------------------------------------------------------------------------
# 1D banded eigensolves (system direction)


def _solve_banded_eigen(v_diag: np.ndarray, grid: Grid1D, mass: float, hbar: float,
                        k: int, order: int):
    """Lowest k interior eigenpairs of -hbar^2/2m d^2 + diag(v)."""
    n_int = grid.n - 2
    if k > n_int:
        raise DegenerateInputError(f"k={k} exceeds interior size {n_int}")
    bands = _kinetic_banded(n_int, order, grid.spacing, mass, hbar).copy()
    bands[-1] += v_diag[1:-1]
    vals, vecs = eig_banded(bands, lower=False, select="i", select_range=(0, k - 1))
    return vals, vecs


def _embed_states(grid: Grid1D, vecs: np.ndarray) -> list[Field1D]:
    states = []
    for j in range(vecs.shape[1]):
        full = np.zeros(grid.n, dtype=complex)
        full[1:-1] = vecs[:, j]
        f = Field1D(grid, full)
        f = Field1D(grid, full / norm(f))
        # sign fixed: real positive at the amplitude maximum
        i = int(np.argmax(np.abs(f.values)))
        if f.values[i].real < 0:
            f = Field1D(grid, -f.values)
        states.append(f)
    return states


def solve_system_basis(system, x_grid: Grid1D, k: int, order: int = 2) -> ChannelBasis:
    """Channel basis from the lowest k system eigenstates.

    `order` selects the kinetic stencil and is recorded on the basis so
    propagators and residual evaluators can match it.
    """
    v = np.asarray(system.v_sys(x_grid.points), dtype=float)
    vals, vecs = _solve_banded_eigen(v, x_grid, system.m, system.hbar, k, order)
    states = _embed_states(x_grid, vecs)
    return ChannelBasis(x_grid, states, vals, stencil_order=order)


def solve_bo_states(spec, x_grid: Grid1D, r_value: float, k: int, order: int = 4):
    """Fixed-R system eigenpairs of H_S + V_I(. , R).

    Returns (states, energies); signs follow the real-positive-at-peak
    convention.  Use `bo_surface` for sweeps with smooth continuation.
    """
    v = np.asarray(spec.v_sys(x_grid.points) + spec.v_int(x_grid.points, r_value), dtype=float)
    vals, vecs = _solve_banded_eigen(v, x_grid, spec.m, spec.hbar, k, order)
    return _embed_states(x_grid, vecs), vals


@dataclass(eq=False)
class BOSurface:
    r_values: np.ndarray
    energies: np.ndarray  # (k, nR)


def bo_surface(spec, x_grid: Grid1D, r_values, k: int, order: int = 4) -> BOSurface:
    """Sweep solve_bo_states over R, aligning state signs by overlap."""
    r_values = np.asarray(r_values, dtype=float)
    energies = np.empty((k, r_values.size))
    prev = None
    w = x_grid.weights
    for j, r in enumerate(r_values):
        states, vals = solve_bo_states(spec, x_grid, float(r), k, order)
        if prev is not None:
            aligned = []
            for s, p in zip(states, prev):
                ov = np.sum(w * np.conj(p.values) * s.values).real
                aligned.append(Field1D(x_grid, -s.values) if ov < 0 else s)
            states = aligned
        energies[:, j] = vals
        prev = states
    return BOSurface(r_values, energies)


# ---------------------------------------------------------------------------
# factorization


@dataclass(eq=False)
class FactorizedState:
    """Composite state written as chi(R) * psi(x, R) on a retained window.

    `window` is the (i0, i1) index range of the full R grid where
    |chi| clears the relative threshold; chi and psi live on that
    window's subgrid.  `u_s` is filled by compute_back_reaction.
    """

    chi: Field1D
    psi: Field2D
    window: tuple
    mode: str
    stencil_orders: tuple = (4, 4)
    u_s: Field1D | None = None


def _window_of(chi_values: np.ndarray, r_points: np.ndarray, threshold: float):
    amp = np.abs(chi_values)
    mask = amp > threshold * float(amp.max())
    if not np.any(mask):
        raise DegenerateInputError("chi is zero everywhere")
    idx = np.flatnonzero(mask)
    i0, i1 = int(idx[0]), int(idx[-1])
    inside = mask[i0:i1 + 1]
    if not np.all(inside):
        bad = r_points[i0:i1 + 1][~inside]
        raise NodeError(
            f"chi falls below threshold at {bad.size} interior points, e.g. R={bad[0]:.6g}",
            locations=bad[:8],
        )
    return i0, i1


def factorize_prescribed(state: Field2D, chi: Field1D,
                         threshold: float = WINDOW_THRESHOLD,
                         stencil_orders: tuple = (4, 4)) -> FactorizedState:
    """Split a composite field as chi * psi with a caller-supplied chi.

    psi = state / chi on the window where |chi| clears the threshold;
    interior dips below the threshold raise NodeError since psi would
    need division by a vanishing chi.
    """
    if chi.grid != state.grid.r:
        raise GridMismatchError("chi grid does not match the R axis of the state")
    i0, i1 = _window_of(chi.values, chi.grid.points, threshold)
    sub = chi.grid.subgrid(i0, i1)
    chi_w = Field1D(sub, chi.values[i0:i1 + 1])
    grid_w = Grid2D(sub, state.grid.x)
    psi = Field2D(grid_w, state.values[i0:i1 + 1, :] / chi_w.values[:, None])
    out = FactorizedState(chi_w, psi, (i0, i1), mode="prescribed", stencil_orders=stencil_orders)
    _check_product(out, state)
    return out


def _check_product(fs: FactorizedState, state: Field2D, tol: float = 1e-12):
    i0, i1 = fs.window
    recon = fs.chi.values[:, None] * fs.psi.values
    target = state.values[i0:i1 + 1, :]
    scale = float(np.max(np.abs(target))) or 1.0
    defect = float(np.max(np.abs(recon - target))) / scale
    if defect > tol:
        raise DegenerateInputError(f"factorization does not reproduce the state: {defect:.3e}")


def _slice_hamiltonian(spec, psi: np.ndarray, x_grid: Grid1D, r: np.ndarray,
                      order: int) -> np.ndarray:
    """(H_S + V_I(., R)) psi per R slice for psi[iR, ix], order-`order` x stencil."""
    x = x_grid.points
    hs = _apply_kinetic(psi, 1, order, x_grid.spacing, spec.m, spec.hbar)
    hs += (np.asarray(spec.v_sys(x), dtype=float)[None, :]
           + np.asarray(spec.v_int(x[None, :], r[:, None]), dtype=float)) * psi
    return hs


def _conditional_terms(fs: FactorizedState, spec):
    """Operator terms of the conditional-factor equation on the rows the
    R stencil reaches (the outermost margin slices are clipped).

    Returns (sl, hs_psi, dpsi, d2psi, log_dchi): the row slice,
    (H_S + V_I) psi, the first and second R derivatives of psi, and
    (1/chi) dchi/dR, all restricted to those rows.
    """
    order_r, order_x = fs.stencil_orders
    margin = 2 if order_r == 4 else 1
    nr = fs.psi.grid.r.n
    if nr < 2 * margin + 3:
        raise WindowError(f"window of {nr} slices too narrow for the R stencil")
    h_r = fs.psi.grid.r.spacing
    psi = fs.psi.values
    sl = slice(margin, nr - margin)
    hs_psi = _slice_hamiltonian(spec, psi, fs.psi.grid.x, fs.psi.grid.r.points, order_x)
    log_dchi = central_difference(fs.chi.values, h_r, 1, order_r) / fs.chi.values[sl]
    return (sl, hs_psi[sl], central_difference(psi, h_r, 1, order_r),
            central_difference(psi, h_r, 2, order_r), log_dchi)


def compute_back_reaction(fs: FactorizedState, spec) -> Field1D:
    """Back-reaction potential U_S(R) felt by the clock.

    Per R slice the expectation value over x of

        H_S + V_I(., R)
        - (hbar^2/M) (1/chi)(dchi/dR) d/dR
        - (hbar^2/2M) d^2/dR^2

    in psi, normalized by the slice weight (psi|psi).  The derivative
    stencils match the orders recorded on the FactorizedState; the
    outermost margin slices are clipped accordingly.
    """
    sl, hs_psi, dpsi, d2psi, log_dchi = _conditional_terms(fs, spec)
    wx = fs.psi.grid.x.weights
    psi = fs.psi.values
    hbar, bigm = spec.hbar, spec.M
    bra = np.conj(psi[sl])
    weight = np.sum(wx * np.abs(psi[sl]) ** 2, axis=1)
    if np.any(weight <= 0.0):
        raise DegenerateInputError("psi slice with zero weight inside the window")

    term = (
        np.sum(wx * bra * hs_psi, axis=1)
        - (hbar**2 / bigm) * log_dchi * np.sum(wx * bra * dpsi, axis=1)
        - (hbar**2 / (2.0 * bigm)) * np.sum(wx * bra * d2psi, axis=1)
    )
    sub = fs.psi.grid.r.subgrid(sl.start, sl.stop - 1)
    return Field1D(sub, term / weight)


def conditional_equation_residual(fs: FactorizedState, spec, u_s: Field1D | None = None) -> float:
    """Residual of the conditional-factor equation over the window.

    || (H_S + V_I - U_S - (hbar^2/2M) d^2/dR^2
        - (hbar^2/M)(1/chi)(dchi/dR) d/dR) psi || / ||psi||

    evaluated with the state's stencil orders, margin slices excluded.
    """
    if u_s is None:
        u_s = compute_back_reaction(fs, spec)
    sl, hs_psi, dpsi, d2psi, log_dchi = _conditional_terms(fs, spec)
    if u_s.grid.n != sl.stop - sl.start:
        raise GridMismatchError("U_S table does not match the window margin")
    psi = fs.psi.values
    hbar, bigm = spec.hbar, spec.M

    lhs = (
        hs_psi
        - u_s.values[:, None] * psi[sl]
        - (hbar**2 / (2.0 * bigm)) * d2psi
        - (hbar**2 / bigm) * log_dchi[:, None] * dpsi
    )
    # drop wall columns: psi inherits the Dirichlet walls of the state
    wx = fs.psi.grid.x.weights[1:-1]
    wr = fs.psi.grid.r.weights[sl]
    w = np.outer(wr, wx)
    num = np.sqrt(float(np.sum(w * np.abs(lhs[:, 1:-1]) ** 2)))
    den = np.sqrt(float(np.sum(w * np.abs(psi[sl][:, 1:-1]) ** 2)))
    return num / den


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration chi change and clock eigenvalue of the fixed point."""

    steps: tuple
    energies: tuple


def factorize_selfconsistent(
    pair: EigenPair,
    spec,
    max_iter: int = 60,
    tol: float = 1e-7,
    threshold: float = WINDOW_THRESHOLD,
    stencil_orders: tuple = (4, 4),
) -> tuple[FactorizedState, IterationTrace]:
    """Gauge-fixed factorization found by fixed-point iteration.

    Seeds chi with the marginal amplitude sqrt(int |Psi|^2 dx), then
    alternates psi = Psi/chi, U_S from compute_back_reaction, and a 1D
    clock eigensolve of -hbar^2/2M d^2/dR^2 + V_env + U_S, keeping the
    eigenvector with maximal overlap with the previous chi.  The gauge
    is chi real and positive at its maximum with unit norm.
    """
    state = pair.state
    wx = state.grid.x.weights
    marginal = np.sqrt(np.sum(wx * np.abs(state.values) ** 2, axis=1))
    r_grid = state.grid.r
    chi = Field1D(r_grid, marginal)
    chi = Field1D(r_grid, chi.values / norm(chi))

    order_r, _ = stencil_orders
    margin = 2 if order_r == 4 else 1
    v_env = np.asarray(spec.v_env(r_grid.points), dtype=float)

    steps = []
    energies = []
    for _ in range(max_iter):
        fs = factorize_prescribed(state, chi, threshold, stencil_orders)
        u_s = compute_back_reaction(fs, spec)
        if float(np.max(np.abs(u_s.values.imag))) > 1e-6 * max(1.0, float(np.max(np.abs(u_s.values.real)))):
            raise ConvergenceError("back-reaction picked up a large imaginary part",
                                   trace=IterationTrace(tuple(steps), tuple(energies)))
        # pad U_S onto the full grid: edge values continue outside the window
        i0, i1 = fs.window
        u_full = np.empty(r_grid.n)
        u_full[i0 + margin:i1 + 1 - margin] = u_s.values.real
        u_full[: i0 + margin] = u_s.values.real[0]
        u_full[i1 + 1 - margin:] = u_s.values.real[-1]

        k_cand = min(10, r_grid.n - 2)
        vals, vecs = _solve_banded_eigen(v_env + u_full, r_grid, spec.M, spec.hbar,
                                         k_cand, order_r)
        cands = _embed_states(r_grid, vecs)
        w_r = r_grid.weights
        overlaps = [abs(np.sum(w_r * np.conj(c.values) * chi.values)) for c in cands]
        best = int(np.argmax(overlaps))
        new_chi = cands[best]
        # gauge: real positive at the peak, unit norm (already normalized)
        peak = int(np.argmax(np.abs(new_chi.values)))
        phase = new_chi.values[peak] / abs(new_chi.values[peak])
        new_chi = Field1D(r_grid, new_chi.values / phase)

        step = float(np.sqrt(np.sum(w_r * np.abs(new_chi.values - chi.values) ** 2)))
        steps.append(step)
        energies.append(float(vals[best]))
        chi = new_chi
        if step < tol:
            fs = factorize_prescribed(state, chi, threshold, stencil_orders)
            fs = replace(fs, mode="selfconsistent", u_s=compute_back_reaction(fs, spec))
            return fs, IterationTrace(tuple(steps), tuple(energies))

    raise ConvergenceError(
        f"factorization did not converge in {max_iter} iterations (last step {steps[-1]:.3e})",
        trace=IterationTrace(tuple(steps), tuple(energies)),
    )


# ---------------------------------------------------------------------------
# channels


@dataclass(eq=False)
class ChannelDecomposition:
    """R-dependent channel amplitudes kappa_n(R) of a composite state."""

    basis: ChannelBasis
    r_grid: Grid1D
    kappas: np.ndarray  # (k, nR)
    defect: float


def _project(basis: ChannelBasis, values: np.ndarray) -> np.ndarray:
    """<phi_m | values> over the last axis of `values`, (k, ...) by quadrature."""
    return (np.conj(basis.state_matrix()) * basis.x_grid.weights) @ values.T


def _system_action(spec, basis: ChannelBasis) -> np.ndarray:
    """H_S phi_n on the basis grid with the basis stencil, (k, nx)."""
    mat = basis.state_matrix()
    kin = _apply_kinetic(mat, 1, basis.stencil_order, basis.x_grid.spacing, spec.m, spec.hbar)
    return kin + np.asarray(spec.v_sys(basis.x_grid.points), dtype=float) * mat


def project_channels(state: Field2D, basis: ChannelBasis) -> ChannelDecomposition:
    """kappa_n(R) = <phi_n | Psi(., R)> with the completeness defect.

    The defect 1 - sum ||kappa_n||^2 / ||Psi||^2 is nonnegative up to
    rounding (Parseval on an orthonormal, possibly incomplete basis).
    """
    if basis.x_grid != state.grid.x:
        raise GridMismatchError("basis grid does not match the state's x axis")
    kappas = _project(basis, state.values)  # (k, nR)
    wr = state.grid.r.weights
    total = float(np.sum(state.grid.weights * np.abs(state.values) ** 2))
    if total == 0.0:
        raise DegenerateInputError("zero state")
    captured = float(np.sum(wr * np.sum(np.abs(kappas) ** 2, axis=0)))
    return ChannelDecomposition(basis, state.grid.r, kappas, 1.0 - captured / total)


def _matrix_elements(basis: ChannelBasis, v_x: np.ndarray) -> np.ndarray:
    """<phi_m | v | phi_n> by quadrature for v sampled on the basis grid.

    v_x is (..., nx), one potential per row; the result is (..., k, k).
    """
    mat = basis.state_matrix()
    return (np.conj(mat) * (basis.x_grid.weights * v_x)[..., None, :]) @ mat.T


def _coupling_factors(spec, basis: ChannelBasis, r_points: np.ndarray) -> tuple:
    """(g(R), <phi_m | sys | phi_n>) of the coupling strength * env(R) * sys(x)."""
    c = spec.v_int
    g = np.asarray(c.strength * c.env(r_points), dtype=float)
    return g, _matrix_elements(basis, np.asarray(c.sys(basis.x_grid.points), dtype=float))


@dataclass(frozen=True)
class CloseCoupledReport:
    residuals: np.ndarray  # per channel
    hermiticity_defect: float
    energy: float


def close_coupled_residuals(decomp: ChannelDecomposition, spec, energy: float,
                            order_r: int = 4) -> CloseCoupledReport:
    """Residual of the coupled radial equations for each channel.

    || [-hbar^2/2M d^2/dR^2 + V_env - E] kappa_m
       + sum_n V_eff_mn(R) kappa_n ||  per channel m,

    with V_eff_mn(R) = <phi_m| H_S + V_I(., R) |phi_n> built from the
    basis' own stencil order, and the R stencil matching `order_r`.
    The report carries the worst-case Hermiticity defect of V_eff.
    """
    basis = decomp.basis
    r = decomp.r_grid.points
    k = len(basis)
    g, wmat = _coupling_factors(spec, basis, r)

    # system part of V_eff: <phi_m | H_S phi_n> with the basis stencil
    hmat = _project(basis, _system_action(spec, basis))  # (k, k)
    veff = g[:, None, None] * wmat[None, :, :] + hmat[None, :, :]

    herm = float(np.max(np.abs(veff - np.conj(np.swapaxes(veff, 1, 2)))))
    scale = float(np.max(np.abs(veff))) or 1.0

    margin = 2 if order_r == 4 else 1
    h_r = decomp.r_grid.spacing
    v_env = np.asarray(spec.v_env(r), dtype=float)
    wr = decomp.r_grid.weights
    sl = slice(margin, decomp.r_grid.n - margin)
    residuals = np.empty(k)
    coupled = np.einsum("rmn,nr->mr", veff, decomp.kappas)
    for m_idx in range(k):
        kap = decomp.kappas[m_idx]
        kin = _apply_kinetic(kap, 0, order_r, h_r, spec.M, spec.hbar)
        lhs = kin + (v_env - energy) * kap + coupled[m_idx]
        residuals[m_idx] = np.sqrt(float(np.sum(wr[sl] * np.abs(lhs[sl]) ** 2)))
    return CloseCoupledReport(residuals, herm / scale, energy)


# ---------------------------------------------------------------------------
# entanglement


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Nonincreasing Schmidt coefficients with purity sum sigma^4."""

    values: np.ndarray
    purity: float
    norm_sq: float


def schmidt_spectrum(state: Field2D) -> SchmidtSpectrum:
    """Schmidt coefficients of Psi(x, R) under the quadrature weighting."""
    wr = np.sqrt(state.grid.r.weights)
    wx = np.sqrt(state.grid.x.weights)
    mat = wr[:, None] * state.values * wx[None, :]
    sig = np.linalg.svd(mat, compute_uv=False)
    total = float(np.sum(sig**2))
    if total == 0.0:
        raise DegenerateInputError("zero state")
    return SchmidtSpectrum(sig, float(np.sum(sig**4) / total**2), total)


# ---------------------------------------------------------------------------
# directed channel states


def _discrete_wavenumber(energy_kin: float, h: float, mass: float, hbar: float) -> float:
    """Wavenumber of the order-2 lattice plane wave at kinetic energy e."""
    c = 1.0 - mass * h * h * energy_kin / (hbar * hbar)
    if not -1.0 < c < 1.0:
        raise TurningPointError(
            f"no open lattice mode at kinetic energy {energy_kin:.6g} with spacing {h:.3g}"
        )
    return float(np.arccos(c) / h)


def solve_directed_state(
    spec,
    basis: ChannelBasis,
    r_grid: Grid1D,
    energy: float,
    incoming: int = 0,
    residual_tol: float = 1e-6,
    stride: int = 1,
) -> EigenPair:
    """Directed solution of the composite TISE at fixed total energy.

    Box eigenstates are standing waves in R; a clock that actually runs
    forward needs a directed state.  This integrates the discrete
    close-coupled recurrence in R from the low edge, seeded with the
    exact lattice plane wave of the incoming channel, so the result
    satisfies the interior stencil equations of the order-(2 in R,
    basis order in x) Hamiltonian to rounding plus channel truncation.

    The coupling enters row j as g(R_j) w, with g = strength * env and
    w the matrix elements of its `sys` factor.  The recurrence runs as a
    blocked transfer-matrix scan (`_transfer_scan`): about sqrt(n)
    blocks are propagated at once, so the Python loop has about
    3 sqrt(n) steps instead of n.  The residual is the interior norm of
    (H - E) applied to the channel-sum field, relative to the field's
    norm, evaluated in channel space (`_channel_residual`) at a cost per
    R row that does not grow with the x grid; the full 2D field is never
    materialized.  The returned field keeps every stride-th R row;
    (n - 1) must be divisible by stride.

    Preconditions, checked: every basis channel must be open at the
    entry edge (TurningPointError otherwise), and V_env and the channel
    coupling must be flat there, since the seed is a free incoming wave:
    on the first two rows neither |V_env(R_j) - V_env(R_0)| nor the
    largest coupling matrix element may exceed residual_tol * |E|
    (DegenerateInputError otherwise).
    """
    r = r_grid.points
    h = r_grid.spacing
    k = len(basis)
    if not 0 <= incoming < k:
        raise DegenerateInputError(f"incoming channel {incoming} outside basis of {k}")
    if stride < 1 or (r_grid.n - 1) % stride:
        raise DegenerateInputError(f"stride {stride} does not divide the grid ({r_grid.n} points)")
    v_env = np.asarray(spec.v_env(r), dtype=float)
    eps = basis.energies
    for n, e_n in enumerate(eps):
        if energy - e_n - v_env[0] <= 0:
            raise TurningPointError(f"channel {n} closed at the entry edge (E - eps - V <= 0)")

    # the coupling on row j is g(R_j) w: no (nR, k, k) table is formed
    g_of_r, w = _coupling_factors(spec, basis, r)
    w = _real_if_exact(w)
    entry = g_of_r[:2, None, None] * w
    flat_tol = residual_tol * abs(energy)
    v_step = float(np.max(np.abs(v_env[:2] - v_env[0])))
    w_entry = float(np.max(np.abs(entry)))
    if v_step > flat_tol or w_entry > flat_tol:
        raise DegenerateInputError(
            f"the entry edge is not free: V_env step {v_step:.3e} and coupling "
            f"{w_entry:.3e} must stay below residual_tol * |E| = {flat_tol:.3e}"
        )

    kin0 = energy - eps[incoming] - v_env[0]
    k_in = _discrete_wavenumber(kin0, h, spec.M, spec.hbar)
    seed = np.zeros((2, k), dtype=complex)
    seed[:, incoming] = np.exp(1j * k_in * r[:2])
    pref = 2.0 * spec.M * h * h / (spec.hbar * spec.hbar)
    diag = pref * (v_env[:, None] - energy + eps[None, :])
    kappas = _transfer_scan(seed, diag, w, pref * g_of_r)
    res = _channel_residual(spec, basis, r_grid, energy, kappas, g_of_r)
    if res > residual_tol * max(abs(energy), 1e-300):
        raise ConvergenceError(
            f"directed state residual {res:.3e} exceeds {residual_tol:.1e} * |E|",
            trace={"residual": res, "energy": energy},
        )

    # quadrature norm from the channel amplitudes (basis is orthonormal)
    total = float(np.sqrt(np.sum(r_grid.weights * np.sum(np.abs(kappas) ** 2, axis=1))))
    if total == 0.0:
        raise DegenerateInputError("directed state vanished")
    sub = r_grid if stride == 1 else Grid1D(r_grid.lo, r_grid.hi, (r_grid.n - 1) // stride + 1)
    values = (kappas[::stride] @ basis.state_matrix()) / total
    return EigenPair(energy, Field2D(Grid2D(sub, basis.x_grid), values), res)


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """The real part of `a` when its imaginary part is exactly zero."""
    return a if np.any(a.imag) else a.real


def _transfer_scan(seed: np.ndarray, diag: np.ndarray, w: np.ndarray,
                   g: np.ndarray) -> np.ndarray:
    """Rows kappa_0 .. kappa_{n-1} of the second-order recurrence

        kappa_{j+1} = 2 kappa_j - kappa_{j-1} + diag_j * kappa_j + g_j w kappa_j

    from the two seed rows, for a (k, k) matrix w, an (n,) profile g and
    an (n, k) diag.

    The state is carried as (kappa_j, delta_j = kappa_j - kappa_{j-1})
    and stepped by delta += increment, kappa += delta.  This is the
    increment form: the increment is about (k dR)^2 times kappa, so
    folding the 2 into the diagonal would cost about four digits.  The
    n - 2 steps are split into about sqrt(n - 2) blocks of equal length
    (the last one padded with repeats of the final step, whose rows are
    dropped), and

    1. all blocks step the 2k unit states at once, giving each block's
       2k x 2k transfer matrix;
    2. the boundary states are carried across the blocks in order;
    3. all blocks step again at once from their boundary states and
       write their rows.
    """
    n = diag.shape[0]
    k = seed.shape[1]
    steps = n - 2
    length = math.isqrt(steps - 1) + 1  # ceil(sqrt(steps))
    blocks = -(-steps // length)
    starts = 1 + length * np.arange(blocks)

    def increment(j, kap):
        # kap: (blocks, c, k) stack of row vectors at rows j (blocks,)
        out = diag[j][:, None, :] * kap
        out += g[j][:, None, None] * (kap.reshape(-1, k) @ w.T).reshape(kap.shape)
        return out

    def sweep(kap, delta, rows=None):
        for s in range(length):
            j = starts + s
            delta += increment(np.minimum(j, n - 2), kap)
            kap += delta
            if rows is not None:
                rows[j + 1] = kap[:, 0]

    # pass 1: row i < k of the unit states is kappa = e_i, row k + i is delta = e_i
    unit = np.eye(2 * k, dtype=np.result_type(diag, w, float))
    kap = np.repeat(unit[None, :, :k], blocks, axis=0)
    delta = np.repeat(unit[None, :, k:], blocks, axis=0)
    sweep(kap, delta)
    transfer = np.concatenate([kap, delta], axis=2)  # (blocks, 2k, 2k), z_out = z_in @ T

    # pass 2: boundary states (kappa, delta) at the start of each block
    z = np.empty((blocks, 2 * k), dtype=complex)
    z[0, :k] = seed[1]
    z[0, k:] = seed[1] - seed[0]
    for b in range(blocks - 1):
        z[b + 1] = z[b] @ transfer[b]

    # pass 3: every block from its boundary state, writing its rows
    rows = np.empty((2 + blocks * length, k), dtype=complex)
    rows[:2] = seed
    sweep(z[:, None, :k].copy(), z[:, None, k:].copy(), rows)
    return rows[:n]


def _channel_residual(spec, basis: ChannelBasis, r_grid: Grid1D, energy: float,
                      kappas: np.ndarray, g_of_r: np.ndarray, block: int = 8192) -> float:
    """Interior residual of the channel-sum field psi = sum_n kappa_n phi_n,
    ||(H - E) psi|| / ||psi|| with H at order 2 in R and the basis order
    in x, over interior rows and columns, computed in channel space.

    The coupling is g(R) h(x) with h = spec.v_int.sys.  With
    d_n = H_S phi_n - sum_m <phi_m|H_S phi_n> phi_m and
    e_n = h phi_n - sum_m <phi_m|h phi_n> phi_m, the interior row j of
    (H - E) psi is exactly

        sum_m c_jm phi_m + sum_n kappa_jn d_n + g(R_j) sum_n kappa_jn e_n,

    c_j being the close-coupled residual of row j, so its squared norm
    is a quadratic form in y_j = (c_j, kappa_j, g(R_j) kappa_j) with the
    3k x 3k Gram matrix of (phi, d, e) over the interior x columns.
    Rows are taken in blocks so no (n, 3k) array is held, and the cost
    per row does not grow with the x grid.
    """
    k = len(basis)
    mat = basis.state_matrix()
    hs_phi = _system_action(spec, basis)
    h_phi = np.asarray(spec.v_int.sys(basis.x_grid.points), dtype=float) * mat
    hs = _project(basis, hs_phi)  # <phi_m | H_S phi_n>
    hh = _project(basis, h_phi)
    vecs = np.concatenate([mat, hs_phi - hs.T @ mat, h_phi - hh.T @ mat])[:, 1:-1]
    gram = (np.conj(vecs) * basis.x_grid.weights[1:-1]) @ vecs.T
    _, c1, _ = _kinetic_coeffs(2, r_grid.spacing, spec.M, spec.hbar)
    v_env = np.asarray(spec.v_env(r_grid.points), dtype=float)
    wr = r_grid.weights
    num2 = 0.0
    den2 = 0.0
    n = r_grid.n
    for a in range(1, n - 1, block):
        b = min(a + block, n - 1)
        kap = kappas[a:b]
        g = g_of_r[a:b, None]
        y = np.empty((b - a, 3 * k), dtype=complex)
        # the R stencil as a difference of differences: c0 = -2 c1
        y[:, :k] = (c1 * ((kappas[a + 1:b + 1] - kap) - (kap - kappas[a - 1:b - 1]))
                    + (v_env[a:b, None] - energy) * kap + kap @ hs.T + g * (kap @ hh.T))
        y[:, k:2 * k] = kap
        y[:, 2 * k:] = g * kap
        num2 += float(wr[a:b] @ np.sum(np.conj(y) * (y @ gram.T), axis=1).real)
        den2 += float(wr[a:b] @ np.sum(np.conj(kap) * (kap @ gram[:k, :k].T), axis=1).real)
    if den2 == 0.0:
        raise DegenerateInputError("directed state has no interior weight")
    return float(np.sqrt(max(num2, 0.0) / den2))
