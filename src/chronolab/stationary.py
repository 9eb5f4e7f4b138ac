"""Stationary quantum mechanics of the closed composite.

The composite obeys a single time-independent Schroedinger equation on a
2D box.  This module builds that Hamiltonian once as one sparse matrix,
derived from the banded kinetic tables (there is no matrix-free
composite H), and solves it for interior eigenpairs.  It also solves for
directed channel states, splits eigenstates into a clock factor chi(R)
times a conditional factor psi(x, R), evaluates the back-reaction
potential U_S(R), and provides fixed-R channel bases with the
close-coupled residual.

Channel-space constructions use the product form of the coupling,
strength * env(R) * sys(x): the coupling matrices on R row j are
g(R_j) times the one (k, k) matrix of sys(x), with g = strength * env.
H_s, W and the directed residual's norm come from `core`'s channel space.

The composite's kinetic stencil is the 5-point (fourth-order) form on
both axes, COMPOSITE_ORDER; the Hamiltonian, the factorization's
back-reaction and the close-coupled residual all use it.  Channel bases
record their own x stencil order, and the directed-state recurrence is
the 3-point form in R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelBasis,
    CompositeSpec,
    Field1D,
    Field2D,
    Grid1D,
    Grid2D,
    _apply_kinetic,
    _channel_operators,
    _coupling_matrix,
    _discrete_wavenumber,
    _gram_norms,
    _kinetic_coeffs,
    _project,
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
    "DirectedState",
    "FactorizedState",
    "factorize_prescribed",
    "factorize_selfconsistent",
    "compute_back_reaction",
    "solve_system_basis",
    "project_channels",
    "ChannelDecomposition",
    "close_coupled_residuals",
    "CloseCoupledReport",
]

# relative amplitude below which chi is treated as absent
WINDOW_THRESHOLD = 1e-8

# kinetic stencil order of the composite Hamiltonian on both axes
COMPOSITE_ORDER = 4

# R rows per block of the channel-space residual
RESIDUAL_BLOCK = 2048

# steps of the directed scan's pass 3 held before they are written to its rows
FLUSH_STEPS = 8


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


def _kinetic_sparse(n_interior: int, h: float, mass: float, hbar: float):
    """The interior kinetic matrix at COMPOSITE_ORDER, built from the banded table."""
    import scipy.sparse as sparse

    bands = _kinetic_banded(n_interior, COMPOSITE_ORDER, h, mass, hbar)
    upper = sparse.dia_matrix((bands, np.arange(len(bands))[::-1]), shape=(n_interior,) * 2)
    return upper + sparse.triu(upper, 1).T


# ---------------------------------------------------------------------------
# the composite Hamiltonian


@dataclass(eq=False)
class Hamiltonian2D:
    """The composite Hamiltonian on a Dirichlet box as one sparse matrix.

    `matrix`, a scipy.sparse.csc_matrix, acts on the interior points of
    `grid` (row-major, x fastest).  `assemble_tise` derives it from the
    banded kinetic tables at COMPOSITE_ORDER plus the potential diagonal;
    there is no matrix-free composite H.  scipy.sparse is imported where
    the matrix is built, so the annotation is a string.
    """

    grid: Grid2D
    matrix: "scipy.sparse.csc_matrix"


def assemble_tise(spec, grid: Grid2D) -> Hamiltonian2D:
    """Build the composite Hamiltonian for a CompositeSpec on a box grid."""
    import scipy.sparse as sparse

    r = grid.r.points[:, None]
    x = grid.x.points[None, :]
    v = np.asarray(spec.total_potential(x, r), dtype=float)
    v = np.broadcast_to(v, (grid.r.n, grid.x.n))
    if not np.all(np.isfinite(v)):
        raise DegenerateInputError("potential table contains non-finite values")
    nr, nx = grid.r.n - 2, grid.x.n - 2
    kr = _kinetic_sparse(nr, grid.r.spacing, spec.M, spec.hbar)
    kx = _kinetic_sparse(nx, grid.x.spacing, spec.m, spec.hbar)
    h = sparse.kron(kr, sparse.identity(nx)) + sparse.kron(sparse.identity(nr), kx)
    h = h + sparse.diags(v[1:-1, 1:-1].ravel())
    return Hamiltonian2D(grid, h.tocsc())


# ---------------------------------------------------------------------------
# eigenpairs


@dataclass(eq=False)
class EigenPair:
    """Converged eigenpair: energy, unit-norm field, interior residual."""

    energy: float
    state: Field2D
    residual: float


def solve_eigenpairs(h: Hamiltonian2D, e_target: float, k: int) -> list[EigenPair]:
    """The k eigenpairs nearest e_target via shift-invert Lanczos.

    Deterministic: the Krylov start vector is drawn from a generator
    with the fixed seed 0.  Each pair's residual is ||(H - E) psi|| /
    ||psi|| over the interior points with the solved matrix itself (the
    interior quadrature weights are uniform, so plain vector norms).
    Raises ConvergenceError if any returned pair misses the residual
    bound 1e-8 * |E|.
    """
    from scipy.sparse.linalg import eigsh

    if k < 1:
        raise DegenerateInputError("need k >= 1")
    n = h.matrix.shape[0]
    if k >= n:
        raise DegenerateInputError(f"k={k} too large for {n} interior points")
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    vals, vecs = eigsh(h.matrix, k=k, sigma=e_target, which="LM", v0=v0)
    order = np.argsort(vals)
    vals = vals[order]
    nr, nx = h.grid.r.n, h.grid.x.n
    full = np.zeros((k, nr, nx), dtype=complex)
    full[:, 1:-1, 1:-1] = vecs[:, order].T.reshape(k, nr - 2, nx - 2)
    full /= np.sqrt(np.sum(h.grid.weights * np.conj(full) * full, axis=(1, 2)).real)[:, None, None]
    u = full[:, 1:-1, 1:-1].reshape(k, -1)
    res = (np.linalg.norm((h.matrix @ u.T).T - vals[:, None] * u, axis=1)
           / np.linalg.norm(u, axis=1))
    pairs = [EigenPair(float(e), Field2D(h.grid, f), float(r)) for e, f, r in zip(vals, full, res)]
    bad = [p for p in pairs if p.residual > 1e-8 * max(abs(p.energy), 1e-300)]
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
    from scipy.linalg import eig_banded

    n_int = grid.n - 2
    if k > n_int:
        raise DegenerateInputError(f"k={k} exceeds interior size {n_int}")
    bands = _kinetic_banded(n_int, order, grid.spacing, mass, hbar)
    bands[-1] += v_diag[1:-1]
    if not np.all(np.isfinite(bands)):
        raise DegenerateInputError("band table contains non-finite values")
    try:
        return eig_banded(bands, lower=False, select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # e.g. a band table near the underflow range
        raise ConvergenceError(f"banded eigensolve did not converge: {exc}") from exc


def _embed_states(grid: Grid1D, vecs: np.ndarray) -> np.ndarray:
    """The (k, n) table of the k interior eigenvectors `vecs[:, j]` on the
    full grid: zero walls, each row of unit quadrature norm and real
    positive at its amplitude maximum."""
    table = np.zeros((vecs.shape[1], grid.n), dtype=complex)
    table[:, 1:-1] = vecs.T
    table /= np.sqrt(np.sum(grid.weights * np.conj(table) * table, axis=1).real)[:, None]
    peak = table[np.arange(table.shape[0]), np.argmax(np.abs(table), axis=1)]
    return np.where((peak.real < 0)[:, None], -table, table)


def solve_system_basis(system, x_grid: Grid1D, k: int, order: int) -> ChannelBasis:
    """Channel basis from the lowest k system eigenstates.

    `order` selects the kinetic stencil and is recorded on the basis so
    propagators and residual evaluators can match it.
    """
    v = np.asarray(system.v_sys(x_grid.points), dtype=float)
    vals, vecs = _solve_banded_eigen(v, x_grid, system.m, system.hbar, k, order)
    return ChannelBasis(x_grid, _embed_states(x_grid, vecs), vals, stencil_order=order)


# ---------------------------------------------------------------------------
# factorization


@dataclass(eq=False)
class FactorizedState:
    """Composite state written as chi(R) * psi(x, R) on a retained window.

    `window` is the (i0, i1) index range of the full R grid where
    |chi| clears the relative threshold; chi and psi live on that
    window's subgrid.  `u_s`, the back-reaction potential, is filled by
    factorize_selfconsistent.
    """

    chi: Field1D
    psi: Field2D
    window: tuple
    u_s: Field1D | None = None


def _window_of(chi_values: np.ndarray, r_points: np.ndarray):
    amp = np.abs(chi_values)
    mask = amp > WINDOW_THRESHOLD * float(amp.max())
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


def factorize_prescribed(state: Field2D, chi: Field1D) -> FactorizedState:
    """Split a composite field as chi * psi with a caller-supplied chi.

    psi = state / chi on the window where |chi| clears WINDOW_THRESHOLD
    relative to its maximum; interior dips below the threshold raise
    NodeError since psi would need division by a vanishing chi.
    """
    if chi.grid != state.grid.r:
        raise GridMismatchError("chi grid does not match the R axis of the state")
    i0, i1 = _window_of(chi.values, chi.grid.points)
    sub = chi.grid.subgrid(i0, i1)
    chi_w = Field1D(sub, chi.values[i0:i1 + 1])
    grid_w = Grid2D(sub, state.grid.x)
    psi = Field2D(grid_w, state.values[i0:i1 + 1, :] / chi_w.values[:, None])
    out = FactorizedState(chi_w, psi, (i0, i1))
    _check_product(out, state)
    return out


def _check_product(fs: FactorizedState, state: Field2D):
    i0, i1 = fs.window
    recon = fs.chi.values[:, None] * fs.psi.values
    target = state.values[i0:i1 + 1, :]
    scale = float(np.max(np.abs(target))) or 1.0
    defect = float(np.max(np.abs(recon - target))) / scale
    if defect > 1e-12:
        raise DegenerateInputError(f"factorization does not reproduce the state: {defect:.3e}")


def compute_back_reaction(fs: FactorizedState, spec) -> Field1D:
    """Back-reaction potential U_S(R) felt by the clock.

    Per R slice the expectation value over x of

        H_S + V_I(., R)
        - (hbar^2/M) (1/chi)(dchi/dR) d/dR
        - (hbar^2/2M) d^2/dR^2

    in psi, normalized by the slice weight (psi|psi).  The derivative
    stencils are COMPOSITE_ORDER on both axes; the COMPOSITE_ORDER // 2
    outermost slices at each end, which the R stencil does not reach,
    are clipped.
    """
    margin = COMPOSITE_ORDER // 2
    nr = fs.psi.grid.r.n
    if nr < 2 * margin + 3:
        raise WindowError(f"window of {nr} slices too narrow for the R stencil")
    h_r = fs.psi.grid.r.spacing
    psi = fs.psi.values
    sl = slice(margin, nr - margin)
    x, r = fs.psi.grid.x.points, fs.psi.grid.r.points
    hs_psi = _apply_kinetic(psi, COMPOSITE_ORDER, fs.psi.grid.x.spacing, spec.m, spec.hbar)
    hs_psi += (np.asarray(spec.v_sys(x), dtype=float)[None, :]
               + np.asarray(spec.v_int(x[None, :], r[:, None]), dtype=float)) * psi
    log_dchi = central_difference(fs.chi.values, h_r, 1, COMPOSITE_ORDER) / fs.chi.values[sl]
    dpsi = central_difference(psi, h_r, 1, COMPOSITE_ORDER)
    d2psi = central_difference(psi, h_r, 2, COMPOSITE_ORDER)

    wx = fs.psi.grid.x.weights
    hbar, bigm = spec.hbar, spec.M
    bra = np.conj(psi[sl])
    weight = np.sum(wx * np.abs(psi[sl]) ** 2, axis=1)
    if np.any(weight <= 0.0):
        raise DegenerateInputError("psi slice with zero weight inside the window")

    term = (
        np.sum(wx * bra * hs_psi[sl], axis=1)
        - (hbar**2 / bigm) * log_dchi * np.sum(wx * bra * dpsi, axis=1)
        - (hbar**2 / (2.0 * bigm)) * np.sum(wx * bra * d2psi, axis=1)
    )
    sub = fs.psi.grid.r.subgrid(sl.start, sl.stop - 1)
    return Field1D(sub, term / weight)


def factorize_selfconsistent(pair: EigenPair, spec) -> tuple[FactorizedState, dict]:
    """Gauge-fixed factorization found by fixed-point iteration.

    Seeds chi with the marginal amplitude sqrt(int |Psi|^2 dx), then
    alternates psi = Psi/chi, U_S from compute_back_reaction, and a 1D
    clock eigensolve of -hbar^2/2M d^2/dR^2 + V_env + U_S, keeping the
    eigenvector with maximal overlap with the previous chi.  The gauge
    is chi real and positive at its maximum with unit norm.  Converged
    when chi moves by less than 1e-7 in one step; ConvergenceError
    after 60 steps.  The trace, returned with the state and carried by a
    ConvergenceError, is {"steps": [...], "energies": [...]}: each
    iteration's chi change and clock eigenvalue.
    """
    state = pair.state
    wx = state.grid.x.weights
    marginal = np.sqrt(np.sum(wx * np.abs(state.values) ** 2, axis=1))
    r_grid = state.grid.r
    chi = Field1D(r_grid, marginal)
    chi = Field1D(r_grid, chi.values / norm(chi))

    v_env = np.asarray(spec.v_env(r_grid.points), dtype=float)

    trace = {"steps": [], "energies": []}
    for _ in range(60):
        fs = factorize_prescribed(state, chi)
        u_s = compute_back_reaction(fs, spec)
        if float(np.max(np.abs(u_s.values.imag))) > 1e-6 * max(1.0, float(np.max(np.abs(u_s.values.real)))):
            raise ConvergenceError("back-reaction picked up a large imaginary part", trace=trace)
        # pad U_S onto the full grid: edge values continue outside the window
        i0, i1 = fs.window
        margin = COMPOSITE_ORDER // 2
        u_full = np.empty(r_grid.n)
        u_full[i0 + margin:i1 + 1 - margin] = u_s.values.real
        u_full[: i0 + margin] = u_s.values.real[0]
        u_full[i1 + 1 - margin:] = u_s.values.real[-1]

        k_cand = min(10, r_grid.n - 2)
        vals, vecs = _solve_banded_eigen(v_env + u_full, r_grid, spec.M, spec.hbar,
                                         k_cand, COMPOSITE_ORDER)
        cands = _embed_states(r_grid, vecs)
        w_r = r_grid.weights
        best = int(np.argmax(np.abs(np.conj(cands) @ (w_r * chi.values))))
        # gauge: _embed_states returns it real positive at the peak, unit norm
        new_chi = Field1D(r_grid, cands[best])

        step = float(np.sqrt(np.sum(w_r * np.abs(new_chi.values - chi.values) ** 2)))
        trace["steps"].append(step)
        trace["energies"].append(float(vals[best]))
        chi = new_chi
        if step < 1e-7:
            fs = factorize_prescribed(state, chi)
            return FactorizedState(fs.chi, fs.psi, fs.window, compute_back_reaction(fs, spec)), trace

    raise ConvergenceError(
        f"factorization did not converge in 60 iterations (last step {step:.3e})", trace=trace)


# ---------------------------------------------------------------------------
# channels


@dataclass(eq=False)
class ChannelDecomposition:
    """R-dependent channel amplitudes kappa_n(R) of a composite state."""

    basis: ChannelBasis
    r_grid: Grid1D
    kappas: np.ndarray  # (k, nR)
    defect: float


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


@dataclass(frozen=True)
class CloseCoupledReport:
    residuals: np.ndarray  # per channel
    hermiticity_defect: float


def close_coupled_residuals(decomp: ChannelDecomposition, spec,
                            energy: float) -> CloseCoupledReport:
    """Residual of the coupled radial equations for each channel.

    || [-hbar^2/2M d^2/dR^2 + V_env - E] kappa_m
       + sum_n V_eff_mn(R) kappa_n ||  per channel m,

    with V_eff_mn(R) = <phi_m| H_S + V_I(., R) |phi_n> built from the
    basis' own stencil order, and the R stencil at COMPOSITE_ORDER.
    The report carries the worst-case Hermiticity defect of V_eff.
    """
    basis = decomp.basis
    r = decomp.r_grid.points
    hmat, wmat, _ = _channel_operators(spec, basis, spec.v_int.sys)
    veff = spec.v_int.profile(r)[:, None, None] * wmat[None, :, :] + hmat[None, :, :]

    herm = float(np.max(np.abs(veff - np.conj(np.swapaxes(veff, 1, 2)))))
    scale = float(np.max(np.abs(veff))) or 1.0

    margin = COMPOSITE_ORDER // 2
    v_env = np.asarray(spec.v_env(r), dtype=float)
    wr = decomp.r_grid.weights
    sl = slice(margin, decomp.r_grid.n - margin)
    kap = decomp.kappas  # (k, nR)
    lhs = (_apply_kinetic(kap, COMPOSITE_ORDER, decomp.r_grid.spacing, spec.M, spec.hbar)
           + (v_env - energy) * kap + np.einsum("rmn,nr->mr", veff, kap))
    residuals = np.sqrt(np.sum(wr[sl] * np.abs(lhs[:, sl]) ** 2, axis=1))
    return CloseCoupledReport(residuals, herm / scale)


# ---------------------------------------------------------------------------
# directed channel states


@dataclass(eq=False)
class DirectedState:
    """Directed state Psi(x, R_j) = sum_n amplitudes[j, n] phi_n(x) of unit
    quadrature norm, with the solve's relative interior residual.

    The state carries what it was solved for and on: the composite `spec`
    and the `stride` between the rows kept on `r_grid`, so the fine R
    lattice of the solve is the one with `fine_points` points, step
    `fine_spacing`, on the same span."""

    spec: CompositeSpec
    basis: ChannelBasis
    r_grid: Grid1D
    stride: int
    amplitudes: np.ndarray  # (nR, k)
    energy: float
    residual: float

    @property
    def fine_points(self) -> int:
        return (self.r_grid.n - 1) * self.stride + 1

    @property
    def fine_spacing(self) -> float:
        """The fine grid's `spacing`, bit for bit: the same span over the
        same integer count of steps."""
        return (self.r_grid.hi - self.r_grid.lo) / ((self.r_grid.n - 1) * self.stride)


def solve_directed_state(
    spec,
    basis: ChannelBasis,
    r_grid: Grid1D,
    energy: float,
    incoming: int,
    residual_tol: float,
    stride: int,
) -> DirectedState:
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
    R row that does not grow with the x grid.  The state is returned as
    its channel amplitudes kappa_n(R) on every stride-th R row, scaled to
    unit norm, with `spec` and `stride`; the (R, x) field is never
    formed.  (n - 1) must be divisible by stride.

    Preconditions, checked: every basis channel must be open at the
    entry edge (TurningPointError otherwise), and V_env and the channel
    coupling must be flat there, since the seed is a free incoming wave:
    on the first two rows neither |V_env(R_j) - V_env(R_0)| nor the
    largest coupling matrix element may exceed residual_tol * |E|
    (DegenerateInputError otherwise).  A residual above residual_tol * |E|,
    or one that is not finite, raises ConvergenceError.
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
    g_of_r = spec.v_int.profile(r)
    w = _coupling_matrix(basis, spec.v_int.sys)
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
    kappas = _transfer_scan(seed, v_env - energy, eps, w, g_of_r, pref)  # (k, n)
    res = _channel_residual(spec, basis, r_grid, energy, kappas, g_of_r)
    # an overflowing recurrence leaves a residual of inf or nan, which no tolerance admits
    if not (math.isfinite(res) and res <= residual_tol * max(abs(energy), 1e-300)):
        raise ConvergenceError(
            f"directed state residual {res:.3e} exceeds {residual_tol:.1e} * |E|",
            trace={"residual": res, "energy": energy},
        )

    # quadrature norm from the channel amplitudes (basis is orthonormal); each
    # row's channel sum runs along a row of one (n, k) table, a fixed order
    power = np.abs(kappas.T, out=np.empty((r_grid.n, k)))
    power *= power
    total = float(np.sqrt(np.sum(r_grid.weights * np.sum(power, axis=1))))
    if total == 0.0:
        raise DegenerateInputError("directed state vanished")
    sub = r_grid if stride == 1 else Grid1D(r_grid.lo, r_grid.hi, (r_grid.n - 1) // stride + 1)
    amplitudes = np.ascontiguousarray(kappas[:, ::stride].T) / total
    return DirectedState(spec, basis, sub, stride, amplitudes, energy, res)


def _transfer_scan(seed: np.ndarray, u: np.ndarray, eps: np.ndarray, w: np.ndarray,
                   g: np.ndarray, pref: float) -> np.ndarray:
    """The (k, n) table of rows kappa_0 .. kappa_{n-1}, channel-major, of
    the second-order recurrence

        kappa_{j+1} = 2 kappa_j - kappa_{j-1} + p (u_j + eps) kappa_j + p g_j w kappa_j

    from the two seed rows, a (2, k) table, for a (k, k) matrix w of any
    dtype, (n,) profiles u and g, the (k,) channel shifts eps and the
    number p = `pref`; the step tables hold p (u_j + eps_n) and p g_j.

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

    Every table is channel-major with the blocks last: the states are
    (k, c, blocks) stacks of c column states, and the step tables,
    (length, k, 1, blocks) and (length, 1, 1, blocks), are gathered
    once from u, eps and g, the padding repeating row n - 2.  So each
    elementwise product of a step runs along contiguous rows of all the
    blocks, its coupling is one (k, k) by (k, c blocks) product, and the
    Python loop gathers and allocates nothing.  Pass 3 keeps FLUSH_STEPS
    steps in a buffer and writes them into the rows as runs of
    contiguous columns.
    """
    n = u.shape[0]
    k = seed.shape[1]
    steps = n - 2
    length = math.isqrt(steps - 1) + 1  # ceil(sqrt(steps))
    blocks = -(-steps // length)
    # step s of block b advances from row 1 + b length + s
    at = np.minimum(np.arange(1, 1 + blocks * length).reshape(blocks, length).T, n - 2)
    diag = u[at][:, None, None, :] + eps[None, :, None, None]
    diag *= pref
    g = pref * g[at][:, None, None, :]
    del at, u  # a caller's temporary u is released with the gather

    def sweep(kap, delta, rows=None):
        # kap, delta: (k, c, blocks) stacks of column states, stepped in place
        inc = np.empty_like(kap)
        coupled = np.empty_like(kap)
        flat, coupled_flat = kap.reshape(k, -1), coupled.reshape(k, -1)
        if w.dtype == float:  # one real product on the real and imaginary parts
            flat, coupled_flat = flat.view(float), coupled_flat.view(float)
        wk = w.astype(flat.dtype)
        if rows is not None:
            buffer = np.empty((k, FLUSH_STEPS, kap.shape[2]), dtype=kap.dtype)
        for s in range(length):
            np.multiply(diag[s], kap, out=inc)
            np.matmul(wk, flat, out=coupled_flat)
            np.multiply(g[s], coupled, out=coupled)
            inc += coupled
            delta += inc
            kap += delta
            if rows is not None:
                held = s % FLUSH_STEPS
                buffer[:, held] = kap[:, 0]
                if held == FLUSH_STEPS - 1 or s == length - 1:
                    rows[:, :, s - held:s + 1] = buffer[:, :held + 1].transpose(0, 2, 1)

    # pass 1: column i < k of the unit states is kappa = e_i, column k + i is delta = e_i
    unit = np.eye(2 * k, dtype=np.result_type(diag, w))[:, :, None]
    kap = np.repeat(unit[:k], blocks, axis=2)
    delta = np.repeat(unit[k:], blocks, axis=2)
    sweep(kap, delta)
    transfer = np.empty((blocks, 2 * k, 2 * k), dtype=kap.dtype)  # z_out = z_in @ T
    transfer[:, :, :k] = kap.T
    transfer[:, :, k:] = delta.T
    del kap, delta

    # pass 2: boundary states (kappa, delta) at the start of each block
    z = np.empty((blocks, 2 * k), dtype=complex)
    z[0, :k] = seed[1]
    z[0, k:] = seed[1] - seed[0]
    for b in range(blocks - 1):
        z[b + 1] = z[b] @ transfer[b]

    # pass 3: every block from its boundary state, writing its rows
    rows = np.empty((k, 2 + blocks * length), dtype=complex)
    rows[:, :2] = seed.T
    sweep(np.ascontiguousarray(z[:, None, :k].T), np.ascontiguousarray(z[:, None, k:].T),
          rows[:, 2:].reshape(k, blocks, length))
    return rows[:, :n]


def _channel_residual(spec, basis: ChannelBasis, r_grid: Grid1D, energy: float,
                      kappas: np.ndarray, g_of_r: np.ndarray) -> float:
    """Interior residual ||(H - E) psi|| / ||psi|| of the channel-sum field
    psi = sum_n kappa_n phi_n, given as the channel-major (k, n) table
    `kappas`, H at order 2 in R and the basis order in x, computed in
    channel space: interior row j of (H - E) psi is the row
    y_j = (c_j, kappa_j, g(R_j) kappa_j) of `_gram_norms`, c_j being the
    close-coupled residual of row j.

    One (3k, RESIDUAL_BLOCK) y table is filled in place block by block.
    The real H_s and W act on the real and imaginary parts of a block at
    once, one real product each on the float view of its kappa rows, and
    each block adds its Gram sums yf yf^T of the float view of y, the
    real part of y^H y, to one (3k, 3k) matrix: the working memory is a
    few block tables whatever the grid, and the cost per row does not
    grow with the x grid.  The interior rows' trapezoid weights are all
    dR and cancel in the ratio.
    """
    k = len(basis)
    hs, w, gram = _channel_operators(spec, basis, spec.v_int.sys)
    _, c1, _ = _kinetic_coeffs(2, r_grid.spacing, spec.M, spec.hbar)
    r = r_grid.points
    n = r_grid.n
    size = min(RESIDUAL_BLOCK, n - 2)
    table = np.empty((3 * k, size), dtype=complex)
    scratch = np.empty((k, size), dtype=complex)
    sums = np.zeros((3 * k, 3 * k))
    for a in range(1, n - 1, RESIDUAL_BLOCK):
        b = min(a + RESIDUAL_BLOCK, n - 1)
        y, t = table[:, :b - a], scratch[:, :b - a]
        yf, tf = y.view(float), t.view(float)
        c, kap = y[:k], y[k:2 * k]
        g = g_of_r[a:b]
        kap[...] = kappas[:, a:b]
        # the R stencil as a difference of differences: c0 = -2 c1
        np.subtract(kappas[:, a + 1:b + 1], kap, out=c)
        np.subtract(kap, kappas[:, a - 1:b - 1], out=t)
        c -= t
        c *= c1
        np.multiply(np.asarray(spec.v_env(r[a:b]), dtype=float) - energy, kap, out=t)
        c += t
        np.matmul(hs, yf[k:2 * k], out=tf)
        c += t
        np.matmul(w, yf[k:2 * k], out=tf)
        t *= g
        c += t
        np.multiply(g, kap, out=y[2 * k:])
        sums += yf @ yf.T
    num2, den2, _ = _gram_norms(gram, sums)
    if den2 == 0.0:
        raise DegenerateInputError("directed state has no interior weight")
    return float(np.sqrt(max(num2, 0.0) / den2))
