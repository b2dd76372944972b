"""Eigenvalue counts and windows, resolvent block-norm probes, unitary evolution.

Structure decides first, then size.  A 1-d Dirichlet Hamiltonian is
tridiagonal (``is_tridiagonal``), and its windows and smallest eigenvalue go
straight to LAPACK's tridiagonal routines at every n: ``stebz`` bisection and
``stein`` inverse iteration.  That is what dense ``dsyevr`` runs for a value
range after reducing the matrix to tridiagonal form, and on an input that is
already tridiagonal that reduction is exact, so the results are bitwise those
of the dense solve, without its n x n copy or its O(n^3) Householder pass.

``eigenvalue_count`` reads #{eigenvalues < E} from the inertia of ``H - E``
(Sylvester's law): the negative pivots of an unpivoted ``L D L^T``.  On a
tridiagonal H those pivots are the Sturm sequence of ``H - E``, which
``stebz`` counts in O(n), so the count is the same inertia with no
factorization.  Every other H takes a sparse LU for it, and its windows are
count-first: a window above the dense size is one shift-invert Lanczos
(ARPACK) call for exactly its counted pairs, shifted just below the window so
that a truncated window keeps its lowest pairs.  ``_dense`` alone chooses
LAPACK or ARPACK.
Solves that return eigenvectors stay dense up to n = 3000: LAPACK resolves
eigenvector tails (dichotomy masses down to 1e-33) far below ARPACK's floor of
about 1e-14.  Eigenvalue-only solves switch at the measured crossover, n = 300.
``EigenWindowResult.solver`` records which of the three ran.

Resolvent probes share one sparse factorization of ``H - E``.  Block norms
are exact, all from ``block_norms``: one solve for the source columns, then
each target block's largest singular value.  For tridiagonal H - E the
nullity theorem (Fiedler-Markham) makes every block of the inverse wholly
above or below the diagonal rank one, so a target on one side of its source
takes its block's Frobenius norm, with no SVD.  In d >= 2, or with periodic
wrap-around, such blocks are not rank one and every target takes the SVD.
Near-resonant energies are reported as DIVERGENT rather than as a huge number,
since the boundary-value extension of the resolvent norm at spectral points
is a limsup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import HamiltonianMatrix
from .errors import SolverError, ValidationError
from .rng import derive_key, uniforms

DENSE_MAX_VECTORS = 3000
DENSE_MAX_VALUES = 300
DIVERGENT = "divergent"


def is_tridiagonal(H: HamiltonianMatrix) -> bool:
    """1-d Dirichlet: the three-point stencil with no wrap-around entries."""
    return H.grid.box.dimension == 1 and H.boundary == "dirichlet"


def _dense(n: int, vectors: bool) -> bool:
    """The size decision: dense LAPACK (True) or ARPACK shift-invert."""
    return n <= (DENSE_MAX_VECTORS if vectors else DENSE_MAX_VALUES)


def _start_vector(n: int, tag: int) -> np.ndarray:
    """Deterministic pseudo-random start vector (reproducible ARPACK runs)."""
    v = uniforms(derive_key(0xA12C, n, tag), np.arange(n, dtype=np.uint64)) - 0.5
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else np.ones(n) / np.sqrt(n)


def _gershgorin_lower(M: sp.spmatrix) -> float:
    d = M.diagonal()
    return float(np.min(d - (np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(d))))


def eigenvalue_count(H: HamiltonianMatrix, energies) -> np.ndarray:
    """``#{eigenvalues < E}`` for each E, by Sylvester's law of inertia: the
    number of negative pivots of an unpivoted ``L D L^T`` of ``H - E``.

    For tridiagonal H those pivots are the Sturm ratios, counted in O(n) by
    LAPACK's ``stebz`` on ``(vl, E)`` with ``vl`` below the Gershgorin bound;
    an absolute tolerance wider than that interval stops its bisection at
    once, and only the count is read.  Every other H takes a symmetric-mode LU without off-diagonal
    pivoting, ``P (H-E) P^T = L D L^T``, one ulp below an E whose factor is
    exactly singular (E on an eigenvalue).  A NaN energy is rejected."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if np.isnan(energies).any():
        raise ValidationError(f"energies must not be NaN, got {energies}")
    if is_tridiagonal(H):
        return _sturm_count(H.matrix.diagonal(), H.matrix.diagonal(1), energies)
    A, eye = H.matrix.tocsc(), sp.identity(H.size, format="csc")
    counts = []
    for E in energies:
        for shift in (E, np.nextafter(E, -np.inf)):
            try:
                lu = spla.splu(A - shift * eye, diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})
                break
            except RuntimeError as exc:
                error = exc
        else:
            raise SolverError(f"inertia factorization at E={E} failed: {error}") from error
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise SolverError(f"inertia factorization at E={E} pivoted off the diagonal")
        counts.append(np.count_nonzero(lu.U.diagonal() < 0.0))
    return np.array(counts, dtype=np.int64)


def _sturm_count(d: np.ndarray, e: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """``#{eigenvalues < E}`` of the symmetric tridiagonal matrix (d, e):
    ``stebz`` counts the eigenvalues in ``(vl, vu]``, here with
    ``vu = nextafter(E, -inf)``.  Energies outside the Gershgorin interval
    are counted directly, which covers n = 1 (its interval is the point d)."""
    radius = np.abs(np.concatenate(([0.0], e))) + np.abs(np.concatenate((e, [0.0])))
    lower, upper = np.min(d - radius), np.max(d + radius)
    vl = lower - (1.0 + abs(lower))
    counts = np.where(energies > upper, len(d), 0)
    for i in np.flatnonzero((energies > lower) & (energies <= upper)):
        vu = np.nextafter(energies[i], -np.inf)
        m, *_, info = lapack.dstebz(d, e, 1, vl, vu, 0, 0, 2.0 * (vu - vl), "E")
        if info != 0:
            raise SolverError(f"Sturm count at E={energies[i]} failed: stebz info={info}")
        counts[i] = m
    return counts.astype(np.int64)


@dataclass
class EigenWindowResult:
    """Eigenpairs inside an energy window, h^d-normalized, sorted ascending."""

    interval: tuple
    energies: np.ndarray
    vectors: np.ndarray          # (n, k), columns normalized in the h^d norm
    residuals: np.ndarray        # h^d norms of H psi - E psi
    truncated: bool = False
    orthogonality_defect: float = 0.0
    solver: str = "dense"        # "tridiagonal", "dense" or "arpack"


def eigs_window(H: HamiltonianMatrix, interval, max_count: int = 10**6) -> EigenWindowResult:
    """All eigenpairs with energy in the closed bounded ``interval``; beyond
    ``max_count`` of them, the lowest ``max_count``, flagged truncated."""
    lo, hi = float(interval[0]), float(interval[1])
    if not np.isfinite([lo, hi]).all() or hi < lo:
        raise ValidationError(f"window must be a bounded interval, got {interval}")
    if max_count < 1:
        raise ValidationError(f"max_count must be at least 1, got {max_count}")
    if is_tridiagonal(H):
        solver = "tridiagonal"
        vals, vecs, truncated = _tridiagonal_window(H, lo, hi, max_count)
    elif _dense(H.size, vectors=True):
        solver = "dense"
        vals, vecs = la.eigh(H.matrix.toarray(),
                             subset_by_value=(np.nextafter(lo, -np.inf), hi))
        truncated = len(vals) > max_count
        vals, vecs = vals[:max_count], vecs[:, :max_count]
    else:
        solver = "arpack"
        vals, vecs, truncated = _sparse_window(H, lo, hi, max_count)
    w = H.grid.weight()
    if vecs.size:
        vecs = vecs / (np.sqrt(w) * np.linalg.norm(vecs, axis=0))
        res = H.matrix @ vecs
        res -= vecs * vals  # in place: one n x k temporary fewer at the peak
        residuals = np.sqrt(w) * np.linalg.norm(res, axis=0)
        gram = w * (vecs.T @ vecs)
        defect = float(np.max(np.abs(gram - np.eye(len(vals))))) if len(vals) > 1 else 0.0
    else:
        residuals = np.zeros(0)
        defect = 0.0
    return EigenWindowResult((lo, hi), vals, vecs, residuals, truncated, defect, solver)


def _tridiagonal_window(H: HamiltonianMatrix, lo: float, hi: float, max_count: int):
    """``stebz``/``stein`` on the diagonals.  A window that may hold more than
    ``max_count`` pairs is counted first and then solved by index for its
    lowest ``max_count``, never in full."""
    d, e = H.matrix.diagonal(), H.matrix.diagonal(1)
    if max_count < H.size:
        below, upto = eigenvalue_count(H, [lo, np.nextafter(hi, np.inf)])
        if upto - below > max_count:
            vals, vecs = la.eigh_tridiagonal(d, e, select="i",
                                             select_range=(below, below + max_count - 1))
            keep = (vals >= lo) & (vals <= hi)  # a count tied at an edge
            return vals[keep], vecs[:, keep], True
    vals, vecs = la.eigh_tridiagonal(d, e, select="v",
                                     select_range=(np.nextafter(lo, -np.inf), hi))
    return vals, vecs, False


def _sparse_window(H: HamiltonianMatrix, lo: float, hi: float, max_count: int):
    """The lowest ``max_count`` pairs in ``[lo, hi]``: ``which="LA"`` on
    ``1/(lambda - sigma)`` returns the pairs nearest above sigma.  Pairs in
    ``[sigma, lo)`` are counted, requested and dropped."""
    n = H.size
    sigma = lo - 1e-8 * (abs(lo) + H.norm_bound())
    below, upto = eigenvalue_count(H, [sigma, np.nextafter(hi, np.inf)])
    k = min(int(upto - below), max_count)
    if k == 0:
        return np.zeros(0), np.zeros((n, 0)), upto - below > max_count
    if k >= n - 1:
        raise SolverError(f"window holds {k} of {n} eigenvalues; ARPACK needs k < n - 1")
    vals, vecs = _shift_invert(H, k, sigma, vectors=True)
    order = np.argsort(vals)
    keep = order[(vals[order] >= lo) & (vals[order] <= hi)]
    return vals[keep], vecs[:, keep], upto - below > max_count


def _shift_invert(H: HamiltonianMatrix, k: int, sigma: float, vectors: bool):
    """The k eigenvalues nearest above ``sigma`` (with vectors if asked)."""
    try:
        return spla.eigsh(H.matrix, k=k, sigma=sigma, which="LA", v0=_start_vector(H.size, k),
                          return_eigenvectors=vectors)
    except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
        raise SolverError(f"shift-invert Lanczos failed: {exc}") from exc


def lowest_eigenvalue(H: HamiltonianMatrix) -> float:
    """Smallest eigenvalue."""
    if is_tridiagonal(H):
        return float(la.eigvalsh_tridiagonal(H.matrix.diagonal(), H.matrix.diagonal(1),
                                             select="i", select_range=(0, 0))[0])
    if _dense(H.size, vectors=False):
        return float(la.eigh(H.matrix.toarray(), eigvals_only=True,
                             subset_by_index=(0, 0))[0])
    return float(_shift_invert(H, 1, _gershgorin_lower(H.matrix) - 1.0, vectors=False)[0])


# ---------------------------------------------------------------------------
# resolvent probes
# ---------------------------------------------------------------------------

@dataclass
class ResolventProbe:
    """One resolvent norm at ``energy``: a block norm
    ``|chi_target (H-E)^{-1} chi_source|`` or the whole-box ``|(H-E)^{-1}|``.

    ``norm_estimate`` is NaN when divergent and 0.0 for an empty block;
    ``gap_estimate`` is dist(E, spectrum) from :class:`ResolventFactorization`,
    which also counts the Lanczos solves behind it (``gap_solves``).
    """

    energy: float
    norm_estimate: float           # nan when divergent
    status: str                    # "ok", "divergent", "empty"
    gap_estimate: float = np.inf   # dist(E, spectrum)

    @property
    def divergent(self) -> bool:
        return self.status == DIVERGENT


class ResolventFactorization:
    """Shared LU factorization of ``H - E`` for many block probes.

    ``divergent`` holds when ``H - E`` is singular or dist(E, spectrum) is
    below the fixed tolerance ``1e-10 * H.norm_bound()``; a divergent
    factorization answers every probe with status DIVERGENT.
    Immutable after construction; concurrent probes may share it.
    """

    def __init__(self, H: HamiltonianMatrix, energy: float):
        self.H = H
        self.energy = float(energy)
        n = H.size
        self.n = n
        shifted = (H.matrix - self.energy * sp.identity(n, format="csr")).tocsc()
        try:
            self._lu = spla.splu(shifted)
        except RuntimeError:
            self._lu = None
            self.resolvent_norm, self.gap, self.gap_solves = np.inf, 0.0, 0
        else:
            self.resolvent_norm, self.gap, self.gap_solves = self._exact_gap()
        self.divergent = self._lu is None or self.gap < 1e-10 * H.norm_bound()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = self._lu.solve(rhs)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite resolvent solve")
        return out

    def _exact_gap(self) -> tuple:
        """|R|, the gap 1/|R| = dist(E, spectrum) and the solves taken: |R| is
        the largest-magnitude eigenvalue of R, one Lanczos call over this LU."""
        solves = 0

        def apply(v):
            nonlocal solves
            solves += 1
            return self.solve(v)

        R = spla.LinearOperator((self.n, self.n), matvec=apply, dtype=float)
        try:
            nu = spla.eigsh(R, k=1, which="LM", v0=_start_vector(self.n, 0xB10C),
                            return_eigenvectors=False)[0]
        except FloatingPointError:
            return np.inf, 0.0, solves
        except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
            raise SolverError(f"resolvent-norm Lanczos failed: {exc}") from exc
        norm = abs(float(nu))
        if not np.isfinite(norm) or norm == 0.0:
            return np.inf, 0.0, solves
        return norm, 1.0 / norm, solves

    def block_norms(self, source: np.ndarray, targets) -> np.ndarray:
        """Exact ``|chi_target R chi_source|`` for each target, all given as
        sorted, non-empty node index arrays: one solve for the source columns,
        then the rank-one rule for tridiagonal H and targets on one side of the
        source, and one batched SVD per distinct node count for the rest.
        Raises ``FloatingPointError`` on a non-finite solve."""
        rhs = np.zeros((self.n, len(source)))
        rhs[source, np.arange(len(source))] = 1.0
        sol = self.solve(rhs)
        sizes = np.fromiter(map(len, targets), dtype=np.intp, count=len(targets))
        nodes = np.concatenate(targets) if len(targets) else np.zeros(0, dtype=np.intp)
        norms = np.empty(len(targets))
        first = np.cumsum(sizes) - sizes
        one_sided = is_tridiagonal(self.H) & ((nodes[first + sizes - 1] < source[0])
                                              | (nodes[first] > source[-1]))
        if one_sided.any():
            norms[one_sided] = _frobenius(sol[nodes[np.repeat(one_sided, sizes)]],
                                          sizes[one_sided])
        rest = np.flatnonzero(~one_sided)
        for size in np.unique(sizes[rest]):
            group = rest[sizes[rest] == size]
            stack = sol[np.stack([targets[g] for g in group])]
            norms[group] = np.linalg.svd(stack, compute_uv=False)[:, 0]
        return norms

    def block_norm(self, source_mask: np.ndarray, target_mask: np.ndarray) -> ResolventProbe:
        """Largest singular value of ``chi_target R chi_source``."""
        if self.divergent:
            return ResolventProbe(self.energy, np.nan, DIVERGENT, self.gap)
        # R is symmetric: solve from the smaller mask (the source on a tie)
        src, tgt = sorted((np.flatnonzero(m) for m in (source_mask, target_mask)), key=len)
        if not len(src):
            return ResolventProbe(self.energy, 0.0, "empty", self.gap)
        try:
            norm = float(self.block_norms(src, [tgt])[0])
        except FloatingPointError:
            return ResolventProbe(self.energy, np.nan, DIVERGENT, 0.0)
        return ResolventProbe(self.energy, norm, "ok", self.gap)


def _frobenius(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Frobenius norms of consecutive row blocks of the given sizes, each block
    scaled by its largest entry so that no square underflows."""
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(np.max(np.abs(rows), axis=1), starts)
    scaled = rows / np.repeat(np.where(peak > 0.0, peak, 1.0), sizes)[:, None]
    return peak * np.sqrt(np.add.reduceat(np.einsum("ij,ij->i", scaled, scaled), starts))


def resolvent_block_norm(H: HamiltonianMatrix, energy: float,
                         source_mask: np.ndarray, target_mask: np.ndarray) -> ResolventProbe:
    """One-shot probe of ``|chi_target (H-E)^{-1} chi_source|``."""
    return ResolventFactorization(H, energy).block_norm(source_mask, target_mask)


def resolvent_norm(H: HamiltonianMatrix, energy: float) -> ResolventProbe:
    """Whole-box resolvent norm |R(E)| = 1 / dist(E, spectrum)."""
    fac = ResolventFactorization(H, energy)
    if fac.divergent:
        return ResolventProbe(energy, np.nan, DIVERGENT, fac.gap)
    return ResolventProbe(energy, fac.resolvent_norm, "ok", fac.gap)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def evolve(H: HamiltonianMatrix, psi0: np.ndarray, t: float,
           window: Optional[tuple] = None):
    """Evolve ``psi0`` to ``exp(-itH) psi0`` through an eigendecomposition.

    With ``window`` given only the spectral window is used; the h^d norm of
    the projection deficit is returned alongside.  Returns ``(psi_t, deficit)``.
    """
    w = H.grid.weight()
    nrm = np.sqrt(w) * np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-8:
        raise ValidationError("psi0 must be normalized in the h^d-weighted norm")
    bound = H.norm_bound() + 1.0
    result = eigs_window(H, (-bound, bound) if window is None else window)
    vals = result.energies
    vecs = result.vectors * np.sqrt(w)  # back to plain l2-orthonormal columns
    coeff = vecs.T @ psi0
    psi_t = vecs @ (np.exp(-1j * t * vals) * coeff)
    deficit = np.sqrt(w) * np.linalg.norm(psi0 - vecs @ coeff)
    return psi_t, float(deficit)
