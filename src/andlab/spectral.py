"""Eigenvalue windows, resolvent block-norm probes, and unitary evolution.

Dense LAPACK below a size threshold, shift-invert Lanczos (ARPACK) above it.
Resolvent probes share one sparse factorization of ``H - E`` across block
norms; near-resonant energies are reported as DIVERGENT rather than as a
huge number, since the boundary-value extension of the resolvent norm at
spectral points is a limsup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import HamiltonianMatrix
from .errors import SolverError, ValidationError
from .rng import derive_key, uniforms

DENSE_THRESHOLD = 3000
DIVERGENT = "divergent"


def _start_vector(n: int, tag: int) -> np.ndarray:
    """Deterministic pseudo-random start vector (reproducible ARPACK runs)."""
    v = uniforms(derive_key(0xA12C, n, tag), np.arange(n, dtype=np.uint64)) - 0.5
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else np.ones(n) / np.sqrt(n)


def _gershgorin_bounds(M: sp.spmatrix) -> tuple:
    d = M.diagonal()
    radius = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(d)
    return float(np.min(d - radius)), float(np.max(d + radius))


@dataclass
class EigenWindowResult:
    """Eigenpairs inside an energy window, h^d-normalized, sorted ascending."""

    interval: tuple
    energies: np.ndarray
    vectors: np.ndarray          # (n, k), columns normalized in the h^d norm
    residuals: np.ndarray        # h^d norms of H psi - E psi
    truncated: bool = False
    orthogonality_defect: float = 0.0


def eigs_window(H: HamiltonianMatrix, interval, max_count: int = 10**6,
                dense_threshold: int = DENSE_THRESHOLD) -> EigenWindowResult:
    """All eigenpairs with energy in the bounded ``interval``, up to a cap."""
    lo, hi = float(interval[0]), float(interval[1])
    if not np.isfinite([lo, hi]).all() or hi < lo:
        raise ValidationError(f"window must be a bounded interval, got {interval}")
    n = H.size
    if n <= dense_threshold:
        dense = H.matrix.toarray()
        vals, vecs = la.eigh(dense, subset_by_value=(np.nextafter(lo, -np.inf), hi))
    else:
        vals, vecs = _sparse_window(H, lo, hi, max_count)
    truncated = False
    if len(vals) > max_count:
        vals, vecs = vals[:max_count], vecs[:, :max_count]
        truncated = True
    w = H.grid.weight()
    if vecs.size:
        vecs = vecs / (np.sqrt(w) * np.linalg.norm(vecs, axis=0))
        res = H.matrix @ vecs - vecs * vals
        residuals = np.sqrt(w) * np.linalg.norm(res, axis=0)
        gram = w * (vecs.T @ vecs)
        defect = float(np.max(np.abs(gram - np.eye(len(vals))))) if len(vals) > 1 else 0.0
    else:
        residuals = np.zeros(0)
        defect = 0.0
    return EigenWindowResult((lo, hi), vals, vecs, residuals, truncated, defect)


def _sparse_window(H: HamiltonianMatrix, lo: float, hi: float, max_count: int):
    n = H.size
    sigma = 0.5 * (lo + hi)
    k = min(max(8, 2), n - 2)
    while True:
        try:
            vals, vecs = spla.eigsh(H.matrix, k=k, sigma=sigma, which="LM",
                                    v0=_start_vector(n, k))
        except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
            raise SolverError(f"shift-invert Lanczos failed: {exc}") from exc
        inside = (vals >= lo) & (vals <= hi)
        # done when the found set already sticks out of the window on both
        # sides (window exhausted) or the budget is reached
        if (vals.min() < lo and vals.max() > hi) or k >= min(max_count + 2, n - 2):
            order = np.argsort(vals[inside])
            return vals[inside][order], vecs[:, inside][:, order]
        k = min(2 * k, n - 2)


def lowest_eigenvalue(H: HamiltonianMatrix, dense_threshold: int = 2000) -> float:
    """Smallest eigenvalue (dense below threshold, shift-invert above)."""
    n = H.size
    if n <= dense_threshold:
        dense = H.matrix.toarray()
        return float(la.eigh(dense, eigvals_only=True, subset_by_index=(0, 0))[0])
    lower, _ = _gershgorin_bounds(H.matrix)
    try:
        vals = spla.eigsh(H.matrix, k=1, sigma=lower - 1.0, which="LM",
                          v0=_start_vector(n, 1), return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
        raise SolverError(f"lowest-eigenvalue solve failed: {exc}") from exc
    return float(vals[0])


# ---------------------------------------------------------------------------
# resolvent probes
# ---------------------------------------------------------------------------

@dataclass
class ResolventProbe:
    """Measured ``|chi_target (H-E)^{-1} chi_source|`` with solver stats."""

    energy: float
    norm_estimate: float           # nan when divergent
    status: str                    # "ok", "divergent", "empty"
    iterations: int = 0
    residual: float = 0.0
    gap_estimate: float = np.inf   # estimated dist(E, spectrum)

    @property
    def divergent(self) -> bool:
        return self.status == DIVERGENT

    def csv_row(self, source=None, target=None) -> dict:
        """Serializable row (E, x, y, norm, status, iterations, residual)."""
        return {
            "E": self.energy,
            "x": "" if source is None else str(tuple(np.atleast_1d(source))),
            "y": "" if target is None else str(tuple(np.atleast_1d(target))),
            "norm": self.norm_estimate,
            "status": self.status,
            "iterations": self.iterations,
            "residual": self.residual,
        }


class ResolventFactorization:
    """Shared LU factorization of ``H - E`` for many block probes.

    Immutable after construction; concurrent probes may share it.
    """

    def __init__(self, H: HamiltonianMatrix, energy: float, gap_tol: Optional[float] = None):
        self.H = H
        self.energy = float(energy)
        n = H.size
        self.n = n
        self.gap_tol = gap_tol if gap_tol is not None else 1e-10 * H.norm_bound()
        shifted = (H.matrix - self.energy * sp.identity(n, format="csr")).tocsc()
        self.singular = False
        try:
            self._lu = spla.splu(shifted)
        except RuntimeError:
            self._lu = None
            self.singular = True
            self.resolvent_norm = np.inf
            self.gap = 0.0
            return
        self.resolvent_norm, self.gap = self._estimate_gap()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = self._lu.solve(rhs)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite resolvent solve")
        return out

    def _estimate_gap(self, iters: int = 12) -> tuple:
        """Power iteration on R = (H-E)^{-1}: |R| and the spectral gap 1/|R|."""
        v = _start_vector(self.n, 0xB10C)
        est = 0.0
        try:
            for _ in range(iters):
                w = self.solve(v)
                est = np.linalg.norm(w)
                if est == 0.0 or not np.isfinite(est):
                    break
                v = w / est
        except FloatingPointError:
            return np.inf, 0.0
        if not np.isfinite(est) or est == 0.0:
            return np.inf, 0.0
        return float(est), float(1.0 / est)

    @property
    def divergent(self) -> bool:
        return self.singular or self.gap < self.gap_tol

    def block_norm(self, source_mask: np.ndarray, target_mask: np.ndarray,
                   tol: float = 1e-6, max_iter: int = 200,
                   materialize_limit: int = 64) -> ResolventProbe:
        """Largest singular value of ``chi_target R chi_source``."""
        if self.divergent:
            return ResolventProbe(self.energy, np.nan, DIVERGENT, 0, np.inf, self.gap)
        src = np.flatnonzero(np.asarray(source_mask, dtype=bool))
        tgt = np.flatnonzero(np.asarray(target_mask, dtype=bool))
        if len(src) == 0 or len(tgt) == 0:
            return ResolventProbe(self.energy, 0.0, "empty", 0, 0.0, self.gap)
        # R is symmetric: materialize from whichever side is cheaper
        if min(len(src), len(tgt)) <= materialize_limit:
            cols, rows = (src, tgt) if len(src) <= len(tgt) else (tgt, src)
            rhs = np.zeros((self.n, len(cols)))
            rhs[cols, np.arange(len(cols))] = 1.0
            try:
                sol = self.solve(rhs)
            except FloatingPointError:
                return ResolventProbe(self.energy, np.nan, DIVERGENT, 0, np.inf, 0.0)
            block = sol[rows, :]
            norm = float(la.svdvals(block)[0]) if block.size else 0.0
            return ResolventProbe(self.energy, norm, "ok", len(cols), 0.0, self.gap)
        return self._block_norm_iterative(src, tgt, tol, max_iter)

    def _block_norm_iterative(self, src, tgt, tol, max_iter) -> ResolventProbe:
        n = self.n

        def matvec(x):
            full = np.zeros(n)
            full[src] = x
            return self.solve(full)[tgt]

        def rmatvec(y):
            full = np.zeros(n)
            full[tgt] = y
            return self.solve(full)[src]

        # power iteration on the normal operator (chi_S R chi_T)(chi_T R chi_S)
        v = _start_vector(len(src), 0x51D)
        sigma = 0.0
        for it in range(max_iter):
            w = rmatvec(matvec(v))
            new = np.sqrt(np.linalg.norm(w))
            if new == 0.0:
                return ResolventProbe(self.energy, 0.0, "ok", it, 0.0, self.gap)
            v = w / np.linalg.norm(w)
            if abs(new - sigma) <= tol * max(new, 1e-300):
                return ResolventProbe(self.energy, float(new), "ok", it + 1,
                                      abs(new - sigma), self.gap)
            sigma = new
        return ResolventProbe(self.energy, float(sigma), "ok", max_iter, np.inf, self.gap)


def resolvent_block_norm(H: HamiltonianMatrix, energy: float,
                         source_mask: np.ndarray, target_mask: np.ndarray,
                         gap_tol: Optional[float] = None) -> ResolventProbe:
    """One-shot probe of ``|chi_target (H-E)^{-1} chi_source|``."""
    return ResolventFactorization(H, energy, gap_tol).block_norm(source_mask, target_mask)


def resolvent_norm(H: HamiltonianMatrix, energy: float,
                   gap_tol: Optional[float] = None) -> ResolventProbe:
    """Whole-box resolvent norm |R(E)| = 1 / dist(E, spectrum)."""
    fac = ResolventFactorization(H, energy, gap_tol)
    if fac.divergent:
        return ResolventProbe(energy, np.nan, DIVERGENT, 0, np.inf, fac.gap)
    return ResolventProbe(energy, fac.resolvent_norm, "ok", 12, 0.0, fac.gap)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def evolve(H: HamiltonianMatrix, psi0: np.ndarray, t: float,
           window: Optional[tuple] = None,
           dense_threshold: int = DENSE_THRESHOLD):
    """Evolve ``psi0`` to ``exp(-itH) psi0`` through an eigendecomposition.

    With ``window`` given only the spectral window is used; the h^d norm of
    the projection deficit is returned alongside.  Returns ``(psi_t, deficit)``.
    """
    w = H.grid.weight()
    nrm = np.sqrt(w) * np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-8:
        raise ValidationError("psi0 must be normalized in the h^d-weighted norm")
    if window is None:
        if H.size > dense_threshold:
            raise SolverError("full evolution needs a dense decomposition; pass a window")
        vals, vecs = la.eigh(H.matrix.toarray())
    else:
        result = eigs_window(H, window, dense_threshold=dense_threshold)
        vals = result.energies
        vecs = result.vectors * np.sqrt(w)  # back to plain l2-orthonormal columns
    coeff = vecs.T @ psi0
    psi_t = vecs @ (np.exp(-1j * t * vals) * coeff)
    deficit = np.sqrt(w) * np.linalg.norm(psi0 - vecs @ coeff)
    return psi_t, float(deficit)
