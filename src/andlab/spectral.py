"""Eigenvalue counts and windows, resolvent block norms.

Structure decides first, then size.  Every LAPACK eigen-selection (all
eigenvalues, a value range or an index range) is one ``_lapack`` call.  A 1-d
Dirichlet Hamiltonian is tridiagonal (``is_tridiagonal``), and there it takes
LAPACK's tridiagonal routines at every n: for a range, ``stebz`` bisection and
``stein`` inverse iteration.  That is what dense ``dsyevr`` runs for a range
after reducing the matrix to tridiagonal form, and on an input that is already
tridiagonal that reduction is exact, so the results are bitwise those of the
dense solve, without its n x n copy or its O(n^3) Householder pass.  Every
other H takes dense ``eigh``.

``eigenvalue_count`` reads #{eigenvalues < E} from the inertia of ``H - E``
(Sylvester's law): the negative pivots of an unpivoted ``L D L^T``.  On a
tridiagonal H those pivots are the Sturm sequence of ``H - E``, which
``stebz`` counts in O(n), so the count is the same inertia with no
factorization.  Every other H takes a sparse LU for it (a dense
Bunch-Kaufman factor when that LU is singular or pivots off the diagonal at E
and one ulp below).  Windows are count-first on every structure: the count
of ``[lo, hi]`` alone decides truncation, and a truncated LAPACK window is
solved by index for exactly its counted pairs.  A window above the dense size
is one shift-invert Lanczos (ARPACK) call, shifted just below the window and
asked for its counted pairs plus those between the shift and the window,
which it drops, so a truncated window keeps its lowest pairs.  ``_dense``
alone chooses LAPACK or ARPACK.
Solves that return eigenvectors stay dense up to n = 3000: LAPACK resolves
eigenvector tails (dichotomy masses down to 1e-33) far below ARPACK's floor of
about 1e-14.  Eigenvalue-only solves switch at the measured crossover, n = 300.
``EigenWindowResult.solver`` records which of the three ran.

Block norms at one energy share one solver for ``H - E``: on a tridiagonal H
one banded LAPACK solve (``gtsv`` through ``solve_banded``, O(n) per
right-hand side, no factor kept), otherwise one SuperLU factor.  They are
exact: ``block_norms`` takes one solve for the source columns, then each target
block's largest singular value, one batched SVD per target node count, on
every structure.  A goodness check's pair norms all come from ``pair_norms``.
On a tridiagonal H the inverse is semiseparable,
``G_ij = u_min(i,j) v_max(i,j)``, so every pair costs one exponential after
one O(n) pass of Schur-complement recurrences (``_semiseparable_logs``, in
logarithms); the pair nearest its bound (``worst_pair``) is then measured by
one ``block_norms`` solve, which must agree to ``CERTIFY_RTOL`` and whose
value is kept.  Otherwise, and when the recurrences or that check fail, each source
takes one ``block_norms`` solve.  The whole-box norm
1/dist(E, spectrum) comes from the two eigenvalues next to E on a tridiagonal
H (a Sturm count and ``stebz`` by index), and from one Lanczos call over the
LU otherwise.  SuperLU and ARPACK (``scipy.sparse.linalg``) serve only d >= 2
and periodic boxes, so they are imported inside the functions that call them
and a 1-d Dirichlet run never loads them.  A factorization at an energy
within ``1e-10 * H.norm_bound()`` of the spectrum is ``divergent``, and its
callers report that rather than a huge number, since the boundary-value
extension of the resolvent norm at spectral points is a limsup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

from .discretize import HamiltonianMatrix
from .errors import SolverError, ValidationError
from .rng import derive_key, uniforms

DENSE_MAX_VECTORS = 3000
DENSE_MAX_VALUES = 300
# relative agreement a certifying solve must show with the semiseparable norms
CERTIFY_RTOL = 1e-9


def is_tridiagonal(H: HamiltonianMatrix) -> bool:
    """1-d Dirichlet: the three-point stencil with no wrap-around entries."""
    return H.grid.box.dimension == 1 and H.boundary == "dirichlet"


def _dense(n: int, vectors: bool) -> bool:
    """The size decision: dense LAPACK (True) or ARPACK shift-invert."""
    return n <= (DENSE_MAX_VECTORS if vectors else DENSE_MAX_VALUES)


def _lapack(H: HamiltonianMatrix, vectors: bool, select: str = "a", bounds=None):
    """Ascending eigenvalues, or (values, vectors): all (``select="a"``), in
    ``(bounds[0], bounds[1]]`` ("v") or of indices ``bounds`` ("i"), from
    ``eigh_tridiagonal`` on a tridiagonal H and dense ``eigh`` otherwise."""
    if is_tridiagonal(H):
        return la.eigh_tridiagonal(H.matrix.diagonal(), H.matrix.diagonal(1),
                                   eigvals_only=not vectors, select=select, select_range=bounds)
    return la.eigh(H.matrix.toarray(), eigvals_only=not vectors,
                   subset_by_value=bounds if select == "v" else None,
                   subset_by_index=bounds if select == "i" else None)


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
    once, and only the count is read.  Every other H takes a symmetric-mode
    LU without off-diagonal pivoting, ``P (H-E) P^T = L D L^T``, retried one
    ulp below E when its factor is exactly singular or pivots off the
    diagonal (E on an eigenvalue).  When both fail, a dense Bunch-Kaufman
    ``L D L^T`` gives the inertia up to ``DENSE_MAX_VECTORS`` nodes; beyond,
    the count raises :class:`SolverError`.  A NaN energy is rejected."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if np.isnan(energies).any():
        raise ValidationError(f"energies must not be NaN, got {energies}")
    if is_tridiagonal(H):
        return _sturm_count(H.matrix.diagonal(), H.matrix.diagonal(1), energies)
    A, eye = H.matrix.tocsc(), sp.identity(H.size, format="csc")
    return np.array([_superlu_count(A, eye, E) for E in energies], dtype=np.int64)


def _superlu_count(A: sp.csc_matrix, eye: sp.csc_matrix, E: float) -> int:
    """Negative pivots of a diagonally pivoted symmetric-mode LU of ``A - E``,
    at E or one ulp below; failing both, the inertia of a dense Bunch-Kaufman
    ``L D L^T`` up to ``DENSE_MAX_VECTORS`` nodes."""
    from scipy.sparse.linalg import splu

    problem = "failed"
    for shift in (E, np.nextafter(E, -np.inf)):
        try:
            lu = splu(A - shift * eye, diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:
            problem = f"failed: {exc}"
            continue
        if np.array_equal(lu.perm_r, lu.perm_c):
            return int(np.count_nonzero(lu.U.diagonal() < 0.0))
        problem = "pivoted off the diagonal"
    if A.shape[0] > DENSE_MAX_VECTORS:
        raise SolverError(f"inertia factorization at E={E} {problem}")
    return _bunch_kaufman_count(A.toarray() - E * np.eye(A.shape[0]))


def _bunch_kaufman_count(M: np.ndarray) -> int:
    """Negative eigenvalues of the symmetric M: those of the block diagonal D
    of its Bunch-Kaufman ``L D L^T`` (Sylvester), read from the signs of each
    1 x 1 block and of each 2 x 2 block's determinant and trace, so that a
    zero eigenvalue of M is never counted by rounding."""
    _, D, _ = la.ldl(M)
    d, e = np.diag(D), np.diag(D, 1)
    top = np.flatnonzero(e)                       # first row of each 2 x 2 block
    single = np.ones(len(d), dtype=bool)
    single[top] = single[top + 1] = False
    det, trace = d[top] * d[top + 1] - e[top] ** 2, d[top] + d[top + 1]
    # a 2 x 2 block has one negative eigenvalue when det < 0, none or two when
    # det > 0 (the sign of the trace) and one or none when det = 0
    return int(np.count_nonzero(d[single] < 0.0) + np.count_nonzero(det < 0.0)
               + np.count_nonzero(trace[det >= 0.0] < 0.0)
               + np.count_nonzero(trace[det > 0.0] < 0.0))


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
    ``max_count`` of them, the lowest ``max_count``, flagged truncated.

    The inertia count of ``[lo, hi]`` alone decides truncation; it is taken
    when the window may hold more than ``max_count`` pairs, and always before
    ARPACK.  LAPACK solves an uncapped window by value and a truncated one by
    index for its counted pairs.  ARPACK, shifted to sigma just below ``lo``,
    is asked for the counted pairs plus those in ``[sigma, lo)``, counted at
    sigma, and drops the latter."""
    lo, hi = float(interval[0]), float(interval[1])
    if not np.isfinite([lo, hi]).all() or hi < lo:
        raise ValidationError(f"window must be a bounded interval, got {interval}")
    if max_count < 1:
        raise ValidationError(f"max_count must be at least 1, got {max_count}")
    n = H.size
    solver = ("tridiagonal" if is_tridiagonal(H) else
              "dense" if _dense(n, vectors=True) else "arpack")
    below, upto = 0, n                    # uncounted: at most every pair
    if solver == "arpack" or max_count < n:
        below, upto = eigenvalue_count(H, [lo, np.nextafter(hi, np.inf)]).tolist()
    truncated = upto - below > max_count
    if solver != "arpack":
        vals, vecs = (_lapack(H, True, "i", (below, below + max_count - 1)) if truncated else
                      _lapack(H, True, "v", (np.nextafter(lo, -np.inf), hi)))
    elif upto == below:
        vals, vecs = np.zeros(0), np.zeros((n, 0))
    else:
        sigma = lo - 1e-8 * (abs(lo) + H.norm_bound())
        k = min(upto - below, max_count) + below - int(eigenvalue_count(H, [sigma])[0])
        if k >= n - 1:
            raise SolverError(f"window needs {k} of {n} eigenpairs; ARPACK needs k < n - 1")
        vals, vecs = _shift_invert(H, k, sigma, vectors=True)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    if solver == "arpack" or truncated:
        keep = (vals >= lo) & (vals <= hi)  # ARPACK's pairs below lo; a count tied at an edge
        vals, vecs = vals[keep], vecs[:, keep]
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


def _shift_invert(H: HamiltonianMatrix, k: int, sigma: float, vectors: bool):
    """The k eigenvalues nearest above ``sigma`` (with vectors if asked)."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    try:
        return eigsh(H.matrix, k=k, sigma=sigma, which="LA", v0=_start_vector(H.size, k),
                     return_eigenvectors=vectors)
    except ArpackNoConvergence as exc:  # pragma: no cover - rare
        raise SolverError(f"shift-invert Lanczos failed: {exc}") from exc


def lowest_eigenvalue(H: HamiltonianMatrix) -> float:
    """Smallest eigenvalue: LAPACK by index, or above ``DENSE_MAX_VALUES``
    nodes of a non-tridiagonal H, ARPACK shifted below its Gershgorin bound."""
    if is_tridiagonal(H) or _dense(H.size, vectors=False):
        return float(_lapack(H, False, "i", (0, 0))[0])
    return float(_shift_invert(H, 1, _gershgorin_lower(H.matrix) - 1.0, vectors=False)[0])


def full_spectrum(H: HamiltonianMatrix) -> np.ndarray:
    """All eigenvalues in ascending order, from one ``_lapack`` call."""
    return _lapack(H, False)


# ---------------------------------------------------------------------------
# resolvent block norms
# ---------------------------------------------------------------------------

class ResolventFactorization:
    """Shared solver of ``H - E`` for the block norms at one energy
    (``block_norms``, ``pair_norms``): a banded LAPACK solve on a tridiagonal
    H, a SuperLU factor otherwise.

    ``resolvent_norm`` is the exact ``|(H-E)^{-1}|`` and ``gap`` the
    dist(E, spectrum) behind it; on a tridiagonal H that distance is the
    Sturm gap (``_tridiagonal_gap``).  ``divergent`` holds when ``H - E`` is
    singular or ``gap`` is below the fixed tolerance
    ``1e-10 * H.norm_bound()``; callers read it before any block norm.
    Immutable after construction; concurrent callers may share it.
    """

    def __init__(self, H: HamiltonianMatrix, energy: float):
        self.H = H
        self.energy = float(energy)
        n = H.size
        self.n = n
        self._lu = self._bands = None
        if is_tridiagonal(H):
            # solve_banded's rows: superdiagonal, diagonal, subdiagonal
            off = H.matrix.diagonal(1)
            self._bands = np.stack((np.concatenate(([0.0], off)),
                                    H.matrix.diagonal() - self.energy,
                                    np.concatenate((off, [0.0]))))
            self.resolvent_norm, self.gap, self.gap_solves = self._tridiagonal_gap()
        else:
            from scipy.sparse.linalg import splu

            shifted = (H.matrix - self.energy * sp.identity(n, format="csr")).tocsc()
            try:
                self._lu = splu(shifted)
            except RuntimeError:
                self.resolvent_norm, self.gap, self.gap_solves = np.inf, 0.0, 0
            else:
                self.resolvent_norm, self.gap, self.gap_solves = self._exact_gap()
        self.divergent = self.gap < 1e-10 * H.norm_bound()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(H - E)^{-1} rhs``.  Raises ``FloatingPointError`` when ``H - E``
        is singular (no SuperLU factor, or a singular banded solve) or any
        solution is not finite."""
        if self._bands is None:
            if self._lu is None:
                raise FloatingPointError("singular resolvent solve: H - E has no LU factor")
            out = self._lu.solve(rhs)
        else:
            try:
                with np.errstate(all="raise"):  # n = 1 is a NumPy division
                    out = la.solve_banded((1, 1), self._bands, rhs, check_finite=False)
            except la.LinAlgError as exc:
                raise FloatingPointError(f"singular resolvent solve: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite resolvent solve")
        return out

    def _tridiagonal_gap(self) -> tuple:
        """|R|, the gap dist(E, spectrum) and no solves: the eigenvalues on
        either side of E, found by index after the Sturm count at E."""
        below = int(eigenvalue_count(self.H, [self.energy])[0])
        near = _lapack(self.H, False, "i", (max(below - 1, 0), min(below, self.n - 1)))
        gap = float(np.min(np.abs(near - self.energy)))
        return (1.0 / gap if gap > 0.0 else np.inf), gap, 0

    def _exact_gap(self) -> tuple:
        """|R|, the gap 1/|R| = dist(E, spectrum) and the solves taken: |R| is
        the largest-magnitude eigenvalue of R, one Lanczos call over this LU."""
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        solves = 0

        def apply(v):
            nonlocal solves
            solves += 1
            return self.solve(v)

        R = LinearOperator((self.n, self.n), matvec=apply, dtype=float)
        try:
            nu = eigsh(R, k=1, which="LM", v0=_start_vector(self.n, 0xB10C),
                       return_eigenvectors=False)[0]
        except FloatingPointError:
            return np.inf, 0.0, solves
        except ArpackNoConvergence as exc:  # pragma: no cover - rare
            raise SolverError(f"resolvent-norm Lanczos failed: {exc}") from exc
        norm = abs(float(nu))
        if not np.isfinite(norm) or norm == 0.0:
            return np.inf, 0.0, solves
        return norm, 1.0 / norm, solves

    def block_norms(self, source: np.ndarray, targets) -> np.ndarray:
        """Exact ``|chi_target R chi_source|`` for each target, all given as
        sorted, non-empty node index arrays: one solve for the source columns,
        then one batched SVD per distinct target node count, on every
        structure.  Raises ``FloatingPointError`` on a non-finite solve."""
        rhs = np.zeros((self.n, len(source)))
        rhs[source, np.arange(len(source))] = 1.0
        sol = self.solve(rhs)
        sizes = np.fromiter(map(len, targets), dtype=np.intp, count=len(targets))
        norms = np.empty(len(targets))
        for size in np.unique(sizes):
            group = np.flatnonzero(sizes == size)
            stack = sol[np.stack([targets[g] for g in group])]
            norms[group] = np.linalg.svd(stack, compute_uv=False)[:, 0]
        return norms

    def pair_norms(self, nodes: list, first: np.ndarray, second: np.ndarray,
                   bound: np.ndarray) -> "PairNorms":
        """``|chi_{second[k]} R chi_{first[k]}|`` for each pair k of the sorted
        node index arrays ``nodes``; a pair with an empty node set is not
        probed (NaN).  ``first`` must be nondecreasing.  ``worst`` is the pair
        that ``worst_pair`` ranks first against ``bound``.

        A tridiagonal H takes every norm from the semiseparable generators of
        R (``_semiseparable_logs``) and measures ``worst`` again by
        ``block_norms``, whose value is kept: the pair named is the pair
        certified.  A zero or non-finite Schur complement, node sets that
        interleave, a non-finite solve or a disagreement above ``CERTIFY_RTOL``
        sends the pairs to the per-source path, and ``fallback`` says why.
        Every other H takes that path: one ``block_norms`` solve per source."""
        reason = None
        if is_tridiagonal(self.H):
            measured, top, reason = self._semiseparable_pairs(nodes, first, second, bound)
            if reason is None:
                return PairNorms(measured, False, None, top)
        measured = np.full(len(first), np.nan)
        indeterminate = False
        occupied = np.array([len(k) > 0 for k in nodes], dtype=bool)
        rows = np.flatnonzero(occupied[first])
        sources, starts = np.unique(first[rows], return_index=True)
        for a, group in zip(sources, np.split(rows, starts[1:])):
            sel = group[occupied[second[group]]]  # a source with nodes is always solved
            try:
                measured[sel] = self.block_norms(nodes[a], [nodes[b] for b in second[sel]])
            except FloatingPointError:
                indeterminate = True
        return PairNorms(measured, indeterminate, reason, worst_pair(measured, bound))

    def _semiseparable_pairs(self, nodes: list, first: np.ndarray, second: np.ndarray,
                             bound: np.ndarray) -> tuple:
        """``(measured, worst, None)`` from the generators and one certifying
        solve of the pair ``worst``, or ``(None, None, reason)``.  The block of
        R from an earlier unit box e to a later one l is ``v_l u_e^T``, so its
        norm is ``|u_e| |v_l|``: one log-sum-exp per box and one exponential
        per pair."""
        measured = np.full(len(first), np.nan)
        sizes = np.fromiter(map(len, nodes), dtype=np.intp, count=len(nodes))
        pairs = np.flatnonzero((sizes[first] > 0) & (sizes[second] > 0))
        if not len(pairs):
            return measured, None, None
        logs = _semiseparable_logs(self.H.matrix.diagonal() - self.energy,
                                   self.H.matrix.diagonal(1))
        if logs is None:
            return None, None, "zero or non-finite Schur complement"
        boxes = np.flatnonzero(sizes)
        lo, hi = np.zeros(len(nodes), dtype=np.intp), np.zeros(len(nodes), dtype=np.intp)
        lo[boxes] = [nodes[b][0] for b in boxes]
        hi[boxes] = [nodes[b][-1] for b in boxes]
        x, y = first[pairs], second[pairs]
        ahead = hi[x] < lo[y]
        if not np.all(ahead | (hi[y] < lo[x])):
            return None, None, "interleaved node sets"
        flat = np.concatenate([nodes[b] for b in boxes])
        log_u, log_v = np.zeros(len(nodes)), np.zeros(len(nodes))
        log_u[boxes], log_v[boxes] = (_log_block_norms(g[flat], sizes[boxes]) for g in logs)
        measured[pairs] = np.exp(np.where(ahead, log_u[x] + log_v[y], log_u[y] + log_v[x]))
        top = worst_pair(measured, bound)
        try:
            direct = float(self.block_norms(nodes[first[top]], [nodes[second[top]]])[0])
        except FloatingPointError:
            return None, None, "non-finite certifying solve"
        if not abs(direct - measured[top]) <= CERTIFY_RTOL * direct:
            return None, None, f"certifying solve differs by {abs(direct - measured[top]):.3e}"
        measured[top] = direct
        return measured, top, None


@dataclass
class PairNorms:
    """Block norms of a goodness check's unit-box pairs (``pair_norms``)."""

    measured: np.ndarray          # NaN where a pair was not probed
    indeterminate: bool           # a solve was non-finite
    fallback: Optional[str]       # why a tridiagonal H took the per-source path
    worst: Optional[int]          # the pair ranked first, None when none was probed


def bound_ratio(measured, bound):
    """``measured / bound``, the rank of a goodness pair.  A bound that
    underflowed to 0 gives ratio 0 against a norm that underflowed too, and
    inf against any other."""
    return np.divide(measured, bound, where=bound > 0,
                     out=np.where(measured > 0, np.inf, 0.0))


def worst_pair(measured: np.ndarray, bound: np.ndarray) -> Optional[int]:
    """The probed pair (``measured`` not NaN) of largest ``bound_ratio``, the
    first on ties; None when no pair was probed."""
    probed = np.flatnonzero(~np.isnan(measured))
    return probed[np.argmax(bound_ratio(measured[probed], bound[probed]))] if len(probed) else None


def _semiseparable_logs(a: np.ndarray, b: np.ndarray):
    """``(log|u|, log|v|)`` with ``|T^{-1}_ij| = |u_j| |v_i|`` for i >= j, for
    the symmetric tridiagonal T with diagonal ``a`` and off-diagonal ``b``;
    None when a Schur complement is zero or not finite.

    With the forward and backward Schur complements (the pivots of T's
    ``L D L^T`` from the top and from the bottom)
    ``delta+_j = a_j - b_{j-1}^2 / delta+_{j-1}`` and
    ``delta-_j = a_j - b_j^2 / delta-_{j+1}``, the diagonal of the inverse
    is ``G_jj = 1 / (delta+_j + delta-_j - a_j)`` and, below it,
    ``G_ij = G_jj prod_{k=j+1..i} (-b_{k-1} / delta-_k)`` (Meurant, SIAM J.
    Matrix Anal. Appl. 13 (1992) 707).  So ``v_i`` is that product from
    k = 1 and ``u_j = G_jj / v_j``, both kept as logarithms, which neither
    underflow nor overflow."""
    n = len(a)
    b2, diag = (b * b).tolist(), a.tolist()
    above, below = [0.0] * n, [0.0] * n   # b_{j-1}^2 / delta+_{j-1}, b_j^2 / delta-_{j+1}
    try:
        for j in range(1, n):
            above[j] = b2[j - 1] / (diag[j - 1] - above[j - 1])
        for j in range(n - 2, -1, -1):
            below[j] = b2[j] / (diag[j + 1] - below[j + 1])
    except ZeroDivisionError:
        return None
    above, below = np.array(above), np.array(below)
    if not (np.isfinite(above).all() and np.isfinite(below).all()):
        return None
    minus, pivot = a - below, a - above - below      # delta-, 1 / G_jj
    if not (np.all(a - above != 0.0) and np.all(minus != 0.0) and np.all(pivot != 0.0)
            and np.all(b != 0.0)):
        return None
    log_v = np.concatenate(([0.0], np.cumsum(np.log(np.abs(b)) - np.log(np.abs(minus[1:])))))
    return -np.log(np.abs(pivot)) - log_v, log_v


def _log_block_norms(logs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``log |exp(block)|_2`` of consecutive non-empty blocks of the given
    sizes: a log-sum-exp per block, shifted by its largest entry."""
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(logs, starts)
    return peak + 0.5 * np.log(np.add.reduceat(np.exp(2.0 * (logs - np.repeat(peak, sizes))),
                                               starts))
