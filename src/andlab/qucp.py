"""Carleman weight, unique-continuation verification, periodic projection gap.

All geometry in this module is Euclidean (balls, Euclidean distances); the
rest of the package works in sup-norm.  ``euclidean_diameter`` and
``euclidean_distance`` measure a ball or a box in the Euclidean norm.

The radial Carleman weight is ``w(x) = phi(|x|)`` with

    phi(s) = s * exp(-int_0^s (1 - e^{-t})/t dt),

strictly increasing with ``phi(0) = 0`` and ``s / C1 <= phi(s) <= s`` on
[0, 1], where ``C1 = exp(int_0^1 (1-e^{-t})/t dt)`` sits strictly between
``e^{3/4}`` and ``e``.  The scaled weight ``w_rho(x) = w(x / rho)`` obeys the
same sandwich on the ball of radius rho.

The unknown constants of the unique-continuation inequality are treated as
fit targets: the verifier records, per probe point, the ratio of

    lhs = (1 + K) |psi restricted to B(x, delta/2)|^2 + penalty |H psi - E psi|^2

to ``rhs = |psi restricted to Theta|^2`` and fits the exponent ``kappa`` in
``lhs/rhs ~ R^(-c R^kappa)``; consistency requires ``kappa`` not to exceed
4/3 by more than the desk-scale allowance.

The periodic projection gap, the lower bound on ``P W_delta P`` behind the
Wegner estimate, is exact and works in any dimension: the periodic operator
and ``W_delta`` commute with translation by one period, so the compression
splits into one small Floquet-Bloch block per quasi-momentum.  Eigenvalues
within ``1e-12 * norm_bound`` of a window edge count as inside the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .discretize import (Ensemble, GridSpec, HamiltonianMatrix, PeriodicField,
                         assemble_hamiltonian, bloch_blocks, empty_configuration)
from .errors import GeometryError, ValidationError
from .model import BoxSpec, SiteProfile, _region_center
from .spectral import eigs_window

_EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# Euclidean regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallSpec:
    """Open Euclidean ball; rasterized by center-in-ball tests."""

    dimension: int
    center: tuple
    radius: float

    def __post_init__(self):
        _region_center(self)
        if self.radius <= 0.0:
            raise ValidationError("ball radius must be positive")

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(points - np.asarray(self.center), axis=1) < self.radius


def euclidean_diameter(region) -> float:
    if isinstance(region, BallSpec):
        return 2.0 * region.radius
    if isinstance(region, BoxSpec):
        return region.side * math.sqrt(region.dimension)
    raise ValidationError(f"unsupported region type {type(region).__name__}")


def euclidean_distance(region, x) -> float:
    """Euclidean distance from a point to a region."""
    x = np.asarray(x, dtype=float)
    if isinstance(region, BallSpec):
        return max(0.0, float(np.linalg.norm(x - np.asarray(region.center))) - region.radius)
    if isinstance(region, BoxSpec):
        gap = np.maximum(np.abs(x - np.asarray(region.center)) - region.side / 2.0, 0.0)
        return float(np.linalg.norm(gap))
    raise ValidationError(f"unsupported region type {type(region).__name__}")


# ---------------------------------------------------------------------------
# Carleman weight
# ---------------------------------------------------------------------------

def carleman_exponent_integral(s: float) -> float:
    """int_0^s (1 - e^{-t})/t dt, exact to machine precision.

    Alternating series for small s; Euler-gamma + log + E1 identity beyond.
    """
    if s < 0.0:
        raise ValidationError("the weight integral needs s >= 0")
    if s == 0.0:
        return 0.0
    if s <= 0.75:
        total, term = 0.0, 1.0
        for k in range(1, 60):
            term *= -s / k if k > 1 else s
            contrib = term / k
            total += contrib
            if abs(contrib) < 1e-18:
                break
        return total
    from scipy.special import exp1

    return _EULER_GAMMA + math.log(s) + float(exp1(s))


def carleman_constant() -> float:
    """C1 = exp(int_0^1 (1 - e^{-t})/t dt), between e^(3/4) and e: the constant of
    the weight sandwich |x|/(C1 rho) <= phi(|x|/rho) <= |x|/rho of criterion 12."""
    return math.exp(carleman_exponent_integral(1.0))


def carleman_phi(s) -> np.ndarray:
    """phi(s) = s exp(-int_0^s (1-e^{-t})/t dt); strictly increasing, phi(0)=0."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.array([v * math.exp(-carleman_exponent_integral(v)) for v in s])
    return out


@dataclass(frozen=True)
class RadialBump:
    """Compactly supported radial C^inf sample f(x) = b((|x|-r0)/width).

    ``b(t) = exp(-1/(1-t^2))`` on |t| < 1; support is the closed shell
    r0 - width <= |x| <= r0 + width.  Exposes the radial Laplacian
    ``f'' + (d-1)/r f'`` analytically.
    """

    r0: float
    width: float

    def _profile(self, t):
        """``(b, b', b'')`` at ``t``, all zero outside |t| < 1."""
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < 1.0
        out = np.zeros((3,) + t.shape)
        ti = t[inside]
        b = np.exp(-1.0 / (1.0 - ti**2))
        g = -2.0 * ti / (1.0 - ti**2) ** 2                   # (log b)'
        gp = -2.0 * (1.0 + 3.0 * ti**2) / (1.0 - ti**2) ** 3
        out[:, inside] = b, b * g, b * (g * g + gp)
        return out

    def value(self, r):
        return self._profile((np.asarray(r, float) - self.r0) / self.width)[0]

    def radial_laplacian(self, r, d: int):
        r = np.asarray(r, dtype=float)
        _, b1, b2 = self._profile((r - self.r0) / self.width)
        fpp = b2 / self.width**2
        fp = b1 / self.width
        return fpp + (d - 1) / np.maximum(r, 1e-300) * fp


def carleman_ratio(sample: RadialBump, alpha: float, rho: float, d: int,
                   quad_points: int = 400) -> float:
    """Quadrature ratio of the two sides of the scaled Carleman inequality.

    ratio = alpha^3 int w_rho^(-1-2a) f^2 / (rho^4 int w_rho^(2-2a) (Lap f)^2);
    the inequality asserts ratio <= C3 for alpha above the (fitted) threshold.
    Radial integrals use the surface-measure factor r^(d-1).  This Carleman
    estimate is what quantitative unique continuation rests on.
    """
    lo, hi = sample.r0 - sample.width, sample.r0 + sample.width
    if lo <= 0.0 or hi >= rho:
        raise ValidationError("sample support must sit inside B(0, rho) minus the origin")
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    r = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
    wq = 0.5 * (hi - lo) * weights * r ** (d - 1)
    w_vals = carleman_phi(r / rho)
    f = sample.value(r)
    lap = sample.radial_laplacian(r, d)
    # log-space accumulation: w^(-2 alpha) spans an enormous dynamic range
    log_w = np.log(w_vals)
    num_log = (-1.0 - 2.0 * alpha) * log_w + 2.0 * np.log(np.maximum(np.abs(f), 1e-300))
    den_log = (2.0 - 2.0 * alpha) * log_w + 2.0 * np.log(np.maximum(np.abs(lap), 1e-300))
    shift = max(num_log.max(), den_log.max())
    num = float(np.sum(wq * np.exp(num_log - shift)))
    den = float(np.sum(wq * np.exp(den_log - shift)))
    if den <= 0.0:
        raise ValidationError("degenerate denominator in the Carleman ratio")
    return alpha**3 * num / (rho**4 * den)


# ---------------------------------------------------------------------------
# unique-continuation verification
# ---------------------------------------------------------------------------

@dataclass
class UcpRecord:
    x: tuple
    delta: float
    K: float                  # |V - E|_inf over the box
    R: float                  # Euclidean distance from x to Theta
    lhs: float
    rhs: float
    ratio: float
    kappa: Optional[float]    # log(-log ratio)/log R when defined
    skipped: Optional[str] = None


@dataclass
class UcpFit:
    records: List[UcpRecord]
    kappa_hat: Optional[float]
    kappa_band: Optional[tuple]     # 95%-style band from the regression
    penalty: float


def qucp_verify(H: HamiltonianMatrix, psi: np.ndarray, energy: float,
                theta, delta: float, probes: Sequence,
                D: Optional[float] = None) -> UcpFit:
    """Record the local-mass inequality at each probe and fit the exponent.

    ``theta`` is the mass-carrying region (Euclidean tag), ``probes`` the
    points x; probes violating a precondition are kept with a skip reason.
    The residual ``zeta = H psi - E psi`` enters the left-hand side.
    """
    grid = H.grid
    d = grid.box.dimension
    pts = grid.points()
    psi = np.asarray(psi, dtype=float)
    zeta_sq = grid.norm(H.matrix @ psi - energy * psi) ** 2
    K = float(np.max(np.abs(H.potential - energy)))
    penalty = (29.0 * math.sqrt(d)) ** d

    theta_mask = theta.contains(pts)
    rhs = grid.norm(psi[theta_mask]) ** 2
    if rhs <= 0.0:
        raise ValidationError("Theta carries no mass; choose a mass-bearing region")
    diam = euclidean_diameter(theta)
    if D is None:
        D = max(diam, delta / 4.0)
    if diam > D + 1e-12 or delta / 4.0 > D + 1e-12:
        raise ValidationError("need diam Theta <= D and delta/4 <= D")

    records: List[UcpRecord] = []
    for x in probes:
        x = tuple(float(v) for v in np.atleast_1d(x))
        ball = BallSpec(d, x, delta / 2.0)
        inside = all(abs(x[i] - grid.box.center[i]) + delta / 2.0
                     <= grid.box.side / 2.0 + 1e-12 for i in range(d))
        R = euclidean_distance(theta, x)
        if not inside:
            records.append(UcpRecord(x, delta, K, R, math.nan, rhs, math.nan,
                                     None, "ball not contained in the box"))
            continue
        if R < D:
            records.append(UcpRecord(x, delta, K, R, math.nan, rhs, math.nan,
                                     None, f"R={R:.3g} below D={D:.3g}"))
            continue
        local = grid.norm(psi[ball.contains(pts)]) ** 2
        lhs = (1.0 + K) * local + penalty * zeta_sq
        ratio = max(lhs / rhs, 1e-300)
        kappa = None
        if 0.0 < ratio < 1.0 and R > 1.0:
            kappa = math.log(-math.log(ratio)) / math.log(R)
        records.append(UcpRecord(x, delta, K, R, lhs, rhs, ratio, kappa))

    fit_pts = [(math.log(r.R), math.log(-math.log(r.ratio)))
               for r in records
               if r.skipped is None and 0.0 < r.ratio < 1.0 and r.R > 1.0]
    kappa_hat, band = None, None
    if len(fit_pts) >= 2:
        xs = np.array([p[0] for p in fit_pts])
        ys = np.array([p[1] for p in fit_pts])
        if np.ptp(xs) > 1e-9:
            slope, intercept = np.polyfit(xs, ys, 1)
            resid = ys - (slope * xs + intercept)
            spread = np.sqrt(np.sum(resid**2) / max(len(xs) - 2, 1))
            denom = math.sqrt(float(np.sum((xs - xs.mean()) ** 2)))
            err = 2.0 * spread / denom if denom > 0 else math.inf
            kappa_hat, band = float(slope), (float(slope - err), float(slope + err))
    return UcpFit(records, kappa_hat, band, penalty)


def qucp_trial(ensemble: Ensemble, box: BoxSpec, theta, delta: float, probes: Sequence,
               D: Optional[float], trial: int) -> List[UcpRecord]:
    """:func:`qucp_verify` records on the ground state of Monte Carlo trial
    ``trial``'s Dirichlet box; none when its ground window is empty."""
    H = ensemble.hamiltonian(box, trial)
    # min V < lambda_0 <= max V + the free ground energy (Dirichlet box)
    lower = min(-0.1, float(np.min(H.potential)) - 0.1)
    upper = 4.0 * (np.pi / box.side) ** 2 + float(np.max(H.potential)) + 1.0
    res = eigs_window(H, (lower, upper), max_count=1)  # qucp_verify reads the ground pair
    if len(res.energies) == 0:
        return []
    return qucp_verify(H, res.vectors[:, 0], float(res.energies[0]), theta, delta, probes,
                       D).records


# ---------------------------------------------------------------------------
# periodic spectral-projection lower bound
# ---------------------------------------------------------------------------

def periodized_ball_indicator(points: np.ndarray, q: int, delta: float) -> np.ndarray:
    """W_delta(x) = sum over m in q Z^d of 1_{B(0, delta/2)}(x - m)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    # reduce to the centered fundamental cell plus its neighbors (delta <= q
    # means only nearby copies can contribute, but keep the 3^d sum general)
    reduced = (points + q / 2.0) % q - q / 2.0
    d = points.shape[1]
    total = np.zeros(len(points))
    for shift in np.ndindex(*([3] * d)):
        offset = (np.asarray(shift) - 1) * q
        total += (np.linalg.norm(reduced - offset, axis=1) < delta / 2.0).astype(float)
    return total


@dataclass
class PeriodicGapResult:
    gap: Optional[float]        # None when the window holds no spectrum
    window: tuple
    delta: float
    count: int                  # eigenvalues in the window
    empty: bool


def periodic_projection_gap(
    v_per: Optional[PeriodicField],
    box_side: float,
    grid_spec: GridSpec,
    interval: tuple,
    delta: float,
    dimension: int = 1,
) -> PeriodicGapResult:
    """Smallest eigenvalue of the compressed operator P W_delta P on Ran P.

    ``P`` is the spectral projection of the periodic-box operator onto the
    window.  Requires periodic boundary and a box side that is a multiple of
    the potential period q.  P W_delta P is the direct sum of its
    compressions to the Floquet-Bloch blocks, so ``count`` sums over the
    blocks and ``gap`` is their minimum, exactly.  Each stack of
    :func:`~andlab.discretize.bloch_blocks` takes one batched ``eigh``, and
    only blocks that hold window modes are compressed.  An eigenvalue counts
    as inside when ``lo - tol <= lambda <= hi + tol`` with ``tol = 1e-12 *
    norm_bound`` of the one-period operator, so a mode on a window edge (the
    free operator's zero mode at lo = 0) counts whatever the sign of its
    roundoff.
    """
    if grid_spec.boundary != "periodic":
        raise ValidationError("periodic projection gap needs periodic boundary")
    q = 1 if v_per is None else int(v_per.period)
    ratio = box_side / q
    if abs(ratio - round(ratio)) > 1e-9:
        raise GeometryError(f"box side {box_side} is not a multiple of the period {q}")
    if not (0.0 < delta <= q):
        raise ValidationError("need 0 < delta <= q")
    # the box's first period, so the cell's nodes are the box's own nodes;
    # couplings are all zero, so the site profile is inert here
    cell_box = BoxSpec(dimension, tuple([(q - box_side) / 2.0] * dimension), float(q))
    cell = assemble_hamiltonian(cell_box, grid_spec, SiteProfile(),
                                empty_configuration(cell_box), v_per)
    lo, hi = interval
    tol = 1e-12 * cell.norm_bound()
    w_diag = periodized_ball_indicator(cell.grid.points(), q, delta)
    count, gap = 0, math.inf
    for stack in bloch_blocks(cell, int(round(ratio))):
        vals, vecs = np.linalg.eigh(stack)
        inside = (vals >= lo - tol) & (vals <= hi + tol)
        count += int(inside.sum())
        for b in np.flatnonzero(inside.any(axis=1)):
            # columns of vecs are plain-l2 orthonormal, so the h^d weights
            # cancel in the compression matrix <phi_i, W phi_j>_h
            U = vecs[b][:, inside[b]]
            gap = min(gap, float(np.linalg.eigvalsh(U.conj().T @ (w_diag[:, None] * U))[0]))
    if count == 0:
        return PeriodicGapResult(None, (lo, hi), delta, 0, True)
    return PeriodicGapResult(gap, (lo, hi), delta, count, False)
