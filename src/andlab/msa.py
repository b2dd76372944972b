"""Good-box verdicts, initial-scale formulas, goodness ladders, MSA bookkeeping.

A box of side L is good at energy E with rate m and exponent varsigma when
the finite-volume resolvent satisfies ``|R(E)| <= exp(L^(1-varsigma))`` and
``|chi_x R(E) chi_y| <= exp(-m |x-y|)`` for all unit-box pairs at sup-distance
at least ``L/100``, uniformly over the free-site couplings ``t_S in [0,1]^S``.
The supremum of ``|R(E)|`` is exact (``check_goodness``); that of the pair
norms is approximated by a recorded sampling policy (all-zeros, all-ones,
random corners, interior draws).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .discretize import Ensemble
from .errors import ScaleError, ValidationError
from .model import BoxSpec, Configuration, lattice_index, lattice_sites
from .rng import derive_key, uniforms
from .spectral import (ResolventFactorization, bound_ratio, eigenvalue_count, eigs_window,
                       lowest_eigenvalue)


# ---------------------------------------------------------------------------
# parameter and constants calculator
# ---------------------------------------------------------------------------

def n_hat(p: float) -> int:
    """Smallest n with 2^(1/n) - 1 < p."""
    if p <= 0.0:
        raise ValidationError("p must be positive")
    n = 1
    while not (2.0 ** (1.0 / n) - 1.0 < p):
        n += 1
    return n


GAMMA_CRITICAL = 0.5 * (1.0 + math.sqrt(3.0))


@dataclass(frozen=True)
class MsaParams:
    """Full parameter tuple with derived constants and feasibility verdicts.

    The two exponent families are kept separate: (rho1, rho2 = rho1^n1)
    drives the induction-on-scales constraint, while (rho, beta = rho^n1)
    drives the localization bookkeeping with vartheta = beta/2.  Unset,
    ``p_tilde`` is 0.9 p, ``rho1`` the midpoint of its window
    (1/(1+p), 3/4 (1 - varsigma)) and ``rho`` equals ``rho1``.  Infeasible
    tuples come back with failing verdicts, never as errors.
    """

    d: int
    p: float
    p_tilde: Optional[float] = None
    varsigma: float = 0.01
    varsigma_prime: float = 0.01
    tau: float = 0.005
    rho1: Optional[float] = None
    n1: int = 2
    rho: Optional[float] = None
    eta: float = 0.1
    gamma: float = 4.0 / 3.0
    m: float = 1.0
    eps: float = 1.0
    delta_plus: float = 1.0
    q: int = 1
    L_ref: float = 100.0
    # derived
    rho2: float = field(init=False)
    beta: float = field(init=False)
    vartheta: float = field(init=False)
    nhat: int = field(init=False)
    M: float = field(init=False)
    m_hat: float = field(init=False)
    E_L: float = field(init=False)
    m_L: float = field(init=False)
    ell1: float = field(init=False)
    ell2: float = field(init=False)
    nested_scales: tuple = field(init=False)   # L_n = ell1^(rho1^n), n = 0..n1
    L_minus: float = field(init=False)
    L_plus: float = field(init=False)
    verdicts: dict = field(init=False)

    def __post_init__(self):
        if self.p_tilde is None:
            object.__setattr__(self, "p_tilde", 0.9 * self.p)
        if self.rho1 is None:
            lo, hi = 1.0 / (1.0 + self.p), 0.75 * (1.0 - self.varsigma)
            object.__setattr__(self, "rho1", 0.5 * (lo + min(hi, 1.0)) if lo < hi
                               else 0.5 * (lo + hi))
        if self.rho is None:
            object.__setattr__(self, "rho", self.rho1)
        object.__setattr__(self, "rho2", self.rho1 ** self.n1)
        object.__setattr__(self, "beta", self.rho ** self.n1)
        object.__setattr__(self, "vartheta", self.beta / 2.0)
        object.__setattr__(self, "nhat", n_hat(self.p))
        object.__setattr__(self, "M", self.m / 30.0 ** (self.nhat + 2))
        object.__setattr__(self, "m_hat", 30.0 * self.M)
        E_L, m_L = initial_scale_values(self.L_ref, self.p, self.d, self.eps,
                                        self.delta_plus, self.q)
        object.__setattr__(self, "E_L", E_L)
        object.__setattr__(self, "m_L", m_L)
        object.__setattr__(self, "ell1", self.L_ref ** self.rho1)
        object.__setattr__(self, "ell2", self.L_ref ** (self.rho1 * self.rho2))
        object.__setattr__(self, "nested_scales", tuple(
            self.ell1 ** (self.rho1 ** n) for n in range(self.n1 + 1)))
        object.__setattr__(self, "L_minus", 499.0 * self.L_ref / 500.0)
        object.__setattr__(self, "L_plus", 1001.0 * self.L_ref / 500.0)
        object.__setattr__(self, "verdicts", {
            "rhos_lower": 1.0 / (1.0 + self.p) < self.rho1,
            "rhos_upper": self.rho1 < 0.75 * (1.0 - self.varsigma),
            "rhos_p": self.p < 0.5 * self.rho1 * (1.0 - self.varsigma_prime) - self.rho2,
            "prho2n1_rho": 1.0 / (1.0 + self.p) < self.rho < 1.0,
            "prho2n1_beta": (self.n1 + 1) * self.beta < self.p - self.p_tilde,
            "tau_window": 0.0 < self.tau < self.varsigma,
            "gamma_window_nonempty": self.gamma < GAMMA_CRITICAL,
            "p_in_gamma_window": self.gamma - 1.0 < self.p < 1.0 / (2.0 * self.gamma),
        })

    @property
    def feasible(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return dict(asdict(self), feasible=self.feasible)


def initial_scale_values(L: float, p: float, d: int, eps: float = 1.0,
                         delta_plus: float = 1.0, q: int = 1) -> tuple:
    """Initial-scale energy and rate: E_L = ((p+1) d log(L+d_+ +q~))^(-(2+eps)/d)/2,
    m_L = sqrt(E_L)/2, with q~ = max(q, 2)."""
    if L <= 0.0:
        raise ValidationError("scale L must be positive")
    if p <= 0.0 or not (0.0 < eps <= 1.0):
        raise ValidationError("need p > 0 and 0 < eps <= 1")
    q_tilde = max(q, 2)
    E_L = 0.5 * ((p + 1.0) * d * math.log(L + delta_plus + q_tilde)) ** (-(2.0 + eps) / d)
    return E_L, 0.5 * math.sqrt(E_L)


# ---------------------------------------------------------------------------
# goodness checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeSitePolicy:
    """Sampling of the uncountable family t_S in [0,1]^S.

    Probes all-zeros, all-ones, ``corners`` random 0/1 corners and ``draws``
    uniform interior points; the report records that this samples, not
    exhausts, the family."""

    corners: int = 8
    draws: int = 8
    seed: int = 0

    def assignments(self, n_free: int) -> list:
        out = [("zeros", np.zeros(n_free)), ("ones", np.ones(n_free))]
        for j in range(self.corners):
            u = uniforms(derive_key(self.seed, 0xC0, j), np.arange(n_free, dtype=np.uint64))
            out.append((f"corner{j}", (u < 0.5).astype(float)))
        for j in range(self.draws):
            u = uniforms(derive_key(self.seed, 0xD0, j), np.arange(n_free, dtype=np.uint64))
            out.append((f"draw{j}", u))
        return out


@dataclass
class PairResult:
    x: tuple
    y: tuple
    distance: float
    measured: float
    bound: float


@dataclass
class GoodnessReport:
    """Verdict of the (omega, E, m, varsigma, S) goodness criterion."""

    box: BoxSpec
    energy: float
    m: float
    varsigma: float
    variant: str                       # "good" or "jgood"
    n_free_sites: int
    weg_pass: bool
    weg_threshold: float
    weg_norms: list                    # (policy label, measured |R|) per t_S, then any crossing
    decay_pass: bool
    worst_pair: Optional[PairResult]
    policy_record: list
    indeterminate: bool = False
    fallbacks: list = field(default_factory=list)   # (label, reason): per-source pair norms

    @property
    def is_good(self) -> bool:
        return self.weg_pass and self.decay_pass and not self.indeterminate


PAIR_CAP = 4000   # default cap on the unit-box pairs probed per goodness check


def _candidate_pairs(centers: np.ndarray, min_dist: float, pair_cap: int,
                     seed: int) -> tuple:
    """Index pairs ``i < j`` at sup-distance >= min_dist, in lexicographic
    order, with their distances: all of them up to ``pair_cap``, else the
    extreme separations plus a seeded subsample.  Returns ``(i, j, dist)``."""
    if pair_cap < 1:
        raise ValidationError(f"pair_cap must be at least 1, got {pair_cap}")
    first, second = np.triu_indices(len(centers), k=1)
    dist = np.max(np.abs(centers[second] - centers[first]), axis=1)
    far = dist >= min_dist
    first, second, dist = first[far], second[far], dist[far]
    if len(dist) <= pair_cap:
        return first, second, dist
    keep = np.zeros(len(dist), dtype=bool)
    keep[np.argsort(dist)[-pair_cap // 4:]] = True        # extreme separations
    u = uniforms(derive_key(seed, 0xFA1), np.arange(len(dist), dtype=np.uint64))
    drawn = np.argsort(u)
    drawn = drawn[~keep[drawn]]
    keep[drawn[:max(pair_cap - np.count_nonzero(keep), 0)]] = True
    return first[keep], second[keep], dist[keep]


@lru_cache(maxsize=16)
def _box_pairs(box: BoxSpec, pair_cap: int, seed: int) -> tuple:
    """``(centers, i, j, dist)`` of a box's unit-box pairs, computed once per
    (box, cap, seed): every trial and assignment on a box probes the same
    pairs.  Every caller shares the cached arrays, so they are read-only."""
    centers = lattice_sites(box).astype(float)
    arrays = (centers,) + _candidate_pairs(centers, box.side / 100.0, pair_cap, seed)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def check_goodness(
    ensemble: Ensemble,
    config: Configuration,
    energy: float,
    m: float,
    varsigma: float,
    policy: FreeSitePolicy = FreeSitePolicy(),
    variant: str = "good",
    pair_cap: int = PAIR_CAP,
) -> GoodnessReport:
    """Evaluate the good-box criterion on the box ``config.region`` of one
    configuration: each free-site assignment ``t_S`` of ``policy`` is assembled
    by ``ensemble.assemble``.

    ``variant="jgood"`` doubles both right-hand sides.  The probes are the
    unit boxes centered at the integer lattice sites of the box; their node
    sets come from one ``rint`` pass over the grid (``_unit_box_nodes``).
    Every pair norm of an assembly comes from
    :meth:`~andlab.spectral.ResolventFactorization.pair_norms`.  On a 1-d
    Dirichlet box that is O(n + pairs), from the semiseparable generators of
    the resolvent, and the pair of largest ratio to its bound (``worst_pair``)
    is measured again by one direct solve, whose value and pair the report
    keeps; in d >= 2 or on a periodic box it is one solve per source.
    ``fallbacks`` lists each assembly whose 1-d norms took the per-source
    path, and why.

    The Wegner half is exact: u >= 0 makes each eigenvalue nondecreasing in
    every t_zeta, so if the counts N(E) at all-zeros and all-ones differ some
    t_S puts an eigenvalue on E (``("crossing", inf)`` joins ``weg_norms``),
    and if they agree sup |R| is max(|R(0)|, |R(1)|), which those two record.
    """
    if variant not in ("good", "jgood"):
        raise ValidationError(f"unknown variant {variant!r}")
    factor = 2.0 if variant == "jgood" else 1.0
    box = config.region
    L = box.side
    try:
        weg_threshold = factor * math.exp(L ** (1.0 - varsigma))
    except OverflowError:   # beyond float range: every finite |R| passes
        weg_threshold = math.inf

    centers, first, second, distance = _box_pairs(box, pair_cap, policy.seed)
    # math.exp on the few distinct distances keeps each bound the scalar formula's
    uniq, inverse = np.unique(distance, return_inverse=True)
    bound = factor * np.array([math.exp(-m * d) for d in uniq])[inverse]

    if config.free_sites is not None and len(config.free_sites) > 0:
        assignments = policy.assignments(len(config.free_sites))
        configs = [(label, config.with_free_values(t)) for label, t in assignments]
    else:
        configs = [("no-free-sites", config)]

    weg_pass, decay_pass = True, True
    indeterminate = False
    weg_norms: list = []
    fallbacks: list = []
    worst: Optional[PairResult] = None
    worst_ratio = -np.inf
    nodes = None
    counts = []                                       # N(E) at all-zeros, all-ones

    for label, cfg in configs:
        H = ensemble.assemble(cfg)
        fac = ResolventFactorization(H, energy)
        if fac.divergent:
            weg_norms.append((label, math.inf))
            weg_pass = False
            decay_pass = False
            break
        weg_norms.append((label, fac.resolvent_norm))
        if fac.resolvent_norm > weg_threshold:
            weg_pass = False
        if label in ("zeros", "ones"):
            counts.append(int(eigenvalue_count(H, [energy])[0]))
        if nodes is None:  # every t_S shares the grid
            nodes = _unit_box_nodes(H.grid.points(), box)
        pairs = fac.pair_norms(nodes, first, second, bound)
        measured = pairs.measured                     # NaN: pair not probed
        indeterminate |= pairs.indeterminate
        if pairs.fallback is not None:
            fallbacks.append((label, pairs.fallback))
        k = pairs.worst
        ratio = -np.inf if k is None else bound_ratio(measured[k], bound[k])
        if ratio > worst_ratio:
            worst_ratio, worst = ratio, PairResult(
                tuple(centers[first[k]]), tuple(centers[second[k]]), float(distance[k]),
                float(measured[k]), float(bound[k]))
        if np.any(measured > bound):                  # NaN compares False
            decay_pass = False
    if len(set(counts)) > 1:                          # an eigenvalue crosses E
        weg_norms.append(("crossing", math.inf))
        weg_pass = False

    return GoodnessReport(
        box=box, energy=energy, m=m, varsigma=varsigma, variant=variant,
        n_free_sites=0 if config.free_sites is None else len(config.free_sites),
        weg_pass=weg_pass, weg_threshold=weg_threshold, weg_norms=weg_norms,
        decay_pass=decay_pass, worst_pair=worst,
        policy_record=[label for label, _ in configs], indeterminate=indeterminate,
        fallbacks=fallbacks)


def _unit_box_nodes(points: np.ndarray, box: BoxSpec) -> list:
    """Sorted indices of the points inside the open unit box around each
    lattice site of ``box``, in ``lattice_sites`` order.

    A point lies in the open unit box of an integer site exactly when every
    coordinate rounds to the site's and stays within 1/2 of it, so one
    ``rint`` pass assigns every point to its site, if any."""
    sites = lattice_sites(box)
    if not len(sites):
        return []
    nearest = np.rint(points)
    inside = np.all((np.abs(points - nearest) < 0.5) & (nearest >= sites[0])
                    & (nearest <= sites[-1]), axis=1)
    owner = lattice_index(box, nearest[inside].astype(np.int64))
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=len(sites))
    return np.split(np.flatnonzero(inside)[order], np.cumsum(counts)[:-1])


def restrict_configuration(config: Configuration, sub_box: BoxSpec) -> Configuration:
    """Restriction of a configuration to a sub-box of its region: assigned free
    sites inside fold in, unassigned ones must lie outside and are dropped."""
    index = lattice_index(config.region, lattice_sites(sub_box))
    values = config.values
    if config.free_sites is not None and \
            np.isin(lattice_index(config.region, config.free_sites), index).any():
        if config.free_values is None:
            raise ValidationError("free sites inside the sub-box but no t_S assigned")
        values = config.couplings()
    return Configuration(sub_box, values[index])


# ---------------------------------------------------------------------------
# Monte Carlo goodness probability
# ---------------------------------------------------------------------------

@dataclass
class LadderRow:
    """One Monte Carlo row of the goodness-probability ladder."""

    scale: float
    energy: float
    m: float
    n_samples: int
    good_count: int
    p_hat: float
    wilson_low: float
    wilson_high: float
    target: float
    verdict: bool
    verdict_policy: str = "pass iff Wilson lower bound or point estimate >= target"


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValidationError("need at least one sample")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def ladder_row(scale: float, dimension: int, p: float, energy: float, m: float,
               successes: int, n_samples: int) -> LadderRow:
    """One ladder row from ``successes`` of ``n_samples`` trials at side
    ``scale``: the Wilson interval, the 1 - L^(-pd) target and the verdict."""
    low, high = wilson_interval(successes, n_samples)
    phat = successes / n_samples
    target = 1.0 - scale ** (-p * dimension)
    return LadderRow(scale, energy, m, n_samples, successes, phat, low, high, target,
                     verdict=(low >= target) or (phat >= target))


def initial_scale_trial(ensemble: Ensemble, box: BoxSpec, threshold: float, trial: int) -> bool:
    """Whether lambda_min >= ``threshold`` in Monte Carlo trial ``trial``."""
    return bool(lowest_eigenvalue(ensemble.hamiltonian(box, trial)) >= threshold)


def goodness_trial(ensemble: Ensemble, box: BoxSpec, energy: float, m: float, varsigma: float,
                   pair_cap: int, trial: int) -> bool:
    """Whether the box is (E, m, varsigma)-good in Monte Carlo trial ``trial``."""
    return bool(check_goodness(ensemble, ensemble.configuration(box, trial), energy, m, varsigma,
                               FreeSitePolicy(seed=ensemble.root_seed), "good", pair_cap).is_good)


# ---------------------------------------------------------------------------
# reduced spectrum
# ---------------------------------------------------------------------------

def reduced_spectrum(ensemble: Ensemble, config: Configuration, interval: tuple, rho: float,
                     n1: int, m_hat: float) -> np.ndarray:
    """Eigenvalues in the window consistent with the nested-box spectra.

    Keeps ``E`` in the window spectrum of the full box ``config.region`` whose
    distance to the window spectrum of every nested box of side ``L^(rho^n)``,
    n = 1..n1, is at most ``2 exp(-m_hat L_n)``.  Nested sides snap to the
    mesh; a nested side below three cells raises :class:`ScaleError`.
    Acceptance criterion 08 checks it against the spectra of the nested boxes.
    """
    box = config.region
    L = box.side
    ppu = ensemble.grid.points_per_unit

    def snapped(side):
        cells = round(side * ppu)
        if cells < 3:
            raise ScaleError(f"nested box of side {side} is below 3 grid cells")
        return cells / ppu

    base = eigs_window(ensemble.assemble(config), interval).energies
    if n1 == 0 or len(base) == 0:
        return base
    keep = np.ones(len(base), dtype=bool)
    for n in range(1, n1 + 1):
        side = snapped(L ** (rho ** n))
        sub_box = BoxSpec(box.dimension, box.center, side)
        sub_H = ensemble.assemble(restrict_configuration(config, sub_box))
        sub_spec = eigs_window(sub_H, interval).energies
        tol = 2.0 * math.exp(-m_hat * side)
        if len(sub_spec) == 0:
            keep[:] = False
            break
        dist = np.min(np.abs(base[:, None] - sub_spec[None, :]), axis=1)
        keep &= dist <= tol
    return base[keep]
