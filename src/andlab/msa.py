"""Good-box verdicts, initial-scale formulas, scale ladders, MSA bookkeeping.

A box of side L is good at energy E with rate m and exponent varsigma when
the finite-volume resolvent satisfies ``|R(E)| <= exp(L^(1-varsigma))`` and
``|chi_x R(E) chi_y| <= exp(-m |x-y|)`` for all unit-box pairs at sup-distance
at least ``L/100``, uniformly over the free-site couplings.  The uncountable
supremum over ``t_S in [0,1]^S`` is approximated by a recorded sampling policy
(all-zeros, all-ones, random corners, interior draws); no finite reduction is
claimed for resolvent norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .covering import standard_covering_box
from .discretize import GridSpec, PeriodicField, assemble_hamiltonian
from .errors import ScaleError, ValidationError
from .model import BoxSpec, Configuration, SingleSiteDistribution, SiteProfile, \
    lattice_sites, sample_configuration
from .rng import derive_key, uniforms
from .spectral import ResolventFactorization, eigs_window


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
    drives the localization bookkeeping with vartheta = beta/2.
    """

    d: int
    p: float
    p_tilde: float
    varsigma: float
    varsigma_prime: float
    tau: float
    rho1: float
    n1: int
    rho: float
    eta: float
    gamma: float
    m: float
    eps: float
    delta_plus: float
    q: int
    L_ref: float
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
        out = {k: getattr(self, k) for k in (
            "d", "p", "p_tilde", "varsigma", "varsigma_prime", "tau", "rho1", "n1",
            "rho", "eta", "gamma", "m", "eps", "delta_plus", "q", "L_ref",
            "rho2", "beta", "vartheta", "nhat", "M", "m_hat", "E_L", "m_L",
            "ell1", "ell2", "L_minus", "L_plus")}
        out["nested_scales"] = list(self.nested_scales)
        out["verdicts"] = dict(self.verdicts)
        out["feasible"] = self.feasible
        return out


def msa_constants(d: int, p: float, p_tilde: Optional[float] = None,
                  varsigma: float = 0.01, varsigma_prime: float = 0.01,
                  tau: float = 0.005, rho1: Optional[float] = None, n1: int = 2,
                  rho: Optional[float] = None, eta: float = 0.1,
                  gamma: float = 4.0 / 3.0, m: float = 1.0, eps: float = 1.0,
                  delta_plus: float = 1.0, q: int = 1,
                  L_ref: float = 100.0) -> MsaParams:
    """Derived constants and per-constraint verdicts for a raw parameter tuple.

    Infeasible tuples come back with failing verdicts, never as errors.
    """
    if p_tilde is None:
        p_tilde = 0.9 * p
    if rho1 is None:
        window_lo, window_hi = 1.0 / (1.0 + p), 0.75 * (1.0 - varsigma)
        rho1 = 0.5 * (window_lo + min(window_hi, 1.0)) if window_lo < window_hi \
            else 0.5 * (window_lo + window_hi)
    if rho is None:
        rho = rho1
    return MsaParams(d, p, p_tilde, varsigma, varsigma_prime, tau, rho1, n1, rho,
                     eta, gamma, m, eps, delta_plus, q, L_ref)


def minimal_n1(p: float, rho1: float, varsigma_prime: float) -> Optional[int]:
    """Smallest n1 <= 200 with p < rho1 (1 - varsigma') / 2 - rho1^n1, if any."""
    margin = 0.5 * rho1 * (1.0 - varsigma_prime) - p
    if margin <= 0.0:
        return None
    for n1 in range(1, 201):
        if rho1 ** n1 < margin:
            return n1
    return None


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


def scale_ladder(L0: float, rho1: float, count: int, budget: float = 1e4,
                 mode: str = "auto") -> list:
    """Scale ladder starting at L0.

    Paper mode grows L -> L^(1/rho1); the desk-scale geometric ladder
    L_k = ceil(L0 2^k) replaces it (mode="auto") once the power ladder
    exceeds ``budget``.
    """
    if mode not in ("auto", "paper", "geometric"):
        raise ValidationError(f"unknown ladder mode {mode!r}")
    out = [float(L0)]
    for k in range(1, count):
        if mode == "geometric":
            out.append(float(math.ceil(L0 * 2.0 ** k)))
            continue
        nxt = out[-1] ** (1.0 / rho1)
        if mode == "auto" and nxt > budget:
            out.append(float(math.ceil(out[-1] * 2.0)))
        else:
            out.append(nxt)
    return out


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
    weg_norms: list                    # (policy label, measured |R|) per t_S
    decay_pass: bool
    worst_pair: Optional[PairResult]
    decay_rate_fit: float
    policy_record: list
    indeterminate: bool = False
    subreports: list = field(default_factory=list)  # pgood only
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


def check_goodness(
    box: BoxSpec,
    grid_spec: GridSpec,
    profile: SiteProfile,
    config: Configuration,
    energy: float,
    m: float,
    varsigma: float,
    policy: FreeSitePolicy = FreeSitePolicy(),
    variant: str = "good",
    v_per: Optional[PeriodicField] = None,
    pair_cap: int = PAIR_CAP,
) -> GoodnessReport:
    """Evaluate the good-box criterion on one configuration.

    ``variant="jgood"`` doubles both right-hand sides.  The probes are the
    unit boxes centered at the integer lattice sites of the box; their node
    sets come from one ``rint`` pass over the grid (``_unit_box_nodes``).
    Every pair norm of an assembly comes from
    :meth:`~andlab.spectral.ResolventFactorization.pair_norms`.  On a 1-d
    Dirichlet box that is O(n + pairs), from the semiseparable generators of
    the resolvent, and the pair with the largest ratio to its bound is
    measured again by one direct solve, whose value the report keeps; in
    d >= 2 or on a periodic box it is one solve per source.  ``fallbacks``
    lists each assembly whose 1-d norms took the per-source path, and why.
    """
    if variant not in ("good", "jgood"):
        raise ValidationError(f"unknown variant {variant!r}")
    factor = 2.0 if variant == "jgood" else 1.0
    L = box.side
    weg_threshold = factor * math.exp(L ** (1.0 - varsigma))

    centers = lattice_sites(box).astype(float)
    first, second, distance = _candidate_pairs(centers, L / 100.0, pair_cap, policy.seed)
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
    fit = [np.zeros((2, 0))]                           # (distance, -log measured)
    nodes = None

    for label, cfg in configs:
        H = assemble_hamiltonian(box, grid_spec, profile, cfg, v_per)
        fac = ResolventFactorization(H, energy)
        if fac.divergent:
            weg_norms.append((label, math.inf))
            weg_pass = False
            decay_pass = False
            break
        weg_norms.append((label, fac.resolvent_norm))
        if fac.resolvent_norm > weg_threshold:
            weg_pass = False
        if nodes is None:  # every t_S shares the grid
            nodes = _unit_box_nodes(H.grid.points(), centers)
        pairs = fac.pair_norms(nodes, first, second, bound)
        measured = pairs.measured                     # NaN: pair not probed
        indeterminate |= pairs.indeterminate
        if pairs.fallback is not None:
            fallbacks.append((label, pairs.fallback))
        sel = np.flatnonzero(~np.isnan(measured))
        ratio = np.divide(measured[sel], bound[sel], out=np.full(len(sel), np.inf),
                          where=bound[sel] > 0)
        top = np.argmax(ratio) if len(sel) else None    # the first maximum
        if top is not None and ratio[top] > worst_ratio:
            worst_ratio, k = ratio[top], sel[top]
            worst = PairResult(tuple(centers[first[k]]), tuple(centers[second[k]]),
                               float(distance[k]), float(measured[k]), float(bound[k]))
        if np.any(measured[sel] > bound[sel]):
            decay_pass = False
        sel = sel[measured[sel] > 1e-300]
        fit.append(np.stack([distance[sel], -np.log(measured[sel])]))

    xs, ys = np.concatenate(fit, axis=1)
    rate = float(np.polyfit(xs, ys, 1)[0]) if len(xs) > 1 else 0.0

    return GoodnessReport(
        box=box, energy=energy, m=m, varsigma=varsigma, variant=variant,
        n_free_sites=0 if config.free_sites is None else len(config.free_sites),
        weg_pass=weg_pass, weg_threshold=weg_threshold, weg_norms=weg_norms,
        decay_pass=decay_pass, worst_pair=worst, decay_rate_fit=rate,
        policy_record=[label for label, _ in configs], indeterminate=indeterminate,
        fallbacks=fallbacks)


def _unit_box_nodes(points: np.ndarray, centers: np.ndarray) -> list:
    """Sorted indices of the points inside the open unit box around each
    center, for ``centers`` the lattice sites of a box (``lattice_sites``: a
    full tensor grid of integer points in C order).

    A point lies in the open unit box of an integer center c exactly when
    every coordinate rounds to c's and stays within 1/2 of it, so one
    ``rint`` pass assigns every point to its center, if any."""
    if not len(centers):
        return []
    nearest = np.rint(points)
    offset = centers.min(axis=0)
    shape = tuple((centers.max(axis=0) - offset + 1).astype(np.intp))
    cell = (nearest - offset).astype(np.intp)
    inside = np.all((np.abs(points - nearest) < 0.5) & (cell >= 0) & (cell < shape), axis=1)
    owner = np.ravel_multi_index(tuple(cell[inside].T), shape)
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=len(centers))
    return np.split(np.flatnonzero(inside)[order], np.cumsum(counts)[:-1])


def check_pgood(box: BoxSpec, grid_spec: GridSpec, profile: SiteProfile,
                config: Configuration, energy: float, m: float, varsigma: float,
                eta: float, v_per: Optional[PeriodicField] = None,
                pair_cap: int = PAIR_CAP) -> GoodnessReport:
    """pgood: every box of the standard ell-covering, ell = L^(1/(1+eta)),
    must be good (no free sites) on the restricted configuration."""
    L = box.side
    ell = L ** (1.0 / (1.0 + eta))
    # snap to the grid so sub-boxes assemble exactly
    n = grid_spec.points_per_unit
    ell = max(math.floor(ell * n), 2) / n
    covering = standard_covering_box(box, ell)
    subreports = []
    all_good = True
    for center in covering.centers:
        sub_box = BoxSpec(box.dimension, tuple(center), ell)
        sub_cfg = restrict_configuration(config, sub_box)
        rep = check_goodness(sub_box, grid_spec, profile, sub_cfg, energy, m,
                             varsigma, FreeSitePolicy(), "good", v_per, pair_cap)
        subreports.append(rep)
        if not rep.is_good:
            all_good = False
    head = GoodnessReport(
        box=box, energy=energy, m=m, varsigma=varsigma, variant="good",
        n_free_sites=0, weg_pass=all_good, weg_threshold=math.nan, weg_norms=[],
        decay_pass=all_good, worst_pair=None, decay_rate_fit=math.nan,
        policy_record=[f"pgood ell={ell}"], subreports=subreports)
    return head


def restrict_configuration(config: Configuration, sub_box: BoxSpec) -> Configuration:
    """Restriction of a configuration to a sub-box (assigned free sites fold in)."""
    sites, values = [], []
    src_sites, src_vals = config.sites, config.values
    inside = sub_box.contains(src_sites.astype(float)) if len(src_sites) else \
        np.zeros(0, dtype=bool)
    sites.append(src_sites[inside])
    values.append(src_vals[inside])
    if config.free_sites is not None and len(config.free_sites):
        fin = sub_box.contains(config.free_sites.astype(float))
        if fin.any():
            if config.free_values is None:
                raise ValidationError(
                    "free sites inside the sub-box but no t_S assigned")
            sites.append(config.free_sites[fin])
            values.append(config.free_values[fin])
    return Configuration(sub_box, np.vstack(sites), np.concatenate(values),
                         degenerate_warning=config.degenerate_warning)


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
    phat = successes / n_samples
    low, high = wilson_interval(successes, n_samples)
    target = 1.0 - scale ** (-p * dimension)
    return LadderRow(scale, energy, m, n_samples, successes, phat, low, high, target,
                     verdict=(low >= target) or (phat >= target))


def goodness_trial(dist: SingleSiteDistribution, box: BoxSpec, grid_spec: GridSpec,
                   profile: SiteProfile, energy: float, m: float, varsigma: float,
                   root_seed: int, v_per: Optional[PeriodicField], pair_cap: int,
                   trial: int) -> bool:
    """Whether the box is (E, m, varsigma)-good in Monte Carlo trial ``trial``."""
    config = sample_configuration(dist, box, None, root_seed, trial)
    return bool(check_goodness(box, grid_spec, profile, config, energy, m, varsigma,
                               FreeSitePolicy(seed=root_seed), "good", v_per,
                               pair_cap).is_good)


def goodness_probability(
    dist: SingleSiteDistribution,
    box: BoxSpec,
    grid_spec: GridSpec,
    profile: SiteProfile,
    energy: float,
    m: float,
    varsigma: float,
    p: float,
    n_samples: int,
    root_seed: int,
    v_per: Optional[PeriodicField] = None,
    pair_cap: int = PAIR_CAP,
) -> LadderRow:
    """Monte Carlo estimate of P{box is (E, m, varsigma)-good} with the
    Wilson interval and the 1 - L^(-pd) target."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    trial = partial(goodness_trial, dist, box, grid_spec, profile, energy, m, varsigma,
                    root_seed, v_per, pair_cap)
    good = sum(trial(t) for t in range(n_samples))
    return ladder_row(box.side, box.dimension, p, energy, m, good, n_samples)


# ---------------------------------------------------------------------------
# reduced spectrum
# ---------------------------------------------------------------------------

def reduced_spectrum(
    box: BoxSpec,
    grid_spec: GridSpec,
    profile: SiteProfile,
    config: Configuration,
    interval: tuple,
    rho: float,
    n1: int,
    m_hat: float,
    v_per: Optional[PeriodicField] = None,
) -> np.ndarray:
    """Eigenvalues in the window consistent with the nested-box spectra.

    Keeps ``E`` in the window spectrum of the full box whose distance to the
    window spectrum of every nested box of side ``L^(rho^n)``, n = 1..n1, is
    at most ``2 exp(-m_hat L_n)``.  Nested sides snap to the mesh; a nested
    side below three cells raises :class:`ScaleError`.
    """
    L = box.side
    ppu = grid_spec.points_per_unit

    def snapped(side):
        cells = round(side * ppu)
        if cells < 3:
            raise ScaleError(f"nested box of side {side} is below 3 grid cells")
        return cells / ppu

    H = assemble_hamiltonian(box, grid_spec, profile, config, v_per)
    base = eigs_window(H, interval).energies
    if n1 == 0 or len(base) == 0:
        return base
    keep = np.ones(len(base), dtype=bool)
    for n in range(1, n1 + 1):
        side = snapped(L ** (rho ** n))
        sub_box = BoxSpec(box.dimension, box.center, side)
        sub_cfg = restrict_configuration(config, sub_box)
        sub_H = assemble_hamiltonian(sub_box, grid_spec, profile, sub_cfg, v_per)
        sub_spec = eigs_window(sub_H, interval).energies
        tol = 2.0 * math.exp(-m_hat * side)
        if len(sub_spec) == 0:
            keep[:] = False
            break
        dist = np.min(np.abs(base[:, None] - sub_spec[None, :]), axis=1)
        keep &= dist <= tol
    return base[keep]
