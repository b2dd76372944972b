"""Eigenfunction-concentration functionals and localization diagnostics.

The basic objects are the weighted local masses

    W_x    = |chi_x psi| / |T_x^{-1} psi|,      T_x(y) = <y - x>^nu,
    W_x,L  = |chi_{x,L} psi| / |T_x^{-1} psi|,

with ``chi_{x,L}`` the indicator of the annulus of sides (L-1, 2L+1) around x
(slightly larger than the (L, 2L) annulus) and sup-norm brackets
``<z> = (1 + |z|^2)^(1/2)``.  Small values of ``W_x`` certify localization
away from x; small ``W_{x,L}`` certifies an annular mass deficit.

Infinite-volume generalized eigenfunctions are proxied by eigenfunctions of
an enlarged Dirichlet box (default outer factor 3); every record carries the
outer factor used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.linalg as la

from .discretize import Ensemble, Grid, HamiltonianMatrix, annulus_shell_mask, unit_box_mask
from .errors import GeometryError, ValidationError
from .model import BoxSpec, lattice_sites
from .spectral import eigs_window

MASS_FLOOR = 1e-14


def bracket_weights(grid: Grid, x, nu: float) -> np.ndarray:
    """<p - x>^nu over grid nodes (sup-norm bracket)."""
    pts = grid.points()
    sup = np.max(np.abs(pts - np.asarray(x, dtype=float)), axis=1)
    return (1.0 + sup**2) ** (nu / 2.0)


@dataclass
class WProfile:
    """W-functional values of one eigenpair at one probe point."""

    energy: float
    x: tuple
    nu: float
    w_x: float
    w_x_L: Optional[float] = None
    annulus_scale: Optional[float] = None
    outer_factor: Optional[float] = None


def w_profile(grid: Grid, energy: float, psi: np.ndarray, x, nu: float,
              annulus_scale: Optional[float] = None,
              outer_factor: Optional[float] = None) -> WProfile:
    """Evaluate W_x (and W_{x,L} when a scale is given) for one eigenpair.

    ``psi`` must be normalized in the h^d-weighted norm.  Acceptance
    criterion 07 checks these values against its own computation.
    """
    x = tuple(np.atleast_1d(np.asarray(x, dtype=float)))
    w_x, w_xl = _w_values(grid, psi, _w_arrays(grid, x, nu, annulus_scale))
    return WProfile(energy, x, nu, w_x, w_xl, annulus_scale, outer_factor)


def _w_arrays(grid: Grid, x: tuple, nu: float, annulus_scale: Optional[float]) -> tuple:
    """The bracket weights, the unit-box mask and (given a scale, else None)
    the annulus mask of the W-functionals at ``x``: they depend on the grid
    and the probe, not on the eigenpair."""
    if nu <= grid.box.dimension / 2.0:
        raise ValidationError(f"need nu > d/2, got nu={nu}")
    shell = None if annulus_scale is None else annulus_shell_mask(grid, x, annulus_scale)
    return bracket_weights(grid, x, nu), unit_box_mask(grid, x), shell


def _w_values(grid: Grid, psi: np.ndarray, arrays: tuple) -> tuple:
    """``(W_x, W_{x,L})`` of one eigenvector from its probe's ``_w_arrays``;
    W_{x,L} is None without an annulus."""
    weights, box, shell = arrays
    denom = grid.norm(psi / weights)
    assert denom > 0.0, "T^{-1} psi cannot vanish for a normalized psi"
    w_xl = None if shell is None else float(grid.norm(psi[shell]) / denom)
    return float(grid.norm(psi[box]) / denom), w_xl


def w_caps(nu: float, annulus_scale: Optional[float] = None) -> tuple:
    """A priori caps, checked by acceptance criterion 07: W_x <= (5/4)^(nu/2);
    W_{x,L} <= 2^(nu/2) L^nu."""
    cap_x = (5.0 / 4.0) ** (nu / 2.0)
    cap_xl = None if annulus_scale is None else 2.0 ** (nu / 2.0) * annulus_scale**nu
    return cap_x, cap_xl


# ---------------------------------------------------------------------------
# main-theorem dichotomy on finite-volume proxies
# ---------------------------------------------------------------------------

@dataclass
class DichotomyRecord:
    energy: float
    w_x: float
    w_x_L: float
    branch_point: bool      # W_x <= exp(-M L^vartheta)
    branch_annulus: bool    # W_{x,L} <= exp(-M L)
    product_ok: bool        # W_x W_{x,L} <= exp(-M L^vartheta / 2)
    outer_factor: float


def dichotomy_check(H: HamiltonianMatrix, x0, L: float, interval: tuple, M: float,
                    vartheta: float, nu: float) -> List[DichotomyRecord]:
    """Check the either/or concentration bound on the eigenfunctions of H.

    H lives on the enlarged outer box ``H.grid.box``, which must hold the
    L_+ box around ``x0``; its eigenfunctions stand in for generalized
    eigenfunctions.  Every eigenpair in the shrunken window
    ``{E : dist(E, R \\ I) > exp(-M L^vartheta)}`` is examined.  An empty
    energy set is a vacuous pass (no records).
    """
    outer_box = H.grid.box
    x0 = tuple(np.atleast_1d(np.asarray(x0, dtype=float)))
    L_plus = 1001.0 * L / 500.0
    for i in range(outer_box.dimension):
        if abs(x0[i] - outer_box.center[i]) + L_plus / 2.0 > outer_box.side / 2.0:
            raise GeometryError("outer box too small to contain the L_+ annulus box")
    margin = math.exp(-M * L ** vartheta)
    lo, hi = interval
    window = (lo + margin, hi - margin)
    if window[1] <= window[0]:
        return []
    result = eigs_window(H, window)
    if not len(result.energies):
        return []
    arrays = _w_arrays(H.grid, x0, nu, L)
    records = []
    factor = outer_box.side / L
    for energy, psi in zip(result.energies, result.vectors.T):
        w_x, w_xl = _w_values(H.grid, psi, arrays)
        b1 = w_x <= math.exp(-M * L ** vartheta)
        b2 = w_xl <= math.exp(-M * L)
        prod = w_x * w_xl <= math.exp(-0.5 * M * L ** vartheta)
        records.append(DichotomyRecord(float(energy), w_x, w_xl, b1, b2, prod, factor))
    return records


def dichotomy_trial(ensemble: Ensemble, outer_box: BoxSpec, x0, L: float, interval: tuple,
                    M: float, vartheta: float, nu: float, trial: int) -> List[DichotomyRecord]:
    """:func:`dichotomy_check` on the outer box of Monte Carlo trial ``trial``."""
    return dichotomy_check(ensemble.hamiltonian(outer_box, trial), x0, L, interval, M,
                           vartheta, nu)


# ---------------------------------------------------------------------------
# localization centers, dynamical moments, Fermi kernels
# ---------------------------------------------------------------------------

@dataclass
class LocalizationCenter:
    center: tuple
    decay_rate: float          # slope of -log|chi_x psi| against |x - center|
    reliable: bool
    tie_centers: list          # all maximizers (lexicographic winner first)


def localization_center(grid: Grid, psi: np.ndarray) -> LocalizationCenter:
    """Lexicographically least integer maximizer of the unit-box mass, with a
    least-squares exponential decay fit around it: the exponential decay of an
    eigenfunction about a centre that Anderson localization asserts."""
    candidates = lattice_sites(grid.box)
    if len(candidates) == 0:
        raise GeometryError("box holds no integer lattice points")
    masses = np.array([grid.norm(psi[unit_box_mask(grid, c.astype(float))])
                       for c in candidates])
    top = masses.max()
    ties = [tuple(int(v) for v in candidates[i])
            for i in np.flatnonzero(masses >= top * (1.0 - 1e-12))]
    ties.sort()
    center = ties[0]
    sel = masses > MASS_FLOOR
    dists = np.max(np.abs(candidates - np.asarray(center)), axis=1)
    sel &= dists > 0
    if sel.sum() >= 2 and np.ptp(np.log(masses[sel])) > 1e-6:
        slope = np.polyfit(dists[sel], np.log(masses[sel]), 1)[0]
        reliable = True
    else:
        slope, reliable = 0.0, False
    return LocalizationCenter(center, float(-slope), reliable, ties)


@dataclass
class DynamicalMoment:
    proxy: float               # time-uniform upper bound
    samples: list              # (t, measured trace norm)
    window_count: int
    empty_window: bool


def dynamical_moment(H: HamiltonianMatrix, interval: tuple, b: float, x0,
                     t_grid: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0),
                     ) -> DynamicalMoment:
    """Per-eigenspace moment proxy and sampled evolved moments.

    The proxy ``sum_{E in window} |W_b P(E) chi_{x0}|_1`` (rank-one trace
    norms with the polynomial weight ``W_b = <X - x0>^(b d)``) dominates
    ``sup_t |W_b exp(-itH) P(I) chi_{x0}|_1`` by the triangle inequality;
    the t-grid samples confirm it.  Each sample's trace norm is taken from a
    k x m core (k window pairs, m mask nodes) after one thin QR of the
    weighted eigenvectors per call, with no n x m block.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = H.grid.box.dimension
    res = eigs_window(H, interval)
    mask = unit_box_mask(H.grid, x0)
    if len(res.energies) == 0 or not mask.any():
        return DynamicalMoment(0.0, [], 0, True)
    weight = bracket_weights(H.grid, x0, b * d)
    w = H.grid.weight()
    vecs = res.vectors  # h-normalized columns
    proxy = 0.0
    for i in range(len(res.energies)):
        psi = vecs[:, i]
        proxy += (w * np.linalg.norm(weight * psi)) * np.linalg.norm(psi[mask])
    # W_b e^{-itH} P(I) chi_{x0} on the mask columns is left @ (phases * right);
    # with left = Q R (thin QR, Q orthonormal columns) its singular values are
    # those of the k x m core R @ (phases * right)
    core = np.linalg.qr(weight[:, None] * vecs, mode="r")
    right = w * vecs[np.flatnonzero(mask), :].T
    samples = []
    for t in t_grid:
        phases = np.exp(-1j * t * res.energies)
        tn = float(np.sum(la.svdvals(core @ (phases[:, None] * right))))
        samples.append((float(t), tn))
    return DynamicalMoment(float(proxy), samples, len(res.energies), False)


def dynamical_trial(ensemble: Ensemble, box: BoxSpec, interval: tuple, b: float, x0,
                    t_grid: Sequence[float], trial: int) -> DynamicalMoment:
    """:func:`dynamical_moment` of Monte Carlo trial ``trial``'s Hamiltonian."""
    return dynamical_moment(ensemble.hamiltonian(box, trial), interval, b, x0, t_grid)


@dataclass
class FermiDecayRow:
    target: tuple
    distance: float
    trace_norm: float


@dataclass
class FermiDecayTable:
    energy: float
    x0: tuple
    rows: List[FermiDecayRow]
    stretched_rate: float      # slope of -log norm against distance^vartheta
    vartheta: float


def fermi_kernel_decay(H: HamiltonianMatrix, energy: float, x0,
                       vartheta: float = 0.5,
                       targets: Optional[np.ndarray] = None) -> FermiDecayTable:
    """Trace norms ``|chi_y P^(E) chi_{x0}|_1`` over unit target boxes.

    ``P^(E)`` is the Fermi projection onto energies at most E; the fitted
    rate is against ``|x0 - y|^vartheta`` (stretched exponential), the decay
    of Fermi projections that the localization theorem asserts.
    """
    x0 = tuple(np.atleast_1d(np.asarray(x0, dtype=float)))
    lo = -H.norm_bound() - 1.0
    res = eigs_window(H, (lo, energy))
    if targets is None:
        targets = lattice_sites(H.grid.box).astype(float)
    mask0 = unit_box_mask(H.grid, x0)
    w = H.grid.weight()
    rows = []
    cols = np.flatnonzero(mask0)
    for y in np.atleast_2d(targets):
        ymask = unit_box_mask(H.grid, y)
        if len(res.energies) == 0 or not mask0.any() or not ymask.any():
            rows.append(FermiDecayRow(tuple(y), float(np.max(np.abs(np.asarray(x0) - y))), 0.0))
            continue
        block = (res.vectors[np.flatnonzero(ymask), :]) @ (w * res.vectors[cols, :].T)
        tn = float(np.sum(la.svdvals(block)))
        rows.append(FermiDecayRow(tuple(y), float(np.max(np.abs(np.asarray(x0) - y))), tn))
    pts = [(r.distance, r.trace_norm) for r in rows
           if r.trace_norm > MASS_FLOOR and r.distance > 0]
    if len(pts) >= 2:
        xs = np.array([p[0] ** vartheta for p in pts])
        ys = np.array([math.log(p[1]) for p in pts])
        rate = float(-np.polyfit(xs, ys, 1)[0])
    else:
        rate = 0.0
    return FermiDecayTable(float(energy), x0, rows, rate, vartheta)
