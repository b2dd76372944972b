"""Integrated density of states: Monte Carlo estimation and modulus fits.

The finite-volume estimator is the disorder average of the normalized
eigenvalue counting function,

    N(E) ~ mean_omega  #{eigenvalues of H_{omega, Lambda_L} <= E} / L^d.

The log-Holder modulus fit regresses ``log dN`` against ``log |log dE|``
over adjacent grid pairs; the slope plays the role of ``-p d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
import scipy.linalg as la

from .discretize import GridSpec, PeriodicField, assemble_hamiltonian
from .errors import ValidationError
from .model import BoxSpec, SingleSiteDistribution, SiteProfile, sample_configuration
from .spectral import is_tridiagonal


@dataclass
class IdsCurve:
    energies: np.ndarray
    values: np.ndarray          # nondecreasing after the isotonic pass
    stderr: np.ndarray
    n_samples: int
    volume: float
    isotonic_corrected: bool


def full_spectrum(H) -> np.ndarray:
    """All eigenvalues in ascending order, with a tridiagonal fast path for
    1-d Dirichlet."""
    if is_tridiagonal(H):
        return la.eigvalsh_tridiagonal(H.matrix.diagonal(), H.matrix.diagonal(1))
    return la.eigvalsh(H.matrix.toarray())


def ids_curve(energy_grid, counts, volume: float) -> IdsCurve:
    """IDS curve from per-trial eigenvalue counts (one row per trial).

    The volume-normalized mean count is made nondecreasing by a running
    maximum; standard errors come from the unbiased sample deviation.
    """
    counts = np.asarray(counts, dtype=float)
    n_samples = len(counts)
    values = counts.mean(axis=0) / volume
    stderr = counts.std(axis=0, ddof=1) / math.sqrt(n_samples) / volume \
        if n_samples > 1 else np.zeros_like(values)
    monotone = np.maximum.accumulate(values)
    corrected = bool(np.any(monotone != values))
    return IdsCurve(np.asarray(energy_grid, dtype=float), monotone, stderr, n_samples,
                    volume, corrected)


def ids_counts(dist: SingleSiteDistribution, box: BoxSpec, grid_spec: GridSpec,
               profile: SiteProfile, energy_grid: np.ndarray, root_seed: int,
               v_per: Optional[PeriodicField], trial: int) -> np.ndarray:
    """#{eigenvalues <= E} at each grid energy in Monte Carlo trial ``trial``."""
    config = sample_configuration(dist, box, None, root_seed, trial)
    H = assemble_hamiltonian(box, grid_spec, profile, config, v_per)
    return np.searchsorted(full_spectrum(H), energy_grid, side="right")


def ids_estimate(
    dist: SingleSiteDistribution,
    box: BoxSpec,
    grid_spec: GridSpec,
    profile: SiteProfile,
    energy_grid: np.ndarray,
    n_samples: int,
    root_seed: int,
    v_per: Optional[PeriodicField] = None,
) -> IdsCurve:
    """Monte Carlo IDS curve on an energy grid (volume-normalized counts)."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    energy_grid = np.asarray(energy_grid, dtype=float)
    if not np.all(np.isfinite(energy_grid)):
        raise ValidationError("energy grid must be bounded")
    trial = partial(ids_counts, dist, box, grid_spec, profile, energy_grid, root_seed, v_per)
    return ids_curve(energy_grid, [trial(t) for t in range(n_samples)], box.side ** box.dimension)


@dataclass
class LogHolderFit:
    constant: float     # prefactor C in dN <= C / |log dE|^(slope magnitude)
    slope: float        # slope of log dN against log |log dE| (about -p d)
    n_pairs: int


def log_holder_modulus(curve: IdsCurve) -> LogHolderFit:
    """Fit the log-Holder modulus over adjacent energy-grid pairs."""
    xs, ys = [], []
    for i in range(len(curve.energies) - 1):
        dE = curve.energies[i + 1] - curve.energies[i]
        dN = curve.values[i + 1] - curve.values[i]
        if dE <= 0.0 or dN <= 0.0 or dE >= 1.0:
            continue
        xs.append(math.log(abs(math.log(dE))))
        ys.append(math.log(dN))
    if len(xs) < 2:
        raise ValidationError("not enough increasing pairs for a modulus fit")
    xs, ys = np.asarray(xs), np.asarray(ys)
    if np.ptp(xs) < 1e-9:
        raise ValidationError(
            "modulus fit needs varying grid spacing (a uniform grid gives a "
            "single abscissa); use a geometric energy grid")
    slope, intercept = np.polyfit(xs, ys, 1)
    return LogHolderFit(float(math.exp(intercept)), float(slope), len(xs))


def free_ids_weyl(energy: float, d: int) -> float:
    """Weyl law for the free Laplacian: N(E) = (E^(1/2)/pi)^d volume factor.

    In one dimension this is sqrt(E)/pi; used as the sanity oracle.
    """
    if d == 1:
        return math.sqrt(max(energy, 0.0)) / math.pi
    # volume of the ball of radius sqrt(E) in momentum space over (2 pi)^d
    from scipy.special import gamma as gamma_fn

    radius = math.sqrt(max(energy, 0.0))
    ball = math.pi ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0) * radius**d
    return ball / (2.0 * math.pi) ** d
