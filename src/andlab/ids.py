"""Integrated density of states: Monte Carlo estimation and modulus fits.

The finite-volume estimator is the disorder average of the normalized
eigenvalue counting function,

    N(E) ~ mean_omega  #{eigenvalues of H_{omega, Lambda_L} <= E} / L^d,

reported as measured at each energy of a strictly increasing grid
(``checked_energy_grid``), where every trial's count, and so their mean, is
nondecreasing.  The spectra come from ``spectral.full_spectrum``.

The log-Holder modulus fit regresses ``log dN`` against ``log |log dE|``
over adjacent grid pairs; the slope plays the role of ``-p d``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .discretize import Ensemble
from .errors import ValidationError
from .model import BoxSpec
from .spectral import full_spectrum


@dataclass
class IdsCurve:
    energies: np.ndarray
    values: np.ndarray          # mean count per unit volume at each energy
    stderr: np.ndarray
    n_samples: int
    volume: float


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"energy_grid holds {value!r}, which is not a number")
    return float(value)


def checked_energy_grid(spec) -> np.ndarray:
    """The energies of an energy grid: a list of energies, or ``{start, stop,
    num}`` for ``num`` evenly spaced energies from ``start`` to ``stop``.

    The grid must be non-empty, finite and strictly increasing, and ``num``
    an integer >= 1; bools are refused.
    """
    if isinstance(spec, dict):
        if set(spec) != {"start", "stop", "num"}:
            raise ValidationError(f"energy_grid object needs exactly the keys start, "
                                  f"stop and num, got {sorted(spec)}")
        num = spec["num"]
        if isinstance(num, bool) or not isinstance(num, numbers.Integral) or num < 1:
            raise ValidationError(f"energy_grid num must be an integer >= 1, got {num!r}")
        start, stop = _number(spec["start"]), _number(spec["stop"])
        if not math.isfinite(stop - start):   # linspace would overflow
            raise ValidationError(f"energy_grid stop - start must be finite: {start!r} to {stop!r}")
        energies = np.linspace(start, stop, int(num))
    elif isinstance(spec, (list, tuple, np.ndarray)):
        energies = np.array([_number(v) for v in spec], dtype=float)
    else:
        raise ValidationError(f"energy_grid must be a list or an object, got {spec!r}")
    if energies.size == 0 or not np.all(np.isfinite(energies)) \
            or np.any(energies[1:] <= energies[:-1]):
        raise ValidationError(f"energy_grid must be non-empty, finite and strictly "
                              f"increasing, got {energies.tolist()}")
    return energies


def ids_curve(energy_grid, counts, volume: float) -> IdsCurve:
    """IDS curve from per-trial eigenvalue counts (one row per trial): the
    volume-normalized mean count, with standard errors from the unbiased
    sample deviation."""
    counts = np.asarray(counts, dtype=float)
    n_samples = len(counts)
    if n_samples == 0:
        raise ValidationError("need at least one trial")
    values = counts.mean(axis=0) / volume
    stderr = counts.std(axis=0, ddof=1) / math.sqrt(n_samples) / volume \
        if n_samples > 1 else np.zeros_like(values)
    return IdsCurve(np.asarray(energy_grid, dtype=float), values, stderr, n_samples, volume)


def ids_counts(ensemble: Ensemble, box: BoxSpec, energy_grid: np.ndarray,
               trial: int) -> np.ndarray:
    """#{eigenvalues <= E} at each grid energy in Monte Carlo trial ``trial``."""
    H = ensemble.hamiltonian(box, trial)
    return np.searchsorted(full_spectrum(H), energy_grid, side="right")


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

    In one dimension this is sqrt(E)/pi; it is the oracle of acceptance
    criterion 11 (IDS sanity).
    """
    if d == 1:
        return math.sqrt(max(energy, 0.0)) / math.pi
    # volume of the ball of radius sqrt(E) in momentum space over (2 pi)^d
    from scipy.special import gamma as gamma_fn

    radius = math.sqrt(max(energy, 0.0))
    ball = math.pi ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0) * radius**d
    return ball / (2.0 * math.pi) ** d
