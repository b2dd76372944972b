"""Quasi-analytic extensions and functional-calculus reconstruction.

For smooth ``g`` the order-``n`` extension with scale parameter ``a`` is

    gext(u + iv) = [sum_{r<=n} g^(r)(u) (iv)^r / r!] * xi(a v / <u>),

with ``xi`` a fixed smooth bump (1 on [-1,1], 0 outside [-2,2]) and
``<u> = (1+u^2)^(1/2)``.  The scale ``a`` squeezes the support strip to
``|v| <= 2 <u> / a``.  ``g(K)`` is recovered as the absolutely convergent
integral of ``(2 pi)^{-1} dbar(gext)(z) (K - z)^{-1}`` over the strip, which
the reconstruction below approximates with tensor Gauss-Legendre panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import ValidationError


# ---------------------------------------------------------------------------
# fixed cutoff bump xi
# ---------------------------------------------------------------------------

def _glue(x):
    """``f(x) = exp(-1/x)`` for x > 0, else 0, and ``f'(x) = f(x) / x^2``
    (f underflows to 0 below x = 1e-3, so that floor keeps 1/x finite)."""
    f = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    return f, f / np.maximum(x, 1e-3) / np.maximum(x, 1e-3)


def _smoothstep(x):
    """C^inf transition S = f(x) / (f(x) + f(1-x)): 0 for x<=0, 1 for x>=1,
    and its derivative S' = (f'(x) f(1-x) + f(x) f'(1-x)) / (f(x) + f(1-x))^2."""
    x = np.asarray(x, dtype=float)
    (fx, dfx), (f1, df1) = _glue(x), _glue(1.0 - x)
    return fx / (fx + f1), (dfx * f1 + fx * df1) / (fx + f1) ** 2


def xi_cutoff(s):
    """Smooth even bump: 1 on [-1,1], 0 outside [-2,2]."""
    return 1.0 - _smoothstep(np.abs(np.asarray(s, dtype=float)) - 1.0)[0]


def xi_cutoff_prime(s):
    """Derivative of the bump, from the smoothstep's analytic derivative."""
    return -np.sign(s) * _smoothstep(np.abs(s) - 1.0)[1]


# ---------------------------------------------------------------------------
# base functions with derivative oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """g(u) = exp(-(u-center)^2 / (2 width^2)) with exact derivatives."""

    center: float = 0.0
    width: float = 1.0

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(-((u - self.center) ** 2) / (2.0 * self.width**2))

    def derivative(self, order: int, u):
        """d^order/du^order of g via the Hermite recurrence."""
        u = np.asarray(u, dtype=float)
        if order == 0:
            return self(u)
        t = (u - self.center) / (self.width * np.sqrt(2.0))
        h_prev = np.ones_like(t)   # H_0
        h = 2.0 * t                # H_1
        for k in range(2, order + 1):
            h_prev, h = h, 2.0 * t * h - 2.0 * (k - 1) * h_prev
        scale = (-1.0 / (self.width * np.sqrt(2.0))) ** order
        return scale * h * self(u)

    def support_halfwidth(self) -> float:
        """Half-width beyond which the Gaussian is below 1e-16 of its peak, plus one."""
        return self.width * np.sqrt(-2.0 * np.log(1e-16)) + 1.0


@dataclass(frozen=True)
class QuasiAnalyticExtension:
    """Order-n extension of g with strip-scale a > 0."""

    g: GaussianBump
    order: int
    scale: float

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError("extension order must be >= 1")
        if self.scale <= 0.0:
            raise ValidationError("scale a must be positive")

    def support_vmax(self, u):
        """Half-height of the support strip at abscissa u: 2 <u> / a."""
        u = np.asarray(u, dtype=float)
        return 2.0 * np.sqrt(1.0 + u**2) / self.scale

    def _taylor(self, u, v):
        """sum_{r <= order} g^(r)(u) (iv)^r / r!"""
        taylor = np.zeros(np.broadcast(u, v).shape, dtype=complex)
        iv = 1j * v
        term = np.ones_like(taylor)
        for r in range(self.order + 1):
            if r > 0:
                term = term * iv
            taylor = taylor + self.g.derivative(r, u) * term / math.factorial(r)
        return taylor

    def value(self, u, v):
        """gext(u+iv); equals g(u) on the real axis."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return self._taylor(u, v) * xi_cutoff(self.scale * v / np.sqrt(1.0 + u**2))

    def dbar(self, u, v):
        """(d/du + i d/dv) gext at u+iv (the HS surface density up to 1/2pi)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        bra = np.sqrt(1.0 + u**2)
        s = self.scale * v / bra
        # the Taylor part telescopes: only the top derivative survives
        top = self.g.derivative(self.order + 1, u) * ((1j * v) ** self.order) \
            / math.factorial(self.order)
        # dbar of the cutoff argument: (d/du + i d/dv)(a v / <u>)
        darg = -self.scale * v * u / bra**3 + 1j * self.scale / bra
        return top * xi_cutoff(s) + self._taylor(u, v) * xi_cutoff_prime(s) * darg


def hnorm(g: GaussianBump, n: int, s: float = 0.0, a: float = 1.0,
          quad_points: int = 400) -> float:
    """Weighted derivative norm sum_{r<=n+1} a^{-(r-s-1)} int <u>^{r-s-1} |g^(r)|,
    which bounds the Helffer-Sjostrand moment behind acceptance criterion 10."""
    half = g.support_halfwidth()
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    u = g.center + half * nodes
    w = half * weights
    bra = np.sqrt(1.0 + u**2)
    total = 0.0
    for r in range(n + 2):
        integrand = bra ** (r - s - 1.0) * np.abs(g.derivative(r, u))
        total += a ** (-(r - s - 1.0)) * float(w @ integrand)
    return total


# ---------------------------------------------------------------------------
# quadrature over the support strip
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor Gauss-Legendre resolution: u nodes total, v nodes per panel.

    The v integration at each u splits into the panels
    ``[-2,-1],[-1,0],[0,1],[1,2]`` in units of ``<u>/a`` so the cutoff
    transition and the real-axis pinch each get their own panels.
    """

    n_u: int = 32
    n_v: int = 8


def _strip_nodes(ext: QuasiAnalyticExtension, quad: QuadratureSpec):
    half = ext.g.support_halfwidth()
    gu, gw = np.polynomial.legendre.leggauss(quad.n_u)
    u_nodes = ext.g.center + half * gu
    u_weights = half * gw
    gv, gvw = np.polynomial.legendre.leggauss(quad.n_v)
    panels = [(-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)]
    for u, wu in zip(u_nodes, u_weights):
        vmax = float(ext.support_vmax(u)) / 2.0  # <u>/a
        for lo, hi in panels:
            mid, rad = 0.5 * (lo + hi) * vmax, 0.5 * (hi - lo) * vmax
            for x, wv in zip(gv, gvw):
                yield u, mid + rad * x, wu * rad * wv


def hs_reconstruct(ext: QuasiAnalyticExtension, K: np.ndarray,
                   quad: QuadratureSpec = QuadratureSpec()):
    """Approximate g(K) by quadrature of the extension integral.

    Returns ``(approx, error)`` where ``error`` is the operator-norm distance
    to the exact ``g(K)`` from a dense eigendecomposition.  Acceptance
    criterion 10 checks that this error falls under quadrature refinement.
    """
    K = np.asarray(K, dtype=float)
    if K.shape[0] != K.shape[1] or not np.allclose(K, K.T, atol=1e-12):
        raise ValidationError("K must be a small symmetric matrix")
    m = K.shape[0]
    acc = np.zeros((m, m), dtype=complex)
    eye = np.eye(m)
    for u, v, w in _strip_nodes(ext, quad):
        dens = complex(ext.dbar(u, v))
        if dens == 0.0:
            continue
        resolvent = la.solve(K - (u + 1j * v) * eye, eye)
        acc += w * dens * resolvent
    approx = (acc / (2.0 * np.pi)).real
    vals, vecs = la.eigh(K)
    exact = (vecs * ext.g(vals)) @ vecs.T
    return approx, float(la.norm(approx - exact, 2))


def hs_moment(ext: QuasiAnalyticExtension, s: float,
              quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Quadrature of ``(2 pi)^{-1} |dbar gext(z)| |Im z|^{-(s+1)}``, the
    Helffer-Sjostrand moment behind acceptance criterion 10."""
    total = 0.0
    for u, v, w in _strip_nodes(ext, quad):
        if v == 0.0:
            continue
        total += w * abs(complex(ext.dbar(u, v))) * abs(v) ** (-(s + 1.0))
    return total / (2.0 * np.pi)
