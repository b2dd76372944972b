"""Uniform grids and sparse finite-volume Hamiltonians.

The continuum operator ``-Lap + V_per + sum_zeta omega_zeta u(.-zeta)``
is discretized on a uniform tensor grid over an open box with the standard
second-order ``2d+1``-point stencil.  Dirichlet keeps the interior nodes
only; periodic identifies opposite faces.  A non-periodic background goes in
through the ``v_per`` field on a Dirichlet box, where no period is checked.
Norms and inner products carry the ``h^d`` weight so constants are comparable
across meshes.

Potentials are sampled pointwise at grid nodes (no cell averaging); the
inequalities checked downstream are sandwich-stable under pointwise sampling.

The proof's cubes are open sup-norm cubes: the single-site supports of side
delta_plus, the unit boxes chi_x of resolvent probes and goodness pairs.
``Grid.cube_nodes`` selects the nodes of every such cube, for any number of
centres at once, and ``BoxSpec.holds_cube`` says whether a box holds one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import GridError, ValidationError
from .model import (AnnulusSpec, BoxSpec, Configuration, SingleSiteDistribution, SiteProfile,
                    lattice_sites, sample_configuration)

_FIT_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Mesh with ``points_per_unit`` nodes per lattice unit (h = 1/n)."""

    points_per_unit: int
    boundary: str = "dirichlet"

    def __post_init__(self):
        if int(self.points_per_unit) != self.points_per_unit or self.points_per_unit < 2:
            raise ValidationError("points_per_unit must be an integer >= 2")
        if self.boundary not in ("dirichlet", "periodic"):
            raise ValidationError(f"unknown boundary condition {self.boundary!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.points_per_unit


@dataclass(frozen=True)
class PeriodicField:
    """Scalar field with declared period (checked against periodic boxes)."""

    fn: Callable
    period: int = 1

    def __call__(self, points):
        return np.asarray(self.fn(points), dtype=float)


class Grid:
    """Node geometry of a box under a :class:`GridSpec`."""

    def __init__(self, box: BoxSpec, spec: GridSpec):
        self.box = box
        self.spec = spec
        n = spec.points_per_unit
        per_axis = box.side * n
        if abs(per_axis - round(per_axis)) > _FIT_TOL:
            raise GridError(f"box side {box.side} not an integer number of cells at h=1/{n}")
        cells = int(round(per_axis))
        if cells < 2:
            raise GridError("box too small for the mesh")
        h = spec.h
        axes = []
        for c in box.center:
            lo = c - box.side / 2.0
            if spec.boundary == "dirichlet":
                idx = np.arange(1, cells)
            else:
                idx = np.arange(0, cells)
            axes.append(lo + idx * h)
        self.axes = tuple(axes)
        self.h = h
        self.cells = cells
        self.shape = tuple(len(a) for a in axes)
        self.size = int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """All node coordinates, shape (size, d), C-order raveling."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def weight(self) -> float:
        """Quadrature weight of one node in the h^d-weighted inner product."""
        return self.h ** self.box.dimension

    def norm(self, vec: np.ndarray) -> float:
        """h^d-weighted L2 norm."""
        return float(np.sqrt(self.weight()) * np.linalg.norm(vec))

    def cube_nodes(self, centers, side: float) -> tuple:
        """The nodes of the open cube of side ``side`` around each of ``centers``:
        ``(flat, counts)``, the flat indices of each centre's nodes in ascending
        order, centre after centre, and how many nodes each centre holds.

        A node is held when ``BoxSpec(d, centre, side).contains`` holds it; no
        cube wraps around a periodic box, and no centres give no nodes."""
        d = self.box.dimension
        centers = np.reshape(np.asarray(centers, dtype=float), (-1, d))
        half = side / 2.0
        first = np.empty((d, len(centers)), dtype=np.intp)
        ext = np.empty((d, len(centers)), dtype=np.intp)
        for a, axis in enumerate(self.axes):
            # a window from the node below the rounded lower face to past the
            # upper one; the held nodes are a run in it, decided by the test
            # that contains applies, so a face on a node rounds the same way
            start = np.searchsorted(axis, centers[:, a] - half) - 1
            idx = start[:, None] + np.arange(int(side / self.h) + 3)
            held = (np.abs(axis.take(idx, mode="clip") - centers[:, a, None]) < half) \
                & (idx >= 0) & (idx < len(axis))
            first[a] = start + held.argmax(axis=1)
            ext[a] = held.sum(axis=1)
        counts = np.prod(ext, axis=0)
        owner = np.repeat(np.arange(len(centers)), counts)
        # C-order rank of each node inside its cube, unravelled per axis
        rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        nodes = np.empty((d, owner.size), dtype=np.intp)
        for a in reversed(range(d)):
            rank, nodes[a] = np.divmod(rank, ext[a][owner])
            nodes[a] += first[a][owner]
        return np.ravel_multi_index(tuple(nodes), self.shape), counts


def unit_box_mask(grid: Grid, x) -> np.ndarray:
    """Mask of the unit box centered at ``x`` (the chi_x of resolvent probes)."""
    mask = np.zeros(grid.size, dtype=bool)
    mask[grid.cube_nodes(np.atleast_1d(x), 1.0)[0]] = True
    return mask


def annulus_shell_mask(grid: Grid, x, L: float) -> np.ndarray:
    """Mask of the slightly enlarged annulus of sides (L-1, 2L+1) around x."""
    return AnnulusSpec(grid.box.dimension, tuple(np.atleast_1d(x)),
                       L - 1.0, 2.0 * L + 1.0).contains(grid.points())


def _laplacian_1d(m: int, h: float, periodic: bool) -> sp.csr_matrix:
    off = np.full(m - 1, -1.0 / h**2)
    T = sp.diags([off, np.full(m, 2.0 / h**2), off], [-1, 0, 1], format="csr")
    if periodic:
        # added, not set: a 2-node ring couples its two nodes twice
        T = T + sp.csr_matrix((np.full(2, -1.0 / h**2), ([0, m - 1], [m - 1, 0])),
                              shape=(m, m))
    return T


@functools.lru_cache(maxsize=16)
def _laplacian(shape: tuple, h: float, periodic: bool) -> sp.csr_matrix:
    """The grid Laplacian, built once per (shape, h, boundary).  Every caller
    shares the cached matrix, so its arrays are read-only."""
    lap = None
    for a, m in enumerate(shape):
        left = int(np.prod(shape[:a], dtype=int))
        right = int(np.prod(shape[a + 1:], dtype=int))
        term = sp.kron(sp.identity(left, format="csr"),
                       sp.kron(_laplacian_1d(m, h, periodic),
                               sp.identity(right, format="csr"), format="csr"),
                       format="csr")
        lap = term if lap is None else lap + term
    for arr in (lap.data, lap.indices, lap.indptr):
        arr.flags.writeable = False
    return lap


def bloch_blocks(cell: HamiltonianMatrix, periods: int):
    """Floquet-Bloch blocks of a periodic box of ``periods``^d copies of ``cell``.

    ``cell`` is the periodic operator on one period q.  The box operator
    commutes with translation by q, so it is the direct sum over
    k in {0, ..., periods - 1}^d of the cell operator on functions with
    psi(x + q e_a) = e^{i theta_a} psi(x), theta_a = 2 pi k_a / periods:
    each axis's wrap-around coupling from its last node to its first carries
    the phase e^{i theta_a}, and the reverse coupling its conjugate.
    Yields the dense Hermitian blocks as stacks of shape ``(periods, n, n)``,
    one per (k_1, ..., k_{d-1}) in C order, over k_d = 0, ..., periods - 1:
    one stack in 1-d.  Block k = 0 is the cell's matrix, bit for bit.
    """
    phases = np.exp(2j * np.pi * np.arange(periods) / periods)[:, None, None]
    nodes = np.arange(cell.size).reshape(cell.grid.shape)
    forward = []   # each axis's coupling from its last node layer to its first
    for a in range(nodes.ndim):
        F = np.zeros((cell.size, cell.size))
        F[np.take(nodes, -1, a).ravel(), np.take(nodes, 0, a).ravel()] = -1.0 / cell.grid.h**2
        forward.append(F)
    base = cell.matrix.toarray() - sum(F + F.T for F in forward)
    *outer, last = forward
    for k in np.ndindex(*([periods] * len(outer))):
        block = base + sum(phases[ka] * F + np.conj(phases[ka]) * F.T for F, ka in zip(outer, k))
        yield block + phases * last + np.conj(phases) * last.T


class HamiltonianMatrix:
    """Sparse symmetric finite-volume Hamiltonian with its grid geometry."""

    def __init__(self, matrix: sp.csr_matrix, grid: Grid, potential: np.ndarray):
        self.matrix = matrix
        self.grid = grid
        self.potential = potential
        self.size = matrix.shape[0]

    @property
    def boundary(self) -> str:
        return self.grid.spec.boundary

    def norm_bound(self) -> float:
        """Cheap upper bound on the operator norm (row-sum bound)."""
        return float(abs(self.matrix).sum(axis=1).max())

    def shifted(self, c: float) -> "HamiltonianMatrix":
        return HamiltonianMatrix(
            (self.matrix + c * sp.identity(self.size, format="csr")).tocsr(),
            self.grid, self.potential + c)


def _site_potential(grid: Grid, profile: SiteProfile, sites: np.ndarray,
                    couplings: np.ndarray) -> np.ndarray:
    """Sum of coupling * u(. - site) sampled on the grid, shape grid.shape.

    Supports are open boxes of side delta_plus, so a node on the edge is
    outside.  ``Grid.cube_nodes`` expands them to node indices in site order,
    summed by one ``bincount``, which adds in input order: where supports
    overlap the sum is the one a loop over sites would give, bit for bit."""
    couplings = np.asarray(couplings, dtype=float)
    live = couplings != 0.0
    sites, couplings = np.reshape(sites, (-1, grid.box.dimension))[live], couplings[live]
    flat, counts = grid.cube_nodes(sites, profile.delta_plus)
    if profile.shape is None:
        weights = np.repeat(couplings * profile.u_plus, counts)
    elif flat.size:
        owner = np.repeat(np.arange(len(couplings)), counts)
        nodes = np.unravel_index(flat, grid.shape)
        offsets = np.stack([axis[nodes[a]] - sites[owner, a]
                            for a, axis in enumerate(grid.axes)], axis=1)
        weights = couplings[owner] * profile.evaluate(offsets)
    else:
        weights = np.zeros(0)
    return np.bincount(flat, weights=weights, minlength=grid.size).reshape(grid.shape)


def assemble_hamiltonian(
    box: BoxSpec,
    grid_spec: GridSpec,
    profile: SiteProfile,
    config: Configuration,
    v_per: Optional[PeriodicField] = None,
) -> HamiltonianMatrix:
    """Assemble ``-Lap + V_per + sum_zeta omega_zeta u(.-zeta)`` on the grid over ``box``.

    Parameters
    ----------
    box, grid_spec : geometry and mesh; the configuration region must be
        contained in ``box``.
    profile : single-site bump shape shared by all sites.
    config : coupling realization; its free sites carry their assigned t_S.
    v_per : optional background field added onto the diagonal.  On a periodic
        box its period must divide the side; on a Dirichlet box any field,
        periodic or not, may be passed.
    """
    region = config.region
    if not box.holds_cube(region.center, region.side):
        raise ValidationError("configuration region is not contained in the box")

    if grid_spec.boundary == "periodic" and v_per is not None:
        ratio = box.side / v_per.period
        if abs(ratio - round(ratio)) > _FIT_TOL:
            raise GridError(
                f"periodic box side {box.side} is not a multiple of the potential period "
                f"{v_per.period}")

    grid = Grid(box, grid_spec)

    potential = np.zeros(grid.shape, dtype=float)
    if v_per is not None:
        potential += np.asarray(v_per(grid.points()), dtype=float).reshape(grid.shape)

    potential += _site_potential(grid, profile, config.sites, config.couplings())

    # lap + diag(potential), exactly symmetric: the potential added onto the
    # stored diagonal, whose exact zeros are dropped as the sparse sum drops them
    lap = _laplacian(grid.shape, grid.h, grid_spec.boundary == "periodic")
    H = sp.csr_matrix((lap.data.copy(), lap.indices.copy(), lap.indptr.copy()), lap.shape)
    H.data[H.indices == np.repeat(np.arange(grid.size), np.diff(H.indptr))] += potential.ravel()
    H.eliminate_zeros()
    return HamiltonianMatrix(H, grid, potential.ravel())


@dataclass(frozen=True)
class Ensemble:
    """The random operator ``-Lap + V_per + sum_zeta omega_zeta u(.-zeta)``: the law
    of omega, the mesh, u, the field V_per and the root seed that keys its trials."""

    distribution: SingleSiteDistribution
    grid: GridSpec
    profile: SiteProfile
    v_per: Optional[PeriodicField] = None
    root_seed: int = 0

    def configuration(self, box: BoxSpec, trial: int) -> Configuration:
        """The couplings on ``box`` sampled in trial ``trial``."""
        return sample_configuration(self.distribution, box, None, self.root_seed, trial)

    def assemble(self, config: Configuration) -> HamiltonianMatrix:
        """The Hamiltonian of the couplings ``config`` on their own box."""
        return assemble_hamiltonian(config.region, self.grid, self.profile, config, self.v_per)

    def hamiltonian(self, box: BoxSpec, trial: int) -> HamiltonianMatrix:
        """The Hamiltonian on ``box`` of trial ``trial``: its couplings, assembled."""
        return self.assemble(self.configuration(box, trial))


def empty_configuration(box: BoxSpec) -> Configuration:
    """All-zero couplings on the box (the free operator's configuration)."""
    return Configuration(box, np.zeros(len(lattice_sites(box))))


def cosine_potential(amplitude: float, period: int, offset: float, shift: float, points):
    """``offset + amplitude * sum_a cos(2 pi x_a / period) - shift`` per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return offset + amplitude * np.sum(np.cos(2.0 * np.pi * points / period), axis=1) - shift


def periodic_ground_energy(field: PeriodicField, dimension: int,
                           points_per_unit: int = 8) -> float:
    """inf spec(-Lap + V_per) on the grid: the lowest eigenvalue on one period.

    The periodic operator's ground state is positive and simple
    (Perron-Frobenius), hence invariant under translation by a period, so it
    lies in the k = 0 Floquet-Bloch block of every periodic box: the
    one-period cell, whose lowest eigenvalue is exactly that of any
    multi-period supercell on the same nodes.
    """
    from .spectral import lowest_eigenvalue

    side = float(field.period)
    # corner on q Z^d: V_per is sampled where an origin-centred box of an
    # even number of periods samples it
    box = BoxSpec(dimension, tuple([side / 2.0] * dimension), side)
    H = assemble_hamiltonian(box, GridSpec(points_per_unit, "periodic"),
                             SiteProfile(), empty_configuration(box), field)
    return lowest_eigenvalue(H)
