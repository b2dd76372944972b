"""Site percolation on the covering-center lattice; bad-cluster extraction.

Vertices are the points ``x0 + alpha*ell*k`` for integer vectors ``k`` inside
a finite window; two vertices are adjacent when their sup-distance is exactly
``alpha*ell`` (each interior vertex therefore has ``3^d - 1`` neighbors).
The inner seed vertices model the covering centers of the enlarged core box,
which count as bad with probability one; the bad cluster is the union of
connected components of the bad subgraph meeting the seed set.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Set, Tuple

from .errors import ValidationError

Vertex = Tuple[int, ...]


@dataclass
class PercolationGraph:
    """Finite window of the alpha*ell lattice with good/bad labels."""

    dimension: int
    origin: tuple
    spacing: float                 # alpha * ell
    window_steps: int              # vertices: |k|_inf <= window_steps
    seed_steps: int                # seeds:    |k|_inf <= seed_steps
    labels: Dict[Vertex, bool] = field(default_factory=dict)  # True means bad

    def __post_init__(self):
        if self.seed_steps > self.window_steps:
            raise ValidationError("seed set must fit inside the window")

    def vertices(self) -> Iterable[Vertex]:
        """Every window vertex: the oracle's domain in acceptance criterion 09."""
        r = range(-self.window_steps, self.window_steps + 1)
        return itertools.product(r, repeat=self.dimension)

    def seeds(self) -> Iterable[Vertex]:
        r = range(-self.seed_steps, self.seed_steps + 1)
        return itertools.product(r, repeat=self.dimension)

    def in_window(self, k: Vertex) -> bool:
        return max(abs(c) for c in k) <= self.window_steps

    def is_seed(self, k: Vertex) -> bool:
        return max(abs(c) for c in k) <= self.seed_steps

    def is_bad(self, k: Vertex) -> bool:
        """Seeds are bad with probability one; others default to good."""
        return self.is_seed(k) or self.labels.get(k, False)

    def neighbors(self, k: Vertex) -> Iterable[Vertex]:
        # sup-distance exactly one lattice step: all nonzero {-1,0,1} offsets
        for off in itertools.product((-1, 0, 1), repeat=self.dimension):
            if all(o == 0 for o in off):
                continue
            nb = tuple(k[i] + off[i] for i in range(self.dimension))
            if self.in_window(nb):
                yield nb


def bad_cluster(graph: PercolationGraph) -> Set[Vertex]:
    """Connected bad component(s) containing the seed set (BFS).

    Seeds count as bad regardless of labels; with all labels good the result
    is exactly the seed set.  Acceptance criterion 09 checks it against a
    union-find oracle.
    """
    cluster: Set[Vertex] = set()
    queue = deque()
    for s in graph.seeds():
        cluster.add(s)
        queue.append(s)
    while queue:
        k = queue.popleft()
        for nb in graph.neighbors(k):
            if nb in cluster or not graph.is_bad(nb):
                continue
            cluster.add(nb)
            queue.append(nb)
    return cluster
