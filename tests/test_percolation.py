import numpy as np
import pytest

from andlab.errors import ValidationError
from andlab.percolation import PercolationGraph, bad_cluster
from andlab.rng import derive_key, uniforms


def union_find_oracle(graph):
    """Independent cluster extraction: union-find over bad vertices + seeds."""
    verts = [k for k in graph.vertices() if graph.is_bad(k)]
    index = {k: i for i, k in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for k in verts:
        for nb in graph.neighbors(k):
            if nb in index:
                union(index[k], index[nb])
    seed_roots = {find(index[s]) for s in graph.seeds()}
    return {k for k in verts if find(index[k]) in seed_roots}


def random_graph(dimension, window, seed_steps, p_bad, key):
    g = PercolationGraph(dimension, tuple([0.0] * dimension), 1.0, window, seed_steps)
    ks = [k for k in g.vertices() if not g.is_seed(k)]
    u = uniforms(derive_key(key, 0xBAD), np.arange(len(ks), dtype=np.uint64))
    for k, v in zip(ks, u):
        g.labels[k] = bool(v < p_bad)
    return g


class TestBadCluster:
    def test_all_good_gives_seed_set(self):
        g = PercolationGraph(2, (0.0, 0.0), 0.75, 5, 2)
        assert bad_cluster(g) == set(g.seeds())

    def test_all_bad_gives_window(self):
        g = PercolationGraph(2, (0.0, 0.0), 0.75, 4, 1)
        for k in g.vertices():
            g.labels[k] = True
        assert bad_cluster(g) == set(g.vertices())

    def test_interior_degree(self):
        for d in (1, 2, 3):
            g = PercolationGraph(d, tuple([0.0] * d), 1.0, 3, 1)
            origin = tuple([0] * d)
            assert len(list(g.neighbors(origin))) == 3**d - 1

    def test_seed_must_fit(self):
        with pytest.raises(ValidationError):
            PercolationGraph(1, (0.0,), 1.0, 2, 3)

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_union_find(self, trial):
        d = 2 if trial % 2 == 0 else 3
        window = 14 if d == 2 else 5
        g = random_graph(d, window, 2, 0.45 + 0.05 * (trial % 4), key=trial)
        assert bad_cluster(g) == union_find_oracle(g)

    def test_monotone_under_bad_flip(self):
        g = random_graph(2, 8, 2, 0.4, key=99)
        base = bad_cluster(g)
        flip = next(k for k in g.vertices()
                    if not g.is_seed(k) and not g.labels.get(k, False))
        g.labels[flip] = True
        assert base.issubset(bad_cluster(g))
