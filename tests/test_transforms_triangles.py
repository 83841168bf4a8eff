"""Tests for graph transforms."""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    cycle_graph,
    erdos_renyi,
    largest_wcc,
    relabel,
    relabel_by_degree,
    remove_self_loops,
    shuffle_labels,
    simplify,
    star_graph,
)


class TestRelabel:
    def test_identity(self):
        g = erdos_renyi(20, 60, seed=1)
        assert relabel(g, np.arange(20)) == g

    def test_preserves_structure(self):
        g = erdos_renyi(25, 80, seed=2)
        rng = np.random.default_rng(3)
        perm = rng.permutation(25)
        r = relabel(g, perm)
        assert r.num_edges == g.num_edges
        # degree multiset preserved
        assert sorted(r.out_degree()) == sorted(g.out_degree())
        # edges map exactly
        assert {(perm[a], perm[b]) for a, b in g.edge_set()} == r.edge_set()

    def test_preserves_weights(self):
        g = erdos_renyi(10, 30, seed=4).with_random_weights(seed=4)
        r = relabel(g, np.arange(9, -1, -1))
        assert sorted(r.edge_data) == sorted(g.edge_data)

    def test_rejects_non_bijection(self):
        g = erdos_renyi(5, 10, seed=5)
        with pytest.raises(ValueError):
            relabel(g, np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError):
            relabel(g, np.arange(4))

    def test_relabel_by_degree_hubs_first(self):
        g = star_graph(10)
        r = relabel_by_degree(g, "out")
        assert r.out_degree(0) == 10  # the hub got id 0

    def test_relabel_by_degree_in(self):
        g = star_graph(10).transpose()
        r = relabel_by_degree(g, "in")
        assert r.in_degree()[0] == 10

    def test_relabel_by_degree_invalid(self):
        with pytest.raises(ValueError):
            relabel_by_degree(CSRGraph.empty(1), "sideways")

    def test_shuffle_deterministic(self):
        g = erdos_renyi(30, 90, seed=6)
        assert shuffle_labels(g, seed=7) == shuffle_labels(g, seed=7)
        assert shuffle_labels(g, seed=7) != shuffle_labels(g, seed=8)


class TestCleanup:
    def test_remove_self_loops(self):
        g = CSRGraph.from_edges([0, 1, 1], [0, 1, 0], num_nodes=2)
        r = remove_self_loops(g)
        assert r.edge_set() == {(1, 0)}

    def test_simplify(self):
        g = CSRGraph.from_edges([0, 0, 0, 1], [1, 1, 0, 0], num_nodes=2)
        s = simplify(g)
        assert s.edge_set() == {(0, 1), (1, 0)}
        assert s.num_edges == 2

    def test_largest_wcc(self):
        # component {0,1,2} (3 nodes) and {3,4} (2 nodes)
        g = CSRGraph.from_edges([0, 1, 3], [1, 2, 4], num_nodes=5)
        sub, ids = largest_wcc(g)
        assert ids.tolist() == [0, 1, 2]
        assert sub.num_nodes == 3
        assert sub.edge_set() == {(0, 1), (1, 2)}

    def test_largest_wcc_whole_graph(self):
        g = cycle_graph(6)
        sub, ids = largest_wcc(g)
        assert sub.num_nodes == 6
        assert ids.tolist() == list(range(6))

    def test_largest_wcc_empty(self):
        sub, ids = largest_wcc(CSRGraph.empty(0))
        assert ids.size == 0
