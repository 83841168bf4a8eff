"""Tests for graph transforms and distributed triangle counting."""

import numpy as np
import pytest

from repro.analytics import count_triangles, triangles_reference
from repro.core import CuSP, window_policy
from repro.graph import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    get_dataset,
    grid_graph,
    largest_wcc,
    path_graph,
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


class TestTriangles:
    def test_reference_known_counts(self):
        assert triangles_reference(complete_graph(4)) == 4
        assert triangles_reference(complete_graph(5)) == 10
        assert triangles_reference(cycle_graph(3)) == 1
        assert triangles_reference(cycle_graph(5)) == 0
        assert triangles_reference(path_graph(10)) == 0
        assert triangles_reference(grid_graph(4, 4)) == 0

    @pytest.mark.parametrize("policy", ["EEC", "CVC", "HVC", "SVC"])
    def test_distributed_matches_reference(self, policy):
        g = get_dataset("kron", "tiny").symmetrize()
        dg = CuSP(4, policy, sync_rounds=2).partition(g)
        res = count_triangles(dg)
        assert res.count == triangles_reference(g)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_host_counts(self, k):
        g = erdos_renyi(60, 500, seed=9).symmetrize()
        dg = CuSP(k, "CVC").partition(g)
        assert count_triangles(dg).count == triangles_reference(g)

    def test_window_partitions_too(self):
        g = erdos_renyi(50, 300, seed=10).symmetrize()
        dg = CuSP(3, window_policy(8)).partition(g)
        assert count_triangles(dg).count == triangles_reference(g)

    def test_handles_directed_input(self):
        """Orientation dedups reverse edges even on raw directed input."""
        g = erdos_renyi(40, 200, seed=11)
        dg = CuSP(3, "EEC").partition(g)
        assert count_triangles(dg).count == triangles_reference(g)

    def test_phases_and_time(self):
        g = complete_graph(10)
        dg = CuSP(3, "CVC").partition(g)
        res = count_triangles(dg)
        assert res.count == 120  # C(10,3)
        assert res.time > 0
        assert [p.name for p in res.breakdown.phases] == [
            "Orient", "Gather", "Probe"
        ]

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        dg = CuSP(2, "EEC").partition(g)
        assert count_triangles(dg).count == 0
