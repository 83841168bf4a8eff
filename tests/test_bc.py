"""Tests for distributed betweenness centrality (Brandes)."""

import numpy as np
import pytest

from repro.analytics import (
    BCResult,
    bc_reference,
    betweenness_centrality,
    default_source,
)
from repro.core import CuSP, window_policy
from repro.graph import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    get_dataset,
    grid_graph,
    path_graph,
    star_graph,
)


@pytest.fixture(scope="module")
def crawl():
    return get_dataset("gsh", "tiny")


class TestReference:
    def test_path_dependencies(self):
        # On 0->1->2->3->4 from source 0: delta = [4, 3, 2, 1, 0].
        ref = bc_reference(path_graph(5), 0)
        assert ref.tolist() == [4.0, 3.0, 2.0, 1.0, 0.0]

    def test_star_center(self):
        # Hub 0 -> leaves: no leaf lies between any pair, so every
        # non-source dependency is 0 (the source's own delta equals its
        # successor count and is excluded from betweenness).
        ref = bc_reference(star_graph(5), 0)
        assert np.allclose(ref[1:], 0.0)
        assert ref[0] == pytest.approx(5.0)

    def test_diamond_counts_paths(self):
        # 0->1, 0->2, 1->3, 2->3: two shortest paths to 3; each middle
        # vertex carries half a dependency.
        g = CSRGraph.from_edges([0, 0, 1, 2], [1, 2, 3, 3], num_nodes=4)
        ref = bc_reference(g, 0)
        assert ref[1] == pytest.approx(0.5)
        assert ref[2] == pytest.approx(0.5)
        # The source's own dependency (excluded from betweenness) is
        # (1 + 0.5) for each of its two successors.
        assert ref[0] == pytest.approx(3.0)

    def test_matches_networkx(self):
        # networkx collapses parallel edges, and sigma counts paths per
        # edge, so compare on the simplified graph.
        nx = pytest.importorskip("networkx")
        from repro.graph import simplify

        g = simplify(erdos_renyi(40, 200, seed=17))
        G = nx.DiGraph()
        G.add_nodes_from(range(40))
        G.add_edges_from(zip(*g.edges()))
        # Sum of single-source dependencies over all sources equals
        # unnormalized betweenness.
        total = np.zeros(40)
        for s in range(40):
            dep = bc_reference(g, s)
            dep[s] = 0.0  # Brandes excludes the source's own dependency
            total += dep
        nx_bc = nx.betweenness_centrality(G, normalized=False)
        for v in range(40):
            assert total[v] == pytest.approx(nx_bc[v], abs=1e-9)


class TestDistributed:
    @pytest.mark.parametrize("policy", ["EEC", "CVC", "HVC", "SVC", "JVC"])
    def test_matches_reference(self, policy, crawl):
        src = default_source(crawl)
        dg = CuSP(4, policy, sync_rounds=2).partition(crawl)
        res = betweenness_centrality(dg, src)
        assert np.allclose(res.dependencies, bc_reference(crawl, src))

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_host_counts(self, k):
        g = grid_graph(10, 10)
        dg = CuSP(k, "CVC").partition(g)
        res = betweenness_centrality(dg, 0)
        assert np.allclose(res.dependencies, bc_reference(g, 0))

    def test_sigma_counts_paths(self):
        g = CSRGraph.from_edges([0, 0, 1, 2], [1, 2, 3, 3], num_nodes=4)
        dg = CuSP(2, "HVC").partition(g)
        res = betweenness_centrality(dg, 0)
        assert res.sigma[3] == pytest.approx(2.0)

    def test_sink_source_has_no_dependencies(self):
        g = CSRGraph.from_edges([0], [1], num_nodes=5)
        dg = CuSP(2, "EEC").partition(g)
        # Vertex 2 has no outgoing edges: nothing is reachable, so every
        # dependency is zero.
        res = betweenness_centrality(dg, 2)
        assert np.allclose(res.dependencies, 0.0)

    def test_window_partitions(self):
        g = erdos_renyi(60, 400, seed=18)
        dg = CuSP(3, window_policy(8)).partition(g)
        res = betweenness_centrality(dg, 0)
        assert np.allclose(res.dependencies, bc_reference(g, 0))

    def test_time_and_phases(self, crawl):
        src = default_source(crawl)
        dg = CuSP(4, "CVC").partition(crawl)
        res = betweenness_centrality(dg, src)
        assert res.time > 0
        names = [p.name for p in res.breakdown.phases]
        assert any(n.startswith("forward") for n in names)
        assert any(n.startswith("backward") for n in names)

    def test_cycle_symmetry(self):
        g = cycle_graph(8)
        dg = CuSP(2, "EEC").partition(g)
        res = betweenness_centrality(dg, 0)
        # On a directed cycle from 0: delta[v] = 7 - dist(v) - ... strictly
        # decreasing along the cycle.
        assert np.all(np.diff(res.dependencies[1:]) < 0)
        assert np.allclose(res.dependencies, bc_reference(g, 0))
