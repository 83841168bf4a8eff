"""Tests for the streaming-window (ADWISE-style) policy: ``WindowRule``
run through CuSP's five phases."""

import hashlib

import numpy as np
import pytest

from repro.core import CuSP, window_policy
from repro.graph import CSRGraph, erdos_renyi, get_dataset


@pytest.fixture(scope="module")
def crawl():
    return get_dataset("kron", "tiny")


def window(k, graph, **kwargs):
    return CuSP(k, window_policy(**kwargs)).partition(graph)


def partition_digest(dg) -> str:
    """SHA-256 over the masters, then per partition its global ids,
    master count, master hosts and local CSR (weights included)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dg.masters).tobytes())
    for p in dg.partitions:
        g = p.local_graph
        arrays = [p.global_ids, np.int64(p.num_masters), p.master_host,
                  g.indptr, g.indices]
        if g.edge_data is not None:
            arrays.append(g.edge_data)
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Digests of the partitions the standalone ``WindowedPartitioner`` (its
# own reading loop and materialization, deleted since) produced at
# commit 7cce94b5f1e9f21296f3492f07bb4b4e6bb1443c.  The window as a
# stateful edge rule must reproduce every one bit for bit.
PARENT_DIGESTS = [
    ("kron", 1, {"window_size": 1},
     "396b386aa29711708681fa7dcd1ff53dca91a6d3122379782c273d82dcb237d7"),
    ("kron", 1, {"window_size": 8},
     "396b386aa29711708681fa7dcd1ff53dca91a6d3122379782c273d82dcb237d7"),
    ("kron", 1, {"window_size": 32},
     "396b386aa29711708681fa7dcd1ff53dca91a6d3122379782c273d82dcb237d7"),
    ("kron", 1, {"window_size": 64},
     "396b386aa29711708681fa7dcd1ff53dca91a6d3122379782c273d82dcb237d7"),
    ("kron", 2, {"window_size": 1},
     "df2a22367811a62c8ed94e916581ef0747e101e2c92f005b0423ecb90e1e38c0"),
    ("kron", 2, {"window_size": 8},
     "e201d43e1b90fa42a5bd921cce4f0036a37eabadc94b398cd0f51c23027720a3"),
    ("kron", 2, {"window_size": 32},
     "26fe6cb310ceba85fe10e10a422973d8d891babaa148422a1ee30a8df4483eba"),
    ("kron", 2, {"window_size": 64},
     "f915245b4a1e9da6c4ea1ee40bd589b4986307f01b61604aa52a01c6a1c348e4"),
    ("kron", 3, {"window_size": 1},
     "098bed2aecde6a03248bc27390e1c629e996382deeec902756177aaf4f211b84"),
    ("kron", 3, {"window_size": 8},
     "44599a441fe771de0afeced0302fe3f680aa924e8557a3afe2640bb55b514c9a"),
    ("kron", 3, {"window_size": 32},
     "f52470c3d8015b7616b6f5c9cb59d096ce47695a6ecb8e76144c75f819bb7821"),
    ("kron", 3, {"window_size": 64},
     "4b50fa77efef9d795632666fc7a132cb617fc19d70df88bd9a7504053145a563"),
    ("kron", 4, {"window_size": 1},
     "8fac5cda5e04fe69f5fcd1a61ddb8667b68660c0e22a8f6954a4f73806414980"),
    ("kron", 4, {"window_size": 8},
     "05dc3dbd12b3d4a64507890a51972a781920a8636772cfa9fffa3b680347f6be"),
    ("kron", 4, {"window_size": 32},
     "791b0a78b93d1bc806e1bf51f55fe2d87ff88d44b41a49c56fd96ac1fb204790"),
    ("kron", 4, {"window_size": 64},
     "c997b70d9bacb7d1c832fec4488bc64d5149033f14fe509cc1986cfc76113b29"),
    ("kron", 8, {"window_size": 1},
     "aa66170ac94c315ba08f29bdebdab8fafdf73d3ea7748af1b5161faf8ed40d75"),
    ("kron", 8, {"window_size": 8},
     "d8ec7f8239bc0beaddc2b6d34acda707ca46ad707f16aca1e889e17b6f197eb8"),
    ("kron", 8, {"window_size": 32},
     "19f45f1e56c3d3d886f45857d7ec869b143e8b05b8a54a897e8dc0e04866022f"),
    ("kron", 8, {"window_size": 64},
     "e055d61dcb0c038559f48927136312ee0c9cf1e2a88be8bcce6d546f6a4f73fa"),
    ("kron", 4, {"window_size": 8, "balance_weight": 0.0},
     "80eca3b46df174b2b8c9eb03d9cbec756ac57f5a19efd4ac728de9f68d295ac0"),
    ("kron", 4, {"window_size": 16, "balance_weight": 8.0},
     "323cafd45a201231b5e60ad98ab307a6a8fac39ffae459b64352efe92c56cd6e"),
    ("weighted-er", 3, {"window_size": 8},
     "ed378c9798cad7592d50e84c42f62ea458b090826fae298e81d4211b1e11ba25"),
    ("empty", 2, {},
     "80586b082752209c87176fa0c580a8cf95b2ce134f16f3460a0b84dc5fc73ef2"),
    ("kron", 4, {"window_size": 8, "shuffle_stream": True},
     "11b51de6a283975e633d06fece623162fae246ce8b11c18f2a8c2a3ee5f16915"),
    ("weighted-er", 3, {"window_size": 8, "shuffle_stream": True},
     "f1459466858a63738a18a7589605fe81e896dcf435850e1caa5f4f1e7b9420de"),
]


class TestParentDigests:
    @pytest.fixture(scope="class")
    def graphs(self, crawl):
        return {
            "kron": crawl,
            "weighted-er": erdos_renyi(40, 200, seed=1).with_random_weights(seed=1),
            "empty": CSRGraph.empty(6),
        }

    @pytest.mark.parametrize(
        "name,k,kwargs,expected", PARENT_DIGESTS,
        ids=[f"{n}-k{k}-{'-'.join(f'{a}={b}' for a, b in kw.items())}"
             for n, k, kw, _ in PARENT_DIGESTS],
    )
    def test_reproduces_parent(self, graphs, name, k, kwargs, expected):
        dg = window(k, graphs[name], **kwargs)
        assert partition_digest(dg) == expected
        assert dg.policy_name == f"Window({kwargs.get('window_size', 64)})"


class TestCorrectness:
    @pytest.mark.parametrize("window_size", [1, 4, 32])
    def test_valid_partition(self, window_size, crawl):
        dg = window(4, crawl, window_size=window_size)
        dg.validate(crawl)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_host_counts(self, k, crawl):
        dg = window(k, crawl, window_size=8)
        dg.validate(crawl)
        assert dg.num_partitions == k

    def test_empty_graph(self):
        g = CSRGraph.empty(6)
        dg = window(2, g)
        dg.validate(g)

    def test_weighted_graph(self):
        g = erdos_renyi(40, 200, seed=1).with_random_weights(seed=1)
        dg = window(3, g, window_size=8)
        dg.validate(g)
        assert dg.to_global_graph() == g

    def test_deterministic(self, crawl):
        a = window(4, crawl, window_size=16)
        b = window(4, crawl, window_size=16)
        assert np.array_equal(a.masters, b.masters)
        for pa, pb in zip(a.partitions, b.partitions):
            assert pa.local_graph == pb.local_graph

    def test_policy_name_mentions_window(self, crawl):
        dg = window(2, crawl, window_size=7)
        assert "7" in dg.policy_name

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CuSP(0, window_policy())
        with pytest.raises(ValueError):
            window_policy(window_size=0)
        with pytest.raises(ValueError):
            window_policy(balance_weight=-1)


class TestQuality:
    def test_larger_window_improves_replication(self, crawl):
        """ADWISE's central claim: a bigger window buys better placement
        at the same balance pressure."""
        small = window(4, crawl, window_size=1)
        large = window(4, crawl, window_size=64)
        assert large.replication_factor() <= small.replication_factor()

    def test_balance_pressure_works(self, crawl):
        dg = window(4, crawl, window_size=16, balance_weight=8.0)
        assert dg.edge_balance() < 1.5

    def test_zero_balance_weight_clusters_hard(self, crawl):
        """Without the balance term everything piles onto one partition."""
        dg = window(4, crawl, window_size=8, balance_weight=0.0)
        counts = dg.edge_counts()
        assert counts.max() > 0.9 * crawl.num_edges

    def test_breakdown_phases_present(self, crawl):
        dg = window(4, crawl)
        names = [p.name for p in dg.breakdown.phases]
        assert "Graph Reading" in names
        assert "Graph Construction" in names

    def test_analytics_run_on_window_partitions(self, crawl):
        from repro.analytics import BFS, Engine, bfs_reference, default_source

        src = default_source(crawl)
        dg = window(4, crawl, window_size=16)
        res = Engine(dg).run(BFS(src))
        assert np.array_equal(res.values, bfs_reference(crawl, src))
