"""White-box tests of the analytics engine's mechanics."""

import hashlib
import json

import numpy as np
import pytest

from repro.analytics import (
    BFS,
    SSSP,
    BFSDirectionOptimizing,
    BFSPull,
    ConnectedComponents,
    DeltaSteppingSSSP,
    Engine,
    PageRank,
    VertexProgram,
    default_source,
)
from repro.baselines import XtraPulp
from repro.core import CuSP
from repro.graph import CSRGraph, erdos_renyi, get_dataset, path_graph


@pytest.fixture(scope="module")
def crawl():
    return get_dataset("kron", "tiny")


class TestAddressBooks:
    def test_read_mask_matches_out_degree(self, crawl):
        dg = CuSP(4, "CVC").partition(crawl)
        engine = Engine(dg)
        for q, part in enumerate(dg.partitions):
            assert np.array_equal(
                engine.read_mask[q], part.local_graph.out_degree() > 0
            )

    def test_bcast_book_alignment(self, crawl):
        """Every (m_local, q_local) pair must name the same global vertex."""
        dg = CuSP(4, "HVC").partition(crawl)
        engine = Engine(dg)
        for m, targets in enumerate(engine.bcast):
            for q, (m_local, q_local) in targets.items():
                m_g = dg.partitions[m].global_ids[m_local]
                q_g = dg.partitions[q].global_ids[q_local]
                assert np.array_equal(m_g, q_g)
                # All targets are mirrors mastered at m and readable at q.
                assert np.all(dg.masters[q_g] == m)
                assert np.all(engine.read_mask[q][q_local])

    def test_single_partition_book_empty(self, crawl):
        dg = CuSP(1, "EEC").partition(crawl)
        engine = Engine(dg)
        assert engine.bcast == [{}]


class TestRunMechanics:
    def test_per_round_comm_monotone_then_quiet(self):
        """BFS frontier grows then dies; the final round exchanges nothing
        but the convergence collective."""
        g = path_graph(20)
        dg = CuSP(4, "EEC").partition(g)
        res = Engine(dg).run(BFS(0))
        per_round = res.per_round_comm_bytes()
        assert len(per_round) == res.rounds
        assert per_round[-1] == 0.0  # quiescent closing round

    def test_round_limit_override(self, crawl):
        dg = CuSP(4, "CVC").partition(crawl)
        res = Engine(dg).run(ConnectedComponents(), max_rounds=1)
        assert res.rounds == 1

    def test_every_round_has_convergence_collective(self, crawl):
        dg = CuSP(4, "CVC").partition(crawl)
        res = Engine(dg).run(BFS(0))
        for phase in res.breakdown.phases:
            assert phase.collective > 0

    def test_extract_prefers_masters(self, crawl):
        """extract() must read canonical (master) values only."""
        dg = CuSP(4, "HVC").partition(crawl)

        class Marker(VertexProgram):
            name = "marker"

            def init_values(self, dg, engine):
                vals = []
                for part in dg.partitions:
                    v = np.full(part.num_proxies, -1, dtype=np.int64)
                    v[: part.num_masters] = part.master_global_ids
                    vals.append(v)
                return vals

            def initial_frontier(self, dg):
                return [np.zeros(p.num_proxies, dtype=bool) for p in dg.partitions]

            def compute(self, part, values, frontier):
                return np.zeros(part.num_proxies, dtype=bool), 0.0

        res = Engine(dg).run(Marker())
        assert np.array_equal(res.values, np.arange(crawl.num_nodes))

    def test_engine_reusable_across_runs(self, crawl):
        dg = CuSP(4, "CVC").partition(crawl)
        engine = Engine(dg)
        a = engine.run(BFS(0))
        b = engine.run(BFS(0))
        assert np.array_equal(a.values, b.values)

    def test_buffer_size_affects_messages(self):
        g = erdos_renyi(400, 4000, seed=33)
        dg = CuSP(8, "HVC").partition(g)
        big = Engine(dg, buffer_size=8 << 20).run(ConnectedComponents())
        none = Engine(dg, buffer_size=0).run(ConnectedComponents())
        msgs_big = sum(p.comm_messages for p in big.breakdown.phases)
        msgs_none = sum(p.comm_messages for p in none.breakdown.phases)
        assert msgs_none >= msgs_big
        assert np.array_equal(big.values, none.values)


class TestGlobalOutDegrees:
    def test_sums_to_true_degree(self, crawl):
        dg = CuSP(4, "HVC").partition(crawl)
        engine = Engine(dg)
        per_part = engine.global_out_degrees()
        true_deg = crawl.out_degree()
        for part, degs in zip(dg.partitions, per_part):
            assert np.array_equal(degs, true_deg[part.global_ids])


#: ``sha256`` digests of :func:`_app_digest` / :func:`_xtrapulp_digest`
#: computed at commit 3e34a8a, the last commit whose ``Engine.run`` and
#: ``XtraPulp._charge_pass`` drove hosts in inline loops with direct
#: ``Communicator.send`` calls.  Keys are ``graph/policy/k/buffer/app``
#: and ``xtrapulp/graph/k``.
_PARENT_DIGESTS = {
    "er/CVC/k3/b0/bfs":
        "cb885ce3ed96ff0a0b8d72447b3a81b2cb9405987cce73c35d80c2d507f7a73a",
    "er/CVC/k3/b0/bfs-dopt":
        "43ec7d0474f4f12d7e80217f9c75a429ec173b8d525d2964023c45401e7b6e4a",
    "er/CVC/k3/b0/bfs-pull":
        "7ce3aae1102e81c6c9dc1ffea6696c0c464556e65ee1ef2ce99d2458ce818965",
    "er/CVC/k3/b0/cc":
        "bf64ec6d711fb39e0b56094904ca4bb2f47aa2eb61220d024ab2f3694223478c",
    "er/CVC/k3/b0/pagerank":
        "b97e29f3b4794654060b9f020f783dac58bf889769fd14152f0ec22605be9222",
    "er/CVC/k3/b0/sssp":
        "d6525e744a24eb390439c2fc9bdb3adf341341bfa3a23aa3b36ee89497cd1fc0",
    "er/CVC/k3/b0/sssp-delta":
        "57fce4976bfd5e3e0d9981ef4162e49aa59d1eb562ac66be5c1c1b3ad8353009",
    "er/CVC/k4/b8388608/bfs":
        "50348ddb04d48f8f65e5067cc4bc1f9a804904ba3782054b0379f5c695409a27",
    "er/CVC/k4/b8388608/bfs-dopt":
        "7a4290bc5e4687902b905b4bd775d2fd9957dc2256a929538c6de56f55cf9070",
    "er/CVC/k4/b8388608/bfs-pull":
        "ee09e42c158f2fa6036c7c642440f23a454c531fa5966b324c7acd43ebd7a636",
    "er/CVC/k4/b8388608/cc":
        "d5992bfd04abfb4eb49e3b8434b181cf1fc92173d37a4672103b361297bbe71e",
    "er/CVC/k4/b8388608/pagerank":
        "3b859759bfc84762104f2d118f3adc36de247cd216afc7664a6f3de72d64dcb1",
    "er/CVC/k4/b8388608/sssp":
        "910212c8f8aced1ce5ad25ac0c1bb28b20d73015e83fb247be3728b7490bee47",
    "er/CVC/k4/b8388608/sssp-delta":
        "c12182f59569fe7358e300d86fdb5c290c7cfccb44dfe1c42f38606492b04a5b",
    "er/EEC/k1/b8388608/bfs":
        "32ac67159877ea294ce4a6ef5223ee1d42816256567c62e707073c33ff426ab9",
    "er/EEC/k1/b8388608/bfs-dopt":
        "4e785889d8ac634d5315e4dac45421683559f753a7c28260a394e0d9538846bf",
    "er/EEC/k1/b8388608/bfs-pull":
        "b77f7e5a43c83b3ad9b4612a9bf719ec9869e489fcf95ed5cfb750cac13f4343",
    "er/EEC/k1/b8388608/cc":
        "ecf195a92244ff5e8af88c48a433c7c24d9b94b9bbaacc2766080e2545d0f566",
    "er/EEC/k1/b8388608/pagerank":
        "fada2b9bd3ef3dd4e1da053e5377f0766af6e53a0972dedf3bbcc102a2bb63e5",
    "er/EEC/k1/b8388608/sssp":
        "97e0cbba114b3624c8f14891133e0fe0afb46e2d0db34bd35f4dcd7f7cc40af2",
    "er/EEC/k1/b8388608/sssp-delta":
        "51be6b94d6d27b1648532a2c3d8594e3db7faa88186e45d8444aac530c9d4f67",
    "er/EEC/k4/b8388608/bfs":
        "2a2d42a31fe559e32d7fc9aef2f392ce3ed1d1ddcf0acb1b17d01bdee8004768",
    "er/EEC/k4/b8388608/bfs-dopt":
        "0ebbbe9c136a0b0f5d4569df6432ee671527c173c1d6ac7be1bfa340a606fd72",
    "er/EEC/k4/b8388608/bfs-pull":
        "66ed22bfb5e1d44e7a6dbbe51193a5a52bfc18fea1d3fa628021a657d2dd31e9",
    "er/EEC/k4/b8388608/cc":
        "4d7250b4814fc2edddf2e5fa1080a78fa83e3793d16ece411e2a37360545093b",
    "er/EEC/k4/b8388608/pagerank":
        "499ccbe7444a75064f99c2342261e99e7b703158a9f0ab63db3ad0c3b5a1fa76",
    "er/EEC/k4/b8388608/sssp":
        "bbcf5ff2756d942a9d2192277ef9bfc0e70541f9e60a01f2eea268b11d1f1d20",
    "er/EEC/k4/b8388608/sssp-delta":
        "9e50c58db30735a1e36f2efc697db2e894522b250d473f5821c69ddf2420df3e",
    "er/HVC/k4/b8388608/bfs":
        "2a2d42a31fe559e32d7fc9aef2f392ce3ed1d1ddcf0acb1b17d01bdee8004768",
    "er/HVC/k4/b8388608/bfs-dopt":
        "0ebbbe9c136a0b0f5d4569df6432ee671527c173c1d6ac7be1bfa340a606fd72",
    "er/HVC/k4/b8388608/bfs-pull":
        "66ed22bfb5e1d44e7a6dbbe51193a5a52bfc18fea1d3fa628021a657d2dd31e9",
    "er/HVC/k4/b8388608/cc":
        "4d7250b4814fc2edddf2e5fa1080a78fa83e3793d16ece411e2a37360545093b",
    "er/HVC/k4/b8388608/pagerank":
        "499ccbe7444a75064f99c2342261e99e7b703158a9f0ab63db3ad0c3b5a1fa76",
    "er/HVC/k4/b8388608/sssp":
        "bbcf5ff2756d942a9d2192277ef9bfc0e70541f9e60a01f2eea268b11d1f1d20",
    "er/HVC/k4/b8388608/sssp-delta":
        "9e50c58db30735a1e36f2efc697db2e894522b250d473f5821c69ddf2420df3e",
    "er/SVC/k4/b8388608/bfs":
        "fe31d4ee6c50f735663672c778b8a0ebbdc7ede96ed8ed2411622d65c2666829",
    "er/SVC/k4/b8388608/bfs-dopt":
        "91905407236d4bd0d2d476c397364448a7f625407341c55c3f5b3c9fda369a84",
    "er/SVC/k4/b8388608/bfs-pull":
        "ea2d5df01bbe1770854a7788bb5a5bb6e1173aa2bd7caed1b2a64e40faecf42a",
    "er/SVC/k4/b8388608/cc":
        "9007c57d2e210b3efa1389096c0dfaa24739559e477be0b8ea20ec807df46d16",
    "er/SVC/k4/b8388608/pagerank":
        "9dc5f0c85fa7f6b746c3921023be03494dbe65116f3e71449c8055116cdd9437",
    "er/SVC/k4/b8388608/sssp":
        "4cf4241abee938a36115c228489cbda49835fd0fc896437e7955d57ad0d72139",
    "er/SVC/k4/b8388608/sssp-delta":
        "69efbb3427ecc82cf42e297a13b085e0ce4b394a0007e8ef8c7f306bf5cc4a27",
    "kron/HVC/k8/b8388608/bfs":
        "b20e690e2d012cde778efc6392beecbaa613154a50528c0fef977255b897c365",
    "kron/HVC/k8/b8388608/bfs-dopt":
        "e2bb11e558c4d446db651abb5fc0787c7c105179e6496abc3fb9c05633118594",
    "kron/HVC/k8/b8388608/bfs-pull":
        "fa7de8aedaa15cb20ff55a65ed218097d601ea68cf9d54574a26a66298d2e814",
    "kron/HVC/k8/b8388608/cc":
        "0f218583f224114df78928bce5636d9268bae19ea8a5b342bae30268b8b02b70",
    "kron/HVC/k8/b8388608/pagerank":
        "97332b3c339f650b14e299ac1a20ce1164c368be7495abfd711febb141a24375",
    "xtrapulp/er/k1":
        "3658e73d40cd7cbe87ddaeb247da4832bec0853f3f09aac6a6054b0c1d4592a9",
    "xtrapulp/er/k2":
        "a20321dd9e22c739d5c24087ad42c865f80aff09e9476fbc648016929566b8ba",
    "xtrapulp/er/k4":
        "eb6ac30ef19a2b79bb6137964217007aa30c46aba4904d710e01820f51560cf4",
    "xtrapulp/er/k8":
        "ce1e1860f02b85d4be433eb94f5c7dad71151a157d553129e9502807312b4491",
    "xtrapulp/kron/k1":
        "487615c6f70da7be2dd5b227416d152224e0c9724f6a911a9d9491c8d3ddb059",
    "xtrapulp/kron/k2":
        "6abd12f5130c0761dc47257d7b20efd30b36f1a004dc938af98b79204a63393c",
    "xtrapulp/kron/k4":
        "43d84f2300e0d0bb4ce26e5a7e59ffcee66a3b03be6b38e76b98ea300e99e95d",
    "xtrapulp/kron/k8":
        "7cc2b810ffc89b53739a2ca8c1dbe1c2ee57cf1c39e3a939b734ca6c1756f9d4",
}

_BIG_BUFFER = 8 << 20
#: (policy, hosts, buffer_size) on the weighted graph: an edge-cut (empty
#: broadcast book), a general vertex-cut, CVC, a stateful policy, one
#: host, and CVC with buffering off.
_WEIGHTED_CASES = [
    ("EEC", 4, _BIG_BUFFER), ("HVC", 4, _BIG_BUFFER), ("CVC", 4, _BIG_BUFFER),
    ("SVC", 4, _BIG_BUFFER), ("EEC", 1, _BIG_BUFFER), ("CVC", 3, 0),
]


def _app_digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(res.values).tobytes())
    h.update(str(res.values.dtype).encode())
    h.update(repr((res.name, res.rounds, res.comm_bytes)).encode())
    for phase in res.breakdown.phases:
        h.update(json.dumps(phase.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def _xtrapulp_digest(dg) -> str:
    h = hashlib.sha256(np.ascontiguousarray(dg.masters).tobytes())
    for phase in dg.breakdown.phases:
        h.update(json.dumps(phase.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def _apps(source: int, weighted: bool):
    apps = [
        ("bfs", BFS(source)), ("cc", ConnectedComponents()),
        ("pagerank", PageRank()), ("bfs-pull", BFSPull(source)),
        ("bfs-dopt", BFSDirectionOptimizing(source)),
    ]
    if weighted:
        apps += [("sssp", SSSP(source)),
                 ("sssp-delta", DeltaSteppingSSSP(source, delta=16))]
    return apps


@pytest.fixture(scope="module")
def weighted_er():
    return erdos_renyi(300, 1500, seed=3).with_random_weights(seed=5)


class TestParentDigests:
    """Every app's values, rounds, comm bytes and phase reports, and
    XtraPulp's masters and breakdown, are bit-identical to the pinned
    parent digests."""

    @pytest.mark.parametrize("policy,hosts,buffer_size", _WEIGHTED_CASES)
    def test_weighted_apps(self, weighted_er, policy, hosts, buffer_size):
        dg = CuSP(hosts, policy).partition(weighted_er)
        engine = Engine(dg, buffer_size=buffer_size)
        for name, app in _apps(default_source(weighted_er), weighted=True):
            key = f"er/{policy}/k{hosts}/b{buffer_size}/{name}"
            assert _app_digest(engine.run(app)) == _PARENT_DIGESTS[key], key

    def test_kron_apps_eight_hosts(self, crawl):
        engine = Engine(CuSP(8, "HVC").partition(crawl))
        for name, app in _apps(default_source(crawl), weighted=False):
            key = f"kron/HVC/k8/b{_BIG_BUFFER}/{name}"
            assert _app_digest(engine.run(app)) == _PARENT_DIGESTS[key], key

    @pytest.mark.parametrize("hosts", [1, 2, 4, 8])
    def test_xtrapulp(self, crawl, weighted_er, hosts):
        for name, graph in (("kron", crawl), ("er", weighted_er)):
            key = f"xtrapulp/{name}/k{hosts}"
            dg = XtraPulp(hosts).partition(graph)
            assert _xtrapulp_digest(dg) == _PARENT_DIGESTS[key], key
