"""The product against the paper-derived oracle (``tests/oracle.py``).

``CuSP(...).partition()`` must build, list for list, what ~200 lines of
plain Python walking the paper's Algorithms 1-4 build: for all 14
policies, host counts 1..9, weighted and unweighted multigraphs, CSR and
CSC on both sides.  Every run is also held to the paper-level invariants
next to the oracle (one owner per edge, one master per proxy, EEC moves
nothing, the 2-D cuts stay in their grid rows).  The two places where the
product's visibility rules are sharper than the paper's text are pinned
as recorded quirks, and a policy written only against the rule surface
(2PS-style, below) partitions on every executor and equals the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CuSP, EdgeRule, Policy, make_policy, policy_names
from repro.core.edge_rules import CheckerboardRule
from repro.core.master_rules import ContiguousEB
from repro.core.prop import GraphProp
from repro.core.streaming_rules import HDRFRule
from repro.graph import erdos_renyi

from . import oracle
from .golden import GRAPH, assert_matches_oracle
from .strategies import graphs


def partition_and_check(graph, policy, k, output="csr", **cusp_kwargs):
    """Product run held to the oracle and the paper-level invariants."""
    cusp = CuSP(k, policy, **cusp_kwargs)
    dg = cusp.partition(graph, output=output)
    want = assert_matches_oracle(
        dg, graph, policy, k, sync_rounds=cusp.sync_rounds, output=output
    )
    oracle.check_paper_invariants(
        dg, oracle.streamed(graph, policy), policy, want["ranges"]
    )
    return dg


class TestOracleEqualsProduct:
    @pytest.mark.parametrize("name", policy_names())
    @settings(max_examples=20, deadline=None)
    @given(
        graph=st.one_of(graphs(), graphs(weighted=True)),
        output=st.sampled_from(["csr", "csc"]),
        input_format=st.sampled_from(["csr", "csc"]),
        sync_rounds=st.sampled_from([1, 3, 10, 100]),
        # Low thresholds put FennelEB's and Hybrid's hub branches in play.
        degree_threshold=st.sampled_from([1, 3, 100]),
    )
    def test_every_policy_every_host_count(
        self, name, graph, output, input_format, sync_rounds, degree_threshold
    ):
        policy = make_policy(
            name, input_format=input_format, degree_threshold=degree_threshold
        )
        for k in range(1, 10):
            partition_and_check(
                graph, policy, k, output=output, sync_rounds=sync_rounds
            )


class _HidesThreshold:
    """FennelEB without the attribute the oracle keys hub-first order on."""

    uses_masters = stateful = True

    def __init__(self, rule):
        self.assign = rule.assign


class TestRecordedQuirks:
    def test_hdrf_chunk_one_is_the_plain_stream(self):
        graph = erdos_renyi(150, 1500, seed=4)
        policy = Policy("HDRF-exact", ContiguousEB(), HDRFRule(chunk_size=1))
        dg = CuSP(3, policy).partition(graph)
        assert_matches_oracle(dg, graph, policy, 3, frozen_chunk=1)

    def test_hdrf_default_freezes_256_edge_chunks_of_each_hosts_stream(self):
        # ~500 edges a host: every host's stream spans two chunks.
        graph = erdos_renyi(150, 1500, seed=4)
        policy = make_policy("HDRF")
        dg = CuSP(3, policy).partition(graph)
        assert_matches_oracle(dg, graph, policy, 3, frozen_chunk=256)
        plain = oracle.partition(graph, policy, 3, frozen_chunk=1)
        assert plain["partitions"] != oracle.as_lists(dg)["partitions"]

    @settings(max_examples=15, deadline=None)
    @given(graph=graphs(), chunk=st.integers(2, 9), k=st.integers(1, 5))
    def test_hdrf_any_chunk_size(self, graph, chunk, k):
        policy = Policy("HDRF-c", ContiguousEB(), HDRFRule(chunk_size=chunk))
        dg = CuSP(k, policy).partition(graph)
        assert_matches_oracle(dg, graph, policy, k, frozen_chunk=chunk)

    def test_fenneleb_publishes_a_chunks_hubs_before_scoring_it(self):
        graph = erdos_renyi(30, 90, seed=12)
        policy = make_policy("FEC", degree_threshold=4)
        dg = partition_and_check(graph, policy, 2, sync_rounds=2)
        # Scored strictly in id order, ten masters come out differently.
        in_id_order = oracle.assign_masters(
            GraphProp(graph, 2), _HidesThreshold(policy.master_rule),
            oracle.read_ranges(graph, 2), 2,
        )
        assert in_id_order != dg.masters.tolist()


class _MislabelledCheckerboard(CheckerboardRule):
    name = "Cartesian"


class TestPaperInvariants:
    def test_eec_moves_only_the_nothing_to_send_notifications(self):
        dg = partition_and_check(GRAPH, make_policy("EEC"), 4)
        sent = {ph.name: ph.comm_bytes for ph in dg.breakdown.phases}
        assert sent["Master Assignment"] == 0
        assert sent["Edge Assignment"] == 96  # 8 bytes * 4 hosts * 3 peers
        assert sent["Graph Construction"] == 0

    @pytest.mark.parametrize("name", ["CVC", "SVC", "BVC", "JVC"])
    @pytest.mark.parametrize("k", [6, 8, 9, 12])
    def test_two_d_cuts_on_real_grids(self, name, k):
        """CVC/SVC: proxies in the master's grid row or column; BVC/JVC:
        edges in the grid row of the source's master (checked inside)."""
        partition_and_check(GRAPH, make_policy(name), k, sync_rounds=10)

    def test_checkerboard_does_not_keep_the_cartesian_promise(self):
        """Why ``"2d-cut"`` only promises the row: blocked columns put
        destination proxies outside their master's row and column."""
        policy = Policy("BVC-as-CVC", ContiguousEB(), _MislabelledCheckerboard())
        dg = CuSP(6, policy).partition(GRAPH)
        ranges = oracle.read_ranges(GRAPH, 6)
        with pytest.raises(AssertionError):
            oracle.check_paper_invariants(dg, GRAPH, policy, ranges)

    def test_a_wrong_master_or_a_lost_edge_is_caught(self):
        policy = make_policy("CVC")
        ranges = oracle.read_ranges(GRAPH, 4)
        dg = CuSP(4, policy).partition(GRAPH)
        dg.masters[0] = (dg.masters[0] + 1) % 4
        with pytest.raises(AssertionError):
            oracle.check_paper_invariants(dg, GRAPH, policy, ranges)
        dg = CuSP(4, policy).partition(GRAPH)
        dg.partitions[1].local_graph.indices[0] = 0
        with pytest.raises(AssertionError):
            oracle.check_paper_invariants(dg, GRAPH, policy, ranges)


class TwoPassRule(EdgeRule):
    """A 2PS-style edge rule (PAPERS.md, *2PS*) on the rule surface only.

    Pass 1 runs inside the rule object the first time it is asked about
    a graph: one streaming sweep clusters the vertices (an edge moves the
    endpoint in the lighter cluster into the heavier one while both are
    under the volume cap), then clusters are packed onto partitions,
    heaviest first, least-loaded partition first.  Pass 2 is ``owner``:
    an edge goes where pass 1 put its lower-degree endpoint, so an edge
    inside one partition's clusters stays there and any other cuts
    through the hub.
    """

    name = "TwoPass"

    def __init__(self):
        self._seen = None  # (graph, placement, degree) of the last graph

    def _pass_one(self, prop):
        graph, k = prop.graph, prop.getNumPartitions()
        src, dst = graph.edge_sources(), graph.indices
        n = graph.num_nodes
        degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
        cap = max(1, 2 * graph.num_edges // k)
        cluster, volume = list(range(n)), degree.tolist()
        for u, v in zip(src.tolist(), dst.tolist()):
            cu, cv = cluster[u], cluster[v]
            if cu == cv or volume[cu] > cap or volume[cv] > cap:
                continue
            mover, into = (u, cv) if volume[cu] <= volume[cv] else (v, cu)
            volume[cluster[mover]] -= int(degree[mover])
            volume[into] += int(degree[mover])
            cluster[mover] = into
        load, where = [0] * k, {}
        for c in sorted(set(cluster), key=lambda c: (-volume[c], c)):
            where[c] = load.index(min(load))
            load[where[c]] += volume[c]
        return graph, [where[c] for c in cluster], degree.tolist()

    def owner(self, prop, src_id, dst_id, src_master, dst_master, estate=None):
        if self._seen is None or self._seen[0] is not prop.graph:
            self._seen = self._pass_one(prop)
        _, place, degree = self._seen
        if degree[src_id] <= degree[dst_id]:
            return place[src_id]
        return place[dst_id]


class TestNewPolicyTouchesOnlyTheRuleSurface:
    """ROADMAP's litmus: the classes above, a ``Policy(...)`` and nothing
    else; no import from a phase module, no registry entry, no option."""

    @pytest.mark.parametrize("executor", ["serial", "parallel", "process"])
    def test_two_pass_policy(self, executor):
        graph = erdos_renyi(120, 900, seed=8)
        policy = Policy("2PS", ContiguousEB(), TwoPassRule())
        dg = partition_and_check(
            graph, policy, 4, executor=executor, sanitizer=True
        )
        dg.validate(graph)
        # Pass 1 did cluster: most edges stay inside one partition's
        # clusters, so fewer proxies than hashing the edges would give.
        hashed = CuSP(4, "DBH").partition(graph)
        assert dg.replication_factor() < hashed.replication_factor()
