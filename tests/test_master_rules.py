"""Tests for getMaster rules (paper Algorithm 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Contiguous,
    ContiguousEB,
    Fennel,
    FennelEB,
    GraphProp,
    make_master_rule,
)
from repro.graph import CSRGraph, erdos_renyi, star_graph

from .strategies import graphs


def prop_for(graph, k):
    return GraphProp(graph, k)


class TestContiguous:
    def test_blocks(self):
        g = CSRGraph.empty(10)
        p = prop_for(g, 3)  # blocksize = ceil(10/3) = 4
        rule = Contiguous()
        got = [rule.assign(p, v, None) for v in range(10)]
        assert got == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_batch_matches_scalar(self):
        g = erdos_renyi(50, 200, seed=1)
        p = prop_for(g, 4)
        rule = Contiguous()
        ids = np.arange(50)
        batch = rule.assign_batch(p, ids, None)
        scalar = [rule.assign(p, int(v), None) for v in ids]
        assert batch.tolist() == scalar

    def test_pure(self):
        assert Contiguous().is_pure


class TestContiguousEB:
    def test_balances_edges_not_nodes(self):
        # star: node 0 has all 9 edges; EB puts node 0 alone-ish.
        g = star_graph(9)
        p = prop_for(g, 2)
        rule = ContiguousEB()
        got = rule.assign_batch(p, np.arange(10), None)
        # edge block = ceil(10/2) = 5; node 0 first edge 0 -> partition 0;
        # all leaves have first edge id 9 -> partition 1.
        assert got[0] == 0
        assert set(got[1:].tolist()) == {1}

    def test_batch_matches_scalar(self):
        g = erdos_renyi(30, 300, seed=2)
        p = prop_for(g, 3)
        rule = ContiguousEB()
        ids = np.arange(30)
        assert rule.assign_batch(p, ids, None).tolist() == [
            rule.assign(p, int(v), None) for v in ids
        ]

    def test_roughly_equal_edge_loads(self):
        g = erdos_renyi(200, 4000, seed=3)
        p = prop_for(g, 4)
        rule = ContiguousEB()
        parts = rule.assign_batch(p, np.arange(200), None)
        loads = np.zeros(4)
        np.add.at(loads, parts, g.out_degree())
        assert loads.max() <= 1.3 * loads.mean()

    def test_pure(self):
        assert ContiguousEB().is_pure


class TestFennel:
    def make(self, n=40, m=300, k=4, seed=5):
        g = erdos_renyi(n, m, seed=seed)
        p = prop_for(g, k)
        rule = Fennel()
        state = rule.make_state(k, 1)
        return g, p, rule, state

    def test_not_pure(self):
        rule = Fennel()
        assert rule.uses_masters and rule.stateful and not rule.is_pure

    def test_assign_updates_state(self):
        g, p, rule, state = self.make()
        view = state.host_view(0)
        masters = np.full(g.num_nodes, -1, dtype=np.int32)
        part = rule.assign(p, 0, view, masters)
        assert 0 <= part < 4
        assert view.numNodes.sum() == 1

    def test_load_balancing_pressure(self):
        # With no neighbor information (masters=None), only the load
        # penalty acts and Fennel must spread nodes across partitions
        # round-robin rather than piling onto one.
        g, p, rule, state = self.make(n=100, m=400, k=4)
        view = state.host_view(0)
        placed = np.empty(100, dtype=np.int32)
        for v in range(100):
            placed[v] = rule.assign(p, v, view, masters=None)
        counts = np.bincount(placed, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_neighbor_affinity(self):
        # A node whose neighbors all sit on partition 2 should join them
        # when loads are equal.
        g = star_graph(4)  # 0 -> 1..4
        p = prop_for(g, 4)
        rule = Fennel()
        state = rule.make_state(4, 1)
        view = state.host_view(0)
        masters = np.full(5, -1, dtype=np.int32)
        masters[1:] = 2
        assert rule.assign(p, 0, view, masters) == 2

    def test_deterministic(self):
        g, p, rule, _ = self.make()
        out = []
        for _ in range(2):
            state = rule.make_state(4, 1)
            view = state.host_view(0)
            masters = np.full(g.num_nodes, -1, dtype=np.int32)
            for v in range(g.num_nodes):
                masters[v] = rule.assign(p, v, view, masters)
            out.append(masters.copy())
        assert np.array_equal(out[0], out[1])

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            Fennel(gamma=1.0)

    def test_compute_units_scale_with_k(self):
        assert Fennel().compute_units(100, 0, 8) > Fennel().compute_units(100, 0, 2)


class TestFennelEB:
    def test_high_degree_short_circuits_to_contiguous_eb(self):
        g = star_graph(50)  # node 0 has degree 50
        p = prop_for(g, 2)
        rule = FennelEB(degree_threshold=10)
        state = rule.make_state(2, 1)
        view = state.host_view(0)
        masters = np.full(51, -1, dtype=np.int32)
        part = rule.assign(p, 0, view, masters)
        assert part == ContiguousEB().assign(p, 0, None)
        # short-circuit must not charge state
        assert view.numNodes.sum() == 0

    def test_low_degree_charges_node_and_edges(self):
        g = star_graph(3)
        p = prop_for(g, 2)
        rule = FennelEB(degree_threshold=10)
        state = rule.make_state(2, 1)
        view = state.host_view(0)
        part = rule.assign(p, 0, view, np.full(4, -1, dtype=np.int32))
        assert view.numNodes.sum() == 1
        assert view.numEdges.sum() == 3  # out-degree of node 0

    def test_balances_by_edges(self):
        g = erdos_renyi(120, 2400, seed=9)
        p = prop_for(g, 4)
        rule = FennelEB(degree_threshold=10**9)  # never short-circuit
        state = rule.make_state(4, 1)
        view = state.host_view(0)
        masters = np.full(120, -1, dtype=np.int32)
        for v in range(120):
            masters[v] = rule.assign(p, v, view, masters)
        edge_loads = np.zeros(4)
        np.add.at(edge_loads, masters, g.out_degree())
        assert edge_loads.max() <= 1.6 * edge_loads.mean()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FennelEB(gamma=0.5)
        with pytest.raises(ValueError):
            FennelEB(degree_threshold=-1)


class TestSqrtPremise:
    """FennelEB's batch kernel at gamma = 1.5 updates a penalty with
    ``math.sqrt`` where :meth:`FennelEB.assign` evaluates
    ``np.power(load, 0.5)``.  Partitions stay put only while the two
    agree bit for bit; a NumPy that stops evaluating ``power(x, 0.5)``
    as IEEE ``sqrt`` fails here, not as moved SVC partitions."""

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64)

    def loads(self):
        rng = np.random.default_rng(1729)
        return np.concatenate([
            rng.random(100_000) * 1e7,
            rng.random(20_000),
            rng.integers(0, 2**40, 20_000).astype(np.float64),
            np.arange(0.0, 50_000.0, 0.25),  # half-integer sums, as loads are
        ])

    def test_power_is_sqrt_on_arrays(self):
        loads = self.loads()
        want = self.bits([math.sqrt(x) for x in loads.tolist()])
        assert np.array_equal(self.bits(np.power(loads, 0.5)), want)
        assert np.array_equal(self.bits(np.sqrt(loads)), want)

    def test_power_is_sqrt_on_one_element_arrays(self):
        loads = self.loads()[::20]
        cell = np.empty(1, dtype=np.float64)
        for x in loads.tolist():
            cell[0] = x
            assert self.bits(np.power(cell, 0.5)[0]) == self.bits(math.sqrt(x))

    def test_sign_and_infinity_probes(self):
        # C pow() gives +0.0 and +inf here; sqrt gives -0.0 and nan.
        with np.errstate(invalid="ignore"):
            for arg in (np.float64(-0.0), np.array([-0.0])):
                got = np.power(arg, 0.5)
                assert got == 0.0 and np.signbit(got).all()
            assert np.isnan(np.power(np.array([-np.inf]), 0.5)).all()
        assert math.copysign(1.0, math.sqrt(-0.0)) == -1.0
        assert np.power(np.array([np.inf]), 0.5)[0] == math.sqrt(math.inf)


#: The history-sensitive rules, with a FennelEB threshold low enough
#: that small test graphs hit the ContiguousEB short-circuit.  FennelEB
#: at gamma = 2.0 takes the one-element ``np.power`` update and scores
#: every row with the argmax; the default 1.5 takes the ``sqrt`` update
#: and the count-decisive test.
STATEFUL_RULES = [
    ("Fennel", {}),
    ("FennelEB", {"degree_threshold": 3}),
    ("LDG", {}),
    ("FennelEB", {"gamma": 2.0, "degree_threshold": 3}),
]


def replay_scalar(rule_name, kwargs, prop, node_ids, masters):
    """The reference: the paper-signature ``assign()`` vertex by vertex.

    Returns ``(out, masters, (numNodes, numEdges) totals)``; ``masters``
    (or ``None``) is updated the way :meth:`MasterRule.assign_batch`
    documents — a host's own assignments are visible at once.

    One documented difference in visiting order: FennelEB's batch kernel
    resolves its ContiguousEB short-circuits (degree > threshold) before
    it scores anything, so their masters are visible to every scored row
    of the batch, including earlier ones.  The committed partition
    digests pin that, so the replay visits those rows first; ``assign()``
    neither scores nor charges them, so their own order is immaterial.
    """
    rule = make_master_rule(rule_name, **kwargs)
    state = rule.make_state(prop.getNumPartitions(), 1)
    view = state.host_view(0)
    out = np.empty(len(node_ids), dtype=np.int32)
    rows = range(len(node_ids))
    if rule_name == "FennelEB":
        rows = sorted(
            rows,
            key=lambda i: prop.getNodeOutDegree(int(node_ids[i]))
            <= rule.degree_threshold,
        )
    for i in rows:
        v = int(node_ids[i])
        out[i] = rule.assign(prop, v, view, masters)
        if masters is not None:
            masters[v] = out[i]
    return out, masters, state.totals()


def run_batch(rule_name, kwargs, prop, node_ids, masters):
    rule = make_master_rule(rule_name, **kwargs)
    state = rule.make_state(prop.getNumPartitions(), 1)
    out = rule.assign_batch(
        prop, np.asarray(node_ids, dtype=np.int64), state.host_view(0), masters
    )
    return out, masters, state.totals()


def assert_batch_replays_scalar(rule_name, kwargs, prop, node_ids, masters):
    got = run_batch(
        rule_name, kwargs, prop, node_ids,
        None if masters is None else masters.copy(),
    )
    want = replay_scalar(
        rule_name, kwargs, prop, node_ids,
        None if masters is None else masters.copy(),
    )
    assert got[0].dtype == np.int32
    assert got[0].tolist() == want[0].tolist()
    if masters is not None:
        assert got[1].tolist() == want[1].tolist()
    assert got[2][0].tolist() == want[2][0].tolist()  # numNodes
    assert got[2][1].tolist() == want[2][1].tolist()  # numEdges


@st.composite
def batches(draw):
    """``(graph, k, node_ids, masters)`` for one ``assign_batch`` call.

    ``node_ids`` is a permuted subset of the vertices with repeats;
    ``masters`` is ``None`` or pre-seeded with some placed vertices,
    inside and outside the batch.
    """
    graph = draw(graphs(max_nodes=24, max_edges=90))
    n = graph.num_nodes
    k = draw(st.integers(1, 5))
    node_ids = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    if draw(st.booleans()):
        return graph, k, node_ids, None
    masters = draw(
        st.lists(st.sampled_from([-1, -1] + list(range(k))),
                 min_size=n, max_size=n)
    )
    return graph, k, node_ids, np.array(masters, dtype=np.int32)


class TestBatchScalarEquivalence:
    """One ``assign_batch`` call must replay the paper's scalar semantics."""

    @pytest.mark.parametrize("rule_name", ["Fennel", "FennelEB", "LDG"])
    def test_batch_equals_scalar_sequence(self, rule_name):
        g = erdos_renyi(80, 900, seed=11)
        k = 4
        p = prop_for(g, k)
        kwargs = {"degree_threshold": 15} if rule_name == "FennelEB" else {}
        ids = np.arange(80)

        # assign_batch writes masters[v] as it goes, exactly like the
        # scalar loop, so one call over the whole range must equal it.
        assert_batch_replays_scalar(
            rule_name, kwargs, p, ids, np.full(80, -1, dtype=np.int32)
        )

    @pytest.mark.parametrize("rule_name", ["Fennel", "FennelEB", "LDG"])
    def test_one_vertex_batches_equal_plain_scalar_sequence(self, rule_name):
        # Fed one vertex per call the kernels have no batch to look
        # ahead in, so they equal assign() in plain vertex order —
        # for FennelEB too.
        g = erdos_renyi(80, 900, seed=11)
        k = 4
        p = prop_for(g, k)
        kwargs = {"degree_threshold": 15} if rule_name == "FennelEB" else {}
        scalar_rule = make_master_rule(rule_name, **kwargs)
        state_s = scalar_rule.make_state(k, 1)
        view_s = state_s.host_view(0)
        masters_s = np.full(80, -1, dtype=np.int32)
        batch_rule = make_master_rule(rule_name, **kwargs)
        state_b = batch_rule.make_state(k, 1)
        view_b = state_b.host_view(0)
        masters_b = np.full(80, -1, dtype=np.int32)
        for v in range(80):
            masters_s[v] = scalar_rule.assign(p, v, view_s, masters_s)
            batch_rule.assign_batch(p, np.array([v]), view_b, masters_b)
        assert np.array_equal(masters_b, masters_s)
        for got, want in zip(state_b.totals(), state_s.totals()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rule_name,kwargs", STATEFUL_RULES)
    @given(batch=batches())
    @settings(max_examples=60, deadline=None)
    def test_any_batch_replays_scalar(self, rule_name, kwargs, batch):
        graph, k, node_ids, masters = batch
        assert_batch_replays_scalar(
            rule_name, kwargs, prop_for(graph, k), node_ids, masters
        )

    @pytest.mark.parametrize("rule_name,kwargs", STATEFUL_RULES)
    @pytest.mark.parametrize("seeded", [False, True])
    def test_self_loops_and_duplicate_edges(self, rule_name, kwargs, seeded):
        # 0 -> 0 (self-loop), 0 -> 1 twice and 1 -> 0 three times
        # (parallel edges inside the batch), 2 -> 2 twice, a vertex (3)
        # past the FennelEB threshold that points back into the batch,
        # and vertex 6 outside the batch.
        src = [0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4, 5, 5]
        dst = [0, 1, 1, 0, 0, 0, 2, 2, 0, 1, 2, 6, 3, 4, 6]
        g = CSRGraph.from_edges(
            np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            num_nodes=7,
        )
        masters = np.full(7, -1, dtype=np.int32)
        if seeded:
            masters[[1, 6]] = [2, 0]
        # Unsorted, with 0 and 2 visited twice.
        node_ids = [2, 0, 5, 1, 0, 3, 4, 2]
        assert_batch_replays_scalar(
            rule_name, kwargs, prop_for(g, 3), node_ids, masters
        )

    @pytest.mark.parametrize("rule_name,kwargs", STATEFUL_RULES)
    @pytest.mark.parametrize("with_masters", [False, True])
    def test_empty_batch(self, rule_name, kwargs, with_masters):
        g = erdos_renyi(10, 30, seed=4)
        masters = np.full(10, -1, dtype=np.int32) if with_masters else None
        out, masters_after, totals = run_batch(
            rule_name, kwargs, prop_for(g, 3), [], masters
        )
        assert out.dtype == np.int32 and out.size == 0
        if with_masters:
            assert (masters_after == -1).all()
        assert totals[0].sum() == 0 and totals[1].sum() == 0

    @pytest.mark.parametrize("gamma", [1.5, 2.0])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_batch_over_many_windows(self, gamma, seeded):
        # Several hundred scored rows, unsorted and with repeats, span
        # many count-decisive windows, and in-batch neighbours fold into
        # rows of the current window and of later ones.
        g = erdos_renyi(300, 3000, seed=21)
        rng = np.random.default_rng(5)
        node_ids = np.concatenate([rng.permutation(300), rng.integers(0, 300, 60)])
        masters = np.full(300, -1, dtype=np.int32)
        if seeded:
            masters[rng.choice(300, 40, replace=False)] = rng.integers(0, 5, 40)
        assert_batch_replays_scalar(
            "FennelEB", {"gamma": gamma, "degree_threshold": 14},
            prop_for(g, 5), node_ids, masters,
        )

    def test_batch_state_updates_match_scalar(self):
        g = erdos_renyi(50, 400, seed=12)
        p = prop_for(g, 3)
        rule = make_master_rule("FennelEB", degree_threshold=10)
        state = rule.make_state(3, 1)
        view = state.host_view(0)
        rule.assign_batch(p, np.arange(50), view, None)
        nodes, edges = state.totals()
        low_degree = g.out_degree() <= 10
        assert nodes.sum() == int(low_degree.sum())
        assert edges.sum() == int(g.out_degree()[low_degree].sum())


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["Contiguous", "ContiguousEB", "Fennel", "FennelEB", "LDG"]
    )
    def test_make(self, name):
        assert make_master_rule(name).name == name

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_master_rule("Magic")

    def test_kwargs_forwarded(self):
        rule = make_master_rule("FennelEB", degree_threshold=7)
        assert rule.degree_threshold == 7
