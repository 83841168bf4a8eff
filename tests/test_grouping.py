"""The narrow-key group-by primitive and what is built on it.

``stable_group_order`` must be ``np.argsort(kind="stable")`` bit for bit
(a grouping never crosses a process boundary, so every process that
regroups must arrive at the same permutation), ``HostGroups`` must
produce the slots its argsort + searchsorted + cumsum formulation
produced — the weights gathered by that formulation's permutation in
place of the permutation itself — and ``CSRGraph.from_edges`` must
still be a (src, dst) lexsort of its input.  Owners narrowed to
``uint8``/``uint16`` must partition as int32 ones do.  Allocation's
mirror-info bitmaps must union to the proxy tables the
descriptor-resolving formulation produced.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CuSP, GraphProp, compute_read_ranges, make_policy
from repro.core import assignment_phase
from repro.core.assignment_phase import (
    EdgeAssignment,
    HostGroups,
    assignment_from_owners,
    host_edge_slice,
    run_edge_assignment,
)
from repro.core import construction_phase
from repro.core.construction_phase import run_allocation
from repro.graph import erdos_renyi
from repro.graph.csr import (
    CSRGraph,
    narrow_group_keys,
    node_id_dtype,
    stable_group_order,
)
from repro.runtime.comm import Communicator
from repro.runtime.stats import PhaseStats

from .strategies import graphs
from .test_faults import assert_same_partition

#: Both dtype boundaries (uint8 up to 256 keys, uint16 up to 65 536)
#: from either side, and the plain-argsort fallback beyond.
BOUNDARY_NUM_KEYS = [1, 2, 255, 256, 257, 65_535, 65_536, 65_537]


def boundary_keys(num_keys: int, dtype=np.int32) -> np.ndarray:
    """Shuffled keys hitting 0, ``num_keys - 1`` and a spread between."""
    rng = np.random.default_rng(num_keys)
    keys = np.concatenate([
        rng.integers(0, num_keys, size=4000),
        # The values a wrapped narrowing would confuse with small ones.
        np.array([0, num_keys - 1, num_keys // 2, 0, num_keys - 1]),
        np.arange(max(0, num_keys - 300), num_keys),
    ])
    rng.shuffle(keys)
    return keys.astype(dtype)


class TestStableGroupOrder:
    @pytest.mark.parametrize("num_keys", BOUNDARY_NUM_KEYS)
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_equals_stable_argsort_at_dtype_boundaries(self, num_keys, dtype):
        keys = boundary_keys(num_keys, dtype)
        order = stable_group_order(keys, num_keys)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == expected.dtype
        np.testing.assert_array_equal(order, expected)

    @pytest.mark.parametrize("num_keys", BOUNDARY_NUM_KEYS)
    def test_negative_key_raises(self, num_keys):
        keys = boundary_keys(num_keys)
        keys[7] = -3
        with pytest.raises(ValueError, match=r"group key -3 out of range"):
            stable_group_order(keys, num_keys)

    @pytest.mark.parametrize("num_keys", BOUNDARY_NUM_KEYS)
    def test_key_at_num_keys_raises(self, num_keys):
        keys = boundary_keys(num_keys)
        keys[7] = num_keys
        with pytest.raises(
            ValueError, match=rf"group key {num_keys} out of range \[0, {num_keys}\)"
        ):
            stable_group_order(keys, num_keys)

    def test_empty(self):
        order = stable_group_order(np.empty(0, dtype=np.int32), 8)
        assert order.dtype == np.intp and order.size == 0
        assert stable_group_order(np.empty(0, dtype=np.int64), 0).size == 0

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        num_keys=st.one_of(
            st.integers(1, 40), st.sampled_from(BOUNDARY_NUM_KEYS)
        ),
        dtype=st.sampled_from([np.int32, np.int64]),
        stride=st.sampled_from([1, 2, 3, -1]),
    )
    def test_property_equals_stable_argsort(
        self, data, num_keys, dtype, stride
    ):
        values = st.one_of(
            st.integers(0, num_keys - 1),
            # Single-valued arrays and the two extremes, often.
            st.sampled_from([0, num_keys - 1]),
        )
        single = data.draw(st.booleans())
        if single:
            keys = [data.draw(values)] * data.draw(st.integers(0, 60))
        else:
            keys = data.draw(st.lists(values, max_size=200))
        # Strided slices of a wider buffer: non-contiguous keys.
        keys = np.repeat(np.array(keys, dtype=dtype), abs(stride))[::stride]
        order = stable_group_order(keys, num_keys)
        np.testing.assert_array_equal(
            order, np.argsort(keys, kind="stable")
        )


def reference_id_dtype(num_nodes):
    """The first of uint16 / uint32 / int64 whose range holds the
    largest node id."""
    return next(
        np.dtype(dt) for dt in (np.uint16, np.uint32, np.int64)
        if num_nodes - 1 <= np.iinfo(dt).max
    )


def reference_host_groups(
    owner, src, dst, num_hosts, weights=None, num_nodes=None, masters=None
):
    """The ``HostGroups`` slots by the pre-counting-sort formulas;
    ``w_sorted`` is the weights the stable permutation gathers
    (``None`` for an unweighted host).  The endpoint columns are held at
    node-id width; each nonempty group's bitmap packs the ``union1d`` of
    its sources and destinations, and ``mirrors[j]`` counts the members
    of that union not mastered on ``j`` (``None`` without masters)."""
    order = np.argsort(owner, kind="stable")
    cuts = np.searchsorted(owner[order], np.arange(num_hosts + 1))
    s, d = src[order], dst[order]
    n = s.size
    if n:
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(s[1:], s[:-1], out=keep[1:])
        starts = cuts[:-1]
        keep[starts[starts < n]] = True
        usrc = s[keep]
        usrc_cuts = np.concatenate(([0], np.cumsum(keep)))[cuts]
    else:
        usrc = s
        usrc_cuts = np.zeros(cuts.size, dtype=np.int64)
    if num_nodes is None:
        num_nodes = int(max(s.max(initial=-1), d.max(initial=-1))) + 1
    bitmaps = []
    mirrors = None if masters is None else np.zeros(num_hosts, dtype=np.int64)
    for j in range(num_hosts):
        lo, hi = cuts[j], cuts[j + 1]
        if lo == hi:
            continue
        ends = np.union1d(s[lo:hi], d[lo:hi])
        mask = np.zeros(num_nodes, dtype=bool)
        mask[ends] = True
        bitmaps.append((j, np.packbits(mask)))
        if masters is not None:
            mirrors[j] = np.count_nonzero(masters[ends] != j)
    ids = reference_id_dtype(num_nodes)
    return {
        "cuts": cuts, "src_sorted": s.astype(ids),
        "dst_sorted": d.astype(ids),
        "w_sorted": None if weights is None else weights[order],
        "usrc": usrc, "usrc_cuts": usrc_cuts,
        "bitmaps": bitmaps, "mirrors": mirrors,
    }


def assert_slots_equal(groups: HostGroups, expected: dict) -> None:
    # No slot beyond the reference's: the permutation is not kept.
    assert set(HostGroups.__slots__) == set(expected)
    for slot in HostGroups.__slots__:
        got, want = getattr(groups, slot), expected[slot]
        if want is None:
            assert got is None, slot
            continue
        if slot == "bitmaps":
            assert [j for j, _ in got] == [j for j, _ in want]
            for (j, bits), (_, ref) in zip(got, want):
                assert bits.dtype == ref.dtype == np.uint8
                np.testing.assert_array_equal(bits, ref, err_msg=f"bitmap {j}")
            continue
        assert got.dtype == want.dtype, slot
        np.testing.assert_array_equal(got, want, err_msg=slot)


@st.composite
def host_inputs(draw):
    """(owner, src, dst, num_hosts, weights) as one reading host sees
    them, and the (graph, (start, stop)) its edges were read from.

    ``src``/``dst`` are a host's slice of a CSR walk (``src``
    non-decreasing); owners are drawn from a *subset* of the hosts so
    first, last and interior groups come out empty, and the node range
    may hold no edge at all.
    """
    graph = draw(graphs(weighted=draw(st.booleans())))
    start = draw(st.integers(0, graph.num_nodes))
    stop = draw(st.integers(start, graph.num_nodes))
    src, dst, weights = host_edge_slice(graph, start, stop)
    num_hosts = draw(st.integers(1, 9))
    live = draw(st.lists(
        st.integers(0, num_hosts - 1), min_size=1, max_size=num_hosts,
        unique=True,
    ))
    owner = draw(st.lists(
        st.sampled_from(live), min_size=src.size, max_size=src.size
    ))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return (
        np.array(owner, dtype=dtype), src, dst, num_hosts, weights,
        graph, (start, stop),
    )


class TestHostGroups:
    @settings(max_examples=200, deadline=None)
    @given(host_inputs(), st.data())
    def test_slots_equal_argsort_formulation(self, inputs, data):
        owner, src, dst, num_hosts, weights, graph, _ = inputs
        n = graph.num_nodes
        masters = np.array(
            data.draw(st.lists(
                st.integers(0, num_hosts - 1), min_size=n, max_size=n
            )),
            dtype=np.int32,
        )
        # Node range from the ids, then as the phases pass it.
        for kwargs in ({}, {"num_nodes": n, "masters": masters}):
            assert_slots_equal(
                HostGroups(owner, src, dst, num_hosts, weights, **kwargs),
                reference_host_groups(
                    owner, src, dst, num_hosts, weights, **kwargs
                ),
            )

    @settings(max_examples=100, deadline=None)
    @given(host_inputs())
    def test_pickles_to_none_and_regroups_to_live_object(self, inputs):
        owner, src, dst, num_hosts, weights, graph, host_range = inputs
        live = HostGroups(
            owner, src, dst, num_hosts, weights, num_nodes=graph.num_nodes
        )
        assert pickle.loads(pickle.dumps(live)) is None
        # The grouping installed where the body ran is lost on the way
        # through a pickle; host 0 reads the slice.
        assignment = EdgeAssignment(num_hosts, [host_range] * num_hosts)
        assignment.owners[0] = owner
        assignment._groups[0] = live
        shipped = pickle.loads(pickle.dumps(assignment))
        assert shipped._groups == [None] * num_hosts
        regrouped = shipped.host_groups(0, graph)
        assert regrouped is not live
        assert shipped.host_groups(0, graph) is regrouped  # cached again
        assert_slots_equal(
            regrouped, {s: getattr(live, s) for s in HostGroups.__slots__}
        )

    @pytest.mark.parametrize("num_hosts", [8, 256, 300, 70_000])
    def test_wide_host_counts(self, num_hosts):
        rng = np.random.default_rng(num_hosts)
        src = np.sort(rng.integers(0, 500, size=3000))
        dst = rng.integers(0, 500, size=3000)
        owner = rng.integers(0, num_hosts, size=3000).astype(np.int32)
        owner[:2] = (0, num_hosts - 1)
        for weights in (None, rng.random(3000)):
            # Narrowed owners (what the assignment phase holds) group
            # the same as int32 ones.
            for keys in (owner, narrow_group_keys(owner, num_hosts)):
                assert_slots_equal(
                    HostGroups(keys, src, dst, num_hosts, weights),
                    reference_host_groups(owner, src, dst, num_hosts, weights),
                )

    def test_negative_owner_raises(self):
        src = dst = np.arange(4, dtype=np.int64)
        owner = np.array([0, -1, 2, 1], dtype=np.int32)
        with pytest.raises(ValueError, match=r"-1 out of range \[0, 3\)"):
            HostGroups(owner, src, dst, 3)

    def test_owner_at_num_hosts_raises(self):
        src = dst = np.arange(4, dtype=np.int64)
        owner = np.array([0, 3, 2, 1], dtype=np.int32)
        with pytest.raises(ValueError, match=r"3 out of range \[0, 3\)"):
            HostGroups(owner, src, dst, 3)


class TestNarrowOwners:
    """The assignment phase holds owners in the narrowest unsigned dtype
    (one byte up to 256 hosts, two up to 65 536); either side of the
    first boundary partitions exactly as int32 owners do."""

    @pytest.mark.parametrize("k,dtype", [(256, np.uint8), (257, np.uint16)])
    def test_partition_equals_int32_owners(self, monkeypatch, k, dtype):
        graph = erdos_renyi(600, 6000, seed=5)
        narrow = assignment_phase.narrow_group_keys
        held = []

        def recording(keys, num_keys):
            held.append(narrow(keys, num_keys))
            return held[-1]

        monkeypatch.setattr(assignment_phase, "narrow_group_keys", recording)
        narrowed = CuSP(k, "DBH").partition(graph)
        assert {owner.dtype for owner in held} == {np.dtype(dtype)}
        # Degree hashing reaches the last host, so a wrapped narrowing
        # would show.
        assert max(int(owner.max(initial=0)) for owner in held) == k - 1

        monkeypatch.setattr(
            assignment_phase, "narrow_group_keys", lambda keys, _n: keys
        )
        wide = CuSP(k, "DBH").partition(graph)
        assert_same_partition(narrowed, wide)
        assert narrowed.breakdown.phases == wide.breakdown.phases


def drawn_masters(data, k, n):
    return np.array(
        data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int32,
    )


class TestNodeIdWidth:
    """Grouped endpoint columns and edge blocks hold node ids in the
    narrowest of uint16 / uint32 / int64 that fits ``[0, n)``; a
    partition built from them equals one built from int64 columns."""

    @pytest.mark.parametrize("num_nodes,dtype", [
        (0, np.uint16), (1, np.uint16), (65_536, np.uint16),
        (65_537, np.uint32), (1 << 32, np.uint32), ((1 << 32) + 1, np.int64),
    ])
    def test_tiers(self, num_nodes, dtype):
        got = node_id_dtype(num_nodes)
        assert got == np.dtype(dtype) == reference_id_dtype(max(num_nodes, 1))
        # The largest id of the tier's last node count still fits.
        if num_nodes and got != np.int64:
            top = np.array([num_nodes - 1], dtype=np.int64)
            assert int(top.astype(got)[0]) == num_nodes - 1

    @staticmethod
    def top_heavy_graph(num_nodes: int) -> CSRGraph:
        """Random edges, plus edges in and out of the largest id and of
        ids that wrap to small ones one tier too narrow."""
        src, dst = erdos_renyi(num_nodes, 20_000, seed=num_nodes).edges()
        top = num_nodes - 1
        extra_src = [top, top, 0, 256, 65_535, top]
        extra_dst = [0, 256, top, top, top, 65_535]
        return CSRGraph.from_edges(
            np.concatenate([src, extra_src]),
            np.concatenate([dst, extra_dst]),
            num_nodes=num_nodes,
        )

    @pytest.mark.parametrize("num_nodes,dtype", [
        (65_536, np.uint16), (65_537, np.uint32),
    ])
    @pytest.mark.parametrize("policy", ["CVC", "SVC"])
    def test_partition_equals_int64_columns(
        self, monkeypatch, num_nodes, dtype, policy
    ):
        graph = self.top_heavy_graph(num_nodes)
        held = []
        groups_init = HostGroups.__init__

        def recording(self, *args, **kwargs):
            groups_init(self, *args, **kwargs)
            held.append((self.src_sorted.dtype, self.dst_sorted.dtype))

        monkeypatch.setattr(HostGroups, "__init__", recording)
        narrowed = CuSP(4, policy, sync_rounds=3).partition(graph)
        assert set(held) == {(np.dtype(dtype), np.dtype(dtype))}
        narrowed.validate(graph)

        def wide(_num_nodes):
            return np.dtype(np.int64)

        monkeypatch.setattr(assignment_phase, "node_id_dtype", wide)
        monkeypatch.setattr(construction_phase, "node_id_dtype", wide)
        held.clear()
        int64 = CuSP(4, policy, sync_rounds=3).partition(graph)
        assert set(held) == {(np.dtype(np.int64), np.dtype(np.int64))}
        assert_same_partition(narrowed, int64)
        assert narrowed.breakdown.phases == int64.breakdown.phases

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_owner_without_edges_keeps_an_empty_weight_column(self, executor):
        # Every edge leaves node 0, so under an edge cut (owner = the
        # source's master) hosts 1..3 receive nothing.
        graph = CSRGraph.from_edges(
            np.zeros(7, dtype=np.int64), np.arange(1, 8), num_nodes=8,
            edge_data=np.arange(7, dtype=np.int32),
        )
        with CuSP(4, "EEC", executor=executor) as cusp:
            dg = cusp.partition(graph)
        assert [p.num_edges for p in dg.partitions] == [7, 0, 0, 0]
        for p in dg.partitions:
            assert p.local_graph.edge_data is not None
            assert p.local_graph.edge_data.dtype == np.int32
        dg.validate(graph)


class TestMirrorInfoBitmaps:
    """One presence mask per (reader, owner) pair with edges, built by
    the grouping, yields both the packed bitmap ``run_allocation``
    exchanges and the mirror count edge assignment charges.  The
    references are the formulations they replaced: each owner resolving
    slices of every reader's group cache and unioning them with what it
    masters, and the per-peer mask ``& (masters != j)`` count."""

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs(), data=st.data())
    def test_proxies_equal_descriptor_union(self, graph, data):
        # graphs(): node counts off a multiple of 8, parallel edges,
        # self-loops and edgeless graphs all occur; one host and owners
        # drawn from a subset (empty groups) are drawn here.
        k = data.draw(st.integers(1, 5))
        n = graph.num_nodes
        prop = GraphProp(graph, k)
        ranges = compute_read_ranges(graph, k)
        live = data.draw(st.lists(
            st.integers(0, k - 1), min_size=1, max_size=k, unique=True
        ))
        owners = []
        for start, stop in ranges:
            size = int(graph.indptr[stop] - graph.indptr[start])
            owners.append(np.array(
                data.draw(st.lists(
                    st.sampled_from(live), min_size=size, max_size=size
                )),
                dtype=np.int32,
            ))
        masters = drawn_masters(data, k, n)
        assignment = assignment_from_owners(prop, ranges, owners)
        phase = PhaseStats(name="alloc", comm=Communicator(k), num_hosts=k)
        proxies = run_allocation(phase, prop, assignment, masters)
        refs = [
            reference_host_groups(
                owners[h], *host_edge_slice(graph, start, stop)[:2], k,
                num_nodes=n,
            )
            for h, (start, stop) in enumerate(ranges)
        ]
        # What group-endpoints shipped is what each grouping stored.
        for h, ref in enumerate(refs):
            assert_slots_equal(assignment.host_groups(h, graph), ref)
        assert len(proxies) == k
        for j, gids in enumerate(proxies):
            mark = np.zeros(n, dtype=bool)
            mark[np.flatnonzero(masters == j)] = True
            for ref in refs:
                lo, hi = ref["cuts"][j], ref["cuts"][j + 1]
                u_lo, u_hi = ref["usrc_cuts"][j], ref["usrc_cuts"][j + 1]
                mark[ref["usrc"][u_lo:u_hi]] = True
                mark[ref["dst_sorted"][lo:hi]] = True
            expected = np.flatnonzero(mark)
            assert gids.dtype == expected.dtype
            np.testing.assert_array_equal(gids, expected)
            assert phase.compute_units[j] == float(gids.size) + float(
                assignment.to_receive[j]
            )

    @settings(max_examples=100, deadline=None)
    @given(graph=graphs(), data=st.data())
    def test_mirror_counts_and_charges(self, graph, data):
        k = data.draw(st.integers(1, 5))
        n = graph.num_nodes
        prop = GraphProp(graph, k)
        ranges = compute_read_ranges(graph, k)
        masters = drawn_masters(data, k, n)
        policy = make_policy(data.draw(st.sampled_from(["CVC", "DBH"])))
        phase = PhaseStats(name="assign", comm=Communicator(k), num_hosts=k)
        ea = run_edge_assignment(phase, prop, policy, ranges, masters)
        for h, (start, stop) in enumerate(ranges):
            src, dst, _ = host_edge_slice(graph, start, stop)
            ref = reference_host_groups(
                ea.owners[h], src, dst, k, num_nodes=n, masters=masters
            )
            assert_slots_equal(ea.host_groups(h, graph), ref)
            # The edge-counts message: 8 B per node read plus one mirror
            # entry per endpoint mastered elsewhere, or the empty one.
            for j in range(k):
                if j == h:
                    continue
                want = (
                    (stop - start) * 8 + 12 * int(ref["mirrors"][j])
                    if ea.edges_to[h, j] else 8
                )
                assert phase.comm.sent_bytes[h, j] == want, (h, j)
            # Owner evaluation + count update per edge, then one unit
            # per edge-counts block tallied.
            assert phase.compute_units[h] == 2.0 * src.size + (k - 1)


class TestFromEdgesAgainstLexsort:
    @settings(max_examples=200, deadline=None)
    @given(graph=graphs(weighted=True), data=st.data(), dedup=st.booleans())
    def test_weighted_multigraph(self, graph, data, dedup):
        # graphs() hands back a built CSR; shuffle its edges so the
        # input is the unsorted multigraph from_edges exists to sort.
        src, dst = graph.edges()
        perm = np.array(
            data.draw(st.permutations(range(src.size))), dtype=np.int64
        )
        src, dst, w = src[perm], dst[perm], graph.edge_data[perm]
        order = np.lexsort((dst, src))
        s, d, ww = src[order], dst[order], w[order]
        if dedup and s.size:
            first = np.ones(s.size, dtype=bool)
            first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
            s, d, ww = s[first], d[first], ww[first]
        built = CSRGraph.from_edges(
            src, dst, num_nodes=graph.num_nodes, edge_data=w, dedup=dedup
        )
        np.testing.assert_array_equal(built.edge_sources(), s)
        np.testing.assert_array_equal(built.indices, d)
        np.testing.assert_array_equal(built.edge_data, ww)
        assert built.indptr.dtype == np.int64
        assert built.indices.dtype == np.int64
        assert built.edge_data.dtype == w.dtype
