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

from repro.core import CuSP, GraphProp, compute_read_ranges
from repro.core import assignment_phase
from repro.core.assignment_phase import (
    EdgeAssignment,
    HostGroups,
    assignment_from_owners,
    host_edge_slice,
)
from repro.core.construction_phase import run_allocation
from repro.graph import erdos_renyi
from repro.graph.csr import CSRGraph, narrow_group_keys, stable_group_order
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


def reference_host_groups(owner, src, dst, num_hosts, weights=None):
    """The ``HostGroups`` slots by the pre-counting-sort formulas;
    ``w_sorted`` is the weights the stable permutation gathers
    (``None`` for an unweighted host)."""
    order = np.argsort(owner, kind="stable")
    cuts = np.searchsorted(owner[order], np.arange(num_hosts + 1))
    s = src[order]
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
    return {
        "cuts": cuts, "src_sorted": s,
        "dst_sorted": dst[order],
        "w_sorted": None if weights is None else weights[order],
        "usrc": usrc, "usrc_cuts": usrc_cuts,
    }


def assert_slots_equal(groups: HostGroups, expected: dict) -> None:
    # No slot beyond the reference's: the permutation is not kept.
    assert set(HostGroups.__slots__) == set(expected)
    for slot in HostGroups.__slots__:
        got, want = getattr(groups, slot), expected[slot]
        if want is None:
            assert got is None, slot
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
    @given(host_inputs())
    def test_slots_equal_argsort_formulation(self, inputs):
        owner, src, dst, num_hosts, weights = inputs[:5]
        assert_slots_equal(
            HostGroups(owner, src, dst, num_hosts, weights),
            reference_host_groups(owner, src, dst, num_hosts, weights),
        )

    @settings(max_examples=100, deadline=None)
    @given(host_inputs())
    def test_pickles_to_none_and_regroups_to_live_object(self, inputs):
        owner, src, dst, num_hosts, weights, graph, host_range = inputs
        live = HostGroups(owner, src, dst, num_hosts, weights)
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


class TestMirrorInfoBitmaps:
    """``run_allocation`` exchanges one packed presence bitmap per
    (reader, owner) pair with edges; the reference is the formulation
    it replaced — each owner resolving slices of every reader's group
    cache and unioning them with what it masters by presence mask."""

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
        masters = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
            dtype=np.int32,
        )
        assignment = assignment_from_owners(prop, ranges, owners)
        phase = PhaseStats(name="alloc", comm=Communicator(k), num_hosts=k)
        proxies = run_allocation(phase, prop, assignment, masters)
        assert len(proxies) == k
        for j, gids in enumerate(proxies):
            mark = np.zeros(n, dtype=bool)
            mark[np.flatnonzero(masters == j)] = True
            for h, (start, stop) in enumerate(ranges):
                src, dst, _ = host_edge_slice(graph, start, stop)
                ref = reference_host_groups(owners[h], src, dst, k)
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
