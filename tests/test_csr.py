"""Unit tests for the CSR graph structure."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph
from repro.graph import csr


def small():
    # 0->1, 0->2, 1->2, 2->0, 3 isolated
    return CSRGraph.from_edges([0, 0, 1, 2], [1, 2, 2, 0], num_nodes=4)


class TestConstruction:
    def test_from_edges_basic(self):
        g = small()
        assert g.num_nodes == 4
        assert g.num_edges == 4
        assert g.edge_set() == {(0, 1), (0, 2), (1, 2), (2, 0)}

    def test_from_edges_infers_num_nodes(self):
        g = CSRGraph.from_edges([0, 5], [5, 0])
        assert g.num_nodes == 6

    def test_from_edges_sorts(self):
        g = CSRGraph.from_edges([2, 0, 1, 0], [0, 2, 2, 1], num_nodes=3)
        src, dst = g.edges()
        assert src.tolist() == [0, 0, 1, 2]
        assert dst.tolist() == [1, 2, 2, 0]

    def test_from_edges_dedup(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 2], num_nodes=3, dedup=True)
        assert g.num_edges == 2
        assert g.edge_set() == {(0, 1), (0, 2)}

    def test_from_edges_keeps_duplicates_by_default(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], num_nodes=2)
        assert g.num_edges == 2

    def test_dedup_keeps_first_payload(self):
        g = CSRGraph.from_edges(
            [0, 0], [1, 1], num_nodes=2, edge_data=[7, 9], dedup=True
        )
        assert g.edge_data.tolist() == [7]

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_nodes == 5
        assert g.num_edges == 0
        assert g.out_degree().tolist() == [0] * 5

    def test_zero_node_graph(self):
        g = CSRGraph.empty(0)
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_mismatched_src_dst_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0, 1], [0])

    def test_out_of_range_destination_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [5], num_nodes=2)

    def test_out_of_range_source_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([5], [0], num_nodes=2)

    def test_negative_node_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([-1], [0], num_nodes=2)

    def test_bad_indptr_raises(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 0]))
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 3]), indices=np.array([0]))

    def test_float_indices_rejected(self):
        with pytest.raises(TypeError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0.5]))

    def test_edge_data_length_checked(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([0], [1], num_nodes=2, edge_data=[1, 2])


class TestFromEdgesWidths:
    """Integer columns keep their width through ``from_edges`` (the fused
    sort key is ``uint32`` up to 65 536 nodes, int64 above) and build the
    graph int64 columns build, with int64 indices."""

    @staticmethod
    def edges(num_nodes):
        """Random edges, the extremes of the id range, and duplicates."""
        rng = np.random.default_rng(num_nodes)
        src = rng.integers(0, num_nodes, size=6000)
        dst = rng.integers(0, num_nodes, size=6000)
        top = num_nodes - 1
        src = np.concatenate([src, src[:500], [top, top, 0, top, 1]])
        dst = np.concatenate([dst, dst[:500], [0, top, top, top, 1]])
        perm = rng.permutation(src.size)
        return src[perm], dst[perm]

    @pytest.mark.parametrize("num_nodes,dtype", [
        (65_536, np.uint16), (65_536, np.int32), (65_536, np.uint32),
        (65_537, np.int32), (65_537, np.uint32),
    ])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_narrow_columns_build_the_int64_graph(self, num_nodes, dtype, dedup):
        src, dst = self.edges(num_nodes)
        weights = np.arange(src.size, dtype=np.float32)
        for nodes in (num_nodes, None):
            for data in (None, weights):
                want = CSRGraph.from_edges(
                    src, dst, num_nodes=nodes, edge_data=data, dedup=dedup
                )
                got = CSRGraph.from_edges(
                    src.astype(dtype), dst.astype(dtype), num_nodes=nodes,
                    edge_data=data, dedup=dedup,
                )
                assert got.num_nodes == want.num_nodes == num_nodes
                assert got.indices.dtype == np.int64
                assert got == want

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    @pytest.mark.parametrize("column,message", [
        (0, "edge sources out of range"), (1, "edge destinations out of range"),
    ])
    def test_negative_id_raises_the_same_error(self, dtype, column, message):
        cols = [np.array([0, 1, 2], dtype=dtype), np.array([1, 2, 0], dtype=dtype)]
        cols[column][1] = -1
        with pytest.raises(ValueError, match=f"^{message}$"):
            CSRGraph.from_edges(*cols, num_nodes=3)


def reference_csr(src, dst, num_nodes, edge_data=None, dedup=False):
    """``(indptr, indices, edge_data)`` by ``np.lexsort`` and a gather,
    written apart from ``from_edges``: lexsort is stable, so duplicate
    edges keep their input order and ``dedup`` keeps the first payload;
    row bounds come from a binary search of the sorted sources."""
    src = np.asarray(src).astype(np.int64)
    dst = np.asarray(dst).astype(np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    data = None if edge_data is None else np.asarray(edge_data)[order]
    if dedup:
        first = np.ones(src.size, dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[first], dst[first]
        data = None if data is None else data[first]
    indptr = np.searchsorted(src, np.arange(num_nodes + 1))
    return indptr, dst, data


def assert_matches_reference(src, dst, num_nodes, edge_data=None, dedup=False):
    g = CSRGraph.from_edges(
        src, dst, num_nodes=num_nodes, edge_data=edge_data, dedup=dedup
    )
    indptr, indices, data = reference_csr(src, dst, num_nodes, edge_data, dedup)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    np.testing.assert_array_equal(g.indptr, indptr)
    np.testing.assert_array_equal(g.indices, indices)
    if edge_data is None:
        assert g.edge_data is None
    else:
        np.testing.assert_array_equal(g.edge_data, data)


class TestFromEdgesReference:
    """``from_edges`` against :func:`reference_csr` on both of its sorts:
    the in-place value sort of the fused key (no payload) and the stable
    permutation a payload follows, on both key tiers (``uint32`` up to
    65 536 nodes, int64 above)."""

    @staticmethod
    def edges(num_nodes, dtype):
        """Unsorted edges with duplicates and the extremes of the id
        range, arriving as a few sorted runs (as a host receives them)
        followed by a shuffled tail."""
        rng = np.random.default_rng(num_nodes)
        src = rng.integers(0, num_nodes, size=4000)
        dst = rng.integers(0, num_nodes, size=4000)
        top = num_nodes - 1
        src = np.concatenate([src, src[:400], [top, top, 0, top, 0]])
        dst = np.concatenate([dst, dst[:400], [0, top, top, top, 0]])
        runs = np.array_split(rng.permutation(src.size), 5)
        order = np.concatenate(
            [run[np.lexsort((dst[run], src[run]))] for run in runs]
        )
        order[3000:] = rng.permutation(order[3000:])
        return src[order].astype(dtype), dst[order].astype(dtype)

    @pytest.mark.parametrize("num_nodes,dtype", [
        (7, np.uint16), (7, np.int64),
        (65_536, np.uint16), (65_536, np.int32), (65_536, np.uint32),
        (65_536, np.int64),
        (65_537, np.int32), (65_537, np.uint32), (65_537, np.int64),
    ])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_matches_lexsort_reference(self, num_nodes, dtype, weighted, dedup):
        src, dst = self.edges(num_nodes, dtype)
        data = np.arange(src.size, dtype=np.float64) if weighted else None
        assert_matches_reference(src, dst, num_nodes, data, dedup)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.uint32, np.int64])
    @pytest.mark.parametrize("num_nodes", [0, 1, 5, 65_537])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_empty_edge_lists(self, dtype, num_nodes, weighted, dedup):
        empty = np.empty(0, dtype=dtype)
        data = np.empty(0, dtype=np.float32) if weighted else None
        assert_matches_reference(empty, empty, num_nodes, data, dedup)

    def test_duplicates_keep_input_order_and_dedup_keeps_the_first(self):
        src, dst = [1, 0, 1, 1, 0], [2, 1, 2, 2, 1]
        weights = [10, 20, 30, 40, 50]
        g = CSRGraph.from_edges(src, dst, num_nodes=3, edge_data=weights)
        assert g.indices.tolist() == [1, 1, 2, 2, 2]
        assert g.edge_data.tolist() == [20, 50, 10, 30, 40]
        g = CSRGraph.from_edges(
            src, dst, num_nodes=3, edge_data=weights, dedup=True
        )
        assert g.indptr.tolist() == [0, 1, 2, 2]
        assert g.indices.tolist() == [1, 2]
        assert g.edge_data.tolist() == [20, 10]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_past_the_composite_limit(self, monkeypatch, weighted, dedup):
        """Graphs too large for the fused key take the lexsort order,
        with or without a payload."""
        monkeypatch.setattr(csr, "_MAX_COMPOSITE_NODES", 50)
        src, dst = self.edges(60, np.int32)
        data = np.arange(src.size) if weighted else None
        assert_matches_reference(src, dst, 60, data, dedup)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property_matches_reference(self, data):
        dtype = data.draw(
            st.sampled_from([np.uint16, np.int32, np.uint32, np.int64])
        )
        num_nodes = data.draw(st.one_of(
            st.integers(0, 40), st.sampled_from([65_535, 65_536, 65_537])
        ))
        if dtype is np.uint16:
            num_nodes = min(num_nodes, 65_536)
        m = data.draw(st.integers(0, 60)) if num_nodes else 0
        ids = st.lists(
            st.integers(0, max(num_nodes - 1, 0)), min_size=m, max_size=m
        )
        src = np.array(data.draw(ids), dtype=dtype)
        dst = np.array(data.draw(ids), dtype=dtype)
        weights = None
        if data.draw(st.booleans()):
            weights = np.array(
                data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)),
                dtype=np.int64,
            )
        assert_matches_reference(
            src, dst, num_nodes, weights, data.draw(st.booleans())
        )

    def test_payload_free_peak_bytes_per_edge(self):
        """Sorting key values leaves two per-edge arrays live at once, the
        ``uint32`` key and the int64 destinations: about 13 B/edge here
        with the row pointers (22.8 while a stable permutation and its
        gather were built)."""
        rng = np.random.default_rng(5)
        num_edges = 400_000
        src = rng.integers(0, 65_536, size=num_edges).astype(np.int32)
        dst = rng.integers(0, 65_536, size=num_edges).astype(np.int32)
        CSRGraph.from_edges(src, dst, num_nodes=65_536)
        tracemalloc.start()
        try:
            g = CSRGraph.from_edges(src, dst, num_nodes=65_536)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.num_edges == num_edges
        assert peak / num_edges < 16.0, f"{peak / num_edges:.1f} B/edge traced"


class TestAccessors:
    def test_degrees(self):
        g = small()
        assert g.out_degree().tolist() == [2, 1, 1, 0]
        assert g.in_degree().tolist() == [1, 1, 2, 0]
        assert g.out_degree(0) == 2
        assert g.out_degree(np.array([0, 3])).tolist() == [2, 0]

    def test_neighbors(self):
        g = small()
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(3).tolist() == []

    def test_edge_sources_alignment(self):
        g = small()
        src = g.edge_sources()
        assert src.tolist() == [0, 0, 1, 2]

    def test_edge_weights(self):
        g = CSRGraph.from_edges([0, 0], [1, 2], num_nodes=3, edge_data=[10, 20])
        assert g.edge_weights(0).tolist() == [10, 20]
        assert small().edge_weights(0) is None

    def test_nbytes_positive(self):
        assert small().nbytes() > 0


class TestTransforms:
    def test_transpose_roundtrip(self):
        g = small()
        assert g.transpose().transpose() == g

    def test_transpose_reverses_edges(self):
        g = small()
        t = g.transpose()
        assert t.edge_set() == {(d, s) for s, d in g.edge_set()}

    def test_transpose_carries_weights(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], num_nodes=2, edge_data=[5, 7])
        t = g.transpose()
        # edge 0->1 (w=5) becomes 1->0? No: transpose of (0,1,w5) is (1,0,w5)
        weights = {(s, d): w for s, d, w in zip(*t.edges(), t.edge_data.tolist())}
        assert weights == {(1, 0): 5, (0, 1): 7}

    def test_symmetrize(self):
        g = CSRGraph.from_edges([0], [1], num_nodes=3)
        s = g.symmetrize()
        assert s.edge_set() == {(0, 1), (1, 0)}

    def test_symmetrize_dedups_bidirectional(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], num_nodes=2)
        assert g.symmetrize().num_edges == 2

    def test_with_uniform_weights(self):
        g = small().with_uniform_weights(3)
        assert g.is_weighted
        assert set(g.edge_data.tolist()) == {3}

    def test_with_random_weights_deterministic(self):
        a = small().with_random_weights(seed=42)
        b = small().with_random_weights(seed=42)
        assert np.array_equal(a.edge_data, b.edge_data)
        assert a.edge_data.min() >= 1

    def test_subgraph_rows(self):
        g = small()
        sub = g.subgraph_rows(0, 1)
        assert sub.edge_set() == {(0, 1), (0, 2)}
        assert sub.num_nodes == g.num_nodes

    def test_subgraph_rows_middle(self):
        g = small()
        sub = g.subgraph_rows(1, 3)
        assert sub.edge_set() == {(1, 2), (2, 0)}

    def test_subgraph_rows_invalid(self):
        with pytest.raises(ValueError):
            small().subgraph_rows(3, 1)
        with pytest.raises(ValueError):
            small().subgraph_rows(0, 99)

    def test_subgraph_rows_union_covers_graph(self):
        g = small()
        parts = [g.subgraph_rows(0, 2), g.subgraph_rows(2, 4)]
        union = set()
        for p in parts:
            union |= p.edge_set()
        assert union == g.edge_set()


class TestEquality:
    def test_eq(self):
        assert small() == small()

    def test_neq_different_edges(self):
        a = CSRGraph.from_edges([0], [1], num_nodes=2)
        b = CSRGraph.from_edges([1], [0], num_nodes=2)
        assert a != b

    def test_neq_weighted_vs_not(self):
        a = CSRGraph.from_edges([0], [1], num_nodes=2)
        b = CSRGraph.from_edges([0], [1], num_nodes=2, edge_data=[1])
        assert a != b

    def test_repr(self):
        assert "|V|=4" in repr(small())
