"""Property tests: partition I/O round-trips, window partitioner, and
baselines over arbitrary graphs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import MultilevelPartitioner, XtraPulp
from repro.core import CuSP, load_partitions, save_partitions, window_policy

from tests.strategies import graphs


@settings(max_examples=15, deadline=None)
@given(g=graphs(weighted=True), k=st.integers(1, 4),
       policy=st.sampled_from(["EEC", "CVC", "HVC"]))
def test_partition_io_roundtrip(g, k, policy, tmp_path_factory):
    dg = CuSP(k, policy).partition(g)
    root = tmp_path_factory.mktemp("io")
    save_partitions(dg, root)
    loaded = load_partitions(root)
    loaded.validate(g)
    assert np.array_equal(loaded.masters, dg.masters)
    for a, b in zip(dg.partitions, loaded.partitions):
        assert a.local_graph == b.local_graph
        assert np.array_equal(a.global_ids, b.global_ids)


@settings(max_examples=20, deadline=None)
@given(g=graphs(max_nodes=25, max_edges=80), k=st.integers(1, 4),
       window=st.integers(1, 16), shuffle=st.booleans())
def test_window_partitioner_preserves_graph(g, k, window, shuffle):
    dg = CuSP(
        k, window_policy(window_size=window, shuffle_stream=shuffle)
    ).partition(g)
    dg.validate(g)


@settings(max_examples=15, deadline=None)
@given(g=graphs(max_nodes=30, max_edges=90), k=st.integers(1, 4))
def test_xtrapulp_preserves_graph(g, k):
    dg = XtraPulp(k, outer_iters=1).partition(g)
    dg.validate(g)


@settings(max_examples=15, deadline=None)
@given(g=graphs(max_nodes=30, max_edges=90), k=st.integers(1, 4))
def test_multilevel_preserves_graph(g, k):
    dg = MultilevelPartitioner(k).partition(g)
    dg.validate(g)


@settings(max_examples=15, deadline=None)
@given(g=graphs(max_nodes=25, max_edges=60), k=st.integers(1, 4),
       policy=st.sampled_from(["PGC", "HDRF"]))
def test_streaming_vertex_cuts_preserve_graph(g, k, policy):
    dg = CuSP(k, policy).partition(g)
    dg.validate(g)


@settings(max_examples=15, deadline=None)
@given(g=graphs(max_nodes=30, max_edges=90), k=st.integers(1, 5),
       policy=st.sampled_from(["BVC", "JVC", "LEC"]))
def test_table1_policies_preserve_graph(g, k, policy):
    dg = CuSP(k, policy, sync_rounds=2).partition(g)
    dg.validate(g)
