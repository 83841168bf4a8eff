"""Bytes per edge of a warm ``partition()`` call.

Every phase output lives once: the in-memory checkpoint hands back the
phase's own (frozen) arrays, a host's grouping keeps no permutation,
owners are one byte per edge up to 256 hosts, and the grouped endpoint
columns that ``ship-edges`` sends and pins until ``build-partition`` are
two bytes per id up to 65 536 nodes.  The traced peak of a warm serial
call — everything NumPy and Python allocate during it that is live at
once, the input graph excluded — is pinned here in bytes per edge,
about 10 % above what it measures, so a copy or an int64 column that
comes back fails this suite and not only the benchmark.  (Before the
owner, permutation and checkpoint cuts: 56.6 B/edge for CVC, 57.7 for
SVC on this graph; before the node-id width cut: 36.3 and 37.4.)
"""

import tracemalloc

import pytest

from repro.core import CuSP
from repro.graph.generators import webcrawl_like

#: The benchmark's generator at a fifth of its size: 433 200 edges.
GRAPH = webcrawl_like(12_000, 36.1, seed=34)


@pytest.mark.parametrize("policy,bound", [
    # Measured 22.8 and 23.9 B/edge.
    ("CVC", 25.0), ("SVC", 26.0),
])
def test_warm_call_peak_bytes_per_edge(policy, bound):
    with CuSP(8, policy, sync_rounds=10) as cusp:
        cusp.partition(GRAPH)  # the cold call: first-use caches, imports
        tracemalloc.start()
        try:
            dg = cusp.partition(GRAPH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert dg.num_global_edges == GRAPH.num_edges
    assert peak / GRAPH.num_edges < bound, (
        f"{policy}: {peak / GRAPH.num_edges:.1f} B/edge traced"
    )
