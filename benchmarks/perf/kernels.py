"""Layer kernel pass: direct calls to each layer's public function.

Under the process executor most layers run inside pool workers, where
the span recorder cannot see them; this pass gives each of them a number
anyway.  Inputs are host 0's slice of the benchmark graph (what one
worker handles for one host), every figure is the best of
:data:`REPEATS` calls, and nothing here is an end-to-end metric.
"""

from __future__ import annotations

import time

import numpy as np

from workloads import NUM_HOSTS

REPEATS = 5


def _best(fn, setup=tuple) -> float:
    """Shortest wall-clock of ``fn(*setup())`` over REPEATS calls.

    ``setup`` builds each call's arguments outside the timed span, for
    kernels that consume or mutate their input.
    """
    best = float("inf")
    for _ in range(REPEATS):
        args = setup()
        t = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t)
        del result, args
    return best


def run(graph, seed: int) -> dict[str, float]:
    """``{metric: value}`` for every ``kernel.*`` per-layer metric."""
    from repro.core.assignment_phase import HostGroups, host_edge_slice
    from repro.core.edge_rules import make_edge_rule
    from repro.core.master_rules import make_master_rule
    from repro.core.partition_io import PartitionCheckpoint
    from repro.core.prop import GraphProp
    from repro.core.reading import compute_read_ranges
    from repro.graph.csr import CSRGraph
    from repro.runtime.colfab import ColumnSchema, MessageBatch
    from repro.runtime.executor import ProcessExecutor

    prop = GraphProp(graph, NUM_HOSTS)
    start, stop = compute_read_ranges(graph, NUM_HOSTS)[0]
    src, dst, _ = host_edge_slice(graph, start, stop)
    medges = src.size / 1e6
    all_nodes = np.arange(graph.num_nodes, dtype=np.int64)
    masters = make_master_rule("ContiguousEB").assign_batch(
        prop, all_nodes, None
    )
    out: dict[str, float] = {}

    # The partitioner feeds from_edges the edges a host *received*, in
    # arrival order; a seeded shuffle stands in for that (the slice as
    # read is already sorted, which would time the sort's best case).
    shuffle = np.random.default_rng(seed).permutation(src.size)
    s_src, s_dst = src[shuffle], dst[shuffle]
    out["kernel.csr.from_edges_medges_per_s"] = medges / _best(
        lambda: CSRGraph.from_edges(s_src, s_dst, num_nodes=graph.num_nodes)
    )

    cartesian = make_edge_rule("Cartesian")
    src_masters, dst_masters = masters[src], masters[dst]
    out["kernel.edge_rules.cartesian_owner_batch_medges_per_s"] = (
        medges / _best(lambda: cartesian.owner_batch(
            prop, src, dst, src_masters, dst_masters
        ))
    )
    owner = cartesian.owner_batch(prop, src, dst, src_masters, dst_masters)
    out["kernel.assignment_phase.host_groups_medges_per_s"] = medges / _best(
        lambda: HostGroups(owner, src, dst, NUM_HOSTS)
    )

    fennel = make_master_rule("FennelEB")
    host_nodes = all_nodes[start:stop]

    def fresh_fennel_state():
        state = fennel.make_state(NUM_HOSTS, NUM_HOSTS)
        return state.host_view(0), np.full(graph.num_nodes, -1, dtype=np.int32)

    out["kernel.master_rules.fenneleb_assign_batch_knodes_per_s"] = (
        host_nodes.size / 1e3 / _best(
            lambda view, scratch: fennel.assign_batch(
                prop, host_nodes, view, scratch
            ),
            setup=fresh_fennel_state,
        )
    )

    schema = ColumnSchema([("src", np.int64), ("dst", np.int64)])
    batch = MessageBatch(schema, (src, dst))
    mb = batch.nbytes / 1e6
    out["kernel.colfab.to_bytes_mb_per_s"] = mb / _best(batch.to_bytes)
    wire = batch.to_bytes()
    out["kernel.colfab.from_bytes_mb_per_s"] = mb / _best(
        lambda: MessageBatch.from_bytes(wire)
    )

    # publish() is idempotent per object, so every call gets an executor
    # and a GraphProp of its own; close() (segment unlink) is not timed.
    slice_graph = graph.subgraph_rows(start, stop)
    executors: list[ProcessExecutor] = []

    def fresh_executor():
        executors.append(ProcessExecutor())
        return executors[-1], GraphProp(slice_graph, NUM_HOSTS)

    try:
        out["kernel.executor.publish_mb_per_s"] = (
            slice_graph.nbytes() / 1e6 / _best(
                lambda executor, obj: executor.publish("prop", obj),
                setup=fresh_executor,
            )
        )
    finally:
        for executor in executors:
            executor.close()

    out["kernel.partition_io.roundtrip_mb_per_s"] = owner.nbytes / 1e6 / _best(
        lambda: PartitionCheckpoint().roundtrip("assignment", owners_0=owner)
    )
    return out
