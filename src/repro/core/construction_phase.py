"""Phases 4 and 5: graph allocation and graph construction (paper §IV-B4-5).

Allocation: with the edge-assignment metadata in hand, each host knows its
final proxy and edge counts; it allocates its local CSR arrays and builds
its global-id -> local-id map.  Partitioning state is reset so the rules
would return identical values if re-evaluated (§IV-B4).

Construction: each host streams its read edges out to their owners —
serialized per source node, buffered up to the message-buffer threshold
(§IV-D3) — and inserts received edges into its preallocated structure.
If a CSC partition is requested, each host finishes with a local
in-memory transpose, which needs no communication (Algorithm 4 line 13).

Both phases share the
:class:`~repro.core.assignment_phase.HostGroups` owner grouping cached on
the :class:`~repro.core.assignment_phase.EdgeAssignment` (one stable sort
per host serves the endpoint bitmaps, edge shipping and the per-peer
unique source counts).  Edges travel as typed
:class:`~repro.runtime.colfab.MessageBatch` columns: each owner's
``src``/``dst`` (``w``) blocks as the grouping cut them, node ids at
node-id width (two bytes up to 65 536 nodes).  ``ship-edges`` is a
grouping's last reader, so the groupings are dropped at its barrier and
an owner's blocks live from their gather until that owner drains them.
``build-partition`` maps the ids to int32 local ids one bounded slice at
a time; payload-free ``CSRGraph.from_edges`` value-sorts the fused key
and takes ``dst`` as its remainder.  The bytes charged for an
edge block stay the paper's wire format (§IV-C3): 8 per distinct source
plus 8 (16 weighted) per edge, whatever the in-memory width.

Task bodies live at module level so the pooled process executor can ship
them by reference; the phase inputs they share (``assignment``,
``masters``, ``proxies``) are published as shared-memory residents so
workers map them zero-copy.  Allocation exchanges mirror info, not
pointers into a peer: each reading host sends every owner the presence
bitmap of the endpoints it contributes there, which its grouping packed
during edge assignment (``n / 8`` bytes per (reader, owner) pair with
edges, at most ``k² · n / 8`` per run), so no task reads a grouping of a
host it did not itself group.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph, node_id_dtype
from ..runtime.colfab import ColumnSchema, MessageBatch
from ..runtime.executor import HostTask, HostView
from ..runtime.stats import PhaseStats
from .assignment_phase import EdgeAssignment
from .partition import LocalPartition
from .policies import Policy
from .prop import GraphProp

__all__ = ["ReceivedEdgeCountError", "run_allocation", "run_construction"]


class ReceivedEdgeCountError(RuntimeError):
    """An owning host received a different number of edges than edge
    assignment told it to expect (Algorithm 3's ``toReceive``)."""

    def __init__(self, host: int, expected: int, received: int):
        super().__init__(
            f"host {host} received {received} edges; edge assignment "
            f"told it to expect {expected}"
        )
        self.host, self.expected, self.received = host, expected, received

    def __reduce__(self) -> tuple:
        # Survive the pool's worker -> parent hop with its fields: the
        # default replays __init__ with the message as its one argument.
        return (type(self), (self.host, self.expected, self.received))


# -- Task bodies ---------------------------------------------------------


def _group_endpoints_body(
    view: HostView, payload: tuple
) -> list[tuple[int, np.ndarray]]:
    """Mirror info from one reading host: per owner ``j`` that receives
    edges from it, ``(j, bitmap)`` — ``np.packbits`` of the presence
    mask over ``[0, n)`` of that group's distinct endpoints, as the
    grouping stored it."""
    assignment, prop, h = payload
    return assignment.host_groups(h, prop.graph).bitmaps


def _build_proxies_body(view: HostView, payload: tuple) -> np.ndarray:
    """Proxy-table union for one owning host: what it masters, OR-ed
    with the bitmap of every reader that sends it edges."""
    masters, bitmaps, to_receive, n, j = payload
    bits = np.packbits(masters == j)
    for bitmap in bitmaps:
        bits |= bitmap
    # unpackbits yields 0/1 bytes; read as bool, flatnonzero takes its
    # fast path (6x here) for the same ids.
    gids = np.flatnonzero(np.unpackbits(bits, count=n).view(bool))
    # Allocation work: local arrays sized by proxies + expected edges,
    # plus the global-to-local map construction.
    view.add_compute(float(gids.size) + float(to_receive))
    return gids


def _ship_edges_body(view: HostView, payload: tuple) -> None:
    """Edge shipping for one reading host."""
    assignment, prop, schema, per_edge, num_hosts, h = payload
    groups = assignment.host_groups(h, prop.graph)
    for j in range(num_hosts):
        edges = int(groups.cuts[j + 1] - groups.cuts[j])
        if edges == 0:
            continue
        cols = (groups.src_blocks[j], groups.dst_blocks[j])
        if groups.w_blocks is not None:
            cols += (groups.w_blocks[j],)
        # Serialized per source node: node id + its edge list (paper
        # §IV-C3); the per-peer unique source count falls out of the
        # group cache instead of an np.unique here.
        unique_srcs = int(groups.usrc_cuts[j + 1] - groups.usrc_cuts[j])
        nbytes = unique_srcs * 8 + edges * per_edge
        view.send_batch(
            j, MessageBatch(schema, cols), tag="edges",
            logical_messages=unique_srcs, nbytes=nbytes,
        )
    # Re-evaluating getEdgeOwner costs one unit per edge; remote edges
    # additionally pay serialization.  Local edges are constructed in
    # place (Algorithm 4 line 5) and are charged at the receiver only.
    total = int(groups.cuts[-1])
    local = int(groups.cuts[h + 1] - groups.cuts[h])
    view.add_compute(float(total) + float(total - local))


#: Received ids are mapped to local ids this many at a time, so the
#: widening to intp that a gather needs is one slice long, not one
#: column long.
_MAP_SLICE = 1 << 16


def _to_local(lookup: np.ndarray, ids: np.ndarray, dtype) -> np.ndarray:
    """``lookup[ids]`` as a ``dtype`` column; the narrow ids widen to
    intp one bounded slice at a time (NumPy converts a narrow index on
    every gather, at twice the cost of widening it first)."""
    out = np.empty(ids.size, dtype=dtype)
    for lo in range(0, ids.size, _MAP_SLICE):
        hi = lo + _MAP_SLICE
        out[lo:hi] = lookup[ids[lo:hi].astype(np.intp)]
    return out


def _build_partition_body(view: HostView, payload: tuple) -> LocalPartition:
    """Partition assembly for one owning host."""
    proxies, masters, assignment, schema, weighted, n, output, j = payload
    rb = view.recv_all_batch(tag="edges", schema=schema)
    received, expected = rb.rows, int(assignment.to_receive[j])
    if received != expected:
        raise ReceivedEdgeCountError(j, expected, received)
    gids = proxies[j]
    lookup = np.full(n, -1, dtype=np.int64)
    mastered_mask = masters[gids] == j
    ordered = np.concatenate([gids[mastered_mask], gids[~mastered_mask]])
    num_masters = int(mastered_mask.sum())
    lookup[ordered] = np.arange(ordered.size, dtype=np.int64)
    # int32 holds every local id and the -1 of a missing proxy, which
    # from_edges rejects as out of range.
    local = np.int32 if ordered.size < 1 << 31 else np.int64
    local_graph = CSRGraph.from_edges(
        _to_local(lookup, rb.columns["src"], local),
        _to_local(lookup, rb.columns["dst"], local),
        num_nodes=ordered.size,
        edge_data=rb.columns["w"] if weighted else None,
    )
    # Deserialization + parallel insertion: ~2 units/edge.
    view.add_compute(2.0 * received)
    local_csc = None
    if output == "csc":
        local_csc = local_graph.transpose()
        view.add_compute(float(local_graph.num_edges))
    return LocalPartition(
        host=j,
        global_ids=ordered,
        num_masters=num_masters,
        master_host=masters[ordered].astype(np.int32),
        local_graph=local_graph,
        local_csc=local_csc,
        _lookup=lookup,
    )


# -- Phase drivers -------------------------------------------------------


def run_allocation(
    phase: PhaseStats,
    prop: GraphProp,
    assignment: EdgeAssignment,
    masters: np.ndarray,
) -> list[np.ndarray]:
    """Build every host's proxy table and charge allocation work.

    Returns, per host, the sorted array of global ids with proxies there:
    every vertex mastered on the host plus every endpoint of an edge the
    host owns.
    """
    num_hosts = len(assignment.owners)
    n = prop.getNumNodes()

    # Pass 1: each reading host tells every owner of its edges which
    # endpoints they bring (mirror info, one bitmap per owner).
    grouped = phase.executor.run(
        phase,
        [
            HostTask(
                h, _group_endpoints_body, label="group-endpoints",
                payload=(assignment, prop, h),
            )
            for h in range(num_hosts)
        ],
    )
    bitmaps: list[list[np.ndarray]] = [[] for _ in range(num_hosts)]
    for pieces in grouped:
        for j, bitmap in pieces:
            bitmaps[j].append(bitmap)

    # Pass 2: each owner unions what lands on it with what it masters.
    return phase.executor.run(
        phase,
        [
            HostTask(
                j, _build_proxies_body, label="build-proxies",
                payload=(
                    masters, bitmaps[j], int(assignment.to_receive[j]), n, j,
                ),
            )
            for j in range(num_hosts)
        ],
    )


def edge_stream_schema(prop: GraphProp) -> ColumnSchema:
    """The edges channel type: (src, dst[, w]) columns in global ids,
    the ids at node-id width (:func:`~repro.graph.csr.node_id_dtype`)."""
    ids = node_id_dtype(prop.getNumNodes())
    weight: list[tuple[str, np.dtype]] = []
    if prop.graph.is_weighted:
        assert prop.graph.edge_data is not None
        weight.append(("w", prop.graph.edge_data.dtype))
    return ColumnSchema([("src", ids), ("dst", ids), *weight])


def run_construction(
    phase: PhaseStats,
    prop: GraphProp,
    policy: Policy,
    assignment: EdgeAssignment,
    masters: np.ndarray,
    proxies: list[np.ndarray],
    output: str = "csr",
) -> list[LocalPartition]:
    """Exchange edges and build every host's local partition."""
    if output not in ("csr", "csc"):
        raise ValueError("output must be 'csr' or 'csc'")
    num_hosts = len(assignment.owners)
    n = prop.getNumNodes()
    weighted = prop.graph.is_weighted
    schema = edge_stream_schema(prop)
    per_edge = 16 if weighted else 8

    # Senders: group each host's edges by owner and ship them.
    phase.executor.run(
        phase,
        [
            HostTask(
                h, _ship_edges_body, label="ship-edges",
                payload=(assignment, prop, schema, per_edge, num_hosts, h),
            )
            for h in range(num_hosts)
        ],
    )
    assignment.drop_groups()

    # Receivers: deserialize, map to local ids, build the CSR partition.
    return phase.executor.run(
        phase,
        [
            HostTask(
                j, _build_partition_body, label="build-partition",
                payload=(
                    proxies, masters, assignment, schema,
                    weighted, n, output, j,
                ),
                drains=("edges",),
            )
            for j in range(num_hosts)
        ],
    )
