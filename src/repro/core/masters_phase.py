"""Phase 2: master assignment (paper §IV-B2, §IV-D4, §IV-D5).

Each host assigns the master proxy of every vertex whose edges it read.
The phase's communication depends on the rule's capabilities:

* **Pure rules** (no state, no ``masters`` map — Contiguous/ContiguousEB):
  the assignment is a pure function, so no synchronization happens at all;
  hosts later *recompute* any assignment they need (replicating
  computation instead of communication, §IV-D5).

* **History-sensitive rules** (Fennel/FennelEB): the phase runs in
  ``sync_rounds`` bulk-synchronous rounds.  Before the first round each
  host *requests* the assignments it will need — the masters of the
  neighbors of its own nodes — from the hosts that will assign them
  (§IV-D5's request-driven elision: assignments nobody asked for are never
  sent).  A round is one task per host and one barrier: the task scores
  the host's chunk and ships the chunk's requested assignments to their
  requesters; at the round boundary the partitioning state is reconciled
  by a global reduction and the requesters learn what was shipped.

The paper notes this exchange is deliberately *not* deterministic on a
real cluster (hosts don't block for slow peers).  The simulation is
bulk-synchronous and therefore deterministic — a reproducibility-friendly
member of the family of schedules the real system may produce.

Every send of this phase is accounting-only (``payload=None``): the
bytes, messages and fault draws of each request and shipment are charged
on the wire, while the ids themselves take one path — the task's result,
installed by the parent at the barrier.  Nothing is queued that no task
drains.
"""

from __future__ import annotations

import numpy as np

from ..runtime.executor import HostTask, HostView
from ..runtime.stats import PhaseStats
from .assignment_phase import _mask_unique
from .policies import Policy
from .prop import GraphProp
from .state import PartitioningState

__all__ = ["run_master_assignment", "MasterAssignment"]

#: Serialized size of one (node id, partition) assignment entry.
_ASSIGNMENT_ENTRY_BYTES = 12
#: Serialized size of one requested node id.
_REQUEST_ENTRY_BYTES = 8


class MasterAssignment:
    """Result of the master-assignment phase."""

    def __init__(self, masters: np.ndarray, state: PartitioningState):
        #: Partition of every vertex's master proxy (global, fully known
        #: once the phase completes — each entry was computed by exactly
        #: one host).
        self.masters = masters
        #: The partitioning state after the phase (reset before reuse).
        self.state = state


# -- Task bodies ---------------------------------------------------------
#
# Module-level so the pooled process executor can ship them by reference
# (a pickled dotted name) instead of forking the whole parent per
# barrier.  Everything a body needs travels in its payload tuple; the
# big inputs (``prop``, the request table, the hosts' masters maps)
# resolve against the pool's shared-memory residents, so neither graph
# bytes nor a round's unchanged state cross a pipe.
# Parent-side installs remain closures on ``run_master_assignment``'s
# locals — apply callbacks never ship.


def _pure_assign_body(view: HostView, payload: tuple) -> np.ndarray | None:
    """Assign one host's node slice under a pure (stateless) rule."""
    rule, prop, k, num_hosts, elide, h, start, stop = payload
    node_ids = np.arange(start, stop, dtype=np.int64)
    assigned = (
        rule.assign_batch(prop, node_ids, None) if node_ids.size else None
    )
    if elide:
        # No communication: each host recomputes neighbors'
        # assignments on demand (§IV-D5); charge the recomputation
        # for the neighbor set now.
        neighbor_count = int(
            prop.graph.indptr[stop] - prop.graph.indptr[start]
        )
        view.add_compute(
            rule.compute_units(node_ids.size, 0, k) + neighbor_count
        )
    else:
        # Ablation: naive broadcast of every assignment.
        view.add_compute(rule.compute_units(node_ids.size, 0, k))
        for peer in range(num_hosts):
            if peer != h and node_ids.size:
                view.send(
                    peer, None, tag="master-broadcast",
                    nbytes=node_ids.size * _ASSIGNMENT_ENTRY_BYTES,
                    coalesce=True,
                )
    return assigned


def _request_masters_body(
    view: HostView, payload: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Request pass: ask each assigner for the masters this host needs.

    Returns ``(nbrs, cuts)``: the sorted ids this host needs, of which
    ``nbrs[cuts[a]:cuts[a+1]]`` are the ones host ``a`` reads, and
    therefore assigns (a searchsorted against the host bounds).
    """
    prop, bounds, num_hosts, j, start, stop = payload
    lo, hi = prop.graph.indptr[start], prop.graph.indptr[stop]
    nbrs = _mask_unique(prop.getNumNodes(), prop.graph.indices[lo:hi])
    cuts = np.searchsorted(nbrs, bounds)
    for assigner in range(num_hosts):
        wanted = int(cuts[assigner + 1] - cuts[assigner])
        if assigner != j and wanted:
            view.send(
                assigner, None, tag="master-requests",
                nbytes=wanted * _REQUEST_ENTRY_BYTES,
                coalesce=True,
            )
    return nbrs, cuts


def _assign_chunk_body(view: HostView, payload: tuple):
    """Score one round's chunk of a host's nodes against frozen state,
    then ship the chunk's requested assignments to their requesters.

    Returns ``(assigned, delta, shipped)``; ``shipped`` holds one
    ``(j, lo, hi)`` per requester ``j`` that was sent anything, an index
    range into the request table's ``ids``.
    """
    rule, prop, k, state, known, requests, h, c0, c1 = payload
    if c0 == c1:
        return None, None, []
    masters_h = None if known is None else known[h]
    if masters_h is not None and not masters_h.flags.writeable:
        # A pool worker sees the maps as a read-only resident; the rule
        # scribbles on its host's row, so it gets a private copy.
        masters_h = masters_h.copy()
    # Each host scores against the frozen snapshot plus its own pending
    # delta.  The rule's in-place updates (masters_h, state delta) are
    # scratch work in a worker; the body returns everything the parent
    # needs to install them.
    node_ids = np.arange(c0, c1, dtype=np.int64)
    assigned = rule.assign_batch(prop, node_ids, state.host_view(h), masters_h)
    view.add_compute(
        rule.compute_units(
            node_ids.size,
            int(prop.graph.indptr[c1] - prop.graph.indptr[c0]),
            k,
        )
    )
    ids, cuts = requests
    shipped = []
    for j in range(len(cuts)):
        if j == h:
            continue
        start, stop = cuts[j, h], cuts[j, h + 1]
        lo, hi = start + np.searchsorted(ids[start:stop], (c0, c1))
        if hi > lo:
            # One coalesced charge per requester; the parent reads the
            # assigned partitions off its own ``masters`` after the round.
            view.send(
                j, None, tag="master-assignments",
                nbytes=int(hi - lo) * _ASSIGNMENT_ENTRY_BYTES,
                coalesce=True,
            )
            shipped.append((j, int(lo), int(hi)))
    return assigned, state.export_host_delta(h), shipped


def run_master_assignment(
    phase: PhaseStats,
    prop: GraphProp,
    policy: Policy,
    ranges: list[tuple[int, int]],
    sync_rounds: int = 10,
    elide_master_communication: bool = True,
) -> MasterAssignment:
    """Assign every vertex's master, with exact communication accounting.

    ``elide_master_communication=False`` disables the paper's §IV-D5
    optimizations — pure rules are *not* replicated (every assignment is
    broadcast instead of recomputed) — and exists for the ablation
    benchmark.
    """
    if sync_rounds < 1:
        raise ValueError("sync_rounds must be >= 1")
    rule = policy.master_rule
    k = prop.getNumPartitions()
    n = prop.getNumNodes()
    num_hosts = len(ranges)
    state = rule.make_state(k, num_hosts)
    masters = np.full(n, -1, dtype=np.int32)

    if rule.is_pure:
        # Pure rules are embarrassingly per-host: each task computes its
        # own node slice and the parent installs it at the barrier (the
        # task-payload seam — bodies never write shared state, so the
        # same code runs unchanged in a pooled worker).
        def pure_task(h: int, start: int, stop: int) -> HostTask:
            def install(assigned: np.ndarray | None) -> np.ndarray | None:
                if assigned is not None:
                    masters[start:stop] = assigned
                return assigned

            return HostTask(
                h, _pure_assign_body, label="assign-pure",
                payload=(
                    rule, prop, k, num_hosts,
                    elide_master_communication, h, start, stop,
                ),
                apply=install,
            )

        phase.executor.run(
            phase,
            [pure_task(h, start, stop) for h, (start, stop) in enumerate(ranges)],
        )
        return MasterAssignment(masters, state)

    # History-sensitive path: request-driven assignment exchange.
    bounds = np.array([r[0] for r in ranges] + [n], dtype=np.int64)
    if elide_master_communication:
        # Request-driven exchange (§IV-D5): each host asks only for the
        # masters of its read-nodes' neighbors.
        wanted = phase.executor.run(phase, [
            HostTask(
                j, _request_masters_body, label="request-masters",
                payload=(prop, bounds, num_hosts, j, start, stop),
            )
            for j, (start, stop) in enumerate(ranges)
        ])
        offsets = np.cumsum([0] + [nbrs.size for nbrs, _ in wanted[:-1]])
        ids = np.concatenate([nbrs for nbrs, _ in wanted])
        cuts = np.stack([off + c for off, (_, c) in zip(offsets, wanted)])
    else:
        # Ablation: every host "requests" everything, so each assignment
        # is shipped to all peers.
        ids = np.arange(n, dtype=np.int64)
        cuts = np.tile(bounds, (num_hosts, 1))
    # ids[cuts[j, a]:cuts[j, a + 1]] are the sorted node ids host j
    # requested from host a.  Round-invariant from here on: published
    # once, every round's tasks reference it.
    requests = phase.executor.publish("master-requests", (ids, cuts))
    # Row h is host h's private view of the masters map (only synced
    # entries).
    known = np.full((num_hosts, n), -1, dtype=np.int32)
    known_arg = known if rule.uses_masters else None

    # Round-robin over sync_rounds chunks of each host's node range.
    chunk_bounds = [
        np.linspace(start, stop, sync_rounds + 1).astype(np.int64)
        for (start, stop) in ranges
    ]

    def assign_task(h: int, r: int) -> HostTask:
        c0, c1 = int(chunk_bounds[h][r]), int(chunk_bounds[h][r + 1])

        def install(result) -> list[tuple[int, int, int]]:
            assigned, delta, shipped = result
            if assigned is not None:
                masters[c0:c1] = assigned
                known[h, c0:c1] = assigned  # own assignments visible at once
                state.import_host_delta(h, delta)
            return shipped

        return HostTask(
            h, _assign_chunk_body, label="assign-chunk",
            payload=(rule, prop, k, state, known_arg, requests, h, c0, c1),
            apply=install,
        )

    # ``known`` changes every round, in the parent, between barriers;
    # republishing an array of unchanged dtype and shape refreshes its
    # resident in place, so a round ships what it newly made, not the map.
    for r in range(sync_rounds):
        if rule.uses_masters:
            phase.executor.publish("known-masters", known)
        shipped = phase.executor.run(
            phase, [assign_task(h, r) for h in range(num_hosts)]
        )
        # Round boundary: reconcile state.  Master-assignment rounds
        # never block on peers (paper §IV-D5).
        state.sync_round(phase.comm, blocking=False)
        # Requesters learn the round's shipments only now, not in
        # ``apply``: the serial executor applies host h before it runs
        # host h + 1, which must score against the frozen round.
        for host_shipments in shipped:
            for j, lo, hi in host_shipments:
                got = ids[lo:hi]
                known[j, got] = masters[got]

    return MasterAssignment(masters, state)
