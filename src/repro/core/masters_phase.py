"""Phase 2: master assignment (paper §IV-B2, §IV-D4, §IV-D5).

Each host assigns the master proxy of every vertex whose edges it read.
The phase's communication depends on the rule's capabilities:

* **Pure rules** (no state, no ``masters`` map — Contiguous/ContiguousEB):
  the assignment is a pure function, so no synchronization happens at all;
  hosts later *recompute* any assignment they need (replicating
  computation instead of communication, §IV-D5).

* **History-sensitive rules** (Fennel/FennelEB/LDG): the phase runs in
  ``sync_rounds`` bulk-synchronous rounds.  Before the first round each
  host *requests* the assignments it will need — the masters of the
  neighbors of its own nodes — from the hosts that will assign them
  (§IV-D5's request-driven elision: assignments nobody asked for are never
  sent).  The rounds are one stepped task per host for the whole phase
  (:meth:`~repro.runtime.executor.Executor.run_rounds`): round ``r``
  scores the host's ``r``-th chunk, writes its masters into the shared
  map, charges the shipment of the chunk's requested assignments to
  their requesters, and yields the host's load delta.  At the round
  boundary the partitioning state is reconciled by a global reduction,
  and the new snapshot is all that goes back; the next round first
  *pulls* what the host requested out of the other hosts' finished
  chunks.

The paper notes this exchange is deliberately *not* deterministic on a
real cluster (hosts don't block for slow peers).  The simulation is
bulk-synchronous and therefore deterministic — a reproducibility-friendly
member of the family of schedules the real system may produce.

Every send of this phase is accounting-only (``payload=None``): the
bytes, messages and fault draws of each request and shipment are charged
on the wire, while the ids themselves take one path — the shared
``masters`` map, written by its one assigner and read by the requester
a round later.  Nothing is queued that no task drains.
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
# big inputs resolve against the pool's shared-memory residents —
# ``prop`` read-only, the maps the rounds write (``masters``, ``known``)
# writable — so neither graph bytes nor a round's unchanged state cross
# a pipe.  The pure path's install is a closure on
# ``run_master_assignment``'s locals: apply callbacks never ship.


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


def _assign_rounds_body(view: HostView, payload: tuple):
    """One host's history-sensitive master phase, one step per round.

    The first step is the request pass (§IV-D5): the host asks each
    assigner for the masters of its read-nodes' neighbors — the sorted
    ``nbrs``, of which ``nbrs[at[a, r]:at[a, r + 1]]`` lie in host
    ``a``'s round-``r`` chunk — and yields how many it wants of each
    chunk.  What that yield evaluates to is everyone's counts,
    ``wanted[j, a, r]``.  Round ``r`` then scores the host's ``r``-th
    chunk against the state snapshot plus the host's own delta, writes
    the chunk into ``masters`` and the host's row of ``known`` (the map
    the rule reads: only what the host assigned or pulled), charges one
    coalesced shipment per requester, and yields the host's load delta,
    or returns it after the last round.  That yield evaluates to the
    reconciled snapshot; the next round installs it, then pulls what
    the host asked for out of the other hosts' previous chunks —
    finished, as the round boundary lies between.
    """
    rule, prop, k, elide, state, masters, known, chunk_bounds, h = payload
    num_hosts, rounds = chunk_bounds.shape[0], chunk_bounds.shape[1] - 1
    if elide:
        start, stop = chunk_bounds[h, 0], chunk_bounds[h, -1]
        lo, hi = prop.graph.indptr[start], prop.graph.indptr[stop]
        nbrs = _mask_unique(prop.getNumNodes(), prop.graph.indices[lo:hi])
    else:
        # Ablation: every host "requests" everything, so each
        # assignment is shipped to all peers.
        nbrs = np.arange(prop.getNumNodes(), dtype=np.int64)
    at = np.searchsorted(nbrs, chunk_bounds)
    for a in range(num_hosts):
        asked = int(at[a, -1] - at[a, 0])
        if elide and a != h and asked:
            view.send(
                a, None, tag="master-requests",
                nbytes=asked * _REQUEST_ENTRY_BYTES,
                coalesce=True,
            )
    wanted = yield np.diff(at, axis=1)
    own = None if known is None else known[h]
    for r in range(rounds):
        if r:
            state.import_snapshot(h, snapshot)
        if r and own is not None:
            for a in range(num_hosts):
                if a != h:
                    got = nbrs[at[a, r - 1]:at[a, r]]
                    own[got] = masters[got]
        c0, c1 = int(chunk_bounds[h, r]), int(chunk_bounds[h, r + 1])
        if c1 > c0:
            node_ids = np.arange(c0, c1, dtype=np.int64)
            assigned = rule.assign_batch(prop, node_ids, state.host_view(h), own)
            masters[c0:c1] = assigned
            if own is not None:
                own[c0:c1] = assigned  # own assignments visible at once
            view.add_compute(
                rule.compute_units(
                    node_ids.size,
                    int(prop.graph.indptr[c1] - prop.graph.indptr[c0]),
                    k,
                )
            )
            for j in range(num_hosts):
                if j != h and wanted[j, h, r]:
                    # One coalesced charge per requester, which pulls
                    # the ids off ``masters`` next round.
                    view.send(
                        j, None, tag="master-assignments",
                        nbytes=int(wanted[j, h, r]) * _ASSIGNMENT_ENTRY_BYTES,
                        coalesce=True,
                    )
        delta = state.export_host_delta(h)
        if r + 1 == rounds:
            return delta
        snapshot = yield delta


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

    # History-sensitive path: request-driven assignment exchange, then
    # ``sync_rounds`` rounds.  Row h of ``chunk_bounds`` cuts host h's
    # node range into one chunk per round; the maps the rounds write
    # are shared, each entry written by one host.
    chunk_bounds = np.stack([
        np.linspace(start, stop, sync_rounds + 1).astype(np.int64)
        for (start, stop) in ranges
    ])
    masters = phase.executor.share("master-map", masters)
    known = None
    if rule.uses_masters:
        # Row h is host h's private view of the masters map (only
        # synced entries).
        known = phase.executor.share(
            "known-masters", np.full((num_hosts, n), -1, dtype=np.int32)
        )

    def boundary(step: int, values: list) -> object:
        if step == 0:
            # The request pass: every requester's counts, to every
            # assigner.
            return np.stack(values)
        # Round boundary: reconcile state.  Master-assignment rounds
        # never block on peers (paper §IV-D5).
        for h, delta in enumerate(values):
            state.import_host_delta(h, delta)
        state.sync_round(phase.comm, blocking=False)
        return state.export_snapshot()

    phase.executor.run_rounds(
        phase,
        [
            HostTask(
                h, _assign_rounds_body, label="assign-rounds",
                payload=(
                    rule, prop, k, elide_master_communication, state,
                    masters, known, chunk_bounds, h,
                ),
            )
            for h in range(num_hosts)
        ],
        boundary,
    )
    return MasterAssignment(masters, state)
