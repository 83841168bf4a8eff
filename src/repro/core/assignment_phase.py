"""Phase 3: edge assignment (paper §IV-B3, Algorithm 3).

Each host scans the edges it read, calls ``getEdgeOwner`` on every edge
(vectorized through the rule's batch interface) and compiles, per peer:

* how many outgoing edges of each of its read nodes the peer will receive
  (a positional vector — no node ids on the wire, §IV-D2), and
* which destination proxies the peer must create as *mirrors*, with their
  master assignments (the "(Master/)Mirror Info" flow of Figure 2): its
  bytes are charged, the ids are not materialised — allocation derives
  each host's proxies from the group cache.

Hosts with nothing to send to a peer send a small "empty" message instead
(§IV-D2).  The computed owner array is retained for the construction
phase: the paper instead *re-evaluates* the rules there, which is
equivalent because rules are required to be deterministic (§III-A) — we
memoize rather than recompute, and charge the re-evaluation work to the
construction phase as the paper's system would incur it.

Messages are typed :class:`~repro.runtime.colfab.MessageBatch` blocks
carrying the one field their reader uses (the edge count), and the mirror
sets are sized from the per-host :class:`HostGroups` cache that
allocation and construction reuse.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph, stable_group_order
from ..runtime import pool as _pool
from ..runtime.colfab import ColumnSchema, MessageBatch
from ..runtime.executor import HostTask, HostView
from ..runtime.stats import PhaseStats
from .policies import Policy
from .prop import GraphProp

__all__ = [
    "run_edge_assignment",
    "EdgeAssignment",
    "HostGroups",
    "assignment_from_owners",
    "host_edge_slice",
]

_EMPTY_MESSAGE_BYTES = 8
_MIRROR_ENTRY_BYTES = 12  # node id + master partition


def _mask_unique(num_nodes: int, *id_arrays: np.ndarray) -> np.ndarray:
    """Sorted distinct node ids across ``id_arrays``, by presence mask.

    For ids bounded by ``num_nodes`` this replaces sort-based dedup with
    an O(num_nodes + total ids) scatter + ``flatnonzero`` — the output
    is identical to ``np.unique(np.concatenate(id_arrays))``.
    """
    mark = np.zeros(num_nodes, dtype=bool)
    for ids in id_arrays:
        mark[ids] = True
    return np.flatnonzero(mark)


class HostGroups:
    """One host's edges grouped by owner, with per-group unique sources.

    A counting sort in NumPy calls: the permutation comes from
    :func:`~repro.graph.csr.stable_group_order` (an O(n) radix argsort
    of the owner array narrowed to one or two bytes per edge) and the
    group boundaries from ``bincount -> cumsum`` of the same array.
    Because the host's ``src`` column is non-decreasing (it comes from
    the CSR ``indptr`` walk) and the grouping is stable, ``src`` stays
    non-decreasing *within* each owner group, so the per-group
    sorted-unique source lists fall out of one O(n) boundary scan
    instead of a ``np.unique`` per peer.  The same grouping serves edge
    assignment (mirror sets), allocation (endpoint sets) and
    construction (edge shipping), so it is computed once per host and
    cached on :class:`EdgeAssignment`.

    Raises :class:`ValueError` naming the value when an owner is
    outside ``[0, num_hosts)``.
    """

    __slots__ = (
        "order", "cuts", "src_sorted", "dst_sorted", "usrc", "usrc_cuts"
    )

    def __init__(
        self,
        owner: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        num_hosts: int,
    ):
        self.order = stable_group_order(owner, num_hosts)
        self.cuts = np.zeros(num_hosts + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=num_hosts), out=self.cuts[1:])
        self._fill(src, dst)

    def _fill(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Gather the sorted columns from the host's edge arrays."""
        order = self.order
        cuts = self.cuts
        s = src[order]
        n = s.size
        # A row opens a unique-source run when its source differs from
        # the row above or it is the first row of an owner group.
        keep = np.empty(n, dtype=bool)
        keep[:1] = True
        np.not_equal(s[1:], s[:-1], out=keep[1:])
        starts = cuts[:-1]
        keep[starts[starts < n]] = True
        first = np.flatnonzero(keep)
        self.src_sorted = s
        self.dst_sorted = dst[order]
        self.usrc = s[first]
        self.usrc_cuts = np.searchsorted(first, cuts)

    def __getstate__(self):
        # Only the sort permutation and group boundaries cross process
        # boundaries: the sorted columns are O(n) gathers of the host's
        # edge arrays (themselves derived from the shared-memory
        # resident graph) and are rehydrated on first use at the other
        # side, so a pickled grouping is ~3x smaller than a live one.
        return self.order, self.cuts

    def __setstate__(self, state) -> None:
        self.order, self.cuts = state
        self.src_sorted = None
        self.dst_sorted = None
        self.usrc = None
        self.usrc_cuts = None

    def hydrate(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Rebuild the sorted columns after a skeleton unpickle."""
        if self.src_sorted is None:
            self._fill(src, dst)

    def group_dst(self, j: int) -> np.ndarray:
        """``dst`` restricted to host ``j``'s group (a zero-copy view)."""
        return self.dst_sorted[self.cuts[j] : self.cuts[j + 1]]

    def unique_src(self, j: int) -> np.ndarray:
        """Sorted distinct sources among host ``j``'s edges."""
        return self.usrc[self.usrc_cuts[j] : self.usrc_cuts[j + 1]]


#: Worker-local carry-over of the full group caches built by
#: ``_assign_edges_body``: a resident pool worker keeps the groupings it
#: computed during edge assignment so later phases adopt them instead of
#: regathering from the resident skeleton.  Guarded by a bitwise owner
#: comparison (the grouping is a pure function of the owner array and
#: the resident graph), populated only inside pool workers (the flag is
#: set in ``_pool_worker_main``), and dies with the worker.
_group_stash: dict[int, tuple[np.ndarray, HostGroups]] = {}


def _stash_groups(h: int, owner: np.ndarray, groups: HostGroups) -> None:
    if _pool._IN_POOL_WORKER:
        # repro-lint: disable-next-line=deep-unshippable-task-capture -- worker-local recompute cache: lost with the worker, revalidated bitwise against the owner array before reuse
        _group_stash[h] = (owner, groups)


class EdgeAssignment:
    """Result of the edge-assignment phase.

    The per-host ``(src, dst, weight)`` edge arrays and the owner
    grouping's sorted columns are pure functions of the graph, the read
    ranges and the owner decisions, so neither ever crosses a process
    boundary: consumers rebuild them lazily from the (shared-memory
    resident) graph on first use.  Only the owner arrays, the sort
    permutations and the count matrices are real state.
    """

    def __init__(
        self,
        num_hosts: int,
        prop: GraphProp | None = None,
        ranges: list[tuple[int, int]] | None = None,
    ) -> None:
        #: Per reading host: owner partition of each of its edges
        #: (``None`` until that host's task has run).
        self.owners: list[np.ndarray | None] = [None] * num_hosts
        #: Per reading host: its (src, dst, weight) edge arrays, a lazy
        #: cache over :func:`host_edge_slice` (see :meth:`host_edges`).
        self.edges: list[
            tuple[np.ndarray, np.ndarray, np.ndarray | None] | None
        ] = [None] * num_hosts
        #: edges_to[h][j] = number of edges host h will send to host j.
        self.edges_to = np.zeros((num_hosts, num_hosts), dtype=np.int64)
        #: toReceive[j] = total edges host j expects (Algorithm 3 line 13).
        self.to_receive = np.zeros(num_hosts, dtype=np.int64)
        #: Graph + read ranges backing the lazy edge rebuild.
        self._prop = prop
        self.ranges = list(ranges) if ranges is not None else None
        # Lazy per-host owner-group cache shared by phases 3-5.  The
        # assignment phase's barrier callback installs each host's
        # grouping; a cache miss inside a task recomputes the (pure,
        # deterministic) grouping without relying on the cached write
        # surviving the task — it may run in a forked worker.
        self._groups: list[HostGroups | None] = [None] * num_hosts

    def host_edges(
        self, h: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Host ``h``'s (src, dst, weights) arrays (rebuilt on miss)."""
        edges = self.edges[h]
        if edges is None:
            if self._prop is None or self.ranges is None:
                raise ValueError(f"host {h}: edge assignment not yet run")
            start, stop = self.ranges[h]
            edges = host_edge_slice(self._prop.graph, start, stop)
            # repro-lint: disable-next-line=deep-unshippable-task-capture -- recompute-on-miss cache (see class docstring): a worker-local write that is lost with the fork is recomputed identically on the next miss
            self.edges[h] = edges
        return edges

    def host_groups(self, h: int) -> HostGroups:
        """The owner grouping of host ``h``'s edges (computed once)."""
        groups = self._groups[h]
        if groups is None:
            owner = self.owners[h]
            if owner is None:
                raise ValueError(f"host {h}: edge assignment not yet run")
            src, dst, _weights = self.host_edges(h)
            groups = HostGroups(
                owner, src, dst, self.edges_to.shape[0]
            )
            # repro-lint: disable-next-line=deep-unshippable-task-capture -- recompute-on-miss cache (see class docstring): a worker-local write that is lost with the fork is recomputed identically on the next miss
            self._groups[h] = groups
        elif groups.src_sorted is None:
            # Skeleton from a cross-process unpickle.  A resident pool
            # worker that ran this host's assignment task still holds
            # the full grouping it built there; adopt it when the owner
            # array matches bitwise (the grouping is a pure function of
            # the owner array and the resident graph).  Otherwise gather
            # the sorted columns from the locally rebuilt edge arrays
            # (pure and deterministic, so hydrating in-place is
            # recompute-on-miss with the argsort skipped).
            owner = self.owners[h]
            stashed = _group_stash.get(h)
            if (
                stashed is not None
                and owner is not None
                and np.array_equal(stashed[0], owner)
            ):
                groups = stashed[1]
                # repro-lint: disable-next-line=deep-unshippable-task-capture -- recompute-on-miss cache (see class docstring): a lost worker-local write is redone identically
                self._groups[h] = groups
            else:
                src, dst, _weights = self.host_edges(h)
                # repro-lint: disable-next-line=deep-unshippable-task-capture -- recompute-on-miss cache (see class docstring): hydration is a pure gather; a lost worker-local write is redone identically
                groups.hydrate(src, dst)
        return groups

    def __getstate__(self):
        state = dict(self.__dict__)
        # The edge arrays are derivable from (graph, ranges); shipping
        # them would roughly double the graph bytes on the wire.
        state["edges"] = [None] * len(self.edges)
        return state

    def adopt_groups(self, other: "EdgeAssignment") -> None:
        """Carry ``other``'s group cache onto this (rebuilt) assignment.

        Used when the framework reconstructs the assignment from its
        checkpoint: the grouping is a pure function of (owners, edges),
        both of which round-trip bit-identically, so the cache computed
        by the live phase remains valid for the rebuilt object.
        """
        self._groups = list(other._groups)


def host_edge_slice(
    graph: CSRGraph, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The (src, dst, weights) arrays a host reads for nodes [start, stop)."""
    lo, hi = int(graph.indptr[start]), int(graph.indptr[stop])
    dst = graph.indices[lo:hi]
    src = np.repeat(
        np.arange(start, stop, dtype=np.int64),
        np.diff(graph.indptr[start : stop + 1]),
    )
    weights = graph.edge_data[lo:hi] if graph.is_weighted else None
    return src, dst, weights


def assignment_from_owners(
    prop: GraphProp,
    ranges: list[tuple[int, int]],
    owners: list[np.ndarray],
) -> EdgeAssignment:
    """Rebuild the edge-assignment result from checkpointed owner arrays.

    The per-host edge arrays are a pure function of the graph and the
    read ranges, so only the owner decisions need to be persisted; this
    reconstructs the same :class:`EdgeAssignment` the live phase
    produced (used when replaying phases 4/5 from a checkpoint).  The
    edge arrays themselves stay lazy — consumers rebuild them from the
    graph on first use.
    """
    num_hosts = len(ranges)
    result = EdgeAssignment(num_hosts, prop=prop, ranges=ranges)
    graph = prop.graph
    for h, (start, stop) in enumerate(ranges):
        expected = int(graph.indptr[stop]) - int(graph.indptr[start])
        owner = np.asarray(owners[h])
        if owner.size != expected:
            raise ValueError(
                f"host {h}: checkpointed {owner.size} owners for "
                f"{expected} edges"
            )
        result.owners[h] = owner
        result.edges_to[h, :] = np.bincount(
            owner, minlength=num_hosts
        ).astype(np.int64)
    result.to_receive[:] = result.edges_to.sum(axis=0)
    return result


#: The edge-counts channel type: the count the tally reads, no rows.
_EDGE_COUNTS_SCHEMA = ColumnSchema((), scalars=("count",))


# -- Task bodies ---------------------------------------------------------
#
# Module-level so the pooled process executor can ship them by reference;
# payload tuples carry everything a body reads, with the big immutable
# inputs (``prop``, ``masters``) resolving against shared-memory
# residents.  Parent-side installs stay closures in
# ``run_edge_assignment`` — apply callbacks never ship.


def _assign_edges_body(view: HostView, payload: tuple):
    """Edge-assignment pass for one host.

    Pure with respect to shared state: the owner/count arrays and the
    grouping are returned and the task's ``apply`` callback installs
    them into the :class:`EdgeAssignment` at the barrier (task-payload
    seam).
    """
    (rule, prop, masters, estate, comm, num_hosts,
     h, start, stop) = payload
    src, dst, _weights = host_edge_slice(prop.graph, start, stop)
    estate_view = estate.host_view(h) if estate is not None else None
    owner = rule.owner_batch(
        prop, src, dst, masters[src], masters[dst], estate_view
    )
    counts = np.bincount(owner, minlength=num_hosts).astype(np.int64)
    # Two abstract units per edge: owner evaluation + count update.
    view.add_compute(2.0 * src.size)
    if estate is not None:
        # Periodic estate reconciliation (§IV-D4), one round per
        # host's streamed chunk, non-blocking like master rounds.
        # Safe despite living in a task body: stateful rules are
        # dispatched through chain(), which runs hosts sequentially
        # on the main thread (no task context), so this collective
        # never executes inside a mapped task.
        # repro-lint: disable-next-line=comm-in-task,deep-comm-in-task -- chain()-only path, sequential by construction
        estate.sync_round(comm, blocking=False)
    groups = HostGroups(owner, src, dst, num_hosts)
    nodes_read = stop - start
    mark = np.empty(prop.getNumNodes(), dtype=bool)
    for j in range(num_hosts):
        if j == h:
            continue
        if counts[j] == 0:
            # Paper §IV-D2: "nothing to send" notification.
            view.send_batch(j, MessageBatch.empty(_EDGE_COUNTS_SCHEMA),
                            tag="edge-counts",
                            nbytes=_EMPTY_MESSAGE_BYTES)
            continue
        # Mirror info: destination proxies on j whose master is
        # elsewhere, plus source proxies on j whose master is
        # elsewhere.  A presence mask counts the distinct endpoints
        # (minus the j-mastered ones) without any per-peer sort.
        mark[:] = False
        mark[groups.unique_src(j)] = True
        mark[groups.group_dst(j)] = True
        mirrors = np.count_nonzero(mark & (masters != j))
        view.send_batch(
            j,
            MessageBatch(_EDGE_COUNTS_SCHEMA, scalars=(int(counts[j]),)),
            tag="edge-counts",
            nbytes=nodes_read * 8 + mirrors * _MIRROR_ENTRY_BYTES,
        )
    _stash_groups(h, owner, groups)
    return owner, counts, groups


def _tally_counts_body(view: HostView) -> int:
    """Tally one host's incoming edge totals."""
    incoming = view.recv_all_batch(
        tag="edge-counts", schema=_EDGE_COUNTS_SCHEMA
    )
    view.add_compute(float(incoming.num_blocks))
    return int(incoming.scalars["count"].sum())


def run_edge_assignment(
    phase: PhaseStats,
    prop: GraphProp,
    policy: Policy,
    ranges: list[tuple[int, int]],
    masters: np.ndarray,
) -> EdgeAssignment:
    """Run edge assignment for all hosts with exact comm accounting."""
    rule = policy.edge_rule
    num_hosts = len(ranges)
    k = prop.getNumPartitions()
    result = EdgeAssignment(num_hosts, prop=prop, ranges=ranges)
    estate = None
    if rule.stateful:
        try:
            estate = rule.make_state(k, num_hosts, prop.getNumNodes())
        except TypeError:
            # User rules written to the paper's two-argument signature.
            estate = rule.make_state(k, num_hosts)

    def install_assignment(h: int, start: int, stop: int):
        """Parent-side barrier callback installing one host's results.

        The edge arrays are a pure function of (graph, range) and stay
        lazy on the assignment; the grouping rides along by reference
        on the serial/thread paths and as an order-only skeleton on the
        process path, rehydrated by whoever touches it next.
        """
        def install(outcome):
            owner, counts, groups = outcome
            result.owners[h] = owner
            result.edges_to[h, :] = counts
            result._groups[h] = groups
            return owner

        return install

    # The communicator only rides in the payload for stateful rules,
    # whose tasks go through chain() and are never pickled; stateless
    # payloads stay shippable.
    comm_arg = phase.comm if estate is not None else None

    def assign_task(h: int, start: int, stop: int) -> HostTask:
        return HostTask(
            h, _assign_edges_body, label="assign-edges",
            # repro-lint: disable-next-line=deep-unshippable-payload -- comm_arg is None unless the rule is stateful, and stateful tasks go through chain(), which never pickles
            payload=(
                rule, prop, masters, estate, comm_arg,
                num_hosts, h, start, stop,
            ),
            apply=install_assignment(h, start, stop),
        )

    tasks = [assign_task(h, start, stop) for h, (start, stop) in enumerate(ranges)]
    if estate is not None:
        # Stateful rules are a *cross-host-sequential* stream: host h+1
        # scores against the estate host h just synced, so no executor
        # may legally overlap them (doing so would change the partition).
        phase.executor.chain(phase, tasks)
    else:
        phase.executor.run(phase, tasks)

    # Every host tallies what it will receive (Algorithm 3 lines 10-14).
    def install_tally(j: int):
        def install(received: int) -> int:
            result.to_receive[j] = received + result.edges_to[j, j]
            return received

        return install

    def tally_task(j: int) -> HostTask:
        return HostTask(
            j, _tally_counts_body, label="tally-counts",
            apply=install_tally(j),
            drains=("edge-counts",),
        )

    phase.executor.run(phase, [tally_task(j) for j in range(num_hosts)])

    return result
