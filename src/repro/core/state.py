"""History-sensitive partitioning state (paper §III-A, §IV-D4).

A partitioning rule may depend on decisions already made ("assign this
edge to the partition that currently has the fewest edges").  Each rule
declares the state type it needs; CuSP synchronizes that state across
hosts *periodically* — bulk-synchronous rounds with a global reduction at
each round boundary, not per-update coherence.

The reproduction models this exactly: every host holds a *snapshot* of
the globally-reconciled state plus a *local delta* of its own updates
since the last reconciliation.  ``sync_round`` folds all deltas into a new
snapshot through the communicator's allreduce (which the cost model
charges).  The number of rounds is a runtime parameter (Tables VI/VII).
"""

from __future__ import annotations

import numpy as np

from ..runtime.comm import Communicator

__all__ = ["PartitioningState", "VoidState", "PartitionLoadState"]


class PartitioningState:
    """Base class for user-defined partitioning state.

    Subclasses must be mergeable by summation of deltas.  The default
    implementation is stateless (``void`` in the paper's terms).
    """

    #: Whether the state carries any information (False => sync is a no-op).
    stateful: bool = False

    def host_view(self, host: int) -> "PartitioningState":
        """The state as host ``host`` currently sees it."""
        return self

    def sync_round(self, comm: Communicator, blocking: bool = True) -> None:
        """Reconcile all hosts' deltas (a round boundary)."""

    def reset(self) -> None:
        """Restore initial values.

        The paper resets partitioning state before graph construction so
        that re-invoking the rules yields the same decisions (§IV-B4).
        """

    def export_host_delta(self, host: int):
        """Picklable snapshot of ``host``'s unsynchronized delta.

        The process executor's task-payload seam: a worker's in-place
        state updates die with the worker, so the task body exports the
        delta and the parent replays it via :meth:`import_host_delta`.
        Stateless subclasses return ``None`` (nothing to ship).
        """
        return None

    def import_host_delta(self, host: int, delta) -> None:
        """Install a delta exported by :meth:`export_host_delta`.

        Set semantics (idempotent): applying a host's own exported delta
        on the serial path is a no-op re-assignment of identical values.
        """

    def export_snapshot(self):
        """Picklable reconciled state, as :meth:`sync_round` left it:
        what a round boundary hands back to every host.  Stateless
        subclasses return ``None``."""
        return None

    def import_snapshot(self, host: int, snapshot) -> None:
        """Install an :meth:`export_snapshot` as ``host`` sees it after
        the round boundary: the reconciled values, and its own delta
        cleared.  A state that exported it holds both already."""


class VoidState(PartitioningState):
    """No state: used by Contiguous/ContiguousEB and all edge rules here."""

    stateful = False


class _LoadView:
    """One host's current estimate of the global partition loads.

    Exposes the paper's ``mstate.numNodes[p]`` / ``mstate.numEdges[p]``
    fields.  Reads see snapshot + the host's own unsynchronized updates;
    writes accumulate into the host's delta.
    """

    def __init__(self, owner: "PartitionLoadState", host: int):
        self._owner = owner
        self._host = host

    @property
    def numNodes(self) -> np.ndarray:
        return self._owner._snapshot_nodes + self._owner._delta_nodes[self._host]

    @property
    def numEdges(self) -> np.ndarray:
        return self._owner._snapshot_edges + self._owner._delta_edges[self._host]

    def add_node(self, partition: int, count: int = 1) -> None:
        self._owner._delta_nodes[self._host][partition] += count

    def add_edges(self, partition: int, count: int) -> None:
        self._owner._delta_edges[self._host][partition] += count


class PartitionLoadState(PartitioningState):
    """Per-partition node and edge counts (Fennel/FennelEB mstate).

    ``num_hosts`` hosts update it concurrently; reconciliation sums every
    host's delta into the shared snapshot and clears the deltas, exactly
    one allreduce of ``2 * num_partitions`` int64 per round.
    """

    stateful = True

    def __init__(self, num_partitions: int, num_hosts: int):
        if num_partitions < 1 or num_hosts < 1:
            raise ValueError("num_partitions and num_hosts must be >= 1")
        self.num_partitions = num_partitions
        self.num_hosts = num_hosts
        self._snapshot_nodes = np.zeros(num_partitions, dtype=np.int64)
        self._snapshot_edges = np.zeros(num_partitions, dtype=np.int64)
        self._delta_nodes = [
            np.zeros(num_partitions, dtype=np.int64) for _ in range(num_hosts)
        ]
        self._delta_edges = [
            np.zeros(num_partitions, dtype=np.int64) for _ in range(num_hosts)
        ]

    def host_view(self, host: int) -> _LoadView:
        if not (0 <= host < self.num_hosts):
            raise ValueError(f"host {host} out of range")
        return _LoadView(self, host)

    def sync_round(self, comm: Communicator, blocking: bool = True) -> None:
        stacked = [
            np.concatenate([self._delta_nodes[h], self._delta_edges[h]])
            for h in range(self.num_hosts)
        ]
        total = comm.allreduce_sum(stacked, blocking=blocking)
        self._snapshot_nodes += total[: self.num_partitions]
        self._snapshot_edges += total[self.num_partitions :]
        for h in range(self.num_hosts):
            self._delta_nodes[h][:] = 0
            self._delta_edges[h][:] = 0
        if blocking:
            comm.barrier()

    def reset(self) -> None:
        self._snapshot_nodes[:] = 0
        self._snapshot_edges[:] = 0
        for h in range(self.num_hosts):
            self._delta_nodes[h][:] = 0
            self._delta_edges[h][:] = 0

    def export_host_delta(self, host: int) -> tuple[np.ndarray, np.ndarray]:
        return (
            self._delta_nodes[host].copy(),
            self._delta_edges[host].copy(),
        )

    def import_host_delta(self, host: int, delta) -> None:
        if delta is None:
            return
        nodes, edges = delta
        self._delta_nodes[host][:] = nodes
        self._delta_edges[host][:] = edges

    def export_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return self._snapshot_nodes, self._snapshot_edges

    def import_snapshot(self, host: int, snapshot) -> None:
        nodes, edges = snapshot
        if nodes is self._snapshot_nodes:
            return
        # Another process's state reconciled these (a pool worker holds
        # a copy): hosts running here read them from now on.
        self._snapshot_nodes[:] = nodes
        self._snapshot_edges[:] = edges
        self._delta_nodes[host][:] = 0
        self._delta_edges[host][:] = 0

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Fully-reconciled (nodes, edges) counts, ignoring sync boundaries."""
        nodes = self._snapshot_nodes + np.sum(self._delta_nodes, axis=0)
        edges = self._snapshot_edges + np.sum(self._delta_edges, axis=0)
        return nodes, edges
