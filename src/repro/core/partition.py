"""Partition containers: one host's subgraph and the distributed whole.

A partition is completely defined by (i) the assignment of edges to
subgraphs and (ii) the choice of master vertices (paper §II).  Each
:class:`LocalPartition` holds one host's proxies (masters first, then
mirrors) and its local-id CSR (and optionally CSC) graph;
:class:`DistributedGraph` aggregates them with the global master map and
the partitioning-time breakdown, and computes the paper's quality metrics
(replication factor, node/edge balance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..runtime.stats import TimeBreakdown

__all__ = ["LocalPartition", "DistributedGraph"]


@dataclass
class LocalPartition:
    """One host's share of the partitioned graph.

    Local node ids order masters first (ascending global id) followed by
    mirrors (ascending global id); ``local_graph`` (and ``local_csc`` when
    requested) are expressed in local ids.
    """

    host: int
    #: Global id of each local proxy, masters first.
    global_ids: np.ndarray
    #: Number of leading entries of ``global_ids`` that are masters.
    num_masters: int
    #: For each proxy, the partition holding its master.
    master_host: np.ndarray
    #: Local-id CSR graph of the edges this partition owns.
    local_graph: CSRGraph
    #: Optional CSC (transposed) view, built by in-memory transpose.
    local_csc: CSRGraph | None = None
    #: Dense global-id -> local-id map (-1 where the node has no proxy
    #: here).  Built by the construction phase / partition loader; call
    #: :meth:`build_lookup` for hand-assembled partitions.
    _lookup: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_proxies(self) -> int:
        return int(self.global_ids.size)

    @property
    def num_mirrors(self) -> int:
        return self.num_proxies - self.num_masters

    @property
    def num_edges(self) -> int:
        return self.local_graph.num_edges

    def is_master(self, local_id: int) -> bool:
        return local_id < self.num_masters

    @property
    def master_global_ids(self) -> np.ndarray:
        return self.global_ids[: self.num_masters]

    @property
    def mirror_global_ids(self) -> np.ndarray:
        return self.global_ids[self.num_masters :]

    def _require_lookup(self) -> np.ndarray:
        if self._lookup is None:
            raise RuntimeError(
                f"LocalPartition(host={self.host}) has no global->local lookup "
                "table: it was constructed by hand.  Call build_lookup("
                "num_global_nodes) first, or obtain partitions from "
                "CuSP.partition / load_partitions, which build it."
            )
        return self._lookup

    def build_lookup(self, num_global_nodes: int) -> None:
        """Build the dense global-id -> local-id map for this partition."""
        lookup = np.full(int(num_global_nodes), -1, dtype=np.int64)
        lookup[self.global_ids] = np.arange(self.global_ids.size, dtype=np.int64)
        self._lookup = lookup

    def to_local(self, global_ids: np.ndarray) -> np.ndarray:
        """Local ids of the given global ids (-1 where absent)."""
        return self._require_lookup()[np.asarray(global_ids)]

    def has_proxy(self, global_id: int) -> bool:
        return bool(self._require_lookup()[global_id] >= 0)

    def global_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """This partition's edges in global ids."""
        src, dst = self.local_graph.edges()
        return self.global_ids[src], self.global_ids[dst]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"LocalPartition(host={self.host}, masters={self.num_masters}, "
            f"mirrors={self.num_mirrors}, edges={self.num_edges})"
        )


@dataclass
class DistributedGraph:
    """The partitioned graph: every host's local partition plus metadata."""

    partitions: list[LocalPartition]
    #: Global master map: masters[v] is the partition of v's master proxy.
    masters: np.ndarray
    num_global_nodes: int
    num_global_edges: int
    policy_name: str
    #: Structural invariant of the partitioning ("edge-cut", "2d-cut",
    #: "vertex-cut") — drives analytics communication optimizations.
    #: "2d-cut" means every edge lives in the grid row of its source's
    #: master, nothing more (see ``EdgeRule.invariant``).
    invariant: str = "vertex-cut"
    #: Simulated partitioning-time breakdown (None for external partitions).
    breakdown: TimeBreakdown | None = None

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    # ------------------------------------------------------------------
    # Quality metrics (paper §V-C)
    # ------------------------------------------------------------------
    def replication_factor(self) -> float:
        """Average number of proxies per original vertex."""
        if self.num_global_nodes == 0:
            return 0.0
        total = sum(p.num_proxies for p in self.partitions)
        return total / self.num_global_nodes

    def edge_counts(self) -> np.ndarray:
        return np.array([p.num_edges for p in self.partitions], dtype=np.int64)

    def master_counts(self) -> np.ndarray:
        return np.array([p.num_masters for p in self.partitions], dtype=np.int64)

    def edge_balance(self) -> float:
        """Max/mean ratio of per-partition edge counts (1.0 = perfect)."""
        counts = self.edge_counts()
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0

    def node_balance(self) -> float:
        """Max/mean ratio of per-partition master counts."""
        counts = self.master_counts()
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0

    # ------------------------------------------------------------------
    # Validation (used heavily by the test suite)
    # ------------------------------------------------------------------
    def validate(self, original: CSRGraph | None = None) -> None:
        """Check the partitioning invariants; raise AssertionError naming
        every violation (explicitly raised, so ``python -O`` checks too).

        The invariants are :func:`~repro.core.validate.check_partition`'s:

        * every vertex has exactly one master, on the partition the master
          map says;
        * mirrors never duplicate masters within a partition and proxies
          are unique;
        * every local graph is well-formed CSR whose edge endpoints have
          proxies on that partition;
        * if ``original`` is given, the union of the partitions' edges is
          exactly the original edge multiset.
        """
        from .validate import check_partition

        check_partition(self, original).raise_if_failed()

    def _global_edge_matrix(self) -> np.ndarray:
        parts = []
        for p in self.partitions:
            src, dst = p.global_edges()
            parts.append(np.stack([src, dst], axis=1))
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    def to_global_graph(self) -> CSRGraph:
        """Reassemble the original graph from the partitions (testing)."""
        edges = self._global_edge_matrix()
        data = None
        if self.partitions and self.partitions[0].local_graph.is_weighted:
            data = np.concatenate(
                [p.local_graph.edge_data for p in self.partitions]
            )
        return CSRGraph.from_edges(
            edges[:, 0], edges[:, 1], num_nodes=self.num_global_nodes, edge_data=data
        )

    def partition_of_master(self, global_id: int) -> LocalPartition:
        return self.partitions[int(self.masters[global_id])]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DistributedGraph(policy={self.policy_name}, k={self.num_partitions}, "
            f"|V|={self.num_global_nodes}, |E|={self.num_global_edges}, "
            f"rep={self.replication_factor():.2f})"
        )
