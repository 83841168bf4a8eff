"""XtraPulp-style offline label-propagation partitioner (the paper's
comparison baseline, §V).

XtraPulp [9] is the distributed implementation of PuLP: a multi-constraint
(vertex *and* edge balance) label-propagation edge-cut partitioner.  It
makes several complete passes over the graph — initialization, label
propagation to pull vertices toward their neighbors, and balancing passes
to repair constraint violations — with global reductions between passes.
That iterate-over-everything structure is precisely why the paper's
streaming partitioner beats it on partitioning time (§V-B), so the
reproduction keeps it:

* semi-synchronous label propagation (all vertices propose moves from the
  current labeling; moves are applied subject to per-partition capacity,
  deterministically by vertex order),
* alternating vertex-weighted and edge-weighted balance objectives,
* per-pass cost accounting: every pass scans all edges, reconciles
  partition sizes with an allreduce, and ships boundary label updates.

The output is a genuine edge-cut labeling loaded into the same
:class:`~repro.core.partition.DistributedGraph` structure CuSP produces.
"""

from __future__ import annotations

import numpy as np

from ..core.partition import DistributedGraph
from ..core.reading import compute_read_ranges, read_bytes_for_range
from ..graph.csr import CSRGraph
from ..runtime.cluster import SimulatedCluster
from ..runtime.cost_model import STAMPEDE2, CostModel
from ..runtime.executor import HostTask, HostView
from .common import assemble_edge_cut

__all__ = ["XtraPulp"]


class XtraPulp:
    """Offline multi-constraint label-propagation edge-cut partitioner.

    Parameters mirror PuLP's: ``outer_iters`` alternations of label
    propagation (``lp_iters`` passes, vertex-balance constrained) and
    balancing (``balance_iters`` passes, edge-balance constrained);
    ``vertex_imbalance`` / ``edge_imbalance`` are the allowed max/mean
    ratios (PuLP defaults: 1.10 vertex, 1.50 edge).
    """

    def __init__(
        self,
        num_partitions: int,
        outer_iters: int = 3,
        lp_iters: int = 3,
        balance_iters: int = 2,
        vertex_imbalance: float = 1.10,
        edge_imbalance: float = 1.50,
        cost_model: CostModel = STAMPEDE2,
    ):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if outer_iters < 1 or lp_iters < 0 or balance_iters < 0:
            raise ValueError("iteration counts must be sensible")
        if vertex_imbalance < 1.0 or edge_imbalance < 1.0:
            raise ValueError("imbalance ratios must be >= 1")
        self.num_partitions = num_partitions
        self.outer_iters = outer_iters
        self.lp_iters = lp_iters
        self.balance_iters = balance_iters
        self.vertex_imbalance = vertex_imbalance
        self.edge_imbalance = edge_imbalance
        self.cost_model = cost_model

    # ------------------------------------------------------------------
    def partition(self, graph: CSRGraph) -> DistributedGraph:
        """Partition ``graph``; returns the edge-cut with timing breakdown.

        As in the paper's measurement, XtraPulp's time covers graph
        reading and master (label) assignment only — it has no built-in
        graph construction (§V-A) — but the returned object still carries
        constructed partitions so it can be fed to the analytics engine,
        exactly like loading XtraPulp output into D-Galois.
        """
        k = self.num_partitions
        cluster = SimulatedCluster(k, cost_model=self.cost_model)
        ranges = compute_read_ranges(graph, k)

        with cluster.phase("Graph Reading") as ph:
            for h, (start, stop) in enumerate(ranges):
                ph.add_disk(h, read_bytes_for_range(graph, start, stop))

        labels = self._initial_labels(graph)
        undirected = self._adjacency_both_ways(graph)
        ones = np.ones(graph.num_nodes, dtype=np.int64)
        degrees = np.maximum(graph.out_degree(), 1)
        vertex_constraint = (ones, self.vertex_imbalance)
        edge_constraint = (degrees, self.edge_imbalance)
        with cluster.phase("Label Propagation") as ph:
            for _ in range(self.outer_iters):
                for _ in range(self.lp_iters):
                    labels = self._lp_pass(
                        graph, undirected, labels, [vertex_constraint]
                    )
                    self._charge_pass(ph, graph, ranges, labels)
                for _ in range(self.balance_iters):
                    labels = self._lp_pass(
                        graph, undirected, labels,
                        [edge_constraint, vertex_constraint],
                    )
                    self._charge_pass(ph, graph, ranges, labels)

        with cluster.phase("Refinement") as ph:
            labels = self._lp_pass(
                graph, undirected, labels,
                [vertex_constraint, edge_constraint],
            )
            self._charge_pass(ph, graph, ranges, labels)

        return assemble_edge_cut(
            graph, labels, k, policy_name="XtraPulp",
            breakdown=cluster.breakdown(),
        )

    def partition_labels(self, graph: CSRGraph) -> np.ndarray:
        """Just the vertex labels (no assembly, no timing)."""
        return self.partition(graph).masters

    # ------------------------------------------------------------------
    # Algorithm pieces
    # ------------------------------------------------------------------
    def _initial_labels(self, graph: CSRGraph) -> np.ndarray:
        """Contiguous block initialization (PuLP's default)."""
        n = graph.num_nodes
        block = -(-n // self.num_partitions) if n else 1
        return (np.arange(n, dtype=np.int64) // block).astype(np.int32)

    @staticmethod
    def _adjacency_both_ways(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) over the union of out- and in-edges.

        Label propagation pulls a vertex toward *all* its neighbors; PuLP
        operates on the undirected structure.
        """
        src, dst = graph.edges()
        return np.concatenate([src, dst]), np.concatenate([dst, src])

    def _lp_pass(
        self,
        graph: CSRGraph,
        undirected: tuple[np.ndarray, np.ndarray],
        labels: np.ndarray,
        constraints: list[tuple[np.ndarray, float]],
    ) -> np.ndarray:
        """One semi-synchronous multi-constraint label-propagation pass.

        ``constraints`` is a list of (per-vertex weight, allowed max/mean
        ratio) pairs; a move is accepted only while the destination stays
        within *every* constraint's capacity (PuLP's multi-constraint
        formulation).
        """
        n = graph.num_nodes
        k = self.num_partitions
        if n == 0:
            return labels
        u_src, u_dst = undirected
        # Neighbor-label histogram per vertex, one bincount over the edges.
        counts = np.bincount(
            u_src.astype(np.int64) * k + labels[u_dst], minlength=n * k
        ).reshape(n, k)
        # Hysteresis: a vertex only moves for a strictly better label.
        stay_bonus = counts[np.arange(n), labels]
        desired = np.argmax(counts, axis=1).astype(np.int32)
        gains = counts[np.arange(n), desired] - stay_bonus
        movers = np.flatnonzero(gains > 0)
        if movers.size == 0:
            return labels
        new_labels = labels.copy()
        caps = []
        loads = []
        for weights, imbalance in constraints:
            caps.append(imbalance * float(weights.sum()) / k)
            loads.append(
                np.bincount(labels, weights=weights, minlength=k).astype(np.float64)
            )
        # Deterministic application in vertex order; a vectorized prefix
        # trick per destination caps accepted moves at remaining capacity
        # under the tightest constraint.
        for dest in range(k):
            cand = movers[desired[movers] == dest]
            if cand.size == 0:
                continue
            take = cand.size
            for (weights, _), cap, load in zip(constraints, caps, loads):
                room = cap - load[dest]
                if room <= 0:
                    take = 0
                    break
                w = weights[cand].astype(np.float64)
                take = min(
                    take, int(np.searchsorted(np.cumsum(w), room, side="right"))
                )
            accepted = cand[:take]
            if accepted.size == 0:
                continue
            for (weights, _), load in zip(constraints, loads):
                load[dest] += float(weights[accepted].sum())
                load -= np.bincount(
                    labels[accepted], weights=weights[accepted], minlength=k
                )
            new_labels[accepted] = dest
        return new_labels

    def _charge_pass(self, phase, graph, ranges, labels) -> None:
        """Cost of one whole-graph pass (the baseline's signature expense).

        Every host scans its share of edges twice (out + in adjacency),
        reconciles partition loads with an allreduce, and ships its
        boundary vertices' labels to the hosts holding their neighbors.
        """
        src, dst = graph.edges()
        boundary = labels[src] != labels[dst]
        num_hosts = len(ranges)
        # Boundary label exchange, attributed to the source's reading host.
        per_host = np.zeros(num_hosts, dtype=np.int64)
        if num_hosts > 1 and boundary.any():
            bounds = np.array([r[0] for r in ranges] + [graph.num_nodes])
            owner = np.searchsorted(bounds, src[boundary], side="right") - 1
            per_host = np.bincount(owner, minlength=num_hosts)
        phase.executor.run(phase, [
            HostTask(
                h, _charge_host_pass, label="lp-pass",
                payload=(
                    2.0 * int(graph.indptr[stop] - graph.indptr[start])
                    + (stop - start),
                    int(per_host[h]) * 8,
                    (h + 1) % num_hosts,
                ),
            )
            for h, (start, stop) in enumerate(ranges)
        ])
        phase.comm.allreduce_sum(
            [np.zeros(2 * self.num_partitions, dtype=np.int64)] * num_hosts
        )
        phase.comm.barrier()


def _charge_host_pass(view: HostView, payload: tuple[float, int, int]) -> None:
    """One host's share of a pass: its edge scans, then its boundary
    labels to the next host."""
    units, nbytes, peer = payload
    view.add_compute(units)
    if nbytes:
        view.send(peer, None, tag="labels", nbytes=nbytes, logical_messages=1)
