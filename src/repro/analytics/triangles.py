"""Distributed triangle counting over CuSP partitions.

A second extension application, chosen because its communication pattern
is *neighborhood exchange* rather than the value reduce/broadcast the
vertex programs use — a different stress on the partitioning:

1. **Orient**: work on the symmetric simple graph, keeping each edge as
   (u, v) with u < v, so every triangle is counted exactly once.
2. **Gather**: each partition ships its local oriented adjacency slices
   to the source's master, so every master holds its vertices' complete
   oriented neighbor lists N+(v) (cost ~ cut-edge volume).
3. **Probe**: for every oriented edge (u, v), u's master sends
   (v, N+(u)) to v's master, which counts |N+(u) ∩ N+(v)| — the number
   of triangles closed over that edge (cost ~ sum of N+(u) over remote
   edges; this is the term 2-D partitions keep small).
4. **Reduce**: a global sum yields the triangle count.

The result is exact and verified against a sparse-matrix reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.partition import DistributedGraph
from ..graph.csr import CSRGraph, stable_group_order
from ..runtime.cluster import SimulatedCluster
from ..runtime.cost_model import STAMPEDE2, CostModel
from ..runtime.stats import TimeBreakdown

__all__ = ["count_triangles", "triangles_reference", "TriangleResult"]


@dataclass
class TriangleResult:
    count: int
    breakdown: TimeBreakdown

    @property
    def time(self) -> float:
        return self.breakdown.total


def count_triangles(
    dg: DistributedGraph, cost_model: CostModel = STAMPEDE2
) -> TriangleResult:
    """Count triangles of the (symmetrized interpretation of the)
    partitioned graph.  ``dg`` should partition a symmetric simple graph;
    duplicate and reverse edges are handled by the orientation step.
    """
    k = dg.num_partitions
    n = dg.num_global_nodes
    cluster = SimulatedCluster(k, cost_model=cost_model)

    # Phase 1: orient local edges u < v and deduplicate locally.
    oriented: list[np.ndarray] = []  # per partition: (2, m) arrays
    with cluster.phase("Orient") as ph:
        for p in dg.partitions:
            src, dst = p.global_edges()
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            keep = lo != hi
            lo, hi = lo[keep], hi[keep]
            key = lo * n + hi
            uniq = np.unique(key)
            oriented.append(np.stack([uniq // n, uniq % n]))
            ph.add_compute(p.host, float(src.size))

    # Phase 2: gather complete oriented adjacency at each source's master.
    adjacency: dict[int, dict[int, np.ndarray]] = {m: {} for m in range(k)}
    with cluster.phase("Gather") as ph:
        per_master_chunks: list[list[np.ndarray]] = [[] for _ in range(k)]
        for p in dg.partitions:
            lo, hi = oriented[p.host]
            owners = dg.masters[lo]
            order = stable_group_order(owners, k)
            lo, hi, owners = lo[order], hi[order], owners[order]
            cuts = np.searchsorted(owners, np.arange(k + 1))
            for m in range(k):
                sl = slice(cuts[m], cuts[m + 1])
                cnt = cuts[m + 1] - cuts[m]
                if cnt == 0:
                    continue
                payload = np.stack([lo[sl], hi[sl]])
                ph.comm.send(
                    p.host, m, payload, tag="adj",
                    nbytes=int(cnt) * 16, logical_messages=1,
                )
        for m in range(k):
            pieces = [payload for _, payload in ph.comm.recv_all(m, "adj")]
            if pieces:
                all_lo = np.concatenate([pc[0] for pc in pieces])
                all_hi = np.concatenate([pc[1] for pc in pieces])
                key = np.unique(all_lo * n + all_hi)
                lo, hi = key // n, key % n
                # Per-source slices of the sorted (lo, hi) arrays.
                starts = np.searchsorted(lo, np.arange(n))
                ends = np.searchsorted(lo, np.arange(n) + 1)
                srcs = np.unique(lo)
                for s in srcs:
                    adjacency[m][int(s)] = hi[starts[s] : ends[s]]
                ph.add_compute(m, float(key.size))

    # Phase 3: probe — ship (v, N+(u)) along each oriented edge (u, v).
    total = 0
    with cluster.phase("Probe") as ph:
        probes: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(k)]
        for m in range(k):
            for u, nbrs in adjacency[m].items():
                owners = dg.masters[nbrs]
                for v, owner in zip(nbrs.tolist(), owners.tolist()):
                    payload = (v, nbrs)
                    ph.comm.send(
                        m, owner, payload, tag="probe",
                        nbytes=8 + nbrs.size * 8, logical_messages=1,
                        coalesce=True,
                    )
            ph.add_compute(m, float(sum(a.size for a in adjacency[m].values())))
        for m in range(k):
            for _, (v, candidate) in ph.comm.recv_all(m, "probe"):
                mine = adjacency[m].get(int(v))
                if mine is None or mine.size == 0:
                    continue
                total += int(np.isin(candidate, mine, assume_unique=True).sum())
                ph.add_compute(m, float(candidate.size + mine.size))
        ph.comm.allreduce_sum([np.array([total])] + [np.array([0])] * (k - 1))

    return TriangleResult(count=total, breakdown=cluster.breakdown())


def triangles_reference(graph: CSRGraph) -> int:
    """Exact triangle count via the sparse-matrix identity
    ``sum((U @ U) * U)`` on the strictly-upper-triangular adjacency."""
    from scipy.sparse import csr_matrix

    src, dst = graph.symmetrize().edges()
    keep = src < dst
    src, dst = src[keep], dst[keep]
    n = graph.num_nodes
    u = csr_matrix(
        (np.ones(src.size, dtype=np.int64), (src, dst)), shape=(n, n)
    )
    u.sum_duplicates()
    u.data[:] = 1
    paths = u @ u
    return int(paths.multiply(u).sum())
