"""Single-source betweenness centrality (Brandes) over CuSP partitions.

D-Galois ships a bc benchmark alongside the paper's four; this module
adds it to the reproduction.  Brandes' algorithm for one source s:

1. **Forward**: level-synchronous BFS computing, per vertex, its distance
   and its shortest-path count sigma(v) — sigma flows along tree edges
   (dist(d) = dist(s)+1) with add-reduction at the masters.
2. **Backward**: dependencies delta(v) = sum over successors w of
   sigma(v)/sigma(w) * (1 + delta(w)) accumulate level by level from the
   deepest level upward, again add-reduced at the masters.

Each level is one bulk-synchronous round with the usual mirror->master
reduce and master->mirror broadcast, all byte-counted.  The result is
exact (verified against a sequential Brandes in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.partition import DistributedGraph
from ..graph.csr import CSRGraph, stable_group_order
from ..runtime.cluster import SimulatedCluster
from ..runtime.cost_model import STAMPEDE2, CostModel
from ..runtime.stats import TimeBreakdown
from .apps import INF, bfs_reference
from .engine import Engine
from .apps import BFS

__all__ = ["betweenness_centrality", "bc_reference", "BCResult"]

_VALUE_ENTRY_BYTES = 16


@dataclass
class BCResult:
    """Betweenness dependencies from one source."""

    source: int
    dependencies: np.ndarray  # delta(v) per vertex
    sigma: np.ndarray  # shortest-path counts
    distances: np.ndarray
    breakdown: TimeBreakdown

    @property
    def time(self) -> float:
        return self.breakdown.total


def _exchange_add(phase, dg, local_vals, masks, tag):
    """Add-reduce per-proxy values of flagged locals to their masters,
    then return the per-partition canonical arrays."""
    k = dg.num_partitions
    for q, part in enumerate(dg.partitions):
        flagged = np.flatnonzero(masks[q])
        mirrors = flagged[flagged >= part.num_masters]
        if mirrors.size == 0:
            continue
        gids = part.global_ids[mirrors]
        owners = dg.masters[gids]
        order = stable_group_order(owners, k)
        mirrors, gids, owners = mirrors[order], gids[order], owners[order]
        cuts = np.searchsorted(owners, np.arange(k + 1))
        for m in range(k):
            sl = slice(cuts[m], cuts[m + 1])
            cnt = cuts[m + 1] - cuts[m]
            if cnt == 0:
                continue
            phase.comm.send(
                q, m, (gids[sl], local_vals[q][mirrors[sl]]), tag=tag,
                nbytes=int(cnt) * _VALUE_ENTRY_BYTES, logical_messages=1,
            )
    for m, part in enumerate(dg.partitions):
        for _, (gids, vals) in phase.comm.recv_all(m, tag):
            locals_ = part.to_local(gids)
            np.add.at(local_vals[m], locals_, vals)
            phase.add_compute(m, float(len(gids)))


def _full_mirror_book(dg):
    """Broadcast routing over *all* mirrors (not just read mirrors).

    Brandes reads values at destination proxies during the backward
    sweep, so every mirror needs the canonical value — unlike the
    vertex programs, where write-only mirrors never read it.
    """
    k = dg.num_partitions
    book = [dict() for _ in range(k)]
    for q, part in enumerate(dg.partitions):
        mirrors = np.arange(part.num_masters, part.num_proxies)
        if mirrors.size == 0:
            continue
        gids = part.global_ids[mirrors]
        owners = dg.masters[gids]
        order = stable_group_order(owners, k)
        mirrors, gids, owners = mirrors[order], gids[order], owners[order]
        cuts = np.searchsorted(owners, np.arange(k + 1))
        for m in range(k):
            sl = slice(cuts[m], cuts[m + 1])
            if cuts[m + 1] > cuts[m]:
                m_local = dg.partitions[m].to_local(gids[sl])
                book[m][q] = (m_local, mirrors[sl])
    return book


def _broadcast(phase, book, dg, local_vals, master_mask, tag):
    """Ship flagged masters' canonical values along ``book``."""
    for m, part in enumerate(dg.partitions):
        changed = master_mask[m]
        for q, (m_local, q_local) in book[m].items():
            sel = changed[m_local]
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            phase.comm.send(
                m, q, (q_local[sel], local_vals[m][m_local[sel]]), tag=tag,
                nbytes=cnt * _VALUE_ENTRY_BYTES, logical_messages=1,
            )
    for q, part in enumerate(dg.partitions):
        for _, (locals_, vals) in phase.comm.recv_all(q, tag):
            local_vals[q][locals_] = vals
            phase.add_compute(q, float(len(locals_)))


def betweenness_centrality(
    dg: DistributedGraph,
    source: int,
    cost_model: CostModel = STAMPEDE2,
) -> BCResult:
    """Brandes dependencies delta(v) for one source over ``dg``."""
    k = dg.num_partitions
    cluster = SimulatedCluster(k, cost_model=cost_model)
    engine = Engine(dg, cost_model=cost_model)
    book = _full_mirror_book(dg)

    # Distances via the engine's BFS (charged to this run's clock).
    bfs = engine.run(BFS(source))
    dist_global = bfs.values
    for p in bfs.breakdown.phases:
        cluster._phases.append(_ReplayPhase(p))
    max_level = int(dist_global[dist_global < INF].max(initial=0))

    # Per-partition local arrays.
    dist = [dist_global[p.global_ids] for p in dg.partitions]
    sigma = [np.zeros(p.num_proxies, dtype=np.float64) for p in dg.partitions]
    delta = [np.zeros(p.num_proxies, dtype=np.float64) for p in dg.partitions]
    for p in dg.partitions:
        local = p.to_local(np.array([source]))[0]
        if local >= 0:
            sigma[p.host][local] = 1.0

    # Forward sweep: sigma level by level.
    for level in range(max_level):
        with cluster.phase(f"forward {level}") as ph:
            contrib = [np.zeros(p.num_proxies) for p in dg.partitions]
            for q, part in enumerate(dg.partitions):
                frontier = np.flatnonzero(
                    (dist[q] == level) & (sigma[q] > 0)
                )
                total = _push(part, frontier, sigma[q], dist[q], level + 1,
                              contrib[q])
                ph.add_compute(q, total)
            masks = [c != 0 for c in contrib]
            _exchange_add(ph, dg, contrib, masks, tag=f"sig{level}")
            # Fold canonical contributions into sigma at masters, then
            # broadcast the new sigma to read mirrors.
            master_mask = []
            for m, part in enumerate(dg.partitions):
                mm = contrib[m] != 0
                mm[part.num_masters :] = False
                sigma[m][: part.num_masters] += contrib[m][: part.num_masters]
                master_mask.append(mm)
            _broadcast(ph, book, dg, sigma, master_mask, tag=f"sigb{level}")

    # Backward sweep: dependencies from the deepest level up.
    for level in range(max_level, 0, -1):
        with cluster.phase(f"backward {level}") as ph:
            contrib = [np.zeros(p.num_proxies) for p in dg.partitions]
            for q, part in enumerate(dg.partitions):
                # Edges (v, w) with dist v = level-1, dist w = level:
                # v accumulates sigma(v)/sigma(w) * (1 + delta(w)).
                frontier = np.flatnonzero(dist[q] == level - 1)
                total = _pull_dependencies(
                    part, frontier, sigma[q], delta[q], dist[q], level,
                    contrib[q],
                )
                ph.add_compute(q, total)
            masks = [c != 0 for c in contrib]
            _exchange_add(ph, dg, contrib, masks, tag=f"dep{level}")
            master_mask = []
            for m, part in enumerate(dg.partitions):
                mm = contrib[m] != 0
                mm[part.num_masters :] = False
                delta[m][: part.num_masters] += contrib[m][: part.num_masters]
                master_mask.append(mm)
            _broadcast(ph, book, dg, delta, master_mask, tag=f"depb{level}")

    # Gather canonical results.
    n = dg.num_global_nodes
    out_delta = np.zeros(n)
    out_sigma = np.zeros(n)
    for q, part in enumerate(dg.partitions):
        m = part.num_masters
        out_delta[part.master_global_ids] = delta[q][:m]
        out_sigma[part.master_global_ids] = sigma[q][:m]
    return BCResult(
        source=source,
        dependencies=out_delta,
        sigma=out_sigma,
        distances=dist_global,
        breakdown=cluster.breakdown(),
    )


class _ReplayPhase:
    """Adapter folding an already-evaluated PhaseReport into a cluster."""

    def __init__(self, report):
        self._report = report
        self.name = report.name

    def report(self, model):
        return self._report


def _edge_slices(part, frontier):
    indptr = part.local_graph.indptr
    starts = indptr[frontier]
    counts = (indptr[frontier + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return None
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    edge_idx = np.repeat(starts, counts) + (np.arange(total) - offsets)
    src_rep = np.repeat(frontier, counts)
    return src_rep, part.local_graph.indices[edge_idx], total


def _push(part, frontier, sigma, dist, next_level, contrib):
    """sigma contributions along tree edges frontier -> next level."""
    if frontier.size == 0:
        return 0.0
    sl = _edge_slices(part, frontier)
    if sl is None:
        return float(frontier.size)
    src_rep, dst, total = sl
    tree = dist[dst] == next_level
    np.add.at(contrib, dst[tree], sigma[src_rep[tree]])
    return float(total)


def _pull_dependencies(part, frontier, sigma, delta, dist, level, contrib):
    """delta contributions pulled from successors at ``level``."""
    if frontier.size == 0:
        return 0.0
    sl = _edge_slices(part, frontier)
    if sl is None:
        return float(frontier.size)
    src_rep, dst, total = sl
    tree = dist[dst] == level
    src_t, dst_t = src_rep[tree], dst[tree]
    valid = sigma[dst_t] > 0
    src_t, dst_t = src_t[valid], dst_t[valid]
    np.add.at(
        contrib,
        src_t,
        sigma[src_t] / sigma[dst_t] * (1.0 + delta[dst_t]),
    )
    return float(total)


def bc_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """Sequential Brandes dependencies for one source."""
    n = graph.num_nodes
    dist = bfs_reference(graph, source)
    sigma = np.zeros(n, dtype=np.float64)
    sigma[source] = 1.0
    max_level = int(dist[dist < INF].max(initial=0))
    src_all, dst_all = graph.edges()
    # Forward: level by level.
    for level in range(max_level):
        tree = (dist[src_all] == level) & (dist[dst_all] == level + 1)
        np.add.at(sigma, dst_all[tree], sigma[src_all[tree]])
    delta = np.zeros(n, dtype=np.float64)
    for level in range(max_level, 0, -1):
        tree = (dist[src_all] == level - 1) & (dist[dst_all] == level)
        s, d = src_all[tree], dst_all[tree]
        ok = sigma[d] > 0
        s, d = s[ok], d[ok]
        np.add.at(delta, s, sigma[s] / sigma[d] * (1.0 + delta[d]))
    return delta
