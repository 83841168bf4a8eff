"""History-sensitive streaming vertex-cut edge rules from Table I.

The paper's Table I lists the streaming vertex-cut family — PowerGraph's
greedy heuristic [4], HDRF [16], and DBH [17] — and claims every one of
them is expressible in CuSP's two-function interface.  DBH is in
:mod:`repro.core.edge_rules` (stateless); this module adds the two
*stateful* members, which exercise the ``estate`` machinery end to end:

* :class:`GreedyVertexCut` — PowerGraph's oblivious greedy placement:
  prefer partitions already holding both endpoints, then either endpoint,
  then the least loaded;
* :class:`HDRFRule` — High-Degree Replicated First: like greedy, but an
  endpoint's vote is weighted by its *relative partial degree* so that
  low-degree vertices avoid replication and hubs absorb it, plus an
  explicit load-balance term.

It also holds the paper's §II-B2 *streaming-window* class, which the
paper says CuSP "may be able to handle":

* :class:`WindowRule` — ADWISE [15]: keep a bounded window of scanned
  edges and repeatedly commit the best-scoring (edge, partition) pair
  instead of the last-scanned edge.

All three maintain, in their partitioning state, the per-partition edge
loads and the set of partitions each vertex has been replicated to — the
exact state the original systems keep — updated locally and reconciled
at CuSP's periodic synchronization boundaries.
"""

from __future__ import annotations

import numpy as np

from ..runtime.comm import Communicator
from .edge_rules import EdgeRule
from .state import PartitioningState

__all__ = ["GreedyVertexCut", "HDRFRule", "ReplicationState", "WindowRule"]


class ReplicationState(PartitioningState):
    """estate for streaming vertex-cuts: replica sets + loads + degrees.

    ``replicas`` is a (num_partitions, num_nodes) boolean presence map,
    ``edge_load`` the per-partition edge counts, ``partial_degree`` the
    number of stream edges seen per vertex so far.  Hosts update local
    deltas; ``sync_round`` ORs/sums them into the shared snapshot.
    """

    stateful = True

    def __init__(self, num_partitions: int, num_hosts: int, num_nodes: int):
        if num_partitions < 1 or num_hosts < 1 or num_nodes < 0:
            raise ValueError("invalid state dimensions")
        self.num_partitions = num_partitions
        self.num_hosts = num_hosts
        self.num_nodes = num_nodes
        self._snap_replicas = np.zeros((num_partitions, num_nodes), dtype=bool)
        self._snap_load = np.zeros(num_partitions, dtype=np.int64)
        self._snap_degree = np.zeros(num_nodes, dtype=np.int64)
        self._delta_replicas = [
            np.zeros((num_partitions, num_nodes), dtype=bool)
            for _ in range(num_hosts)
        ]
        self._delta_load = [
            np.zeros(num_partitions, dtype=np.int64) for _ in range(num_hosts)
        ]
        self._delta_degree = [
            np.zeros(num_nodes, dtype=np.int64) for _ in range(num_hosts)
        ]

    def host_view(self, host: int) -> "_ReplicationView":
        if not (0 <= host < self.num_hosts):
            raise ValueError(f"host {host} out of range")
        return _ReplicationView(self, host)

    def sync_round(self, comm: Communicator, blocking: bool = True) -> None:
        # Presence bitmaps reduce with OR, loads/degrees with sum; the
        # wire cost is one bitmap + two count vectors per host.
        payload_bytes = (
            self._snap_replicas.size / 8
            + self._snap_load.nbytes
            + self._snap_degree.nbytes
        )
        stacked = [
            np.concatenate(
                [
                    self._delta_load[h].astype(np.float64),
                    self._delta_degree[h].astype(np.float64),
                ]
            )
            for h in range(self.num_hosts)
        ]
        comm.allreduce_sum(stacked, blocking=blocking, nbytes=payload_bytes)
        # One reduction across the host axis per field (bit-equal to the
        # per-host fold: boolean OR and int64 sums are associative).
        self._snap_replicas |= np.logical_or.reduce(self._delta_replicas)
        self._snap_load += np.add.reduce(self._delta_load)
        self._snap_degree += np.add.reduce(self._delta_degree)
        for h in range(self.num_hosts):
            self._delta_replicas[h][:] = False
            self._delta_load[h][:] = 0
            self._delta_degree[h][:] = 0
        if blocking:
            comm.barrier()

    def reset(self) -> None:
        self._snap_replicas[:] = False
        self._snap_load[:] = 0
        self._snap_degree[:] = 0
        for h in range(self.num_hosts):
            self._delta_replicas[h][:] = False
            self._delta_load[h][:] = 0
            self._delta_degree[h][:] = 0


class _ReplicationView:
    """One host's view: snapshot + its own pending updates."""

    def __init__(self, owner: ReplicationState, host: int):
        self._owner = owner
        self._host = host

    def replicas_of(self, node: int) -> np.ndarray:
        return (
            self._owner._snap_replicas[:, node]
            | self._owner._delta_replicas[self._host][:, node]
        )

    @property
    def load(self) -> np.ndarray:
        return self._owner._snap_load + self._owner._delta_load[self._host]

    def degree(self, node: int) -> int:
        return int(
            self._owner._snap_degree[node]
            + self._owner._delta_degree[self._host][node]
        )

    def place(self, partition: int, src: int, dst: int) -> None:
        d = self._owner._delta_replicas[self._host]
        d[partition, src] = True
        d[partition, dst] = True
        self._owner._delta_load[self._host][partition] += 1
        self._owner._delta_degree[self._host][src] += 1
        self._owner._delta_degree[self._host][dst] += 1

    # Vectorized accessors for chunked batch scoring -------------------
    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return (
            self._owner._snap_degree[nodes]
            + self._owner._delta_degree[self._host][nodes]
        ).astype(np.float64)

    def replicas_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """(num_partitions, len(nodes)) presence matrix."""
        return (
            self._owner._snap_replicas[:, nodes]
            | self._owner._delta_replicas[self._host][:, nodes]
        )

    def place_batch(self, partitions: np.ndarray, src: np.ndarray,
                    dst: np.ndarray) -> None:
        d = self._owner._delta_replicas[self._host]
        d[partitions, src] = True
        d[partitions, dst] = True
        self._owner._delta_load[self._host] += np.bincount(
            partitions, minlength=self._owner.num_partitions
        )
        deg = self._owner._delta_degree[self._host]
        np.add.at(deg, src, 1)
        np.add.at(deg, dst, 1)


class GreedyVertexCut(EdgeRule):
    """PowerGraph's oblivious greedy vertex-cut heuristic [4].

    Case analysis per edge (classic formulation): if some partition holds
    both endpoints, use the least-loaded such partition; if the endpoints'
    replica sets are disjoint (and non-empty), place with the endpoint
    that has more unseen edges (higher partial degree -> keep spreading
    the hub); if only one endpoint is placed, follow it; else least
    loaded.
    """

    name = "Greedy"
    stateful = True
    invariant = "vertex-cut"

    def __init__(self, balance_cap: float = 1.25):
        # On a connected graph a purely affinity-driven sequential stream
        # cascades onto one partition (every edge shares an endpoint with
        # an already-placed edge).  Real deployments keep balance through
        # parallel loaders with stale state; the sequential formulation
        # needs an explicit overload guard: when the affinity choice is
        # more than ``balance_cap`` times the average load, fall back to
        # the least-loaded partition.
        if balance_cap < 1.0:
            raise ValueError("balance_cap must be >= 1")
        self.balance_cap = balance_cap

    def make_state(self, num_partitions, num_hosts, num_nodes=None):
        if num_nodes is None:
            raise ValueError("GreedyVertexCut needs num_nodes for its state")
        return ReplicationState(num_partitions, num_hosts, num_nodes)

    def owner(self, prop, src_id, dst_id, src_master, dst_master, estate=None):
        if estate is None:
            raise ValueError("GreedyVertexCut requires estate")
        a = estate.replicas_of(src_id)
        b = estate.replicas_of(dst_id)
        load = estate.load
        both = a & b
        if both.any():
            choice = _least_loaded(both, load)
        elif a.any() and b.any():
            # Disjoint: follow the endpoint with the larger remaining
            # degree (spread the hub's replicas).
            if estate.degree(src_id) >= estate.degree(dst_id):
                choice = _least_loaded(a, load)
            else:
                choice = _least_loaded(b, load)
        elif a.any():
            choice = _least_loaded(a, load)
        elif b.any():
            choice = _least_loaded(b, load)
        else:
            choice = int(np.argmin(load))
        cap = self.balance_cap * (load.sum() / load.size + 1.0)
        if load[choice] + 1 > cap and load[choice] - load.min() >= 4:
            # Overloaded relative to the average *and* by a real margin
            # (the margin keeps start-up noise from overriding affinity).
            choice = int(np.argmin(load))
        estate.place(choice, src_id, dst_id)
        return choice


class HDRFRule(EdgeRule):
    """High-Degree Replicated First [16].

    Per-edge score for partition p:
        C_rep(p) = g(src) * [src in p] + g(dst) * [dst in p]
        C_bal(p) = lam * (max_load - load[p]) / (1 + max_load - min_load)
    with g(v) = 1 + (1 - theta(v)) and theta(v) the vertex's share of the
    edge's combined partial degree — so the *lower*-degree endpoint's
    presence counts more, pushing replication onto hubs.
    """

    name = "HDRF"
    stateful = True
    invariant = "vertex-cut"

    def __init__(self, balance_lambda: float = 4.0, chunk_size: int = 256):
        # The replication score is bounded by g(src) + g(dst) = 3, so a
        # lambda above 3 guarantees the balance term can override affinity
        # once partitions drift apart (the HDRF paper notes quality is
        # insensitive to lambda while balance improves with it).
        if balance_lambda < 0:
            raise ValueError("balance_lambda must be >= 0")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.balance_lambda = balance_lambda
        self.chunk_size = chunk_size

    def make_state(self, num_partitions, num_hosts, num_nodes=None):
        if num_nodes is None:
            raise ValueError("HDRFRule needs num_nodes for its state")
        return ReplicationState(num_partitions, num_hosts, num_nodes)

    def owner(self, prop, src_id, dst_id, src_master, dst_master, estate=None):
        if estate is None:
            raise ValueError("HDRFRule requires estate")
        d_src = estate.degree(src_id) + 1
        d_dst = estate.degree(dst_id) + 1
        theta_src = d_src / (d_src + d_dst)
        g_src = 1.0 + (1.0 - theta_src)
        g_dst = 1.0 + theta_src
        load = estate.load.astype(np.float64)
        max_load = load.max()
        min_load = load.min()
        c_rep = (
            g_src * estate.replicas_of(src_id)
            + g_dst * estate.replicas_of(dst_id)
        )
        c_bal = (
            self.balance_lambda
            * (max_load - load)
            / (1.0 + max_load - min_load)
        )
        choice = int(np.argmax(c_rep + c_bal))
        estate.place(choice, src_id, dst_id)
        return choice

    def owner_batch(self, prop, src_ids, dst_ids, src_masters, dst_masters,
                    estate=None):
        """Chunked vectorized scoring.

        Edges are processed in chunks of ``chunk_size``; within a chunk
        every edge scores against the same (frozen) replica/load/degree
        snapshot, and the state is updated once per chunk.  That is the
        same staleness CuSP's periodic synchronization already accepts
        *between hosts* (§IV-D4), applied within one host's stream for a
        ~100x speedup.  ``chunk_size=1`` reproduces the exact per-edge
        semantics.
        """
        if estate is None:
            raise ValueError("HDRFRule requires estate")
        n_edges = len(src_ids)
        out = np.empty(n_edges, dtype=np.int32)
        src_ids = np.asarray(src_ids)
        dst_ids = np.asarray(dst_ids)
        if self.chunk_size <= 1:
            return super().owner_batch(
                prop, src_ids, dst_ids, src_masters, dst_masters, estate
            )
        for lo in range(0, n_edges, self.chunk_size):
            hi = min(lo + self.chunk_size, n_edges)
            s = src_ids[lo:hi]
            d = dst_ids[lo:hi]
            deg_s = estate.degrees_of(s) + 1.0
            deg_d = estate.degrees_of(d) + 1.0
            theta = deg_s / (deg_s + deg_d)
            g_src = 2.0 - theta  # 1 + (1 - theta)
            g_dst = 1.0 + theta
            load = estate.load.astype(np.float64)
            c_bal = (
                self.balance_lambda
                * (load.max() - load)
                / (1.0 + load.max() - load.min())
            )
            scores = (
                g_src[None, :] * estate.replicas_matrix(s)
                + g_dst[None, :] * estate.replicas_matrix(d)
                + c_bal[:, None]
            )
            choice = np.argmax(scores, axis=0).astype(np.int32)
            out[lo:hi] = choice
            estate.place_batch(choice, s, d)
        return out


class WindowRule(EdgeRule):
    """ADWISE-style bounded scoring window [15] (paper §II-B2).

    Each host streams its edges through a window of ``window_size``
    edges; every commit scores the whole window against every partition
    in one vectorized (k, |window|) pass — +1 for each endpoint already
    present on the partition, minus ``balance_weight / (|E| / k)`` times
    the partition's load — places the best (edge, partition) pair and
    refills the window.  Low-scoring edges thus wait until their
    endpoints' placements firm up.  ``window_size=1`` is plain streaming
    greedy; larger windows trade partitioning compute for quality
    (ADWISE's central claim).

    ``shuffle_stream`` streams each host's edges in a pseudo-random
    order seeded by the host's first edge id instead of CSR order.  CSR
    order is already clustered by source, so plain greedy is
    near-optimal on it; the window earns its keep on *unordered* streams
    (edge-list inputs), which this flag models.

    Only the batch form exists: the window reorders the stream, so no
    single edge has an owner of its own.
    """

    name = "Window"
    stateful = True
    invariant = "vertex-cut"

    def __init__(self, window_size: int = 64, balance_weight: float = 4.0,
                 shuffle_stream: bool = False):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if balance_weight < 0:
            raise ValueError("balance_weight must be >= 0")
        self.window_size = window_size
        self.balance_weight = balance_weight
        self.shuffle_stream = shuffle_stream

    def make_state(self, num_partitions, num_hosts, num_nodes=None):
        if num_nodes is None:
            raise ValueError("WindowRule needs num_nodes for its state")
        return ReplicationState(num_partitions, num_hosts, num_nodes)

    def owner_batch(self, prop, src_ids, dst_ids, src_masters, dst_masters,
                    estate=None):
        if estate is None:
            raise ValueError("WindowRule requires estate")
        src = np.asarray(src_ids)
        dst = np.asarray(dst_ids)
        n_edges = src.size
        out = np.empty(n_edges, dtype=np.int32)
        if not n_edges:
            return out
        order = np.arange(n_edges)
        if self.shuffle_stream:
            first_edge = prop.getNodeOutEdge(int(src[0]), 0)
            order = np.random.default_rng(first_edge).permutation(n_edges)
        stream = order.tolist()
        target = prop.getNumEdges() / prop.getNumPartitions()
        penalty_scale = self.balance_weight / target
        window: list[int] = []  # positions of the buffered edges
        cursor = 0
        while cursor < n_edges or window:
            while cursor < n_edges and len(window) < self.window_size:
                window.append(stream[cursor])
                cursor += 1
            w = np.asarray(window, dtype=np.int64)
            scores = (
                estate.replicas_matrix(src[w]).astype(np.float64)
                + estate.replicas_matrix(dst[w])
                - (penalty_scale * estate.load)[:, None]
            )
            p, i = divmod(int(np.argmax(scores)), w.size)
            e = window.pop(i)
            out[e] = p
            estate.place(p, int(src[e]), int(dst[e]))
        return out


def _least_loaded(mask: np.ndarray, load: np.ndarray) -> int:
    candidates = np.flatnonzero(mask)
    return int(candidates[np.argmin(load[candidates])])
