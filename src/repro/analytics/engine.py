"""D-Galois-style bulk-synchronous analytics engine over CuSP partitions.

The paper evaluates partition quality by running bfs/cc/pagerank/sssp in
D-Galois [1] on each policy's partitions (§V-C).  This engine reproduces
D-Galois' execution and communication structure:

* every host executes a vertex program over its local partition each
  round (vectorized NumPy kernels);
* **reduce**: mirrors whose value changed ship it to their master, which
  combines contributions with the program's reduction (min / add);
* **broadcast**: masters whose canonical value changed ship it to every
  partition holding a *read* proxy of that vertex (one with local
  outgoing edges — a write-only mirror never needs the canonical value
  back, which is Gluon's invariant-driven optimization);
* a global reduction detects convergence.

Each round runs as three :class:`~repro.runtime.executor.HostTask`
barriers on the cluster's executor, the way the partitioner's phases
do: ``_compute_body`` (local round, reduce sends), ``_fold_body``
(drains ``reduce``, ``post_reduce``, broadcast sends) and
``_install_body`` (drains ``bcast``).  Each body takes its host's
arrays in its payload and returns them; the task's ``apply`` writes
them back.  The convergence allreduce runs between barriers.

The communication advantages the paper attributes to each policy emerge
from the partition structure itself, with no per-policy code: outgoing
edge-cuts (XtraPulp/EEC/FEC) have write-only mirrors, so the broadcast
direction vanishes; CVC's mirrors only live in the master's grid row or
column, so each host exchanges messages with O(sqrt k) partners; general
vertex-cuts (HVC/GVC) pay both directions against all partners.

All values are computed *for real* — the engine's outputs are verified
against single-machine references in the test suite — while every byte
and message is charged to the simulated cluster to produce the execution
times of Figures 5/6.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..core.partition import DistributedGraph
from ..graph.csr import stable_group_order
from ..runtime.cluster import SimulatedCluster
from ..runtime.cost_model import STAMPEDE2, CostModel
from ..runtime.executor import HostTask, HostView
from ..runtime.stats import TimeBreakdown

__all__ = ["Engine", "AppResult", "VertexProgram"]

logger = logging.getLogger("repro.analytics")

_VALUE_ENTRY_BYTES = 12  # node id + 4-byte packed value on the wire


class VertexProgram:
    """Interface the analytics applications implement."""

    name: str = "abstract"
    #: "min" or "add" — how mirror contributions fold into the master.
    reduce_op: str = "min"
    #: Upper bound on rounds (None = run to convergence).
    max_rounds: int | None = None

    def init_values(self, dg: DistributedGraph, engine: "Engine") -> list[np.ndarray]:
        """Per-partition local value arrays (indexed by local id)."""
        raise NotImplementedError

    def initial_frontier(self, dg: DistributedGraph) -> list[np.ndarray]:
        """Per-partition boolean masks of initially-active locals."""
        raise NotImplementedError

    def compute(
        self,
        part,
        values: np.ndarray,
        frontier: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """One local round.

        Returns ``(changed_mask, work_units)`` where ``changed_mask``
        flags locals whose value this round's local work updated.
        """
        raise NotImplementedError

    def post_reduce(
        self, part, values: np.ndarray, reduced_mask: np.ndarray
    ) -> np.ndarray:
        """Master-side hook after mirror contributions are folded in.

        Returns the mask of master locals whose *canonical* value changed
        (defaults to the reduced mask itself; PageRank overrides it to
        turn accumulated partial sums into new ranks).
        """
        return reduced_mask

    def convergence_contribution(
        self, part, values: np.ndarray, canon_changed: np.ndarray
    ) -> int:
        """How many of this partition's masters are still unconverged.

        Defaults to the number of changed canonical values.  Programs may
        broadcast more eagerly than they converge (PageRank ships any
        meaningful rank movement but only counts movement above its
        tolerance), so the two signals are separate hooks.
        """
        return int(canon_changed.sum())

    def on_quiescence(self, dg: DistributedGraph, values, frontier) -> bool:
        """Called when a round produced no canonical changes.

        Return True to continue running (after mutating app state and
        re-seeding ``frontier`` masks in place — e.g. delta-stepping
        advancing to its next bucket); False (the default) ends the run.
        """
        return False

    def reduce_payload(self, part, values: np.ndarray, mirror_locals: np.ndarray):
        """Values a partition ships for its changed mirrors.

        Defaults to the mirrors' current values; PageRank overrides it to
        ship accumulated partial sums instead.
        """
        return values[mirror_locals]

    def apply_reduce(
        self, part, values: np.ndarray, locals_: np.ndarray, vals: np.ndarray
    ) -> np.ndarray:
        """Fold received contributions into the master partition.

        Returns a boolean array aligned with ``locals_`` flagging entries
        whose folded value actually changed.  The default implements the
        declared ``reduce_op``.
        """
        if self.reduce_op == "min":
            better = vals < values[locals_]
            np.minimum.at(values, locals_, vals)
            return better
        np.add.at(values, locals_, vals)
        return np.ones(len(locals_), dtype=bool)

    def extract(self, dg: DistributedGraph, values: list[np.ndarray]) -> np.ndarray:
        """Global result array gathered from the masters."""
        n = dg.num_global_nodes
        out = np.zeros(n, dtype=values[0].dtype if values else np.float64)
        for part, vals in zip(dg.partitions, values):
            m = part.num_masters
            out[part.master_global_ids] = vals[:m]
        return out


def _by_master(local_ids: np.ndarray, gids: np.ndarray, masters: np.ndarray,
               k: int):
    """Yield ``(m, local_ids, gids)`` for every partition ``m`` mastering
    some of ``gids``, in partition order and stable within it."""
    owners = masters[gids]
    order = stable_group_order(owners, k)
    local_ids, gids = local_ids[order], gids[order]
    cuts = np.searchsorted(owners[order], np.arange(k + 1))
    for m in range(k):
        if cuts[m + 1] > cuts[m]:
            sl = slice(cuts[m], cuts[m + 1])
            yield m, local_ids[sl], gids[sl]


def _compute_body(view: HostView, payload) -> tuple:
    """One host's local round, then its changed mirrors' values (or
    partials) to their masters, grouped by owner."""
    app, part, masters, values, frontier, k = payload
    changed, units = app.compute(part, values, frontier)
    view.add_compute(units)
    mirrors = np.flatnonzero(changed[part.num_masters :]) + part.num_masters
    for m, sent, gids in _by_master(mirrors, part.global_ids[mirrors], masters, k):
        view.send(
            m, (gids, app.reduce_payload(part, values, sent)), tag="reduce",
            nbytes=len(gids) * _VALUE_ENTRY_BYTES, logical_messages=1,
        )
    return values, np.zeros_like(frontier), changed


def _fold_body(view: HostView, payload) -> tuple:
    """Fold the mirrors' contributions into this host's masters, run the
    master-side hook, and broadcast changed masters to read mirrors."""
    app, part, values, frontier, changed, read_mask, bcast_book = payload
    # Locally-changed masters count as reduced too.
    reduced = changed.copy()
    reduced[part.num_masters :] = False
    for _, (gids, vals) in view.recv_all("reduce"):
        locals_ = part.to_local(gids)
        better = app.apply_reduce(part, values, locals_, vals)
        reduced[locals_[better]] = True
        view.add_compute(float(len(gids)))
    canon = app.post_reduce(part, values, reduced).copy()
    canon[part.num_masters :] = False
    contribution = app.convergence_contribution(part, values, canon)
    # Masters whose value changed re-enter the frontier where readable.
    frontier |= canon & read_mask
    for q, (m_local, q_local) in bcast_book.items():
        sel = canon[m_local]
        cnt = int(sel.sum())
        if cnt == 0:
            continue
        view.send(
            q, (q_local[sel], values[m_local[sel]]), tag="bcast",
            nbytes=cnt * _VALUE_ENTRY_BYTES, logical_messages=1,
        )
    return values, frontier, contribution


def _install_body(view: HostView, payload) -> tuple:
    """Install the broadcast canonical values on this host's mirrors."""
    values, frontier = payload
    for _, (locals_, vals) in view.recv_all("bcast"):
        values[locals_] = vals
        frontier[locals_] = True
        view.add_compute(float(len(locals_)))
    return values, frontier


@dataclass
class AppResult:
    """Outcome of one distributed application run."""

    name: str
    values: np.ndarray  # global, canonical (master) values
    rounds: int
    breakdown: TimeBreakdown
    comm_bytes: float

    @property
    def time(self) -> float:
        return self.breakdown.total

    def per_round_comm_bytes(self) -> list[float]:
        """Bytes exchanged in each round (one breakdown phase per round)."""
        return [p.comm_bytes for p in self.breakdown.phases]


class Engine:
    """Executes vertex programs over a :class:`DistributedGraph`."""

    def __init__(self, dg: DistributedGraph, cost_model: CostModel = STAMPEDE2,
                 buffer_size: int = 8 << 20):
        self.dg = dg
        self.cost_model = cost_model
        self.buffer_size = buffer_size
        self._build_address_books()

    # ------------------------------------------------------------------
    # Gluon-style address books, built once per partitioned graph
    # ------------------------------------------------------------------
    def _build_address_books(self) -> None:
        dg = self.dg
        k = dg.num_partitions
        #: read proxies have local out-edges (their value is an input).
        self.read_mask: list[np.ndarray] = []
        for part in dg.partitions:
            self.read_mask.append(part.local_graph.out_degree() > 0)
        # Broadcast routing: for master partition m and holder q, the
        # aligned (master-local ids, holder-local ids) of read mirrors.
        self.bcast: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [
            {} for _ in range(k)
        ]
        for q, part in enumerate(dg.partitions):
            mirrors_local = np.arange(part.num_masters, part.num_proxies)
            if mirrors_local.size == 0:
                continue
            readable = mirrors_local[self.read_mask[q][mirrors_local]]
            if readable.size == 0:
                continue
            gids = part.global_ids[readable]
            for m, q_local, m_gids in _by_master(readable, gids, dg.masters, k):
                self.bcast[m][q] = (dg.partitions[m].to_local(m_gids), q_local)

    # ------------------------------------------------------------------
    def run(self, app: VertexProgram, max_rounds: int | None = None) -> AppResult:
        """Run ``app`` to convergence (or its round limit), three
        barriers a round (see the module docstring)."""
        dg = self.dg
        k = dg.num_partitions
        cluster = SimulatedCluster(k, cost_model=self.cost_model,
                                   buffer_size=self.buffer_size)
        values = app.init_values(dg, self)
        frontier = app.initial_frontier(dg)
        changed: list[np.ndarray | None] = [None] * k
        limit = max_rounds if max_rounds is not None else app.max_rounds

        def write_back(h: int, keep_changed: bool = False):
            def apply(result):
                values[h], frontier[h], *rest = result
                if keep_changed:
                    changed[h] = rest[0]
                return rest[0] if rest else None
            return apply

        rounds = 0
        while True:
            with cluster.phase(f"round {rounds}") as phase:
                phase.executor.run(phase, [
                    HostTask(
                        q, _compute_body, label="compute",
                        payload=(app, part, dg.masters, values[q],
                                 frontier[q], k),
                        apply=write_back(q, keep_changed=True),
                    )
                    for q, part in enumerate(dg.partitions)
                ])
                folded = phase.executor.run(phase, [
                    HostTask(
                        m, _fold_body, label="fold",
                        payload=(app, part, values[m], frontier[m],
                                 changed[m], self.read_mask[m], self.bcast[m]),
                        apply=write_back(m),
                        drains=("reduce",),
                    )
                    for m, part in enumerate(dg.partitions)
                ])
                phase.executor.run(phase, [
                    HostTask(
                        q, _install_body, label="install",
                        payload=(values[q], frontier[q]),
                        apply=write_back(q),
                        drains=("bcast",),
                    )
                    for q in range(k)
                ])
                # Convergence check (global reduction every round).
                total_changed = sum(folded)
                phase.comm.allreduce_sum(
                    [np.array([total_changed], dtype=np.int64)] * k
                )
            rounds += 1
            if total_changed == 0 and not app.on_quiescence(dg, values, frontier):
                break
            if limit is not None and rounds >= limit:
                break

        breakdown = cluster.breakdown()
        logger.info(
            "%s converged in %d rounds, %.6f simulated seconds",
            app.name, rounds, breakdown.total,
        )
        return AppResult(
            name=app.name,
            values=app.extract(dg, values),
            rounds=rounds,
            breakdown=breakdown,
            comm_bytes=breakdown.comm_bytes(),
        )

    # ------------------------------------------------------------------
    # Shared setup collectives
    # ------------------------------------------------------------------
    def global_out_degrees(self) -> list[np.ndarray]:
        """Per-partition global out-degree of every local proxy.

        Computed the way a real system would: local degrees reduce (add)
        to masters, canonical degrees broadcast back.  Used by PageRank.
        This setup exchange is not charged to an application run.
        """
        dg = self.dg
        n = dg.num_global_nodes
        total = np.zeros(n, dtype=np.int64)
        for part in dg.partitions:
            np.add.at(total, part.global_ids, part.local_graph.out_degree())
        return [total[part.global_ids].copy() for part in dg.partitions]
