"""The CuSP partitioner: five phases over a simulated cluster (paper §IV).

:class:`CuSP` is the user-facing entry point of the reproduction.  Give it
the number of partitions and a policy — either a name from the paper's
Table II or a custom (:class:`~repro.core.master_rules.MasterRule`,
:class:`~repro.core.edge_rules.EdgeRule`) pair — and call
:meth:`CuSP.partition` on a graph (in memory or a ``.gr`` file on disk).
The result is a :class:`~repro.core.partition.DistributedGraph` whose
``breakdown`` attribute carries the simulated per-phase timing of
Figure 4.

As in the paper, CuSP runs on as many hosts as desired partitions.

Unlike the paper, the partitioner is *crash-recoverable*: attach a
:class:`~repro.runtime.faults.FaultPlan` and the run survives transient
send failures (retried with backoff by the communicator), message
drops/duplication, slow hosts, and host crashes.  Every phase checkpoints
its output (:class:`~repro.core.partition_io.PartitionCheckpoint`); when
a host crashes, its read slice is handed to the least-loaded survivor —
the *logical* phase schedule never changes — the aborted phase is
replayed from the last checkpoint, and the survivor is charged the
re-read of the dead host's graph slice plus all replayed work.  Because
the schedule is preserved, the recovered partition is bit-identical to
the fault-free one (masters and edge assignment alike), which
:mod:`repro.core.validate` can prove after the fact.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.formats import read_gr
from ..runtime.cluster import SimulatedCluster
from ..runtime.cost_model import STAMPEDE2, CostModel
from ..runtime.executor import Executor, HostTask, make_executor
from ..runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultReport,
    HostCrashError,
    RecoveryManager,
    UnrecoverableClusterError,
)
from ..runtime.stats import PhaseReport, TimeBreakdown
from ..runtime.supervisor import DeadlinePolicy, RunSupervisor
from .assignment_phase import assignment_from_owners, run_edge_assignment
from .construction_phase import run_allocation, run_construction
from .contracts import contract_context_for
from .masters_phase import run_master_assignment
from .partition import DistributedGraph
from .partition_io import PartitionCheckpoint
from .policies import Policy, make_policy
from .prop import GraphProp
from .reading import (
    compute_read_ranges,
    read_bytes_for_range,
    read_bytes_for_ranges,
)

__all__ = ["CuSP", "PHASE_NAMES"]

logger = logging.getLogger("repro.cusp")

#: Figure 4's phase names, in execution order.
PHASE_NAMES = [
    "Graph Reading",
    "Master Assignment",
    "Edge Assignment",
    "Graph Allocation/Other",
    "Graph Construction",
]


def _read_slice(view, nbytes: int) -> None:
    """Charge one host's share of the input file (task-payload seam)."""
    view.add_disk(nbytes)


class CuSP:
    """Customizable streaming edge partitioner.

    Parameters
    ----------
    num_partitions:
        Number of partitions; the simulated cluster has one host per
        partition (paper §III-A).
    policy:
        A :class:`~repro.core.policies.Policy` or a name from Table II
        (e.g. ``"CVC"``).
    cost_model:
        Machine parameters for simulated timing.
    buffer_size:
        Message-buffer threshold in bytes (paper default 8 MB, §IV-D3);
        0 sends every logical message immediately (Figure 7's 0 MB point).
    sync_rounds:
        Bulk-synchronous rounds for masters/state synchronization during
        master assignment (paper default 100; Tables VI/VII sweep it).
    node_balance_weight / edge_balance_weight:
        Importance of node vs edge counts when dividing the input among
        hosts for reading (§IV-B1's command-line knobs).
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan`; the run then
        injects (and survives) the planned faults, and
        :attr:`last_fault_report` describes what happened.
    checkpoint_dir:
        Directory for durable per-phase checkpoints (in-memory snapshots
        when ``None``).  Durable checkpoints are written atomically and
        digest-verified on every load.
    resume:
        Resume an interrupted run from ``checkpoint_dir``: the manifest
        is validated, completed stages are digest-verified in order
        (falling back to the longest verified prefix), the injector/
        recovery/supervisor state recorded with the last verified stage
        is restored, and only the remaining phases execute — producing a
        partition and :class:`~repro.runtime.stats.TimeBreakdown`
        bit-identical to an uninterrupted run.
    supervise:
        Run supervision (:class:`~repro.runtime.supervisor.
        RunSupervisor`): ``True`` derives per-phase soft/hard deadlines
        from the cost model with the default
        :class:`~repro.runtime.supervisor.DeadlinePolicy` (or pass a
        policy instance) and quarantines hosts breaching the hard
        deadline, migrating their read slices to healthy hosts; the
        migration's re-reads are charged to the cost model.
        ``last_supervisor_report`` exposes the deadline history.
    max_retries:
        Retry budget, both per send (transient failures/drops) and per
        phase (crash replays).
    executor:
        The per-host execution engine: ``"serial"`` (default, the
        deterministic reference), ``"parallel"`` (thread pool with
        deterministic ledger merging — same partitions, same simulated
        breakdown), ``"process"`` (forked worker processes shipping
        columnar batches and ledger deltas back over pipes — same
        guarantees, true multi-core), their ``"-checked"`` variants
        (isolation monitoring), or an
        :class:`~repro.runtime.executor.Executor`.  The engine lives as
        long as this object, not as long as a call: a name is resolved
        once, here, and its pool (forked workers, threads) is started
        by the first :meth:`partition` that needs it, kept warm across
        calls and retired by :meth:`close` — ``with CuSP(...) as
        cusp:`` — or when the object is collected.  Each call releases
        only what belongs to the run (shared-memory segments, the
        workers' mappings of them), so nothing is in ``/dev/shm``
        between calls.  An ``Executor`` instance is used the same way
        but stays the caller's to close.
    sanitizer:
        Phase-communication auditing: ``True`` attaches a fresh
        :class:`~repro.analysis.contracts.CommSan` (bound to this run's
        configuration), or pass a preconstructed instance to inspect its
        accumulated :attr:`~repro.analysis.contracts.CommSan.violations`
        afterwards.  Any contract breach raises
        :class:`~repro.analysis.contracts.ContractViolationError` at the
        offending phase's barrier.
    fabric:
        Accepted and ignored: ``None`` or ``"columnar"``, the one message
        fabric (typed :class:`~repro.runtime.colfab.MessageBatch`
        blocks).  Kept so callers that name it keep running; any other
        value raises :class:`ValueError`.
    """

    def __init__(
        self,
        num_partitions: int,
        policy: Policy | str,
        cost_model: CostModel = STAMPEDE2,
        buffer_size: int = 8 << 20,
        sync_rounds: int = 100,
        node_balance_weight: float = 0.0,
        edge_balance_weight: float = 1.0,
        elide_master_communication: bool = True,
        host_speeds=None,
        fault_plan: FaultPlan | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        max_retries: int = 3,
        executor=None,
        sanitizer=None,
        fabric: str | None = None,
        resume: bool = False,
        supervise: bool | DeadlinePolicy = False,
    ):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        self.num_partitions = num_partitions
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.cost_model = cost_model
        self.buffer_size = buffer_size
        self.sync_rounds = sync_rounds
        self.node_balance_weight = node_balance_weight
        self.edge_balance_weight = edge_balance_weight
        #: §IV-D5 optimizations (replicated computation for pure rules,
        #: request-driven assignment exchange); disable only for ablation.
        self.elide_master_communication = elide_master_communication
        #: Optional per-host compute speed factors (straggler modeling).
        self.host_speeds = host_speeds
        if fault_plan is not None:
            fault_plan.validate()
            for crash in fault_plan.crashes:
                if crash.host >= num_partitions:
                    raise ValueError(
                        f"fault plan crashes host {crash.host}, but only "
                        f"{num_partitions} hosts exist"
                    )
            for host in fault_plan.slow_hosts:
                if not (0 <= int(host) < num_partitions):
                    raise ValueError(
                        f"fault plan slows host {host}, but only "
                        f"{num_partitions} hosts exist"
                    )
        self.fault_plan = fault_plan
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        if isinstance(supervise, DeadlinePolicy):
            supervise.validate()
        self.supervise = supervise
        self.max_retries = max_retries
        #: The execution engine, held across :meth:`partition` calls.
        self.executor = make_executor(executor)
        self._owns_executor = not isinstance(executor, Executor)
        if fabric not in (None, "columnar"):
            raise ValueError(
                f"unknown fabric {fabric!r}: the scalar fabric was removed, "
                "'columnar' is the only message fabric"
            )
        if sanitizer is True:
            from ..analysis.contracts import CommSan

            sanitizer = CommSan()
        elif sanitizer is False:
            sanitizer = None
        self.sanitizer = sanitizer
        #: :class:`~repro.runtime.faults.FaultReport` of the most recent
        #: :meth:`partition` call (None before the first call, or when no
        #: fault plan is attached).
        self.last_fault_report: FaultReport | None = None
        #: :class:`~repro.runtime.supervisor.RunSupervisor` of the most
        #: recent :meth:`partition` call (None unless ``supervise``).
        self.last_supervisor_report: RunSupervisor | None = None

    def close(self) -> None:
        """Retire the execution engine this object resolved from a name
        (its worker pool); idempotent, and :meth:`partition` afterwards
        starts a fresh one.  An executor instance passed in is left to
        the caller."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "CuSP":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _effective_host_speeds(self):
        """Merge the straggler knob with the fault plan's slow hosts."""
        plan = self.fault_plan
        if plan is None or not plan.slow_hosts:
            return self.host_speeds
        speeds = (
            np.ones(self.num_partitions, dtype=np.float64)
            if self.host_speeds is None
            else np.asarray(self.host_speeds, dtype=np.float64).copy()
        )
        for host, factor in plan.slow_hosts.items():
            speeds[int(host)] *= float(factor)
        return speeds

    def partition(
        self, graph: CSRGraph | str | os.PathLike, output: str = "csr"
    ) -> DistributedGraph:
        """Partition ``graph`` and return the distributed result.

        ``graph`` may be a :class:`CSRGraph` or a path to a binary ``.gr``
        file.  ``output`` selects the local format each host constructs
        ("csr" or "csc", §III-A).
        """
        if not isinstance(graph, CSRGraph):
            logger.info("reading graph from %s", graph)
            graph = read_gr(graph)
        original = graph
        logger.info(
            "partitioning |V|=%d |E|=%d into %d partitions with %s",
            graph.num_nodes, graph.num_edges, self.num_partitions,
            self.policy.name,
        )
        if self.policy.input_format == "csc":
            # Streaming the CSC image means streaming incoming edges: the
            # partitioner sees the transpose.  (On a real system the CSC
            # file already exists on disk; the transpose here stands in
            # for reading that file and is not charged to any phase.)
            graph = graph.transpose()

        k = self.num_partitions
        injector = (
            FaultInjector(self.fault_plan) if self.fault_plan is not None else None
        )
        if self.sanitizer is not None:
            # Bind the sanitizer to this run's configuration so that
            # conditional contract clauses and expected round counts are
            # evaluated against what the phases will actually do.
            self.sanitizer.context = contract_context_for(
                self.policy,
                k,
                sync_rounds=self.sync_rounds,
                elide_master_communication=self.elide_master_communication,
            )
        cluster = SimulatedCluster(
            k,
            cost_model=self.cost_model,
            buffer_size=self.buffer_size,
            host_speeds=self._effective_host_speeds(),
            injector=injector,
            max_send_retries=self.max_retries,
            executor=self.executor,
            sanitizer=self.sanitizer,
        )
        recovery = RecoveryManager(k)
        checkpoint = PartitionCheckpoint(
            self.checkpoint_dir,
            meta={
                "policy": self.policy.name,
                "num_partitions": k,
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
            },
            injector=injector,
            resume=self.resume,
        )
        supervisor = None
        if self.supervise:
            supervisor = RunSupervisor(
                self.cost_model,
                recovery,
                policy=(
                    self.supervise
                    if isinstance(self.supervise, DeadlinePolicy)
                    else None
                ),
                injector=injector,
            )
        self.last_supervisor_report = supervisor

        try:
            return self._partition_with_cluster(
                graph, original, k, output, injector, cluster, recovery,
                checkpoint, supervisor,
            )
        finally:
            # End the run — every resident shared-memory segment is
            # unlinked, including when a phase raises, so failed runs
            # never leak segments.  The worker pool stays for the next
            # call (a barrier that did not complete has killed it).
            cluster.close()

    def _partition_with_cluster(
        self,
        graph: CSRGraph,
        original: CSRGraph,
        k: int,
        output: str,
        injector: FaultInjector | None,
        cluster: SimulatedCluster,
        recovery: RecoveryManager,
        checkpoint: PartitionCheckpoint,
        supervisor: "RunSupervisor | None",
    ) -> DistributedGraph:
        """The five phases, against a live cluster (see :meth:`partition`)."""
        #: Reports of phases completed by the interrupted process (resume
        #: only); prepended to this process's breakdown at the end.
        prior_reports: list[PhaseReport] = []
        done: list[str] = []
        if self.resume:
            done = checkpoint.completed()
            if done:
                state = checkpoint.runtime_state(done[-1])
                if state is None:
                    raise ValueError(
                        f"cannot resume: stage {done[-1]!r} carries no "
                        "runtime state; the checkpoint predates resume "
                        "support"
                    )
                prior_reports = [
                    PhaseReport.from_dict(d) for d in state["phase_reports"]
                ]
                if injector is not None and state.get("injector") is not None:
                    injector.restore_state(state["injector"])
                recovery.restore_state(state["recovery"])
                if supervisor is not None and state.get("supervisor") is not None:
                    supervisor.restore_state(state["supervisor"])
            logger.info(
                "resuming from %s: %d stage(s) verified%s",
                self.checkpoint_dir, len(done),
                (
                    f" (fell back at {checkpoint.fallback_stage!r})"
                    if checkpoint.fallback_stage
                    else ""
                ),
            )
        # Graph residency: the pooled process executor exports the CSR
        # arrays into shared-memory segments its workers map zero-copy;
        # every other executor returns the object unchanged.
        prop = cluster.executor.publish("prop", GraphProp(graph, k))

        def snapshot_runtime(stage):
            """Record restorable run state alongside ``stage``'s arrays.

            Written into the same atomic manifest update as the stage
            save, so a resumed process restores state that is exactly
            consistent with the arrays it replays from.
            """
            reports = prior_reports + [
                s.report(self.cost_model) for s in cluster.phase_stats
            ]
            checkpoint.set_runtime_state(
                stage,
                {
                    "phase_reports": [r.to_dict() for r in reports],
                    "injector": (
                        None if injector is None else injector.state_dict()
                    ),
                    "recovery": recovery.state_dict(),
                    "supervisor": (
                        None if supervisor is None else supervisor.state_dict()
                    ),
                },
            )

        def recoverable(name, body, charge_reread=True):
            """Run one phase; on a host crash, reassign and replay.

            The replay re-executes the phase from checkpointed inputs on
            the surviving hosts.  ``charge_reread`` additionally bills
            the survivor the disk re-read of every adopted slice (the
            reading phase re-reads inside its own body, so it opts out).
            """
            attempt = 0
            while True:
                try:
                    with cluster.phase(name, host_map=recovery.executors()) as ph:
                        adopted = recovery.drain_rereads()
                        if charge_reread:
                            executors = recovery.executors()
                            for slot in adopted:
                                start, stop = ranges[slot]
                                ph.add_disk(
                                    int(executors[slot]),
                                    read_bytes_for_range(graph, start, stop),
                                )
                        result = body(ph)
                    if supervisor is not None:
                        quarantined = supervisor.after_phase(ph)
                        for host in quarantined:
                            logger.warning(
                                "host %d breached the hard deadline in %r; "
                                "quarantined, slices migrate to healthy "
                                "hosts", host, name,
                            )
                    return result
                except HostCrashError as exc:
                    attempt += 1
                    if attempt > self.max_retries:
                        raise UnrecoverableClusterError(
                            f"phase {name!r} crashed {attempt} times; "
                            f"retry budget ({self.max_retries}) exhausted"
                        ) from exc
                    recovery.on_crash(exc.host, name)
                    logger.warning(
                        "host %d crashed during %r; replaying from "
                        "checkpoint (%d host(s) dead, attempt %d/%d)",
                        exc.host, name, recovery.num_dead, attempt,
                        self.max_retries,
                    )

        # Phase 1: graph reading.
        ranges = compute_read_ranges(
            graph,
            k,
            node_weight=self.node_balance_weight,
            edge_weight=self.edge_balance_weight,
        )

        def phase_reading(ph):
            ph.executor.run(
                ph,
                [
                    HostTask(h, _read_slice, label="read-slice", payload=nbytes)
                    for h, nbytes in enumerate(read_bytes_for_ranges(graph, ranges))
                ],
            )

        if "reading" in done:
            ranges_blob = checkpoint.load("reading")["ranges"]
        else:
            recoverable(PHASE_NAMES[0], phase_reading, charge_reread=False)
            snapshot_runtime("reading")
            ranges_blob = checkpoint.roundtrip(
                "reading", ranges=np.asarray(ranges, dtype=np.int64)
            )["ranges"]
        ranges = [(int(start), int(stop)) for start, stop in ranges_blob]

        # Phase 2: master assignment.
        def phase_masters(ph):
            return run_master_assignment(
                ph, prop, self.policy, ranges,
                sync_rounds=self.sync_rounds,
                elide_master_communication=self.elide_master_communication,
            )

        ma = None
        if "masters" in done:
            # A fresh process's policy state equals the post-phase reset,
            # so no live MasterAssignment is needed past this stage.
            masters = checkpoint.load("masters")["masters"]
        else:
            ma = recoverable(PHASE_NAMES[1], phase_masters)
            snapshot_runtime("masters")
            masters = checkpoint.roundtrip("masters", masters=ma.masters)[
                "masters"
            ]
        # Publish the *post-roundtrip* array: it is what every later
        # phase reads, and (unlike the live one) provably immutable.
        masters = cluster.executor.publish("masters", masters)

        # Phase 3: edge assignment.
        def phase_edges(ph):
            return run_edge_assignment(ph, prop, self.policy, ranges, masters)

        if "assignment" in done:
            owner_blob = checkpoint.load("assignment")
            assignment = assignment_from_owners(
                prop, ranges, [owner_blob[f"owners_{h}"] for h in range(k)]
            )
        else:
            assignment = recoverable(PHASE_NAMES[2], phase_edges)
            snapshot_runtime("assignment")
            owner_blob = checkpoint.roundtrip(
                "assignment",
                **{f"owners_{h}": assignment.owners[h] for h in range(k)},
            )
            # The count matrices and the owner grouping are pure
            # functions of (owners, edges), both of which round-trip
            # bit-identically through the checkpoint, so phases 4/5
            # reuse what phase 3 already computed.  (A resumed run
            # recomputes them from the same inputs, with the same
            # result.)  Rebinding drops the live assignment, so no
            # owner array outlives its checkpointed twin.
            assignment = assignment_from_owners(
                prop, ranges, [owner_blob[f"owners_{h}"] for h in range(k)],
                live=assignment,
            )
        assignment = cluster.executor.publish("assignment", assignment)

        # Phase 4: graph allocation.  Partitioning state is reset so rule
        # re-evaluation during construction reproduces the same decisions.
        def phase_alloc(ph):
            if ma is not None:
                ma.state.reset()
            return run_allocation(ph, prop, assignment, masters)

        if "allocation" in done:
            proxy_blob = checkpoint.load("allocation")
        else:
            proxies = recoverable(PHASE_NAMES[3], phase_alloc)
            snapshot_runtime("allocation")
            proxy_blob = checkpoint.roundtrip(
                "allocation", **{f"proxies_{h}": proxies[h] for h in range(k)}
            )
        proxies = cluster.executor.publish(
            "proxies", [proxy_blob[f"proxies_{h}"] for h in range(k)]
        )

        # Phase 5: graph construction.
        def phase_construct(ph):
            return run_construction(
                ph, prop, self.policy, assignment, masters, proxies,
                output=output,
            )

        partitions = recoverable(PHASE_NAMES[4], phase_construct)

        if injector is not None:
            self.last_fault_report = FaultReport(
                plan=self.fault_plan,
                events=tuple(injector.events),
                crash_log=tuple(recovery.crash_log),
                replays=recovery.replays,
                straggler_log=tuple(recovery.straggler_log),
                torn_repairs=checkpoint.torn_repairs,
            )
            if injector.events:
                logger.info("fault report: %s", self.last_fault_report.summary())
        else:
            self.last_fault_report = None
        if supervisor is not None and supervisor.mitigations:
            logger.info("supervisor: %s", supervisor.summary())

        breakdown = TimeBreakdown(
            prior_reports + cluster.breakdown().phases
        )
        logger.info(
            "partitioned with %s in %.6f simulated seconds "
            "(%.0f KB exchanged)",
            self.policy.name, breakdown.total,
            breakdown.comm_bytes() / 1024,
        )
        return DistributedGraph(
            partitions=partitions,
            # The phases read a frozen (checkpointed) master map; the
            # caller gets a writable one of its own.
            masters=np.array(masters),
            num_global_nodes=original.num_nodes,
            num_global_edges=original.num_edges,
            policy_name=self.policy.name,
            invariant=self.policy.invariant,
            breakdown=breakdown,
        )
