"""The simulated distributed-memory cluster.

A :class:`SimulatedCluster` stands in for the k Stampede2 hosts the paper
partitions onto.  It owns the cost model and the message-buffer setting,
hands out one :class:`~repro.runtime.stats.PhaseStats` (with a fresh
:class:`~repro.runtime.comm.Communicator`) per named phase, and assembles
the final :class:`~repro.runtime.stats.TimeBreakdown`.

Usage::

    cluster = SimulatedCluster(num_hosts=4)
    with cluster.phase("graph reading") as ph:
        ph.add_disk(host, nbytes)
        ...
    with cluster.phase("edge assignment") as ph:
        ph.executor.run(ph, [HostTask(h, body, payload=...) for h in ...])
        ...
    breakdown = cluster.breakdown()

An optional :class:`~repro.runtime.faults.FaultInjector` threads seeded
faults through every phase: sends may fail transiently (retried and
charged by the communicator) and hosts may crash mid-phase or at the
phase boundary, in which case the phase raises
:class:`~repro.runtime.faults.HostCrashError` with its stats marked
``failed``.  A phase body that raises for *any* reason is likewise marked
failed, so aborted phases never silently pollute :meth:`total_time`.
"""

from __future__ import annotations

from contextlib import contextmanager

from .comm import Communicator
from .cost_model import STAMPEDE2, CostModel
from .executor import make_executor
from .faults import FaultInjector
from .stats import PhaseStats, TimeBreakdown

__all__ = ["SimulatedCluster"]


class SimulatedCluster:
    """k simulated hosts with a shared cost model and buffer setting."""

    def __init__(
        self,
        num_hosts: int,
        cost_model: CostModel = STAMPEDE2,
        buffer_size: int = 8 << 20,
        host_speeds=None,
        injector: FaultInjector | None = None,
        max_send_retries: int = 5,
        executor=None,
        sanitizer=None,
    ):
        """``host_speeds`` optionally scales each host's compute rate (1.0
        = nominal; 0.5 = half speed).  Stampede2 is homogeneous, but a
        straggler ablation needs one slow host — and bulk-synchronous
        phases wait for it.  ``injector`` attaches a seeded fault plan;
        ``max_send_retries`` bounds per-send retransmission attempts.
        ``executor`` selects the per-host execution engine ("serial",
        "parallel", or an :class:`~repro.runtime.executor.Executor`).
        ``sanitizer`` optionally attaches a phase-communication auditor
        (:class:`repro.analysis.contracts.CommSan` or anything with its
        ``begin_phase``/``end_phase`` interface); it observes every
        phase's communicator and raises at the first contract breach."""
        if num_hosts < 1:
            raise ValueError("num_hosts must be >= 1")
        cost_model.validate()
        self.num_hosts = num_hosts
        self.cost_model = cost_model
        self.buffer_size = buffer_size
        self.injector = injector
        self.max_send_retries = max_send_retries
        self.executor = make_executor(executor)
        self.sanitizer = sanitizer
        if host_speeds is None:
            self.host_speeds = None
        else:
            import numpy as np

            speeds = np.asarray(host_speeds, dtype=np.float64)
            if speeds.shape != (num_hosts,) or np.any(speeds <= 0):
                raise ValueError("host_speeds needs one positive entry per host")
            self.host_speeds = speeds
        self._phases: list[PhaseStats] = []

    @contextmanager
    def phase(self, name: str, host_map=None):
        """Open a named bulk-synchronous phase.

        Phases are recorded in execution order; re-entering a name starts
        a new record (a crash-recovery replay of a phase produces a fresh
        record after the aborted one, which is marked ``failed``).
        ``host_map`` optionally maps each logical slot to the physical
        host executing it (crash recovery).
        """
        if self.injector is not None:
            self.injector.begin_phase(name)
        stats = PhaseStats(
            name=name,
            num_hosts=self.num_hosts,
            comm=Communicator(
                self.num_hosts,
                buffer_size=self.buffer_size,
                injector=self.injector,
                max_retries=self.max_send_retries,
            ),
            host_speeds=self.host_speeds,
            host_map=host_map,
            executor=self.executor,
        )
        self._phases.append(stats)
        if self.sanitizer is not None:
            self.sanitizer.begin_phase(stats)
        try:
            yield stats
            # A host planned to die at this phase's boundary takes the
            # phase's uncommitted output with it: the phase is aborted.
            if self.injector is not None:
                self.injector.phase_boundary()
        except BaseException:
            stats.failed = True
            # Audit the aborted phase too, but let the original failure
            # propagate; violations still accumulate on the sanitizer.
            if self.sanitizer is not None:
                self.sanitizer.end_phase(stats, raise_now=False)
            raise
        else:
            if self.sanitizer is not None:
                self.sanitizer.end_phase(stats)
        finally:
            # After the audit, on either exit: ``_phases`` keeps the
            # stats for the breakdown, not an aborted attempt's blocks.
            stats.comm.drop_pending()

    def hosts(self) -> range:
        return range(self.num_hosts)

    def close(self) -> None:
        """End the run on the execution engine: every resident
        shared-memory segment is unlinked and every pool worker told to
        drop its mappings, while the engine itself — its workers and
        their warm heaps — stays with whoever owns it (``CuSP.close``,
        or the caller that passed an executor instance in).

        Idempotent, and safe while the executor is idle between phases;
        the cluster can be used again.
        """
        self.executor.end_run()

    def breakdown(self) -> TimeBreakdown:
        """Simulated time of every recorded phase under the cost model."""
        return TimeBreakdown(
            phases=[p.report(self.cost_model) for p in self._phases]
        )

    def total_time(self) -> float:
        """Total simulated time of all *completed* phases."""
        return self.breakdown().total

    def reset(self) -> None:
        """Forget all recorded phases (e.g. between partitioning runs)."""
        self._phases.clear()

    @property
    def phase_stats(self) -> list[PhaseStats]:
        """Raw per-phase counters, in execution order."""
        return list(self._phases)
