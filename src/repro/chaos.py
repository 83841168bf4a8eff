"""Seeded chaos campaigns over the full fault family (``repro chaos``).

A chaos campaign is the robustness analogue of the experiment suite: it
derives N deterministic fault plans spanning every fault family the
runtime models — message faults (transient failures, drops, duplicates),
payload corruption, boundary and mid-phase host crashes, stragglers
under run supervision, torn durable-checkpoint writes, and kill -9
mid-checkpoint (simulated by running a planned crash with a zero retry
budget, then resuming the interrupted checkpoint in a fresh
partitioner) — and asserts, for every plan, the headline guarantee:

* the resulting partition is **bit-identical** to the fault-free run
  (masters, per-host global ids, local CSR arrays);
* CommSan audits every phase with **zero violations** (so all recovery,
  re-request and migration traffic obeys the conservation laws);
* scenario-specific postconditions hold (a torn write was detected and
  repaired, a straggler was quarantined, a kill/resume pair reproduces
  the uninterrupted :class:`~repro.runtime.stats.TimeBreakdown` exactly).

Campaigns are pure functions of ``(seed, plans, hosts, policy)``; the CI
gate pins one and must stay green forever.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import CuSP
from .core.partition import DistributedGraph
from .graph import CSRGraph, erdos_renyi
from .runtime.executor import Executor, make_executor
from .runtime.faults import FaultPlan, HostCrash, UnrecoverableClusterError

__all__ = ["ChaosScenario", "ChaosResult", "ChaosReport", "derive_scenarios",
           "run_campaign"]

#: Checkpoint stages a torn-write scenario may target (construction is
#: never checkpointed).
_STAGES = ("reading", "masters", "assignment", "allocation")


@dataclass(frozen=True)
class ChaosScenario:
    """One derived fault plan plus how to run and judge it."""

    index: int
    kind: str
    plan: FaultPlan
    #: Run under the straggler supervisor (and expect a quarantine).
    supervise: bool = False
    #: Run with a durable checkpoint directory.
    durable: bool = False
    #: Kill the run (zero retry budget) and resume it in a fresh
    #: partitioner, asserting the resumed run matches the uninterrupted
    #: reference exactly.
    kill_resume: bool = False

    def describe(self) -> str:
        return f"#{self.index} {self.kind}: {self.plan.describe()}"


@dataclass(frozen=True)
class ChaosResult:
    scenario: ChaosScenario
    ok: bool
    detail: str


@dataclass
class ChaosReport:
    results: list[ChaosResult] = field(default_factory=list)

    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[ChaosResult]:
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        n = len(self.results)
        bad = len(self.failures)
        if bad:
            return f"{bad} of {n} chaos plan(s) failed"
        return f"{n} chaos plan(s) survived bit-identically"

    def render_text(self) -> str:
        lines = []
        for r in self.results:
            mark = "ok  " if r.ok else "FAIL"
            lines.append(f"{mark} {r.scenario.describe()} — {r.detail}")
        return "\n".join(lines)


def derive_scenarios(
    plans: int, seed: int, num_hosts: int = 4
) -> list[ChaosScenario]:
    """Derive ``plans`` deterministic scenarios cycling the fault families.

    Parameters are jittered per scenario from ``default_rng([seed, i])``,
    so a campaign is reproducible from ``(seed, plans, num_hosts)`` alone.
    """
    if plans < 1:
        raise ValueError("plans must be >= 1")
    if num_hosts < 2:
        raise ValueError("chaos campaigns need >= 2 hosts")
    kinds = (
        "message-faults",
        "boundary-crash",
        "midphase-crash",
        "straggler",
        "corrupt-payload",
        "torn-checkpoint",
        "kill-resume",
    )
    out: list[ChaosScenario] = []
    for i in range(plans):
        rng = np.random.default_rng([seed, i])
        kind = kinds[i % len(kinds)]
        plan_seed = int(rng.integers(0, 2**31))
        host = int(rng.integers(0, num_hosts))
        phase = int(rng.integers(0, 5))
        if kind == "message-faults":
            plan = FaultPlan(
                seed=plan_seed,
                send_failure_rate=float(rng.choice([0.02, 0.05, 0.1])),
                drop_rate=float(rng.choice([0.0, 0.02, 0.05])),
                duplicate_rate=float(rng.choice([0.0, 0.02])),
            )
            out.append(ChaosScenario(i, kind, plan))
        elif kind == "boundary-crash":
            plan = FaultPlan(
                seed=plan_seed,
                drop_rate=float(rng.choice([0.0, 0.02])),
                crashes=(HostCrash(host=host, phase=phase),),
            )
            out.append(ChaosScenario(i, kind, plan, durable=bool(i % 2)))
        elif kind == "midphase-crash":
            plan = FaultPlan(
                seed=plan_seed,
                crashes=(
                    HostCrash(
                        host=host, phase=phase,
                        op_count=int(rng.integers(1, 40)),
                    ),
                ),
            )
            out.append(ChaosScenario(i, kind, plan, durable=bool(i % 2)))
        elif kind == "straggler":
            plan = FaultPlan(
                seed=plan_seed,
                slow_hosts={host: float(rng.uniform(0.005, 0.02))},
            )
            out.append(ChaosScenario(i, kind, plan, supervise=True))
        elif kind == "corrupt-payload":
            plan = FaultPlan(
                seed=plan_seed,
                corrupt_rate=float(rng.choice([0.2, 0.3, 0.4])),
            )
            out.append(ChaosScenario(i, kind, plan))
        elif kind == "torn-checkpoint":
            stage = _STAGES[int(rng.integers(0, len(_STAGES)))]
            plan = FaultPlan(seed=plan_seed, torn_checkpoints=(stage,))
            out.append(ChaosScenario(i, kind, plan, durable=True))
        else:  # kill-resume
            plan = FaultPlan(
                seed=plan_seed,
                crashes=(
                    HostCrash(
                        host=host,
                        phase=int(rng.integers(1, 5)),
                        op_count=int(rng.integers(1, 40)),
                    ),
                ),
            )
            out.append(
                ChaosScenario(i, kind, plan, durable=True, kill_resume=True)
            )
    return out


def _same_partition(a: DistributedGraph, b: DistributedGraph) -> bool:
    if not np.array_equal(a.masters, b.masters):
        return False
    for pa, pb in zip(a.partitions, b.partitions):
        if not np.array_equal(pa.global_ids, pb.global_ids):
            return False
        if pa.num_masters != pb.num_masters:
            return False
        if not np.array_equal(pa.local_graph.indptr, pb.local_graph.indptr):
            return False
        if not np.array_equal(pa.local_graph.indices, pb.local_graph.indices):
            return False
    return True


def _run_scenario(
    scenario: ChaosScenario,
    graph: CSRGraph,
    base: DistributedGraph,
    policy: str,
    k: int,
    executor: "str | Executor" = "serial",
) -> ChaosResult:
    plan = scenario.plan
    kwargs: dict[str, Any] = {
        "fault_plan": plan,
        "sanitizer": True,
        "supervise": scenario.supervise,
        "executor": executor,
    }
    if plan.corrupt_rate > 0:
        # At these rates (0.2-0.4) a policy that sends hundreds of
        # blocks meets four corrupted deliveries in a row, which
        # exhausts the default budget.  The scenario is about surviving
        # corruption: a send may retry until a run that long has a
        # chance below 1e-16.  The budget consumes no draws, so verdicts
        # the default already survived are unchanged.
        kwargs["max_retries"] = math.ceil(-16 / math.log10(plan.corrupt_rate))

    def finish(
        cusp: CuSP, dg: DistributedGraph, extra: str = ""
    ) -> ChaosResult:
        if cusp.sanitizer.violations:
            return ChaosResult(
                scenario, False,
                f"{len(cusp.sanitizer.violations)} CommSan violation(s): "
                f"{cusp.sanitizer.violations[0]}",
            )
        if not _same_partition(dg, base):
            return ChaosResult(
                scenario, False, "partition differs from the fault-free run"
            )
        report = cusp.last_fault_report
        detail = report.summary() if report is not None else "no faults"
        if scenario.supervise:
            sup = cusp.last_supervisor_report
            if not sup.mitigations:
                return ChaosResult(
                    scenario, False,
                    "straggler plan ran supervised but nothing was "
                    "quarantined",
                )
            detail += f"; {sup.summary()}"
        if scenario.plan.torn_checkpoints:
            if report is None or report.torn_repairs < 1:
                return ChaosResult(
                    scenario, False,
                    "torn-checkpoint plan never tore a verified write",
                )
        return ChaosResult(scenario, True, detail + extra)

    if scenario.kill_resume:
        with tempfile.TemporaryDirectory() as ckpt:
            # The uninterrupted reference for this plan (recovers
            # in-process with the normal retry budget).
            with CuSP(k, policy, **kwargs) as ref:
                ref_dg = ref.partition(graph)
            # kill -9: a zero retry budget makes the planned crash
            # fatal, leaving a partial durable checkpoint behind.
            victim = CuSP(
                k, policy, fault_plan=plan, max_retries=0,
                checkpoint_dir=ckpt,
            )
            try:
                with victim:
                    victim.partition(graph)
                return ChaosResult(
                    scenario, False, "victim run survived a fatal plan"
                )
            # repro-lint: disable-next-line=swallowed-error -- the victim dying here is the scenario
            except UnrecoverableClusterError:
                pass
            with CuSP(
                k, policy, checkpoint_dir=ckpt, resume=True, **kwargs
            ) as resumed:
                dg = resumed.partition(graph)
            if dg.breakdown.phases != ref_dg.breakdown.phases:
                return ChaosResult(
                    scenario, False,
                    "resumed TimeBreakdown differs from the "
                    "uninterrupted run",
                )
            if resumed.last_fault_report.events != ref.last_fault_report.events:
                return ChaosResult(
                    scenario, False,
                    "resumed fault-event log differs from the "
                    "uninterrupted run",
                )
            return finish(resumed, dg, extra="; resumed bit-exactly")

    if scenario.durable:
        with tempfile.TemporaryDirectory() as ckpt:
            with CuSP(k, policy, checkpoint_dir=ckpt, **kwargs) as cusp:
                return finish(cusp, cusp.partition(graph))
    with CuSP(k, policy, **kwargs) as cusp:
        return finish(cusp, cusp.partition(graph))


def run_campaign(
    plans: int = 10,
    seed: int = 7,
    num_hosts: int = 4,
    policy: str = "CVC",
    graph: CSRGraph | None = None,
    verbose: bool = False,
    executor: str = "serial",
) -> ChaosReport:
    """Run a seeded chaos campaign and return its report.

    ``executor`` selects the execution engine for every scenario run;
    the fault-free reference always runs serially, so a non-serial
    campaign additionally proves executor equivalence under chaos.  The
    campaign holds one engine for all its scenarios — each plan needs
    its own ``CuSP``, and they share the worker pool.
    """
    if graph is None:
        graph = erdos_renyi(300, 2400, seed=11)
    with CuSP(num_hosts, policy) as reference:
        base = reference.partition(graph)
    report = ChaosReport()
    engine = make_executor(executor)
    try:
        for scenario in derive_scenarios(plans, seed, num_hosts=num_hosts):
            try:
                result = _run_scenario(
                    scenario, graph, base, policy, num_hosts, executor=engine
                )
            except Exception as exc:
                result = ChaosResult(
                    scenario, False, f"{type(exc).__name__}: {exc}"
                )
            report.results.append(result)
            if verbose:
                print(("ok   " if result.ok else "FAIL ") + scenario.describe())
    finally:
        engine.close()
    return report
