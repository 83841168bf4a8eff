"""The pluggable per-host execution engine (``repro.runtime.executor``).

Headline property: ``ParallelExecutor`` is *observationally identical*
to ``SerialExecutor`` — same partitions bit for bit, same simulated
``TimeBreakdown`` down to every byte/message/retry counter — because
per-host comm ledgers are merged in host order at the phase barrier,
reproducing exactly the serial host-by-host schedule.  That must hold
for every policy, and it must keep holding under injected faults and
crash-recovery replays.

Also covers the comm-layer fixes that rode along: ``payload_nbytes`` on
NumPy 2 scalars and 0-d arrays, explicit ``nbytes=`` on allreduce, and
``partners`` counting retry-only peers; and what keeps the process pool
shipping each barrier input once: declared inboxes (``HostTask.drains``),
writable shared arrays (``share``), the stepped masters rounds and the
``sync_rounds`` scaling gate.
"""

import collections
import contextlib
import dataclasses
import errno
import functools
import gc
import hashlib
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CuSP,
    GraphProp,
    compute_read_ranges,
    construction_phase,
    make_policy,
    policy_names,
    window_policy,
)
from repro.core.assignment_phase import run_edge_assignment
from repro.core.masters_phase import run_master_assignment
from repro.graph import CSRGraph, erdos_renyi
from repro.graph.csr import node_id_dtype
from repro.runtime import colfab, pool as pool_module, residency
from repro.runtime.colfab import ColumnSchema, MessageBatch
from repro.runtime.comm import CommLedger, Communicator, payload_nbytes
from repro.runtime.executor import (
    EXECUTOR_NAMES,
    Executor,
    HostTask,
    ParallelExecutor,
    ProcessExecutor,
    SerialExecutor,
    UndeclaredDrainError,
    UnshippableTaskError,
    make_executor,
)
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    HostCrash,
    SendRetriesExhausted,
)

from repro.runtime.colfab import leaked_segments
from repro.runtime.residency import SHM_THRESHOLD

from .strategies import fault_plans, graphs


@pytest.fixture(autouse=True)
def _no_leaked_shm_segments():
    """Every test in this module — pooled process runs included — must
    leave ``/dev/shm`` clean: graph-residency segments are unlinked at
    executor close, ephemeral segments at load, relayed ones with their
    array, and crash teardown sweeps whatever a killed worker abandoned."""
    yield
    assert leaked_segments() == [], (
        "shared-memory segments leaked past executor teardown"
    )


def assert_same_partition(a, b):
    assert np.array_equal(a.masters, b.masters)
    assert len(a.partitions) == len(b.partitions)
    for pa, pb in zip(a.partitions, b.partitions):
        assert np.array_equal(pa.global_ids, pb.global_ids)
        assert pa.num_masters == pb.num_masters
        assert np.array_equal(pa.master_host, pb.master_host)
        assert np.array_equal(pa.local_graph.indptr, pb.local_graph.indptr)
        assert np.array_equal(pa.local_graph.indices, pb.local_graph.indices)


def assert_same_breakdown(a, b):
    """Every simulated counter must match — not approximately, exactly."""
    assert len(a.phases) == len(b.phases)
    for pa, pb in zip(a.phases, b.phases):
        for field in (
            "name", "total", "disk", "compute", "comm", "collective",
            "comm_bytes", "comm_messages", "retry_bytes", "retry_messages",
            "failed",
        ):
            assert getattr(pa, field) == getattr(pb, field), (
                f"{pa.name}: {field} diverges between executors"
            )


def run_both(graph, policy, k=4, plan=None, **kw):
    """Serial vs parallel run — the parallel side under the isolation
    race detector and both sides under the CommSan contract sanitizer,
    so every equivalence example also proves no task touched another
    host's state and no phase broke its communication contract."""
    serial = CuSP(k, policy, fault_plan=plan, executor="serial",
                  sanitizer=True, **kw)
    checked = ParallelExecutor(check_isolation=True)
    parallel = CuSP(k, policy, fault_plan=plan, executor=checked,
                    sanitizer=True, **kw)
    dg_s, dg_p = serial.partition(graph), parallel.partition(graph)
    assert not checked.monitor.violations
    assert checked.monitor.num_accesses > 0, (
        "isolation monitor observed nothing; detector is not wired in"
    )
    for cusp in (serial, parallel):
        assert cusp.sanitizer.violations == []
        assert cusp.sanitizer.phases_checked >= 5, (
            "CommSan audited nothing; sanitizer is not wired in"
        )
    return dg_s, dg_p


#: Every named policy, plus the streaming window: a stateful edge rule
#: outside the table, run through the same five phases.
ALL_POLICIES = policy_names() + [pytest.param(window_policy(8), id="Window(8)")]


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_all_policies_bit_identical(self, policy):
        graph = erdos_renyi(300, 2400, seed=11)
        dg_s, dg_p = run_both(graph, policy)
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)

    @settings(max_examples=20, deadline=None)
    @given(graph=graphs(), policy=st.sampled_from(policy_names()),
           k=st.integers(2, 6))
    def test_arbitrary_graphs(self, graph, policy, k):
        dg_s, dg_p = run_both(graph, policy, k=k)
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)

    @settings(max_examples=10, deadline=None)
    @given(graph=graphs(min_nodes=8), buffer_size=st.sampled_from(
        [64, 4096, 8 << 20]))
    def test_buffer_sizes(self, graph, buffer_size):
        dg_s, dg_p = run_both(graph, "CVC", buffer_size=buffer_size)
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)

    def test_explicit_executor_instances(self):
        graph = erdos_renyi(200, 1200, seed=5)
        dg_s = CuSP(4, "HVC", executor=SerialExecutor()).partition(graph)
        dg_p = CuSP(
            4, "HVC", executor=ParallelExecutor(max_workers=3)
        ).partition(graph)
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)


@pytest.mark.faults
class TestEquivalenceUnderFaults:
    def test_message_faults_and_crash_recovery(self, tmp_path):
        plan = FaultPlan(
            seed=2, send_failure_rate=0.05, drop_rate=0.03,
            duplicate_rate=0.03,
            crashes=(
                # op-keyed mid-phase crash + phase-entry crash: both
                # abort attempts that the parallel merge must discard
                # identically to the serial abort.
                HostCrash(host=1, phase=2, op_count=5),
                HostCrash(host=2, phase=4),
            ),
        )
        graph = erdos_renyi(300, 2400, seed=11)
        serial = CuSP(4, "CVC", fault_plan=plan, executor="serial",
                      checkpoint_dir=str(tmp_path / "s"), sanitizer=True)
        checked = ParallelExecutor(check_isolation=True)
        parallel = CuSP(4, "CVC", fault_plan=plan, executor=checked,
                        checkpoint_dir=str(tmp_path / "p"), sanitizer=True)
        dg_s, dg_p = serial.partition(graph), parallel.partition(graph)
        assert not checked.monitor.violations
        assert serial.sanitizer.violations == []
        assert parallel.sanitizer.violations == []
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)
        assert serial.last_fault_report.events == (
            parallel.last_fault_report.events
        )
        # The plan really fired: replayed phases appear in both.
        assert dg_s.breakdown.failed_phases()

    @settings(max_examples=15, deadline=None)
    @given(plan=fault_plans(), policy=st.sampled_from(["EEC", "CVC", "SVC"]))
    def test_arbitrary_fault_plans(self, plan, policy):
        graph = erdos_renyi(120, 700, seed=7)
        serial = CuSP(4, policy, fault_plan=plan, executor="serial",
                      sanitizer=True)
        checked = ParallelExecutor(check_isolation=True)
        parallel = CuSP(4, policy, fault_plan=plan, executor=checked,
                        sanitizer=True)
        try:
            dg_s = serial.partition(graph)
        except SendRetriesExhausted:
            # An unlucky seed can legitimately fail one send past the
            # retry budget.  Fault draws are keyed to (host, op), so the
            # parallel executor must reach the identical verdict.
            with pytest.raises(SendRetriesExhausted):
                parallel.partition(graph)
            return
        dg_p = parallel.partition(graph)
        assert not checked.monitor.violations
        assert serial.sanitizer.violations == []
        assert parallel.sanitizer.violations == []
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)
        assert serial.last_fault_report.events == (
            parallel.last_fault_report.events
        )


class TestExecutorMechanics:
    def test_make_executor(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("parallel"), ParallelExecutor)
        ex = ParallelExecutor()
        assert make_executor(ex) is ex
        checked = make_executor("parallel-checked")
        assert isinstance(checked, ParallelExecutor)
        assert checked.monitor is not None
        assert isinstance(make_executor("process"), ProcessExecutor)
        pchecked = make_executor("process-checked")
        assert isinstance(pchecked, ProcessExecutor)
        assert pchecked.monitor is not None
        with pytest.raises(ValueError):
            make_executor("bogus")
        assert set(EXECUTOR_NAMES) == {
            "serial", "parallel", "parallel-checked",
            "process", "process-checked",
        }

    def test_duplicate_hosts_rejected(self, ledger_executor):
        with pytest.raises(ValueError, match="one task per host"):
            ledger_executor.run(_make_stats(), [
                HostTask(0, _pool_ok_body), HostTask(0, _pool_ok_body),
            ])

    def test_results_in_task_order(self, ledger_executor):
        tasks = [HostTask(h, _pool_times_ten_body, payload=h)
                 for h in (2, 0, 1)]
        assert ledger_executor.run(_make_stats(), tasks) == [20, 0, 10]
        assert SerialExecutor().run(_make_stats(), tasks) == [20, 0, 10]

    def test_task_exception_propagates(self, ledger_executor):
        # One task runs in turn in the parent, two run concurrently.
        with pytest.raises(RuntimeError, match="task failed in worker"):
            ledger_executor.run(_make_stats(), [HostTask(0, _pool_boom_body)])
        with pytest.raises(RuntimeError, match="task failed in worker"):
            ledger_executor.run(_make_stats(), [
                HostTask(0, _pool_ok_body), HostTask(1, _pool_boom_body),
            ])

    def test_failed_barrier_leaves_what_serial_leaves(self, ledger_executor):
        """First failure in host order wins: host 0 merges fully, host
        1's partial ledger merges as-is, host 2 — which did run,
        concurrently — is discarded, fault events included."""
        def fail_at_host_1(executor):
            ph = _make_stats(plan=FaultPlan(
                seed=5, send_failure_rate=0.3, duplicate_rate=0.3,
            ))
            ph.comm.injector.begin_phase("test")
            tasks = [HostTask(h, _charge_then_fail_body, payload=1)
                     for h in range(3)]
            with pytest.raises(RuntimeError, match="host failed mid-task"):
                executor.run(ph, tasks)
            comm = ph.comm
            return {
                "sent_bytes": comm.sent_bytes.tolist(),
                "sent_messages": comm.sent_messages.tolist(),
                "retry_bytes": comm.retry_bytes.tolist(),
                "queues": [
                    [(src, np.asarray(p).tolist())
                     for src, p in comm.recv_all(h, tag="t")]
                    for h in range(3)
                ],
                "disk_bytes": ph.disk_bytes.tolist(),
                "compute_units": ph.compute_units.tolist(),
                "events": list(comm.injector.events),
            }

        expected = fail_at_host_1(SerialExecutor())
        assert fail_at_host_1(ledger_executor) == expected
        # The scenario is the one described, not a degenerate one.
        assert expected["events"], "fault plan never fired"
        assert expected["disk_bytes"] == [100.0, 200.0, 0.0]
        assert (0, "after") in expected["queues"][1]
        assert all(src != 2 for q in expected["queues"] for src, _ in q)

    def test_parallel_actually_overlaps(self):
        ph = _make_stats(num_hosts=2)
        barrier = threading.Barrier(2, timeout=10)

        def body(view):
            barrier.wait()  # deadlocks unless both tasks run concurrently
            return True

        results = ParallelExecutor(max_workers=2).run(ph, [
            HostTask(0, body), HostTask(1, body),
        ])
        assert results == [True, True]

    def test_ledger_merge_matches_direct(self):
        """Every executor's barrier charges the same matrices, and
        queues the same payloads, as hand calls on the shared
        ``Communicator`` and ``PhaseStats`` — and both equal the
        literal costs: 50 int64 ids are 400 B in one message per remote
        pair, 100 B of disk and 7 compute units per host."""
        def peers(h):
            return [j for j in range(3) if j != h]

        def state(ph):
            c = ph.comm
            return (
                c.sent_bytes.tolist(), c.sent_messages.tolist(),
                ph.disk_bytes.tolist(), ph.compute_units.tolist(),
                [[(src, p.tolist()) for src, p in c.recv_all(j, tag="t")]
                 for j in range(3)],
            )

        direct = _make_stats()
        for h in range(3):
            for dst in peers(h):
                direct.comm.send(h, dst, np.arange(50) + h, tag="t")
            direct.add_disk(h, 100.0)
            direct.add_compute(h, 7.0)
        expected = state(direct)
        remote = [[float(src != dst) for dst in range(3)] for src in range(3)]
        assert expected[0] == [[400.0 * r for r in row] for row in remote]
        assert expected[1] == remote
        assert expected[2:4] == ([100.0] * 3, [7.0] * 3)
        assert expected[4][0] == [
            (1, list(range(1, 51))), (2, list(range(2, 52))),
        ]
        executors = (
            SerialExecutor(), ParallelExecutor(max_workers=2),
            ProcessExecutor(max_workers=2),
        )
        try:
            for executor in executors:
                ph = _make_stats()
                executor.run(ph, [
                    HostTask(h, _send_to_peers_body, payload=peers(h))
                    for h in range(3)
                ])
                assert state(ph) == expected, executor.name
        finally:
            for executor in executors:
                executor.close()


def _relay_body(view, payload):
    log, compute_units, fail_at = payload
    h = view.host
    seen = [src for src, _ in view.recv_all("relay")]
    log.append(("body", h, compute_units.tolist(), seen))
    view.add_compute(1.0)
    if h == fail_at:
        raise RuntimeError(f"host {h} failed")
    view.send((h + 1) % 3, h, tag="relay")
    return h


def _relay_tasks(ph, log, fail_at=None):
    """Host h logs what it sees of the shared state and of its inbox,
    charges one compute unit, and relays its id to host h + 1; every
    apply logs too.  A body sees host h - 1's relay only when host
    h - 1 merged before it started.  The body is module-level, so a
    pooled barrier accepts the tasks too."""
    def apply(h):
        log.append(("apply", h))
        return h

    return [
        HostTask(h, _relay_body, payload=(log, ph.compute_units, fail_at),
                 apply=apply, drains=("relay",))
        for h in range(3)
    ]


#: The log of a relay sweep with one host in flight.
_IN_TURN_LOG = [
    ("body", 0, [0.0, 0.0, 0.0], []), ("apply", 0),
    ("body", 1, [1.0, 0.0, 0.0], [0]), ("apply", 1),
    ("body", 2, [1.0, 1.0, 0.0], [1]), ("apply", 2),
]


class TestOneHostInFlight:
    """Serial is the shared barrier with one host in flight: host h+1's
    body starts only after host h has merged and applied, and the first
    failure ends the sweep — no later body runs.  ``chain()`` runs that
    way under every executor, without entering the barrier."""

    def test_serial_barrier_runs_hosts_in_turn(self):
        ph, log = _make_stats(), []
        assert SerialExecutor().run(ph, _relay_tasks(ph, log)) == [0, 1, 2]
        assert log == _IN_TURN_LOG
        assert ph.comm.recv_all(0, "relay") == [(2, 2)]

    def test_serial_failure_runs_no_later_body(self):
        ph, log = _make_stats(), []
        with pytest.raises(RuntimeError, match="host 1 failed"):
            SerialExecutor().run(ph, _relay_tasks(ph, log, fail_at=1))
        assert log == _IN_TURN_LOG[:3]
        # Host 1's partial ledger merged; host 2 never ran, so nothing
        # of it (and no relay to host 0) reached the shared state.
        assert ph.compute_units.tolist() == [1.0, 1.0, 0.0]
        assert [ph.comm.pending(h, "relay") for h in range(3)] == [0, 0, 0]

    @pytest.mark.parametrize("name", ["serial", "parallel", "process"])
    def test_chain_runs_hosts_in_turn(self, name, monkeypatch):
        def no_barrier(*args, **kwargs):
            raise AssertionError("chain() entered Executor.run")

        executor = make_executor(name)
        try:
            monkeypatch.setattr(Executor, "run", no_barrier)
            ph, log = _make_stats(), []
            assert executor.chain(ph, _relay_tasks(ph, log)) == [0, 1, 2]
            assert log == _IN_TURN_LOG
            ph, log = _make_stats(), []
            with pytest.raises(RuntimeError, match="host 1 failed"):
                executor.chain(ph, _relay_tasks(ph, log, fail_at=1))
            assert log == _IN_TURN_LOG[:3]
            assert ph.compute_units.tolist() == [1.0, 1.0, 0.0]
        finally:
            executor.close()


def run_serial_and_process(graph, policy, k=4, plan=None, **kw):
    """Serial vs forked-process run, both under CommSan and the process
    side under the isolation detector (worker evidence is shipped back
    and merged into the parent's monitor)."""
    serial = CuSP(k, policy, fault_plan=plan, executor="serial",
                  sanitizer=True, **kw)
    checked = ProcessExecutor(check_isolation=True)
    proc = CuSP(k, policy, fault_plan=plan, executor=checked,
                sanitizer=True, **kw)
    dg_s, dg_p = serial.partition(graph), proc.partition(graph)
    assert not checked.monitor.violations
    assert checked.monitor.num_accesses > 0, (
        "isolation evidence never crossed the process boundary"
    )
    for cusp in (serial, proc):
        assert cusp.sanitizer.violations == []
        assert cusp.sanitizer.phases_checked >= 5
    return dg_s, dg_p


class TestSerialProcessEquivalence:
    """ProcessExecutor must be observationally identical to serial: the
    same partitions and every simulated counter, with ledger deltas,
    fault-channel RNG states and sanitizer evidence shipped across the
    process boundary instead of shared memory."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_all_policies_bit_identical(self, policy):
        graph = erdos_renyi(300, 2400, seed=11)
        dg_s, dg_p = run_serial_and_process(graph, policy)
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)

    def test_window_unchecked_process_and_fault_plan(self, tmp_path):
        """The window under the plain pool matches serial, and a crash
        in its (stateful) edge assignment replays to the fault-free
        partition."""
        graph = erdos_renyi(300, 2400, seed=11)
        policy = window_policy(8)
        dg_s = CuSP(4, policy, executor="serial").partition(graph)
        with CuSP(4, policy, executor="process") as cusp:
            dg_p = cusp.partition(graph)
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)
        plan = FaultPlan(
            seed=2, send_failure_rate=0.05, drop_rate=0.03,
            duplicate_rate=0.03,
            crashes=(HostCrash(host=1, phase=2, op_count=5),),
        )
        with CuSP(4, policy, fault_plan=plan, executor="process",
                  checkpoint_dir=str(tmp_path), sanitizer=True) as cusp:
            dg_f = cusp.partition(graph)
            assert cusp.sanitizer.violations == []
        assert dg_f.breakdown.failed_phases()
        assert_same_partition(dg_s, dg_f)

    def test_fec_serial_vs_process(self):
        graph = erdos_renyi(250, 1800, seed=3)
        dg_s, dg_p = run_serial_and_process(graph, "FEC")
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)

    def test_crash_bearing_fault_plan(self, tmp_path):
        plan = FaultPlan(
            seed=2, send_failure_rate=0.05, drop_rate=0.03,
            duplicate_rate=0.03,
            crashes=(
                HostCrash(host=1, phase=2, op_count=5),
                HostCrash(host=2, phase=4),
            ),
        )
        graph = erdos_renyi(300, 2400, seed=11)
        serial = CuSP(4, "CVC", fault_plan=plan, executor="serial",
                      checkpoint_dir=str(tmp_path / "s"), sanitizer=True)
        checked = ProcessExecutor(check_isolation=True)
        proc = CuSP(4, "CVC", fault_plan=plan, executor=checked,
                    checkpoint_dir=str(tmp_path / "p"), sanitizer=True)
        dg_s, dg_p = serial.partition(graph), proc.partition(graph)
        assert not checked.monitor.violations
        assert serial.sanitizer.violations == []
        assert proc.sanitizer.violations == []
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)
        assert serial.last_fault_report.events == (
            proc.last_fault_report.events
        )
        assert dg_s.breakdown.failed_phases()

    def test_chaos_campaign(self):
        from repro.chaos import run_campaign

        report = run_campaign(plans=4, seed=7, executor="process")
        assert report.ok(), report.render_text()

    def test_unshippable_result_is_reported(self, pool):
        ph = _make_stats()
        tasks = [HostTask(h, _pool_closure_result_body) for h in range(2)]
        with pytest.raises(RuntimeError, match="unshippable"):
            pool.run(ph, tasks)

    def test_closure_body_rejected_before_dispatch(self, pool):
        ph = _make_stats()
        tasks = [HostTask(h, lambda v: None) for h in range(2)]
        with pytest.raises(UnshippableTaskError, match="module-level"):
            pool.run(ph, tasks)
        assert pool._workers == []  # rejected before any fork
        assert leaked_segments() == []
        # One task never reaches the pool, so closures stay legal
        # there — as under the serial and thread executors.
        assert pool.run(ph, [HostTask(0, lambda v: "direct")]) == ["direct"]
        assert pool._workers == []

    def test_unpicklable_payload_reclaims_segments(self, pool):
        ph = _make_stats()
        # The array is big enough to be exported into a spec segment:
        # host 0's spec pickles (its segment is live), then host 1's
        # pickler exports the array and fails on the lambda.
        big = np.arange(1 << 13, dtype=np.int64)  # 64 KiB
        tasks = [
            HostTask(0, _pool_times_ten_body, payload=(big, None)),
            HostTask(1, _pool_times_ten_body, payload=(big, lambda: 1)),
        ]
        with pytest.raises(UnshippableTaskError) as info:
            pool.run(ph, tasks)
        assert info.value.__cause__ is not None
        assert pool._workers == []
        assert leaked_segments() == []


@pytest.fixture
def pool():
    """A two-lane ProcessExecutor — the parent and one worker — closed
    (worker retired, residents unlinked) before the module's leak check
    runs."""
    ex = ProcessExecutor(max_workers=2)
    try:
        yield ex
    finally:
        ex.close()


@pytest.fixture
def two_workers():
    """A three-lane ProcessExecutor: the parent and two workers."""
    ex = ProcessExecutor(max_workers=3)
    try:
        yield ex
    finally:
        ex.close()


@pytest.fixture(params=["parallel", "process"])
def ledger_executor(request):
    """Each executor that merges private ledgers at the barrier, two
    lanes wide, closed before the module's leak check runs."""
    ex = {"parallel": ParallelExecutor, "process": ProcessExecutor}[
        request.param
    ](max_workers=2)
    try:
        yield ex
    finally:
        ex.close()


def _make_stats(num_hosts=3, plan=FaultPlan()):
    from repro.runtime.stats import PhaseStats

    comm = Communicator(num_hosts, injector=FaultInjector(plan))
    return PhaseStats(name="test", comm=comm, num_hosts=num_hosts)


# Module-level bodies: resolvable by name in a pool worker (a lambda or
# closure body is rejected with UnshippableTaskError before dispatch).
def _pool_large_delta_body(view):
    view.send(1, np.arange(1 << 15, dtype=np.int64), tag="bulk")
    return "shipped"


def _pool_suicide_body(view):
    os.kill(os.getpid(), signal.SIGKILL)


def _pool_ok_body(view):
    return "ok"


def _pool_boom_body(view):
    raise RuntimeError("task failed in worker")


def _pool_closure_result_body(view):
    return lambda: view.host  # closures don't pickle


def _pool_times_ten_body(view, h):
    return h * 10


def _pid_body(view):
    return os.getpid()


def _append_host_body(view, path):
    """Log the host to a file every lane appends to."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, b"%d\n" % view.host)
    finally:
        os.close(fd)


def _big_result_body(view):
    """A result large enough to ride a segment from a worker."""
    return np.arange(SHM_THRESHOLD // 4, dtype=np.int64)


def _charge_then_fail_body(view, failing_host):
    for dst in range(3):
        if dst != view.host:
            view.send(dst, np.arange(16) + view.host, tag="t")
    view.add_disk(100.0 * (view.host + 1))
    view.add_compute(7.0 * (view.host + 1))
    if view.host == failing_host:
        raise RuntimeError("host failed mid-task")
    view.send((view.host + 1) % 3, "after", tag="t")


def _drain_body(view, tag):
    return [(src, np.asarray(p).tolist()) for src, p in view.recv_all(tag)]


def _send_to_peers_body(view, peers):
    for dst in peers:
        view.send(dst, np.arange(50) + view.host, tag="t")
    view.add_disk(100.0)
    view.add_compute(7.0)


_BLOCKS = ColumnSchema((("src", np.int64), ("dst", np.int32)))


def _block(rows=SHM_THRESHOLD // 4):
    """A batch whose every column is at or above ``SHM_THRESHOLD``."""
    return MessageBatch(
        _BLOCKS, (np.arange(rows, dtype=np.int64), np.arange(rows, dtype=np.int32))
    )


def _send_block_body(view, dst):
    view.send_batch(dst, _block(), tag="blocks")


def _drain_blocks_body(view):
    got = view.recv_all_batch("blocks", _BLOCKS)
    return got.rows, int(got.columns["src"].sum())


_PROBE_CACHE = pool_module.worker_cache()


def _cache_probe_body(view, value):
    seen = _PROBE_CACHE.get(view.host)
    _PROBE_CACHE[view.host] = value
    return seen


def _resident_probe_body(view, arr):
    return int(arr.sum()), bool(arr.flags.writeable)


def _resident_range_body(view, arr):
    return int(arr.min()), int(arr.max())


def _shared_write_body(view, payload):
    arr, h = payload
    arr[h] = 100 + h


class _RecvTally:
    """A ``CommObserver`` that keeps the drain notifications."""

    def __init__(self):
        self.recvs = []

    def on_merge(self, ledger):
        pass

    def on_recv(self, dst, tag, count):
        self.recvs.append((dst, tag, count))


def _stats_with_mail():
    """Three hosts, each holding mail from both peers under two tags,
    one block per tag large enough to cross a pool pipe as a segment."""
    ph = _make_stats()
    ph.comm.observer = _RecvTally()
    big = SHM_THRESHOLD // 8
    for src in range(3):
        for dst in range(3):
            if src != dst:
                for tag in ("mail", "other"):
                    ph.comm.send(src, dst, np.arange(4) + src, tag=tag)
                    ph.comm.send(src, dst, np.arange(big) + dst, tag=tag)
    return ph


def _pending(ph):
    return {
        (h, tag): ph.comm.pending(h, tag)
        for h in range(3) for tag in ("mail", "other")
    }


class TestDeclaredDrains:
    """``HostTask.drains`` is the only inbox a body has: the pool ships
    nothing else, so every executor refuses anything else."""

    def test_undeclared_drain_raises(self, ledger_executor):
        for executor in (SerialExecutor(), ledger_executor):
            for hosts in (range(3), range(1)):  # concurrent, in turn
                ph = _stats_with_mail()
                tasks = [
                    HostTask(h, _drain_body, payload="mail", drains=("other",))
                    for h in hosts
                ]
                with pytest.raises(UndeclaredDrainError, match="'mail'"):
                    executor.run(ph, tasks)
                assert set(_pending(ph).values()) == {4}  # nothing drained
                assert ph.comm.observer.recvs == []

    def test_declared_drain_replays_like_serial(self, pool):
        def drain_mail(executor):
            ph = _stats_with_mail()
            tasks = [
                HostTask(h, _drain_body, payload="mail", drains=("mail",))
                for h in range(3)
            ]
            return executor.run(ph, tasks), _pending(ph), ph.comm.observer.recvs

        expected = drain_mail(SerialExecutor())
        assert drain_mail(pool) == expected
        results, pending, recvs = expected
        assert [len(r) for r in results] == [4, 4, 4]
        assert pending == {
            (h, tag): 0 if tag == "mail" else 4
            for h in range(3) for tag in ("mail", "other")
        }
        assert recvs == [(h, "mail", 4) for h in range(3)]


class TestParentLane:
    """The calling process is the first lane of a pooled barrier: it
    runs chunk 0 of the hosts itself, ``width - 1`` workers run the
    others, and the parent's lane ships nothing."""

    @pytest.mark.parametrize("width", [2, 3])
    def test_parent_runs_chunk_zero(self, width):
        ex = ProcessExecutor(max_workers=width)
        try:
            pids = ex.run(_make_stats(num_hosts=8),
                          [HostTask(h, _pid_body) for h in range(8)])
            assert len(ex._workers) == width - 1
            chunks = np.array_split(np.arange(8), width)
            lanes = [os.getpid()] + [w["pid"] for w in ex._workers]
            assert pids == [
                pid for chunk, pid in zip(chunks, lanes) for _ in chunk
            ]
            assert len(set(lanes)) == width
        finally:
            ex.close()

    def test_one_lane_forks_nothing_and_runs_in_turn(self):
        gc.collect()
        before = _children()
        ex = ProcessExecutor(max_workers=1)
        try:
            ph, log = _make_stats(), []
            assert ex.run(ph, _relay_tasks(ph, log)) == [0, 1, 2]
            # Host h + 1's body started after host h had applied.
            assert log == _IN_TURN_LOG
            serial_ph, serial_log = _make_stats(), []
            SerialExecutor().run(serial_ph, _relay_tasks(serial_ph, serial_log))
            assert log == serial_log
            assert ph.compute_units.tolist() == serial_ph.compute_units.tolist()
            assert ph.comm.recv_all(0, "relay") == [(2, 2)]
            ph, log = _make_stats(), []
            with pytest.raises(RuntimeError, match="host 1 failed"):
                ex.run(ph, _relay_tasks(ph, log, fail_at=1))
            assert log == _IN_TURN_LOG[:3]
            # A whole call: serial's partition, nothing published into a
            # segment no worker would map.
            graph = erdos_renyi(300, 2400, seed=11)
            with CuSP(4, "SVC", executor=ex, sync_rounds=3) as cusp:
                probe = np.zeros(SHM_THRESHOLD, dtype=np.int64)
                assert ex.publish("probe", probe) is probe
                assert ex._residents == {}
                dg = cusp.partition(graph)
            reference = CuSP(4, "SVC", sync_rounds=3).partition(graph)
            assert_same_partition(dg, reference)
            assert_same_breakdown(dg.breakdown, reference.breakdown)
            assert ex._workers == [] and _children() == before
        finally:
            ex.close()

    @pytest.mark.parametrize("width", [1, 2])
    def test_unshippable_in_the_parents_chunk_runs_no_body(
        self, width, tmp_path
    ):
        """Hosts 0 and 1 are the parent's chunk at width 2 (all four
        are at width 1): a closure body or a payload that does not
        pickle there is refused before any lane runs a body."""
        log = tmp_path / "ran"
        ex = ProcessExecutor(max_workers=width)

        def barrier(**host_one):
            tasks = [HostTask(h, _append_host_body, payload=str(log))
                     for h in range(4)]
            tasks[1] = dataclasses.replace(tasks[1], **host_one)
            return ex.run(_make_stats(num_hosts=4), tasks)

        try:
            with pytest.raises(UnshippableTaskError, match="module-level"):
                barrier(fn=lambda view, path: None)
            with pytest.raises(
                UnshippableTaskError, match="dispatch spec does not pickle"
            ) as info:
                barrier(payload=(str(log), lambda: 1))
            assert info.value.__cause__ is not None
            assert not log.exists(), log.read_text()
            assert ex._workers == [] and leaked_segments() == []
            barrier()  # the same barrier, shippable, runs every host once
            assert sorted(log.read_text().split()) == ["0", "1", "2", "3"]
        finally:
            ex.close()

    def test_parent_lane_ships_nothing(self, pool, parent_traffic):
        """At width 2 hosts 0 and 1 are the parent's: their results and
        the blocks they queue to one another make no segment and cross
        no pipe."""
        ph = _make_stats(num_hosts=4)
        tasks = [
            HostTask(0, _send_block_body, payload=1),
            HostTask(1, _send_block_body, payload=0),
            HostTask(2, _pool_ok_body),
            HostTask(3, _pool_ok_body),
        ]
        assert pool.run(ph, tasks) == [None, None, "ok", "ok"]
        assert leaked_segments() == [] and parent_traffic["segments"] == 0
        big = pool.run(ph, [HostTask(h, _big_result_body) for h in range(4)])
        # Two results rode the worker's segments; none was made here.
        assert parent_traffic["segments"] == 0
        assert all(np.array_equal(b, big[0]) for b in big)
        rows = _block().rows
        assert pool.run(ph, [
            HostTask(h, _drain_blocks_body, drains=("blocks",)) for h in (0, 1)
        ] + [HostTask(h, _pool_ok_body) for h in (2, 3)]) == [
            (rows, rows * (rows - 1) // 2)
        ] * 2 + ["ok", "ok"]
        assert parent_traffic["segments"] == 0
        # Three small specs: no block, no result.
        assert parent_traffic["bytes"] < SHM_THRESHOLD // 8
        assert leaked_segments() == []


@pytest.fixture
def parent_traffic(monkeypatch):
    """Counts what this process puts on pool pipes (``bytes``, through
    ``pool._write_frame``) and how many shared segments it creates
    (``segments``); a forked worker counts into its own copy."""
    counts = {"bytes": 0, "segments": 0}
    write_frame = pool_module._write_frame
    create_segment = colfab._create_shared_segment

    def counting_write(fd, blob):
        counts["bytes"] += len(blob)
        write_frame(fd, blob)

    def counting_create(raw, tracked=False):
        counts["segments"] += 1
        return create_segment(raw, tracked=tracked)

    monkeypatch.setattr(pool_module, "_write_frame", counting_write)
    monkeypatch.setattr(colfab, "_create_shared_segment", counting_create)
    return counts


class TestShipOnce:
    """The pool ships a barrier input once: traffic follows new data,
    not ``sync_rounds``."""

    def test_svc_traffic_does_not_scale_with_sync_rounds(self, parent_traffic):
        # 20 000 nodes: every per-host masters map (int32) is at or
        # above SHM_THRESHOLD, so it would ride a segment per task and
        # barrier if it shipped at all.
        graph = erdos_renyi(20_000, 160_000, seed=11)
        assert graph.num_nodes * 4 >= SHM_THRESHOLD
        seen = {}
        for sync_rounds in (5, 10, 20):
            parent_traffic.update(bytes=0, segments=0)
            CuSP(
                4, "SVC", executor=ProcessExecutor(max_workers=2),
                sync_rounds=sync_rounds,
            ).partition(graph)
            seen[sync_rounds] = dict(parent_traffic)
        # Re-shipping the undrained inbox and the per-round maps doubled
        # the total from 10 to 20 rounds on this graph (and made the
        # segment count 47 / 77 / 137); a round now costs its own small
        # specs, about 1.4 kB per worker.
        assert seen[20]["bytes"] - seen[10]["bytes"] <= 10 * 4096, seen
        assert (
            seen[5]["segments"] == seen[10]["segments"] == seen[20]["segments"]
        ), seen

    def test_share_is_one_writable_segment_for_every_lane(
        self, two_workers, parent_traffic
    ):
        pool = two_workers
        ph = _make_stats(num_hosts=3)
        # Below SHM_THRESHOLD: a shared array gets a segment whatever its
        # size, or the lanes would write private copies.
        arr = np.arange(10, dtype=np.int64)
        shared = pool.share("state", arr)
        assert shared is not arr and np.array_equal(shared, arr)
        assert shared.flags.writeable
        parent_traffic.update(segments=0)
        # Every lane maps it writable, the parent's lane included.
        assert pool.run(ph, [
            HostTask(h, _resident_probe_body, payload=shared)
            for h in range(3)
        ]) == [(int(arr.sum()), True)] * 3
        # Each host writes its own entry; the parent reads them all.
        pool.run(ph, [
            HostTask(h, _shared_write_body, payload=(shared, h))
            for h in range(3)
        ])
        assert shared[:3].tolist() == [100, 101, 102]
        # The parent writes between barriers; the workers see it, and
        # no segment was made since the share.
        shared[:] = 7
        assert pool.run(ph, [
            HostTask(h, _resident_probe_body, payload=shared)
            for h in range(3)
        ]) == [(70, True)] * 3
        assert parent_traffic["segments"] == 0
        # Sharing the name again is a new generation, as publishing is.
        gen, home = pool._residents["state"]["gen"], shared
        shared = pool.share("state", np.zeros(4, dtype=np.int64))
        assert pool._residents["state"]["gen"] == gen + 1
        assert pool.run(ph, [
            HostTask(h, _resident_probe_body, payload=shared)
            for h in range(3)
        ]) == [(0, True)] * 3
        assert home[0] == 7  # the old mapping outlives its name
        # A published object is immutable: publishing it again is a
        # no-op, another object under the name a new generation.
        frozen = np.arange(SHM_THRESHOLD // 8, dtype=np.int64)
        pool.publish("frozen", frozen)
        gen = pool._residents["frozen"]["gen"]
        pool.publish("frozen", frozen)
        assert pool._residents["frozen"]["gen"] == gen
        pool.publish("frozen", frozen.copy())
        assert pool._residents["frozen"]["gen"] == gen + 1
        pool.close()
        assert leaked_segments() == []

    def test_refreshed_values_are_never_torn(self):
        """More workers than cores, the parent writing a shared array
        before every barrier: a worker that read while (or before) the
        parent wrote would see two rounds' values in one array."""
        ex = ProcessExecutor(max_workers=4)
        try:
            ph = _make_stats(num_hosts=4)
            arr = ex.share("round", np.zeros(SHM_THRESHOLD, dtype=np.int64))
            for r in range(60):
                arr[:] = r
                assert ex.run(ph, [
                    HostTask(h, _resident_range_body, payload=arr)
                    for h in range(4)
                ]) == [(r, r)] * 4
        finally:
            ex.close()

    def test_a_resident_unlinked_before_a_worker_maps_it(self, monkeypatch):
        """The parent may replace a resident, or end the run, before an
        idle worker got to the frame installing it: the worker drops
        that generation and serves the next barrier."""
        monkeypatch.setattr(  # before the fork, so the worker has it
            residency, "install_resident",
            _slow_install(residency.install_resident),
        )
        ex = ProcessExecutor(max_workers=2)
        ph = _make_stats(num_hosts=2)
        arr = np.arange(SHM_THRESHOLD // 8, dtype=np.int64)
        try:
            ok = [HostTask(h, _pool_ok_body) for h in range(2)]
            assert ex.run(ph, ok) == ["ok", "ok"]
            ex.publish("late", arr)
            ex.end_run()  # unlinks it while the worker sleeps
            assert ex.run(ph, ok) == ["ok", "ok"]
            ex.publish("late", arr)
            wide = arr.astype(np.float64)
            ex.publish("late", wide)  # a new generation unlinks the first
            assert ex.run(ph, [
                HostTask(h, _resident_range_body, payload=wide)
                for h in range(2)
            ]) == [(0, arr.size - 1)] * 2
        finally:
            ex.close()
        assert leaked_segments() == []


def _slow_install(install):
    """``install_resident`` that takes its time over the ``late``
    resident, as a worker busy elsewhere would."""
    def slow(residents, name, *args):
        if name == "late":
            time.sleep(0.3)
        install(residents, name, *args)
    return slow


def _torn_in_worker(read_frame):
    """``_read_frame`` that, in a pool worker, raises once it has read a
    command: the worker dies outside any spec's reply envelope."""
    def read(fd):
        frame = read_frame(fd)
        if pool_module._IN_POOL_WORKER:
            raise ValueError("torn command")
        return frame
    return read


def _fail_install(residents, name, *args):
    if name == "probe":
        raise ValueError("torn command")


def _wait_for_zombie(pid, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as f:
            if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} did not die")


class TestPoolCrashTeardown:
    """Killing a pool worker mid-phase must not leak a single segment,
    and the pool must respawn transparently on the next barrier."""

    #: What the barrier says of a worker an exception killed.  The exit
    #: code is 1, unless the parent's teardown killed the worker first,
    #: between its last words and its exit.
    LAST_WORDS = (
        r"died without shipping.*"
        r"hosts \[1\] \(exit (1|-9): ValueError: torn command\)"
    )

    def test_worker_dying_after_reading_its_spec_says_why(self, monkeypatch):
        monkeypatch.setattr(
            pool_module, "_read_frame", _torn_in_worker(pool_module._read_frame)
        )
        ex = ProcessExecutor(max_workers=2)
        try:
            with pytest.raises(RuntimeError, match=self.LAST_WORDS):
                ex.run(_make_stats(num_hosts=2), [
                    HostTask(0, _pool_ok_body), HostTask(1, _pool_ok_body),
                ])
            assert ex._workers == [] and leaked_segments() == []
        finally:
            ex.close()

    def test_worker_dead_before_its_spec_says_why(self, monkeypatch):
        # The worker dies idle, installing a resident broadcast between
        # barriers, so the next barrier cannot even write its spec.
        # The worker forks at the first barrier, with the patch.
        monkeypatch.setattr(residency, "install_resident", _fail_install)
        tasks = [HostTask(0, _pool_ok_body), HostTask(1, _pool_ok_body)]
        ex = ProcessExecutor(max_workers=2)
        try:
            assert ex.run(_make_stats(num_hosts=2), tasks) == ["ok", "ok"]
            ex.publish("probe", np.arange(8))
            _wait_for_zombie(ex._workers[0]["pid"])
            with pytest.raises(RuntimeError, match=self.LAST_WORDS):
                ex.run(_make_stats(num_hosts=2), tasks)
            assert ex._workers == []
        finally:
            ex.close()

    def test_worker_killed_mid_phase_sweeps_all_segments(self):
        ph = _make_stats(num_hosts=3)
        # Pending inbound traffic the doomed host declares rides to its
        # worker in a spec segment the worker will never drain.
        ph.comm.send(0, 2, np.arange(1 << 15, dtype=np.int64), tag="pre")
        ex = ProcessExecutor(max_workers=3)
        try:
            tasks = [
                HostTask(0, _pool_ok_body),           # the parent's lane
                HostTask(1, _pool_large_delta_body),  # ships a big delta
                HostTask(2, _pool_suicide_body,       # SIGKILLs itself
                         drains=("pre",)),
            ]
            with pytest.raises(RuntimeError, match="died without shipping"):
                ex.run(ph, tasks)
            # Crash teardown swept everything: the preloaded inbox's
            # segment, the surviving worker's decoded delta, and any
            # orphan the dead worker left in /dev/shm.
            assert leaked_segments() == []
            # The next barrier respawns the pool and runs normally.
            ph2 = _make_stats(num_hosts=2)
            out = ex.run(ph2, [
                HostTask(0, _pool_ok_body), HostTask(1, _pool_ok_body),
            ])
            assert out == ["ok", "ok"]
        finally:
            ex.close()
        assert leaked_segments() == []


@pytest.fixture
def unraisable(monkeypatch):
    """Exceptions raised where nobody can catch them (finalizers)."""
    seen = []
    monkeypatch.setattr(sys, "unraisablehook", seen.append)
    return seen


class TestSegmentLifecycle:
    """Who unlinks a segment's name, and when: an ephemeral segment is
    consumed by its one load; a *relayed* one (a delta's queued
    payloads) keeps its name exactly as long as the loaded array, in
    the process that loaded it."""

    def _shipped(self):
        batch = _block()
        blob, _ = residency.dumps_with_segments({"block": batch})
        assert len(blob) < batch.nbytes  # columns ride segments, not the blob
        assert len(leaked_segments()) == 2
        return batch, blob

    def test_batch_columns_round_trip_through_segments(self):
        batch, blob = self._shipped()
        back = residency.loads_with_segments(blob)["block"]
        assert leaked_segments() == []  # names die at load...
        for got, want in zip(back.columns, batch.columns):
            assert np.array_equal(got, want)  # ...the mappings do not
        assert (back.schema, back.nbytes) == (batch.schema, batch.nbytes)
        assert back.checksum() == batch.checksum()

    def test_second_load_of_a_consumed_segment_is_diagnosable(self):
        _, blob = self._shipped()
        residency.loads_with_segments(blob)
        with pytest.raises(ValueError, match="is gone"):
            residency.loads_with_segments(blob)
        assert leaked_segments() == []

    def test_leaked_segments_reports_its_family_in_name_order(self, monkeypatch):
        """``os.listdir`` order is the filesystem's; leak reports and
        the crash sweep walk the names sorted."""
        family = colfab._SEGMENT_FAMILY
        monkeypatch.setattr(
            colfab.os, "listdir",
            lambda base: [family + "b", "someone-elses", family + "a"],
        )
        assert leaked_segments() == [family + "a", family + "b"]

    def test_relayed_name_dies_once_with_its_array(self, monkeypatch, unraisable):
        released = []
        release = colfab._unlink_untracked
        monkeypatch.setattr(
            colfab, "_unlink_untracked",
            lambda name: (released.append(name), release(name)),
        )
        batch, blob = self._shipped()
        back = residency.loads_with_segments(blob, relay=True)["block"]
        names = leaked_segments()
        assert len(names) == 2 and len(residency._relayed) == 2
        view = back.column("src")[10:20]
        del back
        assert leaked_segments() == [] and residency._relayed == {}
        assert sorted(released) == names
        # The mapping outlives the unlink; only the /dev/shm name died.
        assert np.array_equal(view, batch.column("src")[10:20])
        del view
        gc.collect()
        assert sorted(released) == names and unraisable == []

    def test_sweep_before_death_is_not_a_second_unregister(
        self, monkeypatch, unraisable
    ):
        from multiprocessing import resource_tracker

        _, blob = self._shipped()
        unregistered = []
        unregister = resource_tracker.unregister
        monkeypatch.setattr(
            resource_tracker, "unregister",
            lambda name, rtype: (unregistered.append(name), unregister(name, rtype)),
        )
        back = residency.loads_with_segments(blob, relay=True)
        names = leaked_segments()
        # Crash teardown gets there first, as after a worker death.
        residency.sweep_family_segments()
        assert leaked_segments() == []
        assert sorted(n.lstrip("/") for n in unregistered) == names
        del back
        # The arrays' own release tolerates the missing names and does
        # not unregister them again (the tracker daemon would complain).
        assert residency._relayed == {} and unraisable == []
        assert sorted(n.lstrip("/") for n in unregistered) == names

    def test_sweep_frees_a_name_its_creator_never_sized(self):
        # A worker killed between shm_open and ftruncate leaves an empty
        # name behind; mapping it fails, and the sweep must still free it.
        name = f"{colfab._SEGMENT_FAMILY}{os.getpid():x}-empty"
        os.close(os.open(os.path.join("/dev/shm", name), os.O_CREAT | os.O_RDWR))
        assert leaked_segments() == [name]
        residency.sweep_family_segments()
        assert leaked_segments() == []

    def test_resident_attach_leaves_the_tracker_balanced(self):
        """A worker maps each published resident while the parent may
        already be unlinking it (``end_run`` right after ``publish``).
        Were the attach to register the name with the resource tracker
        after the parent's unlink unregistered it, the tracker would
        warn of leaked segments at exit and fail to unlink each one.
        The sleeps sweep the parent's unlink across the worker's attach.
        """
        script = textwrap.dedent("""
            import time
            import numpy as np
            from repro.runtime.colfab import leaked_segments
            from repro.runtime.comm import Communicator
            from repro.runtime.executor import HostTask, ProcessExecutor
            from repro.runtime.residency import SHM_THRESHOLD
            from repro.runtime.stats import PhaseStats

            def body(view):
                return view.host

            pool = ProcessExecutor(max_workers=2)
            ph = PhaseStats(name="probe", comm=Communicator(2), num_hosts=2)
            assert pool.run(ph, [HostTask(h, body) for h in range(2)]) == [0, 1]
            for i in range(200):
                pool.publish("state", np.full(SHM_THRESHOLD // 8, i))
                time.sleep((i % 20) * 1e-4)
                pool.end_run()
            pool.close()
            assert leaked_segments() == []
        """)
        src = str(Path(colfab.__file__).resolve().parents[2])
        # The tracker inherits stderr, so the captured output ends only
        # once the tracker has exited and said what it had to say.
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked shared_memory" not in proc.stderr, proc.stderr
        assert "No such file" not in proc.stderr, proc.stderr

    def test_forked_child_never_unlinks_a_relayed_name(self):
        _, blob = self._shipped()
        back = residency.loads_with_segments(blob, relay=True)
        names = leaked_segments()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - asserted via the parent
            # The child inherits the arrays; dropping them there must
            # leave the names for the parent, which may still serve them.
            del back
            os._exit(0 if leaked_segments() == names else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert leaked_segments() == names
        del back
        assert leaked_segments() == []

    @pytest.mark.parametrize("exporter", ["dumps_with_segments", "export_resident"])
    def test_interrupt_before_the_owner_records_a_segment(
        self, monkeypatch, exporter
    ):
        """A segment is its owner's from the moment it exists: an
        interrupt between its creation and the exporter's bookkeeping
        (here, in the creator handle's ``close``) leaves no name."""
        create = colfab._create_shared_segment
        interrupted = []

        def creating(raw, tracked=False):
            seg = create(raw, tracked=tracked)
            if not interrupted:
                interrupted.append(seg.name)
                close = seg.close

                def close_once_interrupted():
                    seg.close = close
                    raise KeyboardInterrupt

                seg.close = close_once_interrupted
            return seg

        monkeypatch.setattr(colfab, "_create_shared_segment", creating)
        arrays = [np.arange(SHM_THRESHOLD // 8, dtype=np.int64)] * 2
        with pytest.raises(KeyboardInterrupt):
            if exporter == "dumps_with_segments":
                residency.dumps_with_segments([a.copy() for a in arrays])
            else:
                residency.export_resident([a.copy() for a in arrays], 0)
        assert len(interrupted) == 1
        assert interrupted[0] not in colfab._resident_registry
        assert leaked_segments() == []

    def test_queued_batch_reaches_its_drainer_by_name(
        self, two_workers, parent_traffic
    ):
        # Hosts 1 and 2 run on the two workers and queue a block to each
        # other; host 0, in the parent's lane, only makes the width.
        pool = two_workers
        ph = _make_stats(num_hosts=3)
        pool.run(ph, [HostTask(0, _pool_ok_body)] + [
            HostTask(h, _send_block_body, payload=3 - h) for h in (1, 2)
        ])
        # Two blocks of two columns wait in the parent's queues, each
        # column still under the name its worker gave it.
        assert len(leaked_segments()) == 4
        parent_traffic.update(bytes=0, segments=0)
        rows = _block().rows
        assert pool.run(ph, [HostTask(0, _pool_ok_body)] + [
            HostTask(h, _drain_blocks_body, drains=("blocks",)) for h in (1, 2)
        ]) == ["ok"] + [(rows, rows * (rows - 1) // 2)] * 2
        assert parent_traffic["segments"] == 0
        # Two small specs: not one column (>= SHM_THRESHOLD each) among them.
        assert parent_traffic["bytes"] < SHM_THRESHOLD // 8
        # Drained, so dropped, so unlinked.
        assert leaked_segments() == []


class TestBarrierBudget:
    """A call is eight barriers — reading, masters, two of edge
    assignment, four of construction.  Under a history-sensitive master
    rule the masters barrier becomes one stepped phase, the request
    pass its first step, whatever ``sync_rounds``: no barrier and no
    publish per round, and the two maps the rounds write are shared
    once each."""

    GRAPH = erdos_renyi(300, 2400, seed=11)

    @pytest.mark.parametrize("executor", ["serial", "parallel", "process"])
    @pytest.mark.parametrize("policy", ["CVC", "FVC", "FEC", "SVC", "LEC"])
    def test_barriers_and_publishes_per_call(self, policy, executor):
        ex = (ProcessExecutor(max_workers=2) if executor == "process"
              else make_executor(executor))
        calls, published, shared = collections.Counter(), [], []
        run, run_rounds = ex.run, ex.run_rounds
        publish, share = ex.publish, ex.share

        def counting_run(stats, tasks):
            calls["run"] += 1
            return run(stats, tasks)

        def counting_rounds(stats, tasks, boundary):
            calls["rounds"] += 1
            return run_rounds(stats, tasks, boundary)

        def recording_publish(name, obj):
            published.append(name)
            return publish(name, obj)

        def recording_share(name, arr):
            shared.append(name)
            return share(name, arr)

        ex.run, ex.run_rounds = counting_run, counting_rounds
        ex.publish, ex.share = recording_publish, recording_share
        try:
            for sync_rounds in (1, 3, 10, 100):
                calls.clear()
                published[:], shared[:] = [], []
                CuSP(4, policy, executor=ex, sync_rounds=sync_rounds).partition(
                    self.GRAPH
                )
                if policy == "CVC":
                    assert calls == {"run": 8}
                    assert shared == []
                else:
                    assert calls == {"run": 7, "rounds": 1}
                    assert sorted(shared) == ["known-masters", "master-map"]
                assert sorted(published) == [
                    "assignment", "masters", "prop", "proxies"
                ]
        finally:
            ex.close()


class TestOnePathPerDatum:
    """Nothing rides a queue that nobody reads: the masters phase's
    sends are accounting-only, ``edge-counts`` blocks carry the count
    their tally reads, and a closed phase holds no block at all."""

    def test_pooled_svc_queues_no_array_outside_edges(self, monkeypatch):
        queued = []  # (tag, None | number of columns) per queued payload
        load_delta = pool_module._load_delta

        def recording_load(blobs):
            delta = load_delta(blobs)
            queued.extend(
                (tag, None if payload is None else len(payload.columns))
                for _dst, tag, payload in delta["queued"]
            )
            return delta

        published = []
        publish = ProcessExecutor.publish

        def recording_publish(self, name, obj):
            published.append(name)
            return publish(self, name, obj)

        monkeypatch.setattr(pool_module, "_load_delta", recording_load)
        monkeypatch.setattr(ProcessExecutor, "publish", recording_publish)
        CuSP(
            4, "SVC", executor=ProcessExecutor(max_workers=2), sync_rounds=3
        ).partition(erdos_renyi(300, 2400, seed=11))
        shapes = {tag: {cols for t, cols in queued if t == tag}
                  for tag, _ in queued}
        assert shapes == {
            "master-requests": {None},
            "master-assignments": {None},
            "edge-counts": {0},
            "edges": {2},
        }
        # The masters phase publishes nothing (the maps its rounds
        # write are shared once); the global map is published once, by
        # the framework, after the phase.
        assert "known-masters" not in published
        assert "master-requests" not in published
        assert published.count("masters") == 1

    @pytest.mark.parametrize("policy", ["CVC", "SVC"])
    def test_edge_counts_tally_is_unchanged(self, policy, monkeypatch):
        graph = erdos_renyi(300, 2400, seed=4)
        prop, ranges = GraphProp(graph, 4), compute_read_ranges(graph, 4)
        pol = make_policy(policy)
        masters = run_master_assignment(
            _make_stats(4), prop, pol, ranges, sync_rounds=3
        ).masters
        ph = _make_stats(4)
        blocks = []
        send = CommLedger.send

        def recording_send(ledger, dst, payload, tag="default", **kw):
            blocks.append((tag, payload))
            send(ledger, dst, payload, tag=tag, **kw)

        # Every executor records a host's sends on its ledger.
        monkeypatch.setattr(CommLedger, "send", recording_send)
        ea = run_edge_assignment(ph, prop, pol, ranges, masters)
        assert len(blocks) == 4 * 3
        for tag, block in blocks:
            assert tag == "edge-counts" and block.columns == ()
        # to_receive[j] is tally j's return plus j's own edges.
        own = ea.edges_to.diagonal()
        assert np.array_equal(
            ea.to_receive - own, ea.edges_to.sum(axis=0) - own
        )
        assert ea.edges_to.sum() == graph.num_edges

    def test_aborted_construction_attempt_pins_nothing(
        self, monkeypatch, tmp_path
    ):
        """Host 2 dies on its second ``edges`` send: hosts 0 and 1 have
        queued every block of theirs, on segments, for a barrier that
        never runs.  The replay must not find them still referenced."""
        from repro.core import framework

        clusters = []

        class RecordingCluster(framework.SimulatedCluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clusters.append(self)

        monkeypatch.setattr(framework, "SimulatedCluster", RecordingCluster)
        graph = TestNamesDoNotOutliveTheQueue.GRAPH
        plan = FaultPlan(seed=3, crashes=(HostCrash(host=2, phase=4, op_count=2),))
        clean = CuSP(4, "CVC").partition(graph)
        cusp = CuSP(
            4, "CVC", fault_plan=plan, executor=ProcessExecutor(max_workers=2),
            checkpoint_dir=str(tmp_path), sanitizer=True,
        )
        # Cycle collector off: the claim is about references, not about
        # when a collection happens to break the crash's traceback cycle.
        gc.disable()
        try:
            dg = cusp.partition(graph)
            assert leaked_segments() == []
        finally:
            gc.enable()
        assert_same_partition(clean, dg)
        assert cusp.sanitizer.violations == []
        phases = clusters[-1].phase_stats
        assert [p.name for p in phases if p.failed] == ["Graph Construction"]
        assert not any(q for p in phases for q in p.comm._queues.values())


def _arrays(obj):
    """Every ndarray reachable through lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.values()))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


class TestGroupingsStayHome:
    """A grouping never crosses a process boundary and allocation
    exchanges mirror-info bitmaps: what the pool moves for phases 3 and
    4 is the owner decisions, O(k²) counts and k² bitmaps of n/8 bytes —
    for the workers' hosts; the parent's lane moves nothing."""

    def test_pooled_svc_byte_budget(self, monkeypatch, parent_traffic):
        k = 8
        # Proxy tables (< n ids) stay under the segment threshold, every
        # host's owner array (one byte per edge at k = 8) is over it.
        graph = erdos_renyi(8_000, 600_000, seed=11)
        n, m = graph.num_nodes, graph.num_edges
        per_host = [
            int(graph.indptr[stop] - graph.indptr[start])
            for start, stop in compute_read_ranges(graph, k)
        ]
        assert n * 8 < SHM_THRESHOLD <= min(per_host)
        # Three lanes: the parent runs hosts 0-2, two workers hosts 3-7,
        # and only those hosts' replies and specs cross a pipe.
        lane = len(np.array_split(np.arange(k), 3)[0])
        shipped = k - lane
        # label -> (pipe bytes, segments, result per reply, queued sends)
        barriers = {}
        deltas = []
        outcomes, load_delta = ProcessExecutor._outcomes, pool_module._load_delta

        def recording_load(blobs):
            deltas.append(load_delta(blobs))
            return deltas[-1]

        def recording_outcomes(self, stats, tasks):
            before = dict(parent_traffic)
            deltas.clear()
            out = outcomes(self, stats, tasks)
            barriers[tasks[0].label] = (
                parent_traffic["bytes"] - before["bytes"],
                parent_traffic["segments"] - before["segments"],
                [delta["result"] for delta in deltas],
                [send for delta in deltas for send in delta["queued"]],
            )
            return out

        published = {}
        publish = ProcessExecutor.publish

        def recording_publish(self, name, obj):
            out = publish(self, name, obj)
            if name == "assignment":
                published.update(self._residents[name])
            return out

        monkeypatch.setattr(pool_module, "_load_delta", recording_load)
        monkeypatch.setattr(ProcessExecutor, "_outcomes", recording_outcomes)
        monkeypatch.setattr(ProcessExecutor, "publish", recording_publish)
        CuSP(
            k, "SVC", executor=ProcessExecutor(max_workers=3), sync_rounds=3
        ).partition(graph)

        # Edge assignment replies: the owner decisions at 1 B per edge
        # and one k-vector of counts per host.  No grouping, so no int64
        # array of edge length.
        def shapes(replies):
            return [[(a.dtype, a.size) for a in _arrays(r)] for r in replies]

        _, _, replies, _ = barriers["assign-edges"]
        assert shapes(replies) == [
            [(np.dtype(np.uint8), edges), (np.dtype(np.int64), k)]
            for edges in per_host[lane:]
        ]
        assert [groups for _owner, _counts, groups in replies] == [None] * shipped
        # publish("assignment"): the same 1 B per edge on segments, the
        # k x k and k counts (and the read ranges) in the blob.
        assert [
            (np.lib.format.descr_to_dtype(descr), shape)
            for _name, descr, shape in published["manifest"]
        ] == [(np.dtype(np.uint8), (edges,)) for edges in per_host]
        assert sum(per_host) == m
        assert len(published["blob"]) < 8 * (k * k + k) + 2048
        # Allocation: k bitmaps of ceil(n / 8) bytes per shipped host
        # cross the pipe, twice (a worker's reply, then an owner's spec);
        # no array in either direction is large enough to ride a segment.
        bitmap = (n + 7) // 8
        pipe, segments, replies, _ = barriers["group-endpoints"]
        assert segments == 0 and pipe < SHM_THRESHOLD // 8
        # All-to-all: every reader has edges for every owner.
        assert shapes(replies) == [[(np.dtype(np.uint8), bitmap)] * k] * shipped
        pipe, segments, replies, _ = barriers["build-proxies"]
        assert segments == 0
        assert (
            shipped * k * bitmap <= pipe < shipped * k * bitmap + k * 2048
        )
        assert all(a.nbytes < SHM_THRESHOLD for a in _arrays(replies))
        # Construction: an edge block carries two node ids per edge at
        # node-id width (two bytes each at n = 8 000), no int64 column.
        width = node_id_dtype(n).itemsize
        assert width == 2
        blocks = [
            block for _dst, tag, block in barriers["ship-edges"][3]
            if tag == "edges"
        ]
        assert sum(block.rows for block in blocks) == sum(per_host[lane:])
        assert sum(per_host) == m
        for block in blocks:
            assert sum(c.nbytes for c in block.columns) <= (
                2 * width * block.rows
            )


class TestEdgeBlockLifetime:
    """``ship-edges`` is a grouping's last reader: the groupings are
    dropped at its barrier, so an owner's queued edge blocks are the
    only references to them until that owner drains them, and a
    construction replay regroups on the miss."""

    GRAPH = erdos_renyi(300, 2400, seed=11)

    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    def test_groupings_dropped_at_the_ship_barrier(self, monkeypatch, executor):
        seen = []
        build = construction_phase._build_partition_body

        def recording(view, payload):
            seen.append(list(payload[2]._groups))
            return build(view, payload)

        monkeypatch.setattr(
            construction_phase, "_build_partition_body", recording
        )
        with CuSP(4, "CVC", executor=executor) as cusp:
            dg = cusp.partition(self.GRAPH)
        assert seen == [[None] * 4] * 4
        dg.validate(self.GRAPH)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_crash_after_ship_replays_to_fault_free_partition(
        self, monkeypatch, executor
    ):
        from repro.core import assignment_phase

        groupings = [0]
        groups_init = assignment_phase.HostGroups.__init__

        def counting(self, *args, **kwargs):
            groupings[0] += 1
            groups_init(self, *args, **kwargs)

        monkeypatch.setattr(assignment_phase.HostGroups, "__init__", counting)
        clean = CuSP(4, "CVC").partition(self.GRAPH)
        # Host 2's construction ops on this graph: four edge sends and a
        # compute charge in ship-edges, then build-partition's charge —
        # op 6 lands after the ship barrier.
        plan = FaultPlan(
            seed=3, crashes=(HostCrash(host=2, phase=4, op_count=6),)
        )
        groupings[0] = 0
        with CuSP(4, "CVC", fault_plan=plan, executor=executor,
                  sanitizer=True) as cusp:
            dg = cusp.partition(self.GRAPH)
        assert_same_partition(clean, dg)
        assert cusp.sanitizer.violations == []
        assert [p.name for p in dg.breakdown.failed_phases()] == [
            "Graph Construction"
        ]
        if executor == "serial":
            # Four at assignment, four more when the replay's ship-edges
            # misses the dropped groupings.
            assert groupings[0] == 8


class TestDegenerateGraphs:
    """Inputs at the edge of the graph space on the pool: no edges, one
    node, more hosts than nodes, self-loops with duplicate edges.  Empty
    or tiny hosts build their local CSR from empty or repeated edge
    keys; serial and process must still agree on every master, local id
    and counter, the partition must validate, and nothing may be left
    in ``/dev/shm``."""

    GRAPHS = {
        "no-edges": CSRGraph.empty(6),
        "single-node": CSRGraph.from_edges([0], [0], num_nodes=1),
        "k-above-n": CSRGraph.from_edges([0, 1, 2], [1, 2, 0], num_nodes=3),
        "loops-and-duplicates": CSRGraph.from_edges(
            [0, 0, 0, 1, 1, 3, 3, 3, 4], [0, 0, 2, 1, 1, 3, 3, 0, 2],
            num_nodes=5,
        ),
    }

    @pytest.mark.parametrize("name", list(GRAPHS))
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("policy", ["CVC", "SVC", "EEC"])
    def test_serial_and_process_agree(self, policy, k, name):
        graph = self.GRAPHS[name]
        with CuSP(k, policy, executor="serial") as serial, \
                CuSP(k, policy, executor="process") as proc:
            dg_s, dg_p = serial.partition(graph), proc.partition(graph)
        assert_same_partition(dg_s, dg_p)
        assert_same_breakdown(dg_s.breakdown, dg_p.breakdown)
        for dg in (dg_s, dg_p):
            assert dg.num_global_edges == graph.num_edges
            dg.validate(graph)
        assert leaked_segments() == []


def _kill_host_three_in_worker(body):
    @functools.wraps(body)
    def doomed(view, payload):
        if pool_module._IN_POOL_WORKER and view.host == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return body(view, payload)

    return doomed


class TestNamesDoNotOutliveTheQueue:
    """Only queued payloads are relayed.  A task result gives its
    segment names up at load, so a caller holding the returned
    ``DistributedGraph`` holds nothing in ``/dev/shm``."""

    # Large enough that results and edge blocks ride segments.
    GRAPH = erdos_renyi(20_000, 160_000, seed=11)

    @pytest.mark.parametrize("policy", ["CVC", "SVC"])
    def test_result_alive_no_segment_left(self, policy):
        dg = CuSP(
            4, policy, executor=ProcessExecutor(max_workers=2), sync_rounds=5
        ).partition(self.GRAPH)
        assert leaked_segments() == []
        # The last host runs in a worker, so its result rode a segment.
        assert dg.partitions[-1].local_graph.indices.nbytes >= SHM_THRESHOLD

    @pytest.mark.parametrize("policy", ["CVC", "SVC"])
    def test_worker_killed_mid_run_no_segment_left(
        self, policy, monkeypatch, unraisable
    ):
        # Host 3 (the worker's; hosts 0 and 1 run in the parent's lane)
        # dies building its partition, while the parent's queues still
        # hold every relayed edge block of the assignment phase.
        monkeypatch.setattr(
            construction_phase, "_build_partition_body",
            _kill_host_three_in_worker(construction_phase._build_partition_body),
        )
        cusp = CuSP(4, policy, executor=ProcessExecutor(max_workers=2),
                    sync_rounds=5)
        with pytest.raises(RuntimeError, match="died without shipping"):
            cusp.partition(self.GRAPH)
        assert leaked_segments() == []
        del cusp
        gc.collect()
        assert leaked_segments() == [] and unraisable == []


def _patch_pwrite(monkeypatch, in_worker, behave):
    """Route ``os.pwrite`` through ``behave(call_no, pwrite, *args)`` in
    the parent or (``in_worker``) in pool workers forked from here on —
    each process numbering its own calls from 1 — and leave the other
    side alone."""
    pwrite = os.pwrite
    calls = [0]

    def patched(fd, data, offset):
        if pool_module._IN_POOL_WORKER != in_worker:
            return pwrite(fd, data, offset)
        calls[0] += 1
        return behave(calls[0], pwrite, fd, data, offset)

    monkeypatch.setattr(os, "pwrite", patched)


def _enospc():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestSharedMemoryFull:
    """A segment is filled by ``pwrite``, so a full ``/dev/shm`` is an
    ``OSError`` at the n-th export — not a SIGBUS on a mapping store —
    whichever side of the pool hits it: the half-written segment is
    unlinked, the call fails typed, and nothing is left behind."""

    GRAPH = TestNamesDoNotOutliveTheQueue.GRAPH

    def _parent_exports(self, monkeypatch) -> int:
        """How many segments the parent fills in a warm call (publish()
        of prop, masters, assignment and proxies, and dispatch specs)."""
        calls = []

        def count(call_no, pwrite, *args):
            calls.append(call_no)
            return pwrite(*args)

        with CuSP(4, "CVC", executor=ProcessExecutor(max_workers=2)) as counted:
            counted.partition(self.GRAPH)
            with monkeypatch.context() as patch:
                _patch_pwrite(patch, False, count)
                counted.partition(self.GRAPH)
        return len(calls)

    def _worker_exports(self, monkeypatch, tmp_path) -> int:
        """How many segments the busiest worker fills in a warm call (its
        replies: assign-edges owners and build-partition results; edge
        blocks of two-byte ids stay under the segment threshold here).
        Workers count from their fork, so each logs its pid per export
        to a shared append-only file and the cold call's lines are set
        aside."""
        log = tmp_path / "worker-exports"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def count(call_no, pwrite, *args):
            os.write(fd, b"%d\n" % os.getpid())
            return pwrite(*args)

        try:
            with monkeypatch.context() as patch:
                _patch_pwrite(patch, True, count)
                with CuSP(
                    4, "CVC", executor=ProcessExecutor(max_workers=2)
                ) as counted:
                    counted.partition(self.GRAPH)
                    cold = log.stat().st_size
                    counted.partition(self.GRAPH)
        finally:
            os.close(fd)
        per_worker = collections.Counter(log.read_bytes()[cold:].split())
        return max(per_worker.values())

    @pytest.mark.parametrize("side,nth,raises", [
        # The parent's first, middle and last export, as a warm call on
        # another pool counted them.
        ("parent", 1, OSError), ("parent", "middle", OSError),
        ("parent", "last", OSError),
        # A worker's replies: assign-edges owners first, build-partition
        # results after, up to the last export of the busiest worker as
        # a warm call on another pool counted it.
        ("worker", 1, RuntimeError), ("worker", 3, RuntimeError),
        ("worker", 6, RuntimeError), ("worker", "last", RuntimeError),
    ])
    def test_enospc_on_nth_export_fails_clean(
        self, monkeypatch, tmp_path, unraisable, side, nth, raises
    ):
        if side == "parent" and isinstance(nth, str):
            total = self._parent_exports(monkeypatch)
            nth = {"middle": (total + 1) // 2, "last": total}[nth]
        elif nth == "last":
            nth = self._worker_exports(monkeypatch, tmp_path)

        def full_on_nth(call_no, pwrite, *args):
            if call_no == nth:
                raise _enospc()
            return pwrite(*args)

        cusp = CuSP(4, "CVC", executor=ProcessExecutor(max_workers=2))
        with monkeypatch.context() as patch:
            _patch_pwrite(patch, side == "worker", full_on_nth)
            with pytest.raises(raises, match="No space left on device") as info:
                cusp.partition(self.GRAPH)
        if side == "worker":
            # The reply side turned it into that task's failure.
            assert "returned an unshippable result" in str(info.value)
        assert leaked_segments() == []
        # The pool serves the next call.
        assert_same_partition(
            cusp.partition(self.GRAPH), CuSP(4, "CVC").partition(self.GRAPH)
        )
        assert leaked_segments() == [] and unraisable == []

    def test_enospc_in_a_dispatch_spec_is_unshippable(self, monkeypatch, pool):
        def full(call_no, pwrite, *args):
            raise _enospc()

        ph = _make_stats(num_hosts=2)
        big = np.arange(SHM_THRESHOLD // 8, dtype=np.int64)
        tasks = [HostTask(h, _resident_probe_body, payload=big) for h in range(2)]
        with monkeypatch.context() as patch:
            _patch_pwrite(patch, False, full)
            with pytest.raises(UnshippableTaskError, match="No space left"):
                pool.run(ph, tasks)
        assert pool._workers == [] and leaked_segments() == []
        assert pool.run(ph, tasks) == [(int(big.sum()), True)] * 2

    @pytest.mark.parametrize("behaviour", ["short-writes", "refused"])
    def test_segment_holds_the_array_however_the_descriptor_behaves(
        self, monkeypatch, behaviour
    ):
        """Short writes are resumed; a descriptor that refuses
        ``write(2)`` outright (a platform fact, not a setting) gets the
        mapping store — inside the same function, same result."""
        def behave(call_no, pwrite, fd, data, offset):
            if behaviour == "refused":
                raise OSError(errno.ENXIO, os.strerror(errno.ENXIO))
            return pwrite(fd, data[:4097], offset)

        _patch_pwrite(monkeypatch, False, behave)
        arr = np.arange(SHM_THRESHOLD // 4, dtype=np.int32)[::-1]
        blob, _ = residency.dumps_with_segments(arr)
        assert len(leaked_segments()) == 1
        back = residency.loads_with_segments(blob)
        assert back.dtype == arr.dtype and np.array_equal(back, arr)
        assert leaked_segments() == []


def _children():
    """Pids of this process's children, zombies included, the
    ``multiprocessing`` resource tracker aside (the first tracked segment
    starts it, and it stays for the life of the process)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == tracker:
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue  # gone between the listing and the read
        if ppid == os.getpid():
            found.append(int(name))
    return sorted(found)


def _worker_pids(cusp):
    return [w["pid"] for w in cusp.executor._workers]


@contextlib.contextmanager
def _pooled(k, policy, **kwargs):
    """A ``CuSP`` over the parent's lane and two workers whatever the
    core count (a name would size the pool by it), retired with the
    block."""
    ex = ProcessExecutor(max_workers=3)
    try:
        yield CuSP(k, policy, executor=ex, **kwargs)
    finally:
        ex.close()


def _status_kb(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _proc_state(pid):
    """The process's state letter (``Z`` for a zombie); ``None`` once
    it is gone altogether."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return None


def _mapped_segments(pid):
    """Names of this family's segments ``pid`` still maps."""
    with open(f"/proc/{pid}/maps") as f:
        return sorted({
            line.split("/dev/shm/", 1)[1].split()[0]
            for line in f if "/dev/shm/repro-" in line
        })


def _wait_until(predicate, seconds=2.0):
    give_up = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > give_up:
            return False
        time.sleep(0.01)
    return True


class _HangGuard(Exception):
    pass


@pytest.fixture
def hang_guard():
    """Turn a hang into a failure: SIGALRM raises in the main thread
    after ten seconds, which also gets a blocked ``waitpid`` or pipe
    read out of the kernel."""
    def fire(signum, frame):
        raise _HangGuard("the call did not return within ten seconds")

    before = signal.signal(signal.SIGALRM, fire)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)


class _Injected(BaseException):
    """What a handler raises mid-barrier.  Not an ``Exception``: a
    ``KeyboardInterrupt`` is not one either."""


class TestInterruptedBarrier:
    """A pool is reusable only after a barrier that completed.  An
    exception raised in the parent while a barrier is in flight — a
    ``KeyboardInterrupt``, a handler's timeout — leaves no pool, no
    segment and no zombie behind, and the next ``partition()`` on the
    same ``CuSP`` forks fresh workers.  (At the parent commit the same
    interruption either hung in ``close()``, which wrote ``exit`` to a
    worker blocked writing a reply nobody read and then waited for it,
    or left that reply's segments in ``/dev/shm``.)"""

    # Large enough that replies ride segments and overflow a pipe buffer.
    GRAPH = erdos_renyi(12_000, 240_000, seed=11)

    # Frame 1 is the first reply of the call, 4 (CVC) and 12 (SVC) land
    # in the masters phase (SVC: its fourth round), -1 is the last reply.
    @pytest.mark.parametrize("policy,after_frames", [
        ("CVC", 1), ("CVC", 4), ("CVC", 7), ("CVC", 15), ("CVC", -1),
        ("SVC", 1), ("SVC", 12), ("SVC", 33), ("SVC", -1),
    ])
    def test_exception_after_nth_reply_frame(
        self, policy, after_frames, monkeypatch, hang_guard
    ):
        """``after_frames`` counts the parent's reply reads from the start
        of a call, or back from its end when negative, as an identical
        call on another pool counted them: a point past the end of the
        call fails here, not as an interruption that never happened."""
        gc.collect()
        before = _children()
        reference = CuSP(4, policy, sync_rounds=10).partition(self.GRAPH)
        parent, read_frame = os.getpid(), pool_module._read_frame
        frames, target = [0], None

        def interrupted(fd):
            frame = read_frame(fd)
            if os.getpid() == parent:  # workers read command frames with it
                frames[0] += 1
                if frames[0] == target:
                    # Sibling replies are unread; a worker may be blocked
                    # writing one.
                    raise _Injected(f"after frame {after_frames}")
            return frame

        monkeypatch.setattr(pool_module, "_read_frame", interrupted)
        with _pooled(4, policy, sync_rounds=10) as counted:
            counted.partition(self.GRAPH)
        total, frames[0] = frames[0], 0
        target = after_frames if after_frames > 0 else total + 1 + after_frames
        assert 1 <= target <= total, (after_frames, total)
        with _pooled(4, policy, sync_rounds=10) as cusp:
            with pytest.raises(_Injected, match=f"after frame {after_frames}"):
                cusp.partition(self.GRAPH)
            assert cusp.executor._workers == []
            assert leaked_segments() == []
            assert _children() == before, "a worker outlived its broken barrier"
            monkeypatch.setattr(pool_module, "_read_frame", read_frame)
            dg = cusp.partition(self.GRAPH)
            assert len(_worker_pids(cusp)) == 2
            assert_same_partition(dg, reference)
            assert_same_breakdown(dg.breakdown, reference.breakdown)

    def test_exception_from_a_real_timer(self):
        gc.collect()
        before = _children()
        graph = erdos_renyi(30_000, 600_000, seed=11)
        reference = CuSP(8, "SVC", sync_rounds=10).partition(graph)
        fired, landing = [], []

        def on_alarm(signum, frame):
            fired.append(signum)
            if len(fired) > 1:
                raise _HangGuard(
                    "partition() did not return after the interrupt"
                )
            f, inside = frame, False
            while f is not None and not inside:
                inside = f.f_code is CuSP.partition.__code__
                f = f.f_back
            where = (f"{frame.f_code.co_name} "
                     f"({frame.f_code.co_filename}:{frame.f_lineno})")
            # A timer that fires after partition() returned has nothing
            # to interrupt: raising then would escape into this test's
            # own bookkeeping.
            landing.append(where if inside else f"late, in {where}")
            if inside:
                raise _Injected("timer")

        was = signal.signal(signal.SIGALRM, on_alarm)
        landed = 0
        try:
            with _pooled(8, "SVC", sync_rounds=10) as cusp:
                cusp.partition(graph)  # forks the pool: not a warm call
                start = time.perf_counter()
                cusp.partition(graph)
                warm = time.perf_counter() - start
                for fraction in (0.3, 0.5, 0.7, 0.4, 0.6):
                    del fired[:], landing[:]
                    # Fires once mid-call; a second firing, ten seconds
                    # later, only if the call is still stuck.
                    signal.setitimer(signal.ITIMER_REAL, warm * fraction, 10.0)
                    try:
                        cusp.partition(graph)
                    except _Injected:
                        landed += 1
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    # Interrupted between barriers the pool is intact and
                    # stays; mid-barrier it is gone.  Nothing else is left.
                    assert leaked_segments() == [], (
                        f"timer landed in {landing}"
                    )
                    assert _children() == sorted(before + _worker_pids(cusp))
                    dg = cusp.partition(graph)
                    assert_same_partition(dg, reference)
                    assert_same_breakdown(dg.breakdown, reference.breakdown)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, was)
        assert landed, "no timer fired inside partition(); nothing was tested"
        assert _children() == before

    def test_timer_inside_a_parent_lane_body(self):
        """The parent's lane runs inside the barrier's in-flight block:
        a timer's exception in one of its bodies retires the pool with
        the workers' unread replies on segments."""
        gc.collect()
        before = _children()
        landed = []

        def on_alarm(signum, frame):
            landed.append(frame.f_code.co_name)
            raise _Injected("timer")

        was = signal.signal(signal.SIGALRM, on_alarm)
        ex = ProcessExecutor(max_workers=3)
        try:
            tasks = [HostTask(h, _parent_lane_naps_body, payload=os.getpid())
                     for h in range(3)]
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(_Injected, match="timer"):
                ex.run(_make_stats(), tasks)
            assert landed == ["_parent_lane_naps_body"]
            assert ex._workers == []
            assert leaked_segments() == []
            assert _children() == before, "a worker outlived its broken barrier"
            # The next barrier forks fresh workers.
            assert ex.run(_make_stats(), [
                HostTask(h, _pool_ok_body) for h in range(3)
            ]) == ["ok"] * 3
            assert len(ex._workers) == 2
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, was)
            ex.close()
        assert _children() == before


def _parent_lane_naps_body(view, parent):
    """The workers' hosts reply with a segment; the parent's lane waits
    until both replies are in ``/dev/shm``, then naps (the timer fires)."""
    if os.getpid() != parent:
        return _big_result_body(view)
    _wait_until(lambda: len(leaked_segments()) >= 2, seconds=5.0)
    time.sleep(10)


def _late_owner(self, prop, src_id, dst_id, src_master, dst_master,
                estate=None):
    return (src_id + dst_id) % prop.getNumPartitions()


_TWO_POOL_PARENT = """
import sys, time
sys.path[:0] = {path!r}
from repro.core import CuSP
from repro.graph import erdos_renyi
graph = erdos_renyi(300, 2400, seed=11)
a = CuSP(4, "CVC", executor="process")
b = CuSP(4, "SVC", executor="process", sync_rounds=3)
a.partition(graph); b.partition(graph); a.partition(graph)
print(*[w["pid"] for c in (a, b) for w in c.executor._workers], flush=True)
time.sleep(60)
"""


class TestPoolOutlivesCall:
    """Workers fork once per ``CuSP`` and stay, heap warm, across its
    ``partition()`` calls; a call ends by releasing what belonged to the
    run (segments, the workers' mappings and recompute caches), and only
    ``close()``, ``with`` or collection retire the pool."""

    GRAPH = erdos_renyi(300, 2400, seed=11)
    OTHER = erdos_renyi(260, 2400, seed=5)
    # Large enough that residents, results and edge blocks ride segments.
    LARGE = erdos_renyi(20_000, 160_000, seed=11)

    @pytest.mark.parametrize("policy", ["CVC", "SVC"])
    def test_five_calls_one_pair_of_workers(self, policy):
        calls = [
            (self.LARGE, "csr"), (self.GRAPH, "csr"), (self.LARGE, "csc"),
            (self.OTHER, "csc"), (self.LARGE, "csr"),
        ]
        serial = CuSP(4, policy, sync_rounds=5)
        with _pooled(4, policy, sync_rounds=5) as cusp:
            pids = None
            for graph, output in calls:
                dg = cusp.partition(graph, output=output)
                assert leaked_segments() == []
                reference = serial.partition(graph, output=output)
                assert_same_partition(dg, reference)
                assert_same_breakdown(dg.breakdown, reference.breakdown)
                assert pids in (None, _worker_pids(cusp))
                pids = _worker_pids(cusp)
            assert len(pids) == 2
            # An idle worker maps nothing of the run that ended.
            assert _wait_until(
                lambda: not any(_mapped_segments(pid) for pid in pids)
            ), [_mapped_segments(pid) for pid in pids]

    def test_a_worker_cache_lasts_as_long_as_the_run(self, pool):
        """What a worker keeps to save a recompute (the assignment
        phase's grouping stash) is keyed by host: kept past the run, it
        would pin the run's arrays and meet the next run's hosts."""
        def barrier(value):
            tasks = [HostTask(h, _cache_probe_body, payload=value)
                     for h in range(2)]
            return pool.run(_make_stats(), tasks)

        assert barrier("first") == [None, None]
        assert barrier("second") == ["first", "first"]  # between barriers
        pool.end_run()
        assert barrier("third") == [None, None]

    def test_worker_killed_between_calls_is_replaced(self):
        reference = CuSP(4, "SVC", sync_rounds=5).partition(self.GRAPH)
        gc.collect()
        before = _children()
        with _pooled(4, "SVC", sync_rounds=5) as cusp:
            cusp.partition(self.GRAPH)
            pids = _worker_pids(cusp)
            os.kill(pids[1], signal.SIGKILL)
            # Once the kernel has torn it down, the next command written
            # to its pipe fails, which is how an idle death is noticed.
            assert _wait_until(lambda: _proc_state(pids[1]) == "Z")
            dg = cusp.partition(self.GRAPH)
            assert_same_partition(dg, reference)
            assert_same_breakdown(dg.breakdown, reference.breakdown)
            assert not set(pids) & set(_worker_pids(cusp))
            assert _children() == sorted(before + _worker_pids(cusp))
            assert leaked_segments() == []
        assert _children() == before

    @pytest.mark.parametrize("kwargs", [
        {"fault_plan": FaultPlan(
            seed=2, send_failure_rate=0.05, drop_rate=0.03,
            crashes=(HostCrash(host=1, phase=2, op_count=5),),
        )},
        {"sanitizer": True},
        {"supervise": True,
         "fault_plan": FaultPlan(seed=5, slow_hosts={1: 0.01})},
        {"executor": "process-checked"},
    ], ids=["crash-replay", "sanitizer", "supervise", "process-checked"])
    def test_per_run_machinery_is_per_run(self, kwargs):
        """Injector, sanitizer context and isolation evidence belong to
        the run: three runs on one pooled object match three serial
        runs, report for report."""
        pooled_kwargs = dict({"executor": "process"}, **kwargs)
        serial_kwargs = dict(kwargs, executor="serial")
        evidence = []
        with CuSP(4, "CVC", **pooled_kwargs) as pooled:
            serial = CuSP(4, "CVC", **serial_kwargs)
            for graph in (self.GRAPH, self.OTHER, self.GRAPH):
                dg, reference = pooled.partition(graph), serial.partition(graph)
                assert_same_partition(dg, reference)
                assert_same_breakdown(dg.breakdown, reference.breakdown)
                assert leaked_segments() == []
                for report in ("last_fault_report", "last_supervisor_report"):
                    got, want = getattr(pooled, report), getattr(serial, report)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got.summary() == want.summary()
                if pooled.sanitizer is not None:
                    assert pooled.sanitizer.violations == []
                    assert (pooled.sanitizer.phases_checked
                            == serial.sanitizer.phases_checked)
                monitor = pooled.executor.monitor
                if monitor is not None:
                    assert monitor.violations == []
                    evidence.append(monitor.num_accesses)
        if evidence:
            first, second, third = evidence
            # Runs one and three are the same run: the same evidence.
            assert first > 0 and third - second == first

    def test_two_pools_used_alternately(self):
        graph = self.LARGE
        want = {p: CuSP(4, p, sync_rounds=5).partition(graph)
                for p in ("CVC", "SVC")}
        with _pooled(4, "CVC") as cvc, \
                _pooled(4, "SVC", sync_rounds=5) as svc:
            pids = None
            for _ in range(3):
                for cusp in (cvc, svc):
                    dg = cusp.partition(graph)
                    assert_same_partition(dg, want[cusp.policy.name])
                    assert leaked_segments() == []
                now = _worker_pids(cvc) + _worker_pids(svc)
                assert pids in (None, now) and len(set(now)) == 4
                pids = now

    def test_close_exit_and_collection_all_reap(self):
        gc.collect()
        before = _children()
        cusp = CuSP(4, "CVC", executor="process")
        cusp.partition(self.GRAPH)
        first = _worker_pids(cusp)
        assert first and _children() == sorted(before + first)
        cusp.close()
        cusp.close()  # idempotent
        assert _children() == before
        # partition() after close() forks again ...
        assert_same_partition(
            cusp.partition(self.GRAPH), CuSP(4, "CVC").partition(self.GRAPH)
        )
        second = _worker_pids(cusp)
        assert second and not set(first) & set(second)
        # ... __exit__ retires those ...
        with cusp:
            pass
        assert _children() == before
        # ... and so does dropping the last reference.
        cusp.partition(self.GRAPH)
        assert _children() != before
        del cusp
        gc.collect()
        assert _children() == before
        assert leaked_segments() == []

    def test_a_callers_executor_is_ended_per_run_not_closed(self):
        ex = ProcessExecutor(max_workers=3)
        try:
            with CuSP(4, "CVC", executor=ex) as cusp:
                cusp.partition(self.LARGE)
                pids = [w["pid"] for w in ex._workers]
                assert len(pids) == 2 and ex._residents == {}
                assert leaked_segments() == []
            # Neither the call nor the with-block closed it under them.
            assert [w["pid"] for w in ex._workers] == pids
            other = CuSP(4, "SVC", executor=ex, sync_rounds=5)
            assert_same_partition(
                other.partition(self.GRAPH),
                CuSP(4, "SVC", sync_rounds=5).partition(self.GRAPH),
            )
            assert [w["pid"] for w in ex._workers] == pids
        finally:
            ex.close()
        assert ex._workers == []

    def test_worker_rss_is_flat_over_twenty_calls(self):
        with _pooled(4, "SVC", sync_rounds=5) as cusp:
            rss = []
            for _ in range(20):
                cusp.partition(self.LARGE)
                pids = _worker_pids(cusp)
                # The workers take "forget" off their pipes on their own time.
                assert _wait_until(
                    lambda: not any(_mapped_segments(pid) for pid in pids)
                )
                rss.append(sum(_status_kb(pid, "VmRSS") for pid in pids))
        assert rss[19] <= 1.10 * rss[1], rss

    def test_a_class_defined_after_the_fork_retires_the_pool_and_says_so(self):
        from repro.core.edge_rules import EdgeRule
        from repro.core.master_rules import ContiguousEB
        from repro.core.policies import Policy

        ex = ProcessExecutor(max_workers=2)
        try:
            CuSP(4, "CVC", executor=ex).partition(self.GRAPH)  # forks here
            name = "_RuleDefinedAfterTheFork"
            late = type(name, (EdgeRule,), {
                "name": "Late", "__module__": __name__,
                "owner": _late_owner,
            })
            setattr(sys.modules[__name__], name, late)
            try:
                policy = Policy("late", ContiguousEB(), late())
                cusp = CuSP(4, policy, executor=ex)
                with pytest.raises(UnshippableTaskError, match="as old as"):
                    cusp.partition(self.GRAPH)
                assert ex._workers == [] and leaked_segments() == []
                # The next call forks workers that know the class.
                assert_same_partition(
                    cusp.partition(self.GRAPH),
                    CuSP(4, policy).partition(self.GRAPH),
                )
            finally:
                delattr(sys.modules[__name__], name)
        finally:
            ex.close()

    def test_a_worker_holds_no_pipe_end_but_its_own(self):
        """Pools coexist now.  A worker forked while another pool is
        alive inherits that pool's parent-side pipe ends; kept, they
        would hide the parent's death from the other pool's workers."""
        with _pooled(4, "CVC") as a, _pooled(4, "CVC") as b:
            a.partition(self.GRAPH)
            b.partition(self.GRAPH)
            victim = _worker_pids(a)[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait_until(lambda: _proc_state(victim) == "Z")
            a.partition(self.GRAPH)  # a's workers now fork after b's
            workers = a.executor._workers + b.executor._workers
            assert len(workers) == 4

            def pipes_of(pid):
                inodes = set()
                for fd in os.listdir(f"/proc/{pid}/fd"):
                    target = os.readlink(f"/proc/{pid}/fd/{fd}")
                    if target.startswith("pipe:"):
                        inodes.add(target)
                return inodes

            def own(worker):
                return {
                    f"pipe:[{os.fstat(worker[end]).st_ino}]"
                    for end in ("cmd_w", "reply_r")
                }

            every = set().union(*(own(w) for w in workers))
            for worker in workers:
                held = pipes_of(worker["pid"]) & every
                assert held == own(worker), (worker, held)

    def test_workers_of_two_pools_die_with_a_killed_parent(self, tmp_path):
        script = tmp_path / "parent.py"
        script.write_text(_TWO_POOL_PARENT.format(path=sys.path))
        parent = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, text=True
        )
        try:
            pids = [int(p) for p in parent.stdout.readline().split()]
            assert len(pids) >= 2
        finally:
            parent.kill()
            parent.wait(timeout=10)

        assert _wait_until(
            lambda: all(_proc_state(pid) in ("Z", None) for pid in pids)
        ), (
            "a pool worker outlived its SIGKILLed parent"
        )
        # The killed parent could not unlink anything; nothing was there.
        assert not [n for n in os.listdir("/dev/shm")
                    if n.startswith(f"repro-{parent.pid:x}-")]


def _round_counters(cluster):
    """Every counter the rounds' phase recorded: the ledger matrices,
    backoff, compute and disk per host, the collectives and barriers."""
    return [
        (
            stats.name, stats.failed, stats.comm._matrices.tobytes(),
            stats.comm.backoff_units.tobytes(), stats.compute_units.tobytes(),
            stats.disk_bytes.tobytes(), list(stats.comm.collective_events),
            stats.comm.barriers,
        )
        for stats in cluster.phase_stats
    ]


def _digest(dg):
    h = hashlib.sha256(np.ascontiguousarray(dg.masters).tobytes())
    for part in dg.partitions:
        for arr in (part.global_ids, part.master_host,
                    part.local_graph.indptr, part.local_graph.indices):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


_SIGTERM_PARENT = """
import os, sys, time
sys.path[:0] = {path!r}
from repro.core import CuSP, state
from repro.graph import erdos_renyi
from repro.runtime.executor import ProcessExecutor
graph = erdos_renyi(2000, 16000, seed=11)
rounds = [0]
sync_round = state.PartitionLoadState.sync_round

def stalled_sync_round(self, comm, blocking=True):
    sync_round(self, comm, blocking)
    rounds[0] += 1
    if rounds[0] == 10:  # between rounds 10 and 11 of 100
        print(os.getpid(), *[w["pid"] for w in ex._workers], flush=True)
        time.sleep(60)

state.PartitionLoadState.sync_round = stalled_sync_round
ex = ProcessExecutor(max_workers=3)
CuSP(4, "SVC", executor=ex, sync_rounds=100).partition(graph)
"""


class TestResidentRounds:
    """A history-sensitive master phase is one stepped task per host:
    a pool worker keeps its hosts' bodies, deltas and rows from round to
    round, and a round boundary moves only the load vectors.  Every
    executor gives serial's partition, accounting and fault-event order;
    a worker that holds live bodies between rounds, an interrupt there
    and a terminated parent leave nothing behind."""

    GRAPH = erdos_renyi(300, 2400, seed=11)
    PLAN = "seed=5,send-fail=0.05,drop=0.03,dup=0.03,corrupt=0.03"

    @pytest.fixture(scope="class")
    def executors(self):
        # Pools three lanes wide whatever the core count.
        made = {
            "serial": SerialExecutor(),
            "parallel": ParallelExecutor(max_workers=3),
            "parallel-checked": ParallelExecutor(
                max_workers=3, check_isolation=True
            ),
            "process": ProcessExecutor(max_workers=3),
            "process-checked": ProcessExecutor(
                max_workers=3, check_isolation=True
            ),
        }
        yield made
        for ex in made.values():
            ex.close()

    @pytest.mark.parametrize("sync_rounds", [1, 7, 100])
    @pytest.mark.parametrize("policy", ["FVC", "FEC", "SVC", "LEC"])
    def test_every_executor_matches_serial(
        self, policy, sync_rounds, executors, monkeypatch
    ):
        from repro.core import framework

        clusters = []

        class RecordingCluster(framework.SimulatedCluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clusters.append(self)

        monkeypatch.setattr(framework, "SimulatedCluster", RecordingCluster)
        if sync_rounds == 100:
            # Some host has fewer nodes than rounds: empty chunks.
            ranges = compute_read_ranges(self.GRAPH, 4)
            assert min(stop - start for start, stop in ranges) < sync_rounds
        seen = {}
        for name, ex in executors.items():
            for plan in (None, FaultPlan.from_spec(self.PLAN)):
                cusp = CuSP(
                    4, policy, executor=ex, sync_rounds=sync_rounds,
                    fault_plan=plan,
                )
                dg = cusp.partition(self.GRAPH)
                events = (
                    None if plan is None
                    else list(cusp.last_fault_report.events)
                )
                seen.setdefault(plan is None, {})[name] = (
                    _digest(dg),
                    [p.to_dict() for p in dg.breakdown.phases],
                    _round_counters(clusters[-1]),
                    events,
                )
        for runs in seen.values():
            for name, got in runs.items():
                assert got == runs["serial"], name
        assert seen[False]["serial"][3], "the fault plan fired nothing"
        for name in ("parallel-checked", "process-checked"):
            assert not executors[name].monitor.violations

    @pytest.mark.parametrize("executor", ["process", "process-checked"])
    def test_interrupt_between_rounds(self, executor, monkeypatch):
        from repro.core.state import PartitionLoadState

        gc.collect()
        before = _children()
        reference = CuSP(4, "SVC", sync_rounds=10).partition(self.GRAPH)
        sync_round, calls = PartitionLoadState.sync_round, [0]

        def interrupted(state, comm, blocking=True):
            sync_round(state, comm, blocking)
            calls[0] += 1
            if calls[0] == 4:  # between round 3 and round 4
                raise KeyboardInterrupt

        ex = ProcessExecutor(
            max_workers=3, check_isolation=executor == "process-checked"
        )
        cusp = CuSP(4, "SVC", executor=ex, sync_rounds=10)
        try:
            cusp.partition(self.GRAPH)  # warm: the workers are forked
            assert len(_worker_pids(cusp)) == 2
            monkeypatch.setattr(PartitionLoadState, "sync_round", interrupted)
            with pytest.raises(KeyboardInterrupt):
                cusp.partition(self.GRAPH)
            assert calls[0] == 4
            assert cusp.executor._workers == []
            assert leaked_segments() == []
            assert _children() == before, "a worker outlived the interrupt"
            monkeypatch.setattr(PartitionLoadState, "sync_round", sync_round)
            dg = cusp.partition(self.GRAPH)
            assert _digest(dg) == _digest(reference)
            assert_same_breakdown(dg.breakdown, reference.breakdown)
        finally:
            ex.close()
        assert _children() == before

    def test_worker_killed_between_rounds(self, monkeypatch):
        from repro.core.state import PartitionLoadState
        from repro.runtime.executor import WorkerLostError

        gc.collect()
        before = _children()
        reference = CuSP(4, "SVC", sync_rounds=10).partition(self.GRAPH)
        sync_round, calls, killed = PartitionLoadState.sync_round, [0], []

        def kill_a_worker(state, comm, blocking=True):
            sync_round(state, comm, blocking)
            calls[0] += 1
            if calls[0] == 3:
                # Three lanes over four hosts: the first worker holds
                # host 2, idle and holding its body until round 4.
                pid = cusp.executor._workers[0]["pid"]
                os.kill(pid, signal.SIGKILL)
                _wait_for_zombie(pid)
                killed.append(pid)

        with _pooled(4, "SVC", sync_rounds=10) as cusp:
            monkeypatch.setattr(PartitionLoadState, "sync_round", kill_a_worker)
            with pytest.raises(WorkerLostError, match=r"hosts \[2\]") as err:
                cusp.partition(self.GRAPH)
            assert err.value.hosts == (2,)
            assert killed and calls[0] == 3
            assert cusp.executor._workers == []
            assert leaked_segments() == []
            assert _children() == before, "a worker outlived its dead peer"
            monkeypatch.setattr(PartitionLoadState, "sync_round", sync_round)
            dg = cusp.partition(self.GRAPH)
            assert _digest(dg) == _digest(reference)
            assert_same_breakdown(dg.breakdown, reference.breakdown)
        assert _children() == before

    def test_terminated_parent_leaves_nothing(self, tmp_path):
        """SIGTERM's default action gives the parent no unwind: its
        workers leave on the command pipe's EOF, and the resource
        tracker unlinks the residents, which are the only names there
        between rounds."""
        script = tmp_path / "parent.py"
        script.write_text(_SIGTERM_PARENT.format(path=sys.path))
        parent = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        family = None
        try:
            pid, *workers = [int(p) for p in parent.stdout.readline().split()]
            assert pid == parent.pid and len(workers) == 2
            family = f"repro-{pid:x}-"
            names = [n for n in os.listdir("/dev/shm") if n.startswith(family)]
            assert names, "no resident in /dev/shm: nothing was tested"
            parent.send_signal(signal.SIGTERM)
            assert parent.wait(timeout=10) == -signal.SIGTERM
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=10)
        assert _wait_until(
            lambda: all(_proc_state(w) in ("Z", None) for w in workers),
            seconds=10.0,
        ), "a pool worker outlived its terminated parent"
        assert _wait_until(
            lambda: not [n for n in os.listdir("/dev/shm")
                         if n.startswith(family)],
            seconds=10.0,
        ), "the terminated parent's segments stayed in /dev/shm"


class TestCommRegressions:
    def test_payload_nbytes_numpy2_scalars(self):
        # np.bool_ is no longer a bool subclass on NumPy 2; this used to
        # raise TypeError deep inside send().
        assert payload_nbytes(np.bool_(True)) == 8
        assert payload_nbytes(np.int32(7)) == 8
        assert payload_nbytes(np.float64(1.5)) == 8
        assert payload_nbytes(True) == 8

    def test_payload_nbytes_zero_dim_array(self):
        scalar_arr = np.array(3.0)
        assert scalar_arr.ndim == 0
        assert payload_nbytes(scalar_arr) == scalar_arr.nbytes

    def test_send_numpy_bool_payload(self):
        comm = Communicator(2, injector=FaultInjector(FaultPlan()))
        comm.send(0, 1, np.bool_(True), tag="flag")
        [(src, payload)] = comm.recv_all(1, tag="flag")
        assert src == 0 and payload == np.bool_(True)
        assert comm.sent_bytes[0, 1] == 8.0

    def test_allreduce_nbytes_override(self):
        comm = Communicator(3, injector=FaultInjector(FaultPlan()))
        contributions = [np.arange(4, dtype=np.float64) for _ in range(3)]
        comm.allreduce_sum(contributions, nbytes=1000.0)
        kind, charged = comm.collective_events[-1]
        assert kind == "allreduce" and charged == 1000.0
        comm2 = Communicator(3, injector=FaultInjector(FaultPlan()))
        comm2.allreduce_max([np.ones(4) for _ in range(3)], nbytes=64.0)
        assert comm2.collective_events[-1][1] == 64.0

    def test_partners_counts_retry_only_peers(self):
        comm = Communicator(4, injector=FaultInjector(FaultPlan()))
        # A peer reached only by retransmissions (e.g. every payload
        # send was redirected elsewhere but the retries were charged)
        # is still a communication partner.
        comm.retry_bytes[0, 3] = 128.0
        comm.retry_messages[0, 3] = 2.0
        assert comm.partners(0) == 1
        assert comm.partners(3) == 1
        comm.sent_bytes[0, 1] = 64.0
        assert comm.partners(0) == 2
        # Self-traffic never counts.
        comm.sent_bytes[2, 2] = 64.0
        assert comm.partners(2) == 0
