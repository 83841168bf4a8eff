"""The dynamic host-isolation race detector (``repro.analysis.isolation``).

The determinism contract says a mapped host task touches only its own
host's state and charges only through its ``HostView``.  These tests
plant deliberate contract breaches inside ``ParallelExecutor`` tasks and
assert the detector raises an :class:`IsolationViolation` that names the
offending (host, phase, attribute) — and that sanctioned runs (the whole
pipeline, ``chain()``, serial execution, the merge barrier) pass with a
non-empty access log.
"""

import pytest

from repro.analysis.isolation import (
    IsolationMonitor,
    IsolationViolation,
    OwnedProxy,
    current_context,
)
from repro.core import CuSP
from repro.graph import erdos_renyi
from repro.runtime.comm import Communicator
from repro.runtime.executor import HostTask, ParallelExecutor, SerialExecutor
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.stats import PhaseStats


def make_stats(num_hosts=3, name="Edge Assignment"):
    comm = Communicator(num_hosts, injector=FaultInjector(FaultPlan()))
    return PhaseStats(name=name, comm=comm, num_hosts=num_hosts)


def idle(view):
    view.add_compute(1.0)


class TestPlantedViolations:
    """Each planted breach must die with an actionable message."""

    def run_planted(self, evil, label="evil", num_hosts=3):
        ph = make_stats(num_hosts=num_hosts)
        executor = ParallelExecutor(check_isolation=True)
        tasks = [HostTask(0, evil, label=label)] + [
            HostTask(h, idle) for h in range(1, num_hosts)
        ]
        with pytest.raises(IsolationViolation) as exc_info:
            executor.run(ph, tasks)
        assert executor.monitor.violations
        return ph, exc_info.value

    def test_cross_host_stats_charge(self):
        """A task charging *another host's* compute on the shared
        PhaseStats — the exact mutation the contract forbids."""
        holder = {}

        def evil(view):
            view.add_compute(1.0)
            holder["ph"].add_compute(2, 1.0)  # bypasses the view

        holder["ph"] = ph = make_stats()
        executor = ParallelExecutor(check_isolation=True)
        tasks = [HostTask(0, evil, label="evil"),
                 HostTask(1, idle), HostTask(2, idle)]
        with pytest.raises(IsolationViolation) as exc_info:
            executor.run(ph, tasks)
        err = exc_info.value
        assert err.host == 0
        assert err.phase == "Edge Assignment"
        assert err.attribute == "PhaseStats.add_compute"
        message = str(err)
        assert "host 0" in message
        assert "Edge Assignment" in message
        assert "evil" in message
        assert "host 2" in message  # names the host whose state was touched

    def test_shared_communicator_send(self):
        ph_box = []

        def evil(view):
            ph_box[0].comm.send(0, 1, b"x", tag="t", nbytes=8)

        ph = make_stats()
        ph_box.append(ph)
        executor = ParallelExecutor(check_isolation=True)
        with pytest.raises(IsolationViolation) as exc_info:
            executor.run(ph, [HostTask(0, evil), HostTask(1, idle)])
        assert exc_info.value.attribute == "Communicator.send"

    def test_collective_inside_task(self):
        ph_box = []

        def evil(view):
            ph_box[0].comm.barrier()

        ph = make_stats()
        ph_box.append(ph)
        executor = ParallelExecutor(check_isolation=True)
        with pytest.raises(IsolationViolation) as exc_info:
            executor.run(ph, [HostTask(0, evil), HostTask(1, idle)])
        assert exc_info.value.attribute == "Communicator.barrier"

    def test_draining_another_hosts_queue(self):
        ph_box = []

        def evil(view):
            ph_box[0].comm.recv_all(1, tag="t")  # host 0 reads host 1's mail

        ph = make_stats()
        ph_box.append(ph)
        executor = ParallelExecutor(check_isolation=True)
        with pytest.raises(IsolationViolation) as exc_info:
            executor.run(ph, [HostTask(0, evil), HostTask(1, idle)])
        assert exc_info.value.attribute == "Communicator.recv_all"

    def test_writing_through_another_hosts_view(self):
        views = {}

        def leak(view):
            views[view.host] = view
            view.add_compute(1.0)

        ph = make_stats()
        executor = ParallelExecutor(check_isolation=True)
        executor.run(ph, [HostTask(h, leak) for h in range(3)])

        def evil(view):
            views[2].add_compute(1.0)  # host 0 charges via host 2's view

        with pytest.raises(IsolationViolation) as exc_info:
            executor.run(ph, [HostTask(0, evil), HostTask(1, idle)])
        assert exc_info.value.attribute == "HostView.add_compute"
        assert exc_info.value.host == 0


class TestOwnedProxy:
    def test_guards_foreign_access_inside_tasks(self):
        state = [OwnedProxy({"count": 0}, h, name="rule-state")
                 for h in range(2)]

        def own(view):
            state[view.host]["count"] = view.host  # own state: fine
            return state[view.host]["count"]

        ph = make_stats(num_hosts=2)
        executor = ParallelExecutor(check_isolation=True)
        assert executor.run(ph, [HostTask(0, own), HostTask(1, own)]) == [0, 1]

        def evil(view):
            state[1]["count"] = 99

        with pytest.raises(IsolationViolation) as exc_info:
            executor.run(ph, [HostTask(0, evil), HostTask(1, idle)])
        assert exc_info.value.attribute == "rule-state[]"

    def test_transparent_outside_any_task(self):
        proxy = OwnedProxy({"x": 1}, owner_host=5)
        assert proxy["x"] == 1
        proxy["x"] = 2
        assert proxy["x"] == 2
        assert "host=5" in repr(proxy)

    def test_attribute_forwarding(self):
        class Counter:
            def __init__(self):
                self.n = 0

        proxy = OwnedProxy(Counter(), 0)
        proxy.n = 7
        assert proxy.n == 7


class TestSanctionedPaths:
    def test_full_pipeline_is_clean_and_observed(self):
        graph = erdos_renyi(200, 1400, seed=3)
        executor = ParallelExecutor(check_isolation=True)
        CuSP(4, "CVC", executor=executor).partition(graph)
        monitor = executor.monitor
        assert not monitor.violations
        assert monitor.num_accesses > 0
        assert monitor.accesses_for(0)
        assert "0 violation(s)" in monitor.summary()
        phases = {a.phase for a in monitor.accesses}
        assert len(phases) > 1  # observed across multiple phases

    def test_parallel_checked_executor_name(self):
        from repro.runtime.executor import make_executor

        graph = erdos_renyi(150, 900, seed=4)
        dg_checked = CuSP(
            4, "CVC", executor=make_executor("parallel-checked")
        ).partition(graph)
        dg_serial = CuSP(4, "CVC", executor="serial").partition(graph)
        import numpy as np

        assert np.array_equal(dg_checked.masters, dg_serial.masters)

    def test_serial_executor_never_enters_a_context(self):
        ph = make_stats()

        def body(view):
            assert current_context() is None
            ph.add_compute(view.host, 1.0)  # direct charges legal serially

        SerialExecutor().run(ph, [HostTask(h, body) for h in range(3)])
        assert ph.compute_units.sum() == 3.0

    def test_single_task_runs_direct(self):
        # One task has no concurrency: it runs in turn in the parent,
        # as under serial, so no context and no recorded accesses.
        ph = make_stats(num_hosts=1)
        executor = ParallelExecutor(check_isolation=True)

        def body(view):
            assert current_context() is None
            view.add_compute(1.0)

        executor.run(ph, [HostTask(0, body)])
        assert not executor.monitor.violations

    def test_main_thread_context_is_none(self):
        assert current_context() is None

    def test_monitor_op_indices_are_per_task(self):
        ph = make_stats(num_hosts=2)
        executor = ParallelExecutor(check_isolation=True)

        def busy(view):
            for _ in range(3):
                view.add_compute(1.0)

        executor.run(ph, [HostTask(0, busy), HostTask(1, busy)])
        monitor = executor.monitor
        for host in (0, 1):
            ops = [a.op_index for a in monitor.accesses_for(host)]
            assert ops == [1, 2, 3]

    def test_access_log_is_bounded_but_count_is_not(self):
        monitor = IsolationMonitor(max_recorded=2)
        ph = make_stats(num_hosts=2)
        executor = ParallelExecutor(check_isolation=True, monitor=monitor)

        def busy(view):
            for _ in range(5):
                view.add_compute(1.0)

        executor.run(ph, [HostTask(0, busy), HostTask(1, busy)])
        assert len(monitor.accesses) == 2
        assert monitor.num_accesses == 10
