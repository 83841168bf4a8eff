"""Fault injection and crash recovery (``-m faults``).

The headline guarantee under test: a partitioning run with injected
faults — transient send failures, message drops/duplication, slow hosts,
host crashes with checkpoint replay — produces a partition *identical*
to the fault-free run (same masters, same edge assignment), with the
recovery work visible in the simulated cost breakdown.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (
    PHASE_NAMES,
    CheckpointCorruptionError,
    CuSP,
    PartitionCheckpoint,
    check_partition,
    save_partitions,
)
from repro.graph import erdos_renyi, rmat, write_gr
from repro.runtime.comm import Communicator
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultReport,
    HostCrash,
    HostCrashError,
    RecoveryManager,
    SendRetriesExhausted,
    UnrecoverableClusterError,
    retry_event_channels,
)

from .strategies import fault_plans, graphs

pytestmark = pytest.mark.faults


def small_graph():
    return erdos_renyi(300, 2400, seed=11)


def run(plan=None, policy="CVC", k=4, graph=None, **kw):
    """Partition under ``plan`` with CommSan auditing every phase: each
    fault/recovery scenario doubles as a conservation-law check."""
    kw.setdefault("sanitizer", True)
    cusp = CuSP(k, policy, fault_plan=plan, **kw)
    dg = cusp.partition(graph if graph is not None else small_graph())
    if cusp.sanitizer is not None:
        assert cusp.sanitizer.violations == []
        assert cusp.sanitizer.phases_checked >= 5, (
            "CommSan audited nothing; sanitizer is not wired in"
        )
    return cusp, dg


def assert_same_partition(a, b):
    assert np.array_equal(a.masters, b.masters)
    for pa, pb in zip(a.partitions, b.partitions):
        assert np.array_equal(pa.global_ids, pb.global_ids)
        assert pa.num_masters == pb.num_masters
        assert np.array_equal(pa.local_graph.indptr, pb.local_graph.indptr)
        assert np.array_equal(pa.local_graph.indices, pb.local_graph.indices)


class TestFaultPlanParsing:
    def test_compact_spec_roundtrip(self):
        spec = "seed=42,send-fail=0.05,drop=0.01,dup=0.01,crash=1@2,crash=0@3:25,slow=3:0.5"
        plan = FaultPlan.from_spec(spec)
        assert plan.seed == 42
        assert plan.send_failure_rate == 0.05
        assert plan.crashes == (
            HostCrash(1, 2, None), HostCrash(0, 3, 25),
        )
        assert plan.slow_hosts == {3: 0.5}
        assert FaultPlan.from_spec(plan.describe()) == plan

    def test_json_spec(self):
        plan = FaultPlan.from_spec(json.dumps({
            "seed": 7,
            "drop_rate": 0.1,
            "crashes": [{"host": 2, "phase": "Edge Assignment"}],
            "slow_hosts": {"1": 0.5},
        }))
        assert plan.drop_rate == 0.1
        assert plan.crashes[0].phase == "Edge Assignment"
        assert plan.slow_hosts == {1: 0.5}

    def test_file_spec(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 3, "send_failure_rate": 0.2}))
        assert FaultPlan.from_spec(f"@{path}").send_failure_rate == 0.2

    @pytest.mark.parametrize("bad", [
        "send-fail=1.5", "crash=1", "slow=2", "nonsense=1", "crash=1@2:0",
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad)

    def test_null_plan(self):
        assert FaultPlan().is_null()
        assert not FaultPlan(send_failure_rate=0.1).is_null()


class TestInjectorDeterminism:
    def test_same_seed_same_events(self):
        plan = FaultPlan(seed=5, send_failure_rate=0.2, drop_rate=0.1,
                         duplicate_rate=0.1)
        logs = []
        for _ in range(2):
            inj = FaultInjector(plan)
            inj.begin_phase("p")
            for i in range(200):
                channel = inj.channel(i % 4)
                channel.transient_send_failure((i + 1) % 4)
                channel.dropped((i + 1) % 4)
                channel.duplicated((i + 1) % 4)
            logs.append(list(inj.events))
        assert logs[0] == logs[1]
        assert logs[0]  # at those rates something must have fired

    def test_different_seed_different_events(self):
        def events(seed):
            inj = FaultInjector(FaultPlan(seed=seed, send_failure_rate=0.3))
            inj.begin_phase("p")
            channel = inj.channel(0)
            return [channel.transient_send_failure(1) for _ in range(100)]
        assert events(1) != events(2)

    def test_deterministic_end_to_end(self):
        plan = FaultPlan.from_spec("seed=9,send-fail=0.05,drop=0.02,crash=2@1")
        c1, dg1 = run(plan)
        c2, dg2 = run(plan)
        assert c1.last_fault_report.events == c2.last_fault_report.events
        assert_same_partition(dg1, dg2)


class TestReliableTransport:
    def test_message_faults_do_not_change_result(self):
        _, base = run()
        # seed 1 deterministically fires all three fault kinds at these
        # rates on this graph/policy under the per-(host, op) fault
        # channels (the run has only ~10 remote sends).
        plan = FaultPlan(seed=1, send_failure_rate=0.1, drop_rate=0.1,
                         duplicate_rate=0.1)
        cusp, dg = run(plan)
        assert_same_partition(base, dg)
        assert dg.breakdown.retry_bytes() > 0
        assert dg.breakdown.retry_messages() > 0
        # Retry traffic costs simulated time.
        assert dg.breakdown.total > base.breakdown.total
        kinds = {e[0] for e in cusp.last_fault_report.events}
        assert {"send-failure", "drop", "duplicate"} <= kinds

    def test_retries_exhausted(self):
        # Certain-failure rate is forbidden by validate(); 0.99 with a
        # tiny budget still exhausts immediately and deterministically.
        inj = FaultInjector(FaultPlan(seed=0, send_failure_rate=0.99))
        inj.begin_phase("p")
        comm = Communicator(2, injector=inj, max_retries=1)
        with pytest.raises(SendRetriesExhausted):
            for _ in range(50):
                comm.send(0, 1, None, tag="t", nbytes=64)

    def test_exhausted_send_keeps_its_retry_charges(self):
        # A send that gives up has already paid for the attempts it
        # wasted: they stay charged to its channel, and nothing is sent
        # or delivered.
        inj = FaultInjector(FaultPlan(seed=0, send_failure_rate=0.99))
        inj.begin_phase("p")
        comm = Communicator(2, injector=inj, max_retries=3)
        with pytest.raises(SendRetriesExhausted):
            comm.send(0, 1, None, nbytes=64)
        assert comm.retry_bytes.tolist() == [[0.0, 256.0], [0.0, 0.0]]
        assert comm.retry_messages.tolist() == [[0.0, 4.0], [0.0, 0.0]]
        assert comm.backoff_units.tolist() == [15.0, 0.0]  # 1 + 2 + 4 + 8
        assert retry_event_channels(inj.events) == {(0, 1): 4}
        assert comm.sent_bytes.sum() == 0
        assert comm.pending(1) == 0

    def test_fault_free_plan_matches_no_plan(self):
        _, base = run()
        cusp, dg = run(FaultPlan(seed=123))  # null plan, injector attached
        assert_same_partition(base, dg)
        assert dg.breakdown.retry_bytes() == 0
        assert cusp.last_fault_report.summary() == "no faults injected"
        assert base.breakdown.total == pytest.approx(dg.breakdown.total)


class TestCrashRecovery:
    @pytest.mark.parametrize("phase", range(5))
    def test_boundary_crash_every_phase(self, phase):
        _, base = run()
        cusp, dg = run(FaultPlan(seed=3, crashes=(HostCrash(1, phase),)))
        assert_same_partition(base, dg)
        assert check_partition(dg, original=small_graph()).ok
        failed = dg.breakdown.failed_phases()
        assert [p.name for p in failed] == [PHASE_NAMES[phase]]
        assert cusp.last_fault_report.replays == 1

    @pytest.mark.parametrize("ops", [1, 5, 10_000])
    def test_mid_phase_crash(self, ops):
        _, base = run()
        cusp, dg = run(FaultPlan(seed=3, crashes=(HostCrash(0, 2, ops),)))
        assert_same_partition(base, dg)
        assert cusp.last_fault_report.replays == 1

    @pytest.mark.parametrize("ops", [4, 6, 8, 9])
    @pytest.mark.parametrize("policy", ["SVC", "FEC"])
    def test_mid_round_crash_same_on_every_executor(self, policy, ops):
        """On this graph host 1's masters ops are three request sends,
        then per round one scoring charge and three shipments: ops 4 and
        8 crash it while scoring, 6 and 9 while shipping.  Every executor
        charges the aborted attempt alike, and the replay converges."""
        _, base = run(policy=policy, sync_rounds=5)
        plan = FaultPlan(seed=3, crashes=(HostCrash(1, 1, ops),))
        phases = []
        for executor in ("serial", "parallel", "process"):
            cusp, dg = run(plan, policy=policy, sync_rounds=5, executor=executor)
            cusp.close()
            assert_same_partition(base, dg)
            assert [p.name for p in dg.breakdown.failed_phases()] == [PHASE_NAMES[1]]
            phases.append([p.to_dict() for p in dg.breakdown.phases])
        assert phases[0] == phases[1] == phases[2]

    def test_multiple_crashes_different_phases(self):
        _, base = run()
        plan = FaultPlan(seed=3, crashes=(HostCrash(1, 1), HostCrash(3, 3)))
        cusp, dg = run(plan)
        assert_same_partition(base, dg)
        assert cusp.last_fault_report.replays == 2
        assert len(dg.breakdown.failed_phases()) == 2

    @pytest.mark.parametrize("policy", ["EEC", "CVC", "HVC", "FEC"])
    def test_recovery_across_policies(self, policy):
        _, base = run(policy=policy)
        _, dg = run(FaultPlan(seed=1, crashes=(HostCrash(2, 2),)),
                    policy=policy)
        assert_same_partition(base, dg)

    def test_acceptance_crash_plus_send_failures(self):
        """ISSUE acceptance: >=1 crash AND >=1 transient send failure."""
        _, base = run()
        plan = FaultPlan.from_spec("seed=42,send-fail=0.05,crash=1@2")
        cusp, dg = run(plan)
        assert_same_partition(base, dg)
        assert check_partition(dg, original=small_graph()).ok
        counts = cusp.last_fault_report.counts()
        assert counts.get("crash", 0) >= 1
        assert counts.get("send-failure", 0) >= 1
        assert dg.breakdown.retry_bytes() > 0

    def test_replay_cost_is_visible(self):
        _, base = run()
        _, dg = run(FaultPlan(seed=3, crashes=(HostCrash(1, 2),)))
        assert dg.breakdown.total > base.breakdown.total
        aborted = [p for p in dg.breakdown.phases if p.failed]
        assert len(aborted) == 1
        # The aborted attempt's traffic still counts as communication.
        assert dg.breakdown.comm_bytes() > base.breakdown.comm_bytes()
        # But not toward the end-to-end time (satellite: failed phases are
        # excluded from total and by_phase).
        assert PHASE_NAMES[2] in dg.breakdown.by_phase()
        assert dg.breakdown.phase(PHASE_NAMES[2]).failed is False

    def test_retry_budget_exhausted(self):
        plan = FaultPlan(seed=0, crashes=tuple(
            HostCrash(h, 2) for h in range(3)
        ))
        with pytest.raises(UnrecoverableClusterError):
            run(plan, max_retries=2)

    def test_all_hosts_crashing_is_unrecoverable(self):
        rm = RecoveryManager(2)
        rm.on_crash(0, "p")
        with pytest.raises(UnrecoverableClusterError):
            rm.on_crash(1, "p")


class TestRecoveryManager:
    def test_reassignment_to_least_loaded(self):
        rm = RecoveryManager(4)
        rm.on_crash(2, "p")
        ex = rm.executors()
        assert ex[2] != 2 and rm.alive[ex[2]]
        assert rm.drain_rereads() == [2]
        assert rm.drain_rereads() == []  # drained exactly once
        rm.on_crash(int(ex[2]), "q")
        ex2 = rm.executors()
        # Both dead hosts' slots now live on survivors, spread evenly.
        assert all(rm.alive[e] for e in ex2)
        counts = np.bincount(ex2, minlength=4)
        assert counts[~rm.alive].sum() == 0
        assert counts.max() == 2
        assert rm.num_dead == 2

    def test_crash_of_dead_host_is_ignored(self):
        rm = RecoveryManager(3)
        rm.on_crash(1, "p")
        rm.on_crash(1, "p")  # no-op beyond logging
        assert rm.num_dead == 1
        assert len(rm.crash_log) == 2


class TestSlowHosts:
    def test_slow_host_increases_total_time(self):
        _, base = run()
        _, dg = run(FaultPlan(seed=0, slow_hosts={0: 0.25}))
        assert_same_partition(base, dg)
        assert dg.breakdown.total > base.breakdown.total


class TestCheckpoints:
    def test_disk_checkpoints_written(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        _, dg = run(FaultPlan(seed=1, crashes=(HostCrash(1, 2),)),
                    checkpoint_dir=ckpt)
        manifest = json.loads((ckpt / "checkpoint.json").read_text())
        assert manifest["completed"] == [
            "reading", "masters", "assignment", "allocation",
        ]
        for stage in manifest["completed"]:
            assert (ckpt / f"{stage}.npz").exists()
        _, base = run()
        assert_same_partition(base, dg)

    def test_foreign_checkpoint_discarded(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run(FaultPlan(seed=1), checkpoint_dir=ckpt)
        # A different run identity (other policy) must not replay from it.
        _, dg = run(FaultPlan(seed=1), policy="EEC", checkpoint_dir=ckpt)
        _, base = run(policy="EEC")
        assert_same_partition(base, dg)

    def test_in_memory_stages_share_one_read_only_copy(self):
        ckpt = PartitionCheckpoint()
        owners = np.arange(64, dtype=np.uint8) % 4
        back = ckpt.roundtrip("assignment", owners_0=owners)["owners_0"]
        loaded = ckpt.load("assignment")["owners_0"]
        stored = ckpt._memory["assignment"]["owners_0"]
        for arr in (owners, back, loaded):
            assert np.shares_memory(arr, stored)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3
        assert np.array_equal(loaded, np.arange(64) % 4)

    def test_in_memory_save_copies_a_writable_view(self):
        # Freezing a view would leave its base writable behind the
        # store's back, so the store takes a copy of it instead.
        base = np.arange(32, dtype=np.int64)
        ckpt = PartitionCheckpoint()
        ckpt.save("masters", masters=base[::2])
        base[0] = 99
        stored = ckpt.load("masters")["masters"]
        assert not np.shares_memory(stored, base)
        assert stored[0] == 0 and not stored.flags.writeable

    def test_durable_load_copies_and_verifies(self, tmp_path):
        ckpt = PartitionCheckpoint(tmp_path, meta={"graph": "t"})
        masters = np.arange(50, dtype=np.int32) % 4
        loaded = ckpt.roundtrip("masters", masters=masters)["masters"]
        assert not np.shares_memory(loaded, masters)
        assert masters.flags.writeable and loaded.flags.writeable
        loaded[0] = 3  # a private copy: the next load is unaffected
        assert ckpt.load("masters")["masters"][0] == 0
        path = tmp_path / "masters.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointCorruptionError):
            ckpt.load("masters")

    def test_result_masters_are_the_callers(self):
        # The phases read a frozen master map; the result gets its own.
        _, dg = run()
        assert dg.masters.flags.writeable
        dg.masters[0] = dg.masters[0]


class TestValidator:
    def test_valid_partition_passes(self):
        g = small_graph()
        _, dg = run(graph=g)
        report = check_partition(dg, original=g)
        assert report.ok
        assert report.checks_run > 10
        report.raise_if_failed()

    def test_corruption_detected(self):
        g = small_graph()
        _, dg = run(graph=g)
        dg.masters[0] = (dg.masters[0] + 1) % 4
        report = check_partition(dg, original=g)
        assert not report.ok
        assert "INVALID" in report.summary()
        with pytest.raises(AssertionError):
            report.raise_if_failed()


class TestCLI:
    def test_inject_faults_with_validate(self, tmp_path, capsys):
        gr = tmp_path / "g.gr"
        write_gr(erdos_renyi(200, 1600, seed=2), gr)
        rc = main([
            "partition", str(gr), "-k", "4", "-p", "CVC",
            "--inject-faults", "seed=42,send-fail=0.05,crash=1@2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--validate",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault injection" in out
        assert "replayed phases" in out
        assert "OK" in out

    def test_validate_subcommand_exit_codes(self, tmp_path, capsys):
        gr = tmp_path / "g.gr"
        g = erdos_renyi(150, 900, seed=5)
        write_gr(g, gr)
        parts = tmp_path / "parts"
        _, dg = run(graph=g)
        save_partitions(dg, parts)
        assert main(["validate", str(parts), str(gr)]) == 0
        # Corrupt the master map on disk: must exit non-zero.
        masters = np.load(parts / "masters.npy")
        masters[:5] = (masters[:5] + 1) % 4
        np.save(parts / "masters.npy", masters)
        assert main(["validate", str(parts), str(gr)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_unloadable_directory(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-partition"
        bogus.mkdir()
        (bogus / "meta.json").write_text("{ not json")
        assert main(["validate", str(bogus)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_faults_rejected_for_baselines(self, tmp_path):
        gr = tmp_path / "g.gr"
        write_gr(erdos_renyi(100, 400, seed=1), gr)
        for baseline in ("xtrapulp", "multilevel"):
            with pytest.raises(SystemExit):
                main(["partition", str(gr), "-k", "2", "-p", baseline,
                      "--inject-faults", "seed=1"])

    def test_bad_spec_is_a_clean_cli_error(self, tmp_path):
        gr = tmp_path / "g.gr"
        write_gr(erdos_renyi(100, 400, seed=1), gr)
        for spec in ("garbage=1", "@/nonexistent.json", "seed=1,crash=9@2",
                     "seed=1,slow=7:0.5"):
            with pytest.raises(SystemExit):
                main(["partition", str(gr), "-k", "4", "-p", "CVC",
                      "--inject-faults", spec])

    def test_unrecoverable_run_exits_nonzero(self, tmp_path, capsys):
        gr = tmp_path / "g.gr"
        write_gr(erdos_renyi(100, 400, seed=1), gr)
        rc = main(["partition", str(gr), "-k", "4", "-p", "CVC",
                   "--inject-faults", "seed=1,crash=1@2",
                   "--max-retries", "0"])
        assert rc == 1
        assert "partitioning failed" in capsys.readouterr().err


class TestPropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(graph=graphs(min_nodes=8, max_nodes=40, max_edges=120),
           plan=fault_plans(num_hosts=3))
    def test_recovery_matches_fault_free(self, graph, plan):
        base = CuSP(3, "CVC").partition(graph)
        cusp = CuSP(3, "CVC", fault_plan=plan, max_retries=4, sanitizer=True)
        dg = cusp.partition(graph)
        assert cusp.sanitizer.violations == []
        assert_same_partition(base, dg)
        assert check_partition(dg, original=graph).ok

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_event_log_reproducible(self, seed):
        g = rmat(6, 6, seed=2)
        plan = FaultPlan(seed=seed, send_failure_rate=0.05, drop_rate=0.02,
                         crashes=(HostCrash(1, 2),))
        reports = []
        for _ in range(2):
            cusp = CuSP(4, "CVC", fault_plan=plan)
            cusp.partition(g)
            reports.append(cusp.last_fault_report)
        assert reports[0].events == reports[1].events
        assert reports[0].crash_log == reports[1].crash_log


class TestFaultReport:
    def test_summary_counts(self):
        report = FaultReport(
            plan=FaultPlan(),
            events=(("crash", "p", 1), ("drop", "p", 0, 1)),
            crash_log=(("p", 1),),
            replays=1,
        )
        assert report.counts() == {"crash": 1, "drop": 1}
        assert "1 crash(s)" in report.summary()
        assert "1 phase replay(s)" in report.summary()
