"""Robustness suite (``-m faults``): corruption-proof checkpoints,
payload corruption, straggler supervision, cross-process resume, and the
seeded chaos campaign.

Everything here defends one guarantee: whatever the fault family throws
at a run — torn checkpoint writes, corrupted payloads, quarantined
stragglers, a kill -9 mid-checkpoint — the final partition is
bit-identical to the fault-free run and every conservation law holds.
"""

import json

import numpy as np
import pytest

from repro.chaos import derive_scenarios, run_campaign
from repro.cli import main
from repro.core import (
    CheckpointCorruptionError,
    CuSP,
    PartitionCheckpoint,
    load_partitions,
    save_partitions,
)
from repro.graph import erdos_renyi, write_gr
from repro.runtime.colfab import ColumnSchema, MessageBatch
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    HostCrash,
    RecoveryManager,
    UnrecoverableClusterError,
)
from repro.runtime.supervisor import DeadlinePolicy

from .golden import check_case
from .test_faults import assert_same_partition, run, small_graph

pytestmark = pytest.mark.faults


META = {"graph": "test", "k": 4}


# ----------------------------------------------------------------------
# Corruption-proof durable checkpoints
# ----------------------------------------------------------------------
class TestCheckpointIntegrity:
    def test_atomic_save_digests_and_roundtrip(self, tmp_path):
        ckpt = PartitionCheckpoint(tmp_path, meta=META)
        arr = np.arange(100, dtype=np.int64)
        ckpt.save("reading", ranges=arr)
        # Atomic protocol leaves no tmp files behind, and the manifest
        # records file + per-array digests.
        assert not list(tmp_path.glob("*.tmp"))
        doc = json.loads((tmp_path / "checkpoint.json").read_text())
        assert doc["format_version"] == 2
        assert "file_sha256" in doc["digests"]["reading"]
        assert "ranges" in doc["digests"]["reading"]["arrays"]
        assert "manifest_sha256" in doc
        ckpt.verify("reading", deep=True)
        assert np.array_equal(ckpt.load("reading")["ranges"], arr)

    def test_truncated_stage_file_is_detected(self, tmp_path):
        ckpt = PartitionCheckpoint(tmp_path, meta=META)
        ckpt.save("masters", masters=np.arange(50))
        path = tmp_path / "masters.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.raises(CheckpointCorruptionError, match="torn|corrupt"):
            ckpt.load("masters")

    def test_tampered_manifest_fails_self_digest_on_resume(self, tmp_path):
        ckpt = PartitionCheckpoint(tmp_path, meta=META)
        ckpt.save("reading", ranges=np.arange(10))
        manifest = tmp_path / "checkpoint.json"
        doc = json.loads(manifest.read_text())
        doc["completed"] = ["reading", "masters"]  # forged progress
        manifest.write_text(json.dumps(doc))
        with pytest.raises(CheckpointCorruptionError, match="self-digest"):
            PartitionCheckpoint(tmp_path, meta=META, resume=True)

    def test_resume_requires_a_directory(self):
        with pytest.raises(ValueError, match="directory"):
            PartitionCheckpoint(resume=True)

    def test_resume_empty_directory_is_an_actionable_error(self, tmp_path):
        with pytest.raises(ValueError, match="missing or unreadable"):
            PartitionCheckpoint(tmp_path, meta=META, resume=True)

    def test_resume_meta_mismatch_names_the_keys(self, tmp_path):
        PartitionCheckpoint(tmp_path, meta=META).save(
            "reading", ranges=np.arange(4)
        )
        with pytest.raises(ValueError, match="k"):
            PartitionCheckpoint(
                tmp_path, meta={"graph": "test", "k": 8}, resume=True
            )

    def test_resume_falls_back_to_longest_verified_prefix(self, tmp_path):
        ckpt = PartitionCheckpoint(tmp_path, meta=META)
        ckpt.save("reading", ranges=np.arange(8))
        ckpt.save("masters", masters=np.arange(20))
        bad = tmp_path / "masters.npz"
        bad.write_bytes(bad.read_bytes()[:10])
        reopened = PartitionCheckpoint(tmp_path, meta=META, resume=True)
        assert reopened.completed() == ["reading"]
        assert reopened.fallback_stage == "masters"
        # The fallback is durable: a second resume sees the same prefix.
        again = PartitionCheckpoint(tmp_path, meta=META, resume=True)
        assert again.completed() == ["reading"]

    def test_torn_write_is_detected_and_repaired(self, tmp_path):
        injector = FaultInjector(
            FaultPlan(seed=3, torn_checkpoints=("masters",))
        )
        ckpt = PartitionCheckpoint(tmp_path, meta=META, injector=injector)
        masters = np.arange(64) % 4
        ckpt.save("masters", masters=masters)
        assert ckpt.torn_repairs == 1
        assert ("torn-checkpoint", None, "masters") in injector.events
        # The repaired file verifies and round-trips the exact arrays.
        ckpt.verify("masters", deep=True)
        assert np.array_equal(ckpt.load("masters")["masters"], masters)
        # One tear per planned stage: saving again stays clean.
        ckpt.save("masters", masters=masters)
        assert ckpt.torn_repairs == 1

    def test_foreign_checkpoint_is_reset_not_replayed(self, tmp_path):
        PartitionCheckpoint(tmp_path, meta=META).save(
            "reading", ranges=np.arange(4)
        )
        other = PartitionCheckpoint(
            tmp_path, meta={"graph": "other", "k": 2}
        )
        assert other.completed() == []
        assert not list(tmp_path.glob("*.npz"))


# ----------------------------------------------------------------------
# Partition directory schema validation (satellite 2)
# ----------------------------------------------------------------------
class TestPartitionSchema:
    def test_save_stamps_format_version_and_loads(self, tmp_path):
        _, dg = run(None)
        save_partitions(dg, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["format_version"] == 1
        loaded = load_partitions(tmp_path)
        assert_same_partition(loaded, dg)

    def test_missing_meta_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="meta.json"):
            load_partitions(tmp_path)

    def test_unparsable_meta_names_the_file(self, tmp_path):
        (tmp_path / "meta.json").write_text("{ not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_partitions(tmp_path)

    def test_missing_required_key_is_named(self, tmp_path):
        _, dg = run(None)
        save_partitions(dg, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        del meta["invariant"]
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="invariant"):
            load_partitions(tmp_path)

    def test_unknown_format_version_is_rejected(self, tmp_path):
        _, dg = run(None)
        save_partitions(dg, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["format_version"] = 99
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version 99"):
            load_partitions(tmp_path)

    def test_incomplete_part_blob_is_rejected(self, tmp_path):
        _, dg = run(None)
        save_partitions(dg, tmp_path)
        np.savez(tmp_path / "part0.npz", wrong=np.arange(3))
        with pytest.raises(ValueError, match="global_ids"):
            load_partitions(tmp_path)


# ----------------------------------------------------------------------
# Fault plan specs for the new families (satellite 1 + tentpole)
# ----------------------------------------------------------------------
class TestFaultPlanSpecs:
    def test_corrupt_and_torn_compact_roundtrip(self):
        plan = FaultPlan.from_spec(
            "seed=3,corrupt=0.25,torn=masters,torn=reading"
        )
        assert plan.corrupt_rate == 0.25
        assert plan.torn_checkpoints == ("masters", "reading")
        assert FaultPlan.from_spec(plan.describe()) == plan

    def test_json_spec_covers_new_fields(self):
        plan = FaultPlan.from_spec(json.dumps({
            "seed": 9,
            "corrupt_rate": 0.1,
            "torn_checkpoints": ["assignment"],
        }))
        assert plan.corrupt_rate == 0.1
        assert plan.torn_checkpoints == ("assignment",)

    def test_file_spec_error_names_the_plan_file(self, tmp_path):
        missing = tmp_path / "nope" / "plan.json"
        with pytest.raises(ValueError, match="plan.json"):
            FaultPlan.from_spec(f"@{missing}")


# ----------------------------------------------------------------------
# Payload corruption (tentpole: per-block checksums -> charged re-request)
# ----------------------------------------------------------------------
class TestCorruptPayload:
    def test_identity_and_retry_conservation(self):
        plan = FaultPlan(seed=21, corrupt_rate=0.3)
        cusp, dg = run(plan)
        events = [
            e for e in cusp.last_fault_report.events
            if e[0] == "corrupt-payload"
        ]
        assert events, "corrupt_rate=0.3 should fire on this graph"
        # Each corruption charges a re-request word plus the retransmit:
        # weight 2 in the conservation law CommSan already verified.
        assert dg.breakdown.retry_messages() == 2 * len(events)
        _, clean = run(None)
        assert_same_partition(dg, clean)

    def test_corruption_matches_scalar_recording_and_oracle(self):
        """Fault counts and accounting as the scalar fabric produced
        them under the same plan; partition as the paper oracle's."""
        cusp, _ = check_case("corrupt-plan/CVC", sanitizer=True)
        assert cusp.sanitizer.violations == []

    def test_batch_checksum_detects_bit_flips(self):
        schema = ColumnSchema((("ids", np.int64),), scalars=("count",))
        batch = MessageBatch(
            schema, columns=[np.arange(16, dtype=np.int64)], scalars=[3.0]
        )
        reference = batch.checksum()
        flipped = np.arange(16, dtype=np.int64)
        flipped[7] ^= 1
        assert (
            MessageBatch(schema, [flipped], [3.0]).checksum() != reference
        )
        assert (
            MessageBatch(schema, [np.arange(16)], [4.0]).checksum()
            != reference
        )


# ----------------------------------------------------------------------
# Phase deadlines and straggler mitigation (tentpole)
# ----------------------------------------------------------------------
class TestSupervision:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="soft_factor"):
            DeadlinePolicy(soft_factor=0.5).validate()
        with pytest.raises(ValueError, match="soft_factor"):
            DeadlinePolicy(soft_factor=5.0, hard_factor=2.0).validate()
        with pytest.raises(ValueError, match="min_baseline"):
            DeadlinePolicy(min_baseline=-1.0).validate()
        with pytest.raises(ValueError):
            CuSP(4, "CVC", supervise=DeadlinePolicy(soft_factor=0.1))

    def test_straggler_is_quarantined_and_partition_unchanged(self):
        plan = FaultPlan(seed=5, slow_hosts={1: 0.01})
        cusp, dg = run(plan, supervise=True)
        sup = cusp.last_supervisor_report
        assert sup is not None
        assert sup.mitigations, "a 100x-slow host must breach the hard deadline"
        assert all(host == 1 for _, host in sup.mitigations)
        report = cusp.last_fault_report
        assert report.straggler_log
        assert any(e[0] == "straggler" for e in report.events)
        assert "quarantined" in report.summary()
        _, clean = run(None)
        assert_same_partition(dg, clean)

    def test_unsupervised_run_records_no_mitigation(self):
        plan = FaultPlan(seed=5, slow_hosts={1: 0.01})
        cusp, dg = run(plan)  # supervise defaults to off
        assert cusp.last_supervisor_report is None
        assert cusp.last_fault_report.straggler_log == ()
        _, clean = run(None)
        assert_same_partition(dg, clean)

    def test_quarantine_never_leaves_zero_healthy_hosts(self):
        recovery = RecoveryManager(2)
        assert recovery.on_straggler(0, "Master Assignment")
        assert recovery.quarantined[0]
        # Host 1 is the last healthy host: mitigation must refuse.
        assert not recovery.on_straggler(1, "Edge Assignment")
        assert not recovery.quarantined[1]
        # Dead or already-quarantined hosts are refused outright.
        assert not recovery.on_straggler(0, "Edge Assignment")

    def test_quarantined_slots_migrate_to_healthy_hosts(self):
        recovery = RecoveryManager(4)
        assert recovery.on_straggler(2, "Master Assignment")
        executors = recovery.executors()
        assert executors[2] != 2
        assert recovery.alive[2]  # quarantined, not dead
        assert ("Master Assignment", 2) in recovery.straggler_log


# ----------------------------------------------------------------------
# Cross-process resume (tentpole)
# ----------------------------------------------------------------------
class TestResume:
    def test_kill_and_resume_is_bit_exact(self, tmp_path):
        graph = small_graph()
        plan = FaultPlan(
            seed=13, crashes=(HostCrash(host=1, phase=2, op_count=10),)
        )
        # Uninterrupted reference: the crash is recovered in-process.
        ref, ref_dg = run(plan, graph=graph)
        # kill -9: zero retry budget turns the planned crash fatal,
        # leaving a partial durable checkpoint.
        victim = CuSP(4, "CVC", fault_plan=plan, max_retries=0,
                      checkpoint_dir=tmp_path)
        with pytest.raises(UnrecoverableClusterError):
            victim.partition(graph)
        resumed = CuSP(4, "CVC", fault_plan=plan, checkpoint_dir=tmp_path,
                       resume=True, sanitizer=True)
        dg = resumed.partition(graph)
        assert resumed.sanitizer.violations == []
        assert_same_partition(dg, ref_dg)
        # TimeBreakdown is reproduced exactly, phase by phase — including
        # the failed attempt the resumed process replays live.
        assert [p.name for p in dg.breakdown.phases] == [
            p.name for p in ref_dg.breakdown.phases
        ]
        assert dg.breakdown.phases == ref_dg.breakdown.phases
        assert (
            resumed.last_fault_report.events == ref.last_fault_report.events
        )
        assert (
            resumed.last_fault_report.replays == ref.last_fault_report.replays
        )

    def test_resume_after_clean_interrupt_skips_completed_phases(
        self, tmp_path
    ):
        graph = small_graph()
        ref, ref_dg = run(None, graph=graph)
        # A full run leaves all four stages checkpointed; resuming from
        # them must replay nothing and still produce identical output.
        first = CuSP(4, "CVC", checkpoint_dir=tmp_path)
        first.partition(graph)
        resumed = CuSP(4, "CVC", checkpoint_dir=tmp_path, resume=True,
                       sanitizer=True)
        dg = resumed.partition(graph)
        assert resumed.sanitizer.violations == []
        assert_same_partition(dg, ref_dg)
        assert dg.breakdown.phases == ref_dg.breakdown.phases

    def test_resume_falls_back_past_a_truncated_stage(self, tmp_path):
        graph = small_graph()
        _, ref_dg = run(None, graph=graph)
        CuSP(4, "CVC", checkpoint_dir=tmp_path).partition(graph)
        bad = tmp_path / "assignment.npz"
        bad.write_bytes(bad.read_bytes()[: bad.stat().st_size // 3])
        resumed = CuSP(4, "CVC", checkpoint_dir=tmp_path, resume=True,
                       sanitizer=True)
        dg = resumed.partition(graph)
        assert resumed.sanitizer.violations == []
        assert_same_partition(dg, ref_dg)

    def test_resume_from_int32_owners_is_bit_exact(self, tmp_path):
        """A version-2 checkpoint may hold int32 owner arrays (what it
        held before owners were narrowed); a resume reads them to the
        same partition."""
        graph = small_graph()
        _, ref_dg = run(None, graph=graph)
        CuSP(4, "CVC", checkpoint_dir=tmp_path).partition(graph)
        meta = {
            "policy": "CVC", "num_partitions": 4,
            "num_nodes": graph.num_nodes, "num_edges": graph.num_edges,
        }
        ckpt = PartitionCheckpoint(tmp_path, meta=meta, resume=True)
        owners = ckpt.load("assignment")
        assert {a.dtype for a in owners.values()} == {np.dtype(np.uint8)}
        ckpt.save(
            "assignment",
            **{name: a.astype(np.int32) for name, a in owners.items()},
        )
        reopened = PartitionCheckpoint(tmp_path, meta=meta, resume=True)
        assert reopened.completed()[-1] == "allocation"
        assert {a.dtype for a in reopened.load("assignment").values()} == {
            np.dtype(np.int32)
        }
        resumed = CuSP(4, "CVC", checkpoint_dir=tmp_path, resume=True,
                       sanitizer=True)
        dg = resumed.partition(graph)
        assert resumed.sanitizer.violations == []
        assert_same_partition(dg, ref_dg)
        assert dg.breakdown.phases == ref_dg.breakdown.phases

    def test_resume_without_checkpoint_dir_is_rejected(self):
        with pytest.raises(ValueError, match="checkpoint"):
            CuSP(4, "CVC", resume=True)

    def test_resume_from_empty_directory_is_an_error(self, tmp_path):
        cusp = CuSP(4, "CVC", checkpoint_dir=tmp_path / "empty", resume=True)
        with pytest.raises(ValueError, match="resume"):
            cusp.partition(small_graph())


# ----------------------------------------------------------------------
# Satellite 3: crash recovery under columnar fabric + checked executor
# ----------------------------------------------------------------------
class TestCombinedRobustness:
    def test_crash_recovery_with_columnar_fabric_and_checked_executor(self):
        from repro.runtime.executor import make_executor

        plan = FaultPlan(
            seed=17,
            send_failure_rate=0.02,
            crashes=(HostCrash(host=2, phase=2, op_count=15),),
        )
        executor = make_executor("parallel-checked")
        cusp, dg = run(plan, executor=executor, fabric="columnar")
        # One run, three independent watchdogs, zero findings each:
        # CommSan (asserted inside run()), the host-isolation race
        # detector, and bit-identity against the fault-free partition.
        assert executor.monitor is not None
        assert executor.monitor.violations == []
        assert cusp.last_fault_report.replays >= 1
        _, clean = run(None)
        assert_same_partition(dg, clean)


# ----------------------------------------------------------------------
# Chaos campaign (tentpole)
# ----------------------------------------------------------------------
class TestChaosCampaign:
    def test_scenario_derivation_is_deterministic_and_spans_families(self):
        a = derive_scenarios(14, seed=7)
        b = derive_scenarios(14, seed=7)
        assert a == b
        assert {s.kind for s in a} == {
            "message-faults", "boundary-crash", "midphase-crash",
            "straggler", "corrupt-payload", "torn-checkpoint",
            "kill-resume",
        }
        assert derive_scenarios(3, seed=8) != derive_scenarios(3, seed=7)
        with pytest.raises(ValueError):
            derive_scenarios(0, seed=7)

    def test_campaign_passes_on_a_small_graph(self):
        # One scenario per family, on a smaller graph than the CLI gate.
        report = run_campaign(
            plans=7, seed=7, graph=erdos_renyi(150, 900, seed=4)
        )
        assert report.ok(), report.render_text()
        assert len(report.results) == 7
        assert "survived bit-identically" in report.summary()

    def test_cli_chaos_gate(self, capsys):
        assert main(["chaos", "--plans", "2", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out
        assert "2 chaos plan(s)" in out


# ----------------------------------------------------------------------
# CLI: --resume / --supervise walkthroughs
# ----------------------------------------------------------------------
class TestResumeCli:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "g.gr"
        write_gr(small_graph(), path)
        return str(path)

    def test_kill_then_resume_via_cli(self, graph_file, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        spec = "seed=13,crash=1@2:10"
        code = main([
            "partition", graph_file, "-k", "4", "-p", "CVC",
            "--inject-faults", spec, "--checkpoint-dir", ckpt,
            "--max-retries", "0",
        ])
        assert code == 1  # the kill
        assert "partitioning failed" in capsys.readouterr().err
        code = main([
            "partition", graph_file, "-k", "4", "-p", "CVC",
            "--inject-faults", spec, "--resume", ckpt, "--commsan",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violation(s)" in out

    def test_resume_conflicting_directories_rejected(self, graph_file):
        with pytest.raises(SystemExit, match="different directories"):
            main([
                "partition", graph_file, "-k", "4",
                "--resume", "/tmp/a", "--checkpoint-dir", "/tmp/b",
            ])

    def test_resume_nonexistent_checkpoint_is_actionable(
        self, graph_file, tmp_path
    ):
        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "partition", graph_file, "-k", "4",
                "--resume", str(tmp_path / "never-written"),
            ])

    def test_supervise_flag_reports_mitigation(self, graph_file, capsys):
        code = main([
            "partition", graph_file, "-k", "4", "-p", "CVC",
            "--inject-faults", "seed=5,slow=1:0.01", "--supervise",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "supervision" in out
        assert "quarantined" in out
