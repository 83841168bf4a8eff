"""Phase-communication contracts (``repro.analysis.contracts``).

Covers the three layers of the differential verifier: the contract
language itself, the static extraction diff (including a deliberately
mutated phase module that must be caught and named), and the CommSan
runtime sanitizer (clean on every real run; planted violations die with
an actionable (phase, host, op) message).  The static diff is the
``deep-contract`` rule of ``repro lint``; its CLI verdicts are exercised
at the end.
"""

import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.contracts import (
    CommSan,
    ContractContext,
    ContractSet,
    ContractViolationError,
    OpSpec,
    PhaseContract,
)
from repro.analysis.ipa.analyses import DeepContractRule
from repro.analysis.lint import run_lint
from repro.cli import main
from repro.core import (
    PHASE_CONTRACTS,
    PHASE_NAMES,
    CuSP,
    contract_context_for,
    make_policy,
)
from repro.graph import erdos_renyi, write_gr
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.faults import FaultPlan

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def small_graph():
    return erdos_renyi(200, 1400, seed=13)


class TestContractModel:
    def test_op_kind_validated(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            OpSpec("gossip")

    def test_topology_validated(self):
        with pytest.raises(ValueError, match="unknown topology"):
            OpSpec("p2p", tag="t", topology="ring")

    def test_p2p_requires_tag(self):
        with pytest.raises(ValueError, match="must declare a message tag"):
            OpSpec("p2p")

    def test_batched_applies_to_p2p_only(self):
        OpSpec("p2p", tag="t", batched=True)  # fine
        with pytest.raises(ValueError, match="batched"):
            OpSpec("allreduce", batched=True)

    def test_collectives_carry_no_tag(self):
        with pytest.raises(ValueError, match="carry no tag"):
            OpSpec("allreduce", tag="t")

    def test_allows_pair_topologies(self):
        all2all = OpSpec("p2p", tag="t")
        assert all2all.allows_pair(0, 3, 4)
        neighbor = OpSpec("p2p", tag="t", topology="neighbor")
        assert neighbor.allows_pair(1, 2, 4)
        assert neighbor.allows_pair(0, 3, 4)  # ring wrap-around
        assert not neighbor.allows_pair(0, 2, 4)
        master_only = OpSpec("p2p", tag="t", topology="master-only")
        assert master_only.allows_pair(0, 2, 4)
        assert master_only.allows_pair(2, 0, 4)
        assert not master_only.allows_pair(1, 2, 4)
        # Self-delivery is always legal: it costs nothing.
        assert neighbor.allows_pair(2, 2, 4)

    def test_activation_and_rounds(self):
        spec = OpSpec(
            "allreduce-async",
            rounds=lambda ctx: ctx.sync_rounds,
            when=lambda ctx: ctx.master_stateful,
        )
        stateful = ContractContext(num_hosts=4, sync_rounds=7, master_stateful=True)
        pure = ContractContext(num_hosts=4)
        assert spec.active(stateful) and not spec.active(pure)
        assert spec.active(None)  # unknown configuration: permissive
        assert spec.expected_rounds(stateful) == 7
        assert OpSpec("allgather").expected_rounds(stateful) is None

    def test_contract_set_rejects_duplicates(self):
        c = PhaseContract(phase="X")
        with pytest.raises(ValueError, match="duplicate contract"):
            ContractSet([c, c])

    def test_violation_render_names_everything(self):
        from repro.analysis.contracts import ContractViolation

        v = ContractViolation(
            phase="Edge Assignment", host=2, op="p2p tag 'x'", message="m"
        )
        text = v.render()
        assert "Edge Assignment" in text and "host 2" in text and "'x'" in text
        global_v = ContractViolation(phase="P", host=None, op="barrier", message="m")
        assert "all hosts" in global_v.render()


class TestDeclarations:
    def test_phase_names_match_framework(self):
        assert [c.phase for c in PHASE_CONTRACTS] == PHASE_NAMES

    def test_declared_modules_exist(self):
        for contract in PHASE_CONTRACTS:
            for rel in contract.modules:
                assert (SRC_ROOT / rel).is_file(), rel

    def test_context_for_pure_policy(self):
        ctx = contract_context_for(make_policy("CVC"), 4, sync_rounds=10)
        assert ctx.master_pure and not ctx.master_stateful
        assert not ctx.edge_stateful
        assert ctx.num_hosts == 4 and ctx.sync_rounds == 10

    def test_context_for_stateful_policies(self):
        fec = contract_context_for(make_policy("FEC"), 3)
        assert fec.master_stateful and not fec.master_pure
        hdrf = contract_context_for(make_policy("HDRF"), 3)
        assert hdrf.edge_stateful


def lint_contracts(root, contracts=None, cache=None):
    """The ``deep-contract`` rule alone over ``root``."""
    return run_lint(
        [root], rules=[DeepContractRule(contracts)], root=root, cache=cache
    )


@pytest.fixture(scope="module")
def package_cache(tmp_path_factory):
    """One lint cache for every run over the package: it holds per-file
    summaries only, which no contract set changes."""
    return tmp_path_factory.mktemp("lint") / "cache.json"


def kinds(findings):
    """The finding kinds (``undeclared-op``, ``dead-clause``, ...)."""
    return {f.message.split(" in phase ", 1)[0] for f in findings}


def without_clauses(contract, kind):
    """``contract`` with every clause of ``kind`` dropped."""
    return replace(
        contract, ops=tuple(s for s in contract.ops if s.kind != kind)
    )


class TestStaticExtraction:
    def test_tree_is_contract_clean_strict(self, package_cache):
        report = lint_contracts(SRC_ROOT, cache=package_cache)
        assert report.ok(strict=True), report.render_text()
        # Every phase with a clause has ops the diff sees: declare
        # nothing and each of them is flagged.
        bare = ContractSet(replace(c, ops=()) for c in PHASE_CONTRACTS)
        flagged = {
            f.message.split("'")[1]
            for f in lint_contracts(SRC_ROOT, bare, package_cache).errors
        }
        assert flagged == {c.phase for c in PHASE_CONTRACTS if c.ops}

    @pytest.fixture()
    def mutated_tree(self, tmp_path):
        """A copy of the package with an unaccounted send added to the
        masters phase — the acceptance-criteria mutation."""
        shutil.copytree(SRC_ROOT / "core", tmp_path / "core")
        with open(tmp_path / "core" / "masters_phase.py", "a") as f:
            f.write(
                "\n\ndef run_master_assignment(phase, extra):\n"
                "    for j in range(4):\n"
                "        phase.comm.send(0, j, None, tag='rogue-sync', "
                "nbytes=8)\n"
            )
        return tmp_path

    def test_mutated_phase_caught_statically(self, mutated_tree):
        report = lint_contracts(mutated_tree)
        assert not report.ok()
        [finding] = report.errors
        assert kinds([finding]) == {"undeclared-op"}
        assert "phase 'Master Assignment'" in finding.message
        assert "'rogue-sync'" in finding.message
        assert finding.path.endswith("masters_phase.py")
        assert finding.line > 0

    def test_dead_clause_flagged_as_warning(self, package_cache):
        contract = PhaseContract(
            phase="Graph Reading",
            modules=("core/framework.py", "core/reading.py"),
            entry_points=("phase_reading",),
            ops=(OpSpec("p2p", tag="never-sent"),),
        )
        report = lint_contracts(
            SRC_ROOT, ContractSet([contract]), package_cache
        )
        assert report.ok(strict=False)
        assert not report.ok(strict=True)
        [finding] = report.warnings
        assert kinds([finding]) == {"dead-clause"}
        assert "'never-sent'" in finding.message

    def test_undrained_declared_drain_is_flagged(self, tmp_path):
        mod = tmp_path / "core"
        mod.mkdir()
        (mod / "phase.py").write_text(
            "def run(view):\n"
            "    view.send(1, None, tag='data', nbytes=8)\n"
        )
        contract = PhaseContract(
            phase="P",
            modules=("core/phase.py",),
            entry_points=("run",),
            ops=(OpSpec("p2p", tag="data", drained=True),),
        )
        report = lint_contracts(tmp_path, ContractSet([contract]))
        [finding] = report.warnings
        assert "recv_all" in finding.message

    def test_dynamic_tag_is_an_error(self, tmp_path):
        mod = tmp_path / "core"
        mod.mkdir()
        (mod / "phase.py").write_text(
            "def run(view, t):\n"
            "    view.send(1, None, tag=t, nbytes=8)\n"
        )
        contract = PhaseContract(
            phase="P", modules=("core/phase.py",), entry_points=("run",)
        )
        report = lint_contracts(tmp_path, ContractSet([contract]))
        [finding] = report.errors
        assert kinds([finding]) == {"dynamic-tag"}

    def test_rogue_tag_from_a_helper_a_task_body_reaches(self, tmp_path):
        """The walk follows the entry point into a ``HostTask`` body and
        on through the body's helper calls."""
        mod = tmp_path / "core"
        mod.mkdir()
        (mod / "phase.py").write_text(
            "from repro.runtime.executor import HostTask\n"
            "\n"
            "def _gossip(view):\n"
            "    view.send(0, None, tag='rogue', nbytes=8)\n"
            "\n"
            "def _body(view, payload):\n"
            "    view.send(0, None, tag='data', nbytes=8)\n"
            "    _gossip(view)\n"
            "\n"
            "def _unreached(view):\n"
            "    view.send(0, None, tag='elsewhere', nbytes=8)\n"
            "\n"
            "def run(phase, hosts):\n"
            "    phase.executor.run(\n"
            "        phase, [HostTask(h, _body, payload=h) for h in hosts]\n"
            "    )\n"
        )
        contract = PhaseContract(
            phase="P",
            modules=("core/phase.py",),
            entry_points=("run",),
            ops=(OpSpec("p2p", tag="data"),),
        )
        report = lint_contracts(tmp_path, ContractSet([contract]))
        [finding] = report.findings
        assert kinds([finding]) == {"undeclared-op"}
        assert "'rogue' in _gossip()" in finding.message
        assert (finding.path, finding.line) == ("core/phase.py", 4)

    def test_batch_traffic_on_unbatched_clause_is_an_error(self, tmp_path):
        mod = tmp_path / "core"
        mod.mkdir()
        (mod / "phase.py").write_text(
            "from repro.runtime.colfab import MessageBatch\n"
            "def run(view, batch):\n"
            "    view.send_batch(1, batch, tag='data', nbytes=8)\n"
        )
        contract = PhaseContract(
            phase="P",
            modules=("core/phase.py",),
            entry_points=("run",),
            ops=(OpSpec("p2p", tag="data"),),
        )
        report = lint_contracts(tmp_path, ContractSet([contract]))
        [finding] = report.errors
        assert kinds([finding]) == {"unbatched-op"}
        assert "batched=True" in finding.message

    def test_batched_clause_accepts_batch_traffic(self, tmp_path):
        mod = tmp_path / "core"
        mod.mkdir()
        (mod / "phase.py").write_text(
            "def run(view, batch, schema):\n"
            "    view.send_batch(1, batch, tag='data', nbytes=8)\n"
            "    view.recv_all_batch(tag='data', schema=schema)\n"
        )
        contract = PhaseContract(
            phase="P",
            modules=("core/phase.py",),
            entry_points=("run",),
            ops=(OpSpec("p2p", tag="data", drained=True, batched=True),),
        )
        report = lint_contracts(tmp_path, ContractSet([contract]))
        assert report.errors == [] and report.warnings == []

    def test_missing_module_and_entry_reported(self, tmp_path):
        """Only the linted files are known: a declared module is missing
        when its contract's primary module is linted and it is not."""
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "present.py").write_text("def other():\n    pass\n")
        contracts = ContractSet([
            PhaseContract(
                phase="A",
                modules=("core/present.py", "core/absent.py"),
                entry_points=("other",),
            ),
            PhaseContract(
                phase="B", modules=("core/present.py",), entry_points=("run",)
            ),
        ])
        report = lint_contracts(tmp_path, contracts)
        assert kinds(report.errors) == {"missing-module", "missing-entry"}

    def test_sync_round_hint_resolves_async_collective(self, package_cache):
        """The masters phase only ever dispatches sync_round with
        blocking=False, so state.py's allreduce resolves to async and
        its blocking-guarded barrier is statically unreachable."""
        masters = PHASE_CONTRACTS.get("Master Assignment")
        clean = lint_contracts(
            SRC_ROOT, ContractSet([masters]), package_cache
        )
        assert clean.findings == []
        report = lint_contracts(
            SRC_ROOT,
            ContractSet([without_clauses(masters, "allreduce-async")]),
            package_cache,
        )
        undeclared = [
            f.message.split(": ", 1)[1].split(" in ")[0]
            for f in report.errors
        ]
        assert undeclared == ["allreduce-async"], report.render_text()

    def test_each_masters_send_is_found_in_its_task_body(self, package_cache):
        """The request pass and a round's shipping ride the stepped
        body: the walk reaches ``_assign_rounds_body`` through
        ``HostTask`` by name."""
        masters = without_clauses(
            PHASE_CONTRACTS.get("Master Assignment"), "p2p"
        )
        report = lint_contracts(
            SRC_ROOT, ContractSet([masters]), package_cache
        )
        sends = {
            re.search(r"tag '([^']+)' in (\w+)\(\)", f.message).groups()
            for f in report.errors
        }
        assert sends == {
            ("master-requests", "_assign_rounds_body"),
            ("master-assignments", "_assign_rounds_body"),
            ("master-broadcast", "_pure_assign_body"),
        }


class TestCommSanCleanRuns:
    @pytest.mark.parametrize("policy", ["CVC", "HVC", "FEC", "GVC", "BVC"])
    def test_real_runs_are_violation_free(self, policy):
        san = CommSan()
        CuSP(4, policy, sanitizer=san).partition(small_graph())
        assert san.violations == []
        assert san.phases_checked == 5
        assert san.ops_observed > 0
        assert san.context is not None  # bound by CuSP.partition

    def test_elide_ablation_is_violation_free(self):
        for policy in ("CVC", "FEC"):
            san = CommSan()
            CuSP(
                4, policy, elide_master_communication=False, sanitizer=san
            ).partition(small_graph())
            assert san.violations == []

    def test_sanitizer_true_constructs_commsan(self):
        cusp = CuSP(3, "CVC", sanitizer=True)
        assert isinstance(cusp.sanitizer, CommSan)
        cusp.partition(small_graph())
        assert cusp.sanitizer.violations == []

    @pytest.mark.parametrize("executor", ["serial", "parallel", "process"])
    def test_history_sensitive_masters_queue_no_payload(self, executor):
        """SVC runs the request/ship rounds; their two tags have no
        reader, so anything but ``None`` left on them is a violation."""
        cusp = CuSP(4, "SVC", sync_rounds=3, sanitizer=True, executor=executor)
        cusp.partition(small_graph())
        assert cusp.sanitizer.violations == []
        assert cusp.sanitizer.phases_checked == 5

    def test_faulty_run_is_violation_free(self):
        plan = FaultPlan(
            seed=5, send_failure_rate=0.05, drop_rate=0.03, duplicate_rate=0.03
        )
        san = CommSan()
        CuSP(4, "FEC", fault_plan=plan, sanitizer=san).partition(small_graph())
        assert san.violations == []


class TestCommSanViolations:
    def test_undeclared_tag_names_phase_host_op(self):
        san = CommSan()
        cluster = SimulatedCluster(4, sanitizer=san)
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("Master Assignment") as ph:
                ph.comm.send(1, 0, b"leak", tag="gossip", nbytes=16)
        v = excinfo.value.violation
        assert v.phase == "Master Assignment"
        assert v.host == 1
        assert v.op == "p2p tag 'gossip'"
        assert "declare an OpSpec" in v.message
        assert san.violations == [v]

    def test_mutated_phase_caught_dynamically(self, monkeypatch):
        """The acceptance-criteria mutation, dynamic half: an unaccounted
        send smuggled into the masters phase dies at the phase barrier,
        naming the phase and the op."""
        import repro.core.framework as framework

        original = framework.run_master_assignment

        def rogue(phase, *args, **kwargs):
            phase.comm.send(1, 0, b"leak", tag="rogue-sync", nbytes=8)
            return original(phase, *args, **kwargs)

        monkeypatch.setattr(framework, "run_master_assignment", rogue)
        with pytest.raises(ContractViolationError) as excinfo:
            CuSP(4, "CVC", sanitizer=True).partition(small_graph())
        v = excinfo.value.violation
        assert v.phase == "Master Assignment"
        assert v.host == 1
        assert v.op == "p2p tag 'rogue-sync'"

    def test_inactive_clause_is_a_violation(self):
        """master-broadcast is declared, but only for the non-elided
        ablation: sending it under the default configuration breaches
        the contract."""
        san = CommSan(context=ContractContext(num_hosts=2))
        cluster = SimulatedCluster(2, sanitizer=san)
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("Master Assignment") as ph:
                ph.comm.send(0, 1, b"a", tag="master-broadcast", nbytes=12)
        assert "inactive" in excinfo.value.violation.message

    def test_topology_breach(self):
        contracts = ContractSet([
            PhaseContract(
                phase="ring",
                ops=(OpSpec("p2p", tag="t", topology="neighbor"),),
            )
        ])
        san = CommSan(contracts=contracts)
        cluster = SimulatedCluster(4, sanitizer=san)
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("ring") as ph:
                ph.comm.send(0, 2, b"x", tag="t", nbytes=8)
        assert "'neighbor' topology" in excinfo.value.violation.message

    def test_collective_round_count_mismatch(self):
        san = CommSan(
            context=ContractContext(
                num_hosts=2, sync_rounds=3, master_pure=False,
                master_stateful=True,
            )
        )
        cluster = SimulatedCluster(2, sanitizer=san)
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("Master Assignment") as ph:
                contributions = [np.zeros(2), np.zeros(2)]
                ph.comm.allreduce_sum(contributions, blocking=False)
                ph.comm.allreduce_sum(contributions, blocking=False)
        v = excinfo.value.violation
        assert v.op == "allreduce-async"
        assert "expected 3" in v.message and "observed 2" in v.message

    def test_undeclared_collective_and_barrier(self):
        san = CommSan()
        cluster = SimulatedCluster(2, sanitizer=san)
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("Graph Reading") as ph:
                ph.comm.barrier()
        assert excinfo.value.violation.op == "barrier"

    def test_byte_accounting_tamper_detected(self):
        san = CommSan()
        cluster = SimulatedCluster(2, sanitizer=san)
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("Graph Construction") as ph:
                ph.comm.send(0, 1, b"edges", tag="edges", nbytes=8)
                ph.comm.recv_all(1, tag="edges")
                ph.comm.sent_bytes[0, 1] += 100.0  # the tamper
        v = excinfo.value.violation
        assert v.op == "byte accounting"
        assert "mutated outside" in v.message

    def test_queue_tamper_detected(self):
        san = CommSan()
        cluster = SimulatedCluster(2, sanitizer=san)
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("Graph Construction") as ph:
                ph.comm.send(0, 1, b"edges", tag="edges", nbytes=8)
                ph.comm._queues[(1, "edges")].clear()  # the tamper
        v = excinfo.value.violation
        assert v.host == 1
        assert "outside Communicator.send/recv_all" in v.message

    def test_undrained_declared_drain_detected(self):
        san = CommSan()
        cluster = SimulatedCluster(2, sanitizer=san)
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("Graph Construction") as ph:
                ph.comm.send(0, 1, b"edges", tag="edges", nbytes=8)
        assert "undrained" in excinfo.value.violation.message

    def test_payload_on_an_undrained_tag_detected(self):
        """A ``drained=False`` tag has no reader: a payload queued under
        it is moved for nothing (and pinned until the phase closes)."""
        contracts = ContractSet([
            PhaseContract(phase="toy", ops=(OpSpec("p2p", tag="note"),))
        ])
        san = CommSan(contracts=contracts)
        cluster = SimulatedCluster(3, sanitizer=san)
        with cluster.phase("toy") as ph:
            ph.comm.send(0, 1, None, tag="note", nbytes=16)  # accounting-only
        assert san.violations == []
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("toy") as ph:
                ph.comm.send(2, 1, (7, 8), tag="note", nbytes=16)
        v = excinfo.value.violation
        assert (v.host, v.op) == (2, "p2p tag 'note'")
        assert "tuple payload left on a queue nobody drains" in v.message
        assert "host 1" in v.message

    def test_retry_charge_tamper_detected(self):
        plan = FaultPlan(seed=1, duplicate_rate=0.9)
        from repro.runtime.faults import FaultInjector

        san = CommSan()
        cluster = SimulatedCluster(
            2, injector=FaultInjector(plan), sanitizer=san
        )
        with pytest.raises(ContractViolationError) as excinfo:
            with cluster.phase("Graph Construction") as ph:
                for _ in range(20):
                    ph.comm.send(0, 1, b"edges", tag="edges", nbytes=8)
                ph.comm.recv_all(1, tag="edges")
                assert ph.comm.retry_messages[0, 1] >= 1.0  # duplicates charged
                ph.comm.retry_messages[0, 1] = 0.0  # the tamper
        v = excinfo.value.violation
        assert v.op == "retry transport"
        assert "exactly once" in v.message

    def test_violations_accumulate_without_masking_the_original_error(self):
        san = CommSan()
        cluster = SimulatedCluster(2, sanitizer=san)
        with pytest.raises(RuntimeError, match="boom"):
            with cluster.phase("Graph Reading") as ph:
                ph.comm.send(0, 1, b"x", tag="oops", nbytes=8)
                raise RuntimeError("boom")
        assert len(san.violations) == 1
        assert san.violations[0].op == "p2p tag 'oops'"

    def test_unknown_phase_names_still_get_conservation_checks(self):
        san = CommSan()
        cluster = SimulatedCluster(2, sanitizer=san)
        # No contract for "warmup": admission is not checked...
        with cluster.phase("warmup") as ph:
            ph.comm.send(0, 1, b"x", tag="anything", nbytes=8)
        assert san.violations == []
        # ...but conservation still is.
        with pytest.raises(ContractViolationError):
            with cluster.phase("warmup") as ph:
                ph.comm.send(0, 1, b"x", tag="anything", nbytes=8)
                ph.comm.sent_bytes[0, 1] += 1.0


class TestContractsCLI:
    def test_clean_tree_exits_zero(self, capsys, package_cache):
        argv = ["lint", str(SRC_ROOT), "--strict", "--rule", "deep-contract"]
        assert main(argv + ["--cache", str(package_cache)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")

    def test_mutated_tree_exits_nonzero(self, tmp_path, capsys):
        shutil.copytree(SRC_ROOT / "core", tmp_path / "core")
        with open(tmp_path / "core" / "masters_phase.py", "a") as f:
            f.write(
                "\n\ndef run_master_assignment(phase, extra):\n"
                "    phase.comm.send(0, 1, None, tag='rogue-sync', nbytes=8)\n"
            )
        argv = ["lint", str(tmp_path), "--no-cache", "--rule", "deep-contract"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "rogue-sync" in captured.out
        assert captured.err.startswith("FAIL:")

    def test_partition_commsan_flag(self, tmp_path, capsys):
        path = tmp_path / "g.gr"
        write_gr(erdos_renyi(150, 900, seed=3), path)
        assert main([
            "partition", str(path), "-k", "3", "-p", "CVC", "--commsan",
        ]) == 0
        assert "commsan" in capsys.readouterr().out
