"""Tests for the analyzer mutation campaign (repro.analysis.mutate).

The operator layer is pinned hard — text splices that parse, preserve
line counts, and carry stable ids — because every downstream guarantee
(suppression governance inside mutants, byte-stable matrices, triage
keyed by id) rests on it.  The campaign driver's selection and report
rendering are pinned for determinism; the end-to-end probe run is
exercised by the CI ``mutation`` job, not here.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.mutate import (
    TRIAGE,
    CampaignReport,
    MutantResult,
    all_operators,
    apply_site,
    collect_mutants,
)
from repro.analysis.mutate.campaign import select_mutants
from repro.analysis.mutate.triage import VERDICTS

PKG = Path(__file__).parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def mutants():
    return collect_mutants(PKG)


class TestOperatorRegistry:
    def test_every_operator_is_named_and_classed(self):
        ops = all_operators()
        assert len(ops) >= 10
        for name, op in ops.items():
            assert name == op.name
            assert op.fault_class
            assert op.description

    def test_every_operator_generates_at_least_one_site(self, mutants):
        generated = {m.operator for m in mutants}
        missing = set(all_operators()) - generated
        assert not missing, (
            f"operators with zero sites against src/repro: {sorted(missing)}"
        )


class TestSpliceInvariants:
    def test_every_mutant_parses(self, mutants):
        for m in mutants:
            text = (PKG / m.rel).read_text()
            mutated = apply_site(text, m.site)
            try:
                ast.parse(mutated)
            except SyntaxError as exc:
                pytest.fail(f"{m.id} does not parse: {exc}")

    def test_every_mutant_preserves_line_count(self, mutants):
        for m in mutants:
            text = (PKG / m.rel).read_text()
            mutated = apply_site(text, m.site)
            grown = len(m.site.append.splitlines()) if m.site.append else 0
            assert mutated.count("\n") == text.count("\n") + grown, m.id

    def test_every_mutant_actually_changes_the_text(self, mutants):
        for m in mutants:
            text = (PKG / m.rel).read_text()
            assert apply_site(text, m.site) != text, m.id

    def test_targets_stay_out_of_the_analysis_tree(self, mutants):
        for m in mutants:
            assert not m.rel.startswith("analysis/"), (
                f"{m.id} mutates the detector stack itself"
            )


class TestMutantIds:
    def test_ids_are_stable_across_collections(self, mutants):
        again = collect_mutants(PKG)
        assert [m.id for m in mutants] == [m.id for m in again]

    def test_ids_are_unique(self, mutants):
        ids = [m.id for m in mutants]
        assert len(ids) == len(set(ids))

    def test_id_format(self, mutants):
        for m in mutants:
            op, rest = m.id.split(":", 1)
            rel, ordinal = rest.rsplit("#", 1)
            assert op == m.operator
            assert rel == m.rel
            assert ordinal.isdigit()

    def test_ordinals_follow_document_order(self, mutants):
        by_file: dict[tuple[str, str], list] = {}
        for m in mutants:
            by_file.setdefault((m.operator, m.rel), []).append(m)
        for group in by_file.values():
            ordinals = [int(m.id.rsplit("#", 1)[1]) for m in group]
            positions = [(m.site.line, m.site.col) for m in group]
            assert ordinals == sorted(ordinals)
            assert positions == sorted(positions)


class TestSelection:
    def test_selection_is_deterministic(self, mutants):
        a = select_mutants(mutants, 24, 7)
        b = select_mutants(mutants, 24, 7)
        assert [m.id for m in a] == [m.id for m in b]

    def test_selection_respects_budget(self, mutants):
        assert len(select_mutants(mutants, 10, 7)) == 10
        assert len(select_mutants(mutants, None, 7)) == len(mutants)
        big = select_mutants(mutants, 10_000, 7)
        assert len(big) == len(mutants)

    def test_selection_is_stratified(self, mutants):
        operators = {m.operator for m in mutants}
        chosen = select_mutants(mutants, len(operators), 7)
        # one per operator before any second helping
        assert len({m.operator for m in chosen}) == len(operators)

    def test_seed_changes_the_selection(self, mutants):
        a = {m.id for m in select_mutants(mutants, 12, 7)}
        b = {m.id for m in select_mutants(mutants, 12, 8)}
        assert a != b


class TestTriageRegistry:
    def test_verdicts_are_legal(self):
        for mutant_id, entry in TRIAGE.items():
            assert entry.verdict in VERDICTS, mutant_id
            assert entry.reason, mutant_id

    def test_entries_name_real_mutants(self, mutants):
        known = {m.id for m in mutants}
        stale = set(TRIAGE) - known
        assert not stale, (
            f"triage entries for mutants that no longer exist: {sorted(stale)}"
        )


def _result(mutant, caught_detectors=(), findings=()):
    detectors = {
        name: {
            "caught": name in caught_detectors,
            "findings": list(findings) if name in caught_detectors else [],
        }
        for name in ("lint", "deep", "dynamic")
    }
    return MutantResult(
        mutant=mutant, detectors=detectors, triage=TRIAGE.get(mutant.id)
    )


class TestReport:
    def make_report(self, mutants, n=6):
        chosen = select_mutants(mutants, n, 7)
        results = [
            _result(m, ("lint",) if i % 2 == 0 else (), ("rule@f.py:1",))
            for i, m in enumerate(chosen)
        ]
        return CampaignReport(
            results=results, seed=7, budget=n, sites_found=len(mutants)
        )

    def test_matrix_is_byte_stable(self, mutants):
        a = self.make_report(mutants).to_json()
        b = self.make_report(mutants).to_json()
        assert a == b

    def test_matrix_is_input_order_free(self, mutants):
        report = self.make_report(mutants)
        shuffled = CampaignReport(
            results=list(reversed(report.results)),
            seed=7,
            budget=6,
            sites_found=report.sites_found,
        )
        assert report.to_json() == shuffled.to_json()

    def test_matrix_rows_are_sorted_by_id(self, mutants):
        doc = json.loads(self.make_report(mutants).to_json())
        ids = [row["id"] for row in doc["rows"]]
        assert ids == sorted(ids)

    def test_detection_rate_excludes_equivalents(self, mutants):
        chosen = select_mutants(mutants, 4, 7)
        results = [
            _result(chosen[0], ("dynamic",), ("divergence:GVC",)),
            _result(chosen[1], ("lint", "deep"), ("r@f.py:2",)),
            _result(chosen[2]),
            _result(chosen[3]),
        ]
        # hand-triage the two survivors: one excluded, one accepted
        from repro.analysis.mutate.triage import TriageEntry

        results[2] = MutantResult(
            mutant=chosen[2],
            detectors=results[2].detectors,
            triage=TriageEntry("equivalent", "test"),
        )
        results[3] = MutantResult(
            mutant=chosen[3],
            detectors=results[3].detectors,
            triage=TriageEntry("accepted", "test"),
        )
        report = CampaignReport(results=results, sites_found=len(mutants))
        assert report.detection_rate() == pytest.approx(2 / 3)
        assert report.ok()  # no untriaged survivors
        assert not report.ok(strict=True)  # 66% < 90%

    def test_untriaged_survivor_fails_the_run(self, mutants):
        chosen = select_mutants(mutants, 1, 7)
        # strip any real triage entry to simulate a fresh blind spot
        result = MutantResult(
            mutant=chosen[0],
            detectors={
                name: {"caught": False, "findings": []}
                for name in ("lint", "deep", "dynamic")
            },
            triage=None,
        )
        report = CampaignReport(results=[result], sites_found=len(mutants))
        assert report.untriaged
        assert not report.ok()
