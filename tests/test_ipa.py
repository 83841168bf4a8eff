"""Tests for the whole-program interprocedural analysis (repro.analysis.ipa).

The evasion corpus under ``tests/lint_corpus/deep/`` is the contract:
no per-module rule sees any fixture by construction, and a whole-program
(``deep-*``) rule must catch each one with a call-chain witness.  The
remaining tests pin the engine's operational guarantees — one AST parse
per module shared by both kinds of rule, deterministic finding order,
and an incremental cache that re-analyzes only changed files.
"""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.ipa import run_deep_lint
from repro.analysis.ipa.analyses import DeepRule
from repro.analysis.lint.base import LintRule, all_rules, run_lint
from repro.cli import main

DEEP = Path(__file__).parent / "lint_corpus" / "deep"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# (fixture, deep rule, substrings one witness must contain)
EVASIONS = [
    (
        "evade_comm.py",
        "deep-comm-in-task",
        ["poke_peers", "allreduce_sum", "HostTask body"],
    ),
    (
        "evade_rng.py",
        "deep-unseeded-rng",
        ["jitter", "fresh_rng", "default_rng", "seed"],
    ),
    (
        "evade_clock.py",
        "deep-determinism-taint",
        ["wall-clock", "bench_util.py", "elapsed_stamp"],
    ),
    (
        "evade_capture.py",
        "deep-unshippable-task-capture",
        ["tallies", "record_result"],
    ),
    (
        "evade_payload.py",
        "deep-unshippable-payload",
        ["threading.Lock", "make_channel", "Channel.__init__"],
    ),
    (
        "evade_comm_chain.py",
        "deep-comm-in-task",
        ["ship", "`.comm`", "HostTask body"],
    ),
    (
        "evade_lambda.py",
        "deep-comm-in-task",
        ["<lambda:", "_poke", "HostTask body"],
    ),
]


def deep_report(root=DEEP, cache=None):
    return run_lint([root], root=root, cache=cache)


def module_rules():
    """The per-module rules: everything but the whole-program ones."""
    return [r for r in all_rules().values() if isinstance(r, LintRule)]


class TestEvasionFixtures:
    """Each fixture: invisible to every per-module rule, caught by a
    whole-program rule."""

    def test_corpus_is_shallow_clean(self):
        report = run_lint([DEEP], root=DEEP, rules=module_rules())
        assert report.findings == [], [
            (f.path, f.rule) for f in report.findings
        ]

    @pytest.mark.parametrize("fname,rule,needles", EVASIONS)
    def test_deep_catches_each_evasion(self, fname, rule, needles):
        report = deep_report()
        hits = [
            f for f in report.findings if f.path == fname and f.rule == rule
        ]
        assert hits, (
            f"{rule} produced no finding for {fname}; got "
            f"{[(f.path, f.rule) for f in report.findings]}"
        )
        # A line may carry several findings of the rule (a `.comm`
        # access and a collective): one of them names every needle.
        assert any(
            all(needle in f.message for needle in needles) for f in hits
        ), (needles, [f.message for f in hits])

    @pytest.mark.parametrize("fname,rule,needles", EVASIONS)
    def test_witness_names_every_hop(self, fname, rule, needles):
        """The chain walks at least one call edge and cites file:line."""
        report = deep_report()
        message = next(
            f.message
            for f in report.findings
            if f.path == fname and f.rule == rule
        )
        assert " -> " in message
        # every hop is anchored to a source location
        assert message.count(".py:") >= 2

    def test_unshippable_payload_is_an_error(self):
        report = deep_report()
        finding = next(
            f for f in report.findings if f.rule == "deep-unshippable-payload"
        )
        assert finding.severity == "error"
        assert not report.ok(strict=True)


class TestSingleParse:
    """run_lint parses each module exactly once, shared across all rules."""

    def _count_parses(self, monkeypatch):
        counts = {"n": 0}
        real_parse = ast.parse

        def counting_parse(*args, **kwargs):
            # ModuleSource is the only caller that passes filename=;
            # mode="eval" mini-parses of annotation strings don't count.
            if "filename" in kwargs:
                counts["n"] += 1
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        return counts

    def test_shallow_parses_each_file_once(self, monkeypatch):
        counts = self._count_parses(monkeypatch)
        report = run_lint([DEEP], root=DEEP, rules=module_rules())
        assert counts["n"] == report.files_checked

    def test_deep_shares_the_shallow_parse(self, monkeypatch):
        # One pass runs the 7 per-module rules AND builds summaries for
        # the 6 whole-program rules, still from one parse per module.
        counts = self._count_parses(monkeypatch)
        report = deep_report()
        assert counts["n"] == report.files_checked

    def test_warm_package_run_replays_the_cold_findings(
        self, tmp_path, monkeypatch, capsys
    ):
        """``repro lint src/repro --json``, cold then warm: the same
        findings byte for byte (``deep-contract`` included, from cached
        summaries alone), and the warm run parses no module."""
        argv = ["lint", str(SRC), "--json", "--cache", str(tmp_path / "c")]

        def run():
            assert main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            return doc.pop("cache"), json.dumps(doc, sort_keys=True)

        cold_cache, cold = run()
        counts = self._count_parses(monkeypatch)
        warm_cache, warm = run()
        assert warm == cold
        assert counts["n"] == 0
        assert warm_cache == {"hits": cold_cache["misses"], "misses": 0}

    def test_warm_cache_parses_nothing(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        shutil.copytree(DEEP, corpus)
        cache = tmp_path / "deep.json"
        deep_report(root=corpus, cache=cache)
        counts = self._count_parses(monkeypatch)
        report = deep_report(root=corpus, cache=cache)
        assert counts["n"] == 0
        assert report.cache_hits == report.files_checked


class TestIncrementalCache:
    """Warm re-runs analyze only changed files, with identical results."""

    def test_hit_miss_counters(self, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(DEEP, corpus)
        cache = tmp_path / "deep.json"
        nfiles = len(list(corpus.glob("*.py")))

        cold = deep_report(root=corpus, cache=cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, nfiles)

        warm = deep_report(root=corpus, cache=cache)
        assert (warm.cache_hits, warm.cache_misses) == (nfiles, 0)
        assert json.loads(warm.to_json())["findings"] == json.loads(
            cold.to_json()
        )["findings"]

        # touching one file invalidates exactly that file
        target = corpus / "evade_rng.py"
        target.write_text(target.read_text() + "\n# touched\n")
        touched = deep_report(root=corpus, cache=cache)
        assert (touched.cache_hits, touched.cache_misses) == (nfiles - 1, 1)
        assert [f.rule for f in touched.findings] == [
            f.rule for f in cold.findings
        ]

    def test_deleted_files_are_pruned(self, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(DEEP, corpus)
        cache = tmp_path / "deep.json"
        deep_report(root=corpus, cache=cache)
        (corpus / "evade_payload.py").unlink()
        deep_report(root=corpus, cache=cache)
        entries = json.loads(cache.read_text())["entries"]
        assert "evade_payload.py" not in entries

    def test_rule_change_invalidates_cache(self, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(DEEP, corpus)
        cache = tmp_path / "deep.json"
        deep_report(root=corpus, cache=cache)
        doc = json.loads(cache.read_text())
        doc["rules_key"] = "stale"
        cache.write_text(json.dumps(doc))
        report = deep_report(root=corpus, cache=cache)
        assert report.cache_misses == report.files_checked

    def test_corrupt_cache_is_ignored(self, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(DEEP, corpus)
        cache = tmp_path / "deep.json"
        cache.write_text("{not json")
        report = deep_report(root=corpus, cache=cache)
        assert report.cache_misses == report.files_checked
        # and the run rewrites it into a loadable state
        assert json.loads(cache.read_text())["entries"]


class TestCacheConcurrency:
    """Concurrent runs sharing one cache file stay safe and uncorrupted."""

    def make_cache(self, tmp_path):
        from repro.analysis.ipa.cache import DeepCache

        cache = DeepCache.load(tmp_path / "deep.json", "k")
        cache.put("mod.py", {"sha": "abc"})
        return cache

    def test_save_publishes_atomically(self, tmp_path):
        cache = self.make_cache(tmp_path)
        cache.save()
        assert not cache.dirty
        doc = json.loads((tmp_path / "deep.json").read_text())
        assert doc["entries"]["mod.py"]["sha"] == "abc"
        # no leaked temp files, no leaked lock
        assert list(tmp_path.glob("*.tmp")) == []
        assert not cache.lock_path.exists()

    def test_live_lock_skips_save(self, tmp_path):
        import os

        cache = self.make_cache(tmp_path)
        cache.lock_path.write_text(str(os.getpid()))  # a live holder: us
        cache.save()
        assert cache.dirty  # skipped: nothing persisted
        assert not (tmp_path / "deep.json").exists()
        assert cache.lock_path.read_text() == str(os.getpid())  # untouched

    def test_dead_lock_is_stolen(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()  # reaped: its pid no longer names a live process
        cache = self.make_cache(tmp_path)
        cache.lock_path.write_text(str(proc.pid))
        cache.save()
        assert not cache.dirty
        assert json.loads((tmp_path / "deep.json").read_text())["entries"]
        assert not cache.lock_path.exists()

    def test_garbage_lock_is_stolen(self, tmp_path):
        cache = self.make_cache(tmp_path)
        cache.lock_path.write_text("not-a-pid")
        cache.save()
        assert not cache.dirty
        assert not cache.lock_path.exists()

    def test_parallel_writers_never_corrupt(self, tmp_path):
        import concurrent.futures

        path = tmp_path / "deep.json"
        with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(_hammer_cache, [(str(path), w) for w in range(4)]))
        # whatever interleaving happened, the survivor parses and no
        # temp or lock debris remains
        from repro.analysis.ipa.cache import CACHE_VERSION

        doc = json.loads(path.read_text())
        assert doc["version"] == CACHE_VERSION
        assert doc["entries"]
        assert list(tmp_path.glob("*.tmp")) == []
        assert not path.with_name(path.name + ".lock").exists()

    def test_reader_sees_old_or_new_never_torn(self, tmp_path):
        cache = self.make_cache(tmp_path)
        cache.save()
        # a second generation over the same path
        again = self.make_cache(tmp_path)
        again.put("other.py", {"sha": "def"})
        again.save()
        doc = json.loads((tmp_path / "deep.json").read_text())
        assert set(doc["entries"]) == {"mod.py", "other.py"}


def _hammer_cache(arg):
    """Worker for the parallel-writers test (module-level: picklable)."""
    from repro.analysis.ipa.cache import DeepCache

    path, worker = arg
    for round_no in range(5):
        cache = DeepCache.load(path, "k")
        cache.put(f"w{worker}-r{round_no}.py", {"sha": f"{worker}:{round_no}"})
        cache.save()
    return worker


class TestDeepSuppressionGovernance:
    """Suppressions on deep-rule anchors survive the incremental cache."""

    def suppressed_corpus(self, tmp_path):
        """Copy the evasion corpus and suppress evade_rng's deep finding."""
        corpus = tmp_path / "corpus"
        shutil.copytree(DEEP, corpus)
        baseline = deep_report(root=corpus)
        anchor = next(
            f for f in baseline.findings if f.rule == "deep-unseeded-rng"
        )
        target = corpus / anchor.path
        lines = target.read_text().splitlines()
        lines[anchor.line - 1] += (
            "  # repro-lint: disable=deep-unseeded-rng -- governance test"
        )
        target.write_text("\n".join(lines) + "\n")
        return corpus, baseline

    def test_cold_and_warm_runs_agree(self, tmp_path):
        corpus, baseline = self.suppressed_corpus(tmp_path)
        cache = tmp_path / "deep.json"
        nfiles = len(list(corpus.glob("*.py")))

        cold = deep_report(root=corpus, cache=cache)
        assert "deep-unseeded-rng" not in {f.rule for f in cold.findings}
        assert cold.suppressed == baseline.suppressed + 1
        assert cold.cache_misses == nfiles

        warm = deep_report(root=corpus, cache=cache)
        assert warm.cache_hits == nfiles
        assert {f.rule for f in warm.findings} == {
            f.rule for f in cold.findings
        }
        assert warm.suppressed == cold.suppressed
        assert json.loads(warm.to_json())["findings"] == json.loads(
            cold.to_json()
        )["findings"]

    def test_suppression_applies_when_served_from_cache(self, tmp_path):
        # The suppressing file itself is a cache *hit* while another
        # file misses: the suppression table must come from the cache.
        corpus, _ = self.suppressed_corpus(tmp_path)
        cache = tmp_path / "deep.json"
        cold = deep_report(root=corpus, cache=cache)
        other = corpus / "evade_clock.py"
        other.write_text(other.read_text() + "\n# touched\n")
        mixed = deep_report(root=corpus, cache=cache)
        assert mixed.cache_misses == 1
        assert "deep-unseeded-rng" not in {f.rule for f in mixed.findings}
        assert mixed.suppressed == cold.suppressed

    def test_removing_the_suppression_resurfaces_the_finding(self, tmp_path):
        corpus, baseline = self.suppressed_corpus(tmp_path)
        cache = tmp_path / "deep.json"
        deep_report(root=corpus, cache=cache)
        anchor = next(
            f for f in baseline.findings if f.rule == "deep-unseeded-rng"
        )
        target = corpus / anchor.path
        target.write_text(
            target.read_text().replace(
                "  # repro-lint: disable=deep-unseeded-rng"
                " -- governance test",
                "",
            )
        )
        report = deep_report(root=corpus, cache=cache)
        assert "deep-unseeded-rng" in {f.rule for f in report.findings}
        assert report.suppressed == baseline.suppressed


class TestDeterministicOrder:
    """Findings sort by (path, line, col, rule) regardless of input order."""

    def test_input_order_does_not_matter(self):
        files = sorted(DEEP.glob("*.py"))
        fwd = run_lint(files, root=DEEP)
        rev = run_lint(list(reversed(files)), root=DEEP)
        assert fwd.to_json() == rev.to_json()
        keys = [(f.path, f.line, f.col, f.rule) for f in fwd.findings]
        assert keys == sorted(keys)

    def test_json_is_byte_stable_across_runs(self):
        assert deep_report().to_json() == deep_report().to_json()


class TestEngineApi:
    def test_run_deep_lint_direct(self):
        files = sorted(DEEP.glob("*.py"))
        report = run_deep_lint(files, DEEP, all_rules().values(), None)
        assert {f.rule for f in report.findings} == {
            rule for _, rule, _ in EVASIONS
        }

    def test_deep_rules_registry(self):
        rules = {
            name: rule for name, rule in all_rules().items()
            if isinstance(rule, DeepRule)
        }
        assert set(rules) == {
            "deep-comm-in-task",
            "deep-unseeded-rng",
            "deep-determinism-taint",
            "deep-unshippable-task-capture",
            "deep-unshippable-payload",
            "deep-contract",
        }
        assert all(name == rule.name for name, rule in rules.items())


class TestSourceTreeIsClean:
    """src/repro passes ``repro lint --strict`` (suppressions are justified)."""

    def test_src_repro_deep_strict(self):
        src = Path(__file__).parent.parent / "src" / "repro"
        report = run_lint([src], root=src.parent)
        assert report.ok(strict=True), report.summary() + "\n" + "\n".join(
            f"{f.path}:{f.line} {f.rule} {f.message}"
            for f in report.findings
        )
