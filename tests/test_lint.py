"""The SPMD-safety lint (``repro.analysis.lint``).

Each rule — per-module and whole-program (``deep-*``) alike — is
exercised against ``tests/lint_corpus``: one ``bad_*.py`` fixture per
rule that must be flagged, and one ``clean.py`` of near-misses that
must not be.  The corpus files are parsed as data, never imported.
Also covers suppression comments, severity/strict semantics, JSON
output, and the ``repro lint`` CLI's exit codes and default cache.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.ipa.analyses import DeepRule
from repro.analysis.lint import (
    ERROR,
    WARNING,
    Finding,
    LintReport,
    LintRule,
    ModuleSource,
    all_rules,
    run_lint,
)
from repro.cli import main

CORPUS = Path(__file__).parent / "lint_corpus"

#: rule name -> corpus fixture that must trigger it.
RULE_FIXTURES = {
    "deep-unseeded-rng": "bad_rng.py",
    "wall-clock": "bad_clock.py",
    "unordered-iteration": "bad_set_iteration.py",
    "unordered-dict-send": "bad_dict_send_iteration.py",
    "deep-comm-in-task": "bad_comm_in_task.py",
    "ledger-bypass": "bad_ledger_bypass.py",
    "unaccounted-send": "bad_unaccounted_send.py",
    "deep-unshippable-task-capture": "bad_unshippable_capture.py",
    "scalar-send-in-hot-loop": "bad_scalar_send_loop.py",
    "deep-contract": "bad_undeclared_op.py",
    "swallowed-error": "bad_swallowed_error.py",
    "deep-determinism-taint": "bad_determinism_taint.py",
    "deep-unshippable-payload": "bad_unshippable_payload.py",
}

#: The lines the per-module ``unseeded-rng``, ``comm-in-task``,
#: ``unshippable-task-capture``, ``cross-host-write`` and
#: ``contract-undeclared-op`` rules flagged before the whole-program rule
#: owning each property took them over: that rule must flag each (line
#: 18 of ``bad_comm_in_task.py`` is a lambda body).
FOLDED_LINES = {
    ("deep-unseeded-rng", "bad_rng.py"): [9, 14, 15, 16, 20],
    ("deep-comm-in-task", "bad_comm_in_task.py"): [10, 11, 18],
    ("deep-unshippable-task-capture", "bad_unshippable_capture.py"): [10, 11],
    ("deep-unshippable-task-capture", "bad_cross_host_write.py"): [9],
    ("deep-contract", "bad_undeclared_op.py"): [11, 16],
}


class TestCorpus:
    def test_every_rule_has_a_fixture(self):
        rules = all_rules()
        assert set(RULE_FIXTURES) == set(rules)
        # One registry holds both kinds: per-module and whole-program.
        deep = {n for n, r in rules.items() if isinstance(r, DeepRule)}
        assert deep == {n for n in rules if n.startswith("deep-")}
        assert all(isinstance(rules[n], LintRule) for n in set(rules) - deep)

    @pytest.mark.parametrize("rule,filename", sorted(FOLDED_LINES))
    def test_folded_rule_flags_every_line(self, rule, filename):
        report = run_lint([CORPUS / filename], root=CORPUS)
        lines = sorted({f.line for f in report.findings if f.rule == rule})
        assert lines == FOLDED_LINES[rule, filename], report.render_text()

    @pytest.mark.parametrize("rule,filename", sorted(RULE_FIXTURES.items()))
    def test_bad_snippet_is_flagged_by_its_rule(self, rule, filename):
        report = run_lint([CORPUS / filename], root=CORPUS)
        flagged = {f.rule for f in report.findings}
        assert rule in flagged, report.render_text()

    def test_clean_fixture_has_zero_findings(self):
        report = run_lint([CORPUS / "clean.py"], root=CORPUS)
        assert report.findings == [], report.render_text()
        assert report.files_checked == 1

    @pytest.mark.parametrize("payload,flagged", [("None", False), ("ids[j]", True)])
    def test_accounting_only_send_in_a_governed_loop(
        self, tmp_path, payload, flagged
    ):
        """clean.py is not contract-governed, so the ``None``-payload
        exemption of scalar-send-in-hot-loop is pinned in a module that is."""
        path = tmp_path / "mod.py"
        path.write_text(
            '__phase_contract__ = "Master Assignment"\n'
            "def ship(view, peers, ids):\n"
            "    for j in peers:\n"
            f"        view.send(j, {payload}, tag='master-assignments',\n"
            "                  nbytes=12 * len(ids[j]), coalesce=True)\n"
        )
        rules = [f.rule for f in run_lint([path], root=tmp_path).findings]
        assert rules == (["scalar-send-in-hot-loop"] if flagged else [])

    def test_whole_corpus_fires_every_rule(self):
        report = run_lint([CORPUS], root=CORPUS)
        assert not report.ok()
        assert {f.rule for f in report.findings} >= set(RULE_FIXTURES)
        # clean.py contributes nothing.
        assert not any(f.path == "clean.py" for f in report.findings)

    def test_findings_are_sorted_and_anchored(self):
        report = run_lint([CORPUS], root=CORPUS)
        keys = [(f.path, f.line, f.col, f.rule) for f in report.findings]
        assert keys == sorted(keys)
        for f in report.findings:
            assert f.line >= 1
            assert f.severity in (ERROR, WARNING)
            assert f.message


class TestSuppression:
    def lint_text(self, tmp_path, text):
        path = tmp_path / "mod.py"
        path.write_text(text)
        return run_lint([path], root=tmp_path)

    def test_same_line_disable(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: disable=deep-unseeded-rng -- test\n",
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_disable_next_line(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "import random\n"
            "# repro-lint: disable-next-line=deep-unseeded-rng -- test\n"
            "x = random.random()\n",
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_disable_file_and_all(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "# repro-lint: disable-file=all -- corpus-style file\n"
            "import random, time\n"
            "x = random.random()\n"
            "y = time.time()\n",
        )
        assert report.findings == []
        assert report.suppressed == 2

    def test_unrelated_rule_does_not_suppress(self, tmp_path):
        report = self.lint_text(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: disable=wall-clock\n",
        )
        assert [f.rule for f in report.findings] == ["deep-unseeded-rng"]
        assert report.suppressed == 0


class TestReport:
    def test_severity_and_strict_semantics(self):
        warn_only = run_lint([CORPUS / "bad_cross_host_write.py"], root=CORPUS)
        assert warn_only.errors == []
        assert warn_only.warnings
        assert warn_only.ok(strict=False)
        assert not warn_only.ok(strict=True)
        errors = run_lint([CORPUS / "bad_rng.py"], root=CORPUS)
        assert not errors.ok(strict=False)

    def test_json_output_round_trips(self):
        report = run_lint([CORPUS / "bad_rng.py"], root=CORPUS)
        doc = json.loads(report.to_json())
        assert doc["version"] == 2
        assert doc["files_checked"] == 1
        assert doc["counts"]["error"] == len(report.errors)
        assert len(doc["findings"]) == len(report.findings)
        first = doc["findings"][0]
        assert set(first) == {
            "rule", "severity", "path", "line", "col", "message",
        }

    def test_parse_error_is_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        report = run_lint([path], root=tmp_path)
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert not report.ok()

    def test_rule_subset_and_exempt_paths(self, tmp_path):
        rules = all_rules()
        report = run_lint(
            [CORPUS / "bad_rng.py"], rules=[rules["wall-clock"]], root=CORPUS
        )
        assert report.findings == []
        # wall-clock exempts the cost model, where real clocks are legal.
        clock = tmp_path / "cost_model.py"
        clock.write_text("import time\nt = time.time()\n")
        nested = tmp_path / "runtime"
        nested.mkdir()
        (nested / "cost_model.py").write_text("import time\nt = time.time()\n")
        report = run_lint([tmp_path], root=tmp_path)
        flagged = {f.path for f in report.findings}
        assert "cost_model.py" in flagged  # only runtime/cost_model.py is exempt
        assert "runtime/cost_model.py" not in flagged

    def test_render_text_mentions_every_finding(self):
        report = run_lint([CORPUS / "bad_clock.py"], root=CORPUS)
        text = report.render_text()
        for f in report.findings:
            assert f"{f.path}:{f.line}" in text
        assert report.summary() in text


class TestCLI:
    @pytest.fixture(autouse=True)
    def _cache_home(self, tmp_path, monkeypatch):
        """The default lint cache lands under tmp, not the user's home."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))

    def test_exit_codes(self, capsys):
        assert main(["lint", str(CORPUS / "clean.py")]) == 0
        assert "OK:" in capsys.readouterr().out
        assert main(["lint", str(CORPUS / "bad_rng.py")]) == 1
        assert "FAIL:" in capsys.readouterr().err

    def test_strict_escalates_warnings(self, capsys):
        target = str(CORPUS / "bad_cross_host_write.py")
        assert main(["lint", target]) == 0
        capsys.readouterr()
        assert main(["lint", target, "--strict"]) == 1
        assert "strict" in capsys.readouterr().err

    def test_json_flag(self, capsys):
        assert main(["lint", str(CORPUS / "bad_rng.py"), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 2 and doc["findings"]

    def test_rule_filter(self, capsys):
        target = str(CORPUS / "bad_rng.py")
        assert main(["lint", target, "--rule", "wall-clock"]) == 0
        assert main(["lint", target, "--rule", "deep-unseeded-rng"]) == 1
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["lint", target, "--rule", "no-such-rule"])

    def test_one_pass_has_no_deep_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--deep"])

    def test_cache_is_on_by_default(self, tmp_path, capsys):
        target = str(CORPUS / "clean.py")
        assert main(["lint", target]) == 0
        assert "[0 cached, 1 analyzed]" in capsys.readouterr().out
        assert main(["lint", target]) == 0
        assert "[1 cached, 0 analyzed]" in capsys.readouterr().out
        assert list((tmp_path / "repro-lint").glob("*.json"))
        assert main(["lint", target, "--no-cache"]) == 0
        assert "[0 cached, 1 analyzed]" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in RULE_FIXTURES:
            assert name in out

    def test_default_path_is_the_package_and_it_is_clean(self, capsys):
        """The shipped sources must stay lint-clean in strict mode."""
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out


class TestFramework:
    def test_module_source_parent_links(self):
        module = ModuleSource(
            Path("x.py"), "x.py", "def f():\n    return 1\n"
        )
        import ast

        ret = next(
            n for n in ast.walk(module.tree) if isinstance(n, ast.Return)
        )
        assert isinstance(ret._repro_parent, ast.FunctionDef)

    def test_finding_render(self):
        f = Finding("demo", ERROR, "a/b.py", 3, 7, "boom")
        assert f.render() == "a/b.py:3:7: error [demo] boom"

    def test_empty_report_is_ok(self):
        report = LintReport()
        assert report.ok(strict=True)
        assert "0 error(s)" in report.summary()
