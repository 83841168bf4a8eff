"""The ``repro lint`` driver.

One pass over the file set produces everything the rules need:

* **cache hit** (same SHA-256, same rule set) — the file is *not even
  parsed*; its recorded per-module findings, suppression tables, and
  module summary are replayed from the cache.
* **cache miss** — the file is parsed exactly once into a
  :class:`~repro.analysis.lint.base.ModuleSource`; the per-module rules
  and the summary extractor share that single AST.

The link phase then builds the :class:`~repro.analysis.ipa.program.
Program` over *all* summaries (cached and fresh alike) and runs the
whole-program rules — whole-program soundness with per-file
incrementality.  Both kinds of finding honour the same suppression
comments.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

from ..lint.base import (
    ERROR,
    Finding,
    LintReport,
    LintRule,
    ModuleSource,
    finding_sort_key,
    suppressed,
)
from .analyses import DeepRule
from .cache import DeepCache
from .program import Program
from .summary import SUMMARY_VERSION, ModuleSummary, summarize_module

__all__ = ["run_deep_lint", "rules_key", "module_name"]

ENGINE_VERSION = 2


def rules_key(rules: Iterable[LintRule | DeepRule]) -> str:
    """Cache invalidation key: engine + summary versions + rule set."""
    doc = json.dumps([
        ENGINE_VERSION,
        SUMMARY_VERSION,
        sorted(r.name for r in rules),
    ])
    return hashlib.sha256(doc.encode()).hexdigest()


def module_name(root: Path, rel: str) -> str:
    """Dotted module name of ``rel`` under ``root``.

    When ``root`` is itself a package directory (has ``__init__.py``),
    the package path down from the topmost package is prepended — so
    ``runtime/comm.py`` under ``src/repro`` becomes
    ``repro.runtime.comm``, matching what absolute and relative imports
    inside the project resolve to.
    """
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts.pop()
    prefix: list[str] = []
    probe = root
    while (probe / "__init__.py").exists():
        prefix.insert(0, probe.name)
        probe = probe.parent
    return ".".join(prefix + parts) if (prefix or parts) else root.name


def _analyze(
    path: Path, rel: str, text: str, rules: list[LintRule], root: Path
) -> dict:
    """One file's cache entry: its per-module findings (unsuppressed),
    suppression table and summary, from one parse."""
    try:
        module = ModuleSource(path, rel, text)
    except SyntaxError as exc:
        finding = Finding(
            rule="parse-error", severity=ERROR, path=rel,
            line=exc.lineno or 1, col=exc.offset or 0,
            message=f"cannot parse: {exc.msg}",
        )
        return {
            "findings": [finding.as_dict()],
            "suppressions": {"file": [], "lines": {}},
            "summary": None,
        }
    return {
        "findings": [
            f.as_dict()
            for rule in rules if rule.applies_to(module)
            for f in rule.check(module)
        ],
        "suppressions": module.suppressions,
        "summary": summarize_module(module, module_name(root, rel)).to_dict(),
    }


def run_deep_lint(
    files: Sequence[Path],
    root: Path,
    rules: Iterable[LintRule | DeepRule],
    cache_path: str | Path | None = None,
) -> LintReport:
    """Per-module + whole-program lint over ``files`` with one parse each."""
    rules = list(rules)
    per_module = [r for r in rules if isinstance(r, LintRule)]
    deep = [r for r in rules if isinstance(r, DeepRule)]
    cache = DeepCache.load(cache_path, rules_key(rules))
    report = LintReport()
    findings: list[Finding] = []
    summaries: dict[str, ModuleSummary] = {}
    suppressions: dict[str, dict] = {}

    for path in files:
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        report.files_checked += 1
        try:
            text = path.read_text()
        except OSError as exc:
            findings.append(Finding(
                rule="parse-error", severity=ERROR, path=rel,
                line=1, col=0, message=f"cannot read: {exc}",
            ))
            continue
        sha = hashlib.sha256(text.encode()).hexdigest()
        entry = cache.get(rel, sha)
        if entry is not None:
            report.cache_hits += 1
        else:
            report.cache_misses += 1
            entry = {"sha": sha, **_analyze(path, rel, text, per_module, root)}
            cache.put(rel, entry)
        findings.extend(Finding(**f) for f in entry["findings"])
        suppressions[rel] = entry["suppressions"]
        if entry["summary"] is not None:
            summaries[rel] = ModuleSummary.from_dict(entry["summary"])

    cache.prune(set(suppressions))
    cache.save()

    program = Program(summaries)
    for rule in deep:
        findings.extend(rule.check(program))
    for finding in findings:
        if suppressed(suppressions.get(finding.path, {}), finding.line, finding.rule):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings.sort(key=finding_sort_key)
    return report
