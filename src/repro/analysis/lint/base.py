"""Framework for the SPMD-safety lint: rules, findings, suppression, reports.

A :class:`LintRule` is a pluggable AST checker.  It receives one parsed
:class:`ModuleSource` at a time and yields :class:`Finding`\\ s.  The
whole-program rules (``deep-*``, :mod:`repro.analysis.ipa.analyses`)
sit in the same registry.  The driver (:func:`run_lint`) walks a file
tree, applies every registered rule, honours suppression comments, and
assembles a :class:`LintReport` with text and machine-readable JSON
renderings.

Suppression comments
--------------------
A finding is suppressed by a comment naming its rule:

* ``# repro-lint: disable=rule-a,rule-b`` — on the flagged line;
* ``# repro-lint: disable-next-line=rule-a`` — on the line above;
* ``# repro-lint: disable-file=rule-a`` — anywhere, whole file;
* the rule list may be ``all``.

Everything after a `` -- `` separator is a free-form justification and
is ignored by the parser (but please write one).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from ..ipa.analyses import DeepRule

__all__ = [
    "Severity",
    "Finding",
    "ModuleSource",
    "LintRule",
    "LintReport",
    "register",
    "all_rules",
    "run_lint",
    "suppressed",
    "finding_sort_key",
    "dotted_name",
    "resolve_name",
]

#: Severity levels, most severe first.
ERROR = "error"
WARNING = "warning"
Severity = str

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-next-line|-file)?)\s*=\s*"
    r"([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Fully-qualified dotted name of a Name/Attribute, alias-expanded."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted path they refer to (absolute imports)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, anchored to a source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule}] {self.message}"
        )

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class ModuleSource:
    """One parsed Python file plus its suppression table.

    Each file is parsed exactly once per lint run; the derived
    structures every consumer needs — import aliases, top-level
    function definitions by name, ``HostTask`` body/call pairs — are
    computed lazily and cached on the instance, so rules (and the
    whole-program engine in :mod:`repro.analysis.ipa`) share one AST
    and one resolution pass instead of redoing the walk per rule.
    """

    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        # Parent links let rules reason about context (e.g. "is this
        # subscript a store target?") without re-walking from the root.
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child._repro_parent = node  # type: ignore[attr-defined]
        self._aliases: dict[str, str] | None = None
        self._defs: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] | None = None
        self._host_task_bodies: list[tuple[ast.AST, ast.Call]] | None = None
        file_rules: set[str] = set()
        line_rules: dict[int, set[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = _SUPPRESS_RE.search(line)
            if not m:
                continue
            kind = m.group(1)
            rules = {r.strip() for r in m.group(2).split(",") if r.strip()}
            if kind == "disable-file":
                file_rules |= rules
            elif kind == "disable-next-line":
                line_rules.setdefault(lineno + 1, set()).update(rules)
            else:
                line_rules.setdefault(lineno, set()).update(rules)
        #: JSON-serializable suppression table (cached with the module),
        #: read by :func:`suppressed`.
        self.suppressions = {
            "file": sorted(file_rules),
            "lines": {
                str(line): sorted(rules)
                for line, rules in sorted(line_rules.items())
            },
        }

    @classmethod
    def load(cls, path: Path, root: Path) -> "ModuleSource":
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        return cls(path, rel, path.read_text())

    @property
    def aliases(self) -> dict[str, str]:
        """Local name -> dotted import target (absolute imports only)."""
        if self._aliases is None:
            self._aliases = _module_aliases(self.tree)
        return self._aliases

    @property
    def defs_by_name(self) -> dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]]:
        """Every (possibly nested) function definition, grouped by name."""
        if self._defs is None:
            defs: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.setdefault(node.name, []).append(node)
            self._defs = defs
        return self._defs

    def host_task_bodies(self) -> list[tuple[ast.AST, ast.Call]]:
        """(body function/lambda, ``HostTask(...)`` call) pairs.

        A HostTask body is the second positional argument (or ``fn=``
        keyword) of a ``HostTask(...)`` construction.  Named bodies are
        resolved to every same-named function in the module —
        over-matching is acceptable for a lint.  Computed once and
        shared by every rule that reasons about task bodies.
        """
        if self._host_task_bodies is not None:
            return self._host_task_bodies
        pairs: list[tuple[ast.AST, ast.Call]] = []
        seen: set[int] = set()
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None or callee.split(".")[-1] != "HostTask":
                continue
            fn_arg: ast.AST | None = None
            if len(node.args) >= 2:
                fn_arg = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg == "fn":
                        fn_arg = kw.value
            if isinstance(fn_arg, ast.Lambda):
                pairs.append((fn_arg, node))
            elif isinstance(fn_arg, ast.Name):
                for fndef in self.defs_by_name.get(fn_arg.id, ()):
                    if id(fndef) not in seen:
                        seen.add(id(fndef))
                        pairs.append((fndef, node))
        self._host_task_bodies = pairs
        return pairs


class LintRule:
    """Base class for pluggable checkers.

    Subclasses set :attr:`name` (kebab-case rule id, used in reports and
    suppression comments), :attr:`severity`, a one-line
    :attr:`description`, and implement :meth:`check`.  ``exempt_paths``
    lists relative paths (or substrings, when ending in ``*``) the rule
    never applies to.
    """

    name: str = ""
    severity: Severity = ERROR
    description: str = ""
    exempt_paths: Sequence[str] = ()

    def applies_to(self, module: ModuleSource) -> bool:
        for pattern in self.exempt_paths:
            if pattern.endswith("*"):
                if pattern[:-1] in module.rel:
                    return False
            elif module.rel == pattern or module.rel.endswith("/" + pattern):
                return False
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=module.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, LintRule | DeepRule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and register a rule by its name
    (a per-module ``LintRule`` or a whole-program ``DeepRule``)."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"{rule_cls.__name__} has no rule name")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate lint rule {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def all_rules() -> dict[str, LintRule | DeepRule]:
    """All registered rules, by name (importing the bundled rule sets)."""
    from ..ipa import analyses as _deep  # noqa: F401 — registration side effect
    from . import rules as _rules  # noqa: F401 — registration side effect

    return dict(_REGISTRY)


#: Total order on findings: every ``LintReport`` is sorted by this key,
#: so text and ``--json`` output (and therefore diffs against them, and
#: the deep-lint cache) are byte-stable across runs and platforms.
#: ``message`` breaks the rare (path, line, col, rule) tie — e.g. one
#: rule flagging the same node twice with different diagnoses.
def finding_sort_key(f: Finding) -> tuple[str, int, int, str, str]:
    return (f.path, f.line, f.col, f.rule, f.message)


@dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Incremental cache counters: files replayed / files analyzed.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    def ok(self, strict: bool = False) -> bool:
        """No errors; in strict mode, no unsuppressed warnings either."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s) "
            f"in {self.files_checked} file(s)"
            + (f", {self.suppressed} suppressed" if self.suppressed else "")
            + f" [{self.cache_hits} cached, {self.cache_misses} analyzed]"
        )

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> str:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.severity] = counts.get(f.severity, 0) + 1
        doc = {
            "version": 2,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "counts": counts,
            "findings": [f.as_dict() for f in self.findings],
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _iter_py_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def suppressed(table: dict, line: int, rule: str) -> bool:
    """Whether a module's suppression table silences ``rule`` at ``line``."""
    for rules in (table.get("file", ()), table.get("lines", {}).get(str(line), ())):
        if rule in rules or "all" in rules:
            return True
    return False


def run_lint(
    paths: Sequence[str | Path],
    rules: Iterable[LintRule | DeepRule] | None = None,
    root: str | Path | None = None,
    cache: str | Path | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) with ``rules`` (default: all).

    ``root`` anchors the relative paths used in findings and
    ``exempt_paths`` matching; it defaults to the first directory in
    ``paths`` (or the file's parent).  One engine pass
    (:func:`repro.analysis.ipa.engine.run_deep_lint`) parses each file
    once for the per-module and the whole-program rules alike.
    ``cache`` names the incremental cache file (per-file SHA-256 keyed);
    ``None`` analyzes everything from scratch in memory.
    """
    from ..ipa.engine import run_deep_lint

    path_objs = [Path(p) for p in paths]
    if root is None:
        root = next(
            (p for p in path_objs if p.is_dir()),
            path_objs[0].parent if path_objs else Path("."),
        )
    active = all_rules().values() if rules is None else rules
    return run_deep_lint(
        list(_iter_py_files(path_objs)), Path(root), active, cache
    )
