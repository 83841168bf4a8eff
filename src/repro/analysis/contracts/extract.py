"""Static extraction: which comm ops can a phase's code emit?

For every :class:`~repro.analysis.contracts.model.PhaseContract` this
pass parses the phase's declared source modules (reusing the lint
framework's :class:`~repro.analysis.lint.base.ModuleSource`), walks the
phase's entry functions plus every local helper they reference — nested
``HostTask`` bodies included — and derives the set of communication
operations the code can perform: tagged point-to-point sends, queue
drains, collectives, and barriers.

Two dataflow refinements keep the extraction exact rather than merely
syntactic:

* ``state.sync_round(comm, blocking=...)`` is a *dispatch point*: the
  blocking constants observed at the phase's call sites become a hint
  for scanning the ``sync_round`` implementations in the contract's
  rule/state modules, so ``comm.allreduce_sum(..., blocking=blocking)``
  resolves to the async collective the phase actually performs and the
  ``if blocking: comm.barrier()`` branch is recognized as unreachable.
* Every *other* function in the dispatched modules is scanned with no
  hint — communication smuggled into rule code is still attributed to
  the phase that dispatches into it.

The diff against the contract flags, as errors, ops the contract does
not declare (and sends whose tag is not a compile-time constant), and,
as warnings, contract clauses no code path can exercise (dead
contract).  :func:`check_contracts` drives the whole pass and returns a
:class:`ContractReport`; the ``repro contracts`` CLI subcommand is a
thin wrapper around it.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..lint.base import ModuleSource
from .model import ContractSet, OpSpec, PhaseContract

__all__ = [
    "ExtractedOp",
    "ContractFinding",
    "ContractReport",
    "extract_phase_ops",
    "check_contracts",
    "constant_str",
    "keyword_arg",
    "is_nested",
    "mark_visited",
    "call_closure",
]

ERROR = "error"
WARNING = "warning"

#: Communicator collectives and the event kind each records.
_FIXED_COLLECTIVES = {"allreduce_max": "allreduce", "allgather": "allgather"}


@dataclass(frozen=True)
class ExtractedOp:
    """One comm operation the scanned code can emit.

    ``kind`` extends the contract-op kinds with ``"recv"`` (a
    ``recv_all``/``recv_all_batch`` drain, used for dead-drain
    detection) and ``"allreduce-any"`` (an allreduce whose blocking mode
    could not be resolved — it matches both blocking and async clauses).
    ``batch`` marks columnar-fabric traffic (``send_batch``,
    ``recv_all_batch``): such an op is only legal on a contract clause
    declaring ``batched=True``.
    """

    kind: str
    tag: str | None
    path: str
    line: int
    via: str
    batch: bool = False


@dataclass(frozen=True)
class ContractFinding:
    """One extraction-vs-spec diagnostic, anchored to a source location."""

    kind: str  # undeclared-op | dynamic-tag | dead-clause | missing-module | missing-entry
    severity: str
    phase: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.severity} [{self.kind}] "
            f"phase {self.phase!r}: {self.message}"
        )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "phase": self.phase,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class ContractReport:
    """Outcome of one static contract check over all phases."""

    findings: list[ContractFinding] = field(default_factory=list)
    phases_checked: int = 0
    ops_extracted: int = 0

    @property
    def errors(self) -> list[ContractFinding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> list[ContractFinding]:
        return [f for f in self.findings if f.severity == WARNING]

    def ok(self, strict: bool = False) -> bool:
        """No errors; in strict mode, no warnings (dead clauses) either."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s) "
            f"across {self.phases_checked} phase contract(s) "
            f"({self.ops_extracted} op(s) extracted)"
        )

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> str:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.severity] = counts.get(f.severity, 0) + 1
        return json.dumps(
            {
                "version": 1,
                "phases_checked": self.phases_checked,
                "ops_extracted": self.ops_extracted,
                "counts": counts,
                "findings": [f.as_dict() for f in self.findings],
            },
            indent=2,
        )


def constant_str(node: ast.AST | None) -> str | None:
    """The literal string value of a Constant node, else None.

    Shared with :mod:`repro.analysis.ipa` (tag/seed classification).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def keyword_arg(call: ast.Call, name: str) -> ast.AST | None:
    """The value of keyword ``name`` on ``call``, else None (shared)."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


_constant_str = constant_str
_keyword = keyword_arg


def _under_blocking_guard(node: ast.AST, stop: ast.AST) -> bool:
    """Whether ``node`` sits inside an ``if`` that tests ``blocking``."""
    current = getattr(node, "_repro_parent", None)
    while current is not None and current is not stop:
        if isinstance(current, ast.If) and any(
            isinstance(n, ast.Name) and n.id == "blocking"
            for n in ast.walk(current.test)
        ):
            return True
        current = getattr(current, "_repro_parent", None)
    return False


class _FunctionScan:
    """Result of scanning one function definition."""

    def __init__(self) -> None:
        self.ops: list[ExtractedOp] = []
        #: Blocking constants observed at ``.sync_round`` call sites
        #: (True/False); non-constant arguments contribute both.
        self.sync_blocking: set[bool] = set()
        self.dispatches_sync: bool = False
        #: Names this function references (for local call-graph closure).
        self.referenced: set[str] = set()


def _scan_function(
    module: ModuleSource,
    fndef: ast.FunctionDef | ast.AsyncFunctionDef,
    blocking_hint: frozenset[bool] | None,
) -> _FunctionScan:
    """Extract every comm op reachable in ``fndef`` (nested defs included)."""
    scan = _FunctionScan()
    via = fndef.name

    def emit(
        kind: str, tag: str | None, node: ast.AST, batch: bool = False
    ) -> None:
        scan.ops.append(
            ExtractedOp(
                kind=kind,
                tag=tag,
                path=module.rel,
                line=getattr(node, "lineno", 1),
                via=via,
                batch=batch,
            )
        )

    for node in ast.walk(fndef):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            scan.referenced.add(node.id)
            continue
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr == "send":
            tag_node = _keyword(node, "tag")
            if tag_node is None:
                emit("p2p", "default", node)
            else:
                emit("p2p", _constant_str(tag_node), node)  # None => dynamic
        elif attr == "send_batch":
            tag_node = _keyword(node, "tag")
            if tag_node is None:
                emit("p2p", "default", node, batch=True)
            else:
                emit("p2p", _constant_str(tag_node), node, batch=True)
        elif attr in ("recv_all", "recv_all_batch"):
            tag_node = _keyword(node, "tag")
            tag = _constant_str(tag_node)
            if tag is None and tag_node is None:
                # Positional tag (Communicator.recv_all(dst, tag)) or default.
                tag = next(
                    (t for a in node.args if (t := _constant_str(a)) is not None),
                    "default",
                )
            emit("recv", tag, node, batch=attr == "recv_all_batch")
        elif attr == "allreduce_sum":
            blocking = _keyword(node, "blocking")
            if blocking is None:
                emit("allreduce", None, node)  # parameter default is blocking
            elif isinstance(blocking, ast.Constant) and isinstance(
                blocking.value, bool
            ):
                emit("allreduce" if blocking.value else "allreduce-async", None, node)
            elif blocking_hint == frozenset({True}):
                emit("allreduce", None, node)
            elif blocking_hint == frozenset({False}):
                emit("allreduce-async", None, node)
            else:
                emit("allreduce-any", None, node)
        elif attr in _FIXED_COLLECTIVES:
            emit(_FIXED_COLLECTIVES[attr], None, node)
        elif attr == "barrier":
            if blocking_hint == frozenset({False}) and _under_blocking_guard(
                node, fndef
            ):
                continue  # statically unreachable: every call site is async
            emit("barrier", None, node)
        elif attr == "sync_round":
            scan.dispatches_sync = True
            blocking = _keyword(node, "blocking")
            if blocking is None:
                scan.sync_blocking.add(True)  # sync_round defaults to blocking
            elif isinstance(blocking, ast.Constant) and isinstance(
                blocking.value, bool
            ):
                scan.sync_blocking.add(blocking.value)
            else:
                scan.sync_blocking.update((True, False))
    return scan


def is_nested(fndef: ast.AST) -> bool:
    """Whether ``fndef`` is defined inside another function (shared)."""
    current = getattr(fndef, "_repro_parent", None)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return True
        current = getattr(current, "_repro_parent", None)
    return False


def mark_visited(
    fndef: ast.FunctionDef | ast.AsyncFunctionDef, visited: set[int]
) -> None:
    """Mark ``fndef`` and every def nested in it as visited (shared)."""
    for node in ast.walk(fndef):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # repro-lint: disable-next-line=deep-determinism-taint -- identity-keyed visited set; the addresses gate traversal membership only and never reach extractor output
            visited.add(id(node))


_is_nested = is_nested
_mark_visited = mark_visited


def call_closure(
    module: ModuleSource,
    entries: list[ast.FunctionDef | ast.AsyncFunctionDef],
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The module-local name-based call closure of ``entries``.

    A name referenced anywhere in a visited function pulls in every
    same-named top-level definition — the over-matching resolution the
    contracts extractor uses for HostTask bodies passed by name.  The
    precise (scope- and type-aware) counterpart lives in
    :mod:`repro.analysis.ipa.program`.
    """
    defs = module.defs_by_name
    visited: set[int] = set()
    order: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    queue = list(entries)
    while queue:
        fndef = queue.pop(0)
        if id(fndef) in visited:
            continue
        mark_visited(fndef, visited)
        order.append(fndef)
        referenced = {
            n.id
            for n in ast.walk(fndef)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for name in sorted(referenced):
            for ref in defs.get(name, ()):
                if id(ref) not in visited and not is_nested(ref):
                    queue.append(ref)
    return order


def extract_phase_ops(
    base: Path, contract: PhaseContract
) -> tuple[list[ExtractedOp], list[ContractFinding]]:
    """Every comm op the phase's sources can emit, plus load findings.

    The primary module is scanned from the contract's entry functions
    outward through the local call graph (a name referenced anywhere in
    a scanned function pulls in every same-named definition — HostTask
    bodies are passed by name, so over-matching is the safe direction).
    Dispatched modules are scanned whole.
    """
    ops: list[ExtractedOp] = []
    findings: list[ContractFinding] = []
    if not contract.modules:
        return ops, findings

    def missing(kind: str, rel: str, message: str) -> None:
        findings.append(
            ContractFinding(
                kind=kind,
                severity=ERROR,
                phase=contract.phase,
                path=rel,
                line=1,
                message=message,
            )
        )

    primary_rel = contract.modules[0]
    primary_path = base / primary_rel
    if not primary_path.is_file():
        missing("missing-module", primary_rel, "declared phase module not found")
        return ops, findings
    module = ModuleSource.load(primary_path, base)

    defs = module.defs_by_name
    entries: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    for entry in contract.entry_points:
        entry_defs = defs.get(entry, [])
        if not entry_defs:
            missing(
                "missing-entry",
                primary_rel,
                f"entry point {entry}() not found in the phase module",
            )
        entries.extend(entry_defs)

    sync_consts: set[bool] = set()
    dispatched = False
    # Nested defs are reachable only from their enclosing scope, which
    # ast.walk of that scope already covered; call_closure resolves
    # names against top-level defs only, so sibling entry points'
    # helpers never leak into this phase.
    for fndef in call_closure(module, entries):
        scan = _scan_function(module, fndef, None)
        ops.extend(scan.ops)
        sync_consts |= scan.sync_blocking
        dispatched = dispatched or scan.dispatches_sync

    hint = frozenset(sync_consts) if sync_consts else None
    for rel in contract.modules[1:]:
        path = base / rel
        if not path.is_file():
            missing("missing-module", rel, "declared phase module not found")
            continue
        dispatch_mod = ModuleSource.load(path, base)
        mod_visited: set[int] = set()
        for node in ast.walk(dispatch_mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if id(node) in mod_visited:
                continue
            _mark_visited(node, mod_visited)
            if node.name == "sync_round":
                if not dispatched:
                    continue  # the phase never dispatches a round boundary
                scan = _scan_function(dispatch_mod, node, hint)
            else:
                scan = _scan_function(dispatch_mod, node, None)
            ops.extend(scan.ops)
    return ops, findings


def _matches_spec(op: ExtractedOp, spec: OpSpec) -> bool:
    if spec.kind == "p2p":
        return op.kind == "p2p" and op.tag == spec.tag
    if op.kind == "allreduce-any":
        return spec.kind in ("allreduce", "allreduce-async")
    return op.kind == spec.kind


def _diff_contract(
    contract: PhaseContract, ops: list[ExtractedOp]
) -> list[ContractFinding]:
    """Extraction-vs-spec diff: undeclared ops (error), dead clauses (warning)."""
    findings: list[ContractFinding] = []
    declared_tags = sorted(contract.p2p_tags())
    for op in ops:
        if op.kind == "recv":
            continue  # receiving is passive; drains are checked per clause
        if op.kind == "p2p" and op.tag is None:
            findings.append(
                ContractFinding(
                    kind="dynamic-tag",
                    severity=ERROR,
                    phase=contract.phase,
                    path=op.path,
                    line=op.line,
                    message=(
                        f"send in {op.via}() uses a non-constant tag; contracts "
                        "can only be checked against compile-time tags"
                    ),
                )
            )
            continue
        matched = [spec for spec in contract.ops if _matches_spec(op, spec)]
        if matched:
            if op.batch and not any(spec.batched for spec in matched):
                findings.append(
                    ContractFinding(
                        kind="unbatched-op",
                        severity=ERROR,
                        phase=contract.phase,
                        path=op.path,
                        line=op.line,
                        message=(
                            f"columnar-fabric traffic on tag {op.tag!r} in "
                            f"{op.via}(), but the contract clause does not "
                            "declare batched=True; mark the OpSpec batched "
                            "or use the scalar send/recv_all path"
                        ),
                    )
                )
            continue
        if op.kind == "p2p":
            declared = ", ".join(repr(t) for t in declared_tags) or "none"
            message = (
                f"send with tag {op.tag!r} in {op.via}() is not declared by "
                f"the contract (declared tags: {declared}); add an OpSpec in "
                "repro.core.contracts or remove the send"
            )
        else:
            message = (
                f"{op.kind} in {op.via}() is not declared by the contract; "
                "add an OpSpec in repro.core.contracts or remove the collective"
            )
        findings.append(
            ContractFinding(
                kind="undeclared-op",
                severity=ERROR,
                phase=contract.phase,
                path=op.path,
                line=op.line,
                message=message,
            )
        )

    primary = contract.modules[0] if contract.modules else "<unknown>"
    for spec in contract.ops:
        if not any(_matches_spec(op, spec) for op in ops):
            findings.append(
                ContractFinding(
                    kind="dead-clause",
                    severity=WARNING,
                    phase=contract.phase,
                    path=primary,
                    line=1,
                    message=(
                        f"contract declares {spec.describe()} but no code path "
                        "in the phase's modules can emit it (dead contract "
                        "clause); delete the clause or implement the op"
                    ),
                )
            )
        elif (
            spec.kind == "p2p"
            and spec.drained
            and not any(op.kind == "recv" and op.tag == spec.tag for op in ops)
        ):
            findings.append(
                ContractFinding(
                    kind="dead-clause",
                    severity=WARNING,
                    phase=contract.phase,
                    path=primary,
                    line=1,
                    message=(
                        f"contract declares {spec.describe()} as drained, but "
                        f"no recv_all(tag={spec.tag!r}) exists in the phase's "
                        "modules"
                    ),
                )
            )
    return findings


def _resolve_base(root: Path) -> Path:
    """Locate the ``repro`` package root under ``root``."""
    for candidate in (root, root / "src" / "repro", root / "repro"):
        if (candidate / "core").is_dir():
            return candidate
    return root


def check_contracts(
    root: str | Path, contracts: ContractSet | None = None
) -> ContractReport:
    """Statically verify every phase contract against the tree at ``root``.

    ``root`` may be the package root (``src/repro``), the repository
    root, or any directory containing a ``core/`` with the phase
    modules (contract module paths are package-relative).
    """
    if contracts is None:
        from repro.core.contracts import PHASE_CONTRACTS

        contracts = PHASE_CONTRACTS
    base = _resolve_base(Path(root))
    report = ContractReport()
    for contract in contracts:
        ops, findings = extract_phase_ops(base, contract)
        report.findings.extend(findings)
        report.findings.extend(_diff_contract(contract, ops))
        report.phases_checked += 1
        report.ops_extracted += sum(1 for op in ops if op.kind != "recv")
    report.findings.sort(key=lambda f: (f.path, f.line, f.phase, f.kind))
    return report
