"""Mutation operators: seeded fault classes spliced into real source.

Each :class:`MutationOperator` mirrors a ``LintRule``: it is registered
by name, receives one parsed :class:`~repro.analysis.lint.base.ModuleSource`,
and yields :class:`MutationSite`\\ s — exact text splices that plant one
semantic fault.  Three properties are deliberate:

* **Text splices, not re-unparse.**  Mutants are produced by replacing
  the exact byte span of an AST node (``lineno``/``col_offset`` are
  UTF-8 byte offsets), never by ``ast.unparse`` of the whole tree.
  Comments — including ``# repro-lint:`` suppressions — survive
  verbatim, so a mutant is lint-equivalent to its parent everywhere
  except the splice.
* **Line-count preserving.**  Replacements pad with newlines to cover
  the original span, so every finding and suppression below the splice
  keeps its anchor line.  Suppression governance therefore behaves
  identically in parent and mutant.
* **Deterministic ordinals.**  Sites are ordered by ``(line, col)``
  within one ``(operator, file)`` pair and identified as
  ``{operator}:{rel}#{ordinal}``; ids are stable across runs, site
  discovery order, and unrelated edits elsewhere in the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..lint.base import ModuleSource, resolve_name

__all__ = [
    "Splice",
    "MutationSite",
    "Mutant",
    "MutationOperator",
    "register_operator",
    "all_operators",
    "apply_site",
    "collect_mutants",
    "DEFAULT_TARGET_PREFIXES",
]

#: Relative-path prefixes mutated by default: the phase/runtime code the
#: detector stack guards.  The analysis tree itself is never mutated
#: (the detectors must stay trustworthy inside a campaign).
DEFAULT_TARGET_PREFIXES = ("core/", "runtime/")


@dataclass(frozen=True)
class Splice:
    """Replace ``[start, end)`` (1-based line, byte col) with ``text``."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int
    text: str


@dataclass(frozen=True)
class MutationSite:
    """One plantable fault: where, what, and the exact splices."""

    operator: str
    fault_class: str
    rel: str
    line: int
    col: int
    description: str
    splices: tuple[Splice, ...]
    #: Text appended at end-of-file (the comm-laundering helper).
    append: str = ""


@dataclass(frozen=True)
class Mutant:
    """A site with its campaign identity (``{op}:{rel}#{ordinal}``)."""

    id: str
    site: MutationSite

    @property
    def operator(self) -> str:
        return self.site.operator

    @property
    def fault_class(self) -> str:
        return self.site.fault_class

    @property
    def rel(self) -> str:
        return self.site.rel


def _span(node: ast.AST) -> tuple[int, int, int, int]:
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    assert end_line is not None and end_col is not None
    return node.lineno, node.col_offset, end_line, end_col  # type: ignore[attr-defined]


def _source_of(module: ModuleSource, node: ast.AST) -> str:
    seg = ast.get_source_segment(module.text, node)
    assert seg is not None, f"no source span for {ast.dump(node)[:80]}"
    return seg


def _pad_expr(replacement: str, node: ast.AST) -> str:
    """Wrap an expression replacement to cover the node's line span."""
    extra = _span(node)[2] - node.lineno  # type: ignore[attr-defined]
    if extra == 0:
        return replacement
    return "(" + replacement + "\n" * extra + ")"


def _pad_stmt(replacement: str, node: ast.AST) -> str:
    """Pad a statement replacement with blank lines to keep line count."""
    extra = _span(node)[2] - node.lineno  # type: ignore[attr-defined]
    return replacement + "\n" * extra


def _pad_to(replacement: str, node: ast.AST) -> str:
    """Pad an expression that already spans lines up to the node's span."""
    missing = (
        _span(node)[2] - node.lineno - replacement.count("\n")  # type: ignore[attr-defined]
    )
    if missing <= 0:
        return replacement
    return "(" + replacement + "\n" * missing + ")"


def _replace(node: ast.AST, text: str) -> Splice:
    return Splice(*_span(node), text)


def apply_site(text: str, site: MutationSite) -> str:
    """Apply a site's splices (and EOF append) to the original text.

    Columns are UTF-8 byte offsets (CPython's ``col_offset`` contract),
    so splicing happens on encoded lines and decodes at the end.
    """
    lines = text.encode("utf-8").split(b"\n")
    ordered = sorted(
        site.splices, key=lambda s: (s.start_line, s.start_col), reverse=True
    )
    for sp in ordered:
        head = lines[sp.start_line - 1][: sp.start_col]
        tail = lines[sp.end_line - 1][sp.end_col :]
        patched = head + sp.text.encode("utf-8") + tail
        lines[sp.start_line - 1 : sp.end_line] = patched.split(b"\n")
    out = b"\n".join(lines).decode("utf-8")
    if site.append:
        out = out + site.append
    return out


class MutationOperator:
    """Base class: one fault class, one way of planting it.

    Subclasses set :attr:`name` (kebab-case, the matrix row prefix),
    :attr:`fault_class` (the matrix grouping), a one-line
    :attr:`description`, optionally narrow :attr:`target_rels`
    (relative-path prefixes; exact paths also match), and implement
    :meth:`sites`.
    """

    name: str = ""
    fault_class: str = ""
    description: str = ""
    target_rels: Sequence[str] = DEFAULT_TARGET_PREFIXES

    def applies_to(self, rel: str) -> bool:
        return any(rel == t or rel.startswith(t) for t in self.target_rels)

    def sites(self, module: ModuleSource) -> Iterator[MutationSite]:
        raise NotImplementedError

    def site(
        self,
        module: ModuleSource,
        node: ast.AST,
        description: str,
        splices: Sequence[Splice],
        append: str = "",
    ) -> MutationSite:
        return MutationSite(
            operator=self.name,
            fault_class=self.fault_class,
            rel=module.rel,
            line=node.lineno,  # type: ignore[attr-defined]
            col=node.col_offset,  # type: ignore[attr-defined]
            description=description,
            splices=tuple(splices),
            append=append,
        )


_REGISTRY: dict[str, MutationOperator] = {}


def register_operator(op_cls: type) -> type:
    """Class decorator: instantiate and register an operator by name."""
    op = op_cls()
    if not op.name:
        raise ValueError(f"{op_cls.__name__} has no operator name")
    if op.name in _REGISTRY:
        raise ValueError(f"duplicate mutation operator {op.name!r}")
    _REGISTRY[op.name] = op
    return op_cls


def all_operators() -> dict[str, MutationOperator]:
    """All registered operators, by name."""
    return dict(_REGISTRY)


def _statement_calls(module: ModuleSource) -> Iterator[tuple[ast.Expr, ast.Call]]:
    """Expression statements that are a single call (droppable)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            yield node, node.value


@register_operator
class UnseedRngOperator(MutationOperator):
    """Strip the seed from a ``default_rng`` construction."""

    name = "unseed-rng"
    fault_class = "determinism"
    description = "drop the seed argument from numpy.random.default_rng"

    def sites(self, module: ModuleSource) -> Iterator[MutationSite]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not (node.args or node.keywords):
                continue
            target = resolve_name(node.func, module.aliases)
            if target not in (
                "numpy.random.default_rng",
                "numpy.random.Generator",
            ) and (target or "").split(".")[-1] != "default_rng":
                continue
            func_src = _source_of(module, node.func)
            yield self.site(
                module,
                node,
                f"unseed {func_src}(...)",
                [_replace(node, _pad_expr(f"{func_src}()", node))],
            )


@register_operator
class UnsortIterationOperator(MutationOperator):
    """``sorted(x)`` → ``list(x)``: iterate in container order."""

    name = "unsort-iteration"
    fault_class = "determinism"
    description = "replace a bare sorted(x) with list(x)"

    def sites(self, module: ModuleSource) -> Iterator[MutationSite]:
        for node in ast.walk(module.tree):
            if (
                not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Name)
                or node.func.id != "sorted"
                or len(node.args) != 1
                or node.keywords
            ):
                continue
            arg_src = _source_of(module, node.args[0])
            yield self.site(
                module,
                node,
                f"unsort sorted({_compact(arg_src)})",
                [_replace(node, f"list({arg_src})")],
            )


@register_operator
class ReverseMergeOrderOperator(MutationOperator):
    """Reverse a keyed sort: the barrier merges hosts backwards."""

    name = "reverse-merge-order"
    fault_class = "determinism"
    description = "add reverse=True to a sorted(..., key=...) call"

    def sites(self, module: ModuleSource) -> Iterator[MutationSite]:
        for node in ast.walk(module.tree):
            if (
                not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Name)
                or node.func.id != "sorted"
                or not any(kw.arg == "key" for kw in node.keywords)
                or any(kw.arg == "reverse" for kw in node.keywords)
            ):
                continue
            src = _source_of(module, node)
            assert src.endswith(")")
            yield self.site(
                module,
                node,
                "reverse a keyed sort order",
                [_replace(node, src[:-1] + ", reverse=True)")],
            )


class _DropCallOperator(MutationOperator):
    """Drop an expression-statement method call (``x.attr(...)`` → ``None``)."""

    #: Method names whose statement calls this operator deletes.
    attrs: frozenset[str] = frozenset()

    def sites(self, module: ModuleSource) -> Iterator[MutationSite]:
        for stmt, call in _statement_calls(module):
            if (
                not isinstance(call.func, ast.Attribute)
                or call.func.attr not in self.attrs
            ):
                continue
            yield self.site(
                module,
                stmt,
                f"drop {_compact(_source_of(module, call))}",
                [_replace(stmt, _pad_stmt("None", stmt))],
            )


@register_operator
class DropLedgerMergeOperator(_DropCallOperator):
    name = "drop-ledger-merge"
    fault_class = "accounting"
    description = "delete a merge_ledger(...) statement at a barrier"
    attrs = frozenset({"merge_ledger"})


@register_operator
class SkipBarrierOperator(_DropCallOperator):
    name = "skip-barrier"
    fault_class = "protocol"
    description = "delete a comm.barrier() statement"
    attrs = frozenset({"barrier"})


@register_operator
class SkipSyncRoundOperator(_DropCallOperator):
    name = "skip-sync-round"
    fault_class = "protocol"
    description = "delete a state.sync_round(...) statement"
    attrs = frozenset({"sync_round"})


@register_operator
class NarrowDtypeOperator(MutationOperator):
    """Narrow a node-id width tier one step: ids stored, grouped and
    shipped in a dtype one tier too narrow wrap silently."""

    name = "narrow-dtype"
    fault_class = "wire-format"
    description = "narrow a node-id width tier by one dtype"
    target_rels = ("graph/csr.py",)

    #: The tier function and each unsigned tier's next narrower dtype.
    tier_function = "node_id_dtype"
    narrower = {"uint16": "uint8", "uint32": "uint16"}

    def sites(self, module: ModuleSource) -> Iterator[MutationSite]:
        for func in ast.walk(module.tree):
            if (
                not isinstance(func, ast.FunctionDef)
                or func.name != self.tier_function
            ):
                continue
            for inner in ast.walk(func):
                if not isinstance(inner, ast.Attribute):
                    continue
                target = resolve_name(inner, module.aliases) or ""
                module_name, _, dtype = target.rpartition(".")
                if module_name != "numpy" or dtype not in self.narrower:
                    continue
                src = _source_of(module, inner)
                yield self.site(
                    module,
                    inner,
                    f"narrow node-id tier: {src} -> {self.narrower[dtype]}",
                    [_replace(inner, src.replace(dtype, self.narrower[dtype]))],
                )


class _ContractLambdaOperator(MutationOperator):
    """Mutate a ``rounds=``/``when=`` lambda inside a contract OpSpec."""

    target_rels = ("core/contracts.py",)
    keyword: str = ""

    def rewrite(self, body_src: str) -> str:
        raise NotImplementedError

    def sites(self, module: ModuleSource) -> Iterator[MutationSite]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != self.keyword or not isinstance(kw.value, ast.Lambda):
                    continue
                body = kw.value.body
                body_src = _source_of(module, body)
                yield self.site(
                    module,
                    kw.value,
                    f"rewrite {self.keyword}= clause "
                    f"({_compact(body_src)})",
                    [_replace(body, _pad_expr(self.rewrite(body_src), body))],
                )


@register_operator
class ContractRoundsOperator(_ContractLambdaOperator):
    name = "contract-rounds"
    fault_class = "contract"
    description = "off-by-one a contract rounds= clause"
    keyword = "rounds"

    def rewrite(self, body_src: str) -> str:
        return f"({body_src}) + 1"


@register_operator
class ContractWhenOperator(_ContractLambdaOperator):
    name = "contract-when"
    fault_class = "contract"
    description = "force a contract when= clause to False"
    keyword = "when"

    def rewrite(self, body_src: str) -> str:
        return "False"


_LAUNDER_HELPER = '''

def _mutant_charge(view, units):
    """Laundered accounting: reaches the comm plane outside a task body."""
    stats = view._stats
    assert stats.comm is not None
    view.add_compute(units)
'''


@register_operator
class LaunderCommOperator(MutationOperator):
    """Route a task-body charge through a fresh top-level helper.

    Behaviourally equivalent (the helper still calls ``add_compute``),
    but the comm-plane access now lives outside any ``HostTask`` body —
    exactly the helper-chain evasion ``deep-comm-in-task`` follows
    through the call graph.
    """

    name = "launder-comm"
    fault_class = "evasion"
    description = "move a task-body comm-plane access into a helper"

    def sites(self, module: ModuleSource) -> Iterator[MutationSite]:
        seen: set[tuple[int, int]] = set()
        for body, _call in module.host_task_bodies():
            for node in ast.walk(body):
                if not isinstance(node, ast.Expr) or not isinstance(
                    node.value, ast.Call
                ):
                    continue
                call = node.value
                if (
                    not isinstance(call.func, ast.Attribute)
                    or call.func.attr != "add_compute"
                    or not isinstance(call.func.value, ast.Name)
                    or len(call.args) != 1
                    or call.keywords
                ):
                    continue
                key = (call.lineno, call.col_offset)
                if key in seen:  # named bodies can be matched twice
                    continue
                seen.add(key)
                recv = call.func.value.id
                arg_src = _source_of(module, call.args[0])
                yield self.site(
                    module,
                    call,
                    f"launder {recv}.add_compute through a helper",
                    [
                        _replace(
                            call,
                            _pad_to(f"_mutant_charge({recv}, {arg_src})", call),
                        )
                    ],
                    append=_LAUNDER_HELPER,
                )


def _compact(src: str, limit: int = 48) -> str:
    flat = " ".join(src.split())
    return flat if len(flat) <= limit else flat[: limit - 1] + "…"


def collect_mutants(
    pkg_root: Path,
    operators: Iterable[MutationOperator] | None = None,
    rels: Sequence[str] | None = None,
) -> list[Mutant]:
    """Scan a ``repro`` package tree and enumerate every mutation site.

    ``pkg_root`` is the package directory (the one containing
    ``core/``/``runtime/``).  Returns mutants sorted by id components
    ``(operator, rel, ordinal)`` — a total order independent of
    discovery sequence, so campaigns are reproducible byte-for-byte.
    """
    ops = sorted(
        (operators if operators is not None else all_operators().values()),
        key=lambda o: o.name,
    )
    prefixes = {t.split("/")[0] for op in ops for t in op.target_rels}
    files = sorted(
        p
        for prefix in sorted(prefixes)
        for p in (pkg_root / prefix).rglob("*.py")
        if "__pycache__" not in p.parts
    )
    sites: list[MutationSite] = []
    for path in files:
        rel = path.relative_to(pkg_root).as_posix()
        if rels is not None and rel not in rels:
            continue
        active = [op for op in ops if op.applies_to(rel)]
        if not active:
            continue
        module = ModuleSource.load(path, pkg_root)
        for op in active:
            sites.extend(op.sites(module))
    sites.sort(key=lambda s: (s.operator, s.rel, s.line, s.col))
    mutants: list[Mutant] = []
    ordinal: dict[tuple[str, str], int] = {}
    for site in sites:
        key = (site.operator, site.rel)
        n = ordinal.get(key, 0)
        ordinal[key] = n + 1
        mutants.append(Mutant(id=f"{site.operator}:{site.rel}#{n}", site=site))
    return mutants
