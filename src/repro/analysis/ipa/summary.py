"""Per-module summaries for the whole-program analyses.

A :class:`ModuleSummary` is everything the interprocedural passes need
to know about one file, extracted in a single AST walk and fully
JSON-serializable so the incremental cache can persist it keyed by the
file's SHA-256.  Nothing in here looks across files — linking is
:mod:`~repro.analysis.ipa.program`'s job — which is what makes the
summary cacheable per file.

The summary records, per function (plus a ``<module>`` pseudo-function
for top-level code):

* **call atoms** — every call site with its alias-resolved callee,
  receiver type for method calls (from parameter annotations, ``self``,
  or local constructor assignments), argument metadata (literal-``None``
  slots, parameter-valued slots, closure/global-rooted slots), and the
  taint reaching its arguments;
* **local taint** — a flow-insensitive fixpoint over the function's
  assignments propagating nondeterminism sources (wall-clock reads,
  unseeded RNG, unordered set iteration, ``id()``) into variables,
  call arguments, state writes, and return values.  ``sorted(...)``
  sanitizes set-order taint, mirroring the ``unordered-iteration`` rule;
* **shippability trees** — a symbolic value tree (:term:`ship node`)
  for every returned expression and every ``self.attr = ...`` in an
  ``__init__``, so the payload analysis can later prove a
  ``HostTask(payload=...)`` transitively process-safe;
* **state writes** to parameter / closure / global roots, **``.comm``
  accesses and phase-global collectives**, and **RNG introductions** —
  unseeded draws and constructions (:func:`unseeded_rng`) and
  seed-parameter constructions (``default_rng(seed)`` wrappers) — that
  the host-isolation and RNG rules check at every call depth.

A lambda is a pseudo-function of its own (``<lambda:LINE:COL>``), so a
lambda ``HostTask`` body resolves like a named one.

Taint atoms are plain tuples — ``("src", family, line, detail)`` for a
source, ``("call", index, line)`` for a value returned by call atom
``index`` (resolved interprocedurally at link time) — serialized as
lists.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..lint.base import ModuleSource, dotted_name, resolve_name
from ..lint.rules import UnorderedIterationRule, WallClockRule, explicit_phase

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "summarize_module",
    "taints_from_json",
    "taints_to_json",
    "unseeded_rng",
]

#: Bump when the summary schema or extraction semantics change; part of
#: the cache key so stale summaries are never reused across versions.
SUMMARY_VERSION = 3

#: Phase-global collective calls: issuing one from a task body is a
#: ``deep-comm-in-task`` finding.
PHASE_GLOBAL_CALLS = {
    "allreduce_sum", "allreduce_max", "allgather", "barrier",
    "merge_ledger", "sync_round",
}

#: Every call recorded as a comm op: the phase-global ones plus the
#: point-to-point sends and drains a task body may issue on its view.
COMM_CALLS = PHASE_GLOBAL_CALLS | {
    "send", "send_batch", "recv_all", "recv_all_batch",
}

_CLOCKS = WallClockRule._CLOCKS
_SET_RULE = UnorderedIterationRule()
#: Class bodies are not scopes of their own here: their statements
#: belong to the enclosing scope, their methods are scopes.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: RNG constructors whose first argument (positional or keyword) is the
#: seed: unseeded when it is missing or a literal ``None``.
_SEEDABLE = {"random.Random", "numpy.random.default_rng"} | {
    f"numpy.random.{leaf}"
    for leaf in (
        "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    )
}

Taint = tuple  # ("src", family, line, detail) | ("call", idx, line)


def _seed_arg(node: ast.Call) -> ast.AST | None:
    if node.args:
        return node.args[0]
    return node.keywords[0].value if node.keywords else None


def unseeded_rng(resolved: str, node: ast.Call) -> str | None:
    """Why a call to ``resolved`` is unreproducible randomness, else None.

    The one RNG classifier: ``deep-unseeded-rng`` reports what it
    flags, and the taint pass treats the same calls as sources.  The
    stdlib ``random`` module and NumPy's legacy ``np.random.*``
    functions draw from hidden global state; a seedable constructor
    without a seed is seeded from OS entropy.
    """
    if resolved in _SEEDABLE:
        seed = _seed_arg(node)
        if seed is None or (
            isinstance(seed, ast.Constant) and seed.value is None
        ):
            return (
                f"{resolved}() without a seed is entropy-seeded; derive "
                "the seed from (host, op)"
            )
        return None
    if resolved.startswith("random.SystemRandom"):
        return "random.SystemRandom is OS entropy; never reproducible"
    if resolved.startswith("random."):
        return (
            f"{resolved}() draws from the global stdlib RNG; use an "
            "injected seeded Generator"
        )
    if resolved.startswith("numpy.random."):
        return (
            f"legacy {resolved} uses hidden global state; use "
            "numpy.random.default_rng(seed)"
        )
    return None


def taints_to_json(taints: set[Taint]) -> list[list]:
    return sorted([list(t) for t in taints])


def taints_from_json(data: list[list]) -> set[Taint]:
    return {tuple(t) for t in data}


def _walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Nodes of one scope: nested defs/lambdas/classes yielded, not entered."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))


def _store_roots(target: ast.AST) -> Iterator[ast.AST]:
    """Leaf store targets under tuple/list/star unpacking."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _store_roots(elt)
    elif isinstance(target, ast.Starred):
        yield from _store_roots(target.value)
    else:
        yield target


def _chain_root(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _annotation_type(node: ast.AST | None, aliases: dict[str, str]) -> str | None:
    """Best-effort dotted type from an annotation (unwraps ``X | None``)."""
    if node is None:
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_type(node.left, aliases)
    if isinstance(node, ast.Subscript):
        outer = resolve_name(node.value, aliases)
        if outer and outer.rsplit(".", 1)[-1] in ("Optional", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_type(inner, aliases)
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _annotation_type(
                ast.parse(node.value, mode="eval").body, aliases
            )
        except SyntaxError:
            return None
    return resolve_name(node, aliases)


def _constant_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _keyword(call: ast.Call, name: str) -> ast.AST | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _blocking(call: ast.Call) -> bool | None:
    """A call's ``blocking`` argument; omitted is True (``allreduce_sum``
    and ``sync_round`` both default to blocking), a non-constant None."""
    node = _keyword(call, "blocking")
    if node is None:
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    return None


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


def _comm_op(node: ast.Call, method: str, scope_node: ast.AST) -> dict:
    """The comm-op record of one call: its line and method, plus the tag
    of a send or drain (``None`` when not a constant), the ``blocking``
    argument of a collective or round, or whether a barrier is guarded."""
    op: dict[str, Any] = {"line": node.lineno, "op": method}
    tag = _keyword(node, "tag")
    if method in ("send", "send_batch"):
        op["tag"] = "default" if tag is None else _constant_str(tag)
    elif method in ("recv_all", "recv_all_batch"):
        # Communicator.recv_all(dst, tag) takes the tag positionally.
        op["tag"] = _constant_str(tag) if tag is not None else next(
            (t for a in node.args if (t := _constant_str(a)) is not None),
            "default",
        )
    elif method in ("allreduce_sum", "sync_round"):
        op["blocking"] = _blocking(node)
    elif method == "barrier":
        op["guarded"] = _under_blocking_guard(node, scope_node)
    return op


@dataclass
class FunctionSummary:
    """Everything the link phase needs to know about one function."""

    qual: str
    name: str
    line: int
    cls: str = ""  # enclosing class qual, "" for free functions
    params: list[str] = field(default_factory=list)
    none_defaults: list[str] = field(default_factory=list)
    calls: list[dict] = field(default_factory=list)
    comm: list[dict] = field(default_factory=list)
    rng: list[dict] = field(default_factory=list)
    sinks: list[dict] = field(default_factory=list)
    writes: list[dict] = field(default_factory=list)
    return_taints: list[list] = field(default_factory=list)
    return_params: list[str] = field(default_factory=list)
    return_ship: dict | None = None
    has_yield: bool = False

    def to_dict(self) -> dict:
        return {
            "qual": self.qual, "name": self.name, "line": self.line,
            "cls": self.cls, "params": self.params,
            "none_defaults": self.none_defaults, "calls": self.calls,
            "comm": self.comm, "rng": self.rng, "sinks": self.sinks,
            "writes": self.writes, "return_taints": self.return_taints,
            "return_params": self.return_params,
            "return_ship": self.return_ship, "has_yield": self.has_yield,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(**data)


@dataclass
class ModuleSummary:
    """One file's contribution to the program model."""

    rel: str
    module: str  # dotted module name, e.g. "repro.runtime.comm"
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, dict] = field(default_factory=dict)
    host_tasks: list[dict] = field(default_factory=list)
    #: The phase a module-level ``__phase_contract__`` opts it into.
    phase_contract: str | None = None

    def to_dict(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "rel": self.rel,
            "module": self.module,
            "aliases": self.aliases,
            "functions": {q: f.to_dict() for q, f in self.functions.items()},
            "classes": self.classes,
            "host_tasks": self.host_tasks,
            "phase_contract": self.phase_contract,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            rel=data["rel"],
            module=data["module"],
            aliases=data["aliases"],
            functions={
                q: FunctionSummary.from_dict(f)
                for q, f in data["functions"].items()
            },
            classes=data["classes"],
            host_tasks=data["host_tasks"],
            phase_contract=data["phase_contract"],
        )


class _Scope:
    """One function scope (or the ``<module>`` pseudo-scope) mid-extraction."""

    def __init__(
        self,
        node: ast.AST,
        qual: str,
        cls_qual: str,
        parent: "_Scope | None",
        aliases: dict[str, str],
    ):
        self.node = node
        self.qual = qual
        self.cls_qual = cls_qual
        self.parent = parent
        self.aliases = aliases
        self.params: list[str] = []
        self.none_defaults: set[str] = set()
        self.locals: set[str] = set()
        self.globals_decl: set[str] = set()
        self.nonlocal_decl: set[str] = set()
        self.var_types: dict[str, str] = {}
        #: name -> value expressions assigned to it (for ship resolution)
        self.assign_map: dict[str, list[ast.AST]] = {}
        #: (target names, value expr, extra taint atoms) for the fixpoint
        self.assigns: list[tuple[list[str], ast.AST | None, set[Taint]]] = []
        self.returns: list[ast.AST | None] = []
        self.calls: list[ast.Call] = []
        self.call_index: dict[int, int] = {}
        self.nested_defs: dict[str, str] = {}  # name -> child qual
        self.has_yield = False
        if isinstance(node, ast.Lambda):
            self.returns.append(node.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            self._bind_params(node.args)

    def _bind_params(self, args: ast.arguments) -> None:
        positional = [*args.posonlyargs, *args.args]
        for a in positional:
            self.params.append(a.arg)
            ann = _annotation_type(a.annotation, self.aliases)
            if ann:
                self.var_types[a.arg] = ann
        for a, default in zip(
            reversed(positional), reversed(args.defaults)
        ):
            if isinstance(default, ast.Constant) and default.value is None:
                self.none_defaults.add(a.arg)
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            self.params.append(a.arg)
            ann = _annotation_type(a.annotation, self.aliases)
            if ann:
                self.var_types[a.arg] = ann
            if isinstance(default, ast.Constant) and default.value is None:
                self.none_defaults.add(a.arg)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                self.params.append(extra.arg)
        self.locals |= set(self.params)

    def classify(self, name: str) -> str:
        """local | param | closure | global for a root name."""
        if name in self.nonlocal_decl:
            return "closure"
        if name in self.globals_decl:
            return "global"
        if name in self.params:
            return "param"
        if name in self.locals:
            return "local"
        scope = self.parent
        while scope is not None and scope.parent is not None:
            if name in scope.locals:
                return "closure"
            scope = scope.parent
        return "global"

    def lookup_type(self, name: str) -> str:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.var_types:
                return scope.var_types[name]
            scope = scope.parent
        return ""


class _Extractor:
    """Single-walk extraction of a :class:`ModuleSummary`."""

    def __init__(self, ms: ModuleSource, module_name: str):
        self.ms = ms
        self.module_name = module_name
        self.aliases = dict(ms.aliases)
        self._add_relative_aliases()
        self.summary = ModuleSummary(
            rel=ms.rel, module=module_name, aliases=self.aliases,
            phase_contract=explicit_phase(ms),
        )
        self._lambda_quals: dict[int, str] = {}

    def _add_relative_aliases(self) -> None:
        """Resolve ``from ..pkg import name`` against the module's package."""
        parts = self.module_name.split(".")
        for node in ast.walk(self.ms.tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            base = parts[: len(parts) - node.level]
            if not base and node.level > len(parts):
                continue  # relative import escaping the analyzed root
            target = ".".join(base)
            if node.module:
                target = f"{target}.{node.module}" if target else node.module
            for a in node.names:
                local = a.asname or a.name
                self.aliases.setdefault(
                    local, f"{target}.{a.name}" if target else a.name
                )

    # -- scope discovery ------------------------------------------------

    def run(self) -> ModuleSummary:
        module_scope = _Scope(self.ms.tree, "<module>", "", None, self.aliases)
        scopes = [module_scope]
        self._discover(self.ms.tree, "", "", module_scope, scopes)
        for scope in scopes:
            self._extract_scope(scope)
        return self.summary

    def _discover(
        self,
        node: ast.AST,
        qual_prefix: str,
        cls_qual: str,
        parent_scope: _Scope,
        scopes: list[_Scope],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(
                    parent_scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qual = f"{parent_scope.qual}.<locals>.{child.name}"
                    parent_scope.nested_defs[child.name] = qual
                elif cls_qual:
                    qual = f"{cls_qual}.{child.name}"
                else:
                    qual = child.name
                scope = _Scope(child, qual, cls_qual, parent_scope, self.aliases)
                scopes.append(scope)
                if cls_qual and cls_qual in self.summary.classes:
                    self.summary.classes[cls_qual]["methods"][child.name] = qual
                self._discover(child, qual, "", scope, scopes)
            elif isinstance(child, ast.ClassDef):
                cqual = f"{cls_qual}.{child.name}" if cls_qual else child.name
                self.summary.classes[cqual] = {
                    "name": child.name,
                    "qual": cqual,
                    "line": child.lineno,
                    "bases": [
                        r for b in child.bases
                        if (r := resolve_name(b, self.aliases)) is not None
                    ],
                    "methods": {},
                    "init_ship": [],
                }
                # Class bodies are not independent closures: methods see
                # the scope *enclosing* the class, so thread parent_scope.
                self._discover(child, qual_prefix, cqual, parent_scope, scopes)
            elif isinstance(child, ast.Lambda):
                name = f"<lambda:{child.lineno}:{child.col_offset}>"
                qual = (
                    name if parent_scope.qual == "<module>"
                    else f"{parent_scope.qual}.<locals>.{name}"
                )
                self._lambda_quals[id(child)] = qual
                scope = _Scope(child, qual, "", parent_scope, self.aliases)
                scopes.append(scope)
                self._discover(child, qual, "", scope, scopes)
            else:
                self._discover(
                    child, qual_prefix, cls_qual, parent_scope, scopes
                )

    # -- per-scope extraction -------------------------------------------

    def _extract_scope(self, scope: _Scope) -> None:
        self._collect_bindings(scope)
        env = self._taint_fixpoint(scope)
        penv = self._param_fixpoint(scope)
        fn = FunctionSummary(
            qual=scope.qual,
            name=(
                "<lambda>" if isinstance(scope.node, ast.Lambda)
                else getattr(scope.node, "name", "<module>")
            ),
            line=getattr(scope.node, "lineno", 1),
            cls=scope.cls_qual,
            params=list(scope.params),
            none_defaults=sorted(scope.none_defaults),
            has_yield=scope.has_yield,
        )
        self._emit_calls(scope, env, penv, fn)
        self._emit_effects(scope, env, fn)
        self._emit_returns(scope, env, penv, fn)
        if scope.cls_qual and fn.name == "__init__":
            self._emit_init_ship(scope)
        self.summary.functions[scope.qual] = fn

    def _collect_bindings(self, scope: _Scope) -> None:
        """One pass: locals, assignments, calls, yields, var types."""
        set_atom = lambda node: {  # noqa: E731
            ("src", "set-order", node.lineno, "iteration over a set")
        }
        for node in _walk_scope(scope.node):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                scope.locals.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                scope.locals.add(node.name)
            elif isinstance(node, ast.Global):
                scope.globals_decl |= set(node.names)
            elif isinstance(node, ast.Nonlocal):
                scope.nonlocal_decl |= set(node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    scope.locals.add((a.asname or a.name).split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                scope.locals.add(node.name)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                scope.has_yield = True
            elif isinstance(node, ast.Return):
                scope.returns.append(node.value)
            elif isinstance(node, ast.Call):
                if not self._is_source_call(node):
                    scope.call_index[id(node)] = len(scope.calls)
                    scope.calls.append(node)

            names: list[str] = []
            value: ast.AST | None = None
            extra: set[Taint] = set()
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    for leaf in _store_roots(t):
                        if isinstance(leaf, ast.Name):
                            names.append(leaf.id)
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    names = [node.target.id]
                    ann = _annotation_type(node.annotation, self.aliases)
                    if ann:
                        scope.var_types.setdefault(node.target.id, ann)
                value = node.value
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    names = [node.target.id]
                value = node.value
            elif isinstance(node, ast.NamedExpr):
                if isinstance(node.target, ast.Name):
                    names = [node.target.id]
                value = node.value
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                names = [
                    leaf.id for leaf in _store_roots(node.target)
                    if isinstance(leaf, ast.Name)
                ]
                value = node.iter
                if _SET_RULE._is_set_expr(node.iter):
                    extra = set_atom(node.iter)
            elif isinstance(node, ast.withitem) and node.optional_vars:
                names = [
                    leaf.id for leaf in _store_roots(node.optional_vars)
                    if isinstance(leaf, ast.Name)
                ]
                value = node.context_expr
            elif isinstance(node, ast.comprehension):
                names = [
                    leaf.id for leaf in _store_roots(node.target)
                    if isinstance(leaf, ast.Name)
                ]
                scope.locals.update(names)
                value = node.iter
                if _SET_RULE._is_set_expr(node.iter):
                    extra = set_atom(node.iter)
            if names and (value is not None or extra):
                scope.assigns.append((names, value, extra))
                for n in names:
                    if value is not None:
                        scope.assign_map.setdefault(n, []).append(value)
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    ctor = resolve_name(node.value.func, self.aliases)
                    if ctor:
                        for n in names:
                            scope.var_types[n] = ctor

    # -- taint ----------------------------------------------------------

    def _is_source_call(self, node: ast.Call) -> Taint | None:
        resolved = resolve_name(node.func, self.aliases)
        if resolved is None:
            return None
        line = node.lineno
        if resolved in _CLOCKS:
            return ("src", "wall-clock", line, resolved)
        if resolved == "id":
            return ("src", "id", line, "id() is an address, not a value")
        if unseeded_rng(resolved, node) is not None:
            return ("src", "unseeded-rng", line, resolved)
        return None

    def _expr_taints(self, expr: ast.AST, scope: _Scope, env: dict) -> set:
        if isinstance(expr, (ast.Lambda, ast.Constant)):
            return set()
        if isinstance(expr, ast.Name):
            return set(env.get(expr.id, ()))
        if isinstance(expr, ast.Call):
            src = self._is_source_call(expr)
            if src is not None:
                return {src}
            resolved = resolve_name(expr.func, self.aliases)
            inner: set = set()
            for a in expr.args:
                inner |= self._expr_taints(a, scope, env)
            for kw in expr.keywords:
                inner |= self._expr_taints(kw.value, scope, env)
            if resolved == "sorted":
                return {t for t in inner if t[:2] != ("src", "set-order")}
            idx = scope.call_index.get(id(expr))
            if idx is None:
                return inner
            return {("call", idx, expr.lineno)}
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            out: set = set()
            for gen in expr.generators:
                out |= self._expr_taints(gen.iter, scope, env)
                if _SET_RULE._is_set_expr(gen.iter):
                    out.add(("src", "set-order", gen.iter.lineno,
                             "comprehension over a set"))
            for part in ast.iter_child_nodes(expr):
                if not isinstance(part, ast.comprehension):
                    out |= self._expr_taints(part, scope, env)
            return out
        out = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr) or isinstance(
                child, (ast.keyword, ast.Starred)
            ):
                out |= self._expr_taints(child, scope, env)
        return out

    def _taint_fixpoint(self, scope: _Scope) -> dict:
        env: dict[str, set] = {}
        for _ in range(10):
            changed = False
            for names, value, extra in scope.assigns:
                taints = set(extra)
                if value is not None:
                    taints |= self._expr_taints(value, scope, env)
                for n in names:
                    have = env.setdefault(n, set())
                    if not taints <= have:
                        have |= taints
                        changed = True
            if not changed:
                break
        return env

    # -- parameter flow -------------------------------------------------

    def _expr_params(self, expr: ast.AST, scope: _Scope, penv: dict) -> set:
        if isinstance(expr, ast.Name):
            if expr.id in scope.params:
                return {expr.id}
            return set(penv.get(expr.id, ()))
        if isinstance(expr, (ast.Call, ast.Lambda, ast.ListComp, ast.SetComp,
                             ast.DictComp, ast.GeneratorExp, ast.Constant)):
            return set()
        out: set = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.keyword, ast.Starred)):
                out |= self._expr_params(child, scope, penv)
        return out

    def _param_fixpoint(self, scope: _Scope) -> dict:
        penv: dict[str, set] = {}
        for _ in range(10):
            changed = False
            for names, value, _extra in scope.assigns:
                if value is None:
                    continue
                params = self._expr_params(value, scope, penv)
                for n in names:
                    have = penv.setdefault(n, set())
                    if not params <= have:
                        have |= params
                        changed = True
            if not changed:
                break
        return penv

    # -- emission -------------------------------------------------------

    def _arg_param(self, arg: ast.AST, scope: _Scope, penv: dict) -> str | None:
        if not isinstance(arg, ast.Name):
            return None
        candidates = (
            {arg.id} if arg.id in scope.params else penv.get(arg.id, set())
        )
        return next(iter(candidates)) if len(candidates) == 1 else None

    def _receiver(self, func: ast.Attribute, scope: _Scope) -> str:
        """Dotted type of a method call's receiver ("" when unknown)."""
        base = func.value
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if not isinstance(base, ast.Name):
            return ""
        if base.id == "self" and scope.cls_qual:
            return f"~{scope.cls_qual}"
        # Only a direct `name.method(...)` gets the variable's type —
        # deeper chains (`a.b.method()`) would need field typing.
        if isinstance(func.value, ast.Name):
            return scope.lookup_type(func.value.id)
        return ""

    def _emit_calls(
        self, scope: _Scope, env: dict, penv: dict, fn: FunctionSummary
    ) -> None:
        for node in scope.calls:
            raw = dotted_name(node.func) or ""
            resolved = resolve_name(node.func, self.aliases) or ""
            method = ""
            recv = ""
            if isinstance(node.func, ast.Attribute):
                method = node.func.attr
                recv = self._receiver(node.func, scope)
            recv_root = None
            if isinstance(node.func, ast.Attribute):
                base = _chain_root(node.func.value)
                if base is not None:
                    recv_root = [base, scope.classify(base)]
            slots: list[tuple[str, ast.AST]] = [
                (str(i), a) for i, a in enumerate(node.args)
            ] + [
                (f"kw:{kw.arg}", kw.value)
                for kw in node.keywords if kw.arg is not None
            ]
            none_slots, pargs, rargs = [], {}, {}
            targs: set = set()
            for slot, arg in slots:
                if isinstance(arg, ast.Constant) and arg.value is None:
                    none_slots.append(slot)
                p = self._arg_param(arg, scope, penv)
                if p is not None:
                    pargs[slot] = p
                root = _chain_root(arg)
                if root is not None:
                    rargs[slot] = [root, scope.classify(root)]
                targs |= self._expr_taints(arg, scope, env)
            atom = {
                "line": node.lineno,
                "col": node.col_offset,
                "raw": raw,
                "callee": resolved,
                "method": method,
                "recv": recv,
                "recv_root": recv_root,
                "nargs": len(node.args),
                "kwnames": sorted(
                    kw.arg for kw in node.keywords if kw.arg is not None
                ),
                "none": none_slots,
                "pargs": pargs,
                "rargs": rargs,
                "targs": taints_to_json(targs),
            }
            fn.calls.append(atom)
            self._maybe_host_task(node, raw, scope)
            if method in COMM_CALLS:
                fn.comm.append(_comm_op(node, method, scope.node))

    def _emit_rng(
        self, node: ast.Call, scope: _Scope, fn: FunctionSummary
    ) -> None:
        """Record an unseeded draw (``why``) or a seed-parameter
        construction (``seed_param``) — the two RNG introductions."""
        resolved = resolve_name(node.func, self.aliases)
        if resolved is None:
            return
        seed = _seed_arg(node) if resolved in _SEEDABLE else None
        if isinstance(seed, ast.Name) and seed.id in scope.params:
            why, param = "", seed.id
        else:
            why, param = unseeded_rng(resolved, node) or "", ""
        if why or param:
            fn.rng.append({
                "line": node.lineno,
                "col": node.col_offset,
                "callee": resolved,
                "seed_param": param,
                "why": why,
            })

    def _maybe_host_task(
        self, node: ast.Call, raw: str, scope: _Scope
    ) -> None:
        if raw.split(".")[-1] != "HostTask":
            return
        fn_arg: ast.AST | None = node.args[1] if len(node.args) >= 2 else None
        payload: ast.AST | None = node.args[2] if len(node.args) >= 3 else None
        for kw in node.keywords:
            if kw.arg == "fn":
                fn_arg = kw.value
            elif kw.arg == "payload":
                payload = kw.value
        if isinstance(fn_arg, ast.Name):
            body, kind = fn_arg.id, "name"
        elif isinstance(fn_arg, ast.Lambda):
            body, kind = self._lambda_quals[id(fn_arg)], "lambda"
        elif fn_arg is not None and dotted_name(fn_arg):
            body, kind = dotted_name(fn_arg) or "", "attr"
        else:
            body, kind = "", ""
        self.summary.host_tasks.append({
            "line": node.lineno,
            "col": node.col_offset,
            "enclosing": scope.qual,
            "fn": body,
            "fn_kind": kind,
            "payload": (
                None if payload is None else self._ship(payload, scope, 0, ())
            ),
            "payload_line": (
                payload.lineno if payload is not None else node.lineno
            ),
        })

    def _emit_effects(
        self, scope: _Scope, env: dict, fn: FunctionSummary
    ) -> None:
        for node in _walk_scope(scope.node):
            if isinstance(node, ast.Attribute) and node.attr == "comm":
                fn.comm.append({"line": node.lineno, "op": ".comm"})
            if isinstance(node, ast.Call):
                self._emit_rng(node, scope, fn)
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                for leaf in _store_roots(target):
                    self._emit_write(leaf, value, scope, env, fn)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("send", "send_batch", "add")
            ):
                # A tainted value only *sinks* when it lands in state
                # that outlives the function: a `.add` into a local
                # scratch set is membership bookkeeping, not state.
                recv = _chain_root(node.func.value)
                if recv is not None and scope.classify(recv) == "local":
                    continue
                taints: set = set()
                for a in node.args:
                    taints |= self._expr_taints(a, scope, env)
                for kw in node.keywords:
                    taints |= self._expr_taints(kw.value, scope, env)
                if taints:
                    fn.sinks.append({
                        "line": node.lineno,
                        "op": node.func.attr,
                        "taints": taints_to_json(taints),
                    })
        fn.comm.sort(key=lambda c: (c["line"], c["op"]))

    def _emit_write(
        self,
        leaf: ast.AST,
        value: ast.AST | None,
        scope: _Scope,
        env: dict,
        fn: FunctionSummary,
    ) -> None:
        if isinstance(leaf, ast.Name):
            kind = scope.classify(leaf.id)
            if kind not in ("closure", "global"):
                return
            if kind == "global" and leaf.id not in scope.globals_decl:
                return  # plain Name store without `global` binds a local
            root = leaf.id
        elif isinstance(leaf, (ast.Subscript, ast.Attribute)):
            root = _chain_root(leaf)  # type: ignore[assignment]
            if root is None:
                return
            kind = scope.classify(root)
            if kind == "local":
                return
        else:
            return
        taints = (
            self._expr_taints(value, scope, env) if value is not None else set()
        )
        fn.writes.append({
            "line": leaf.lineno,
            "root": root,
            "kind": kind,
            "is_import": root in self.aliases,
            "taints": taints_to_json(taints),
        })

    def _emit_returns(
        self, scope: _Scope, env: dict, penv: dict, fn: FunctionSummary
    ) -> None:
        taints: set = set()
        params: set = set()
        ships: list[dict] = []
        for value in scope.returns:
            if value is None:
                continue
            taints |= self._expr_taints(value, scope, env)
            params |= self._expr_params(value, scope, penv)
            ships.append(self._ship(value, scope, 0, ()))
        fn.return_taints = taints_to_json(taints)
        fn.return_params = sorted(params)
        if len(ships) == 1:
            fn.return_ship = ships[0]
        elif ships:
            fn.return_ship = {"k": "any", "alts": ships}

    def _emit_init_ship(self, scope: _Scope) -> None:
        cls = self.summary.classes.get(scope.cls_qual)
        if cls is None:
            return
        for node in _walk_scope(scope.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                for leaf in _store_roots(target):
                    if (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    ):
                        cls["init_ship"].append({
                            "attr": leaf.attr,
                            "line": node.lineno,
                            "ship": self._ship(node.value, scope, 0, ()),
                        })

    # -- shippability trees ---------------------------------------------

    def _ship(
        self,
        expr: ast.AST,
        scope: _Scope,
        depth: int,
        seen: tuple[str, ...],
    ) -> dict:
        """Symbolic value tree for the payload-shippability analysis."""
        if depth > 8:
            return {"k": "ok"}
        line = getattr(expr, "lineno", 0)
        if isinstance(expr, ast.Constant):
            return {"k": "ok"}
        if isinstance(expr, ast.Lambda):
            return {"k": "lambda", "line": line}
        if isinstance(expr, ast.GeneratorExp):
            return {"k": "gen", "line": line}
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return {
                "k": "items",
                "items": [
                    self._ship(e, scope, depth + 1, seen) for e in expr.elts
                ],
            }
        if isinstance(expr, ast.Dict):
            items = [
                self._ship(e, scope, depth + 1, seen)
                for e in (*expr.keys, *expr.values) if e is not None
            ]
            return {"k": "items", "items": items}
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return {"k": "ok"}  # built eagerly; element types coarse-ok
        if isinstance(expr, ast.Starred):
            return self._ship(expr.value, scope, depth + 1, seen)
        if isinstance(expr, ast.IfExp):
            return {
                "k": "any",
                "alts": [
                    self._ship(expr.body, scope, depth + 1, seen),
                    self._ship(expr.orelse, scope, depth + 1, seen),
                ],
            }
        if isinstance(expr, ast.Await):
            return self._ship(expr.value, scope, depth + 1, seen)
        if isinstance(expr, ast.Call):
            raw = dotted_name(expr.func) or ""
            return {
                "k": "call",
                "line": line,
                "raw": raw,
                "callee": resolve_name(expr.func, self.aliases) or "",
                "method": (
                    expr.func.attr
                    if isinstance(expr.func, ast.Attribute) else ""
                ),
                "recv": (
                    self._receiver(expr.func, scope)
                    if isinstance(expr.func, ast.Attribute) else ""
                ),
                "args": [
                    self._ship(a, scope, depth + 1, seen) for a in expr.args
                ] + [
                    self._ship(kw.value, scope, depth + 1, seen)
                    for kw in expr.keywords
                ],
            }
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr) or ""
            root = _chain_root(expr)
            return {
                "k": "attr",
                "line": line,
                "dotted": dotted,
                "resolved": resolve_name(expr, self.aliases) or "",
                "root_type": scope.lookup_type(root) if root else "",
            }
        if isinstance(expr, ast.Subscript):
            return self._ship(expr.value, scope, depth + 1, seen)
        if isinstance(expr, ast.Name):
            return self._name_ship(expr, scope, depth, seen)
        return {"k": "ok"}

    def _name_ship(
        self,
        expr: ast.Name,
        scope: _Scope,
        depth: int,
        seen: tuple[str, ...],
    ) -> dict:
        name = expr.id
        line = expr.lineno
        if name in seen:
            return {"k": "ok"}
        # A reference to a function defined in an enclosing function is
        # a closure-carrying nested function: never picklable.
        probe: _Scope | None = scope
        while probe is not None:
            if name in probe.nested_defs:
                return {"k": "nestedfn", "name": name, "line": line}
            if name in probe.params:
                return {"k": "ok"}
            if name in probe.assign_map:
                alts = [
                    self._ship(v, probe, depth + 1, seen + (name,))
                    for v in probe.assign_map[name][:4]
                ]
                if len(alts) == 1:
                    return alts[0]
                return {"k": "any", "alts": alts}
            if name in probe.locals:
                return {"k": "ok"}  # loop var / import / def: coarse-ok
            probe = probe.parent
        vtype = scope.lookup_type(name)
        return {
            "k": "ref",
            "name": self.aliases.get(name, name),
            "line": line,
            "root_type": vtype,
        }


def summarize_module(ms: ModuleSource, module_name: str) -> ModuleSummary:
    """Extract the cacheable whole-program summary of one parsed module."""
    return _Extractor(ms, module_name).run()
