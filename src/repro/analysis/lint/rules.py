"""The bundled SPMD-safety rules.

Each rule enforces one clause of the determinism contract (see
``docs/ANALYSIS.md``), one module at a time; the properties that need
the whole program (unseeded RNG, the shared Communicator and captured
state reached from a task body, the phase contracts) are the ``deep-*``
rules of
:mod:`repro.analysis.ipa.analyses`.  Rules are heuristic by design —
they must never crash on valid Python, and anything they over-flag can
be suppressed with a justified ``# repro-lint: disable=<rule>`` comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import (
    ERROR,
    WARNING,
    Finding,
    LintRule,
    ModuleSource,
    dotted_name,
    register,
    resolve_name,
)

__all__ = [
    "WallClockRule",
    "UnorderedIterationRule",
    "UnorderedDictSendRule",
    "LedgerBypassRule",
    "UnaccountedSendRule",
    "ScalarSendInHotLoopRule",
    "SwallowedErrorRule",
]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
# Name-resolution helpers live in ``base`` (shared with the
# whole-program engine); keep short local aliases so rule code stays
# terse.
_dotted = dotted_name
_resolve = resolve_name


# ----------------------------------------------------------------------
# Nondeterminism sources
# ----------------------------------------------------------------------
@register
class WallClockRule(LintRule):
    """No wall-clock reads outside the cost model and benchmarks.

    Simulated time is the *output* of the cost model; reading a real
    clock anywhere else lets nondeterministic host speed leak into
    results that must be a pure function of (graph, policy, seed).
    """

    name = "wall-clock"
    severity = ERROR
    description = (
        "wall-clock read outside runtime/cost_model.py or benchmarks; "
        "simulated time must come from the cost model"
    )
    exempt_paths = ("runtime/cost_model.py", "bench*")

    _CLOCKS = {
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = module.aliases
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            parent = getattr(node, "_repro_parent", None)
            if isinstance(parent, ast.Attribute):
                continue  # flag only the full chain, once
            target = _resolve(node, aliases)
            if target in self._CLOCKS:
                yield self.finding(
                    module, node,
                    f"{target} read; results must not depend on real "
                    "host speed",
                )


@register
class UnorderedIterationRule(LintRule):
    """Set iteration order must never reach ordered state.

    ``set`` iteration order depends on insertion history and (for
    strings) hash randomization.  Iterating one — or materializing one
    with ``list``/``tuple``/``enumerate`` — feeds that order into
    whatever consumes it; if that is partition state or a ledger merge,
    reproducibility is gone.  ``sorted(...)`` is the deterministic fix.

    Tracked set expressions cover literals, ``set()``/``frozenset()``
    constructions, set algebra, consistently-set-typed locals, *and*
    consistently-set-typed ``self`` attributes (``self.pending =
    set()`` in any method of the class).  The attribute half exists
    because a mutation campaign proved the gap: stripping ``sorted``
    from ``sorted(self._fired)`` in the fault injector's state export
    survived every detector while the local-variable form was caught
    (see ``MUTATION_MATRIX.json``, ``unsort-iteration:runtime/
    faults.py#1``/``#2``).
    """

    name = "unordered-iteration"
    severity = ERROR
    description = (
        "iteration over a set reaches order-sensitive state; wrap in "
        "sorted(...)"
    )

    _ORDER_CONSUMERS = {"list", "tuple", "enumerate", "iter", "reversed"}
    _SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

    @staticmethod
    def _self_attr(node: ast.AST) -> str | None:
        """``X`` when ``node`` is exactly ``self.X``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _is_set_expr(
        self,
        node: ast.AST,
        set_vars: frozenset[str] = frozenset(),
        set_attrs: frozenset[str] = frozenset(),
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and node.id in set_vars:
            return True
        attr = self._self_attr(node)
        if attr is not None and attr in set_attrs:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            return self._is_set_expr(
                node.left, set_vars, set_attrs
            ) or self._is_set_expr(node.right, set_vars, set_attrs)
        return False

    @staticmethod
    def _walk_scope(root: ast.AST) -> Iterator[ast.AST]:
        """Walk ``root`` without descending into nested scopes."""
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                       ast.ClassDef)
            ):
                stack.extend(ast.iter_child_nodes(node))

    def _scope_set_vars(self, scope: ast.AST) -> frozenset[str]:
        """Names whose every assignment in ``scope`` is a set expression."""
        is_set: dict[str, bool] = {}
        for node in self._walk_scope(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    sety = self._is_set_expr(node.value)
                    is_set[target.id] = is_set.get(target.id, True) and sety
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
                target = node.target
                if isinstance(target, ast.Name):
                    is_set[target.id] = False
        return frozenset(name for name, ok in is_set.items() if ok)

    def _class_set_attrs(self, cls: ast.ClassDef) -> frozenset[str]:
        """Attrs whose every ``self.X = ...`` in the class is a set.

        Walks the whole class body (all methods, nested scopes): one
        non-set assignment anywhere poisons the attribute, as does any
        augmented assignment or loop-target use — mirroring the local
        tracking's conservatism.
        """
        is_set: dict[str, bool] = {}
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = self._self_attr(node.targets[0])
                if attr is not None:
                    sety = self._is_set_expr(node.value)
                    is_set[attr] = is_set.get(attr, True) and sety
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                attr = self._self_attr(node.target)
                if attr is not None:
                    sety = self._is_set_expr(node.value)
                    is_set[attr] = is_set.get(attr, True) and sety
            elif isinstance(node, (ast.AugAssign, ast.For)):
                attr = self._self_attr(node.target)
                if attr is not None:
                    is_set[attr] = False
        return frozenset(attr for attr, ok in is_set.items() if ok)

    def _enclosing_set_attrs(self, scope: ast.AST) -> frozenset[str]:
        """Set-typed ``self`` attrs of the class ``scope`` sits inside."""
        node = scope
        while node is not None:
            if isinstance(node, ast.ClassDef):
                cached = self._attr_cache.get(node)
                if cached is None:
                    cached = self._class_set_attrs(node)
                    self._attr_cache[node] = cached
                return cached
            node = getattr(node, "_repro_parent", None)
        return frozenset()

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        self._attr_cache: dict[ast.AST, frozenset[str]] = {}
        scopes: list[ast.AST] = [module.tree] + [
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            set_vars = self._scope_set_vars(scope)
            set_attrs = self._enclosing_set_attrs(scope)
            yield from self._check_scope(module, scope, set_vars, set_attrs)

    def _check_scope(
        self,
        module: ModuleSource,
        scope: ast.AST,
        set_vars: frozenset[str],
        set_attrs: frozenset[str],
    ) -> Iterator[Finding]:
        for node in self._walk_scope(scope):
            if isinstance(node, ast.For) and self._is_set_expr(
                node.iter, set_vars, set_attrs
            ):
                yield self.finding(
                    module, node.iter,
                    "for-loop over a set has no deterministic order",
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter, set_vars, set_attrs):
                        yield self.finding(
                            module, gen.iter,
                            "comprehension over a set has no "
                            "deterministic order",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_CONSUMERS
                and any(
                    self._is_set_expr(a, set_vars, set_attrs)
                    for a in node.args
                )
            ):
                yield self.finding(
                    module, node,
                    f"{node.func.id}() materializes a set's arbitrary "
                    "order; use sorted(...)",
                )


@register
class UnorderedDictSendRule(LintRule):
    """Dict iteration order must not drive the send sequence.

    Python dicts iterate in insertion order — deterministic for one
    process, but *insertion order itself* is host-dependent whenever
    the dict was filled from received messages, merged ledgers, or any
    per-host work split.  A loop that iterates such a dict and sends
    per entry ships that order into the communication schedule, where
    replay, CommSan byte mirroring, and the pinned accounting all
    depend on it.  Iterate ``sorted(d)``/``sorted(d.items())`` instead.

    This is the set-order rule's sibling gap, promoted after the
    mutation campaign measured the family: local *set* order feeding
    state was caught, while dict-order hazards had no rule at all (see
    the "Mutation soundness" section of ``docs/ANALYSIS.md``).
    """

    name = "unordered-dict-send"
    severity = ERROR
    description = (
        "dict iteration order drives sends; iterate sorted(...) instead"
    )

    _VIEWS = ("items", "keys", "values")
    _SENDS = ("send", "send_batch")
    _DICT_FACTORIES = ("dict", "defaultdict", "Counter", "OrderedDict")

    def _is_dict_expr(self, node: ast.AST, dict_vars: frozenset[str]) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(node, ast.Name) and node.id in dict_vars:
            return True
        if isinstance(node, ast.Call):
            callee = _dotted(node.func)
            if callee is not None and (
                callee.split(".")[-1] in self._DICT_FACTORIES
            ):
                return True
        return False

    def _scope_dict_vars(self, scope: ast.AST) -> frozenset[str]:
        """Names whose every assignment in ``scope`` is a dict expression."""
        is_dict: dict[str, bool] = {}
        for node in UnorderedIterationRule._walk_scope(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    dicty = self._is_dict_expr(node.value, frozenset())
                    is_dict[target.id] = is_dict.get(target.id, True) and dicty
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                dicty = node.value is not None and self._is_dict_expr(
                    node.value, frozenset()
                )
                is_dict[node.target.id] = (
                    is_dict.get(node.target.id, True) and dicty
                )
            elif isinstance(node, (ast.AugAssign, ast.For)):
                target = node.target
                if isinstance(target, ast.Name):
                    is_dict[target.id] = False
        return frozenset(name for name, ok in is_dict.items() if ok)

    def _dict_ordered_iter(
        self, node: ast.AST, dict_vars: frozenset[str]
    ) -> bool:
        """Does ``for ... in node`` follow a dict's insertion order?"""
        if self._is_dict_expr(node, dict_vars):
            return True
        return (
            isinstance(node, ast.Call)
            and not node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._VIEWS
            and self._is_dict_expr(node.func.value, dict_vars)
        )

    def _sends_inside(self, body: list[ast.stmt]) -> ast.Call | None:
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._SENDS
            ):
                return node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                stack.extend(ast.iter_child_nodes(node))
        return None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        scopes: list[ast.AST] = [module.tree] + [
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            dict_vars = self._scope_dict_vars(scope)
            for node in UnorderedIterationRule._walk_scope(scope):
                if not isinstance(node, ast.For):
                    continue
                if not self._dict_ordered_iter(node.iter, dict_vars):
                    continue
                send = self._sends_inside(node.body)
                if send is not None:
                    assert isinstance(send.func, ast.Attribute)
                    yield self.finding(
                        module, node.iter,
                        f"loop over a dict's insertion order issues "
                        f"`{send.func.attr}(...)`; iterate "
                        "sorted(...) so the send sequence is "
                        "host-independent",
                    )


# ----------------------------------------------------------------------
# Host-isolation hazards
# ----------------------------------------------------------------------
@register
class LedgerBypassRule(LintRule):
    """Communicator accounting state is written only by the comm layer.

    Mutating the shared matrices or queues from anywhere but
    ``runtime/comm.py`` produces traffic that a ledger merge cannot
    reproduce — the counters stop being a pure function of the send
    sequence.  A ledger's own fields are packed and unpacked there too
    (``CommLedger.state``/``load``), so the pool ships a worker's
    ledger without naming them.
    """

    name = "ledger-bypass"
    severity = ERROR
    description = (
        "direct mutation of Communicator accounting state outside the "
        "comm layer; use send()/HostView charges"
    )
    exempt_paths = ("runtime/comm.py",)

    _SHARED_ATTRS = {
        "sent_bytes", "sent_messages", "retry_bytes", "retry_messages",
        "backoff_units", "collective_events", "barriers",
        "_queues", "_stream_bytes", "_stream_logical",
    }
    _MUTATORS = {
        "append", "extend", "appendleft", "insert", "clear", "pop",
        "popleft", "update", "remove",
    }

    def _shared_attr(self, node: ast.AST) -> ast.Attribute | None:
        """The `.shared_attr` access inside a (subscripted) chain."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in self._SHARED_ATTRS:
            return node
        return None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
            ):
                hit = self._shared_attr(node.func.value)
                if hit is not None:
                    yield self.finding(
                        module, node,
                        f"`{hit.attr}.{node.func.attr}(...)` mutates "
                        "shared accounting outside the comm layer",
                    )
                continue
            for target in targets:
                hit = self._shared_attr(target)
                if hit is not None:
                    yield self.finding(
                        module, target,
                        f"assignment to shared `{hit.attr}` outside the "
                        "comm layer",
                    )


def _sends_none(call: ast.Call) -> bool:
    """Whether a ``.send(...)`` call's payload is the literal ``None``
    (hosts are never ``None``, so any such argument is the payload)."""
    return any(isinstance(a, ast.Constant) and a.value is None for a in call.args)


@register
class UnaccountedSendRule(LintRule):
    """Every send must carry a real byte charge.

    ``send(..., nbytes=0)`` delivers a payload the accounting never
    sees; sending a ``None`` payload without an explicit ``nbytes``
    does the same (``payload_nbytes(None) == 0``).  Free metadata must
    be declared with an explicit, documented ``nbytes=``.
    """

    name = "unaccounted-send"
    severity = ERROR
    description = (
        "send without a payload_nbytes charge path (None payload or "
        "nbytes=0); declare the modelled size explicitly"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
            ):
                continue
            nbytes = next(
                (kw.value for kw in node.keywords if kw.arg == "nbytes"), None
            )
            if (
                isinstance(nbytes, ast.Constant)
                and isinstance(nbytes.value, int)
                and not isinstance(nbytes.value, bool)
                and nbytes.value == 0
            ):
                yield self.finding(
                    module, node,
                    "send with nbytes=0 carries unaccounted traffic",
                )
            elif nbytes is None and _sends_none(node):
                yield self.finding(
                    module, node,
                    "None payload sizes to 0 bytes; pass an explicit "
                    "nbytes= for the modelled message size",
                )


def explicit_phase(module: ModuleSource) -> str | None:
    """The module-level ``__phase_contract__`` constant, if declared."""
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__phase_contract__"
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            return node.value.value
    return None


def _governing_contracts(module: ModuleSource) -> list:
    """The phase contracts whose *primary* module is ``module``.

    A module is governed when it is ``contract.modules[0]`` of a contract
    in :data:`repro.core.contracts.PHASE_CONTRACTS` (matched by
    package-relative path suffix) or when it opts in explicitly with a
    module-level ``__phase_contract__ = "Phase Name"`` constant.
    """
    try:
        from ...core.contracts import PHASE_CONTRACTS
    except Exception:  # pragma: no cover - partial checkouts
        return []
    explicit = explicit_phase(module)
    if explicit is not None:
        contract = PHASE_CONTRACTS.get(explicit)
        return [contract] if contract is not None else []
    governing = []
    for contract in PHASE_CONTRACTS:
        if not contract.modules:
            continue
        primary = contract.modules[0]
        if module.rel == primary or module.rel.endswith("/" + primary):
            governing.append(contract)
    return governing


@register
class ScalarSendInHotLoopRule(LintRule):
    """Per-element sends in a phase loop belong on the columnar fabric.

    A ``send`` issued once per peer (or worse, once per element) inside a
    ``for``/``while`` loop of a contract-governed phase module is the
    scalar message path: every call pays Python-level pack/charge
    overhead that :meth:`~repro.runtime.executor.HostView.send_batch`
    amortizes over a whole column batch.  A send whose payload is the
    literal ``None`` is accounting-only — it carries nothing to batch —
    and is not flagged; any other intentional per-payload send (control
    traffic) must say so in a suppression justification.
    """

    name = "scalar-send-in-hot-loop"
    severity = WARNING
    description = (
        "per-element send inside a loop in a phase module; batch through "
        "the columnar fabric (send_batch) or justify the per-payload "
        "send; payload=None (accounting-only) is exempt"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not _governing_contracts(module):
            return
        seen: set[int] = set()
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "send"
                    and id(node) not in seen
                    and not _sends_none(node)
                ):
                    seen.add(id(node))
                    yield self.finding(
                        module, node,
                        "scalar `.send` inside a loop; ship one "
                        "MessageBatch per peer via send_batch instead",
                    )


@register
class SwallowedErrorRule(LintRule):
    """An ``except`` body that only ``pass``es erases the failure.

    Fault injection, checkpoint verification, and crash recovery all
    communicate through exceptions; an ``except: pass`` (or a broad
    ``except Exception: pass``) on their paths turns an injected fault
    or a corrupt checkpoint into silent success — the chaos campaign
    then "passes" a run that never exercised the recovery it claims to.
    Handlers that swallow a *fault- or checkpoint-flavoured* exception,
    or any bare/broad catch, are errors; swallowing a specific narrow
    exception is a warning.  Legitimate swallows (e.g. closing an
    already-broken pipe on exit) must say why in a suppression comment.
    """

    name = "swallowed-error"
    severity = ERROR
    description = (
        "except body only passes, dropping the exception; handle it, "
        "re-raise, or justify the swallow in a suppression comment"
    )

    _BROAD = {"Exception", "BaseException"}
    #: Name fragments marking exceptions the robustness machinery
    #: signals through — swallowing these always defeats it.
    _CRITICAL_MARKERS = (
        "Fault", "Checkpoint", "Corruption", "Crash", "Recovery",
        "Unrecoverable", "Retries",
    )

    @staticmethod
    def _only_passes(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or bare `...`
            return False
        return True

    @staticmethod
    def _type_names(node: ast.AST | None) -> list[str]:
        if node is None:
            return []
        exprs = node.elts if isinstance(node, ast.Tuple) else [node]
        names = []
        for expr in exprs:
            dotted = _dotted(expr)
            if dotted is not None:
                names.append(dotted.rsplit(".", 1)[-1])
        return names

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._only_passes(node.body):
                continue
            names = self._type_names(node.type)
            if node.type is None:
                severity, what = ERROR, "bare `except:`"
            elif any(n in self._BROAD for n in names):
                severity = ERROR
                what = f"broad `except {', '.join(names)}`"
            elif any(
                marker in n
                for n in names
                for marker in self._CRITICAL_MARKERS
            ):
                severity = ERROR
                what = (
                    f"`except {', '.join(names)}` on a fault/checkpoint "
                    "signal path"
                )
            else:
                severity = WARNING
                what = f"`except {', '.join(names) or '?'}`"
            yield Finding(
                rule=self.name,
                severity=severity,
                path=module.rel,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{what} swallows the exception without handling it; "
                    "recover, re-raise, or suppress with a justification"
                ),
            )
