"""The whole-program rules of ``repro lint``.

These rules reason over the linked :class:`~repro.analysis.ipa.program.
Program` instead of one module at a time, so helper indirection does
not hide a violation.  Each owns its property at every call depth, the
HostTask body itself included.  A finding reached through calls carries
a **call-chain witness** naming each hop from the entry point to the
offending operation — a finding the reader cannot retrace is a finding
nobody trusts.

Rules:

* ``deep-comm-in-task`` — the shared Communicator (``.comm`` access or
  a phase-global collective) reached from a HostTask body, in the body
  or through helpers at any call depth.  The comm layer itself
  (``runtime/comm.py``, ``runtime/executor.py``, ``runtime/pool.py``,
  ``runtime/colfab.py``) is the sanctioned boundary: traversal stops
  there.
* ``deep-unseeded-rng`` — a global or unseeded RNG draw or
  construction anywhere, and a seed parameter threaded through
  wrappers (``def fresh(seed=None): return default_rng(seed)``) that a
  call site leaves unbound or binds to ``None``.
* ``deep-unshippable-task-capture`` — a HostTask body, or a helper it
  reaches, that writes closure/global state, or mutates a parameter
  bound to captured state, which a forked worker cannot ship back.
* ``deep-determinism-taint`` — a nondeterminism source (wall-clock,
  unseeded RNG, set iteration order, ``id()``) whose value flows
  through returns and calls into partition state, a ledger
  send/charge, or a HostTask result.
* ``deep-unshippable-payload`` — a ``HostTask(payload=...)`` whose
  value tree transitively contains something a forked worker cannot
  unpickle or must not own: locks, open files, sockets, generators,
  lambdas, closure-carrying nested functions, or Communicator/executor
  references.
* ``deep-contract`` — the static half of the phase contracts
  (:mod:`repro.core.contracts`): every comm op a phase's code can emit,
  diffed against the ops its ``PhaseContract`` declares.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ..contracts.model import ContractSet, OpSpec, PhaseContract
from ..lint.base import ERROR, WARNING, Finding, register
from .program import COMM_TYPE_LEAFS, Program, Target
from .summary import (
    PHASE_GLOBAL_CALLS,
    FunctionSummary,
    ModuleSummary,
    taints_from_json,
)

__all__ = ["DeepRule"]

#: Modules that *are* the comm layer: reaching them from a task body is
#: how charges are supposed to flow (via the HostView), so traversal
#: neither descends into nor reports from them.
TRUSTED_RELS = (
    "runtime/comm.py",
    "runtime/executor.py",
    "runtime/pool.py",
    "runtime/colfab.py",
)

#: Callables whose return value can never cross a process boundary.
BAD_FACTORIES = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Semaphore": "a threading.Semaphore",
    "threading.BoundedSemaphore": "a threading.Semaphore",
    "threading.Event": "a threading.Event",
    "threading.Barrier": "a threading.Barrier",
    "threading.local": "thread-local storage",
    "multiprocessing.Lock": "a multiprocessing.Lock",
    "open": "an open file handle",
    "io.open": "an open file handle",
    "os.fdopen": "an open file handle",
    "socket.socket": "a socket",
    "socket.create_connection": "a socket",
    "subprocess.Popen": "a subprocess handle",
    "queue.Queue": "a queue (holds thread locks)",
    "queue.LifoQueue": "a queue (holds thread locks)",
    "queue.PriorityQueue": "a queue (holds thread locks)",
}

_MAX_DEPTH = 12

_SOURCE_LABELS = {
    "wall-clock": "wall-clock read",
    "unseeded-rng": "unseeded RNG draw",
    "set-order": "unordered set iteration",
    "id": "id() address",
}


def _trusted(rel: str) -> bool:
    return any(rel == t or rel.endswith("/" + t) for t in TRUSTED_RELS)


def _hop(msum: ModuleSummary, fn: FunctionSummary, line: int) -> str:
    return f"{msum.module}.{fn.qual} ({msum.rel}:{line})"


def _chain(hops: list[str]) -> str:
    return " -> ".join(hops)


class DeepRule:
    """Base class for whole-program rules (the per-module ones are
    ``LintRule``\\ s; both live in one registry, ``all_rules()``)."""

    name: str = ""
    severity: str = ERROR
    description: str = ""

    def check(self, program: Program) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, rel: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=rel,
            line=line,
            col=col,
            message=message,
        )


def _body_reachable(
    program: Program, msum: ModuleSummary, task: dict
) -> Iterator[tuple[Target, list[str]]]:
    """BFS over the call graph from a HostTask body.

    Yields ``(target, hops)``, the body itself first.  Stops at the
    trusted comm layer and at ``_MAX_DEPTH``.
    """
    body = program.resolve_body(msum, task)
    if body is None:
        return
    start_hop = _hop(body.module, body.fn, body.fn.line)
    queue: list[tuple[Target, list[str]]] = [(body, [start_hop])]
    visited = {body.key}
    while queue:
        target, hops = queue.pop(0)
        yield target, hops
        if len(hops) > _MAX_DEPTH:
            continue
        for atom, callee in program.callees(target.module, target.fn):
            if callee.key in visited or _trusted(callee.module.rel):
                continue
            visited.add(callee.key)
            queue.append(
                (callee, hops + [_hop(callee.module, callee.fn, atom["line"])])
            )


@register
class DeepCommInTaskRule(DeepRule):
    name = "deep-comm-in-task"
    severity = ERROR
    description = (
        "shared Communicator reached from a HostTask body, directly or "
        "through a helper call chain; route charges through the HostView"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        # Anchored at the comm access itself, so the justification for
        # a sanctioned access lives (and suppresses) in one place no
        # matter how many task bodies reach it.
        seen: set[tuple] = set()
        for msum, task in program.host_tasks():
            for target, hops in _body_reachable(program, msum, task):
                for access in target.fn.comm:
                    op = access["op"]
                    if op != ".comm" and op not in PHASE_GLOBAL_CALLS:
                        continue  # a send or drain on the task's own view
                    key = (target.module.rel, access["line"], op)
                    if key in seen:
                        continue
                    seen.add(key)
                    what = (
                        "`.comm`" if op == ".comm"
                        else f"phase-global `{op}`"
                    )
                    yield self.finding(
                        target.module.rel, access["line"], 0,
                        f"{what} is reachable from the HostTask body "
                        f"registered at {msum.rel}:{task['line']}; "
                        f"call chain: {_chain(hops)}",
                    )


@register
class DeepUnseededRngRule(DeepRule):
    name = "deep-unseeded-rng"
    severity = ERROR
    description = (
        "global or unseeded RNG, or a seed parameter threaded through "
        "RNG wrappers left unbound or None at a call site; inject a "
        "seeded np.random.Generator (np.random.default_rng(seed))"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        # rng_params[(rel, qual)][param] = witness chain down to the
        # seedable construction the parameter seeds.
        rng_params: dict[tuple[str, str], dict[str, list[str]]] = {}
        for msum, fn in program.functions():
            for intro in fn.rng:
                if intro["why"]:
                    yield self.finding(
                        msum.rel, intro["line"], intro["col"], intro["why"]
                    )
                    continue
                rng_params.setdefault((msum.rel, fn.qual), {}).setdefault(
                    intro["seed_param"],
                    [
                        f"{msum.module}.{fn.qual} seeds "
                        f"{intro['callee']} with parameter "
                        f"`{intro['seed_param']}` "
                        f"({msum.rel}:{intro['line']})"
                    ],
                )
        findings: dict[tuple, Finding] = {}
        for _ in range(_MAX_DEPTH):
            changed = False
            for msum, fn in program.functions():
                for atom, target in program.callees(msum, fn):
                    threaded = rng_params.get(target.key)
                    if not threaded:
                        continue
                    for param, chain in threaded.items():
                        kind, detail = Program.bind_param(atom, target, param)
                        decided = (
                            kind == "none"
                            or (
                                kind == "omitted"
                                and param in target.fn.none_defaults
                            )
                        )
                        here = _hop(msum, fn, atom["line"])
                        if decided:
                            key = (msum.rel, atom["line"], target.key, param)
                            how = (
                                "passes None for"
                                if kind == "none" else "omits"
                            )
                            findings.setdefault(key, self.finding(
                                msum.rel, atom["line"], atom["col"],
                                f"call {how} seed parameter `{param}` of "
                                f"{target.label()}, reaching an unseeded "
                                f"generator; call chain: "
                                f"{_chain([here] + chain)}",
                            ))
                        elif kind == "param":
                            mine = rng_params.setdefault(
                                (msum.rel, fn.qual), {}
                            )
                            if detail not in mine:
                                mine[detail] = [here] + chain
                                changed = True
            if not changed:
                break
        yield from findings.values()


@register
class DeepUnshippableTaskCaptureRule(DeepRule):
    name = "deep-unshippable-task-capture"
    severity = WARNING
    description = (
        "a HostTask body, or a helper it reaches, writes captured or "
        "global state (or mutates a captured argument), which a forked "
        "worker cannot ship back; return the value and install it via "
        "the task's apply callback"
    )

    #: param -> (origin rel, origin line, chain to the write)
    _Mutates = dict

    def _mutated_params(
        self, program: Program
    ) -> dict[tuple[str, str], dict[str, tuple[str, int, list[str]]]]:
        """Parameters each function (transitively) mutates."""
        mutates: dict[
            tuple[str, str], dict[str, tuple[str, int, list[str]]]
        ] = {}
        for msum, fn in program.functions():
            for write in fn.writes:
                if write["kind"] != "param":
                    continue
                mutates.setdefault((msum.rel, fn.qual), {}).setdefault(
                    write["root"],
                    (
                        msum.rel,
                        write["line"],
                        [
                            f"{msum.module}.{fn.qual} writes "
                            f"`{write['root']}` "
                            f"({msum.rel}:{write['line']})"
                        ],
                    ),
                )
        for _ in range(_MAX_DEPTH):
            changed = False
            for msum, fn in program.functions():
                for atom, target in program.callees(msum, fn):
                    for param, (orel, oline, chain) in list(
                        mutates.get(target.key, {}).items()
                    ):
                        kind, detail = Program.bind_param(atom, target, param)
                        if kind != "param":
                            continue
                        mine = mutates.setdefault((msum.rel, fn.qual), {})
                        if detail not in mine:
                            mine[detail] = (
                                orel, oline,
                                [_hop(msum, fn, atom["line"])] + chain,
                            )
                            changed = True
            if not changed:
                break
        return mutates

    def _bound_capture(
        self, atom: dict, callee, param: str
    ) -> list | None:
        """The captured root a call binds to ``param``, if any.

        ``self`` of a bound-method call binds to the receiver root;
        other parameters bind through their argument slot.
        """
        kind, _ = Program.bind_param(atom, callee, param)
        if kind == "receiver":
            root = atom.get("recv_root")
        else:
            params = callee.fn.params
            if param not in params:
                return None
            idx = params.index(param)
            if callee.kind in ("init", "method"):
                idx -= 1
            slot = None
            if 0 <= idx < atom["nargs"]:
                slot = str(idx)
            elif param in atom["kwnames"]:
                slot = f"kw:{param}"
            root = atom["rargs"].get(slot) if slot is not None else None
        if root is not None and root[1] in ("closure", "global"):
            return root
        return None

    def check(self, program: Program) -> Iterator[Finding]:
        # Anchored at the offending write, so a write that is benign by
        # design (e.g. a recompute-on-miss cache) is justified once, at
        # the line whose surrounding code explains it.
        mutates = self._mutated_params(program)
        seen: set[tuple] = set()
        for msum, task in program.host_tasks():
            for target, hops in _body_reachable(program, msum, task):
                for write in target.fn.writes:
                    if write["kind"] not in ("closure", "global"):
                        continue
                    if write["is_import"]:
                        continue
                    key = ("write", target.key, write["root"], write["line"])
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        target.module.rel, write["line"], 0,
                        f"write to {write['kind']} `{write['root']}` is "
                        f"reached from the HostTask body registered at "
                        f"{msum.rel}:{task['line']}; a forked worker "
                        f"cannot ship it back; call chain: {_chain(hops)}",
                    )
                # Captured state handed into a callee that (transitively)
                # mutates the bound parameter — including the receiver of
                # a bound-method call.
                for atom, callee in program.callees(
                    target.module, target.fn
                ):
                    threaded = mutates.get(callee.key)
                    if not threaded:
                        continue
                    for param, (orel, oline, chain) in threaded.items():
                        bound = self._bound_capture(atom, callee, param)
                        if bound is None:
                            continue
                        key = ("mutate", callee.key, param, orel, oline)
                        if key in seen:
                            continue
                        seen.add(key)
                        here = (
                            f"{callee.label()} "
                            f"({target.module.rel}:{atom['line']})"
                        )
                        yield self.finding(
                            orel, oline, 0,
                            f"captured `{bound[0]}` is mutated here via "
                            f"the HostTask body registered at "
                            f"{msum.rel}:{task['line']}; the write dies "
                            f"with a forked worker; call chain: "
                            f"{_chain(hops + [here] + chain)}",
                        )


@register
class DeepDeterminismTaintRule(DeepRule):
    name = "deep-determinism-taint"
    severity = ERROR
    description = (
        "a nondeterminism source (wall-clock, unseeded RNG, set order, "
        "id()) flows through calls into partition state, a ledger "
        "send, or a HostTask result"
    )

    #: src key -> witness chain (module-qualified hops, source first)
    _Sources = dict

    def _resolve_taints(
        self,
        program: Program,
        msum: ModuleSummary,
        fn: FunctionSummary,
        taints: set,
        ret: dict,
        depth: int = 0,
    ) -> dict[tuple, list[str]]:
        """Expand taint atoms into source keys with witness chains."""
        out: dict[tuple, list[str]] = {}
        for atom in taints:
            if atom[0] == "src":
                _, family, line, detail = atom
                label = _SOURCE_LABELS.get(family, family)
                out.setdefault(
                    (family, msum.rel, line),
                    [f"{label} `{detail}` ({msum.rel}:{line})"],
                )
                continue
            _, idx, line = atom
            if idx >= len(fn.calls) or depth > 3:
                continue
            call = fn.calls[idx]
            targets = program.resolve_call(msum, fn.qual, call)
            arg_taints = taints_from_json(call["targs"])
            flow_args = not targets
            for target in targets:
                for key, chain in ret.get(target.key, {}).items():
                    out.setdefault(
                        key,
                        chain + [_hop(msum, fn, line)],
                    )
                if target.fn.return_params:
                    flow_args = True
            if flow_args and arg_taints:
                for key, chain in self._resolve_taints(
                    program, msum, fn, arg_taints, ret, depth + 1
                ).items():
                    out.setdefault(key, chain)
        return out

    def _return_taint_fixpoint(self, program: Program) -> dict:
        ret: dict[tuple[str, str], dict[tuple, list[str]]] = {}
        for _ in range(_MAX_DEPTH):
            changed = False
            for msum, fn in program.functions():
                resolved = self._resolve_taints(
                    program, msum, fn,
                    taints_from_json(fn.return_taints), ret,
                )
                have = ret.setdefault((msum.rel, fn.qual), {})
                for key, chain in resolved.items():
                    if key not in have:
                        have[key] = chain
                        changed = True
            if not changed:
                break
        return ret

    def check(self, program: Program) -> Iterator[Finding]:
        ret = self._return_taint_fixpoint(program)
        emitted: set[tuple] = set()

        def emit(
            msum: ModuleSummary, line: int, what: str,
            sources: dict[tuple, list[str]],
        ) -> Iterator[Finding]:
            for key, chain in sorted(sources.items()):
                family = key[0]
                fkey = (msum.rel, line, what, key)
                if fkey in emitted:
                    continue
                emitted.add(fkey)
                yield self.finding(
                    msum.rel, line, 0,
                    f"{_SOURCE_LABELS.get(family, family)} reaches "
                    f"{what}; value path: {_chain(chain)}",
                )

        for msum, fn in program.functions():
            for sink in fn.sinks:
                sources = self._resolve_taints(
                    program, msum, fn,
                    taints_from_json(sink["taints"]), ret,
                )
                yield from emit(
                    msum, sink["line"],
                    f"`.{sink['op']}` at {msum.rel}:{sink['line']}",
                    sources,
                )
            for write in fn.writes:
                sources = self._resolve_taints(
                    program, msum, fn,
                    taints_from_json(write["taints"]), ret,
                )
                yield from emit(
                    msum, write["line"],
                    f"the write to {write['kind']} `{write['root']}` "
                    f"at {msum.rel}:{write['line']}",
                    sources,
                )
        for msum, task in program.host_tasks():
            body = program.resolve_body(msum, task)
            if body is None:
                continue
            sources = ret.get(body.key, {})
            yield from emit(
                msum, task["line"],
                f"the HostTask result of {body.label()}",
                sources,
            )


@register
class DeepUnshippablePayloadRule(DeepRule):
    name = "deep-unshippable-payload"
    severity = ERROR
    description = (
        "a HostTask payload transitively contains a value a forked "
        "worker cannot receive: a lock, open file, socket, generator, "
        "lambda, nested function, or Communicator/executor reference"
    )

    def _eval(
        self,
        program: Program,
        msum: ModuleSummary,
        node: dict | None,
        hops: list[str],
        seen: frozenset,
        depth: int = 0,
    ) -> Iterator[tuple[str, list[str]]]:
        if node is None or depth > _MAX_DEPTH:
            return
        kind = node.get("k", "ok")
        if kind in ("ok", "const"):
            return
        if kind in ("items", "any"):
            for child in node.get("items", node.get("alts", [])):
                yield from self._eval(
                    program, msum, child, hops, seen, depth + 1
                )
        elif kind == "lambda":
            yield (
                f"a lambda ({msum.rel}:{node['line']}) is not picklable",
                hops,
            )
        elif kind == "gen":
            yield (
                f"a generator ({msum.rel}:{node['line']}) is not "
                "picklable",
                hops,
            )
        elif kind == "nestedfn":
            yield (
                f"nested function `{node['name']}` "
                f"({msum.rel}:{node['line']}) carries its closure and "
                "is not picklable",
                hops,
            )
        elif kind == "attr":
            leaf_type = node.get("root_type", "").rsplit(".", 1)[-1]
            parts = node.get("dotted", "").split(".")
            if "comm" in parts[1:]:
                yield (
                    f"`{node['dotted']}` ({msum.rel}:{node['line']}) "
                    "reaches the shared Communicator",
                    hops,
                )
            elif leaf_type in COMM_TYPE_LEAFS:
                yield (
                    f"`{node['dotted']}` ({msum.rel}:{node['line']}) is "
                    f"an attribute of process-bound {leaf_type}",
                    hops,
                )
        elif kind == "ref":
            leaf_type = node.get("root_type", "").rsplit(".", 1)[-1]
            if leaf_type in COMM_TYPE_LEAFS:
                yield (
                    f"`{node['name']}` ({msum.rel}:{node['line']}) is a "
                    f"process-bound {leaf_type}",
                    hops,
                )
        elif kind == "call":
            yield from self._eval_call(
                program, msum, node, hops, seen, depth
            )

    def _eval_call(
        self,
        program: Program,
        msum: ModuleSummary,
        node: dict,
        hops: list[str],
        seen: frozenset,
        depth: int,
    ) -> Iterator[tuple[str, list[str]]]:
        callee = node.get("callee", "")
        if callee in BAD_FACTORIES:
            yield (
                f"`{node['raw']}(...)` ({msum.rel}:{node['line']}) "
                f"creates {BAD_FACTORIES[callee]}, which cannot cross "
                "a process boundary",
                hops,
            )
            return
        leaf = callee.rsplit(".", 1)[-1] if callee else ""
        if leaf in COMM_TYPE_LEAFS:
            yield (
                f"`{node['raw']}(...)` ({msum.rel}:{node['line']}) "
                f"constructs process-bound {leaf}",
                hops,
            )
            return
        atom = {
            "recv": node.get("recv", ""),
            "raw": node.get("raw", ""),
            "callee": callee,
            "method": node.get("method", ""),
        }
        targets = program.resolve_call(msum, "<module>", atom)
        for target in targets:
            if target.key in seen:
                continue
            hop = (
                f"{target.label()} "
                f"({target.module.rel}:{target.fn.line})"
            )
            if target.kind == "init":
                cls_qual = target.fn.cls
                cls = target.module.classes.get(cls_qual)
                if cls is None:
                    continue
                for entry in cls["init_ship"]:
                    yield from self._eval(
                        program, target.module, entry["ship"],
                        hops + [
                            f"{target.module.module}.{cls_qual}."
                            f"__init__ stores `self.{entry['attr']}` "
                            f"({target.module.rel}:{entry['line']})"
                        ],
                        seen | {target.key},
                        depth + 1,
                    )
            elif target.fn.has_yield:
                yield (
                    f"{target.label()} is a generator function; its "
                    "return value is not picklable",
                    hops + [hop],
                )
            else:
                yield from self._eval(
                    program, target.module, target.fn.return_ship,
                    hops + [hop], seen | {target.key}, depth + 1,
                )
        for arg in node.get("args", []):
            yield from self._eval(program, msum, arg, hops, seen, depth + 1)

    def check(self, program: Program) -> Iterator[Finding]:
        for msum, task in program.host_tasks():
            if task["payload"] is None:
                continue
            emitted: set[str] = set()
            for reason, hops in self._eval(
                program, msum, task["payload"],
                [f"payload ({msum.rel}:{task['payload_line']})"],
                frozenset(),
            ):
                if reason in emitted:
                    continue
                emitted.add(reason)
                yield self.finding(
                    msum.rel, task["payload_line"], task["col"],
                    f"HostTask payload is not process-safe: {reason}; "
                    f"via {_chain(hops)}",
                )


class _Op(NamedTuple):
    """One comm op a phase's code can emit.

    ``kind`` is a contract op kind, ``recv`` (a drain) or
    ``allreduce-any`` (an allreduce whose blocking mode is unknown: it
    matches a blocking and an async clause alike).  ``tag`` is ``None``
    for a non-constant tag; ``batch`` marks columnar-fabric traffic.
    """

    kind: str
    tag: str | None
    batch: bool
    rel: str
    line: int
    via: str


_ALLREDUCE_KINDS: dict[bool | None, str] = {
    True: "allreduce", False: "allreduce-async", None: "allreduce-any",
}
_FIXED_KINDS = {"allreduce_max": "allreduce", "allgather": "allgather"}


def _contract_ops(
    msum: ModuleSummary, fn: FunctionSummary, hint: frozenset[bool]
) -> Iterator[_Op]:
    """The ops of one function's comm records.  ``hint`` holds the
    ``blocking`` values the phase dispatches ``sync_round`` with; it
    resolves a forwarded ``blocking`` and hides a barrier under
    ``if blocking:`` when every dispatch is async."""
    for rec in fn.comm:
        op, tag = rec["op"], None
        if op in ("send", "send_batch"):
            kind, tag = "p2p", rec["tag"]
        elif op in ("recv_all", "recv_all_batch"):
            kind, tag = "recv", rec["tag"]
        elif op == "allreduce_sum":
            blocking = rec["blocking"]
            if blocking is None and len(hint) == 1:
                [blocking] = hint
            kind = _ALLREDUCE_KINDS[blocking]
        elif op in _FIXED_KINDS:
            kind = _FIXED_KINDS[op]
        elif op == "barrier":
            if rec["guarded"] and hint == {False}:
                continue  # statically unreachable: every dispatch is async
            kind = "barrier"
        else:
            continue
        yield _Op(
            kind, tag, op.endswith("_batch"), msum.rel, rec["line"], fn.name
        )


def _matches(op: _Op, spec: OpSpec) -> bool:
    if spec.kind == "p2p":
        return op.kind == "p2p" and op.tag == spec.tag
    if op.kind == "allreduce-any":
        return spec.kind in ("allreduce", "allreduce-async")
    return op.kind == spec.kind


def _linted(program: Program, rel: str) -> ModuleSummary | None:
    """The linted module at package-relative path ``rel`` (suffix match)."""
    for msum in program.modules.values():
        if msum.rel == rel or msum.rel.endswith("/" + rel):
            return msum
    return None


def _phase_reachable(
    program: Program, entries: list[Target]
) -> Iterator[Target]:
    """What a phase's entry points reach inside its primary module.

    BFS over resolved calls, the bodies of the ``HostTask``\\ s each
    reached function registers, and every function nested in a reached
    one (an ``apply`` callback is passed, never called by name).
    """
    queue = list(entries)
    seen = {t.key for t in queue}
    while queue:
        target = queue.pop(0)
        yield target
        msum, qual = target.module, target.fn.qual
        nexts = [callee for _atom, callee in program.callees(msum, target.fn)]
        nexts += [
            body for task in msum.host_tasks
            if task["enclosing"] == qual
            and (body := program.resolve_body(msum, task)) is not None
        ]
        nexts += [
            Target(msum, fn, "func") for q, fn in msum.functions.items()
            if q.startswith(qual + ".<locals>.")
        ]
        for nxt in nexts:
            if nxt.module.rel == msum.rel and nxt.key not in seen:
                seen.add(nxt.key)
                queue.append(nxt)


@register
class DeepContractRule(DeepRule):
    """Every comm op a phase can emit is declared by its contract.

    A contract's *primary* module (``modules[0]``) is walked from its
    entry points (:func:`_phase_reachable`); the modules it dispatches
    into (``modules[1:]``) and any module that opts in with a
    module-level ``__phase_contract__ = "Phase Name"`` are scanned whole.
    ``state.sync_round(comm, blocking=...)`` is a dispatch point: the
    blocking constants at the phase's call sites resolve the
    ``allreduce_sum(..., blocking=blocking)`` inside a dispatched
    ``sync_round`` and prove its ``if blocking: comm.barrier()``
    unreachable, and a phase that never dispatches a round emits
    nothing from one.

    Undeclared ops, non-constant tags and columnar traffic on a clause
    without ``batched=True`` are errors; so are a missing entry point
    and a dispatched module that is not linted.  A clause no reachable
    code emits (or a ``drained`` tag nothing drains) is a dead-clause
    warning.  Missing and dead findings need the primary module among
    the linted files.  ``contracts`` defaults to
    :data:`repro.core.contracts.PHASE_CONTRACTS`.
    """

    name = "deep-contract"
    severity = ERROR
    description = (
        "comm op a phase can emit that its PhaseContract does not declare "
        "(or a non-constant tag, or columnar traffic on an unbatched "
        "clause); a clause no code path emits is a warning"
    )

    def __init__(self, contracts: ContractSet | None = None):
        self.contracts = contracts

    def check(self, program: Program) -> Iterator[Finding]:
        contracts = self.contracts
        if contracts is None:
            from ...core.contracts import PHASE_CONTRACTS

            contracts = PHASE_CONTRACTS
        for contract in contracts:
            yield from self._check_contract(program, contract)

    def _flag(
        self, contract: PhaseContract, kind: str, rel: str, line: int,
        text: str, severity: str = ERROR,
    ) -> Finding:
        return Finding(
            rule=self.name, severity=severity, path=rel, line=line, col=0,
            message=f"{kind} in phase {contract.phase!r}: {text}",
        )

    def _check_contract(
        self, program: Program, contract: PhaseContract
    ) -> Iterator[Finding]:
        found = [_linted(program, rel) for rel in contract.modules]
        primary = found[0] if found else None
        ops: dict[tuple, _Op] = {}
        hint: set[bool] = set()
        whole: dict[str, ModuleSummary] = {}
        if primary is not None:
            entries: list[Target] = []
            for entry in contract.entry_points:
                # Nested entry points count: framework.py's reading
                # phase is a closure over the run's locals.
                named = [
                    Target(primary, fn, "func")
                    for fn in primary.functions.values() if fn.name == entry
                ]
                if not named:
                    yield self._flag(
                        contract, "missing-entry", primary.rel, 1,
                        f"entry point {entry}() not found in the phase "
                        "module",
                    )
                entries += named
            for target in _phase_reachable(program, entries):
                for rec in target.fn.comm:
                    if rec["op"] == "sync_round":
                        b = rec["blocking"]
                        hint |= {True, False} if b is None else {b}
                for op in _contract_ops(primary, target.fn, frozenset()):
                    ops.setdefault(op[:5], op)
            for rel, msum in zip(contract.modules[1:], found[1:]):
                if msum is None:
                    yield self._flag(
                        contract, "missing-module", primary.rel, 1,
                        f"declared phase module {rel} is not among the "
                        "linted files",
                    )
                else:
                    whole[msum.rel] = msum
        for msum in program.modules.values():
            if msum.phase_contract == contract.phase:
                whole[msum.rel] = msum
        for msum in whole.values():
            for fn in msum.functions.values():
                if fn.qual == "<module>":
                    continue
                if "sync_round" not in fn.qual.split("."):
                    scan = _contract_ops(msum, fn, frozenset())
                elif hint:
                    scan = _contract_ops(msum, fn, frozenset(hint))
                else:
                    continue  # the phase never dispatches a round
                for op in scan:
                    ops.setdefault(op[:5], op)
        yield from self._diff(contract, list(ops.values()), primary)

    def _diff(
        self,
        contract: PhaseContract,
        ops: list[_Op],
        primary: ModuleSummary | None,
    ) -> Iterator[Finding]:
        declared = ", ".join(
            repr(t) for t in sorted(contract.p2p_tags())
        ) or "none"
        for op in ops:
            if op.kind == "recv":
                continue  # receiving is passive; drains are checked per clause
            if op.kind == "p2p" and op.tag is None:
                yield self._flag(
                    contract, "dynamic-tag", op.rel, op.line,
                    f"send in {op.via}() uses a non-constant tag; contracts "
                    "can only be checked against compile-time tags",
                )
                continue
            matched = [spec for spec in contract.ops if _matches(op, spec)]
            if matched:
                if op.batch and not any(spec.batched for spec in matched):
                    yield self._flag(
                        contract, "unbatched-op", op.rel, op.line,
                        f"columnar-fabric traffic on tag {op.tag!r} in "
                        f"{op.via}(), but the contract clause does not "
                        "declare batched=True; mark the OpSpec batched or "
                        "use the scalar send/recv_all path",
                    )
                continue
            if op.kind == "p2p":
                text = (
                    f"send with tag {op.tag!r} in {op.via}() is not "
                    f"declared by the contract (declared tags: {declared}); "
                    "add an OpSpec in repro.core.contracts or remove the send"
                )
            else:
                text = (
                    f"{op.kind} in {op.via}() is not declared by the "
                    "contract; add an OpSpec in repro.core.contracts or "
                    "remove the collective"
                )
            yield self._flag(contract, "undeclared-op", op.rel, op.line, text)
        if primary is None:
            return
        for spec in contract.ops:
            if not any(_matches(op, spec) for op in ops):
                text = (
                    f"contract declares {spec.describe()} but no code path "
                    "in the phase's modules can emit it (dead contract "
                    "clause); delete the clause or implement the op"
                )
            elif spec.kind == "p2p" and spec.drained and not any(
                op.kind == "recv" and op.tag == spec.tag for op in ops
            ):
                text = (
                    f"contract declares {spec.describe()} as drained, but "
                    f"no recv_all(tag={spec.tag!r}) exists in the phase's "
                    "modules"
                )
            else:
                continue
            yield self._flag(
                contract, "dead-clause", primary.rel, 1, text, WARNING
            )
