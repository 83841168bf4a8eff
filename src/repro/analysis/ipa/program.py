"""Linking module summaries into a whole-program model.

:class:`Program` owns the project-wide symbol table and resolves call
atoms (see :mod:`~repro.analysis.ipa.summary`) to their target
function summaries:

* **module-level names** — ``helper()``, ``pkg.mod.fn()``, and
  imported names, through each module's alias table (absolute and
  relative imports both resolve to dotted module paths);
* **nested functions** — a bare name is first looked up in the caller's
  enclosing-function chain (``f.<locals>.g``);
* **constructors** — a call to a known class resolves to its
  ``__init__`` (argument slots shift past ``self``);
* **method dispatch on typed receivers** — ``x.m(...)`` dispatches when
  ``x``'s type is statically known (parameter annotation, ``self``, or
  a local constructor assignment), following base classes: resolve
  what the runtime's known types make unambiguous, stay silent
  otherwise.

Resolution is deliberately partial — an unresolved call is simply not
an edge.  Every analysis built on top over-approximates *within*
resolved edges and never guesses across unresolved ones, which keeps
deep findings explainable: each one carries a concrete call chain.
"""

from __future__ import annotations

from typing import Iterator

from .summary import FunctionSummary, ModuleSummary

__all__ = ["Program", "Target"]

#: Runtime types whose instances must never be shipped to (or used
#: from) a forked worker: they hold the parent process's sockets,
#: ledgers, pools, or locks.
COMM_TYPE_LEAFS = {
    "Communicator", "CommLedger", "HostView",
    "Executor", "SerialExecutor", "ParallelExecutor", "ProcessExecutor",
    "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool",
}


class Target:
    """One resolved callee: a function summary plus its home module."""

    __slots__ = ("module", "fn", "kind")

    def __init__(self, module: ModuleSummary, fn: FunctionSummary, kind: str):
        self.module = module
        self.fn = fn
        self.kind = kind  # "func" | "init"

    @property
    def key(self) -> tuple[str, str]:
        return (self.module.rel, self.fn.qual)

    def label(self) -> str:
        return f"{self.module.module}.{self.fn.qual}"


class Program:
    """The linked whole-program view over a set of module summaries."""

    def __init__(self, modules: dict[str, ModuleSummary]):
        #: rel path -> summary
        self.modules = modules
        #: dotted name -> ("func" | "class", ModuleSummary, qual)
        self.symbols: dict[str, tuple[str, ModuleSummary, str]] = {}
        for msum in modules.values():
            for qual, fn in msum.functions.items():
                if qual != "<module>" and "." not in qual:
                    self.symbols[f"{msum.module}.{qual}"] = (
                        "func", msum, qual,
                    )
            for cqual, cls in msum.classes.items():
                self.symbols[f"{msum.module}.{cqual}"] = ("class", msum, cqual)
                for mname, mqual in cls["methods"].items():
                    if mqual in msum.functions:
                        self.symbols[f"{msum.module}.{cqual}.{mname}"] = (
                            "func", msum, mqual,
                        )

    # -- functions ------------------------------------------------------

    def functions(self) -> Iterator[tuple[ModuleSummary, FunctionSummary]]:
        for msum in self.modules.values():
            for fn in msum.functions.values():
                yield msum, fn

    def resolve_local_name(
        self, msum: ModuleSummary, caller_qual: str, name: str
    ) -> list[Target]:
        """A bare name in ``caller_qual``'s scope: nested defs outward,
        then module-level functions, classes, and imported symbols."""
        # Enclosing-function chain: f.<locals>.g sees h as
        # f.<locals>.g.<locals>.h, then f.<locals>.h, then h.
        prefix = caller_qual
        while True:
            candidate = (
                f"{prefix}.<locals>.{name}" if prefix != "<module>" else name
            )
            fn = msum.functions.get(candidate)
            if fn is not None and candidate != caller_qual:
                return [Target(msum, fn, "func")]
            if prefix == "<module>" or "<locals>" not in prefix:
                break
            prefix = prefix.rsplit(".<locals>.", 1)[0]
        fn = msum.functions.get(name)
        if fn is not None:
            return [Target(msum, fn, "func")]
        if name in msum.classes:
            return self._class_init(msum, name)
        resolved = msum.aliases.get(name)
        if resolved is not None:
            return self._resolve_symbol(resolved)
        return []

    def _resolve_symbol(self, dotted: str) -> list[Target]:
        entry = self.symbols.get(dotted)
        if entry is None:
            return []
        kind, msum, qual = entry
        if kind == "func":
            return [Target(msum, msum.functions[qual], "func")]
        return self._class_init(msum, qual)

    def _class_init(self, msum: ModuleSummary, cqual: str) -> list[Target]:
        cls = self.resolve_class(msum, f"~{cqual}")
        if cls is None:
            return []
        target = self.find_method(cls[0], cls[1], "__init__")
        if target is None:
            return []
        return [Target(target.module, target.fn, "init")]

    # -- classes --------------------------------------------------------

    def resolve_class(
        self, msum: ModuleSummary, ref: str
    ) -> tuple[ModuleSummary, dict] | None:
        """A class from a receiver-type reference.

        ``~Qual`` names a class in ``msum`` itself (the ``self``
        encoding); a dotted name goes through the symbol table; a bare
        name tries ``msum`` first, then the alias table.
        """
        if not ref:
            return None
        if ref.startswith("~"):
            cls = msum.classes.get(ref[1:])
            return (msum, cls) if cls is not None else None
        if ref in msum.classes:
            return (msum, msum.classes[ref])
        dotted = msum.aliases.get(ref, ref)
        entry = self.symbols.get(dotted)
        if entry is not None and entry[0] == "class":
            _, owner, cqual = entry
            return (owner, owner.classes[cqual])
        return None

    def find_method(
        self,
        msum: ModuleSummary,
        cls: dict,
        method: str,
        _depth: int = 0,
    ) -> Target | None:
        """Method lookup through the class and its resolvable bases."""
        qual = cls["methods"].get(method)
        if qual is not None and qual in msum.functions:
            return Target(msum, msum.functions[qual], "func")
        if _depth >= 5:
            return None
        for base in cls["bases"]:
            entry = self.symbols.get(base)
            if entry is None or entry[0] != "class":
                continue
            _, owner, cqual = entry
            found = self.find_method(
                owner, owner.classes[cqual], method, _depth + 1
            )
            if found is not None:
                return found
        return None

    # -- call atoms -----------------------------------------------------

    def resolve_call(
        self, msum: ModuleSummary, caller_qual: str, atom: dict
    ) -> list[Target]:
        """Targets of one call atom (empty when unresolvable)."""
        if atom["recv"]:
            cls = self.resolve_class(msum, atom["recv"])
            if cls is not None:
                found = self.find_method(cls[0], cls[1], atom["method"])
                if found is None:
                    return []
                # Bound method: the call site's argument slots are
                # shifted one past `self` (see bind_param).
                return [Target(found.module, found.fn, "method")]
            # The receiver type names something we have no class for
            # (an external type): no edge.
            return []
        raw = atom["raw"]
        if not raw:
            return []
        if "." not in raw:
            return self.resolve_local_name(msum, caller_qual, raw)
        if atom["callee"]:
            return self._resolve_symbol(atom["callee"])
        return []

    def callees(
        self, msum: ModuleSummary, fn: FunctionSummary
    ) -> Iterator[tuple[dict, Target]]:
        """(call atom, resolved target) pairs for one function."""
        for atom in fn.calls:
            for target in self.resolve_call(msum, fn.qual, atom):
                yield atom, target

    # -- HostTask bodies ------------------------------------------------

    def resolve_body(
        self, msum: ModuleSummary, task: dict
    ) -> Target | None:
        """The function summary registered as a HostTask's body."""
        if task["fn_kind"] == "lambda":
            fn = msum.functions.get(task["fn"])
            return Target(msum, fn, "func") if fn is not None else None
        if task["fn_kind"] == "name":
            targets = self.resolve_local_name(
                msum, task["enclosing"], task["fn"]
            )
            return targets[0] if targets else None
        if task["fn_kind"] == "attr" and "." in task["fn"]:
            resolved = msum.aliases.get(
                task["fn"].split(".", 1)[0], task["fn"].split(".", 1)[0]
            )
            rest = task["fn"].split(".", 1)[1]
            targets = self._resolve_symbol(f"{resolved}.{rest}")
            return targets[0] if targets else None
        return None

    def host_tasks(self) -> Iterator[tuple[ModuleSummary, dict]]:
        for msum in self.modules.values():
            for task in msum.host_tasks:
                yield msum, task

    # -- argument binding -----------------------------------------------

    @staticmethod
    def bind_param(atom: dict, target: Target, param: str) -> tuple[str, str]:
        """How a call atom binds ``param`` of its target.

        Returns ``(kind, detail)`` with kind one of ``"omitted"``,
        ``"none"`` (literal ``None``), ``"param"`` (detail = the
        caller's parameter forwarded into the slot), ``"receiver"``
        (``self`` of a bound-method call), or ``"expr"``.
        """
        params = target.fn.params
        if param not in params:
            return ("expr", "")
        idx = params.index(param)
        if target.kind in ("init", "method"):
            if param == "self":
                return ("receiver", "")
            idx -= 1  # the call site does not pass `self`
        slot = None
        if 0 <= idx < atom["nargs"]:
            slot = str(idx)
        elif param in atom["kwnames"]:
            slot = f"kw:{param}"
        if slot is None:
            return ("omitted", "")
        if slot in atom["none"]:
            return ("none", "")
        if slot in atom["pargs"]:
            return ("param", atom["pargs"][slot])
        return ("expr", "")
