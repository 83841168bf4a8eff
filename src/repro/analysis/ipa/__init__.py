"""Whole-program interprocedural analysis: the ``deep-*`` rules of ``repro lint``.

The per-module rules (:mod:`repro.analysis.lint.rules`) stop at module
boundaries.  This package analyzes the *whole program*, and its engine
drives every ``repro lint`` run:

* :mod:`~repro.analysis.ipa.summary` — one cacheable
  :class:`ModuleSummary` per file: symbols, classes, alias tables,
  call atoms with receiver typing, local taint dataflow, payload
  shippability trees, and ``HostTask`` registrations.
* :mod:`~repro.analysis.ipa.program` — links summaries into a
  project-wide symbol table and call graph (module-level name
  resolution plus method dispatch on statically-typed receivers such
  as ``Communicator``, ``CommLedger``, ``HostView``).
* :mod:`~repro.analysis.ipa.analyses` — the interprocedural rules:
  determinism taint, payload shippability, unseeded RNG, and the
  Communicator and captured state reached from a HostTask body (in
  the body or through helpers), each reporting a call-chain witness
  naming every hop; and the phase-contract diff (``deep-contract``).
* :mod:`~repro.analysis.ipa.cache` — the per-file SHA-256-keyed
  incremental cache that keeps warm full-repo runs fast.
* :mod:`~repro.analysis.ipa.engine` — the one driver ``run_lint``
  delegates to.

See the "Whole-program analysis" section of ``docs/ANALYSIS.md``.
"""

from .cache import DeepCache
from .engine import run_deep_lint
from .program import Program
from .summary import ModuleSummary, summarize_module

__all__ = [
    "DeepCache",
    "ModuleSummary",
    "Program",
    "run_deep_lint",
    "summarize_module",
]
