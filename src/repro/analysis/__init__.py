"""Static and dynamic enforcement of the reproduction's determinism contract.

The headline guarantee of the runtime — ``ParallelExecutor`` is
bit-identical to ``SerialExecutor``, partitions and every simulated
counter alike, even under injected fault plans — rests on three
conventions that ordinary tests cannot see being broken:

1. a host task touches only its own host's state, and every inter-host
   byte flows through a :class:`~repro.runtime.comm.CommLedger` merged
   at a phase barrier;
2. every payload that crosses hosts is charged through the
   ``payload_nbytes`` accounting path;
3. all randomness comes from seeded per-(host, op) generator streams,
   and no partitioning decision reads a wall clock or an unordered
   container's iteration order.

This package enforces the contract mechanically:

* :mod:`repro.analysis.lint` — an AST lint framework with pluggable
  SPMD-safety checkers, exposed as the ``repro lint`` CLI subcommand;
* :mod:`repro.analysis.isolation` — an opt-in dynamic race detector
  that tracks (host, phase, op-index, attribute) accesses during
  ``ParallelExecutor`` runs and raises :class:`IsolationViolation` on
  any cross-host access outside the sanctioned barrier-merge path;
* :mod:`repro.analysis.contracts` — declarative phase-communication
  contracts, checked statically by the ``deep-contract`` lint rule and
  at run time by the opt-in sanitizer :class:`CommSan`.

See ``docs/ANALYSIS.md`` for the contract, each rule's rationale, and
the suppression syntax.
"""

from .isolation import IsolationMonitor, IsolationViolation

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "all_rules",
    "run_lint",
    "IsolationMonitor",
    "IsolationViolation",
    "CommSan",
    "ContractViolation",
    "ContractViolationError",
    "PhaseContract",
    "ContractContext",
]

_LINT_EXPORTS = {"Finding", "LintReport", "LintRule", "all_rules", "run_lint"}

_CONTRACT_EXPORTS = {
    "CommSan",
    "ContractViolation",
    "ContractViolationError",
    "PhaseContract",
    "ContractContext",
}


def __getattr__(name: str):
    # The isolation hooks make every `import repro` touch this package;
    # loading the AST lint framework and the contract verifiers is
    # deferred until something actually asks for them.
    if name in _LINT_EXPORTS:
        from . import lint

        return getattr(lint, name)
    if name in _CONTRACT_EXPORTS:
        from . import contracts

        return getattr(contracts, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
