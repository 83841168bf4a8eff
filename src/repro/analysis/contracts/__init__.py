"""Phase-communication contracts: specs and the CommSan runtime sanitizer.

The contract *language* lives in :mod:`.model`; the five CuSP phase
declarations live with the phase code in :mod:`repro.core.contracts`.
Two verifiers consume them: the ``deep-contract`` rule of ``repro lint``
(:mod:`repro.analysis.ipa.analyses`) diffs them against the code, and
the runtime sanitizer (:class:`CommSan`) audits real runs.  ``CommSan``
is imported lazily so that ``repro.runtime`` modules can be imported by
the sanitizer without a cycle and so that plain model users never pay
for numpy.
"""

from .model import (
    OP_KINDS,
    TOPOLOGIES,
    ContractContext,
    ContractSet,
    ContractViolation,
    ContractViolationError,
    OpSpec,
    PhaseContract,
)

__all__ = [
    "OP_KINDS",
    "TOPOLOGIES",
    "ContractContext",
    "ContractSet",
    "ContractViolation",
    "ContractViolationError",
    "OpSpec",
    "PhaseContract",
    "CommSan",
]


def __getattr__(name: str):
    if name == "CommSan":
        from .sanitize import CommSan

        return CommSan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
