"""Mutation-based soundness harness for the analysis stack.

The analysis stack is a tower of detectors — the SPMD-safety lint
(per-module rules plus the whole-program ``deep-*`` rules, the
phase-contract diff among them), the CommSan runtime sanitizer, and the
host-isolation monitor.  This package measures what
that tower actually catches: it *injects* the bug classes the
detectors claim to find — seeded, AST-level semantic mutations of the
real ``src/repro`` phase/runtime/policy code — runs the full detector
stack against every mutant in an isolated shadow copy of the tree, and
emits a detection matrix (``mutant class × detector →
caught/missed/equivalent``) as byte-stable JSON.

* :mod:`.operators` — the pluggable :class:`MutationOperator` registry
  (mirroring the ``LintRule`` registry): each operator locates the
  source sites where one fault class can be planted and produces exact
  text splices that preserve line numbers, so suppression comments and
  finding anchors stay valid in the mutant.
* :mod:`.campaign` — the driver: shadow-copies the package, applies
  one mutant at a time, runs the detectors through :mod:`.probe` in a
  subprocess whose ``PYTHONPATH`` points at the shadow tree, and
  assembles the :class:`CampaignReport`.
* :mod:`.probe` — the in-shadow detector harness (per-module and deep
  lint, the contract diff included, and the dynamic tier: serial
  fixture partitions under CommSan and the partition invariant
  checker).
* :mod:`.triage` — the survivor registry: every undetected,
  non-equivalent mutant must be triaged into a new rule, a tightened
  contract clause, or a documented-equivalent entry; untriaged
  survivors fail the campaign.

Surfaced as the ``repro mutate`` CLI subcommand; the committed
reference matrix (``MUTATION_MATRIX.json``) is checked digest-style
like the bench smoke test.  See the "Mutation soundness" section of
``docs/ANALYSIS.md``.
"""

from .operators import (
    MutationOperator,
    MutationSite,
    Mutant,
    all_operators,
    apply_site,
    collect_mutants,
    register_operator,
)
from .campaign import CampaignReport, MutantResult, run_campaign
from .triage import TRIAGE

__all__ = [
    "MutationOperator",
    "MutationSite",
    "Mutant",
    "all_operators",
    "apply_site",
    "collect_mutants",
    "register_operator",
    "CampaignReport",
    "MutantResult",
    "run_campaign",
    "TRIAGE",
]
