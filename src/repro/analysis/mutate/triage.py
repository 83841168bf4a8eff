"""Survivor triage: every undetected, non-equivalent mutant is debt.

A campaign row that no detector catches is either *equivalent* (the
mutation cannot change any observable behaviour of the system under the
detectors' purview), *covered elsewhere* (a code path the fixture
cannot reach, but a dedicated CI job exercises), or a genuine blind
spot.  Blind spots must be promoted into a rule or a tightened contract
clause — or explicitly *accepted* here with a reason, which keeps them
in the detection-rate denominator so the score honestly reflects them.

The registry maps stable mutant ids (``{operator}:{rel}#{ordinal}`` —
immune to unrelated edits, renumbered only when same-operator sites are
added/removed in the same file) to verdicts:

* ``equivalent`` — excluded from the detection-rate denominator;
* ``covered-elsewhere`` — excluded, with the covering gate named;
* ``accepted`` — counted as a miss, documented blind spot;
* ``promoted-rule`` — historical note on a now-caught mutant: the named
  rule exists *because* this mutant survived an earlier campaign.

``repro mutate`` fails on any surviving mutant absent from this table,
so a new blind spot cannot land silently; digest-checking the committed
``MUTATION_MATRIX.json`` keeps a *regressing* detector (a caught row
flipping to survived) from landing silently too.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TriageEntry", "TRIAGE", "VERDICTS"]


@dataclass(frozen=True)
class TriageEntry:
    """One survivor verdict: why this mutant is allowed to survive."""

    verdict: str  # equivalent | covered-elsewhere | accepted | promoted-rule
    reason: str

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason}


VERDICTS = ("equivalent", "covered-elsewhere", "accepted", "promoted-rule")

#: The triage table.  Populated from campaign evidence; every entry
#: cites the behaviour that justifies the verdict.
TRIAGE: dict[str, TriageEntry] = {
    # -- covered elsewhere: the in-campaign fixture graph is too small /
    #    too uniform to diverge these, but the tier-1 suite (run on every
    #    CI leg, including the dedicated process-executor job) fails
    #    within seconds of any of them.  Verified by running the full
    #    suite against each mutant in place.
    "reverse-merge-order:runtime/executor.py#0": TriageEntry(
        "covered-elsewhere",
        "Reversing the host merge order of the one barrier every"
        " executor shares, serial included, keeps serial-vs-parallel"
        " bit-identity but breaks the hand-charged reference, the"
        " one-host-in-flight order and the failed-barrier pins in"
        " tests/test_executors.py (tier-1, every CI leg).",
    ),
    "drop-ledger-merge:runtime/comm.py#0": TriageEntry(
        "covered-elsewhere",
        "Communicator.send's merge serves only direct sends, which no"
        " CuSP phase makes; without it a direct send charges and"
        " delivers nothing, which tests/test_runtime.py::TestCommunicator"
        " (test_byte_accounting, test_send_recv_roundtrip, ...) and"
        " tests/test_faults.py::TestReliableTransport::"
        "test_exhausted_send_keeps_its_retry_charges fail on (tier-1,"
        " every CI leg).",
    ),
    "skip-barrier:core/state.py#0": TriageEntry(
        "covered-elsewhere",
        "CuSP dispatch never takes the blocking path, but"
        " tests/test_prop_state.py calls sync_round directly and"
        " asserts exactly one barrier per round (tier-1, every CI leg).",
    ),
    "unsort-iteration:runtime/colfab.py#0": TriageEntry(
        "covered-elsewhere",
        "leaked_segments() sorts an os.listdir() scan the fixture never"
        " diverges; tests/test_executors.py pins the name order against"
        " a shuffled listing (tier-1, every CI leg).",
    ),
    # -- equivalent: no observable behaviour within any detector's (or
    #    the tier-1 suite's) purview changes.
    "skip-barrier:core/streaming_rules.py#0": TriageEntry(
        "equivalent",
        "The barrier sits behind `if blocking:`, a path"
        " tests/test_contracts.py proves statically unreachable from"
        " CuSP dispatch; the full tier-1 suite passes with the call"
        " deleted.",
    ),
    "unsort-iteration:runtime/faults.py#0": TriageEntry(
        "equivalent",
        "sorted() here orders a dict's items for a human-readable"
        " describe string; dict insertion order is already"
        " deterministic, and the string feeds no digest or wire path.",
    ),
    "unsort-iteration:runtime/faults.py#5": TriageEntry(
        "equivalent",
        "Cosmetic ordering of a fault-summary string built from a"
        " deterministic-insertion dict (FaultReport.summary); no"
        " digest or wire path consumes it.",
    ),
    # -- promoted: these survivors are the reason the unordered-iteration
    #    rule now tracks set-typed `self` attributes (and gained the
    #    unordered-dict-send sibling).  Caught by lint since.
    "unsort-iteration:runtime/faults.py#1": TriageEntry(
        "promoted-rule",
        "Survived while unordered-iteration only tracked local"
        " set-typed names; promoted the rule to track set-typed"
        " `self` attributes, which now flags this site.",
    ),
    "unsort-iteration:runtime/faults.py#2": TriageEntry(
        "promoted-rule",
        "Sibling of #1 (the torn-fault set on the same class);"
        " caught by the same attribute-set promotion.",
    ),
}
