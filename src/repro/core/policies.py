"""Partitioning policies: (getMaster, getEdgeOwner) pairs (paper Table II).

A policy composes one master rule with one edge rule, plus the input
orientation ("csr" streams outgoing edges; "csc" streams incoming edges,
i.e. partitions the transpose — the paper's second variant of every
policy, §III-B).  The registry covers the six named policies the paper
evaluates plus the two Table II omissions and the DBH extension;
:func:`window_policy` builds the §II-B2 streaming-window policy, whose
edge rule takes its window size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .edge_rules import EdgeRule, make_edge_rule
from .master_rules import ContiguousEB, MasterRule, make_master_rule
from .streaming_rules import WindowRule

__all__ = ["Policy", "make_policy", "policy_names", "window_policy",
           "PAPER_POLICIES", "POLICY_TABLE"]


@dataclass(frozen=True)
class Policy:
    """A complete partitioning policy."""

    name: str
    master_rule: MasterRule
    edge_rule: EdgeRule
    #: "csr" = stream outgoing edges, "csc" = stream incoming edges.
    input_format: str = "csr"

    def __post_init__(self) -> None:
        if self.input_format not in ("csr", "csc"):
            raise ValueError("input_format must be 'csr' or 'csc'")

    @property
    def invariant(self) -> str:
        """Structural invariant of the resulting partitions."""
        return self.edge_rule.invariant

    def describe(self) -> str:
        return (
            f"{self.name}: getMaster={self.master_rule.name}, "
            f"getEdgeOwner={self.edge_rule.name}, input={self.input_format}, "
            f"invariant={self.invariant}"
        )


#: Paper Table II: policy name -> (master rule, edge rule).
POLICY_TABLE: dict[str, tuple[str, str]] = {
    # The six evaluated policies.
    "EEC": ("ContiguousEB", "Source"),      # Gemini's edge-balanced edge-cut
    "HVC": ("ContiguousEB", "Hybrid"),      # PowerLyra's hybrid vertex-cut
    "CVC": ("ContiguousEB", "Cartesian"),   # Cartesian vertex-cut
    "FEC": ("FennelEB", "Source"),          # Fennel edge-cut
    "GVC": ("FennelEB", "Hybrid"),          # Ginger vertex-cut
    "SVC": ("FennelEB", "Cartesian"),       # Sugar vertex-cut (new in paper)
    # The two combinations Table II omits.
    "CEC": ("Contiguous", "Source"),        # plain contiguous edge-cut
    "FVC": ("Fennel", "Source"),            # plain Fennel edge-cut
    # Extensions: the remaining Table I streaming vertex-cuts.
    "DBH": ("ContiguousEB", "DegreeHash"),     # degree-based hashing [17]
    "PGC": ("ContiguousEB", "Greedy"),         # PowerGraph greedy [4]
    "HDRF": ("ContiguousEB", "HDRF"),          # high-degree replicated first [16]
    "BVC": ("ContiguousEB", "Checkerboard"),   # checkerboard vertex-cut [19]
    "JVC": ("ContiguousEB", "Jagged"),         # jagged vertex-cut [18]
    "LEC": ("LDG", "Source"),                  # linear deterministic greedy [12]
}

#: The policies the paper's evaluation sweeps (Figures 3-6).
PAPER_POLICIES = ["EEC", "HVC", "CVC", "FEC", "GVC", "SVC"]


def policy_names() -> list[str]:
    return list(POLICY_TABLE)


def make_policy(
    name: str,
    input_format: str = "csr",
    degree_threshold: int = 100,
    gamma: float = 1.5,
) -> Policy:
    """Instantiate a named policy.

    ``degree_threshold`` feeds both FennelEB's short-circuit and Hybrid's
    high-degree test (the paper uses 1000 at web-crawl scale; the default
    here is scaled to the stand-in datasets).  ``gamma`` is the Fennel
    exponent (paper: 1.5).
    """
    if name not in POLICY_TABLE:
        raise KeyError(f"unknown policy {name!r}; choose from {policy_names()}")
    master_name, edge_name = POLICY_TABLE[name]
    master_kwargs = {}
    if master_name in ("Fennel", "FennelEB"):
        master_kwargs["gamma"] = gamma
    if master_name == "FennelEB":
        master_kwargs["degree_threshold"] = degree_threshold
    edge_kwargs = {}
    if edge_name == "Hybrid":
        edge_kwargs["degree_threshold"] = degree_threshold
    return Policy(
        name=name,
        master_rule=make_master_rule(master_name, **master_kwargs),
        edge_rule=make_edge_rule(edge_name, **edge_kwargs),
        input_format=input_format,
    )


def window_policy(
    window_size: int = 64,
    balance_weight: float = 4.0,
    shuffle_stream: bool = False,
) -> Policy:
    """The ADWISE-style streaming-window policy (paper §II-B2).

    ContiguousEB masters and a :class:`~repro.core.streaming_rules.WindowRule`
    edge rule, named ``Window(window_size)``.
    """
    return Policy(
        f"Window({window_size})",
        ContiguousEB(),
        WindowRule(window_size, balance_weight, shuffle_stream),
    )
