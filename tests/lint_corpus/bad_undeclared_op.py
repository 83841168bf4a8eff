"""Corpus: comm ops outside the declared contract (rule: deep-contract)."""

__phase_contract__ = "Master Assignment"


def ship(view, peers):
    for j in peers:
        # Declared by the Master Assignment contract: passes.
        view.send(j, None, tag="master-assignments", nbytes=12)
        # Not declared anywhere: flagged.
        view.send(j, None, tag="gossip", nbytes=16)


def settle(phase, contributions):
    # The Master Assignment contract declares no allgather clause.
    phase.comm.allgather(contributions)
