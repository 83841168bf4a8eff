"""Corpus: per-element sends in a phase loop (rule: scalar-send-in-hot-loop)."""

__phase_contract__ = "Master Assignment"


def ship(view, peers, ids, masters):
    for j in peers:
        # One scalar send per peer in a governed phase module: flagged.
        view.send(j, (ids[j], masters[ids[j]]), tag="master-assignments",
                  nbytes=12 * len(ids[j]))


def drain(view, pending, ids):
    while pending:
        j = pending.pop()
        # Loop shape does not matter; while-loops are flagged too.
        view.send(j, ids[j], tag="master-assignments", nbytes=12)
