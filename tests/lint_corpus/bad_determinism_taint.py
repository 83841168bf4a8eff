"""Corpus: a wall-clock value reaching a send (rule: deep-determinism-taint)."""

import time


def stamp_peers(view, peers):
    started = time.time()
    for j in peers:
        view.send(j, started, tag="stamp", nbytes=8)
