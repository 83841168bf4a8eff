"""Unseeded RNG laundered through a seed-forwarding wrapper stack.

No direct draw to flag: every ``default_rng(seed)`` call in this file
passes a variable.  But the seed parameter defaults to ``None`` at
each layer, and the top call site omits it — so the generator is
entropy-seeded after all.  ``deep-unseeded-rng`` threads the parameter
interprocedurally and must flag the deciding call with the full
wrapper chain.
"""

from numpy.random import default_rng


def fresh_rng(seed=None):
    return default_rng(seed)


def jitter(count, seed=None):
    rng = fresh_rng(seed)
    return rng.permutation(count)


def shuffle_candidates(candidates):
    order = jitter(len(candidates))
    return [candidates[i] for i in order]
