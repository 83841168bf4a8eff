"""Corpus: unseeded randomness (rule: deep-unseeded-rng)."""

import random

import numpy as np


def shuffle_hosts(hosts):
    random.shuffle(hosts)  # global stdlib RNG: seed set elsewhere, or never
    return hosts


def noise():
    rng = np.random.default_rng()  # unseeded generator
    legacy = np.random.rand()  # legacy global numpy RNG
    return rng.random() + legacy + random.random()


def fresh_rng():
    return random.Random()  # no-arg Random(): seeded from the OS
