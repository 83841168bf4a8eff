"""Corpus control: determinism-respecting near-misses no rule may flag."""

import numpy as np

from repro.runtime.executor import HostTask


def seeded(seed):
    rng = np.random.default_rng(seed)  # seed injected: deterministic
    return rng.random()


def ordered(edges):
    hosts = {h for _, h in edges}
    return [h for h in sorted(hosts)]  # sorted() fixes the order


def membership_only(edges, h):
    seen = {a for a, _ in edges}
    return h in seen  # set used for membership, never iterated


def sorted_dict_send(view, pending):
    for dst, items in sorted(pending.items()):  # sorted() fixes the order
        view.send(dst, items, tag="batch", nbytes=8 * len(items))


def accounting_only_loop(view, peers, sizes):
    for j in peers:  # payload None: bytes are charged, nothing to batch
        view.send(j, None, tag="master-assignments", nbytes=12 * sizes[j],
                  coalesce=True)


def dict_no_send(counts):
    total = {}
    for dst, n in counts.items():  # no send inside: insertion order is fine
        total[dst] = n * 2
    return total


class OrderedTracker:
    """Set-typed attrs are fine when consumed through sorted()."""

    def __init__(self):
        self._fired = set()

    def snapshot(self):
        return sorted(self._fired)

    def contains(self, host):
        return host in self._fired  # membership, never iterated


def make_task(h, out, num_hosts):
    def body(view):
        scratch = np.zeros(num_hosts)
        scratch[h] = view.host  # body-created scratch, not captured state
        view.send((h + 1) % num_hosts, b"payload", tag="t", nbytes=8)
        view.send((h + 2) % num_hosts, None, tag="empty", nbytes=8)
        view.add_compute(1.0)
        return view.recv_all(tag="t")

    def install(result):
        out[h] = result  # apply runs in the parent: captured writes are fine
        return result

    return HostTask(h, body, label="clean", apply=install, drains=("t",))
