"""Communicator sends reached through an attribute chain in a helper.

``phase.comm.send(...)`` reaches the shared Communicator through a
longer attribute chain than ``ctx.comm.allreduce_sum(...)``: the
``.comm`` access sits under another attribute, and ``send`` is not a
phase-global collective.  The body only calls ``ship``.
``deep-comm-in-task`` must still flag the access in the helper with a
chain naming body and helper.
"""

from repro.runtime.executor import HostTask


def ship(phase, host):
    phase.comm.send(host, 0, b"x", tag="t", nbytes=8)


def run_phase(phase, hosts):
    def body(view):
        ship(phase, view.host)
        return None

    return [HostTask(h, body, label="ship") for h in hosts]
