"""Communicator access behind a lambda HostTask body.

A lambda body is summarised as a function of its own, so it resolves
like a named body: ``deep-comm-in-task`` must follow the lambda into
``_poke`` and flag the collective with a chain naming both.
"""

from repro.runtime.executor import HostTask


def _poke(phase):
    phase.comm.barrier()


def run_phase(phase, hosts):
    return [HostTask(h, lambda v: _poke(phase)) for h in hosts]
