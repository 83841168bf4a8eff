"""Communicator access laundered through a helper call.

No per-module rule sees it: the HostTask body below is squeaky clean
— it merely calls ``poke_peers``, which is where the ``.comm`` access
and the phase-global collective actually live.  ``deep-comm-in-task``
must follow the call edge and flag the access with a chain naming body
and helper.
"""

from repro.runtime.executor import HostTask


def poke_peers(ctx, h):
    ctx.comm.allreduce_sum(h)


def run_phase(ctx, hosts):
    def body(view):
        poke_peers(ctx, 1)
        return None

    return [HostTask(h, body, label="poke") for h in hosts]
