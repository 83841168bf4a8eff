"""Wall-clock nondeterminism laundered through a helper chain.

No per-module rule sees it: this file contains no clock call — the
read hides in ``bench_util.now_ms`` (a path the ``wall-clock`` rule
exempts wholesale), and only the *value* travels
back through ``elapsed_stamp`` into a HostTask result.  The deep
``deep-determinism-taint`` pass must flag the task registration with
a value path naming every hop.
"""

import bench_util

from repro.runtime.executor import HostTask


def elapsed_stamp() -> float:
    return bench_util.now_ms()


def run_phase(hosts):
    def body(view):
        stamp = elapsed_stamp()
        return stamp

    return [HostTask(h, body, label="stamp") for h in hosts]
