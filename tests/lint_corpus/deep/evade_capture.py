"""Captured-state mutation laundered through a helper.

No per-module rule sees it: the body below writes nothing — it hands
the captured ``tallies`` dict to ``record_result``, which performs the
write through its parameter.  Under a forked process executor that
write lands in the worker's copy and silently dies with it.
``deep-unshippable-task-capture`` must follow the argument into the
helper and flag the write with the full chain.
"""

from repro.runtime.executor import HostTask


def record_result(acc, h, value):
    acc[h] = value


def run_phase(hosts):
    tallies = {}

    def body(view):
        value = 2
        record_result(tallies, 0, value)
        return value

    return [HostTask(h, body, label="tally") for h in hosts]
