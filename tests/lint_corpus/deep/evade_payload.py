"""An unshippable HostTask payload hidden behind a constructor.

No per-module rule reasons about payload values at all, and nothing here *looks* wrong at the call
site — the payload is just ``make_channel()``.  But the factory
returns a ``Channel`` whose ``__init__`` stores a ``threading.Lock``,
which cannot cross the process boundary to a forked worker.  The deep
``deep-unshippable-payload`` pass must evaluate the payload's value
tree through the factory and the constructor and flag the lock.
"""

import threading

from repro.runtime.executor import HostTask


class Channel:
    def __init__(self, capacity=4):
        self.capacity = capacity
        self._lock = threading.Lock()
        self.slots = []


def make_channel():
    return Channel()


def run_phase(hosts):
    def body(view, payload):
        return payload

    return [
        HostTask(h, body, payload=make_channel(), label="channel")
        for h in hosts
    ]
