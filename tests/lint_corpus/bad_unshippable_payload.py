"""Corpus: a HostTask payload a forked worker cannot receive (rule: deep-unshippable-payload)."""

import threading

from repro.runtime.executor import HostTask


def body(view, lock):
    with lock:
        return view.host


def make_tasks(num_hosts):
    lock = threading.Lock()
    return [HostTask(h, body, payload=lock) for h in range(num_hosts)]
