"""Corpus: cross-host writes from a mapped task (rule: deep-unshippable-task-capture)."""

from repro.runtime.executor import HostTask


def make_tasks(num_hosts, results):
    def body(view):
        for j in range(num_hosts):
            results[j] = view.host  # writes every host's slot, not just its own

    return [HostTask(h, body) for h in range(num_hosts)]
