"""Corpus: task bodies mutating captured state (rule: deep-unshippable-task-capture)."""

from repro.runtime.executor import HostTask


def make_tasks(num_hosts, totals, registry):
    def body(view):
        # A forked worker's write to the captured list dies with the
        # worker: serial and process runs silently diverge.
        totals[view.host] = view.host * 2
        registry.count += 1  # captured attribute store: same problem
        local = {}
        local["ok"] = 1  # body-created: fine
        return local

    return [HostTask(h, body) for h in range(num_hosts)]
