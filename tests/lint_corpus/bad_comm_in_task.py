"""Corpus: shared Communicator use inside a HostTask body (rule: deep-comm-in-task)."""

from repro.runtime.executor import HostTask


def make_tasks(phase, num_hosts):
    def body(view):
        # Both lines bypass the private ledger: the shared communicator
        # must not be touched while mapped tasks run concurrently.
        phase.comm.send(view.host, 0, b"x", tag="t", nbytes=8)
        phase.comm.barrier()

    return [HostTask(h, body) for h in range(num_hosts)]


def make_lambda_tasks(phase, hosts):
    # A lambda body is a body too.
    return [HostTask(h, lambda v: phase.comm.barrier()) for h in hosts]
