"""Run the harness so that no process it starts outlives it.

The harness starts processes that start processes: every visit is a
``worker.py`` subprocess, the process executor forks a pool under it,
and anything that touches ``multiprocessing.shared_memory`` (the pool,
the columnar wire format, the kernel pass) gets a resource-tracker
daemon that only ends *after* its parent has exited.  Such an orphan is
nobody's child any more; where pid 1 does not reap, it stays in the
process table for good.

:func:`supervised` therefore runs the harness in a forked child and
stays behind as a *child subreaper* (``prctl(PR_SET_CHILD_SUBREAPER)``):
every orphaned descendant is re-parented to it instead of to pid 1.  It
reaps them as they end, gives whatever is left when the harness exits
:data:`GRACE_S` to end by itself, kills the rest, and returns only once
it has no child left -- on every way out, a signal included.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
import traceback
from typing import Callable

#: How long the orphans of a finished harness get to end by themselves
#: (a resource tracker unlinks what its parent leaked, then exits).
GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


class _Stopped(BaseException):
    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _raise_stopped(signum, _frame) -> None:
    raise _Stopped(signum)


def _become_subreaper() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
            raise OSError(ctypes.get_errno(), "prctl")
    except (OSError, AttributeError) as exc:
        # Not Linux: orphans go to pid 1 as usual and cannot be waited for.
        print(f"supervise: no child subreaper here ({exc})", file=sys.stderr)


def _children() -> list[int]:
    """Pids whose parent is this process (live or not yet reaped)."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # "pid (comm) state ppid ..."; comm may hold anything.
                ppid = int(f.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # ended while we were looking
        if ppid == me:
            found.append(int(entry))
    return found


def _reap_until(deadline: float) -> bool:
    """Reap children as they end; ``True`` once there is none left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)


def _kill_everything() -> None:
    """Kill every descendant and wait until each has ended.

    A killed child hands its own children over to this process (the
    subreaper), so this repeats until there is nothing left to wait for.
    """
    while True:
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if _reap_until(time.monotonic() + 0.2):
            return


def supervised(harness: Callable[[], int]) -> int:
    """Exit code of ``harness()``, run in a child that leaves nothing behind."""
    _become_subreaper()
    previous = {s: signal.signal(s, _raise_stopped) for s in STOP_SIGNALS}
    sys.stdout.flush()
    sys.stderr.flush()
    child = os.fork()
    if child == 0:
        code = 1
        try:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            code = harness()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)

    code = 1
    try:
        status = None
        while status is None:
            pid, ended = os.waitpid(-1, 0)  # orphans of finished visits too
            if pid == child:
                status = ended
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            code = 128 - code
        if not _reap_until(time.monotonic() + GRACE_S):
            print(f"supervise: killing what the harness left running: "
                  f"{_children()}", file=sys.stderr)
    except _Stopped as stop:
        code = 128 + stop.signum
    finally:
        for signum in STOP_SIGNALS:
            signal.signal(signum, signal.SIG_IGN)
        _kill_everything()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return code
