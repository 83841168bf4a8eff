"""Simulated message passing with exact byte/message accounting.

This is the reproduction's stand-in for MPI/LCI (paper §IV-D).  Hosts are
slots in a single process; a :class:`Communicator` carries *real* payloads
between them (so partitioning and analytics are functionally exact) while
recording, per (source, destination) pair, the bytes and network messages
the transfer would have cost on a real cluster.

Message counting honours the paper's buffering optimization (§IV-D3):
with a positive ``buffer_size`` a logical stream of ``nbytes`` to one peer
costs ``ceil(nbytes / buffer_size)`` messages; with ``buffer_size == 0``
each *logical* message (e.g. one node's serialized edge bundle) is sent
immediately and costs one network message — which is exactly the 0 MB
configuration of Figure 7.

When a :class:`~repro.runtime.faults.FaultInjector` is attached, sends
run over a *reliable transport on a lossy fabric*: transient failures,
in-flight drops and duplicated deliveries never corrupt or lose the
payload (delivery stays exactly-once), but every retransmission is
charged to dedicated retry counters — extra bytes, extra messages, and
exponential-backoff stalls — so recovery overhead is visible in the
simulated breakdown.

Every send is recorded on a *private* :class:`CommLedger` — one host's
outbound accounting and payloads — and folded into the shared matrices
and queues by :meth:`Communicator.merge_ledger`, the one writer of
that state.  :meth:`Communicator.send` is a ledger merged at once; the
execution engine (:mod:`repro.runtime.executor`) hands each host task a
ledger of its own (:meth:`Communicator.ledger`) and merges them at the
barrier.  Merging in host order reproduces, bit for bit, the
accounting and message-queue order of hand calls to :meth:`send` made
host by host — which is what lets the hosts run concurrently without
perturbing a single counter.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Any, Iterable, Mapping, Protocol

import numpy as np

from ..analysis import isolation
from .colfab import ColumnSchema, MessageBatch, ReceivedBatch
from .faults import FaultEvent, FaultInjector, SendRetriesExhausted

__all__ = ["Communicator", "CommLedger", "CommObserver", "payload_nbytes"]


class CommObserver(Protocol):
    """Passive witness of a communicator's message flow.

    The contract sanitizer (:class:`repro.analysis.contracts.CommSan`)
    implements this to mirror the accounting independently; the hooks
    fire only when :attr:`Communicator.observer` is set, so the default
    path costs one ``is None`` check.  Every send reaches the shared
    state through a ledger merge, so :meth:`on_merge` sees every send,
    a direct :meth:`Communicator.send` included.  Collectives and
    barriers need no hook — their event lists are read directly at the
    phase barrier.
    """

    def on_merge(self, ledger: "CommLedger") -> None: ...

    def on_recv(self, dst: int, tag: str, count: int) -> None: ...


#: Scalar types that serialize to one machine word.  ``np.bool_`` is
#: listed explicitly: under NumPy 2 it is no longer a ``bool``/``int``
#: subclass, so it would otherwise fall through to the TypeError.
_WORD_SCALARS = (bool, int, float, np.bool_, np.integer, np.floating)


def payload_nbytes(payload: Any) -> int:
    """Approximate serialized size of a payload in bytes.

    NumPy arrays (including 0-d scalars-in-arrays) count their buffer
    size; :class:`~repro.runtime.colfab.MessageBatch` payloads answer in
    O(1) from their schema's memoized per-row size; containers count the
    sum of their elements; Python and NumPy scalars count 8 bytes (one
    machine word).  Homogeneous NumPy containers — the common wire shape
    ``(array, array, ...)`` — are sized in a single non-recursive pass.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        # Covers 0-d arrays too: np.asarray(3.0).nbytes == 8.
        return int(payload.nbytes)
    if isinstance(payload, MessageBatch):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        # Fast path: dispatch arrays and scalars inline instead of
        # recursing per element (sizes are identical either way).
        total = 0
        for p in payload:
            if isinstance(p, np.ndarray):
                total += p.nbytes
            elif isinstance(p, _WORD_SCALARS):
                total += 8
            elif p is not None:
                total += payload_nbytes(p)
        return int(total)
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    if isinstance(payload, _WORD_SCALARS):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class Communicator:
    """Point-to-point and collective communication among ``num_hosts`` slots.

    All accounting methods are cheap; payload delivery is by reference
    (hosts must not mutate received arrays they do not own).
    """

    def __init__(
        self,
        num_hosts: int,
        buffer_size: int = 8 << 20,
        injector: FaultInjector | None = None,
        max_retries: int = 5,
    ):
        if num_hosts < 1:
            raise ValueError("num_hosts must be >= 1")
        if buffer_size < 0:
            raise ValueError("buffer_size must be >= 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.num_hosts = num_hosts
        self.buffer_size = buffer_size
        self.injector = injector
        self.max_retries = max_retries
        # One (src, dst) matrix per accounting vector of a CommLedger, in
        # its order, so a merge adds a whole ledger into its host's row
        # at once.  The retry pair counts retransmissions caused by
        # injected faults, on top of the first-attempt accounting, so
        # recovery cost shows up per phase.  The stream pair counts the
        # sends made with coalesce=True: the dedicated communication
        # thread batches consecutive small sends to the same peer into
        # buffer-sized network messages (paper §IV-D3), so their message
        # count is derived from the stream volume, not the number of
        # send calls.
        self._matrices = np.zeros((6, num_hosts, num_hosts), dtype=np.float64)
        (
            self.sent_bytes, self.sent_messages,
            self.retry_bytes, self.retry_messages,
            self._stream_bytes, self._stream_logical,
        ) = self._matrices
        #: Per-source exponential-backoff units (sum of 2**attempt over
        #: failed attempts); the cost model converts them to stall time.
        self.backoff_units = np.zeros(num_hosts, dtype=np.float64)
        self.collective_events: list[tuple[str, float]] = []
        self.barriers = 0
        #: Optional passive witness (e.g. CommSan); installed per phase
        #: by the cluster, never consulted for accounting decisions.
        self.observer: CommObserver | None = None
        self._queues: dict[tuple[int, str], deque] = defaultdict(deque)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        tag: str = "default",
        logical_messages: int = 1,
        nbytes: int | None = None,
        coalesce: bool = False,
    ) -> None:
        """Deliver ``payload`` from ``src`` to ``dst`` and account for it.

        ``logical_messages`` is the number of application-level messages
        in the stream (used only when unbuffered).  ``nbytes`` overrides
        the automatic payload sizing (e.g. to model elided metadata).
        ``coalesce=True`` marks the send as part of an ongoing stream to
        this peer: the comm thread batches such sends, so the stream's
        message count is ceil(total bytes / buffer) at the end rather than
        one per call.  Local "sends" (src == dst) are delivered but cost
        nothing: CuSP constructs local edges directly (§IV-B5).

        This is :meth:`CommLedger.send` on ``src``'s ledger, merged at
        once (:meth:`merge_ledger`).
        """
        if isolation._depth:
            # During a monitored parallel section, every charge must go
            # through the host's private ledger; a direct send from a
            # mapped task races the merge barrier.
            isolation.guard_shared(
                "Communicator.send",
                f"sent {src}->{dst} on the shared Communicator, "
                "bypassing its CommLedger",
            )
        ledger = self.ledger(src)
        try:
            ledger.send(
                dst, payload, tag=tag, logical_messages=logical_messages,
                nbytes=nbytes, coalesce=coalesce,
            )
        finally:
            # A send that raised has charged its wasted attempts, and
            # they stay charged, as a raising host's ledger does at a
            # barrier.
            self.merge_ledger(ledger)

    # ------------------------------------------------------------------
    # Per-host ledger views (execution engine)
    # ------------------------------------------------------------------
    def ledger(self, host: int) -> "CommLedger":
        """A private recording view for traffic originated by ``host``."""
        self._check_host(host)
        return CommLedger(self, host)

    def merge_ledger(self, ledger: "CommLedger") -> None:
        """Fold one host's private ledger into the shared accounting.

        Calling this for every host's ledger *in host order* reproduces
        exactly the matrices and per-destination queue order a serial
        host-by-host execution over the shared state would have built.
        """
        isolation.guard_shared(
            "Communicator.merge_ledger",
            "merged a ledger from inside a mapped task; merging is the "
            "barrier's job",
        )
        if self.observer is not None:
            self.observer.on_merge(ledger)
        h = ledger.host
        self._matrices[:, h, :] += ledger._vectors
        self.backoff_units[h] += ledger.backoff_units
        for dst, tag, payload in ledger.queued:
            self._queues[(dst, tag)].append((h, payload))
        ledger.queued = []

    def _stream_messages(self) -> np.ndarray:
        """Network messages implied by the coalesced streams."""
        if self.buffer_size > 0:
            return np.ceil(self._stream_bytes / self.buffer_size)
        return self._stream_logical

    def _message_count(self, nbytes: int, logical_messages: int) -> int:
        if self.buffer_size > 0:
            return max(1, math.ceil(nbytes / self.buffer_size))
        return max(1, logical_messages)

    def recv_all(self, dst: int, tag: str = "default") -> list[tuple[int, Any]]:
        """All messages queued for ``dst`` under ``tag`` (drains the queue)."""
        if isolation._depth:
            # A mapped task may drain only its own queue: queues are
            # appended to exclusively at merge barriers, so own-queue
            # reads are race-free by construction.
            isolation.guard_owned(dst, "Communicator.recv_all")
        self._check_host(dst)
        q = self._queues.get((dst, tag))
        if not q:
            return []
        out = list(q)
        q.clear()
        if self.observer is not None:
            self.observer.on_recv(dst, tag, len(out))
        return out

    def pending(self, dst: int, tag: str = "default") -> int:
        """Number of undelivered messages for ``dst``."""
        return len(self._queues.get((dst, tag), ()))

    def drop_pending(self) -> None:
        """Forget every undelivered message (the cluster does, when the
        phase closes): nothing can drain them any more, and a queued
        block pins its columns and any ``/dev/shm`` name relaying it."""
        self._queues.clear()

    def replay_recv(self, dst: int, tag: str, count: int) -> None:
        """Re-play a worker process's drain of ``dst``'s queue.

        The process executor's workers drain the :meth:`snapshot_queues`
        copy shipped with their tasks; at the barrier the parent removes
        the same ``count`` oldest entries here so queue state and the
        observer's drain tally match what a serial sweep would have
        produced.  Entries merged from other hosts at the
        same barrier are appended *behind* the snapshot the worker saw,
        so popping from the front removes exactly the drained messages.
        """
        self._check_host(dst)
        if count <= 0:
            return
        q = self._queues.get((dst, tag))
        if q is None or len(q) < count:
            have = 0 if q is None else len(q)
            raise RuntimeError(
                f"replay_recv({dst}, {tag!r}): worker drained {count} "
                f"message(s) but only {have} are queued; the queue was "
                "mutated outside the barrier protocol"
            )
        for _ in range(count):
            q.popleft()
        if self.observer is not None:
            self.observer.on_recv(dst, tag, count)

    def snapshot_queues(
        self, dst: int, tags: Iterable[str]
    ) -> dict[str, list[tuple[int, Any]]]:
        """Non-draining FIFO snapshot of ``dst``'s non-empty queues among
        ``tags`` — the inbox its task declared (``HostTask.drains``).

        The pooled process executor ships this to the worker that runs
        ``dst``'s task, where :meth:`preload_queues` installs it into a
        fresh worker-side communicator; the parent's queues stay intact
        until :meth:`replay_recv` re-plays the worker's drains at the
        barrier.  Queues under any other tag are never copied: no body
        can drain them, so shipping them would only re-send the host's
        whole backlog at every barrier.
        """
        self._check_host(dst)
        out: dict[str, list[tuple[int, Any]]] = {}
        for tag in tags:
            q = self._queues.get((dst, tag))
            if q:
                out[tag] = list(q)
        return out

    def preload_queues(
        self, dst: int, snapshot: Mapping[str, list[tuple[int, Any]]]
    ) -> None:
        """Install a :meth:`snapshot_queues` snapshot (worker side)."""
        self._check_host(dst)
        for tag, entries in snapshot.items():
            self._queues[(dst, tag)].extend(entries)

    # ------------------------------------------------------------------
    # Columnar batch path (repro.runtime.colfab)
    # ------------------------------------------------------------------
    def recv_all_batch(
        self, dst: int, tag: str, schema: ColumnSchema
    ) -> ReceivedBatch:
        """Drain ``dst``'s queue for ``tag`` as one concatenated batch.

        Every queued payload must be a :class:`MessageBatch` of
        ``schema``; blocks are concatenated in the same FIFO order
        :meth:`recv_all` would have returned them, with the per-block
        sources preserved (``srcs``/``src_column``).
        """
        return ReceivedBatch(schema, self.recv_all(dst, tag))

    # ------------------------------------------------------------------
    # Collectives (payload-carrying, with cost events)
    # ------------------------------------------------------------------
    def allreduce_sum(
        self,
        contributions: Iterable[np.ndarray],
        blocking: bool = True,
        nbytes: float | None = None,
    ) -> np.ndarray:
        """Element-wise sum across hosts; every host gets the result.

        ``blocking=False`` records the collective as asynchronous: hosts
        do not wait at the round boundary (CuSP's master-assignment
        synchronization, paper §IV-D5), so the cost model charges volume
        but not a latency tree.  ``nbytes`` overrides the charged volume
        when the exchanged representation is smaller than the dense
        result (e.g. sparse delta synchronization).
        """
        isolation.guard_shared("Communicator.allreduce_sum")
        arrays = [np.asarray(c) for c in contributions]
        if len(arrays) != self.num_hosts:
            raise ValueError("one contribution per host required")
        result = arrays[0].copy()
        for a in arrays[1:]:
            result = result + a
        kind = "allreduce" if blocking else "allreduce-async"
        charged = float(result.nbytes) if nbytes is None else float(nbytes)
        self.collective_events.append((kind, charged))
        return result

    def allreduce_max(
        self,
        contributions: Iterable[np.ndarray],
        nbytes: float | None = None,
    ) -> np.ndarray:
        isolation.guard_shared("Communicator.allreduce_max")
        arrays = [np.asarray(c) for c in contributions]
        if len(arrays) != self.num_hosts:
            raise ValueError("one contribution per host required")
        result = arrays[0].copy()
        for a in arrays[1:]:
            np.maximum(result, a, out=result)
        charged = float(result.nbytes) if nbytes is None else float(nbytes)
        self.collective_events.append(("allreduce", charged))
        return result

    def allgather(self, contributions: list[Any]) -> list[Any]:
        """Every host receives the list of all contributions."""
        isolation.guard_shared("Communicator.allgather")
        if len(contributions) != self.num_hosts:
            raise ValueError("one contribution per host required")
        nbytes = sum(payload_nbytes(c) for c in contributions)
        self.collective_events.append(("allgather", float(nbytes)))
        return list(contributions)

    def barrier(self) -> None:
        """Record a global synchronization point."""
        isolation.guard_shared("Communicator.barrier")
        self.barriers += 1

    # ------------------------------------------------------------------
    # Accounting queries
    # ------------------------------------------------------------------
    def total_bytes(self) -> float:
        """All bytes sent between distinct hosts, retransmissions included."""
        return float(self.sent_bytes.sum() + self.retry_bytes.sum())

    def total_messages(self) -> float:
        return float(
            self.sent_messages.sum()
            + self._stream_messages().sum()
            + self.retry_messages.sum()
        )

    def total_retry_bytes(self) -> float:
        """Bytes spent on fault-induced retransmissions only."""
        return float(self.retry_bytes.sum())

    def total_retry_messages(self) -> float:
        return float(self.retry_messages.sum())

    def host_sent(self, host: int) -> float:
        return float(self.sent_bytes[host, :].sum() + self.retry_bytes[host, :].sum())

    def host_received(self, host: int) -> float:
        return float(self.sent_bytes[:, host].sum() + self.retry_bytes[:, host].sum())

    def host_messages(self, host: int) -> float:
        """Messages originated by ``host``."""
        return float(
            self.sent_messages[host, :].sum()
            + self._stream_messages()[host, :].sum()
            + self.retry_messages[host, :].sum()
        )

    def partners(self, host: int) -> int:
        """Number of distinct peers ``host`` exchanged data with.

        Retry traffic counts: a peer reached only through charged
        retransmissions was still contacted.
        """
        out = self.sent_bytes[host, :] + self.retry_bytes[host, :]
        inc = self.sent_bytes[:, host] + self.retry_bytes[:, host]
        mask = (out > 0) | (inc > 0)
        mask[host] = False
        return int(mask.sum())

    def _check_host(self, h: int) -> None:
        if not (0 <= h < self.num_hosts):
            raise ValueError(f"host {h} out of range [0, {self.num_hosts})")


class CommLedger:
    """Private per-host recording view over a :class:`Communicator`.

    A ledger accumulates one host's outbound accounting in private
    vectors (one slot per destination) and buffers its outbound payloads
    without touching the communicator's shared queues.  Fault-injection
    draws still happen live against the host's own
    :class:`~repro.runtime.faults.HostFaultChannel`, whose event stream
    is redirected into the ledger so discarded parallel work never
    leaks events.  :meth:`Communicator.merge_ledger` folds everything
    back in at a phase barrier.
    """

    def __init__(self, comm: Communicator, host: int):
        self.comm = comm
        self.host = host
        #: One row per accounting vector, in the order of the
        #: communicator's matrices, one column per destination.
        self._vectors = np.zeros((6, comm.num_hosts), dtype=np.float64)
        (
            self.sent_bytes, self.sent_messages,
            self.retry_bytes, self.retry_messages,
            self.stream_bytes, self.stream_logical,
        ) = self._vectors
        self.backoff_units = 0.0
        #: Buffered outbound payloads as (dst, tag, payload), in send order.
        self.queued: list[tuple[int, str, Any]] = []
        #: Fault events drawn while recording on this ledger (merged into
        #: the injector's shared stream by the executor, in host order).
        self.fault_events: list[FaultEvent] = []

    def send(
        self,
        dst: int,
        payload: Any,
        tag: str = "default",
        logical_messages: int = 1,
        nbytes: int | None = None,
        coalesce: bool = False,
    ) -> None:
        """Record a send from this ledger's host (the semantics of
        :meth:`Communicator.send`, which is this plus a merge)."""
        if isolation._depth:
            isolation.guard_owned(self.host, "CommLedger.send")
        comm = self.comm
        comm._check_host(dst)
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        if self.host != dst:
            if comm.injector is not None:
                self._run_faulty_transport(dst, size)
            self.sent_bytes[dst] += size
            if coalesce:
                self.stream_bytes[dst] += size
                self.stream_logical[dst] += max(1, logical_messages)
            else:
                self.sent_messages[dst] += comm._message_count(
                    size, logical_messages
                )
        self.queued.append((dst, tag, payload))

    def _run_faulty_transport(self, dst: int, size: int) -> None:
        """Subject one remote send to the attached fault injector.

        May raise :class:`~repro.runtime.faults.HostCrashError` (a
        mid-phase crash triggered by this operation) or
        :class:`~repro.runtime.faults.SendRetriesExhausted`.  Charges
        every wasted attempt to this ledger's retry counters, those of
        the attempts before a raise included.
        """
        src = self.host
        limit = self.comm.max_retries
        channel = self.comm.injector.channel(src)
        channel.tick()
        attempt = 0
        # Sender-side NACKs, then in-flight drops (ack timeout): retransmit
        # with exponential backoff (a retransmission may drop too).
        for faulty, failure in (
            (channel.transient_send_failure, "failed after {} retries"),
            (channel.dropped, "dropped {} times"),
        ):
            while faulty(dst):
                self.retry_bytes[dst] += size
                self.retry_messages[dst] += 1
                self.backoff_units += 2.0 ** attempt
                attempt += 1
                if attempt > limit:
                    raise SendRetriesExhausted(
                        f"send {src}->{dst} " + failure.format(limit)
                    )
        # Corrupted delivery: the receiver's block checksum rejects the
        # payload and sends a re-request; the sender retransmits (the
        # retransmission may be corrupted again).  That costs two wire
        # messages on the src->dst channel, the one-word re-request and
        # the full retransmission (retry_event_channels' weight 2).
        while channel.corrupted(dst):
            self.retry_bytes[dst] += size + 8
            self.retry_messages[dst] += 2
            attempt += 1
            if attempt > limit:
                raise SendRetriesExhausted(
                    f"send {src}->{dst} corrupted {limit} times"
                )
        # Duplicated delivery: the receiver dedups, the wire paid twice.
        if channel.duplicated(dst):
            self.retry_bytes[dst] += size
            self.retry_messages[dst] += 1

    def state(self) -> dict[str, Any]:
        """What this ledger recorded, picklable: its accounting, queued
        payloads and fault events (what a pool worker ships home)."""
        return {
            "vectors": self._vectors,
            "backoff_units": self.backoff_units,
            "queued": self.queued,
            "fault_events": self.fault_events,
        }

    def load(self, state: Mapping[str, Any]) -> None:
        """Take in a :meth:`state` recorded on another ledger of the
        same host, in place of this one's accounting and queue."""
        self._vectors[:] = state["vectors"]
        self.backoff_units = state["backoff_units"]
        self.queued = state["queued"]
        self.fault_events.extend(state["fault_events"])
