"""Columnar message fabric: typed structure-of-arrays record batches.

CuSP's speedups come from treating communication as bulk buffered
streams (paper §IV-D3), but a simulator that moves one Python object
per logical message spends its time in the interpreter, not in the
algorithm.  This module is the data plane of the batch message path:

* :class:`ColumnSchema` — the *type* of a batch: named, dtyped columns
  (all the same length) plus named 8-byte scalars.  Schemas compare by
  value, so a sender and a receiver that construct the same schema
  independently agree on the channel type.
* :class:`MessageBatch` — one structure-of-arrays record batch.  Its
  serialized size is O(1) exact (``rows * row_nbytes + 8 * scalars``,
  no recursive payload walk) and :meth:`MessageBatch.slice` is
  zero-copy (NumPy views).
* :class:`ReceivedBatch` — the receiver-side view
  :meth:`~repro.runtime.comm.Communicator.recv_all_batch` returns:
  per-column concatenations of every queued block, the per-block source
  hosts/lengths/scalars, and a lazily materialized per-row ``src``
  column — instead of a Python list of ``(src, payload)`` tuples.
* :class:`BatchAccumulator` — stand-alone sender-side staging: append
  batches into per-``(dst, tag)`` buffers and emit them as contiguous
  blocks with an explicit ``flush``/``flush_all`` (no executor hooks
  it; no phase uses it).  Every flushed block is exactly one transport
  send, so byte/message accounting, fault-injection draws, and
  CommSan's mirrored traffic matrix all see one operation per staged
  block.

The per-payload ``send``/``recv_all`` verbs remain for analytics,
control and accounting-only traffic; a batch is charged exactly what a
``send`` of the same ``nbytes`` is, never by a different cost model.
See ``docs/PERFORMANCE.md`` for the design rationale.
"""

from __future__ import annotations

import errno
import itertools
import mmap
import os
import struct
import zlib
from typing import Any, Iterator, Protocol, Sequence

import numpy as np

__all__ = [
    "ColumnSchema",
    "MessageBatch",
    "ReceivedBatch",
    "BatchAccumulator",
    "WIRE_MAGIC",
    "WIRE_VERSION",
]

#: Wire-format framing for :meth:`MessageBatch.to_bytes`.
WIRE_MAGIC = b"RBAT"
WIRE_VERSION = 3

#: The one column storage kind: raw bytes, in the frame.  A frame never
#: names anything outside itself (how an array crosses a pool pipe is
#: :mod:`repro.runtime.residency`'s business), so any other kind is refused.
_STORE_INLINE = 0

#: Scalar kinds in the wire format (signed 64-bit int / IEEE double).
_SCALAR_INT = 0
_SCALAR_FLOAT = 1

_HEADER = struct.Struct("<4sHHQHHI")  # magic, version, flags, rows, ncols, nscalars, crc

#: Serialized size of one scalar field (one machine word, matching
#: :func:`repro.runtime.comm.payload_nbytes` on a Python number).
SCALAR_NBYTES = 8


class ColumnSchema:
    """The type of a message batch: dtyped columns plus scalar fields.

    ``columns`` maps names to dtypes; every column of a conforming batch
    has the same row count.  ``scalars`` are per-batch 8-byte fields
    (counts, flags) that ride along without a row dimension.  Schemas
    are immutable, hashable, and compare by value.
    """

    __slots__ = ("columns", "scalars", "names", "row_nbytes", "_hash")

    def __init__(
        self,
        columns: Sequence[tuple[str, Any]],
        scalars: Sequence[str] = (),
    ):
        cols = tuple((str(name), np.dtype(dt)) for name, dt in columns)
        names = tuple(name for name, _ in cols)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        scalar_names = tuple(str(s) for s in scalars)
        if len(set(scalar_names)) != len(scalar_names):
            raise ValueError(f"duplicate scalar names in {scalar_names}")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "scalars", scalar_names)
        object.__setattr__(self, "names", names)
        # Memoized per-schema: the exact serialized bytes per row.  This
        # is what makes MessageBatch.nbytes O(1) instead of a recursive
        # payload walk.
        object.__setattr__(
            self, "row_nbytes", sum(dt.itemsize for _, dt in cols)
        )
        object.__setattr__(self, "_hash", hash((cols, scalar_names)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ColumnSchema is immutable")

    def __reduce__(self) -> tuple[Any, ...]:
        # The immutability guard above breaks the default slot-state
        # protocol, so pickling goes through the constructor instead.
        return (ColumnSchema, (self.columns, self.scalars))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnSchema):
            return NotImplemented
        return self.columns == other.columns and self.scalars == other.scalars

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}:{dt}" for n, dt in self.columns)
        extra = f"; scalars={list(self.scalars)}" if self.scalars else ""
        return f"ColumnSchema({cols}{extra})"

    def empty_columns(self) -> tuple[np.ndarray, ...]:
        """Zero-row arrays of the right dtypes, in column order."""
        return tuple(np.empty(0, dtype=dt) for _, dt in self.columns)


class MessageBatch:
    """One structure-of-arrays record batch conforming to a schema.

    Columns are held by reference (zero-copy); receivers must not
    mutate arrays they do not own, exactly as with the scalar path.
    """

    __slots__ = ("schema", "columns", "scalars", "rows", "_crc")

    def __init__(
        self,
        schema: ColumnSchema,
        columns: Sequence[np.ndarray] = (),
        scalars: Sequence[float] = (),
    ):
        cols = tuple(np.asarray(c) for c in columns)
        if len(cols) != len(schema.columns):
            raise ValueError(
                f"schema has {len(schema.columns)} column(s), "
                f"got {len(cols)}"
            )
        rows = cols[0].shape[0] if cols else 0
        for (name, dt), arr in zip(schema.columns, cols):
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            if arr.dtype != dt:
                raise TypeError(
                    f"column {name!r} is {arr.dtype}, schema says {dt}"
                )
            if arr.shape[0] != rows:
                raise ValueError(
                    f"column {name!r} has {arr.shape[0]} rows, "
                    f"expected {rows}"
                )
        scal = tuple(scalars)
        if len(scal) != len(schema.scalars):
            raise ValueError(
                f"schema has {len(schema.scalars)} scalar(s), "
                f"got {len(scal)}"
            )
        self.schema = schema
        self.columns = cols
        self.scalars = scal
        self.rows = rows
        #: Memoized :meth:`checksum` (columns are immutable by contract).
        self._crc: int | None = None

    @classmethod
    def empty(
        cls, schema: ColumnSchema, scalars: Sequence[float] = ()
    ) -> "MessageBatch":
        """A zero-row batch (the columnar 'nothing to send' marker)."""
        if not scalars and schema.scalars:
            scalars = (0,) * len(schema.scalars)
        return cls(schema, schema.empty_columns(), scalars)

    @property
    def nbytes(self) -> int:
        """Exact serialized size, computed in O(1) from the schema."""
        return self.rows * self.schema.row_nbytes + SCALAR_NBYTES * len(
            self.scalars
        )

    def checksum(self) -> int:
        """CRC-32 over the batch's serialized content (columns + scalars).

        This is the per-block integrity check of the reliable transport:
        a sender stamps each flushed block, the receiver recomputes the
        CRC and re-requests any block whose checksum disagrees — the
        ``corrupt-payload`` fault family.  In the simulation payloads are
        delivered by reference, so delivery stays exactly-once while the
        injector charges the re-request + retransmission cost; the
        checksum itself is real, and any bit flip in a column or scalar
        changes it.

        Memoized: batch columns are immutable by contract (receivers
        must not mutate arrays they do not own), so the CRC is computed
        at most once per batch and re-used by every later serialization.
        """
        if self._crc is not None:
            return self._crc
        crc = 0
        for (name, dt), col in zip(self.schema.columns, self.columns):
            crc = zlib.crc32(name.encode(), crc)
            # A C-contiguous ndarray satisfies the buffer protocol, so
            # crc32 streams straight over the column — no tobytes() copy.
            crc = zlib.crc32(np.ascontiguousarray(col), crc)
        for value in self.scalars:
            crc = zlib.crc32(repr(value).encode(), crc)
        self._crc = crc
        return crc

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.schema.names.index(name)]

    def scalar(self, name: str) -> float:
        return self.scalars[self.schema.scalars.index(name)]

    def slice(self, start: int, stop: int) -> "MessageBatch":
        """A zero-copy row slice (columns are views, scalars shared)."""
        return MessageBatch(
            self.schema,
            tuple(c[start:stop] for c in self.columns),
            self.scalars,
        )

    # ------------------------------------------------------------------
    # Versioned wire format (the batch's one byte surface)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the versioned, self-describing wire format.

        Layout (little-endian, version 3): a fixed header (magic,
        version, flags — always 0 —, rows, #columns, #scalars, CRC-32),
        the schema section (length-prefixed UTF-8 column names + dtype
        strings, then scalar names), the scalar values (kind-tagged
        int64/float64 words), and each column as inline raw bytes.  The
        header CRC is :meth:`checksum` continued over the schema
        section's bytes, so a flipped dtype or scalar name is caught
        like a flipped data bit.

        This is the codec for bytes that leave the process's trust —
        files, sockets, fuzzers.  It is *not* how a batch crosses a pool
        pipe: pickling ships the parts (:meth:`__reduce__`) and
        :mod:`repro.runtime.residency` decides per array what rides a
        shared-memory segment.
        """
        schema_parts = []
        for name, dt in self.schema.columns:
            schema_parts += [_pack_str(name), _pack_str(dt.str)]
        schema_parts += [_pack_str(sname) for sname in self.schema.scalars]
        schema = b"".join(schema_parts)
        parts = [
            _HEADER.pack(
                WIRE_MAGIC, WIRE_VERSION, 0, self.rows,
                len(self.schema.columns), len(self.schema.scalars),
                zlib.crc32(schema, self.checksum()),
            ),
            schema,
        ]
        for value in self.scalars:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    "wire format carries int/float scalars only, got "
                    f"{type(value).__name__}"
                )
            if isinstance(value, int):
                if not -(2**63) <= value < 2**63:
                    raise TypeError(f"scalar {value} exceeds int64 range")
                parts.append(struct.pack("<Bq", _SCALAR_INT, value))
            else:
                parts.append(struct.pack("<Bd", _SCALAR_FLOAT, value))
        for col in self.columns:
            raw = np.ascontiguousarray(col)
            parts.append(struct.pack("<BQ", _STORE_INLINE, raw.nbytes))
            parts.append(raw.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "MessageBatch":
        """Decode :meth:`to_bytes` output; columns are read-only
        zero-copy views over ``buf``.

        Anything but a well-formed version-3 frame whose CRC-32 matches
        the decoded schema section and content raises ``ValueError`` —
        a set flag bit, a non-inline storage kind, a malformed or
        object dtype, a name that is not UTF-8, a truncated or
        over-long buffer included.  Decoding never touches anything
        outside ``buf``.
        """
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise ValueError("truncated wire batch (short header)")
        magic, version, flags, rows, ncols, nscalars, crc = _HEADER.unpack(
            view[: _HEADER.size]
        )
        if magic != WIRE_MAGIC:
            raise ValueError(f"bad wire magic {magic!r}")
        if version != WIRE_VERSION:
            raise ValueError(f"unsupported wire version {version}")
        if flags:
            raise ValueError(f"unsupported wire flags {flags:#06x}")
        off = _HEADER.size

        def take(n: int) -> memoryview:
            nonlocal off
            if off + n > len(view):
                raise ValueError("truncated wire batch")
            chunk = view[off : off + n]
            off += n
            return chunk

        def take_str() -> str:
            (n,) = struct.unpack("<H", take(2))
            # A name that is not UTF-8 raises UnicodeDecodeError, which
            # is a ValueError.
            return bytes(take(n)).decode()

        columns_spec = []
        for _ in range(ncols):
            name = take_str()
            columns_spec.append((name, _wire_dtype(take_str())))
        scalar_names = tuple(take_str() for _ in range(nscalars))
        schema_end = off
        schema = ColumnSchema(columns_spec, scalar_names)
        scalars: list[float] = []
        for _ in range(nscalars):
            (kind,) = struct.unpack("<B", take(1))
            if kind == _SCALAR_INT:
                scalars.append(struct.unpack("<q", take(8))[0])
            elif kind == _SCALAR_FLOAT:
                scalars.append(struct.unpack("<d", take(8))[0])
            else:
                raise ValueError(f"unknown scalar kind {kind}")
        columns: list[np.ndarray] = []
        for _, dt in schema.columns:
            store, nbytes = struct.unpack("<BQ", take(9))
            if store != _STORE_INLINE:
                raise ValueError(
                    f"unsupported column storage {store}; frames carry "
                    "inline columns only"
                )
            columns.append(np.frombuffer(take(nbytes), dtype=dt))
        if off != len(view):
            raise ValueError(
                f"{len(view) - off} trailing byte(s) after the last column"
            )
        batch = cls(schema, tuple(columns), tuple(scalars))
        if batch.rows != rows:
            raise ValueError(
                f"row count mismatch: header says {rows}, decoded {batch.rows}"
            )
        actual = zlib.crc32(
            view[_HEADER.size : schema_end], batch.checksum()
        )
        if actual != crc:
            raise ValueError(
                f"wire checksum mismatch: header {crc:#010x}, "
                f"recomputed {actual:#010x}"
            )
        return batch

    def __reduce__(self) -> tuple[Any, ...]:
        # By parts, not through the wire format: the columns stay
        # ordinary ndarrays to whichever pickler carries the batch, so
        # the pool's segment pickler moves the large ones by segment.
        # A memoized CRC rides along as slot state; an unset one —
        # every batch on a pool pipe — is not worth its bytes per block.
        parts = (MessageBatch, (self.schema, self.columns, self.scalars))
        if self._crc is None:
            return parts
        return (*parts, (None, {"_crc": self._crc}))

    def __len__(self) -> int:
        return self.rows

    def __repr__(self) -> str:
        return (
            f"MessageBatch(rows={self.rows}, nbytes={self.nbytes}, "
            f"schema={self.schema!r})"
        )


def _pack_str(text: str) -> bytes:
    raw = text.encode()
    return struct.pack("<H", len(raw)) + raw


def _wire_dtype(text: str) -> np.dtype:
    """The column dtype a frame names, or ``ValueError``."""
    try:
        dt = np.dtype(text)
    except (TypeError, SyntaxError, ValueError) as exc:
        raise ValueError(f"malformed wire dtype {text!r}") from exc
    if dt.hasobject:
        raise ValueError(f"wire dtype {text!r} holds Python objects")
    return dt


#: Name family for every segment this process (and its forked workers)
#: creates.  Computed once at import so forked children inherit the same
#: family and :func:`leaked_segments` can sweep for stragglers; the
#: creator's live pid is appended per segment so concurrent creators in
#: the same family never fight over a name.
_SEGMENT_FAMILY = f"repro-{os.getpid():x}-"
_segment_serial = itertools.count()

#: Live registry of *resident* segments this process owns (name ->
#: nbytes).  Ephemeral segments are intentionally absent: their
#: ownership transfers to whoever loads the pickle that names them, so
#: only the long-lived graph-residency segments count toward the memory model
#: (see :func:`repro.runtime.memory.shared_segment_overhead`).
_resident_registry: dict[str, int] = {}


#: What ``write(2)`` on a shared-memory descriptor fails with where the
#: platform only lets such an object be mapped (tmpfs-backed Linux
#: segments take writes; a full one fails with ``ENOSPC``, which is not
#: in this set).
_WRITE_REFUSED = frozenset({errno.ENXIO, errno.EINVAL, errno.ENOTSUP})


def _next_segment_name() -> str:
    return f"{_SEGMENT_FAMILY}{os.getpid():x}-{next(_segment_serial)}"


def register_resident_segment(name: str, nbytes: int) -> None:
    """Record a long-lived segment in the per-process accounting registry."""
    _resident_registry[name] = nbytes


def unregister_resident_segment(name: str) -> None:
    """Drop a segment from the accounting registry (idempotent)."""
    _resident_registry.pop(name, None)


def resident_segment_nbytes() -> int:
    """Total bytes of live resident segments owned by this process."""
    return sum(_resident_registry.values())


def leaked_segments() -> list[str]:
    """Names of this process family's segments still present in /dev/shm.

    Ground truth for leak assertions: after an executor is closed (even
    after killing a worker mid-phase) this must be empty.
    """
    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-POSIX platform
        return []
    return sorted(n for n in os.listdir(base) if n.startswith(_SEGMENT_FAMILY))


def _create_shared_segment(raw: np.ndarray, tracked: bool = False) -> Any:
    """A new shared-memory segment holding ``raw``'s bytes.

    By default the segment is unregistered from the ``multiprocessing``
    resource tracker on purpose: the loading side unlinks explicitly,
    and a fork-spawned creator calling ``os._exit`` must not leave a
    tracker entry behind to double-unlink.  Pass
    ``tracked=True`` for resident segments whose attach/unlink pairing
    happens in this same process (the executor pool's graph residency):
    the registration stays so a hard-crashed parent still gets tracker
    cleanup, and the owner's ``unlink()`` balances it.

    The bytes go in by ``os.pwrite`` on the segment's descriptor: the
    kernel allocates and copies the tmpfs pages in one pass, where a
    store through the fresh mapping takes a page fault per 4 KiB (about
    twice the time per byte), and a full ``/dev/shm`` is an ``OSError``
    here instead of a SIGBUS there.  A failed write unlinks the
    half-written segment and re-raises.  A descriptor that refuses
    ``write(2)`` outright — :data:`_WRITE_REFUSED`, or a platform whose
    segments have none — gets the mapping store.
    """
    from multiprocessing import resource_tracker, shared_memory

    while True:
        name = _next_segment_name()
        try:
            seg = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, raw.nbytes)
            )
            break
        # repro-lint: disable-next-line=swallowed-error -- name collision with a sibling process in the same family; the serial counter advances and we retry
        except FileExistsError:  # pragma: no cover - racing forked creators
            continue
        except BaseException:
            # An interrupt inside the constructor can land after
            # ``shm_open`` made the name, which nothing else knows.
            _discard_segment_name(name)
            raise
    view = memoryview(raw).cast("B")
    fd = getattr(seg, "_fd", -1)
    written = 0
    try:
        while fd >= 0 and written < raw.nbytes:
            written += os.pwrite(fd, view[written:], written)
    except BaseException as exc:  # an interrupt mid-copy leaks no name either
        if not (isinstance(exc, OSError) and exc.errno in _WRITE_REFUSED):
            # Still registered with the tracker, so this unlink balances.
            seg.close()
            seg.unlink()
            raise
    if written < raw.nbytes:
        seg.buf[: raw.nbytes] = view
    if not tracked:
        try:
            resource_tracker.unregister(seg._name, "shared_memory")  # noqa: SLF001
        # repro-lint: disable-next-line=swallowed-error -- tracker API is CPython-internal; segment lifetime is managed explicitly either way
        except Exception:  # pragma: no cover
            pass
    return seg


def _discard_segment_name(name: str) -> None:
    """Unlink a family segment by name, leaving the tracker balanced.

    A name whose creator died or was interrupted before sizing it is
    empty: nothing to map and no tracker entry, only the name to free.
    """
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    # repro-lint: disable-next-line=swallowed-error -- the name is already gone; nothing left to clean
    except FileNotFoundError:
        return
    except ValueError:
        os.unlink(os.path.join("/dev/shm", name))
        return
    seg.close()
    seg.unlink()


def _unlink_untracked(name: str) -> None:
    """Unlink a family segment that no resource-tracker entry stands
    for: an ephemeral one (its creator unregistered it and
    :func:`_attach_shared_segment` registers nothing).  A name the
    crash sweep got to first is already gone, and its sweep balanced
    the tracker itself."""
    import _posixshmem

    try:
        _posixshmem.shm_unlink("/" + name)
    # repro-lint: disable-next-line=swallowed-error -- already unlinked by the crash sweeper, whose unlink balanced the tracker entry
    except FileNotFoundError:  # pragma: no cover - post-crash teardown race
        pass


class SegmentGoneError(ValueError):
    """A shared-memory segment was unlinked before it was attached."""


def _attach_shared_segment(name: str) -> mmap.mmap:
    """Map an existing segment read-write, outside the resource tracker.

    ``SharedMemory(name=…)`` would register the name after mapping it,
    and an owner's unlink (which unregisters) landing in between would
    leave a tracker entry for a segment that is gone: a leak warning
    and a failed unlink at exit.  A raw ``shm_open`` + ``mmap`` touches
    no tracker entry, so a resident keeps exactly its creator's
    registration, which the creator's unlink balances, and an
    ephemeral segment none (:func:`_unlink_untracked` consumes it).
    The mapping lives as long as the last array over it.

    A missing segment means its owner already unlinked it (an ephemeral
    segment is loaded exactly once) or the producing worker died before
    publishing — either way the receiver gets a clean, diagnosable
    error rather than a raw ``FileNotFoundError``.
    """
    import _posixshmem

    try:
        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    except FileNotFoundError as exc:
        raise SegmentGoneError(
            f"shared-memory segment {name!r} is gone; an ephemeral "
            "segment is loaded exactly once, and a worker that died "
            "mid-send leaves nothing to attach"
        ) from exc
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def concat_batches(
    schema: ColumnSchema, batches: Sequence[MessageBatch]
) -> MessageBatch:
    """One contiguous batch holding every row of ``batches`` in order.

    Scalars do not concatenate meaningfully, so merging is only defined
    for scalar-free schemas (enforced by :class:`BatchAccumulator`).
    """
    if schema.scalars:
        raise ValueError("cannot merge batches of a schema with scalars")
    for b in batches:
        if b.schema != schema:
            raise TypeError(f"schema mismatch: {b.schema!r} != {schema!r}")
    columns = tuple(
        np.concatenate([b.columns[i] for b in batches])
        if batches
        else np.empty(0, dtype=dt)
        for i, (_, dt) in enumerate(schema.columns)
    )
    return MessageBatch(schema, columns)


class ReceivedBatch:
    """Receiver-side view of every block queued under one (tag, schema).

    ``columns[name]`` is the concatenation of that column across all
    blocks, in queue (FIFO) order — the exact arrays a scalar receiver
    would have built with a Python loop plus ``np.concatenate``.
    ``srcs``/``lengths`` record where each block came from and how many
    rows it carried; ``scalars[name]`` stacks each block's scalar.
    """

    __slots__ = ("schema", "columns", "srcs", "lengths", "scalars",
                 "_src_column")

    def __init__(
        self,
        schema: ColumnSchema,
        blocks: Sequence[tuple[int, MessageBatch]],
    ):
        for _, batch in blocks:
            if not isinstance(batch, MessageBatch):
                raise TypeError(
                    "recv_all_batch on a queue holding "
                    f"{type(batch).__name__} payloads; scalar payloads "
                    "must be drained with recv_all"
                )
            if batch.schema != schema:
                raise TypeError(
                    f"schema mismatch on receive: {batch.schema!r} != "
                    f"{schema!r}"
                )
        self.schema = schema
        self.srcs = np.fromiter(
            (src for src, _ in blocks), dtype=np.int64, count=len(blocks)
        )
        self.lengths = np.fromiter(
            (b.rows for _, b in blocks), dtype=np.int64, count=len(blocks)
        )
        self.columns: dict[str, np.ndarray] = {}
        for i, (name, dt) in enumerate(schema.columns):
            self.columns[name] = (
                np.concatenate([b.columns[i] for _, b in blocks])
                if blocks
                else np.empty(0, dtype=dt)
            )
        self.scalars: dict[str, np.ndarray] = {
            name: np.asarray([b.scalars[i] for _, b in blocks])
            for i, name in enumerate(schema.scalars)
        }
        self._src_column: np.ndarray | None = None

    @property
    def num_blocks(self) -> int:
        return int(self.srcs.size)

    @property
    def rows(self) -> int:
        return int(self.lengths.sum())

    @property
    def src_column(self) -> np.ndarray:
        """Per-row source host (materialized on first use)."""
        if self._src_column is None:
            self._src_column = np.repeat(self.srcs, self.lengths)
        return self._src_column

    def __repr__(self) -> str:
        return (
            f"ReceivedBatch(blocks={self.num_blocks}, rows={self.rows}, "
            f"schema={self.schema!r})"
        )


class BatchSender(Protocol):
    """Where an accumulator flushes: a HostView, or anything else
    exposing the batch send verb."""

    def send_batch(
        self,
        dst: int,
        batch: MessageBatch,
        tag: str = "default",
        logical_messages: int = 1,
        nbytes: int | None = None,
        coalesce: bool = False,
    ) -> None: ...


class _Staged:
    """Pending appends for one (dst, tag) channel."""

    __slots__ = ("batches", "nbytes", "logical", "coalesce")

    def __init__(self, coalesce: bool):
        self.batches: list[MessageBatch] = []
        self.nbytes = 0
        self.logical = 0
        self.coalesce = coalesce


class BatchAccumulator:
    """Sender-side staging buffers, one per ``(dst, tag)`` channel.

    ``append`` stages a batch and records its charge (explicit
    ``nbytes`` or the batch's own exact size; ``max(1, logical)``
    logical messages, mirroring the communicator's stream accounting).
    ``flush``/``flush_all`` emit each channel's staged rows as **one
    contiguous block = one transport send**, so a single staged append
    is bit-identical — bytes, messages, fault draws, sanitizer mirror —
    to the scalar send it replaces.  Merging *several* appends into one
    block is only allowed for ``coalesce=True`` channels, where the
    stream formula makes the merged charge exactly equal to the sum of
    the per-append charges (and is rejected otherwise, because the
    per-send ``ceil`` would not distribute over the sum).

    Nothing flushes on the caller's behalf: rows still staged when the
    accumulator is dropped were never sent.
    """

    def __init__(self, sender: "BatchSender", host: int | None = None):
        self._sender = sender
        self._host = host
        self._staged: dict[tuple[int, str], _Staged] = {}

    def _guard(self, op: str) -> None:
        from ..analysis import isolation

        if isolation._depth and self._host is not None:
            isolation.guard_owned(self._host, op)

    def append(
        self,
        dst: int,
        batch: MessageBatch,
        tag: str = "default",
        logical_messages: int = 1,
        nbytes: int | None = None,
        coalesce: bool = False,
    ) -> None:
        """Stage ``batch`` for ``dst`` under ``tag``."""
        self._guard("BatchAccumulator.append")
        if not isinstance(batch, MessageBatch):
            raise TypeError(
                f"append wants a MessageBatch, got {type(batch).__name__}"
            )
        key = (int(dst), tag)
        staged = self._staged.get(key)
        if staged is None:
            staged = self._staged[key] = _Staged(coalesce)
        elif staged.batches:
            if not (staged.coalesce and coalesce):
                raise ValueError(
                    f"channel {key} already holds a staged block; merging "
                    "appends is only exact for coalesce=True streams"
                )
            if staged.batches[0].schema != batch.schema:
                raise TypeError(f"schema mismatch on channel {key}")
        staged.batches.append(batch)
        staged.nbytes += batch.nbytes if nbytes is None else int(nbytes)
        staged.logical += max(1, logical_messages)

    def staged_rows(self, dst: int, tag: str = "default") -> int:
        """Rows currently staged for ``(dst, tag)``."""
        staged = self._staged.get((int(dst), tag))
        return sum(b.rows for b in staged.batches) if staged else 0

    def channels(self) -> Iterator[tuple[int, str]]:
        """Channels with staged rows, in first-append order."""
        return iter(list(self._staged))

    def flush(self, dst: int, tag: str = "default") -> None:
        """Emit one channel's staged rows as one contiguous block."""
        self._guard("BatchAccumulator.flush")
        staged = self._staged.pop((int(dst), tag), None)
        if staged is None or not staged.batches:
            return
        if len(staged.batches) == 1:
            block = staged.batches[0]
        else:
            block = concat_batches(staged.batches[0].schema, staged.batches)
        self._sender.send_batch(
            int(dst),
            block,
            tag=tag,
            logical_messages=staged.logical,
            nbytes=staged.nbytes,
            coalesce=staged.coalesce,
        )

    def flush_all(self) -> None:
        """Flush every channel, in first-append order."""
        for dst, tag in list(self._staged):
            self.flush(dst, tag)
