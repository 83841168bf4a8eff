"""The columnar message fabric (``repro.runtime.colfab``).

Two layers of coverage.  Unit: schemas, batches, receiver views and the
sender-side :class:`BatchAccumulator`, including the accounting contract
— every flushed block is exactly one transport send, and merging staged
appends is only legal where the stream formula makes the merged charge
equal the sum of per-append charges.  End-to-end: the pipeline must
produce the paper oracle's partitions *and* the simulated breakdowns
recorded from the scalar fabric before it was deleted, on every policy,
on every executor, under CommSan, and under injected faults — batching
is a vectorization, never a different cost model.

Also here: the ``recv_all`` queue-semantics tests (tag isolation, FIFO
across ledger merges, ``pending`` with mixed direct/ledger sends) that
the batch receiver builds on.
"""

import inspect
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import CuSP, policy_names
from repro.runtime import colfab
from repro.runtime.colfab import (
    WIRE_MAGIC,
    BatchAccumulator,
    ColumnSchema,
    MessageBatch,
    ReceivedBatch,
    leaked_segments,
)
from repro.runtime.colfab import concat_batches
from repro.runtime.comm import Communicator
from repro.runtime.executor import HostView
from repro.runtime.stats import PhaseStats

from .golden import check_case

I64 = np.dtype(np.int64)
I32 = np.dtype(np.int32)


def host_view(comm, host):
    """A host's view over a bare communicator — the one batch entry
    point phase bodies use (``send_batch``).  Its charges reach
    ``comm`` when the view merges, as at a barrier."""
    stats = PhaseStats(name="test", comm=comm, num_hosts=comm.num_hosts)
    return HostView(stats, host)


def accumulator(view):
    """A stand-alone sender-side accumulator flushing through ``view``
    (no executor hook: only explicit ``flush``/``flush_all`` send)."""
    return BatchAccumulator(view, host=view.host)


def ids_batch(schema, *cols, scalars=()):
    return MessageBatch(
        schema, tuple(np.asarray(c, dtype=dt) for c, (_, dt) in
                      zip(cols, schema.columns)),
        scalars,
    )


class TestColumnSchema:
    def test_value_equality_and_hash(self):
        a = ColumnSchema((("ids", I64), ("masters", I32)), scalars=("count",))
        b = ColumnSchema((("ids", np.int64), ("masters", np.int32)),
                         scalars=("count",))
        assert a == b and hash(a) == hash(b)
        assert a != ColumnSchema((("ids", I64),))
        assert a != ColumnSchema((("ids", I64), ("masters", I32)))

    def test_row_nbytes_is_sum_of_itemsizes(self):
        s = ColumnSchema((("a", I64), ("b", I32), ("c", np.float64)))
        assert s.row_nbytes == 8 + 4 + 8

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema((("x", I64), ("x", I32)))
        with pytest.raises(ValueError):
            ColumnSchema((("x", I64),), scalars=("n", "n"))

    def test_immutable(self):
        s = ColumnSchema((("x", I64),))
        with pytest.raises(AttributeError):
            s.row_nbytes = 0


class TestMessageBatch:
    SCHEMA = ColumnSchema((("src", I64), ("dst", I64)))

    def test_nbytes_is_exact_and_o1(self):
        b = ids_batch(self.SCHEMA, [1, 2, 3], [4, 5, 6])
        assert b.nbytes == b.columns[0].nbytes + b.columns[1].nbytes == 48
        s = ColumnSchema((("x", I64),), scalars=("count",))
        assert MessageBatch(s, (np.arange(2),), (7,)).nbytes == 16 + 8

    def test_validation(self):
        with pytest.raises(ValueError):
            MessageBatch(self.SCHEMA, (np.arange(3),))  # missing column
        with pytest.raises(TypeError):
            MessageBatch(self.SCHEMA,
                         (np.arange(3, dtype=np.int32), np.arange(3)))
        with pytest.raises(ValueError):
            MessageBatch(self.SCHEMA, (np.arange(3), np.arange(4)))
        with pytest.raises(ValueError):
            MessageBatch(self.SCHEMA,
                         (np.zeros((2, 2), dtype=I64), np.arange(4)))
        with pytest.raises(ValueError):  # scalar count mismatch
            MessageBatch(ColumnSchema((), scalars=("n",)), (), ())

    def test_empty_zero_fills_scalars(self):
        s = ColumnSchema((("x", I64),), scalars=("count",))
        b = MessageBatch.empty(s)
        assert b.rows == 0 and b.scalars == (0,)
        assert b.nbytes == 8  # the scalar still travels

    def test_slice_is_zero_copy(self):
        b = ids_batch(self.SCHEMA, np.arange(10), np.arange(10))
        view = b.slice(2, 7)
        assert view.rows == 5
        assert np.shares_memory(view.columns[0], b.columns[0])

    def test_column_accessor(self):
        b = ids_batch(self.SCHEMA, [1], [9])
        assert b.column("dst")[0] == 9


_WIRE_SIGNED = (np.dtype(np.int64), np.dtype(np.int32), np.dtype(np.int16),
                np.dtype(np.float64), np.dtype(np.float32))
_WIRE_UNSIGNED = (np.dtype(np.uint8), np.dtype(np.uint16))


@st.composite
def wire_batches(draw):
    """Arbitrary MessageBatch: mixed dtypes, scalars, any row count."""
    ncols = draw(st.integers(0, 4))
    nscalars = draw(st.integers(0, 3))
    rows = draw(st.integers(0, 40))
    dts = [
        draw(st.sampled_from(_WIRE_SIGNED + _WIRE_UNSIGNED))
        for _ in range(ncols)
    ]
    cols = []
    for dt in dts:
        lo = -120 if dt in _WIRE_SIGNED else 0
        vals = draw(st.lists(
            st.integers(lo, 120), min_size=rows, max_size=rows,
        ))
        cols.append(np.asarray(vals, dtype=dt))
    scalars = tuple(
        draw(st.one_of(
            st.integers(-(2 ** 62), 2 ** 62),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ))
        for _ in range(nscalars)
    )
    schema = ColumnSchema(
        tuple((f"c{i}", dt) for i, dt in enumerate(dts)),
        scalars=tuple(f"s{i}" for i in range(nscalars)),
    )
    return MessageBatch(schema, tuple(cols), scalars)


def assert_batches_equal(a, b):
    assert a.schema == b.schema
    assert a.rows == b.rows
    assert a.nbytes == b.nbytes
    assert a.checksum() == b.checksum()
    for ca, cb in zip(a.columns, b.columns):
        assert ca.dtype == cb.dtype
        assert np.array_equal(ca, cb)
    assert a.scalars == b.scalars
    for sa, sb in zip(a.scalars, b.scalars):
        assert type(sa) is type(sb)  # int stays int, float stays float


@st.composite
def hostile_frames(draw):
    """A valid frame, then one mutation of it: ``(batch, bytes, refuse)``.

    ``refuse`` is set for the two mutations that must *always* be
    refused — a flag bit, a storage kind that names a shared-memory
    segment — even though neither disturbs a single content byte.
    """
    batch = draw(wire_batches())
    frame = batch.to_bytes()
    kind = draw(st.sampled_from(
        ("flip", "truncate", "splice", "extend", "flag", "storage")
    ))
    buf = bytearray(frame)
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            buf[draw(st.integers(0, len(buf) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del buf[draw(st.integers(0, len(buf) - 1)):]
    elif kind == "splice":
        other = draw(wire_batches()).to_bytes()
        cut = draw(st.integers(0, len(buf)))
        lo = draw(st.integers(0, len(other)))
        hi = draw(st.integers(lo, len(other)))
        tail = draw(st.integers(cut, len(buf)))
        buf[cut:tail] = other[lo:hi]
        if bytes(buf) == other:  # a whole valid frame is not hostile
            buf = bytearray(frame)
    elif kind == "extend":
        buf += draw(st.binary(min_size=1, max_size=16))
    elif kind == "flag":
        buf[6 + draw(st.integers(0, 1))] |= 1 << draw(st.integers(0, 7))
    else:
        assume(batch.columns)
        # The storage byte of the first column: what follows it to the
        # end of the frame is every column's 9-byte prefix and bytes.
        first = len(buf) - sum(9 + c.nbytes for c in batch.columns)
        buf[first] = draw(st.integers(1, 2))
    return batch, bytes(buf), kind in ("flag", "storage")


def with_dtype(frame, old, new):
    """``frame`` with one length-prefixed dtype string replaced."""
    old, new = old.encode(), new.encode()
    prefixed = len(old).to_bytes(2, "little") + old
    assert frame.count(prefixed) == 1
    return frame.replace(prefixed, len(new).to_bytes(2, "little") + new)


class TestWireFormat:
    """The versioned, inline-only wire format (`to_bytes`/`from_bytes`)."""

    SCHEMA = ColumnSchema((("src", I64), ("dst", I32)), scalars=("count",))

    @settings(max_examples=120, deadline=None)
    @given(batch=wire_batches())
    def test_round_trip(self, batch):
        back = MessageBatch.from_bytes(batch.to_bytes())
        assert_batches_equal(batch, back)

    @settings(max_examples=60, deadline=None)
    @given(batch=wire_batches(), memoized=st.booleans())
    def test_pickle_round_trips(self, batch, memoized):
        """Schema, values, ``nbytes`` and checksum survive pickling,
        which ships the parts and never the wire format."""
        if memoized:
            batch.checksum()
        with mock.patch.object(
            MessageBatch, "to_bytes", side_effect=AssertionError
        ):
            blob = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
        back = pickle.loads(blob)
        assert back._crc == batch._crc  # the memoized CRC rides along
        assert_batches_equal(batch, back)

    @settings(max_examples=60, deadline=None)
    @given(batch=wire_batches(), data=st.data())
    def test_sliced_batch_round_trips(self, batch, data):
        lo = data.draw(st.integers(0, batch.rows))
        hi = data.draw(st.integers(lo, batch.rows))
        view = batch.slice(lo, hi)
        back = MessageBatch.from_bytes(view.to_bytes())
        assert_batches_equal(view, back)

    def test_empty_batch_round_trips(self):
        batch = MessageBatch.empty(self.SCHEMA)
        back = MessageBatch.from_bytes(batch.to_bytes())
        assert_batches_equal(batch, back)

    def test_wire_magic_leads_the_frame(self):
        buf = ids_batch(self.SCHEMA, [1], [2], scalars=(3,)).to_bytes()
        assert buf[: len(WIRE_MAGIC)] == WIRE_MAGIC

    def test_corrupted_payload_is_rejected(self):
        buf = bytearray(
            ids_batch(self.SCHEMA, [1, 2], [3, 4], scalars=(5,)).to_bytes()
        )
        buf[-1] ^= 0xFF  # flip a bit in the last column's data
        with pytest.raises(ValueError):
            MessageBatch.from_bytes(bytes(buf))

    def test_truncated_frame_is_rejected(self):
        buf = ids_batch(self.SCHEMA, [1, 2], [3, 4], scalars=(5,)).to_bytes()
        with pytest.raises(ValueError):
            MessageBatch.from_bytes(buf[: len(buf) // 2])

    def test_bool_scalar_is_rejected(self):
        s = ColumnSchema((("x", I64),), scalars=("flag",))
        batch = MessageBatch(s, (np.arange(2),), (True,))
        with pytest.raises(TypeError):
            batch.to_bytes()

    def test_decode_is_zero_copy_for_inline_columns(self):
        batch = ids_batch(self.SCHEMA, [1, 2, 3], [4, 5, 6], scalars=(9,))
        buf = batch.to_bytes()
        back = MessageBatch.from_bytes(buf)
        assert not back.columns[0].flags.owndata  # view over the frame

    def test_codec_takes_no_transport_options(self):
        batch = ids_batch(self.SCHEMA, [1], [2], scalars=(3,))
        assert list(inspect.signature(batch.to_bytes).parameters) == []
        assert list(inspect.signature(MessageBatch.from_bytes).parameters) == [
            "buf"
        ]

    # deprecated dtype aliases ("a4") warn before they are refused
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @settings(max_examples=400, deadline=None)
    @given(case=hostile_frames())
    def test_hostile_frames_are_refused_or_harmless(self, case):
        """Flips, truncations, splices and padding of a valid frame
        raise ``ValueError`` or decode to the original batch — nothing
        else, and never by way of ``/dev/shm``; a flag bit or a
        segment-naming storage kind is refused outright."""
        batch, buf, refuse = case
        before = leaked_segments()
        with mock.patch.object(
            colfab, "_attach_shared_segment", side_effect=AssertionError
        ):
            try:
                back = MessageBatch.from_bytes(buf)
            except ValueError:
                back = None
        assert leaked_segments() == before
        if back is not None:
            assert not refuse, "decoded a frame that must be refused"
            assert_batches_equal(batch, back)

    def test_equal_itemsize_dtype_swap_is_caught(self):
        # The schema section is under the header CRC: an int64 column
        # relabelled uint64 carries the same bytes and the same
        # checksum(), and used to decode silently.
        batch = ids_batch(self.SCHEMA, [1, -2], [3, 4], scalars=(5,))
        with pytest.raises(ValueError, match="checksum"):
            MessageBatch.from_bytes(with_dtype(batch.to_bytes(), "<i8", "<u8"))

    @pytest.mark.parametrize("dtype", [
        "<_8",   # np.dtype raises TypeError
        ",i",    # ... SyntaxError
        "1<(f4", # ... ValueError
        "|O8",   # parses, but a frame cannot hold Python objects
    ])
    def test_malformed_dtype_is_a_value_error(self, dtype):
        frame = ids_batch(self.SCHEMA, [1], [2], scalars=(3,)).to_bytes()
        with pytest.raises(ValueError, match="dtype"):
            MessageBatch.from_bytes(with_dtype(frame, "<i8", dtype))

    def test_non_utf8_name_is_a_value_error(self):
        frame = ids_batch(self.SCHEMA, [1], [2], scalars=(3,)).to_bytes()
        assert frame.count(b"\x03\x00src") == 1
        with pytest.raises(ValueError, match="utf-8"):
            MessageBatch.from_bytes(
                frame.replace(b"\x03\x00src", b"\x03\x00\xff\xfe\xfd")
            )


class TestConcatBatches:
    SCHEMA = ColumnSchema((("x", I64),))

    def test_preserves_order(self):
        parts = [ids_batch(self.SCHEMA, [1, 2]), ids_batch(self.SCHEMA, [3])]
        merged = concat_batches(self.SCHEMA, parts)
        assert merged.columns[0].tolist() == [1, 2, 3]

    def test_rejects_scalar_schemas_and_mismatch(self):
        with pytest.raises(ValueError):
            concat_batches(ColumnSchema((), scalars=("n",)), [])
        other = ids_batch(ColumnSchema((("y", I64),)), [1])
        with pytest.raises(TypeError):
            concat_batches(self.SCHEMA, [other])


class TestReceivedBatch:
    SCHEMA = ColumnSchema((("x", I64),), scalars=("count",))

    def test_fifo_concatenation_and_block_metadata(self):
        blocks = [
            (2, ids_batch(self.SCHEMA, [1, 2], scalars=(2,))),
            (0, ids_batch(self.SCHEMA, [3], scalars=(1,))),
            (2, ids_batch(self.SCHEMA, [], scalars=(0,))),
        ]
        rb = ReceivedBatch(self.SCHEMA, blocks)
        assert rb.columns["x"].tolist() == [1, 2, 3]
        assert rb.srcs.tolist() == [2, 0, 2]
        assert rb.lengths.tolist() == [2, 1, 0]
        assert rb.scalars["count"].tolist() == [2, 1, 0]
        assert rb.src_column.tolist() == [2, 2, 0]
        assert rb.num_blocks == 3 and rb.rows == 3

    def test_empty_queue(self):
        rb = ReceivedBatch(self.SCHEMA, [])
        assert rb.rows == 0 and rb.num_blocks == 0
        assert rb.columns["x"].dtype == I64

    def test_rejects_scalar_payloads_and_schema_mismatch(self):
        with pytest.raises(TypeError):
            ReceivedBatch(self.SCHEMA, [(0, np.arange(3))])
        other = ids_batch(ColumnSchema((("y", I64),)), [1])
        with pytest.raises(TypeError):
            ReceivedBatch(self.SCHEMA, [(0, other)])


class TestBatchAccumulator:
    SCHEMA = ColumnSchema((("x", I64),))

    def test_single_staged_block_is_bit_identical_to_a_scalar_send(self):
        """One append + flush charges exactly like the send it replaces."""
        batch_comm = Communicator(4, buffer_size=64)
        scalar_comm = Communicator(4, buffer_size=64)
        payload = np.arange(100, dtype=np.int64)
        view = host_view(batch_comm, 0)
        acc = accumulator(view)
        acc.append(1, ids_batch(self.SCHEMA, payload), tag="t",
                   logical_messages=5, nbytes=320)
        acc.flush_all()
        view.merge()
        scalar_comm.send(0, 1, payload, tag="t", logical_messages=5,
                         nbytes=320)
        assert np.array_equal(batch_comm.sent_bytes, scalar_comm.sent_bytes)
        assert np.array_equal(batch_comm.sent_messages,
                              scalar_comm.sent_messages)
        assert batch_comm.pending(1, "t") == scalar_comm.pending(1, "t") == 1

    def test_merging_appends_requires_coalesce(self):
        acc = accumulator(host_view(Communicator(4), 0))
        acc.append(1, ids_batch(self.SCHEMA, [1]), tag="t")
        with pytest.raises(ValueError):
            acc.append(1, ids_batch(self.SCHEMA, [2]), tag="t")
        # A different channel is fine.
        acc.append(2, ids_batch(self.SCHEMA, [2]), tag="t")
        acc.append(1, ids_batch(self.SCHEMA, [3]), tag="u")

    def test_coalesced_merge_charge_equals_sum_of_per_append_charges(self):
        batch_comm = Communicator(4, buffer_size=64)
        scalar_comm = Communicator(4, buffer_size=64)
        a = np.arange(5, dtype=np.int64)
        b = np.arange(7, dtype=np.int64)
        view = host_view(batch_comm, 0)
        acc = accumulator(view)
        acc.append(1, ids_batch(self.SCHEMA, a), tag="t", coalesce=True)
        acc.append(1, ids_batch(self.SCHEMA, b), tag="t", coalesce=True)
        acc.flush_all()
        view.merge()
        scalar_comm.send(0, 1, a, tag="t", coalesce=True)
        scalar_comm.send(0, 1, b, tag="t", coalesce=True)
        assert np.array_equal(batch_comm.sent_bytes, scalar_comm.sent_bytes)
        assert np.array_equal(batch_comm._stream_bytes,
                              scalar_comm._stream_bytes)
        assert np.array_equal(batch_comm._stream_logical,
                              scalar_comm._stream_logical)
        # The merged rows arrive as one contiguous block, in append order.
        rb = batch_comm.recv_all_batch(1, "t", self.SCHEMA)
        assert rb.num_blocks == 1
        assert rb.columns["x"].tolist() == a.tolist() + b.tolist()

    def test_coalesced_merge_rejects_schema_drift(self):
        acc = accumulator(host_view(Communicator(4), 0))
        acc.append(1, ids_batch(self.SCHEMA, [1]), tag="t", coalesce=True)
        other = ColumnSchema((("y", I64),))
        with pytest.raises(TypeError):
            acc.append(1, ids_batch(other, [2]), tag="t", coalesce=True)

    def test_flush_order_is_first_append_order(self):
        comm = Communicator(4, buffer_size=0)
        view = host_view(comm, 0)
        sent = []
        orig = view.send

        def spy(dst, batch, **kw):
            sent.append((dst, kw["tag"]))
            return orig(dst, batch, **kw)

        view.send = spy
        acc = accumulator(view)
        for dst, tag in [(3, "a"), (1, "b"), (2, "a")]:
            acc.append(dst, ids_batch(self.SCHEMA, [dst]), tag=tag)
        assert acc.staged_rows(3, "a") == 1
        assert list(acc.channels()) == [(3, "a"), (1, "b"), (2, "a")]
        acc.flush_all()
        assert sent == [(3, "a"), (1, "b"), (2, "a")]
        assert acc.staged_rows(3, "a") == 0
        acc.flush(3, "a")  # flushing an empty channel is a no-op
        assert sent == [(3, "a"), (1, "b"), (2, "a")]

    def test_append_rejects_non_batches(self):
        acc = accumulator(host_view(Communicator(2), 0))
        with pytest.raises(TypeError):
            acc.append(1, np.arange(3), tag="t")

    def test_ledger_accumulator_stays_private_until_merge(self):
        comm = Communicator(3, buffer_size=0)
        view = host_view(comm, 0)
        acc = accumulator(view)
        acc.append(1, ids_batch(self.SCHEMA, [1, 2]), tag="t")
        acc.flush_all()
        assert comm.pending(1, "t") == 0  # buffered on the ledger
        assert view.ledger.sent_bytes[1] == 16
        view.merge()
        assert comm.pending(1, "t") == 1
        assert comm.sent_bytes[0, 1] == 16


class TestCommBatchPath:
    SCHEMA = ColumnSchema((("x", I64),))

    def test_send_batch_accounts_exactly_like_send(self):
        batch_comm = Communicator(3, buffer_size=10)
        scalar_comm = Communicator(3, buffer_size=10)
        payload = np.arange(9, dtype=np.int64)  # 72 bytes -> ceil = 8 msgs
        view = host_view(batch_comm, 0)
        view.send_batch(1, ids_batch(self.SCHEMA, payload), tag="t")
        view.merge()
        scalar_comm.send(0, 1, payload, tag="t")
        assert np.array_equal(batch_comm.sent_bytes, scalar_comm.sent_bytes)
        assert np.array_equal(batch_comm.sent_messages,
                              scalar_comm.sent_messages)

    def test_send_batch_rejects_raw_payloads(self):
        comm = Communicator(2)
        with pytest.raises(TypeError, match="wants a MessageBatch"):
            host_view(comm, 0).send_batch(1, np.arange(3), tag="t")

    def test_recv_all_batch_matches_recv_all_concatenation(self):
        comm = Communicator(3, buffer_size=0)
        shadow = Communicator(3, buffer_size=0)
        rng = np.random.default_rng(7)
        for src, rows in [(0, 3), (2, 5), (0, 0), (1, 4)]:
            col = rng.integers(0, 100, size=rows)
            view = host_view(comm, src)
            view.send_batch(1, ids_batch(self.SCHEMA, col), tag="t")
            view.merge()
            shadow.send(src, 1, (np.asarray(col, dtype=np.int64),), tag="t")
        rb = comm.recv_all_batch(1, "t", self.SCHEMA)
        manual = np.concatenate(
            [p[0] for _, p in shadow.recv_all(1, "t")]
        )
        assert np.array_equal(rb.columns["x"], manual)
        assert comm.pending(1, "t") == 0  # drained

    def test_recv_all_batch_rejects_mixed_scalar_traffic(self):
        comm = Communicator(2, buffer_size=0)
        comm.send(0, 1, np.arange(3), tag="t")
        with pytest.raises(TypeError):
            comm.recv_all_batch(1, "t", self.SCHEMA)


class TestRecvAllSemantics:
    """Queue semantics the batch receiver is built on (satellite)."""

    def test_tag_isolation(self):
        comm = Communicator(2, buffer_size=0)
        comm.send(0, 1, "a1", tag="alpha")
        comm.send(0, 1, "b1", tag="beta")
        comm.send(0, 1, "a2", tag="alpha")
        assert [p for _, p in comm.recv_all(1, "alpha")] == ["a1", "a2"]
        assert comm.pending(1, "alpha") == 0
        assert comm.pending(1, "beta") == 1  # untouched by the other drain
        assert [p for _, p in comm.recv_all(1, "beta")] == ["b1"]

    def test_fifo_order_across_merge_ledger_in_host_order(self):
        """Merging ledgers host-by-host reproduces the serial queue order:
        grouped by source host, send order preserved within a host."""
        comm = Communicator(4, buffer_size=0)
        ledgers = [comm.ledger(h) for h in range(3)]
        for h, ledger in enumerate(ledgers):
            for i in range(2):
                ledger.send(3, f"h{h}m{i}", tag="t")
        for ledger in ledgers:  # host order, as at the phase barrier
            comm.merge_ledger(ledger)
        received = comm.recv_all(3, "t")
        assert [src for src, _ in received] == [0, 0, 1, 1, 2, 2]
        assert [p for _, p in received] == [
            "h0m0", "h0m1", "h1m0", "h1m1", "h2m0", "h2m1",
        ]

    def test_pending_counts_mixed_direct_and_ledger_sends(self):
        comm = Communicator(3, buffer_size=0)
        comm.send(0, 2, "direct", tag="t")
        assert comm.pending(2, "t") == 1
        ledger = comm.ledger(1)
        ledger.send(2, "buffered", tag="t")
        # The ledger buffers: nothing lands on the shared queue until merge.
        assert comm.pending(2, "t") == 1
        comm.merge_ledger(ledger)
        assert comm.pending(2, "t") == 2
        assert [p for _, p in comm.recv_all(2, "t")] == ["direct", "buffered"]
        assert comm.pending(2, "t") == 0


class TestResolveFabric:
    """``fabric=`` names the one fabric or nothing; the scalar twin and
    the CLI flag that selected it are gone."""

    def test_default_and_validation(self):
        CuSP(4, "CVC", fabric=None)
        CuSP(4, "CVC", fabric="columnar")
        with pytest.raises(ValueError, match="scalar fabric was removed"):
            CuSP(4, "CVC", fabric="scalar")

    def test_cusp_rejects_unknown_fabric(self):
        with pytest.raises(ValueError):
            CuSP(4, "CVC", fabric="vectorized")

    def test_cli_has_no_fabric_flag(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["partition", "g.gr", "-k", "4", "-p", "CVC",
                  "--fabric", "scalar"])
        assert exit_info.value.code == 2


class TestFabricEquivalence:
    """The fabric against the two references that replaced the scalar
    twin (``tests/golden.py``): partitions list for list what the paper
    oracle builds, accounting row for row what the scalar fabric charged
    before it was deleted -- on every policy, on every executor, under
    CommSan, and under injected faults."""

    @pytest.mark.parametrize("policy", policy_names())
    def test_every_policy_serial(self, policy):
        check_case(f"serial/{policy}")

    def test_weighted_graph_with_csc_output(self):
        # The oracle's lists carry the weights and the CSC side too.
        check_case("weighted-csc/HVC")

    @pytest.mark.parametrize(
        "executor",
        ["parallel", "parallel-checked", "process", "process-checked"],
    )
    def test_parallel_executors(self, executor):
        check_case("serial/CVC", executor=executor)

    def test_under_commsan(self):
        cusp, _ = check_case("serial/FVC", sanitizer=True)
        assert cusp.sanitizer.violations == []
        assert cusp.sanitizer.phases_checked >= 5

    @pytest.mark.parametrize("executor", ["serial", "parallel", "process"])
    def test_under_injected_faults(self, executor):
        """Same fault plan, same draws: the op sequence matches the
        scalar recording operation for operation."""
        _, dg = check_case("crash-plan/CVC", executor=executor)
        assert dg.breakdown.failed_phases()  # the crashes actually fired

    @pytest.mark.parametrize("executor", ["serial", "parallel", "process"])
    def test_transient_faults_on_the_masters_rounds(self, executor):
        """Drops, retries, duplicates and corrupt payloads on a
        history-sensitive policy: the masters rounds draw them all."""
        cusp, dg = check_case("transient-plan/SVC", executor=executor)
        assert not dg.breakdown.failed_phases()
        kinds = {e[0] for e in cusp.last_fault_report.events
                 if e[1] == "Master Assignment"}
        assert kinds == {"send-failure", "drop", "duplicate", "corrupt-payload"}
