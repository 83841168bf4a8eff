"""Shared-memory residency for the process pool: the one place that
knows how an array crosses a pool pipe — segment-exporting pickling,
resident export/install, ephemeral and relayed arrays, the family sweep.

No graph bytes cross a pool pipe.  A published input becomes a
*resident*: its large arrays are copied into parent-owned named POSIX
segments that every worker maps as read-only zero-copy NumPy views, and
the rest of the object crosses as a small pickle blob.  A resident
array the lanes write in place — a stepped phase's output — is a
*writable* resident: one segment that the parent and every worker map
writable.  Dispatch specs and worker replies pickle
through a segment-exporting pickler, so any other array at or above
:data:`SHM_THRESHOLD` — a :class:`~repro.runtime.colfab.MessageBatch`
column is just such an array — rides a one-shot *ephemeral* segment
whose ownership transfers to the loading side, while a reference to a
resident shrinks to a persistent id.  A worker's queued payloads are
loaded *relayed* (``loads_with_segments(..., relay=True)``): the
segment keeps its name for as long as the loaded array lives, so the
spec that later carries the array to the worker draining it names the
segment instead of copying it.  Segments that never reach a consumer
are reclaimed here too; ``colfab.leaked_segments() == []`` is the
tested invariant.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import weakref
from typing import Any, Callable, Sequence

import numpy as np

from . import colfab

__all__ = [
    "SHM_THRESHOLD", "dumps_with_segments", "check_pickles",
    "loads_with_segments",
    "discard_untracked_segment", "sweep_family_segments", "export_resident",
    "unlink_resident", "spec_pids", "resident_frame", "install_resident",
]

#: Arrays (and :class:`~repro.runtime.colfab.MessageBatch` columns) at
#: or above this size ride POSIX shared memory instead of a pipe.
SHM_THRESHOLD = 64 * 1024

#: One exported array: ``(segment name, dtype descr, shape)``.
_SegmentRef = tuple[str, Any, tuple[int, ...]]

#: Relayed arrays alive in this process: ``id(array) -> ("ndk", *ref)``,
#: the persistent id a spec carrying that array ships instead of a copy.
_relayed: dict[int, tuple] = {}


def _array_to_segment(
    arr: np.ndarray, tracked: bool, owned: list[Any]
) -> _SegmentRef:
    """Copy ``arr`` into a fresh (creator-closed) segment; return the
    reference a decoder needs to map it back.

    The handle goes into ``owned`` before anything else can raise: from
    there on the name is its owner's to discard, which it does on any
    failure, an interrupt included — a handle held only here would take
    the name with it."""
    raw = np.ascontiguousarray(arr)
    seg = colfab._create_shared_segment(raw, tracked=tracked)
    owned.append(seg)
    seg.close()
    return (seg.name, np.lib.format.dtype_to_descr(raw.dtype), raw.shape)


def _segment_to_array(ref: _SegmentRef, name_fate: str = "keep") -> np.ndarray:
    """Map one exported array as a zero-copy view.

    The returned array *is* the mapping: divorced from its wrapper, the
    pages live until the array's last view dies — refcounting munmaps
    them — so a multi-megabyte result or payload is never memcpy-ed
    through private heap.  What becomes of the segment's *name* is the
    caller's to say.  ``"keep"``: it is somebody else's (a resident, an
    array the parent relays).  ``"unlink"``: an ephemeral segment,
    consumed here and now — exactly-once, nothing to leak.  ``"relay"``:
    an ephemeral segment whose name lives exactly as long as the
    returned array, so that a later spec can ship the array by that
    name (:data:`_relayed`).
    """
    name, descr, shape = ref
    buf = colfab._attach_shared_segment(name)
    dtype = np.lib.format.descr_to_dtype(descr)
    arr = np.frombuffer(buf, dtype=dtype, count=math.prod(shape)).reshape(shape)
    if name_fate == "relay":
        key = id(arr)
        _relayed[key] = ("ndk", *ref)
        weakref.finalize(arr, _drop_relayed, key, name, os.getpid())
    elif name_fate == "unlink":
        colfab._unlink_untracked(name)
    return arr


def _drop_relayed(key: int, name: str, owner: int) -> None:
    """A relayed array died: forget it and, in the process that loaded
    it, unlink the name (a forked child inherits the array but never
    the obligation — the parent may still be serving the segment)."""
    _relayed.pop(key, None)
    if owner == os.getpid():
        colfab._unlink_untracked(name)


def discard_untracked_segment(seg: Any) -> None:
    """Unlink a creator-owned ephemeral segment whose blob never
    reached a consumer (the consumer may have unlinked it already)."""
    colfab._unlink_untracked(seg.name)


def sweep_family_segments() -> None:
    """Unlink leftover family segments a dead worker failed to consume.

    Resident segments (still owned by the parent and valid across pool
    restarts) are exempt; everything else under this process family's
    prefix is, at teardown time, an orphan of the aborted dispatch.
    """
    for name in colfab.leaked_segments():
        if name not in colfab._resident_registry:
            colfab._discard_segment_name(name)


class _SegmentPickler(pickle.Pickler):
    """Pickler that swaps large arrays for persistent ids.

    ``known`` maps ``id(object)`` to the persistent id it pickles as
    (residents and their already-exported arrays, for a dispatch spec).
    Any other contiguous-representable ndarray at or above the wire
    threshold is handed once to ``export`` — which copies it into a
    segment and returns its persistent id — and remembered in
    :attr:`known`.  Everything else pickles inline.
    """

    def __init__(
        self,
        file: Any,
        export: Callable[[np.ndarray], tuple],
        known: dict[int, tuple] | None = None,
    ):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._export = export
        self.known = dict(known or {})

    def persistent_id(self, obj: Any) -> tuple | None:
        pid = self.known.get(id(obj))
        if (
            pid is None
            and isinstance(obj, np.ndarray)
            and not obj.dtype.hasobject
            and obj.nbytes >= SHM_THRESHOLD
        ):
            # repro-lint: disable-next-line=deep-determinism-taint -- id() is a process-local dedupe key; segment names/indices come from deterministic insertion order
            pid = self.known[id(obj)] = self._export(obj)
        return pid


class _SegmentUnpickler(pickle.Unpickler):
    """Inverse of :class:`_SegmentPickler` (worker and parent side):
    ``residents`` resolves a spec's resident references, ``arrays`` the
    manifest indices inside a resident's own blob; ``relay`` keeps each
    ephemeral segment's name alive with its array instead of unlinking
    it at load."""

    def __init__(
        self,
        file: Any,
        residents: dict[str, dict] | None = None,
        arrays: Sequence[np.ndarray] = (),
        relay: bool = False,
    ):
        super().__init__(file)
        self._residents = residents or {}
        self._arrays = arrays
        self._nd_fate = "relay" if relay else "unlink"
        self._loaded: dict[str, np.ndarray] = {}

    def persistent_load(self, pid: tuple) -> Any:
        kind = pid[0]
        if kind in ("nd", "ndk"):
            name = pid[1]
            arr = self._loaded.get(name)
            if arr is None:
                fate = "keep" if kind == "ndk" else self._nd_fate
                arr = self._loaded[name] = _segment_to_array(pid[1:], fate)
            return arr
        if kind == "rarr":
            return self._arrays[pid[1]]
        if kind == "res":
            return self._resident_entry(pid[1], pid[2])["obj"]
        if kind == "rref":
            return self._resident_entry(pid[1], pid[2])["arrays"][pid[3]]
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")

    def _resident_entry(self, name: str, gen: int) -> dict:
        entry = self._residents.get(name)
        if entry is None or entry["gen"] != gen:
            have = None if entry is None else entry["gen"]
            raise pickle.UnpicklingError(
                f"resident {name!r} generation {gen} not installed in this "
                f"worker (have {have})"
            )
        return entry


def dumps_with_segments(
    obj: Any, known: dict[int, tuple] | None = None
) -> tuple[bytes, list[Any]]:
    """Pickle ``obj`` with large arrays in ephemeral segments, whose
    ownership transfers to the loading side; ``known`` (:func:`spec_pids`)
    maps objects that need no copy to their persistent ids.  Returns the
    blob and the (creator-closed) segments, for the caller to unlink if
    the blob never reaches a consumer; they are unlinked here if
    pickling fails."""
    segments: list[Any] = []

    def export(arr: np.ndarray) -> tuple:
        return ("nd", *_array_to_segment(arr, False, segments))

    buf = io.BytesIO()
    try:
        _SegmentPickler(buf, export, known).dump(obj)
    except BaseException:
        for seg in segments:
            discard_untracked_segment(seg)
        raise
    return buf.getvalue(), segments


class _NullSink:
    """A file that keeps nothing."""

    def write(self, data: Any) -> int:
        return len(data)


def check_pickles(obj: Any, known: dict[int, tuple] | None = None) -> None:
    """Raise what :func:`dumps_with_segments` would raise pickling
    ``obj``, short of a full ``/dev/shm``: pickle it into a null sink,
    large arrays standing in for segments that are never made."""
    _SegmentPickler(_NullSink(), lambda arr: ("nd",), known).dump(obj)


def loads_with_segments(
    blob: bytes, residents: dict[str, dict] | None = None, relay: bool = False
) -> Any:
    return _SegmentUnpickler(io.BytesIO(blob), residents, relay=relay).load()


def export_resident(obj: Any, gen: int, writable: bool = False) -> dict[str, Any]:
    """Export one object as shared segments plus a pickle blob.

    Returns the parent-side registry entry: the object and its
    generation, the blob (with large arrays replaced by manifest
    indices), the segment manifest ``(name, dtype descr, shape)``
    workers attach zero-copy, the live ``SharedMemory`` handles (parent
    owns the unlink), strong references to the exported source arrays
    (id-stability for the ``rref`` map), and the ``id(array) ->
    manifest index`` map itself.

    An immutable object exports its arrays at or above
    :data:`SHM_THRESHOLD`, which workers map read-only.  A
    ``writable`` one is a single ndarray, exported whatever its size
    and mapped writable everywhere: the entry's object is then the
    parent's own mapping, which stands in for ``obj`` from here on.
    """
    manifest: list[_SegmentRef] = []
    segments: list[Any] = []
    arrays: list[np.ndarray] = []
    entry: dict[str, Any] = {
        "gen": gen,
        "obj": obj,
        "blob": None,
        "manifest": manifest,
        "segments": segments,
        "arrays": arrays,
        "writable": writable,
    }

    def export(arr: np.ndarray) -> tuple:
        ref = _array_to_segment(arr, True, segments)
        colfab.register_resident_segment(ref[0], arr.nbytes)
        arrays.append(arr)
        manifest.append(ref)
        return ("rarr", len(manifest) - 1)

    buf = io.BytesIO()
    try:
        if writable:
            export(obj)
            live = _segment_to_array(manifest[0])
            entry.update(obj=live, arrays=[live])
            pickler = _SegmentPickler(buf, export, {id(live): ("rarr", 0)})
            pickler.dump(live)
        else:
            pickler = _SegmentPickler(buf, export)
            pickler.dump(obj)
    except BaseException:
        unlink_resident(entry)
        raise
    entry["blob"] = buf.getvalue()
    entry["array_ids"] = {aid: pid[1] for aid, pid in pickler.known.items()}
    return entry


def unlink_resident(entry: dict[str, Any]) -> None:
    """Unlink an entry's segments and mark it unexported (``blob`` is
    ``None`` until someone re-exports the object)."""
    for seg in entry["segments"]:
        try:
            seg.unlink()
        # repro-lint: disable-next-line=swallowed-error -- already unlinked by an earlier teardown; accounting below stays exact
        except FileNotFoundError:  # pragma: no cover
            pass
        colfab.unregister_resident_segment(seg.name)
    entry["segments"] = []
    entry["blob"] = None


def spec_pids(residents: dict[str, dict[str, Any]]) -> dict[int, tuple]:
    """``id(object) -> persistent id`` map for the spec pickler: every
    live relayed array, every exported resident and its arrays."""
    pids = dict(_relayed)
    for name, entry in residents.items():
        if entry["blob"] is None:
            continue
        pids[id(entry["obj"])] = ("res", name, entry["gen"])
        for aid, idx in entry["array_ids"].items():
            pids[aid] = ("rref", name, entry["gen"], idx)
    return pids


def resident_frame(name: str, entry: dict[str, Any]) -> bytes:
    """Parent-side: the framed command installing ``entry`` in a worker."""
    return pickle.dumps(
        (
            "resident", name, entry["gen"], entry["blob"], entry["manifest"],
            entry["writable"],
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def install_resident(
    residents: dict[str, dict],
    name: str,
    gen: int,
    blob: bytes,
    manifest: list[_SegmentRef],
    writable: bool,
) -> None:
    """Worker-side: map a resident's segments zero-copy and cache it.

    Each mapping lives exactly as long as its last view: replacing a
    generation just drops the old entry (closing a mapping under the
    views the old object still holds would raise ``BufferError``).

    The frame is read when the worker gets to it, and by then the
    parent may have unlinked the generation: it unlinks a resident only
    when it replaces it (``publish``) or ends the run (``end_run``), and
    the frame saying so follows this one.  Such a generation is dropped,
    not installed.
    """
    arrays: list[np.ndarray] = []
    try:
        for ref in manifest:
            arr = _segment_to_array(ref)
            # An immutable resident stays so: a body that tries to write
            # through a zero-copy view fails loudly instead of
            # corrupting every sibling worker's view.
            arr.flags.writeable = writable
            arrays.append(arr)
    except colfab.SegmentGoneError:
        residents.pop(name, None)
        return

    obj = _SegmentUnpickler(io.BytesIO(blob), arrays=arrays).load()
    residents[name] = {"gen": gen, "obj": obj, "arrays": arrays}
