"""Saving and loading partitioned graphs (paper §III-A).

CuSP can write the constructed partitions to disk so that applications
can load them later without re-partitioning (the workflow the paper uses
to feed XtraPulp partitions into D-Galois).  The layout is one directory:

```
<dir>/meta.json            global metadata (policy, sizes, invariant)
<dir>/masters.npy          global master map
<dir>/part<i>.gr           partition i's local graph, binary CSR
<dir>/part<i>.npz          partition i's proxy table (global ids, counts)
```

The same directory-of-numpy-blobs layout backs
:class:`PartitionCheckpoint`, the per-phase checkpoint store the
crash-recovery machinery replays from:

```
<dir>/checkpoint.json      run identity, completed stages, digests
<dir>/<stage>.npz          one stage's output arrays
```

Durable checkpoints are **corruption-proof**: every stage file is
written atomically (tmp file + fsync + ``os.replace``), its SHA-256 —
plus a per-array content digest — is recorded in the manifest, and the
manifest itself is written atomically and carries a self-digest.  Every
durable write is verified by reading the file back; every durable
:meth:`PartitionCheckpoint.load` re-verifies the digest first, so a torn
or bit-rotted file raises :class:`CheckpointCorruptionError` instead of
feeding garbage into a replay.  Opening a directory in *resume* mode
(:mod:`repro.core.framework`'s ``--resume``) verifies the completed
stages in order and falls back to the longest verified prefix.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..graph.formats import read_gr, write_gr
from .partition import DistributedGraph, LocalPartition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.faults import FaultInjector

__all__ = [
    "save_partitions",
    "load_partitions",
    "PartitionCheckpoint",
    "CheckpointCorruptionError",
]

_FORMAT_VERSION = 1
_CHECKPOINT_VERSION = 2

#: Keys meta.json must carry for a directory to be a loadable partition.
_REQUIRED_META_KEYS = (
    "format_version",
    "policy",
    "invariant",
    "num_partitions",
    "num_global_nodes",
    "num_global_edges",
)


class CheckpointCorruptionError(RuntimeError):
    """A durable checkpoint file or manifest failed digest verification."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_digest(arr: np.ndarray) -> str:
    """Content digest of one array: dtype + shape + buffer bytes."""
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, in place when that makes it immutable.

    An array that owns its writable buffer is frozen where it is, so
    the caller's reference turns read-only too.  A writable view is
    copied first: freezing it would leave its base writable.  An array
    already read-only is taken as it is.
    """
    if arr.flags.writeable:
        if not arr.flags.owndata:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp file + fsync + ``os.replace``.

    A crash at any point leaves either the old file or the new one —
    never a torn mixture — which is the durability half of the
    corruption-proof checkpoint protocol (digests are the other half).
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _serialize_npz(arrays: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def save_partitions(dg: DistributedGraph, directory: str | os.PathLike) -> None:
    """Write ``dg`` under ``directory`` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": _FORMAT_VERSION,
        "policy": dg.policy_name,
        "invariant": dg.invariant,
        "num_partitions": dg.num_partitions,
        "num_global_nodes": dg.num_global_nodes,
        "num_global_edges": dg.num_global_edges,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    np.save(directory / "masters.npy", dg.masters)
    for p in dg.partitions:
        write_gr(p.local_graph, directory / f"part{p.host}.gr")
        np.savez(
            directory / f"part{p.host}.npz",
            global_ids=p.global_ids,
            num_masters=np.int64(p.num_masters),
            has_csc=np.bool_(p.local_csc is not None),
        )
        if p.local_csc is not None:
            write_gr(p.local_csc, directory / f"part{p.host}.csc.gr")


def load_partitions(directory: str | os.PathLike) -> DistributedGraph:
    """Load a partitioned graph previously written by :func:`save_partitions`.

    The directory's ``meta.json`` is schema-validated before anything is
    read: a missing file, unparsable JSON, a missing required key, or a
    ``format_version`` this code does not understand each raise a
    :class:`ValueError` naming exactly what is wrong.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"{meta_path} not found; not a partition directory")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path} must hold a JSON object, got {type(meta).__name__}")
    missing = [k for k in _REQUIRED_META_KEYS if k not in meta]
    if missing:
        raise ValueError(
            f"{meta_path} is missing required key(s) {', '.join(missing)}; "
            "not a partition directory written by save_partitions"
        )
    if meta["format_version"] != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported partition format version {meta['format_version']!r} "
            f"in {meta_path} (this build reads version {_FORMAT_VERSION})"
        )
    masters = np.load(directory / "masters.npy")
    n = int(meta["num_global_nodes"])
    partitions = []
    for host in range(int(meta["num_partitions"])):
        local_graph = read_gr(directory / f"part{host}.gr")
        blob = np.load(directory / f"part{host}.npz")
        for key in ("global_ids", "num_masters", "has_csc"):
            if key not in blob.files:
                raise ValueError(
                    f"part{host}.npz is missing array {key!r}; the partition "
                    "directory is incomplete or was written by other code"
                )
        global_ids = blob["global_ids"]
        num_masters = int(blob["num_masters"])
        local_csc = None
        if bool(blob["has_csc"]):
            local_csc = read_gr(directory / f"part{host}.csc.gr")
        lookup = np.full(n, -1, dtype=np.int64)
        lookup[global_ids] = np.arange(global_ids.size)
        partitions.append(
            LocalPartition(
                host=host,
                global_ids=global_ids,
                num_masters=num_masters,
                master_host=masters[global_ids].astype(np.int32),
                local_graph=local_graph,
                local_csc=local_csc,
                _lookup=lookup,
            )
        )
    return DistributedGraph(
        partitions=partitions,
        masters=masters,
        num_global_nodes=n,
        num_global_edges=int(meta["num_global_edges"]),
        policy_name=str(meta["policy"]),
        invariant=str(meta["invariant"]),
        breakdown=None,
    )


class PartitionCheckpoint:
    """Per-phase checkpoint store for crash-recoverable partitioning.

    Each completed phase saves its output arrays under a *stage* key;
    a crash replay reloads the inputs it needs from the last completed
    stage.  With a ``directory`` the store is durable on disk (same
    numpy-blob layout family as :func:`save_partitions`) and every load
    round-trips through the files; without one it degrades to an
    in-memory store of read-only arrays (:func:`_frozen`), so a replay
    can never observe mutations made after the save — no write can
    happen — and a stage costs no second copy of its arrays.

    Durable writes follow the corruption-proof protocol: atomic
    tmp+fsync+replace writes, SHA-256 file and per-array digests in the
    manifest, read-back verification after every write and before every
    load.  An attached :class:`~repro.runtime.faults.FaultInjector` may
    *tear* a planned stage write (``torn_checkpoint`` fault family,
    simulating a kill -9 mid-write); the read-back verification detects
    the torn file and rewrites it from the in-memory arrays, counted in
    :attr:`torn_repairs`.

    A durable checkpoint directory records the run's identity (policy,
    partition count, graph size).  Re-opening a directory written by a
    *different* run — or carrying an older manifest format — discards
    the stale contents rather than replaying someone else's state.  With
    ``resume=True`` the directory is instead *required* to match: the
    manifest is validated, every completed stage's digest is verified in
    order, and the completed list falls back to the longest verified
    prefix (so a torn tail never poisons a resumed run).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        meta: dict | None = None,
        injector: "FaultInjector | None" = None,
        resume: bool = False,
    ):
        self.meta = {"checkpoint_version": _CHECKPOINT_VERSION, **(meta or {})}
        self.directory = Path(directory) if directory is not None else None
        self.injector = injector
        self._memory: dict[str, dict[str, np.ndarray]] = {}
        self._completed: list[str] = []
        self._digests: dict[str, dict[str, Any]] = {}
        self._runtime: dict[str, dict[str, Any]] = {}
        #: Torn stage writes detected by read-back verification and
        #: repaired from the in-memory arrays.
        self.torn_repairs = 0
        #: First previously-completed stage that failed verification on
        #: resume (``None`` when the whole prefix verified).
        self.fallback_stage: str | None = None
        if resume and self.directory is None:
            raise ValueError("resume=True requires a checkpoint directory")
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            if resume:
                self._open_for_resume()
            else:
                self._adopt_or_reset_directory()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        assert self.directory is not None
        return self.directory / "checkpoint.json"

    def _manifest_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "format_version": _CHECKPOINT_VERSION,
            "meta": self.meta,
            "completed": self._completed,
            "digests": self._digests,
            "runtime": self._runtime,
        }
        doc["manifest_sha256"] = _sha256(
            json.dumps(doc, sort_keys=True).encode()
        )
        return doc

    def _write_manifest(self) -> None:
        _atomic_write_bytes(
            self._manifest_path(),
            json.dumps(self._manifest_doc(), indent=2).encode(),
        )

    def _read_manifest(self) -> dict[str, Any] | None:
        """Parse and digest-verify the on-disk manifest (None if absent
        or unparsable; raises :class:`CheckpointCorruptionError` when it
        parses but fails its self-digest)."""
        path = self._manifest_path()
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict):
            return None
        recorded = doc.get("manifest_sha256")
        if recorded is not None:
            body = {k: v for k, v in doc.items() if k != "manifest_sha256"}
            if _sha256(json.dumps(body, sort_keys=True).encode()) != recorded:
                raise CheckpointCorruptionError(
                    f"checkpoint manifest {path} fails its self-digest; the "
                    "manifest was truncated or edited outside this store"
                )
        return doc

    def _adopt_or_reset_directory(self) -> None:
        try:
            doc = self._read_manifest()
        except CheckpointCorruptionError:
            doc = None  # a corrupt manifest is stale by definition
        if (
            doc is not None
            and doc.get("format_version") == _CHECKPOINT_VERSION
            and doc.get("meta") == self.meta
        ):
            digests = doc.get("digests", {})
            runtime = doc.get("runtime", {})
            kept: list[str] = []
            for stage in doc.get("completed", ()):
                try:
                    self._digests[stage] = digests[stage]
                    self._verify_durable(stage)
                except (KeyError, CheckpointCorruptionError):
                    self._digests.pop(stage, None)
                    continue
                kept.append(stage)
                if stage in runtime:
                    self._runtime[stage] = runtime[stage]
            self._completed = kept
            return
        # Stale, foreign, or older-format checkpoint: start fresh.
        assert self.directory is not None
        for stale in self.directory.glob("*.npz"):
            stale.unlink()
        for stale in self.directory.glob("*.npz.tmp"):
            stale.unlink()
        self._completed = []
        self._digests = {}
        self._runtime = {}
        self._write_manifest()

    def _open_for_resume(self) -> None:
        path = self._manifest_path()
        try:
            doc = self._read_manifest()
        except CheckpointCorruptionError:
            raise
        if doc is None:
            raise ValueError(
                f"cannot resume: {path} is missing or unreadable; pass the "
                "checkpoint directory of an interrupted run"
            )
        if doc.get("format_version") != _CHECKPOINT_VERSION:
            raise ValueError(
                f"cannot resume: {path} has manifest format "
                f"{doc.get('format_version')!r}, this build writes "
                f"{_CHECKPOINT_VERSION}"
            )
        their_meta = doc.get("meta")
        if their_meta != self.meta:
            diff = [
                k
                for k in sorted(set(self.meta) | set(their_meta or {}))
                if (their_meta or {}).get(k) != self.meta.get(k)
            ]
            raise ValueError(
                "cannot resume: checkpoint was written by a different run "
                f"(mismatched key(s): {', '.join(diff)}); re-run with the "
                "same graph, policy, and partition count"
            )
        self._digests = dict(doc.get("digests", {}))
        runtime = doc.get("runtime", {})
        verified: list[str] = []
        for stage in doc.get("completed", ()):
            try:
                self._verify_durable(stage, deep=True)
            except CheckpointCorruptionError:
                self.fallback_stage = stage
                break
            verified.append(stage)
        self._completed = verified
        self._digests = {s: self._digests[s] for s in verified}
        self._runtime = {s: runtime[s] for s in verified if s in runtime}
        if self.fallback_stage is not None:
            # Drop the unverified tail on disk too, so a second resume
            # (or a crash during this one) sees a consistent store.
            self._write_manifest()

    # ------------------------------------------------------------------
    # Stage persistence
    # ------------------------------------------------------------------
    def save(self, stage: str, **arrays: np.ndarray) -> None:
        """Record ``stage`` as completed with its output ``arrays``.

        Durable saves are atomic and verified by read-back; a write torn
        by the injector's ``torn_checkpoint`` fault is detected by the
        digest check and repaired from the in-memory arrays.
        """
        arrs = {k: np.asarray(v) for k, v in arrays.items()}
        if self.directory is not None:
            data = _serialize_npz(arrs)
            self._digests[stage] = {
                "file_sha256": _sha256(data),
                "nbytes": len(data),
                "arrays": {k: _array_digest(v) for k, v in arrs.items()},
            }
            path = self.directory / f"{stage}.npz"
            torn = self.injector is not None and self.injector.torn_checkpoint(
                stage
            )
            if torn:
                # Simulated kill -9 mid-write: a truncated file lands at
                # the final path (as a non-atomic writer would leave it).
                path.write_bytes(data[: len(data) // 2])
            else:
                _atomic_write_bytes(path, data)
            try:
                self._verify_durable(stage)
            except CheckpointCorruptionError:
                # Read-back verification caught the torn write while the
                # good arrays are still in memory: rewrite and re-verify.
                _atomic_write_bytes(path, data)
                self._verify_durable(stage)
                self.torn_repairs += 1
        else:
            self._memory[stage] = {k: _frozen(v) for k, v in arrs.items()}
        if stage not in self._completed:
            self._completed.append(stage)
        if self.directory is not None:
            self._write_manifest()

    def _verify_durable(self, stage: str, deep: bool = False) -> None:
        """Digest-verify one durable stage file.

        ``deep=True`` additionally re-hashes every array against its
        recorded content digest (used on resume, where the file-level
        hash alone cannot vouch for what a foreign writer stored).
        """
        assert self.directory is not None
        entry = self._digests.get(stage)
        path = self.directory / f"{stage}.npz"
        if entry is None:
            raise CheckpointCorruptionError(
                f"stage {stage!r} has no recorded digest in the manifest"
            )
        if not path.exists():
            raise CheckpointCorruptionError(
                f"stage file {path} is missing; the checkpoint was pruned "
                "or never fully written"
            )
        data = path.read_bytes()
        if _sha256(data) != entry["file_sha256"]:
            raise CheckpointCorruptionError(
                f"stage file {path} fails digest verification "
                f"({len(data)} byte(s) on disk, {entry['nbytes']} expected); "
                "the write was torn or the file was corrupted"
            )
        if deep:
            with np.load(io.BytesIO(data)) as blob:
                recorded = entry.get("arrays", {})
                for name in recorded:
                    if name not in blob.files or (
                        _array_digest(blob[name]) != recorded[name]
                    ):
                        raise CheckpointCorruptionError(
                            f"array {name!r} of stage {stage!r} fails its "
                            "content digest"
                        )

    def verify(self, stage: str, deep: bool = False) -> None:
        """Verify ``stage``'s stored bytes against the manifest digests.

        Raises :class:`KeyError` for a stage never checkpointed and
        :class:`CheckpointCorruptionError` on any mismatch.  In-memory
        stores are trivially verified (copies cannot tear).
        """
        if stage not in self._completed:
            raise KeyError(f"stage {stage!r} was never checkpointed")
        if self.directory is not None:
            self._verify_durable(stage, deep=deep)

    def load(self, stage: str) -> dict[str, np.ndarray]:
        """The arrays saved for ``stage``, mutation-safe.

        Durable loads digest-verify the file first, so a corrupted
        checkpoint raises :class:`CheckpointCorruptionError` instead of
        feeding damaged arrays into a replay, and return fresh copies.
        In-memory loads return the stored arrays themselves: they are
        read-only, so a write raises :class:`ValueError` instead of
        reaching the store.
        """
        if stage not in self._completed:
            raise KeyError(f"stage {stage!r} was never checkpointed")
        if self.directory is not None:
            self._verify_durable(stage)
            with np.load(self.directory / f"{stage}.npz") as blob:
                return {k: blob[k].copy() for k in blob.files}
        return dict(self._memory[stage])

    def roundtrip(self, stage: str, **arrays: np.ndarray) -> dict[str, np.ndarray]:
        """Save ``stage`` and hand back what :meth:`load` returns.

        The partitioner feeds every phase from the round-tripped arrays,
        so a crash replay reads exactly what recovery would read — the
        checkpoint layer is exercised on every run, not only on failure.
        In memory that costs no copy: the phase's own arrays come back,
        frozen.
        """
        self.save(stage, **arrays)
        return self.load(stage)

    def has(self, stage: str) -> bool:
        return stage in self._completed

    def completed(self) -> list[str]:
        return list(self._completed)

    # ------------------------------------------------------------------
    # Runtime state (cross-process resume)
    # ------------------------------------------------------------------
    def set_runtime_state(self, stage: str, state: dict[str, Any]) -> None:
        """Attach the run's restorable state as of ``stage``'s save.

        Call *before* :meth:`save`/:meth:`roundtrip` for the stage: the
        state rides in the same manifest write, so stage arrays and
        runtime state are always mutually consistent on disk.
        """
        self._runtime[stage] = state

    def runtime_state(self, stage: str) -> dict[str, Any] | None:
        """The runtime state recorded with ``stage`` (None if absent)."""
        return self._runtime.get(stage)
