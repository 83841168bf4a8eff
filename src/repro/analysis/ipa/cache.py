"""The ``repro lint`` incremental cache.

Whole-program findings depend on *transitive callees*, so caching the
findings per file would be unsound: an edit to ``helper.py`` can
change what ``phase.py`` is guilty of.  What **is** per-file is the
expensive part — parsing, the per-module rule pass, and summary
extraction.  The cache therefore stores, keyed by the file's relative
path and guarded by its SHA-256:

* the :class:`~repro.analysis.ipa.summary.ModuleSummary` (as JSON),
* the file's per-module findings and suppressed-count,
* its suppression tables (so cached files can still suppress
  whole-program findings without being re-read).

The link-and-analyze phase re-runs on every invocation over the full
summary set — it is pure Python over small dicts, no AST — which keeps
warm full-repo runs fast *and* sound.  A ``rules_key`` mismatch
(engine/summary version or rule set changed) discards the cache
wholesale.

Concurrency
-----------
Mutation campaigns (:mod:`repro.analysis.mutate`) and parallel CI legs
can point several processes at one cache file.  Reads are always safe:
:meth:`DeepCache.save` publishes with ``os.replace``, so a reader sees
either the old bytes or the new bytes, never a torn file.  Writes are
serialized by a pid-stamped advisory lock (``<cache>.lock``, created
``O_CREAT | O_EXCL``): a writer that loses the race simply *skips* its
save — the cache is an optimization, never load-bearing, and the
winner is persisting equally fresh data.  A lock whose recorded pid is
no longer alive is stolen, so a killed run cannot wedge every future
one; liveness is probed with ``os.kill(pid, 0)`` rather than lock-file
age, keeping this module free of wall-clock reads (the repo's own
``wall-clock`` lint rule bans them outside the cost model and benches).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["DeepCache"]

CACHE_VERSION = 1


class DeepCache:
    """On-disk map ``rel path -> {sha, summary, findings, ...}``."""

    def __init__(self, path: Path | None, rules_key: str):
        self.path = path
        self.rules_key = rules_key
        self.entries: dict[str, dict] = {}
        self.dirty = False

    @classmethod
    def load(cls, path: str | Path | None, rules_key: str) -> "DeepCache":
        cache = cls(Path(path) if path is not None else None, rules_key)
        if cache.path is None or not cache.path.exists():
            return cache
        try:
            doc = json.loads(cache.path.read_text())
        except (OSError, ValueError):
            return cache  # unreadable/corrupt cache == cold cache
        if (
            doc.get("version") != CACHE_VERSION
            or doc.get("rules_key") != rules_key
        ):
            cache.dirty = True  # rewrite with the current key on save
            return cache
        entries = doc.get("entries")
        if isinstance(entries, dict):
            cache.entries = entries
        return cache

    def get(self, rel: str, sha: str) -> dict | None:
        entry = self.entries.get(rel)
        if entry is not None and entry.get("sha") == sha:
            return entry
        return None

    def put(self, rel: str, entry: dict) -> None:
        self.entries[rel] = entry
        self.dirty = True

    def prune(self, live_rels: set[str]) -> None:
        """Drop entries for files no longer part of the analyzed set."""
        dead = [rel for rel in self.entries if rel not in live_rels]
        for rel in dead:
            del self.entries[rel]
            self.dirty = True

    @property
    def lock_path(self) -> Path:
        assert self.path is not None
        return self.path.with_name(self.path.name + ".lock")

    def _acquire_lock(self) -> bool:
        """Take the advisory write lock, stealing it from dead holders.

        Returns False when a *live* process holds it — the caller skips
        its save (the holder is persisting equally fresh data).
        """
        for _attempt in range(2):  # second pass retries after a steal
            try:
                fd = os.open(
                    self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                if not self._holder_alive():
                    try:
                        os.unlink(self.lock_path)
                    # repro-lint: disable-next-line=swallowed-error -- the racing steal lost; the next loop pass re-examines the lock
                    except OSError:
                        pass
                    continue
                return False
            except OSError:
                return False  # unwritable directory: skip the save
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            return True
        return False

    def _holder_alive(self) -> bool:
        """Is the pid recorded in the lock file a live process?"""
        try:
            pid = int(self.lock_path.read_text().strip())
        except (OSError, ValueError):
            return False  # vanished or garbage: treat as stale
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True  # alive, owned by someone else
        except OSError:
            return False
        return True

    def _release_lock(self) -> None:
        try:
            os.unlink(self.lock_path)
        # repro-lint: disable-next-line=swallowed-error -- releasing a lock that a stale-steal already removed must not mask the completed save
        except OSError:
            pass

    def save(self) -> None:
        if self.path is None or not self.dirty:
            return
        doc = {
            "version": CACHE_VERSION,
            "rules_key": self.rules_key,
            "entries": self.entries,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return  # nowhere to persist; stay in-memory only
        if not self._acquire_lock():
            return  # a live writer is already persisting fresh data
        # Write-then-rename so a killed run never leaves a torn cache
        # (the loader treats unparsable JSON as cold anyway).
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent),
                prefix=self.path.name,
                suffix=".tmp",
            )
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, self.path)
            tmp = None
            self.dirty = False
        # repro-lint: disable-next-line=swallowed-error -- best-effort persistence; a failed write leaves the previous cache intact
        except OSError:
            pass
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                # repro-lint: disable-next-line=swallowed-error -- best-effort cleanup of the temp file after a failed cache write; the cache is an optimization, never load-bearing
                except OSError:
                    pass
            self._release_lock()
