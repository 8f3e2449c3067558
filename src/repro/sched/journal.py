"""Checkpointing for scheduled runs.

Two persistence layers, both keyed by content-hash task ids from
:mod:`repro.sched.plan`:

* :class:`Journal` — an append-only JSONL file recording every finished
  task of *one run*.  Appends are buffered and **group-committed**: one
  ``write`` + ``flush`` + ``fsync`` covers every record appended since
  the last :meth:`Journal.commit` (the pool calls it once per drain
  cycle — when the result pipes go momentarily quiet — and
  :meth:`Journal.close` commits the remainder), so a burst of fast tasks
  costs one fsync instead of one each.  Recovery semantics are
  unchanged: a record is committed iff newline-terminated, and losing a
  buffered tail to a kill is always safe because the scheduler
  re-executes exactly the missing tasks deterministically on resume.
  A header line pins the run configuration — a journal written under a
  different config (model, samples, runner, bench slice) is ignored
  rather than resumed.

* :class:`SampleCache` — a content-addressed store shared *across* runs:
  one small JSON file per task id, sharded by hash prefix.  Identical
  generated sources (common at low temperature, where a confident model
  repeats its top candidate) are evaluated once ever per runner config.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..faults import inject
from ..faults.inject import FaultInjected

#: bump when the journal line format changes; mismatched journals are
#: discarded (recomputed), never crashed on.
JOURNAL_VERSION = 1

#: buffered records that force an automatic commit, bounding how much a
#: kill between drain cycles can cost (re-execution, never corruption)
GROUP_COMMIT_BOUND = 64


class Journal:
    """Append-only JSONL checkpoint of finished tasks for one run."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._fh = None
        self._buffer: list = []
        #: fsyncs issued — the group-commit tests assert coalescing on it
        self.commits = 0

    # -- reading ------------------------------------------------------------

    def load(self, run_key: str) -> Dict[str, Dict[str, object]]:
        """Replay the journal; returns task id → result payload.

        A record is *committed* iff its line is newline-terminated: a run
        killed mid-write (at any byte offset of the record) leaves a torn
        tail after the last newline, which is ignored here and truncated
        by the next :meth:`start`.  The whole file is ignored when the
        header is missing or belongs to a different run configuration.
        """
        if not self.path.exists():
            return {}
        results: Dict[str, Dict[str, object]] = {}
        header_ok = False
        text = self.path.read_text(encoding="utf-8")
        committed, newline, _torn_tail = text.rpartition("\n")
        if not newline:
            return {}
        for line in committed.split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue                # mid-file corruption: skip the line
            if not isinstance(record, dict):
                continue
            if record.get("kind") == "header":
                header_ok = (record.get("run_key") == run_key
                             and record.get("version") == JOURNAL_VERSION)
                continue
            if not header_ok:
                continue
            task_id = record.get("task")
            payload = record.get("result")
            if isinstance(task_id, str) and isinstance(payload, dict):
                results[task_id] = payload
        return results

    # -- writing ------------------------------------------------------------

    def start(self, run_key: str, fresh: bool = False) -> None:
        """Open for appending; (re)writes the header when starting fresh or
        when the existing file does not match ``run_key``.

        Before appending, any torn tail (bytes after the last newline —
        a record whose write was killed partway) is truncated so a new
        record can never merge with half of an old one."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        reset = fresh or not self._has_header(run_key)
        if not reset:
            self._truncate_torn_tail()
        mode = "w" if reset else "a"
        self._fh = self.path.open(mode, encoding="utf-8")
        if reset:
            self._write({"kind": "header", "version": JOURNAL_VERSION,
                         "run_key": run_key})
        self.commit()       # the header is durable before any record

    def _truncate_torn_tail(self) -> None:
        try:
            with self.path.open("r+b") as fh:
                data = fh.read()
                if not data or data.endswith(b"\n"):
                    return
                keep = data.rfind(b"\n") + 1   # 0 when no newline at all
                fh.truncate(keep)
        except OSError:                         # pragma: no cover - defensive
            pass

    def _has_header(self, run_key: str) -> bool:
        if not self.path.exists():
            return False
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                first = fh.readline().strip()
            record = json.loads(first)
            return (isinstance(record, dict)
                    and record.get("kind") == "header"
                    and record.get("run_key") == run_key
                    and record.get("version") == JOURNAL_VERSION)
        except (OSError, json.JSONDecodeError):
            return False

    def append(self, task_id: str, payload: Dict[str, object]) -> None:
        if self._fh is None:
            raise RuntimeError("Journal.append before Journal.start")
        self._write({"task": task_id, "result": payload})

    def _write(self, record: Dict[str, object]) -> None:
        # buffer whole lines; commit() writes, flushes, and fsyncs the
        # batch in one go.  Committed iff newline-terminated is
        # preserved: commit only ever writes complete lines.
        line = json.dumps(record) + "\n"
        if inject.ACTIVE is not None:
            rule = inject.ACTIVE.fire("sched.journal.torn_write",
                                      str(record.get("task", "header")))
            if rule is not None:
                # every earlier record commits first, then this one
                # tears *after* the last newline — exactly the state a
                # mid-record kill leaves, which load() skips
                self.commit()
                frac = rule.param if 0.0 < rule.param < 1.0 else 0.5
                keep = max(1, int(len(line) * frac))
                self._fh.write(line[:keep])    # no newline: uncommitted
                self._fh.flush()
                raise FaultInjected(
                    "sched.journal.torn_write",
                    f"journal write torn after {keep}/{len(line)} bytes",
                    transient=False)
        self._buffer.append(line)
        if len(self._buffer) >= GROUP_COMMIT_BOUND:
            self.commit()

    def commit(self) -> None:
        """Group commit: write every buffered record, one write + one
        flush + one fsync.  The pool invokes this once per drain cycle,
        coalescing the per-record fsyncs a result burst would otherwise
        pay; a no-op when nothing is buffered."""
        if self._fh is None or not self._buffer:
            return
        self._fh.write("".join(self._buffer))
        self._buffer.clear()
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:                 # pragma: no cover - exotic fs
            pass
        self.commits += 1

    def close(self) -> None:
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None
        self._buffer.clear()


class SampleCache:
    """Content-addressed, cross-run store of per-task results.

    Entries are wrapped with a sha256 checksum of the payload, so any
    on-disk corruption — truncation, a flipped byte, a stray editor —
    turns into a cache *miss* (the task recomputes and rewrites) rather
    than a silently-wrong result flowing into metrics.  Entries from the
    pre-checksum format are likewise treated as misses.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, task_id: str) -> Path:
        return self.root / task_id[:2] / f"{task_id}.json"

    @staticmethod
    def _digest(payload: Dict[str, object]) -> str:
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, task_id: str) -> Optional[Dict[str, object]]:
        path = self._path(task_id)
        try:
            wrapper = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(wrapper, dict):
            return None
        payload = wrapper.get("payload")
        if not isinstance(payload, dict):
            return None
        if wrapper.get("sha256") != self._digest(payload):
            return None                  # bit rot / torn write: recompute
        return payload

    def put(self, task_id: str, payload: Dict[str, object]) -> bool:
        """Write one entry durably; returns False when the write failed.

        :meth:`encode` then :meth:`write`; the scheduler runs the two in
        different threads (write-behind)."""
        entry = self.encode(task_id, payload)
        return entry is not None and self.write(*entry)

    def encode(self, task_id: str, payload: Dict[str, object]
               ) -> Optional[Tuple[Path, bytes]]:
        """The ``(path, bytes)`` that :meth:`write` persists for one entry.

        The cache's fault points fire here, never in :meth:`write`:
        ``sched.cache.truncate`` and ``sched.cache.bitflip`` damage the
        bytes, and an injected ``guard.disk.enospc`` returns None, a
        write that failed before it began (a future cache miss)."""
        data = json.dumps({"sha256": self._digest(payload),
                           "payload": payload})
        if inject.ACTIVE is not None:
            rule = inject.ACTIVE.fire("sched.cache.truncate", task_id)
            if rule is not None:
                data = data[: max(1, len(data) // 2)]
            rule = inject.ACTIVE.fire("sched.cache.bitflip", task_id)
            if rule is not None:
                pos = len(data) // 2
                flipped = chr(ord(data[pos]) ^ 0x01)
                data = data[:pos] + flipped + data[pos + 1:]
            if inject.ACTIVE.fire("guard.disk.enospc", task_id) is not None:
                return None
        return self._path(task_id), data.encode("utf-8")

    @classmethod
    def write(cls, path: Path, data: bytes) -> bool:
        """Persist one encoded entry; returns False when the write failed.

        The snapshot path is tmp-write → fsync(file) → rename →
        fsync(dir): without the fsyncs a machine crash right after the
        rename can leave a zero-length or torn file *at the final path*
        (the rename can be journaled before the data blocks hit disk).
        A failed write (ENOSPC, EIO) cleans up the tmp file and degrades
        to a future cache miss; it never corrupts an existing entry and
        never crashes the run (the cache is an optimisation, not a
        correctness dependency).  Pure file I/O: it takes no lock, so it
        is safe on a thread that runs while the pool forks workers."""
        tmp = path.with_suffix(".tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)   # atomic: readers never see torn files
            cls._fsync_dir(path.parent)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        return True

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Persist the rename itself (the directory entry)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:             # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:             # pragma: no cover - e.g. NFS quirks
            pass
        finally:
            os.close(fd)


def journal_path_for(root: Path | str, llm_name: str, num_samples: int,
                     temperature: float, with_timing: bool, seed: int,
                     tag: str = "full") -> Path:
    """Canonical journal location for a run configuration under ``root``
    (mirrors ``EvalCache``'s file naming)."""
    fname = (
        f"{llm_name}_{tag}_s{num_samples}_t{temperature:g}"
        f"_{'timed' if with_timing else 'plain'}_r{seed}.journal.jsonl"
    )
    return Path(root) / "journal" / fname.replace("/", "-")
