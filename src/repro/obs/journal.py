"""The append-only JSONL journal: one line per record.

The slow-query log (:class:`~repro.service.slowlog.SlowQueryLog`)
persists its over-threshold executions here.

The journal keeps **one** append-mode file handle for its lifetime,
opened lazily on the first append and reused for every subsequent
record — a serving process journalling thousands of queries pays one
``open()`` total, not one per query, and appending is O(record), not
O(journal).  Each record is a single ``write()`` of one complete
line followed by a flush: appends of that size are atomic on POSIX,
so a crash mid-run can truncate at most the line being written, never
previously journalled history.  Reads tolerate a trailing partial
line for journals written by foreign appenders.

The journal is also **fork-safe**: a child process inheriting an open
journal must not share the parent's buffered text handle (interleaved
or duplicated lines) nor its possibly-held lock (deadlock).  Every
entry point checks the owning PID and, after a fork, re-initializes
the lock and *abandons* the inherited handle without flushing it — any
partial line sitting in the inherited buffer belongs to the parent,
which will write it itself.  The child then lazily opens its own
append handle, whose single-``write()`` lines interleave safely with
the parent's at the file-descriptor level.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO

class WorkloadJournal:
    """Append-only JSONL store of records.

    Records are plain JSON-ready dicts; the journal itself is
    schema-agnostic so old journals stay readable as the record grows
    fields.
    """

    GUARDED_BY = {"_handle": "_lock", "opens": "_lock"}

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: IO[str] | None = None
        self._lock = threading.Lock()
        #: how many times the backing file has been opened — a serving
        #: session appending N records must report ``opens == 1``
        #: (per process: a forked child reopens once for itself).
        self.opens = 0
        #: PID that owns ``_handle`` and ``_lock``; a mismatch means
        #: this journal object crossed a fork.
        self._pid = os.getpid()

    def _check_fork(self) -> None:
        """Re-initialize inherited state after a fork.

        Called *before* taking the lock: the inherited lock may be
        stuck-held by a parent thread that no longer exists in this
        process.  Right after ``fork`` the child is single-threaded,
        so replacing the lock first — and swapping the handle under
        the fresh, uncontended replacement — is race-free.  The
        inherited handle
        is dropped via ``os.close`` on its descriptor — never flushed:
        a partial line in its buffer is the parent's in-flight write,
        and flushing it here would duplicate bytes into the file.
        """
        if self._pid == os.getpid():
            return
        self._lock = threading.Lock()
        with self._lock:
            stale = self._handle
            self._handle = None
        self._pid = os.getpid()
        if stale is not None and not stale.closed:
            try:
                os.close(stale.fileno())
            except (OSError, ValueError):
                pass
            try:
                stale.close()  # marks the wrapper closed; the write of
            except (OSError, ValueError):  # its buffer fails on the
                pass  # already-closed descriptor and is discarded

    def __len__(self) -> int:
        return len(self.records())

    def exists(self) -> bool:
        """True when the journal file is present on disk."""
        return self.path.exists()

    def _file(self) -> IO[str]:  # holds: _lock
        """The persistent append handle (caller holds the lock)."""
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            self.opens += 1
        return self._handle

    def append(self, record: dict) -> None:
        """Append one record as a single atomic line write.

        The line is serialized outside the lock, written in one
        ``write()`` call on the journal's persistent handle, and
        flushed so concurrent readers (and ``records()``) observe it
        immediately.  Thread-safe: concurrent appenders interleave
        whole lines, never tear them.
        """
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        self._check_fork()
        with self._lock:
            handle = self._file()
            handle.write(line)
            handle.flush()

    def close(self) -> None:
        """Close the persistent handle (reopened lazily if needed)."""
        self._check_fork()
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None

    def __enter__(self) -> "WorkloadJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def records(self) -> list[dict]:
        """All journalled records, oldest first.

        Unparseable lines (e.g. a torn tail from a foreign appender)
        are skipped, never fatal.
        """
        if not self.path.exists():
            return []
        out: list[dict] = []
        for line in self.path.read_text(
                encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                out.append(record)
        return out

    def __repr__(self) -> str:
        return f"<WorkloadJournal {str(self.path)!r}>"
