"""Live query-workload capture (the observatory's input side).

The §3 tuning loop chooses a compression configuration from a
*workload* — E/I/D predicate-count matrices plus container access
frequencies — but until now the cost model only ever saw hand-written
synthetic workloads.  This module closes the first half of the loop:

* :class:`WorkloadCapture` — the per-run accumulator deep layers
  (containers, physical operators, the engine's access paths) report
  per-container activity into, through
  :data:`repro.obs.runtime.RECORDER` (same zero-overhead activation
  pattern as :data:`~repro.obs.runtime.ACTIVE`);
* :class:`WorkloadRecord` — one query run's observation: which
  containers were scanned/probed, which predicate kinds (``eq`` /
  ``ineq`` / ``wild``) hit which containers, how much stayed in the
  compressed domain, and the run's wall time;
* :class:`WorkloadRecorder` — attached to a
  :class:`~repro.query.engine.QueryEngine`, wraps each ``execute`` in
  a capture and appends the finished record to a
  :class:`~repro.obs.journal.WorkloadJournal`.

A disabled recorder is a true no-op: ``execute`` skips the capture
entirely, no journal I/O happens, and the deep layers pay one global
load plus an ``is None`` test.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.journal import WorkloadJournal
from repro.util.clock import elapsed_ns, now_ns
from repro.partitioning.workload import PREDICATE_KINDS

#: per-container access operations the deep layers report.
ACCESS_OPS = ("scans", "interval_searches", "record_reads")

#: ``EvaluationStats`` counters diffed into each record's
#: ``counters`` section.
_RECORD_COUNTERS = ("decompressions", "compressed_comparisons",
                    "decompressed_comparisons", "container_accesses",
                    "summary_accesses", "hash_joins")


class WorkloadCapture:
    """Accumulates one run's per-container activity.

    ``containers`` maps container path -> {op/kind -> count}; the keys
    are the :data:`ACCESS_OPS` plus the predicate kinds of
    :data:`~repro.partitioning.workload.PREDICATE_KINDS` (the two name
    sets are disjoint).
    """

    __slots__ = ("containers",)

    def __init__(self):
        self.containers: dict[str, dict[str, int]] = {}

    def record_access(self, path: str, op: str, n: int = 1) -> None:
        """Report ``n`` accesses of kind ``op`` on container ``path``."""
        ops = self.containers.get(path)
        if ops is None:
            ops = self.containers[path] = {}
        ops[op] = ops.get(op, 0) + n

    def record_predicate(self, path: str, kind: str,
                         n: int = 1) -> None:
        """Report a predicate of ``kind`` evaluated against ``path``."""
        self.record_access(path, kind, n)


@dataclass
class WorkloadRecord:
    """One journalled query observation (JSON-ready via ``to_dict``)."""

    query: str
    ts: str
    wall_ns: int
    #: container path -> {scans/interval_searches/record_reads/
    #: eq/ineq/wild -> count}, from the dynamic capture.
    containers: dict[str, dict[str, int]] = field(default_factory=dict)
    #: statically extracted E/I/D predicates:
    #: [{"kind", "left", "right"(or None)}], reusing the §3.2 extractor.
    predicates: list[dict] = field(default_factory=list)
    #: evaluation counter deltas of the run (decompressions,
    #: compressed vs decompressed comparisons, ...).
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def compressed_ratio(self) -> float | None:
        """Share of comparisons evaluated in the compressed domain."""
        compressed = self.counters.get("compressed_comparisons", 0)
        total = compressed + self.counters.get(
            "decompressed_comparisons", 0)
        if total == 0:
            return None
        return compressed / total

    def to_dict(self) -> dict:
        """JSON-ready representation (one journal line)."""
        return {
            "query": self.query,
            "ts": self.ts,
            "wall_ns": self.wall_ns,
            "containers": {path: dict(sorted(ops.items()))
                           for path, ops in
                           sorted(self.containers.items())},
            "predicates": self.predicates,
            "counters": dict(sorted(self.counters.items())),
            "compressed_ratio": self.compressed_ratio,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadRecord":
        """Rebuild a record from a journal line (extra keys ignored)."""
        return cls(
            query=data.get("query", ""),
            ts=data.get("ts", ""),
            wall_ns=int(data.get("wall_ns", 0)),
            containers={str(path): {str(op): int(n)
                                    for op, n in ops.items()}
                        for path, ops in
                        data.get("containers", {}).items()},
            predicates=list(data.get("predicates", [])),
            counters={str(name): int(value) for name, value in
                      data.get("counters", {}).items()},
        )


class WorkloadRecorder:
    """Captures per-query workload observations into a journal.

    Attach one to a :class:`~repro.query.engine.QueryEngine`
    (``engine.recorder = WorkloadRecorder(journal_path)``); every
    ``execute`` then appends one :class:`WorkloadRecord`.  Set
    ``enabled=False`` (or detach) for a true no-op — the engine skips
    the capture and no file is ever opened.
    """

    GUARDED_BY = {"records_written": "_count_lock"}

    def __init__(self, journal: WorkloadJournal | str | Path,
                 enabled: bool = True):
        self.journal = journal if isinstance(journal, WorkloadJournal) \
            else WorkloadJournal(journal)
        self.enabled = enabled
        #: records appended by this recorder instance (for tests/CLI).
        self.records_written = 0
        self._count_lock = threading.Lock()
        self._pid = os.getpid()

    def _check_fork(self) -> None:
        """Fork safety: a child inheriting this recorder must not use
        the parent's (possibly held) count lock; the journal performs
        its own PID check and reopens its handle in the child."""
        if self._pid != os.getpid():
            self._count_lock = threading.Lock()
            self._pid = os.getpid()

    @contextmanager
    def capture(self, query_text: str, ast, repository, stats,
                telemetry=None):
        """Record the execution inside the block as one journal entry.

        ``ast`` is the parsed query (for static E/I/D extraction
        against ``repository``'s structure summary); ``stats`` is the
        run's :class:`~repro.query.context.EvaluationStats`, diffed
        across the block; a traced run's ``telemetry`` also gets the
        record mirrored into its ``workload.*`` counters.
        """
        from repro.obs import runtime
        before = {name: getattr(stats, name)
                  for name in _RECORD_COUNTERS}
        capture = WorkloadCapture()
        start = now_ns()
        with runtime.recording(capture):
            yield capture
        wall_ns = elapsed_ns(start)
        deltas = {name: getattr(stats, name) - before[name]
                  for name in _RECORD_COUNTERS}
        record = WorkloadRecord(
            query=query_text,
            ts=datetime.now(timezone.utc).isoformat(),
            wall_ns=wall_ns,
            containers=capture.containers,
            predicates=_extract_predicates(ast, repository),
            counters=deltas,
        )
        if telemetry is not None:
            self._bump_metrics(telemetry.metrics, record)
        self.journal.append(record.to_dict())
        self._check_fork()
        with self._count_lock:
            self.records_written += 1

    def _bump_metrics(self, metrics, record: WorkloadRecord) -> None:
        """Mirror the record into ``workload.*`` registry counters."""
        metrics.add("workload.records")
        metrics.add("workload.containers_touched",
                    len(record.containers))
        for kind in PREDICATE_KINDS:
            hits = sum(1 for p in record.predicates
                       if p["kind"] == kind)
            if hits:
                metrics.add(f"workload.predicates.{kind}", hits)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<WorkloadRecorder {state} -> {self.journal.path}>"


def _extract_predicates(ast, repository) -> list[dict]:
    """Static E/I/D extraction of one query, as JSON-ready dicts.

    Reuses :func:`repro.core.system.extract_workload` (the §3.2
    extractor that feeds compression tuning), so the journalled
    predicates are exactly what the cost model consumes.  Imported
    lazily: the engine imports this module, and ``core.system``
    imports the engine.
    """
    from repro.core.system import extract_workload
    workload = extract_workload([ast], repository)
    return [{"kind": p.kind, "left": p.left_path,
             "right": p.right_path} for p in workload]
