"""Structured slow-query log with exemplar traces.

A slow query on a serving session used to vanish the moment its
latency histogram absorbed it — no record of *which* query, *what
plan*, or *where the time went*.  This module keeps that record:

* every over-threshold execution appends one JSONL record — via the
  same atomic single-line appends as the workload journal
  (:class:`~repro.obs.journal.WorkloadJournal`), so a crash can tear
  at most the line in flight — carrying the query text, a **query
  fingerprint** (hash of the normalized text, the plan-cache key),
  a **plan fingerprint** (hash of the rendered evaluation strategy,
  so differently-spelled queries with one plan group together), the
  SLO query class, the latency, and the plan/block-cache hit deltas
  of the run;
* at most **1-in-N** executions (``exemplar_rate``) run traced, with
  a per-run telemetry; when such a sampled run turns out slow, its
  EXPLAIN-ANALYZE-style per-operator span breakdown is attached to
  the record as the *exemplar* — a trace of where a real slow
  execution spent its time, captured automatically, without paying
  span overhead on the other N-1 runs;
* a bounded in-memory ring of the latest records feeds ``repro top``
  and the ``/slowlog`` endpoint without touching the file.

:meth:`Session._run <repro.service.session.Session._run>` drives both
halves: :meth:`maybe_sample` before the run (the 1-in-N telemetry
decision), :meth:`maybe_record` after it (threshold check + append).
"""

from __future__ import annotations

import hashlib
import os
import threading
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.journal import WorkloadJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.service.cache import normalize_query_text
from repro.util.clock import NS_PER_S

#: slow-log filename suffix, appended to the repository file name.
SLOWLOG_SUFFIX = ".slowlog.jsonl"

#: default latency threshold: queries slower than this are logged.
DEFAULT_THRESHOLD_MS = 100.0

#: default sampling: one execution in this many runs with telemetry
#: enabled so slow records can carry a span-breakdown exemplar.
DEFAULT_EXEMPLAR_RATE = 10

#: default size of the in-memory ring of latest records.
DEFAULT_KEEP = 64

#: the cache counters whose per-run deltas each record carries.
CACHE_COUNTERS = ("cache.plan.hit", "cache.plan.miss",
                  "cache.block.hit", "cache.block.miss")


def default_slowlog_path(repository_path: str | Path) -> Path:
    """The slow-query log that rides along a repository file."""
    repository_path = Path(repository_path)
    return repository_path.with_name(repository_path.name
                                     + SLOWLOG_SUFFIX)


def query_fingerprint(text: str | None) -> str | None:
    """A stable 12-hex-digit id of the normalized query text."""
    if text is None:
        return None
    normalized = normalize_query_text(text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:12]


def plan_fingerprint(ast) -> str | None:
    """A stable 12-hex-digit id of the rendered evaluation strategy.

    Two spellings of one query share a plan fingerprint even when
    their query fingerprints differ, so the log groups by *plan*.
    """
    from repro.query.explain import explain
    try:
        sketch = explain(ast)
    except Exception:  # noqa: BLE001 - fingerprinting must not fail a run
        return None
    if not sketch:
        return None
    return hashlib.sha256(sketch.encode("utf-8")).hexdigest()[:12]


class SlowQueryLog:
    """Threshold-gated JSONL log of slow serving queries.

    ``path=None`` keeps records only in the in-memory ring (tests,
    ephemeral sessions); with a path, records append to a
    :class:`~repro.obs.journal.WorkloadJournal`-backed JSONL file.
    Thread-safe: ``execute_many`` workers record concurrently.  The
    ring lock is a hierarchy leaf — journal appends and metric bumps
    happen outside it.
    """

    GUARDED_BY = {"_recent": "_lock", "_seq": "_lock"}

    def __init__(self, path: str | Path | None = None, *,
                 threshold_ms: float = DEFAULT_THRESHOLD_MS,
                 exemplar_rate: int = DEFAULT_EXEMPLAR_RATE,
                 keep: int = DEFAULT_KEEP,
                 metrics: MetricsRegistry | None = None):
        if threshold_ms < 0:
            raise ValueError(f"slow-log threshold must be >= 0 ms, "
                             f"got {threshold_ms}")
        if exemplar_rate < 1:
            raise ValueError(f"exemplar rate must be >= 1 (1 = every "
                             f"run), got {exemplar_rate}")
        if keep < 1:
            raise ValueError(f"slow-log ring must keep >= 1 record, "
                             f"got {keep}")
        self.journal = WorkloadJournal(path) if path is not None \
            else None
        self.threshold_ms = threshold_ms
        self.threshold_ns = int(threshold_ms * (NS_PER_S / 1000.0))
        self.exemplar_rate = exemplar_rate
        self.keep = keep
        self.metrics = metrics
        self._recent: list[dict] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._pid = os.getpid()
        if metrics is not None:
            metrics.set_gauge("slowlog.threshold_ms", threshold_ms)
            metrics.set_gauge("slowlog.exemplar_rate", exemplar_rate)

    @property
    def path(self) -> Path | None:
        """The backing JSONL file (``None`` for in-memory only)."""
        return self.journal.path if self.journal is not None else None

    def _check_fork(self) -> None:
        """Fork safety: a forked worker inheriting the shared slow log
        must not block on the parent's (possibly held) ring lock.  The
        backing journal runs its own PID check, reopening the JSONL
        handle in the child so lines never interleave mid-record."""
        if self._pid != os.getpid():
            self._lock = threading.Lock()
            self._pid = os.getpid()

    def maybe_sample(self) -> Telemetry | None:
        """The pre-run 1-in-N decision: a telemetry, or None.

        Every Nth execution (``exemplar_rate``) gets a fresh
        :class:`~repro.obs.telemetry.Telemetry` so that *if* the run
        turns out slow, its span breakdown is available as the
        exemplar.  The other runs pay nothing.
        """
        self._check_fork()
        with self._lock:
            seq = self._seq
            self._seq += 1
        if seq % self.exemplar_rate != 0:
            return None
        if self.metrics is not None:
            self.metrics.add("slowlog.sampled")
        return Telemetry()

    def maybe_record(self, *, query: str | None, ast,
                     query_class: str, wall_ns: int,
                     telemetry: Telemetry | None = None,
                     cache_before: dict | None = None,
                     cache_after: dict | None = None,
                     error: bool = False) -> dict | None:
        """Append a record when ``wall_ns`` crosses the threshold.

        Returns the record dict, or ``None`` when the run was fast
        enough.  ``telemetry`` (a traced run's) contributes the
        exemplar span breakdown and evaluation counters;
        ``cache_before``/``cache_after``
        are :data:`CACHE_COUNTERS` snapshots around the run, whose
        deltas are best-effort under concurrency (other workers'
        hits land in the same shared counters).
        """
        if wall_ns < self.threshold_ns:
            return None
        record = {
            "ts": datetime.now(timezone.utc).isoformat(),
            "query": query,
            "query_fingerprint": query_fingerprint(query),
            "plan_fingerprint": plan_fingerprint(ast),
            "class": query_class,
            "wall_ns": wall_ns,
            "wall_ms": wall_ns / (NS_PER_S / 1000.0),
            "threshold_ms": self.threshold_ms,
            "error": error,
            "cache_deltas": _cache_deltas(cache_before, cache_after),
            "exemplar": _exemplar(telemetry),
        }
        if self.journal is not None:
            self.journal.append(record)
        self._check_fork()
        with self._lock:
            self._recent.append(record)
            if len(self._recent) > self.keep:
                del self._recent[:len(self._recent) - self.keep]
        if self.metrics is not None:
            self.metrics.add("slowlog.records")
            if record["exemplar"] is not None:
                self.metrics.add("slowlog.exemplars")
        return record

    def recent(self, n: int | None = None) -> list[dict]:
        """The latest records, newest last (up to ``n``)."""
        self._check_fork()
        with self._lock:
            records = list(self._recent)
        return records[-n:] if n is not None else records

    def close(self) -> None:
        """Close the backing journal handle, if any."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "SlowQueryLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        target = self.path if self.path is not None else "<memory>"
        return (f"<SlowQueryLog > {self.threshold_ms:g} ms "
                f"-> {target}>")


def snapshot_cache_counters(metrics: MetricsRegistry) -> dict:
    """Current :data:`CACHE_COUNTERS` values (for delta computation)."""
    return {name: metrics.counter(name).value
            for name in CACHE_COUNTERS}


def _cache_deltas(before: dict | None,
                  after: dict | None) -> dict | None:
    if before is None or after is None:
        return None
    return {name.removeprefix("cache."):
            after.get(name, 0) - before.get(name, 0)
            for name in CACHE_COUNTERS}


def _exemplar(telemetry: Telemetry | None) -> dict | None:
    """The EXPLAIN-ANALYZE-style span breakdown of a sampled run,
    with the run's evaluation counters."""
    if telemetry is None:
        return None
    operators = telemetry.operator_profile()
    if not operators:
        return None
    return {
        "stats": telemetry.stats.as_dict(),
        "operators": {
            name: {"count": summary["count"],
                   "total_ns": int(summary["total"]),
                   # None once the span left the rolling window
                   "p95_ns": None if summary["p95"] is None
                   else int(summary["p95"]),
                   "max_ns": int(summary["max"])}
            for name, summary in operators.items()
        },
    }
