"""Engine-wide observability: tracing, metrics, telemetry export.

A zero-dependency layer the query engine and the serving plane report
into, so that the paper's central claim — predicates run in the
compressed domain, decompression is deferred to serialization — is
*measurable* per operator instead of asserted (storage and compression
never import it; a run's access counts are its ``EvaluationStats``):

* :class:`~repro.obs.tracer.Tracer` — hierarchical wall-clock spans
  (``perf_counter_ns``) naming the paper's physical operators
  (Figure 4 access paths); an untraced run has no tracer and its
  span sites get one shared no-op span;
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters,
  gauges and histograms (exact lifetime count/total/max plus a
  fixed-memory rolling window for p50/p95/p99 and rate);
* :mod:`~repro.obs.export` — the registry rendered as (and parsed
  back from) Prometheus text exposition, the serving telemetry
  plane's scrape format;
* :class:`~repro.obs.telemetry.Telemetry` — one tracer + one registry
  + the run's ``EvaluationStats`` per *traced* query run,
  JSON-exportable (``to_json``) for benchmark reports and the
  ``repro trace`` CLI;
* :class:`~repro.obs.lockwatch.LockOrderWatchdog` — opt-in runtime
  recorder of per-thread lock acquisition orders, cross-checked
  against the Tier-C static acquisition graph
  (:mod:`repro.lint.concurrency`).
"""

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.journal import WorkloadJournal
from repro.obs.lockwatch import (
    LockOrderViolation,
    LockOrderWatchdog,
    WatchedLock,
    watch_session,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PROMETHEUS_CONTENT_TYPE",
    "LockOrderViolation",
    "LockOrderWatchdog",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "WatchedLock",
    "WorkloadJournal",
    "parse_prometheus",
    "render_prometheus",
    "watch_session",
]
