"""Engine-wide observability: tracing, metrics, telemetry export.

A zero-dependency layer the query engine and the serving plane report
into, so that the paper's central claim — predicates run in the
compressed domain, decompression is deferred to serialization — is
*measurable* per operator instead of asserted (storage and compression
never import it; a run's access counts are its ``EvaluationStats``):

* :class:`~repro.obs.tracer.Tracer` — hierarchical wall-clock spans
  (``perf_counter_ns``) naming the paper's physical operators
  (Figure 4 access paths), one per operator stream; an untraced run
  has no tracer and its span sites get one shared no-op span;
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters and
  gauges, the serving process's books;
* :mod:`~repro.obs.export` — a registry's counters and gauges
  rendered as Prometheus text exposition, the ``/metrics`` format;
* :class:`~repro.obs.telemetry.Telemetry` — the run record of a
  *traced* query run: its spans, its ``EvaluationStats`` and its plan
  diagnostics; per-operator profiles are read off the spans, and the
  record is JSON-exportable (``to_json``) for the ``repro trace``
  CLI.
"""

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.obs.journal import WorkloadJournal
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "PROMETHEUS_CONTENT_TYPE",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "WorkloadJournal",
    "render_prometheus",
]
