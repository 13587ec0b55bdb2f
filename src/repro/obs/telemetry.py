"""One traced query run's worth of observability.

A :class:`Telemetry` exists only for a run someone asked to trace
(``ExecutionOptions(telemetry=Telemetry())``); an untraced run has
none.  It bundles the tracer, the metrics registry the physical
operators report their rows, batches and wall time into, the plan
verifier's findings and the run's
:class:`~repro.query.context.EvaluationStats` — the same object
``QueryResult.stats`` is, so every view of the run quotes the same
eight counters.  Span durations are mirrored into
``span.<name>`` histograms as spans close, so per-operator p50/p95/max
come for free, exact, since a run keeps every span's duration.
``to_json()`` is the machine-readable operator profile attached to
benchmark results and emitted by ``repro trace``.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NOOP_SPAN, Tracer


class Telemetry:
    """Tracer + metrics registry + evaluation counters of a traced
    run."""

    __slots__ = ("tracer", "metrics", "stats", "diagnostics")

    def __init__(self):
        # imported here: the query package imports this module.
        from repro.query.context import EvaluationStats
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(on_end=self._span_ended)
        #: the evaluation counters of the run(s) recorded here; the
        #: engine counts into it and hands it out as the result's.
        self.stats = EvaluationStats()
        #: non-fatal plan-verifier findings of the run
        #: (:class:`repro.lint.PlanDiagnostic` objects).
        self.diagnostics: list = []

    def _span_ended(self, span) -> None:
        self.metrics.observe(f"span.{span.name}", span.duration_ns)

    def span(self, name: str, **attributes):
        """Open a span."""
        return self.tracer.span(name, **attributes)

    def operator_profile(self) -> dict[str, dict]:
        """Per-operator histogram summaries from the ``span.*``
        histograms (names without the prefix).

        Insertion order is the sorted operator name, independent of
        span-open order, so exported documents are stable across runs
        of the same plan.
        """
        profile: dict[str, dict] = {}
        for name, summary in sorted(self.metrics.histograms().items()):
            if name.startswith("span."):
                profile[name[len("span."):]] = summary
        return profile

    def to_dict(self) -> dict:
        """The full JSON-ready telemetry document."""
        return {
            "stats": self.stats.as_dict(),
            "metrics": self.metrics.to_dict(),
            "operators": self.operator_profile(),
            "trace": self.tracer.to_dict(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the telemetry document as JSON."""
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=True, default=str)

    def __repr__(self) -> str:
        return f"<Telemetry spans={len(self.tracer.roots)}>"


def span_on(telemetry: Telemetry | None, name: str, **attributes):
    """A span on ``telemetry``, or the shared no-op for an untraced
    run (``None``): the one helper every engine span site goes
    through."""
    if telemetry is None:
        return NOOP_SPAN
    return telemetry.tracer.span(name, **attributes)
