"""One traced query run's worth of observability.

A :class:`Telemetry` exists only for a run someone asked to trace
(``ExecutionOptions(telemetry=Telemetry())``); an untraced run has
none.  It is the run record: the tracer's spans, the run's
:class:`~repro.query.context.EvaluationStats` — the same object
``QueryResult.stats`` is, so every view of the run quotes the same
eight counters — and the plan verifier's findings.  Every physical
operator stream is one span carrying its ``rows`` and ``batches``, so
:meth:`Telemetry.operator_profile` (per-operator count, total, max and
exact nearest-rank p50/p95/p99) is read off the spans; EXPLAIN
ANALYZE, the slow-log exemplar and ``repro trace`` all quote it.
``to_json()`` is the machine-readable document emitted by ``repro
trace``.
"""

from __future__ import annotations

import json

from repro.obs.tracer import NOOP_SPAN, Tracer


class Telemetry:
    """Spans + evaluation counters + plan diagnostics of a traced
    run."""

    __slots__ = ("tracer", "stats", "diagnostics")

    def __init__(self):
        # imported here: the query package imports this module.
        from repro.query.context import EvaluationStats
        self.tracer = Tracer()
        #: the evaluation counters of the run(s) recorded here; the
        #: engine counts into it and hands it out as the result's.
        self.stats = EvaluationStats()
        #: non-fatal plan-verifier findings of the run
        #: (:class:`repro.lint.PlanDiagnostic` objects).
        self.diagnostics: list = []

    def span(self, name: str, **attributes):
        """Open a span."""
        return self.tracer.span(name, **attributes)

    def operator_profile(self) -> dict[str, dict]:
        """The finished spans grouped by name: count, total, max and
        nearest-rank p50/p95/p99 of their durations (ns), and their
        summed ``rows`` and ``batches`` attributes.

        Keyed in sorted name order, independent of span-open order, so
        exported documents are stable across runs of the same plan.
        """
        groups: dict[str, list] = {}
        for root in self.tracer.roots:
            for span in root.walk():
                if span.end_ns:
                    groups.setdefault(span.name, []).append(span)
        return {name: _summary(groups[name]) for name in sorted(groups)}

    def to_dict(self) -> dict:
        """The full JSON-ready telemetry document."""
        return {
            "stats": self.stats.as_dict(),
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


def _summary(spans: list) -> dict:
    """One operator's row of :meth:`Telemetry.operator_profile`."""
    durations = sorted(span.duration_ns for span in spans)
    last = len(durations) - 1
    out = {"count": len(durations), "total": sum(durations),
           "max": durations[-1]}
    for p in (50, 95, 99):
        out[f"p{p}"] = durations[round(p / 100.0 * last)]
    for key in ("rows", "batches"):
        out[key] = sum(span.attributes.get(key, 0) for span in spans)
    return out


def span_on(telemetry: Telemetry | None, name: str, **attributes):
    """A span on ``telemetry``, or the shared no-op for an untraced
    run (``None``): the one helper every engine span site goes
    through."""
    if telemetry is None:
        return NOOP_SPAN
    return telemetry.tracer.span(name, **attributes)
