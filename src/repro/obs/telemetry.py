"""One query run's worth of observability: tracer + metrics + export.

A :class:`Telemetry` bundles the tracer and the metrics registry the
engine uses for one execution.  Span durations are mirrored into
``span.<name>`` histograms as spans close, so per-operator p50/p95/max
come for free.  ``to_json()`` is the machine-readable operator profile
attached to benchmark results and emitted by ``repro trace``.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class Telemetry:
    """Tracer + metrics registry for one engine run."""

    __slots__ = ("enabled", "tracer", "metrics", "diagnostics")

    def __init__(self, enabled: bool = True,
                 metrics: MetricsRegistry | None = None):
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry()
        self.tracer = Tracer(enabled=enabled, on_end=self._span_ended)
        #: non-fatal plan-verifier findings of the run
        #: (:class:`repro.lint.PlanDiagnostic` objects).
        self.diagnostics: list = []

    def _span_ended(self, span) -> None:
        self.metrics.observe(f"span.{span.name}", span.duration_ns)

    def span(self, name: str, **attributes):
        """Open a span (no-op when disabled)."""
        return self.tracer.span(name, **attributes)

    def operator_profile(self) -> dict[str, dict]:
        """Per-operator {count, total_ns, p50, p95, max} from the
        ``span.*`` histograms (names without the prefix).

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
            "enabled": self.enabled,
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
        state = "enabled" if self.enabled else "disabled"
        return f"<Telemetry {state}>"
