"""``EXPLAIN ANALYZE``: the static plan annotated with what really ran.

:func:`explain_analyze` executes the query traced, then re-renders
the :func:`repro.query.explain.explain` sketch with the
*actual* per-operator counts and wall times, followed by the full
operator/counter profile and the compressed-vs-decompressed ratios
that quantify the paper's §5–6 claim (predicates run compressed,
decompression is deferred to serialization).

Plan-line annotations carry the run's aggregate for that operator
class — the counters shown are exactly the
:class:`~repro.query.context.EvaluationStats` totals of the same run
(the telemetry holds the object ``QueryResult.stats`` is).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import runtime
from repro.obs.telemetry import Telemetry
from repro.query.ast import Expression
from repro.query.explain import explain
from repro.util.text import table


@dataclass
class AnalyzeReport:
    """The rendered report plus the run it describes."""

    text: str
    result: "QueryResult"
    telemetry: Telemetry

    def to_json(self, indent: int | None = None) -> str:
        """The run's telemetry document as JSON."""
        return self.telemetry.to_json(indent=indent)

    def __str__(self) -> str:
        return self.text


#: plan-line keyword -> (EvaluationStats counter, span histogram name).
_LINE_METRICS = (
    ("ContAccess interval", "container_accesses", "span.ContAccess"),
    # Before "ContScan ": a merge join's line names its scans.
    ("MergeJoin", "container_scans", "span.MergeJoin.build"),
    ("ContScan ", "container_scans", "span.ContScan"),
    ("ContSubstring", "container_accesses", "span.ContSubstring"),
    ("ThetaJoin", "container_accesses", "span.ThetaJoin.build"),
    ("StructureSummaryAccess", "summary_accesses",
     "span.StructureSummaryAccess"),
)


def explain_analyze(query: str | Expression, target,
                    options=None) -> AnalyzeReport:
    """Run ``query`` against ``target`` and render plan + actuals.

    ``target`` is a :class:`~repro.query.engine.QueryEngine` or a bare
    :class:`~repro.storage.repository.CompressedRepository`.  The query
    runs to full materialization, so the report includes the final
    Decompress step the paper defers to serialization.  ``options``
    (an :class:`~repro.query.options.ExecutionOptions`) carries the
    run's other knobs (bindings, cache switches); its ``telemetry`` is
    replaced by the report's own.
    """
    from dataclasses import replace

    from repro.query.engine import QueryEngine
    from repro.query.options import ExecutionOptions
    engine = target if isinstance(target, QueryEngine) \
        else QueryEngine(target)
    telemetry = Telemetry()
    options = options if options is not None else ExecutionOptions()
    options = replace(options, telemetry=telemetry)
    with runtime.activated(telemetry):
        result = engine.execute(query, options)
        items = result.items  # force the Decompress step under telemetry
    sketch = explain(query)
    text = _render(sketch, result, telemetry, len(items), engine)
    return AnalyzeReport(text, result, telemetry)


def _render(sketch: str, result, telemetry: Telemetry,
            item_count: int, engine=None) -> str:
    metrics = telemetry.metrics
    # A summaries snapshot, so lookups never create empty histograms.
    histograms = metrics.histograms()
    wall_ns = int(histograms.get("span.Execute", {}).get("total", 0))
    lines = [f"EXPLAIN ANALYZE  (wall {wall_ns} ns, "
             f"{item_count} items)"]
    for line in sketch.splitlines():
        lines.append(_annotate(line, result.stats, histograms))
    lines.append("")
    lines.extend(_operator_table(telemetry))
    lines.append("")
    lines.extend(_counter_section(result.stats))
    lines.append("")
    lines.extend(_compression_section(result.stats, metrics))
    if telemetry.diagnostics:
        lines.append("")
        lines.extend(_diagnostics_section(telemetry))
    drift = _workload_drift_section(engine)
    if drift:
        lines.append("")
        lines.extend(drift)
    return "\n".join(lines)


def _workload_drift_section(engine) -> list[str]:
    """Observatory summary, when the engine records its workload.

    Folds the engine's journal (including the run just analyzed)
    through the advisor and condenses the verdict: how far the live
    configuration has drifted from what the observed workload wants,
    and the top recompression moves.
    """
    recorder = getattr(engine, "recorder", None)
    if recorder is None or not recorder.enabled:
        return []
    from repro.advisor import analyze_drift
    report = analyze_drift(engine.repository,
                           recorder.journal.records())
    out = ["-- workload drift (observatory) --"]
    out.append(f"journal records: {report.record_count} "
               f"({sum(report.predicate_totals.values())} observed "
               "predicates)")
    if report.live_breakdown:
        out.append(f"cost: live {report.live_breakdown['total']:.1f} "
                   f"vs recommended "
                   f"{report.recommended_breakdown['total']:.1f} "
                   f"(drift {report.drift_total:.1f})")
    if report.recommendations:
        for rec in report.recommendations[:3]:
            out.append(f"recompress {rec.path}: {rec.current} -> "
                       f"{rec.recommended} "
                       f"(est. saving {rec.saving_total:.1f})")
    else:
        out.append("no recompression recommended")
    return out


def _diagnostics_section(telemetry: Telemetry) -> list[str]:
    out = ["-- plan diagnostics (static verifier) --"]
    for diagnostic in telemetry.diagnostics:
        out.append(diagnostic.format())
    return out


def _annotate(line: str, stats, histograms: dict) -> str:
    for keyword, counter_name, span_name in _LINE_METRICS:
        if keyword in line:
            count = getattr(stats, counter_name)
            total_ns = int(histograms.get(span_name,
                                          {}).get("total", 0))
            return (f"{line}  [actual {counter_name}={count}, "
                    f"{total_ns} ns]")
    return line


def _operator_table(telemetry: Telemetry) -> list[str]:
    profile = telemetry.operator_profile()
    if not profile:
        return ["-- operators: none traced --"]
    headers = ("operator", "calls", "total_ns", "p50_ns", "p95_ns",
               "max_ns")
    # a percentile is None once its spans left the rolling window
    rows = [[name, str(s["count"]), str(int(s["total"]))]
            + ["n/a" if s[p] is None else str(int(s[p]))
               for p in ("p50", "p95")] + [str(int(s["max"]))]
            for name, s in sorted(profile.items())]
    return ["-- operators --"] + table(headers, rows)


def _counter_section(stats) -> list[str]:
    out = ["-- counters (== QueryResult.stats) --"]
    width = max(len(name) for name in stats.FIELDS)
    for name in stats.FIELDS:
        out.append(f"{name.ljust(width)}  {getattr(stats, name)}")
    return out


def _compression_section(stats, metrics) -> list[str]:
    out = ["-- compressed vs decompressed --"]
    comparisons = stats.compressed_comparisons \
        + stats.decompressed_comparisons
    if comparisons:
        share = 100.0 * stats.compressed_comparisons / comparisons
        out.append(f"comparisons: {stats.compressed_comparisons} "
                   f"compressed / {stats.decompressed_comparisons} "
                   f"decompressed ({share:.1f}% stayed compressed)")
    else:
        out.append("comparisons: none")
    counters = metrics.counters()
    codec_names = sorted({name.split(".")[1] for name in counters
                          if name.startswith("codec.")})
    for codec in codec_names:
        for op in ("encode", "decode"):
            calls = counters.get(f"codec.{codec}.{op}.calls", 0)
            if not calls:
                continue
            packed = counters.get(
                f"codec.{codec}.{op}.compressed_bytes", 0)
            plain = counters.get(f"codec.{codec}.{op}.plain_chars", 0)
            ratio = f"{packed / plain:.2f}" if plain else "n/a"
            out.append(f"codec {codec}: {op} {calls} calls, "
                       f"{packed} B compressed <-> {plain} chars "
                       f"(ratio {ratio})")
    if len(out) == 2 and not codec_names:
        out.append("codecs: no encode/decode activity recorded")
    return out
