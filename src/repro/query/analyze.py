"""``EXPLAIN ANALYZE``: the static plan annotated with what really ran.

:func:`explain_analyze` executes the query's plan traced, then renders
that same plan (:func:`repro.query.explain.explain`) with the
*actual* per-operator counts and wall times, followed by the full
operator/counter profile and the compressed-vs-decompressed split
that quantifies the paper's §5–6 claim (predicates run compressed,
decompression is deferred to serialization).

Plan-line annotations carry the run's aggregate for that operator
class: wall times from the run's spans
(:meth:`~repro.obs.telemetry.Telemetry.operator_profile`), counters
exactly the :class:`~repro.query.context.EvaluationStats` totals of
the same run (the telemetry holds the object ``QueryResult.stats``
is).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.telemetry import Telemetry
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


#: plan-line keyword -> (EvaluationStats counter, operator span name);
#: a projection counts nothing, and spans its lookups (a theta join its
#: probes): both are bound at prepare.
_LINE_METRICS = (
    ("ContAccess interval", "container_accesses", "ContAccess"),
    # Before "ContScan ": these lines name their scans.
    ("MergeJoin", "container_scans", "MergeJoin.build"),
    ("ColumnCompare", "container_scans", "ColumnCompare"),
    ("Projection ", None, "Projection"),
    ("ContScan ", "container_scans", "ContScan"),
    ("ContSubstring", "container_accesses", "ContSubstring"),
    ("ThetaJoin", "container_accesses", "ThetaJoin.probe"),
    ("StructureSummaryAccess", "summary_accesses",
     "StructureSummaryAccess"),
)


def explain_analyze(query, target, options=None) -> AnalyzeReport:
    """Run ``query`` against ``target`` and render plan + actuals.

    ``query`` is a query text, a parsed expression or the
    :class:`~repro.query.engine.PreparedPlan` its caller already holds
    (the session passes its cached one); anything else is planned
    once, and the plan that runs is the plan rendered.  ``target`` is
    a :class:`~repro.query.engine.QueryEngine` or a bare
    :class:`~repro.storage.repository.CompressedRepository`.  The query
    runs to full materialization, so the report includes the final
    Decompress step the paper defers to serialization.  ``options``
    (an :class:`~repro.query.options.ExecutionOptions`) carries the
    run's other knobs (bindings, cache switches); its ``telemetry`` is
    replaced by the report's own.
    """
    from dataclasses import replace

    from repro.query.engine import PreparedPlan, QueryEngine
    from repro.query.options import ExecutionOptions
    engine = target if isinstance(target, QueryEngine) \
        else QueryEngine(target)
    prepared = query if isinstance(query, PreparedPlan) \
        else engine.plan(query)
    telemetry = Telemetry()
    result = engine.execute(prepared, replace(
        options or ExecutionOptions(), telemetry=telemetry))
    items = result.items  # force the traced Decompress step
    text = _render(explain(prepared), result, telemetry, len(items))
    return AnalyzeReport(text, result, telemetry)


def _render(sketch: str, result, telemetry: Telemetry,
            item_count: int) -> str:
    profile = telemetry.operator_profile()
    wall_ns = profile.get("Execute", {}).get("total", 0)
    lines = [f"EXPLAIN ANALYZE  (wall {wall_ns} ns, "
             f"{item_count} items)"]
    for line in sketch.splitlines():
        lines.append(_annotate(line, result.stats, profile))
    lines.append("")
    lines.extend(_operator_table(profile))
    lines.append("")
    lines.extend(_counter_section(result.stats))
    lines.append("")
    lines.extend(_compression_section(result.stats))
    if telemetry.diagnostics:
        lines.append("")
        lines.extend(_diagnostics_section(telemetry))
    return "\n".join(lines)


def _diagnostics_section(telemetry: Telemetry) -> list[str]:
    out = ["-- plan diagnostics (static verifier) --"]
    for diagnostic in telemetry.diagnostics:
        out.append(diagnostic.format())
    return out


def _annotate(line: str, stats, profile: dict) -> str:
    for keyword, counter_name, span_name in _LINE_METRICS:
        if keyword in line:
            total_ns = profile.get(span_name, {}).get("total", 0)
            if counter_name is None:
                return f"{line}  [actual {total_ns} ns]"
            count = getattr(stats, counter_name)
            return (f"{line}  [actual {counter_name}={count}, "
                    f"{total_ns} ns]")
    return line


def _operator_table(profile: dict) -> list[str]:
    if not profile:
        return ["-- operators: none traced --"]
    headers = ("operator", "calls", "total_ns", "p50_ns", "p95_ns",
               "max_ns")
    rows = [[name] + [str(s[key]) for key in
                      ("count", "total", "p50", "p95", "max")]
            for name, s in profile.items()]
    return ["-- operators --"] + table(headers, rows)


def _counter_section(stats) -> list[str]:
    out = ["-- counters (== QueryResult.stats) --"]
    width = max(len(name) for name in stats.FIELDS)
    for name in stats.FIELDS:
        out.append(f"{name.ljust(width)}  {getattr(stats, name)}")
    return out


def _compression_section(stats) -> list[str]:
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
    out.append(f"decompressions: {stats.decompressions}")
    return out
