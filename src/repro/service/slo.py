"""Serving SLOs: per-query-class latency distributions + cache gauges.

The Session layer serves heterogeneous queries; one global latency
histogram hides a slow join behind a million fast point lookups.  Every
:meth:`Session.execute <repro.service.session.Session.execute>` (and
each ``execute_many`` worker) therefore observes its end-to-end wall
time into a per-**query-class** histogram —
``slo.latency_ns.<class>`` on the session's shared registry — where
the class is derived from the prepared plan's AST shape:

``point``      FLWOR with an equality-only where clause (the paper's
               Fig. 7 Q1 shape — index/point lookups);
``scan``       FLWOR whose where clause compares with ``<``/``>``/
               wildcards, or path expressions with positional or value
               predicates (range/scan-heavy);
``join``       FLWOR with more than one ``for`` binding (structural
               or value joins);
``path``       bare path expressions (navigation only);
``construct``  element constructors at the top level;
``other``      everything else.

:func:`latency_rows` turns those histograms' summaries into per-class
millisecond rows and :func:`cache_rates` turns the ``cache.*`` counters
into hit rates; every view of the serving plane — :func:`slo_report`
(``repro perf report``), ``repro top`` in both modes and the
``/metrics`` endpoint's derived gauges — reads through these two, from
a live registry or from a scrape of one, so they agree.
:func:`slo_report` also checks a list of :class:`LatencyObjective`
targets against the rows, the serving layer's analogue of the
benchmark regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.export import split_shard_name
from repro.obs.metrics import PERCENTILES, WINDOW_SECONDS, MetricsRegistry
from repro.query import ast as qast
from repro.util.clock import NS_PER_S
from repro.util.text import table

#: histogram name prefix for per-class serving latencies (ns values).
LATENCY_PREFIX = "slo.latency_ns."

#: every class :func:`classify_query` can produce.
QUERY_CLASSES = ("point", "scan", "join", "path", "construct",
                 "other")

#: nanoseconds per millisecond, for reporting conversions.
_NS_PER_MS = NS_PER_S / 1000.0


def classify_query(expression) -> str:
    """The query class a prepared plan's latency is filed under."""
    if isinstance(expression, qast.FLWOR):
        for_bindings = sum(isinstance(clause, qast.ForClause)
                           for clause in expression.clauses)
        if for_bindings > 1:
            return "join"
        kinds = _predicate_operators(expression.where)
        if kinds and kinds <= {"="}:
            return "point"
        if kinds or expression.where is not None:
            return "scan"
        return "path"
    if isinstance(expression, qast.PathExpr):
        if any(step.predicates for step in expression.steps):
            return "scan"
        return "path"
    if isinstance(expression, qast.ElementConstructor):
        return "construct"
    return "other"


def _predicate_operators(expression) -> set[str]:
    """All comparison operators appearing under a where clause."""
    if expression is None:
        return set()
    out: set[str] = set()
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, qast.Comparison):
            out.add(node.op)
        elif isinstance(node, qast.Logical):
            stack.extend((node.left, node.right))
        elif isinstance(node, qast.FunctionCall):
            # starts-with/contains etc. are wildcard-shaped work.
            out.add(node.name)
    return out


def observe_latency(metrics: MetricsRegistry, query_class: str,
                    wall_ns: int) -> None:
    """File one serving latency under its query class."""
    metrics.observe(LATENCY_PREFIX + query_class, wall_ns)
    metrics.add(f"slo.served.{query_class}")


@dataclass(frozen=True)
class LatencyObjective:
    """One target: percentile of a class must stay under a bound."""

    query_class: str
    percentile: float
    target_ms: float

    @classmethod
    def parse(cls, spec: str) -> "LatencyObjective":
        """Parse and validate ``CLASS:pNN:MILLIS`` (``point:p95:5``).

        A malformed spec constructs an objective that can never be
        meaningfully checked — a ``p0`` or ``p101`` percentile, a
        zero/negative millisecond bound, a class no query is ever
        filed under — so each part is validated here with an error
        naming what is wrong, instead of silently reporting the
        objective as unmet forever.
        """
        parts = spec.split(":")
        if len(parts) != 3 or not parts[1].lower().startswith("p"):
            raise ValueError(
                f"SLO spec {spec!r} is not CLASS:pNN:MILLIS "
                "(e.g. point:p95:5)")
        query_class, percentile_text, target_text = parts
        if query_class not in QUERY_CLASSES:
            raise ValueError(
                f"SLO spec {spec!r}: unknown query class "
                f"{query_class!r} (expected one of "
                f"{', '.join(QUERY_CLASSES)})")
        try:
            percentile = float(percentile_text[1:])
        except ValueError:
            raise ValueError(
                f"SLO spec {spec!r}: {percentile_text!r} is not a "
                "percentile (e.g. p95)") from None
        if not 0.0 < percentile <= 100.0:
            raise ValueError(
                f"SLO spec {spec!r}: percentile "
                f"p{percentile:g} outside (0, 100]")
        try:
            target_ms = float(target_text)
        except ValueError:
            raise ValueError(
                f"SLO spec {spec!r}: {target_text!r} is not a "
                "millisecond bound") from None
        if target_ms <= 0.0:
            raise ValueError(
                f"SLO spec {spec!r}: millisecond bound must be "
                f"positive, got {target_ms:g}")
        return cls(query_class=query_class, percentile=percentile,
                   target_ms=target_ms)


def latency_rows(histograms: dict[str, dict]) -> dict[str, dict]:
    """Per-class millisecond rows from histogram summaries.

    ``histograms`` is :meth:`MetricsRegistry.histograms` or the
    ``histograms`` section of a parsed scrape of it.  ``count`` and
    ``max_ms`` are lifetime; ``qps`` and the percentiles cover the
    rolling window (``None`` when it holds no observation).
    """
    rows: dict[str, dict] = {}
    for name, summary in sorted(histograms.items()):
        if not name.startswith(LATENCY_PREFIX):
            continue
        row = {"count": int(summary["count"]),
               "qps": summary["rate_per_s"]}
        for p in PERCENTILES:
            value = summary.get(f"p{p:g}")
            row[f"p{p:g}_ms"] = (value / _NS_PER_MS
                                 if value is not None else None)
        row["max_ms"] = summary["max"] / _NS_PER_MS
        rows[name[len(LATENCY_PREFIX):]] = row
    return rows


def cache_rates(counters: dict[str, int]) -> dict[str, dict]:
    """Plan/block-cache hit rates from ``cache.*`` counters.

    A shard coordinator holds its workers' counters as
    ``shard.<i>.cache.*``; those are summed, so the plane reports one
    rate per cache.
    """
    totals = dict.fromkeys(
        (f"cache.{cache}.{kind}" for cache in ("plan", "block")
         for kind in ("hit", "miss")), 0)
    for name, value in counters.items():
        base = split_shard_name(name)[0]
        if base in totals:
            totals[base] += value
    rates: dict[str, dict] = {}
    for cache in ("plan", "block"):
        hits = totals[f"cache.{cache}.hit"]
        misses = totals[f"cache.{cache}.miss"]
        rates[cache] = {
            "hit": hits,
            "miss": misses,
            "hit_rate": hits / (hits + misses)
            if hits + misses else None,
        }
    return rates


def slo_report(metrics: MetricsRegistry,
               objectives: list[LatencyObjective] | None = None
               ) -> dict:
    """The serving-SLO document: latencies, hit rates, objective
    checks.

    Latency quantiles are reported in milliseconds (measurements are
    nanoseconds on the monotonic clock); ``objectives`` entries are
    checked against the matching class percentile — an objective over
    a class with no observations in the window is reported as
    unmet-by-absence (``actual_ms: None, ok: False``) rather than
    silently passing.
    """
    classes = latency_rows(metrics.histograms())
    checks = []
    for objective in objectives or []:
        row = classes.get(objective.query_class, {})
        actual = row.get(f"p{objective.percentile:g}_ms")
        if actual is None and row:
            # a percentile the rows do not quote (p90, p99.9)
            try:
                actual = metrics.histogram(
                    LATENCY_PREFIX + objective.query_class
                ).percentile(objective.percentile) / _NS_PER_MS
            except ValueError:
                pass  # nothing in the window
        checks.append({
            "class": objective.query_class,
            "percentile": objective.percentile,
            "target_ms": objective.target_ms,
            "actual_ms": actual,
            "ok": actual is not None
            and actual <= objective.target_ms,
        })
    return {
        "classes": classes,
        "qps": sum(row["qps"] for row in classes.values()),
        "caches": cache_rates(metrics.counters()),
        "objectives": checks,
    }


def render_class_table(classes: dict[str, dict]) -> list[str]:
    """The per-class latency rows as aligned monospace lines."""
    headers = ["class", "count", "qps"] + \
        [f"p{p:g}_ms" for p in PERCENTILES] + ["max_ms"]
    rows = []
    for name, row in classes.items():
        cells = [name, str(row["count"]), f"{row['qps']:.2f}"]
        for p in PERCENTILES:
            value = row[f"p{p:g}_ms"]
            cells.append("n/a" if value is None else f"{value:.3f}")
        cells.append(f"{row['max_ms']:.3f}")
        rows.append(cells)
    return table(headers, rows)


def render_slo_report(report: dict) -> str:
    """The SLO document as aligned monospace text."""
    out = ["-- serving latency by query class --"]
    if not report["classes"]:
        out.append("no latencies recorded")
    else:
        out.append(f"QPS {report['qps']:.2f}; qps and percentiles "
                   f"over the rolling window (last "
                   f"{WINDOW_SECONDS:g} s)")
        out.extend(render_class_table(report["classes"]))
    out.append("")
    out.append("-- cache hit rates --")
    for cache, gauge in report["caches"].items():
        rate = gauge["hit_rate"]
        out.append(f"{cache}: {gauge['hit']} hits / "
                   f"{gauge['miss']} misses "
                   f"({'n/a' if rate is None else f'{rate:.1%}'})")
    if report["objectives"]:
        out.append("")
        out.append("-- latency objectives --")
        for check in report["objectives"]:
            actual = check["actual_ms"]
            verdict = "OK" if check["ok"] else "VIOLATED"
            out.append(
                f"{check['class']} p{check['percentile']:g} "
                f"<= {check['target_ms']:g} ms: "
                f"{'no observations' if actual is None else f'{actual:.3f} ms'}"
                f" [{verdict}]")
    return "\n".join(out)
