"""Prometheus text exposition of a :class:`MetricsRegistry`.

The serving telemetry plane's export surface: every counter, gauge
and histogram in a registry rendered in the Prometheus text
exposition format (version 0.0.4), served by
:class:`repro.service.telemetry_http.TelemetryServer` at ``/metrics``
and scraped back by ``repro top``.

The repo's metric names are dotted (``cache.plan.hit``,
``slo.latency_ns.point``); rather than mangling each into a bespoke
Prometheus name, the renderer exposes a small set of *generic metric
families* carrying the original name as a label:

* ``repro_counter{name="cache.plan.hit"} 12``
* ``repro_gauge{name="slowlog.threshold_ms"} 100.0``
* ``repro_histogram_count/_sum/_max/_rate_per_s{name="span.Execute"}``
  and ``repro_histogram{name=...,quantile="p50|p95|p99"}`` (lifetime
  count / sum / max; rate and quantiles over the rolling window)

Per-shard metrics from the sharded serving plane arrive in the
registry as ``shard.<i>.<name>`` (the coordinator's fold — see
:meth:`repro.service.shards.ShardedDatabase.gather_metrics`); the
renderer lifts the shard ordinal into its own label so one family
carries every shard::

* ``repro_counter{name="session.executions",shard="0"} 41``

This keeps the mapping lossless and mechanical in both directions:
:func:`parse_prometheus` reconstructs
``{counters, gauges, histograms}`` dictionaries from the text (shard
labels folded back into the dotted ``shard.<i>.`` form),
so a scraper sees exactly what an in-process reader sees.
"""

from __future__ import annotations

import re

from repro.obs.metrics import PERCENTILES, MetricsRegistry

#: the content type ``/metrics`` responses declare.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``repro_histogram_<family>`` -> :meth:`Histogram.summary` key.
_HISTOGRAM_FAMILIES = {"count": "count", "sum": "total", "max": "max",
                       "rate_per_s": "rate_per_s"}

#: ``quantile=`` labels of the ``repro_histogram`` family.
_QUANTILES = tuple(f"p{p:g}" for p in PERCENTILES)


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _unescape_label(value: str) -> str:
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
    return "".join(out)


#: coordinator-folded per-shard metric names: ``shard.<i>.<name>``.
_SHARD_NAME = re.compile(r"^shard\.(\d+)\.(.+)$")


def split_shard_name(name: str) -> tuple[str, str | None]:
    """``shard.<i>.<rest>`` -> ``(rest, "<i>")``; others ``(name,
    None)``.  (``shard.id``/``shard.pid`` have no inner name and stay
    whole.)"""
    match = _SHARD_NAME.match(name)
    if match is None:
        return name, None
    return match.group(2), match.group(1)


def _name_labels(name: str) -> str:
    """The label set for one dotted metric name (shard lifted out)."""
    base, shard = split_shard_name(name)
    labels = f'name="{_escape_label(base)}"'
    if shard is not None:
        labels += f',shard="{shard}"'
    return labels


def _fmt(value: float) -> str:
    """A float rendered without noise (integers stay integral)."""
    if value != value:  # NaN
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(metrics: MetricsRegistry,
                      extra_gauges: dict[str, float] | None = None
                      ) -> str:
    """The registry as Prometheus text exposition (version 0.0.4).

    ``extra_gauges`` lets the HTTP layer add derived values (uptime,
    cache hit ratios) without writing them into the registry first.
    """
    lines: list[str] = []

    counters = metrics.counters()
    lines.append("# TYPE repro_counter counter")
    for name, value in counters.items():
        lines.append(f'repro_counter{{{_name_labels(name)}}} '
                     f"{_fmt(value)}")

    gauges = dict(metrics.gauges())
    if extra_gauges:
        gauges.update(extra_gauges)
    lines.append("# TYPE repro_gauge gauge")
    for name in sorted(gauges):
        lines.append(f'repro_gauge{{{_name_labels(name)}}} '
                     f"{_fmt(gauges[name])}")

    histograms = metrics.histograms()
    for family, key in _HISTOGRAM_FAMILIES.items():
        lines.append(f"# TYPE repro_histogram_{family} gauge")
        for name, summary in histograms.items():
            lines.append(
                f'repro_histogram_{family}'
                f'{{{_name_labels(name)}}} '
                f"{_fmt(summary[key])}")
    lines.append("# TYPE repro_histogram summary")
    for name, summary in histograms.items():
        for quantile in _QUANTILES:
            if summary[quantile] is not None:
                lines.append(
                    f'repro_histogram{{{_name_labels(name)},'
                    f'quantile="{quantile}"}} '
                    f"{_fmt(summary[quantile])}")
    return "\n".join(lines) + "\n"


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.find("=", i)
        if eq < 0:
            break
        key = text[i:eq].strip().lstrip(",").strip()
        # value is a quoted string; find its unescaped closing quote.
        j = eq + 2
        while j < len(text):
            if text[j] == "\\":
                j += 2
                continue
            if text[j] == '"':
                break
            j += 1
        labels[key] = _unescape_label(text[eq + 2:j])
        i = j + 1
    return labels


def parse_prometheus(text: str) -> dict:
    """Reconstruct registry-shaped dictionaries from exposition text.

    Returns ``{"counters": {name: value}, "gauges": {...},
    "histograms": {name: {count,total,max,rate_per_s,p50,p95,p99}}}``
    (a quantile the window could not answer is absent).  Lines from
    foreign metric families are ignored, so the parser survives a
    ``/metrics`` page that grows new families.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        brace = line.find("{")
        close = line.rfind("}")
        if brace < 0 or close < brace:
            continue
        family = line[:brace]
        labels = _parse_labels(line[brace + 1:close])
        name = labels.get("name")
        if name is None:
            continue
        shard = labels.get("shard")
        if shard is not None:
            name = f"shard.{shard}.{name}"
        try:
            value = float(line[close + 1:].strip())
        except ValueError:
            continue
        if family == "repro_counter":
            out["counters"][name] = int(value)
        elif family == "repro_gauge":
            out["gauges"][name] = value
        elif family == "repro_histogram":
            quantile = labels.get("quantile")
            if quantile in _QUANTILES:
                out["histograms"].setdefault(name, {})[quantile] = value
        elif family.startswith("repro_histogram_"):
            key = _HISTOGRAM_FAMILIES.get(
                family[len("repro_histogram_"):])
            if key:
                out["histograms"].setdefault(name, {})[key] = value
    return out
