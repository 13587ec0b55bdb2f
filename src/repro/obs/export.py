"""Prometheus text exposition of a :class:`MetricsRegistry`.

The serving plane's export surface: every counter and gauge in a
registry rendered in the Prometheus text exposition format (version
0.0.4), served by
:class:`repro.service.telemetry_http.TelemetryServer` at ``/metrics``.

The repo's metric names are dotted (``cache.plan.hit``,
``slowlog.threshold_ms``); rather than mangling each into a bespoke
Prometheus name, the renderer exposes two *generic metric families*
carrying the original name as a label:

* ``repro_counter{name="cache.plan.hit"} 12``
* ``repro_gauge{name="slowlog.threshold_ms"} 100.0``

Per-shard metrics from the sharded serving plane arrive in the
registry as ``shard.<i>.<name>`` (the coordinator's fold — see
:meth:`repro.service.shards.ShardedDatabase.gather_metrics`); the
renderer lifts the shard ordinal into its own label so one family
carries every shard::

* ``repro_counter{name="session.executions",shard="0"} 41``
"""

from __future__ import annotations

import re

from repro.obs.metrics import MetricsRegistry

#: the content type ``/metrics`` responses declare.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


#: coordinator-folded per-shard metric names: ``shard.<i>.<name>``.
_SHARD_NAME = re.compile(r"^shard\.(\d+)\.(.+)$")


def _name_labels(name: str) -> str:
    """The label set for one dotted metric name: ``shard.<i>.<rest>``
    becomes ``name="<rest>",shard="<i>"``.  (``shard.id``/``shard.pid``
    have no inner name and stay whole.)"""
    match = _SHARD_NAME.match(name)
    if match is None:
        return f'name="{_escape_label(name)}"'
    return (f'name="{_escape_label(match.group(2))}",'
            f'shard="{match.group(1)}"')


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
    """The registry's counters and gauges as Prometheus text
    exposition (version 0.0.4).

    ``extra_gauges`` lets the HTTP layer add derived values (uptime)
    without writing them into the registry first.
    """
    lines = ["# TYPE repro_counter counter"]
    for name, value in metrics.counters().items():
        lines.append(f"repro_counter{{{_name_labels(name)}}} "
                     f"{_fmt(value)}")
    gauges = dict(metrics.gauges())
    if extra_gauges:
        gauges.update(extra_gauges)
    lines.append("# TYPE repro_gauge gauge")
    for name in sorted(gauges):
        lines.append(f"repro_gauge{{{_name_labels(name)}}} "
                     f"{_fmt(gauges[name])}")
    return "\n".join(lines) + "\n"
