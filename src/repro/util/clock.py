"""The one monotonic clock every measurement layer shares.

Spans (:mod:`repro.obs.tracer`), workload records
(:mod:`repro.obs.workload`), rolling-window metrics
(:mod:`repro.obs.metrics`) and the serving layer's latency, slow-log
and SLO accounting (:mod:`repro.service`) all time things in **integer
nanoseconds on the same monotonic clock** and convert to seconds only
at the reporting edge.
"""

from __future__ import annotations

from time import perf_counter_ns

#: nanoseconds per second, for conversions at the reporting edge.
NS_PER_S = 1_000_000_000


def now_ns() -> int:
    """The monotonic clock, in integer nanoseconds."""
    return perf_counter_ns()


def elapsed_ns(start_ns: int) -> int:
    """Nanoseconds elapsed since a ``now_ns()`` reading."""
    return perf_counter_ns() - start_ns
