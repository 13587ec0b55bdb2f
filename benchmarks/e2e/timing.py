"""Statistics of the ledger: percentiles, mix/geo, host scaling.

Pure functions over lists of numbers — no clock, no engine — so the
harness self-tests can pin the arithmetic on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics

#: a pass whose host factor exceeds this multiple of the run's
#: 10th-percentile factor is *disturbed* (scaling under-corrects there).
DISTURBED_GATE = 1.3
#: a percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_supported_percentile(n: int) -> int:
    """The highest whole percentile with ``SAMPLES_BEYOND`` samples
    beyond it (p90 needs 100 samples, p99 needs 1000); 0 when even the
    median has fewer than that on each side."""
    if n < 2 * SAMPLES_BEYOND:
        return 0
    return min(99, math.floor(100 * (1 - SAMPLES_BEYOND / n)))


def summarize(samples) -> dict:
    """Per-op summary: ``n``, p50, p90 when supported, else the
    highest percentile the sample does support."""
    n = len(samples)
    out = {"n": n, "p50": percentile(samples, 50)}
    top = highest_supported_percentile(n)
    out["p90"] = percentile(samples, 90) if top >= 90 else None
    out["highest_percentile"] = top
    if 50 < top < 90:
        out[f"p{top}"] = percentile(samples, top)
    return out


def mix_ms(p50s) -> float:
    """What one pass through the mix costs: long ops dominate."""
    return math.fsum(p50s)


def geo_ms(p50s) -> float:
    """Geometric mean of per-op medians: every op counts equally."""
    return math.exp(math.fsum(math.log(v) for v in p50s) / len(p50s))


def host_factor(ref_before: float, ref_after: float,
                nominal: float) -> float:
    """How much slower than nominal the host ran around an interval."""
    return (ref_before + ref_after) / 2.0 / nominal


def disturbed(factors) -> list[bool]:
    """Which passes fail the gate against the run's own quiet level."""
    if not factors:
        return []
    quiet = percentile(factors, 10)
    return [f > DISTURBED_GATE * quiet for f in factors]


def tail_ratio(samples_by_op: dict) -> float:
    """Median over ops of (tail percentile / p50); the tail is p90
    where the sample supports it, else the highest supported."""
    ratios = []
    for samples in samples_by_op.values():
        top = min(90, highest_supported_percentile(len(samples)))
        if top > 50:
            ratios.append(percentile(samples, top)
                          / percentile(samples, 50))
    return statistics.median(ratios) if ratios else 1.0
