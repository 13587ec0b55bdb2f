"""Named counters, gauges and histograms: the three metric kinds.

A :class:`MetricsRegistry` is what a serving process (one per
:class:`~repro.service.session.Database` or shard coordinator) and a
*traced* query run (one per :class:`~repro.obs.telemetry.Telemetry`)
keep their books in.  :class:`Counter` only counts up, :class:`Gauge`
holds the latest value of a quantity that moves both ways, and
:class:`Histogram` is the one distribution kind, observed only by a
traced run: exact count / total / max and every sample, so its
p50/p95/p99 are exact nearest-rank percentiles.  A serving registry
holds counters and gauges only.

Thread safety: every mutation takes the metric's own lock and the
registry's get-or-create / snapshot paths take the registry lock, so a
registry shared across ``execute_many`` worker threads never loses an
increment.  All of these locks are leaves — nothing is called while
holding one.
"""

from __future__ import annotations

import threading


class Counter:
    """A named, monotonically adjustable integer cell.

    Reads of ``value`` are GIL-atomic and need no lock; increments go
    through :meth:`add`.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (counters only ever count *up*).

        A negative increment is always a caller bug — a counter that
        can go down silently corrupts every ratio derived from it — so
        it raises instead of clamping.  The increment is atomic, so
        concurrent adders on a shared registry never lose counts.
        """
        if n < 0:
            raise ValueError(
                f"counter {self.name!r}: negative increment {n} "
                "(counters are monotonic)")
        with self._lock:
            self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named, settable value — the latest reading of a quantity that
    can move both ways (resident bytes, threshold, worker pid).

    Unlike :class:`Counter` there is no monotonicity contract;
    :meth:`set` replaces and :meth:`add` adjusts in either direction.
    """

    __slots__ = ("name", "_value", "_lock")

    GUARDED_BY = {"_value": "_lock"}

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self._value = float(value)
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (negative allowed)."""
        with self._lock:
            self._value += delta

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


#: the percentiles :meth:`Histogram.summary` quotes.
PERCENTILES = (50.0, 95.0, 99.0)


class Histogram:
    """A named distribution, exact: count / total / max and every
    sample.

    Only a traced run's :class:`~repro.obs.telemetry.Telemetry`
    observes into one, and a run is bounded, so keeping each sample
    costs what the run's span count costs.  Percentiles are
    nearest-rank over all of them.
    """

    __slots__ = ("name", "_total", "_max", "_samples", "_lock")

    GUARDED_BY = {"_total": "_lock", "_max": "_lock",
                  "_samples": "_lock"}

    def __init__(self, name: str):
        self.name = name
        self._total = 0.0
        self._max = 0.0
        self._samples: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            if not self._samples or value > self._max:
                self._max = value
            self._total += value
            self._samples.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of every sample, ``p`` in [0, 100].

        Both an out-of-range ``p`` and an empty histogram raise: a
        fabricated 0.0 would read as "this operator was instant" in a
        report.  (:meth:`summary` stays total — it reports ``None``
        percentiles instead.)
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(
                f"histogram {self.name!r}: percentile {p!r} outside "
                "[0, 100]")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            raise ValueError(
                f"histogram {self.name!r} is empty: no observations "
                "to take a percentile of")
        return samples[round(p / 100.0 * (len(samples) - 1))]

    def summary(self) -> dict:
        """count/total/max/p50/p95/p99 (JSON-ready; ``None``
        percentiles while empty)."""
        with self._lock:
            samples = sorted(self._samples)
            out = {"count": len(samples), "total": self._total,
                   "max": self._max}
        last = len(samples) - 1
        for p in PERCENTILES:
            out[f"p{p:g}"] = (samples[round(p / 100.0 * last)]
                              if samples else None)
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges and
    histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock")

    GUARDED_BY = {"_counters": "_lock", "_gauges": "_lock",
                  "_histograms": "_lock"}

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created at 0 on first use."""
        cell = self._counters.get(name)  # lockfree-read (double-checked)
        if cell is None:
            with self._lock:
                cell = self._counters.get(name)
                if cell is None:
                    cell = Counter(name)
                    self._counters[name] = cell
        return cell

    def add(self, name: str, n: int = 1) -> None:
        """Increment the counter called ``name`` by ``n``."""
        self.counter(name).add(n)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created at 0.0 on first use."""
        cell = self._gauges.get(name)  # lockfree-read (double-checked)
        if cell is None:
            with self._lock:
                cell = self._gauges.get(name)
                if cell is None:
                    cell = Gauge(name)
                    self._gauges[name] = cell
        return cell

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge called ``name`` to ``value``."""
        self.gauge(name).set(value)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created empty on first use."""
        hist = self._histograms.get(name)  # lockfree-read (double-checked)
        if hist is None:
            with self._lock:
                hist = self._histograms.get(name)
                if hist is None:
                    hist = Histogram(name)
                    self._histograms[name] = hist
        return hist

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        self.histogram(name).observe(value)

    def counters(self) -> dict[str, int]:
        """All counter values, by name (zero-valued ones included)."""
        with self._lock:
            cells = sorted(self._counters.items())
        return {name: cell.value for name, cell in cells}

    def gauges(self) -> dict[str, float]:
        """All gauge values, by name."""
        with self._lock:
            cells = sorted(self._gauges.items())
        return {name: cell.value for name, cell in cells}

    def histograms(self) -> dict[str, dict]:
        """All histogram summaries, by name."""
        with self._lock:
            hists = sorted(self._histograms.items())
        return {name: hist.summary() for name, hist in hists}

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every metric."""
        return {"counters": self.counters(),
                "gauges": self.gauges(),
                "histograms": self.histograms()}

    def __repr__(self) -> str:
        return (f"<MetricsRegistry "
                f"{len(self._counters)} counters, "  # lockfree-read
                f"{len(self._histograms)} histograms>")  # lockfree-read
