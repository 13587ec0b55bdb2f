"""Named counters, gauges and histograms: the three metric kinds.

A :class:`MetricsRegistry` is what a serving process (one per
:class:`~repro.service.session.Database` or shard coordinator) and a
*traced* query run (one per :class:`~repro.obs.telemetry.Telemetry`)
keep their books in.  :class:`Counter` only counts up, :class:`Gauge`
holds the latest value of a quantity that moves both ways, and
:class:`Histogram` is the one distribution kind: exact lifetime
count / total / max plus a fixed-memory ring of time buckets over the
monotonic clock, so a long-running process reports *recent*
p50/p95/p99 and rate-per-second without growing.

Thread safety: every mutation takes the metric's own lock and the
registry's get-or-create / snapshot paths take the registry lock, so a
registry shared across ``execute_many`` worker threads never loses an
increment.  All of these locks are leaves — nothing is called while
holding one.
"""

from __future__ import annotations

import random
import threading
import zlib

from repro.util.clock import NS_PER_S, now_ns


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
    can move both ways (resident bytes, hit rate, threshold).

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


#: histogram window: one minute of 5 s buckets.
WINDOW_SECONDS = 60.0
WINDOW_BUCKETS = 12

#: retained samples per window bucket (memory bound per histogram:
#: buckets * cap floats).
WINDOW_BUCKET_SAMPLE_CAP = 256

#: the percentiles :meth:`Histogram.summary` quotes.
PERCENTILES = (50.0, 95.0, 99.0)


class _Bucket:
    """One time bucket of a :class:`Histogram` (no locking — the
    owning histogram guards it)."""

    __slots__ = ("epoch", "count", "samples")

    def __init__(self):
        self.epoch = -1
        self.count = 0
        self.samples: list[float] = []


class Histogram:
    """A named distribution: exact lifetime scalars + a rolling window.

    ``count`` / ``total`` / ``max`` are exact over every observation
    ever made.  Percentiles and the rate come from a ring of
    ``buckets`` time buckets, each ``window_s / buckets`` seconds wide;
    a bucket is recycled in place when its ring slot comes around
    again, so memory never exceeds ``buckets * bucket_sample_cap``
    retained floats however long the process serves.  A bucket keeps
    its first ``bucket_sample_cap`` observations verbatim and a
    uniform reservoir (Vitter's algorithm R) beyond that, seeded from
    a CRC of the metric name — not ``hash()``, which
    ``PYTHONHASHSEED`` randomises per process — so two processes fed
    the same stream report the same percentiles.

    ``clock`` is injectable (monotonic nanoseconds) for tests; the
    default is :func:`repro.util.clock.now_ns`, the clock every other
    measurement layer uses.
    """

    __slots__ = ("name", "window_ns", "bucket_ns", "buckets",
                 "bucket_sample_cap", "_count", "_total", "_max",
                 "_ring", "_rng", "_clock", "_lock")

    GUARDED_BY = {"_count": "_lock", "_total": "_lock",
                  "_max": "_lock", "_ring": "_lock"}

    def __init__(self, name: str, window_s: float = WINDOW_SECONDS,
                 buckets: int = WINDOW_BUCKETS,
                 bucket_sample_cap: int = WINDOW_BUCKET_SAMPLE_CAP,
                 clock=None):
        if window_s <= 0:
            raise ValueError(f"histogram {name!r}: window_s must be "
                             f"positive, got {window_s}")
        if buckets < 2:
            raise ValueError(f"histogram {name!r}: need >= 2 buckets, "
                             f"got {buckets}")
        if bucket_sample_cap < 1:
            raise ValueError(f"histogram {name!r}: bucket sample cap "
                             f"must be >= 1, got {bucket_sample_cap}")
        self.name = name
        self.window_ns = int(window_s * NS_PER_S)
        self.buckets = buckets
        self.bucket_ns = max(1, self.window_ns // buckets)
        self.bucket_sample_cap = bucket_sample_cap
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._ring = [_Bucket() for _ in range(buckets)]
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._clock = clock if clock is not None else now_ns
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """File one observation under the clock's current bucket."""
        epoch = self._clock() // self.bucket_ns
        with self._lock:
            self._count += 1
            self._total += value
            if self._count == 1 or value > self._max:
                self._max = value
            bucket = self._ring[epoch % self.buckets]
            if bucket.epoch != epoch:
                bucket.epoch = epoch
                bucket.count = 0
                bucket.samples = []
            bucket.count += 1
            if len(bucket.samples) < self.bucket_sample_cap:
                bucket.samples.append(value)
            else:
                slot = self._rng.randrange(bucket.count)
                if slot < self.bucket_sample_cap:
                    bucket.samples[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _window(self, now: int) -> tuple:  # holds: _lock
        """``(observations, start ns of the oldest live bucket,
        retained samples)`` of the buckets still inside the window."""
        horizon = now // self.bucket_ns - self.buckets + 1
        live = [b for b in self._ring
                if b.epoch >= horizon and b.count > 0]
        return (sum(b.count for b in live),
                min((b.epoch for b in live), default=0) * self.bucket_ns,
                [v for b in live for v in b.samples])

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the window, ``p`` in [0, 100].

        Exact while no live bucket holds more than its sample cap; a
        reservoir estimate beyond that.  Both an out-of-range ``p``
        and an empty window raise: a fabricated 0.0 would read as
        "this operator was instant" in a report.  (:meth:`summary`
        stays total — it reports ``None`` percentiles instead.)
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(
                f"histogram {self.name!r}: percentile {p!r} outside "
                "[0, 100]")
        with self._lock:
            samples = self._window(self._clock())[2]
        if not samples:
            raise ValueError(
                f"histogram {self.name!r} is empty: no observations "
                "in the window to take a percentile of")
        samples.sort()
        return samples[round(p / 100.0 * (len(samples) - 1))]

    def summary(self) -> dict:
        """count/total/max/rate_per_s/p50/p95/p99 (JSON-ready).

        ``count`` / ``total`` / ``max`` are lifetime and exact.  The
        percentiles are nearest-rank over the window's retained
        samples (``None`` when it holds none); ``rate_per_s`` divides
        the window's observations by the covered span — the seconds
        between the start of the oldest live bucket and now, clamped
        to the window — so a freshly started process reports a sane
        rate instead of count/60.
        """
        now = self._clock()
        with self._lock:
            out = {"count": self._count, "total": self._total,
                   "max": self._max}
            in_window, oldest_start, samples = self._window(now)
        covered_ns = min(self.window_ns,
                         max(now - oldest_start, self.bucket_ns))
        out["rate_per_s"] = in_window / (covered_ns / NS_PER_S)
        samples.sort()
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
