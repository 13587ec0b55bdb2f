"""Named counters and gauges: the two metric kinds.

A :class:`MetricsRegistry` is what a serving process (one per
:class:`~repro.service.session.Database` or shard coordinator) keeps
its books in, and what ``/metrics`` and the benchmark ledger read.
:class:`Counter` only counts up and :class:`Gauge` holds the latest
value of a quantity that moves both ways.  A traced run's per-operator
distributions are not metrics: they are its spans
(:meth:`repro.obs.telemetry.Telemetry.operator_profile`).

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


class MetricsRegistry:
    """Get-or-create registry of named counters and gauges."""

    __slots__ = ("_counters", "_gauges", "_lock")

    GUARDED_BY = {"_counters": "_lock", "_gauges": "_lock"}

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
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

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every metric."""
        return {"counters": self.counters(), "gauges": self.gauges()}

    def __repr__(self) -> str:
        return (f"<MetricsRegistry "
                f"{len(self._counters)} counters, "  # lockfree-read
                f"{len(self._gauges)} gauges>")  # lockfree-read
