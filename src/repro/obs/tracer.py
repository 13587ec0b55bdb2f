"""Hierarchical wall-clock spans over ``perf_counter_ns``.

``Tracer.span(name, **attributes)`` is used as a context manager; spans
nest by dynamic scope, so the finished trace is a forest mirroring the
evaluation.  A disabled tracer returns one shared no-op span whose
enter/exit do nothing — the instrumentation cost of a cold engine is a
boolean test plus a constant return.
"""

from __future__ import annotations

from time import perf_counter_ns


class Span:
    """One named, timed region with attributes and child spans."""

    __slots__ = ("name", "attributes", "children", "start_ns", "end_ns",
                 "_tracer")

    def __init__(self, name: str, tracer: "Tracer",
                 attributes: dict | None = None):
        self.name = name
        self.attributes: dict = attributes or {}
        self.children: list[Span] = []
        self.start_ns: int = 0
        self.end_ns: int = 0
        self._tracer = tracer

    @property
    def duration_ns(self) -> int:
        """Wall time between enter and exit (0 while still open)."""
        if self.end_ns < self.start_ns:
            return 0
        return self.end_ns - self.start_ns

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = perf_counter_ns()
        self._tracer._pop(self)
        return False

    def to_dict(self) -> dict:
        """JSON-ready representation, children included."""
        return {
            "name": self.name,
            "duration_ns": self.duration_ns,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self):
        """This span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"<Span {self.name} {self.duration_ns}ns>"


class _NoOpSpan:
    """The shared span a disabled tracer hands out; does nothing."""

    __slots__ = ()

    name = ""
    attributes: dict = {}
    children: list = []
    duration_ns = 0

    def set_attribute(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: the one no-op span every disabled tracer returns.
NOOP_SPAN = _NoOpSpan()


class Tracer:
    """Produces spans; collects the finished forest under ``roots``.

    ``on_end`` (optional) is called with each span as it closes — the
    telemetry layer uses it to feed span durations into histograms.
    """

    __slots__ = ("enabled", "roots", "_stack", "on_end")

    def __init__(self, enabled: bool = True, on_end=None):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.on_end = on_end

    def span(self, name: str, **attributes):
        """A context manager timing ``name``; no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(name, self, attributes or None)

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exits out of order (exceptions unwinding): pop back
        # to and including the closing span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if self.on_end is not None:
            self.on_end(span)

    def aggregate(self) -> dict[str, dict]:
        """Per-span-name {count, total_ns, max_ns} over the forest."""
        out: dict[str, dict] = {}
        for root in self.roots:
            for span in root.walk():
                row = out.setdefault(span.name, {"count": 0,
                                                 "total_ns": 0,
                                                 "max_ns": 0})
                row["count"] += 1
                row["total_ns"] += span.duration_ns
                row["max_ns"] = max(row["max_ns"], span.duration_ns)
        return out

    def to_dict(self) -> dict:
        """JSON-ready trace forest."""
        return {"spans": [root.to_dict() for root in self.roots]}

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Tracer {state} roots={len(self.roots)}>"
