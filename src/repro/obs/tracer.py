"""Hierarchical wall-clock spans over ``perf_counter_ns``.

``Tracer.span(name, **attributes)`` is used as a context manager; spans
nest by dynamic scope, so the finished trace is a forest mirroring the
evaluation.  ``Tracer.record`` files a region timed elsewhere (a
physical operator's batch stream) as one finished span under the span
open when it ends.  A tracer exists only for a traced run; untraced span
sites get :data:`NOOP_SPAN`, one shared span whose enter/exit do
nothing (:func:`repro.obs.telemetry.span_on` hands it out).
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
    """The shared span an untraced run's span sites get; does
    nothing."""

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


#: the one no-op span every untraced span site gets.
NOOP_SPAN = _NoOpSpan()


class Tracer:
    """Produces spans; collects the finished forest under ``roots``."""

    __slots__ = ("roots", "_stack")

    def __init__(self):
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes):
        """A context manager timing ``name``."""
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

    def record(self, name: str, start_ns: int, end_ns: int,
               **attributes) -> None:
        """File a finished span (an operator's batch stream) under the
        innermost open one, or as a root when none is open."""
        span = Span(name, self, attributes or None)
        span.start_ns, span.end_ns = start_ns, end_ns
        (self._stack[-1].children if self._stack
         else self.roots).append(span)

    def to_dict(self) -> dict:
        """JSON-ready trace forest."""
        return {"spans": [root.to_dict() for root in self.roots]}

    def __repr__(self) -> str:
        return f"<Tracer roots={len(self.roots)}>"
