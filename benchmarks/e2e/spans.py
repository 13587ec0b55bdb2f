"""Spans recorded from the outside, around calls into each layer.

One span per public call: ``(name, start, end, parent, op)``; spans of
one op share its ``op`` id.  Kept in memory, written at exit.  A
layer's self time is its span minus the part its children cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Tracer:
    """An append-only span list; ``span()`` is the only writer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: [name, start_s, end_s, parent index or -1, op id]
        self.spans: list[list] = []
        self._lock = threading.Lock()   # serve's two clients share it

    def span(self, name: str, parent: int = -1, op: int = -1):
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, op])
        return _Span(self, index)

    def dump(self, path) -> None:
        """Write ``{"names": [...], "spans": [[name#, start_us,
        end_us, parent, op], ...]}`` with times relative to the first
        span."""
        names: dict[str, int] = {}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[names.setdefault(name, len(names)),
                 round((start - origin) * 1e6),
                 round((end - origin) * 1e6), parent, op]
                for name, start, end, parent, op in self.spans]
        with open(path, "w") as handle:
            json.dump({"names": list(names), "spans": rows}, handle,
                      separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> int:
        self.tracer.spans[self.index][1] = self.tracer.clock()
        return self.index

    def __exit__(self, *exc_info) -> None:
        row = self.tracer.spans[self.index]
        row[2] = self.tracer.clock()


def self_times(spans) -> list[float]:
    """Per span: duration minus the part of it child spans cover
    (children clipped to the parent, overlaps counted once)."""
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append((end - start) - covered)
    return out
