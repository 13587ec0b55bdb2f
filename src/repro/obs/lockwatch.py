"""Runtime lock-order watchdog: the dynamic half of Tier C.

The static analyzer (:mod:`repro.lint.concurrency`) proves what lock
orders *can* happen from the source; this module observes what orders
*do* happen in a live process and cross-checks the two.  It is opt-in
and proxy-based: attach a :class:`LockOrderWatchdog`, wrap the locks
you care about (or a whole :class:`~repro.service.session.Session`
via :func:`watch_session`), run the workload, then ask the watchdog
what it saw:

* :meth:`LockOrderWatchdog.violations` — acquisition-order inversions
  actually witnessed: thread A took ``x`` then ``y`` while some thread
  earlier took ``y`` then ``x``.  Under a deterministic schedule (the
  ``tests/concurrency`` harness) these are pinned regressions, not
  flaky warnings;
* :meth:`LockOrderWatchdog.novel_edges` — observed orders the static
  graph has no edge for.  Each one is an analyzer blind spot (dynamic
  dispatch, a callback, monkey-patching) worth a ``GUARDED_BY`` or
  ``# holds:`` annotation;
* :meth:`LockOrderWatchdog.observed_edges` — the raw per-thread
  acquisition orders, for the DESIGN lock-hierarchy table.

The watchdog never changes blocking behaviour: a :class:`WatchedLock`
forwards ``acquire``/``release``/``with`` to the wrapped primitive and
only records bookkeeping *after* the real acquire succeeds, so timing
shifts but lock semantics (including ``RLock`` reentrancy) do not.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "LockOrderViolation",
    "LockOrderWatchdog",
    "WatchedLock",
    "watch_session",
]


@dataclass(frozen=True)
class LockOrderViolation:
    """One witnessed inversion: ``edge`` contradicts ``inverse``."""

    edge: tuple[str, str]
    inverse: tuple[str, str]
    thread: str

    def describe(self) -> str:
        return (f"lock-order inversion: thread {self.thread!r} took "
                f"{self.edge[0]} -> {self.edge[1]}, but "
                f"{self.inverse[0]} -> {self.inverse[1]} was also "
                "observed")


class WatchedLock:
    """A forwarding proxy reporting acquire/release to the watchdog.

    Supports the full lock protocol (``with``, ``acquire(blocking,
    timeout)``, ``release``, ``locked``) so it can replace a
    ``threading.Lock``/``RLock`` attribute in place.
    """

    __slots__ = ("identity", "_inner", "_watchdog")

    def __init__(self, inner, identity: str,
                 watchdog: "LockOrderWatchdog"):
        self.identity = identity
        self._inner = inner
        self._watchdog = watchdog

    @property
    def wrapped(self):
        """The real primitive underneath."""
        return self._inner

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watchdog._note_acquire(self.identity)
        return acquired

    def release(self) -> None:
        self._watchdog._note_release(self.identity)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<WatchedLock {self.identity} over {self._inner!r}>"


class LockOrderWatchdog:
    """Records per-thread lock acquisition orders at runtime.

    ``static_edges`` is the analyzer's acquisition graph
    (:meth:`repro.lint.concurrency.ConcurrencyReport.static_edges`);
    when given, :meth:`novel_edges` reports what the analyzer missed.
    All bookkeeping lives behind one internal lock that is only ever
    taken *last* (nothing is called while holding it), keeping the
    watchdog itself at the bottom of the hierarchy it audits.
    """

    GUARDED_BY = {
        "_held": "_lock",
        "_observed": "_lock",
        "_violations": "_lock",
    }

    def __init__(self, static_edges: Iterable[tuple[str, str]]
                 | None = None):
        self.static = set(static_edges) if static_edges is not None \
            else None
        self._lock = threading.Lock()
        #: thread ident -> stack of (identity, depth) acquisitions.
        self._held: dict[int, list[list]] = {}
        #: every (outer, inner) order witnessed, with a sample thread.
        self._observed: dict[tuple[str, str], str] = {}
        self._violations: list[LockOrderViolation] = []
        #: (obj, attr, original) replacements to undo on unwatch_all.
        self._wrapped: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, lock, identity: str) -> WatchedLock:
        """A watched proxy over ``lock`` (the caller installs it)."""
        if isinstance(lock, WatchedLock):
            return lock
        return WatchedLock(lock, identity, self)

    def watch(self, obj, attr: str, identity: str) -> WatchedLock:
        """Replace ``obj.attr`` with a watched proxy in place.

        Safe only while the lock is *unheld* (watch at setup time, not
        mid-workload); undone by :meth:`unwatch_all`.
        """
        original = getattr(obj, attr)
        proxy = self.wrap(original, identity)
        if proxy is not original:
            setattr(obj, attr, proxy)
            self._wrapped.append((obj, attr, original))
        return proxy

    def unwatch_all(self) -> None:
        """Restore every attribute :meth:`watch` replaced."""
        while self._wrapped:
            obj, attr, original = self._wrapped.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "LockOrderWatchdog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unwatch_all()

    # -- recording (called by WatchedLock) ------------------------------------

    def _note_acquire(self, identity: str) -> None:
        ident = threading.get_ident()
        name = threading.current_thread().name
        with self._lock:
            stack = self._held.setdefault(ident, [])
            for entry in stack:
                if entry[0] == identity:
                    entry[1] += 1  # reentrant re-acquire: no new edge.
                    return
            for outer, _depth in stack:
                edge = (outer, identity)
                if edge not in self._observed:
                    self._observed[edge] = name
                    inverse = (identity, outer)
                    if inverse in self._observed:
                        self._violations.append(LockOrderViolation(
                            edge=edge, inverse=inverse, thread=name))
            stack.append([identity, 1])

    def _note_release(self, identity: str) -> None:
        ident = threading.get_ident()
        with self._lock:
            stack = self._held.get(ident, [])
            for index in range(len(stack) - 1, -1, -1):
                if stack[index][0] == identity:
                    stack[index][1] -= 1
                    if stack[index][1] == 0:
                        del stack[index]
                    return

    # -- findings -------------------------------------------------------------

    def observed_edges(self) -> set[tuple[str, str]]:
        """Every (outer, inner) acquisition order witnessed so far."""
        with self._lock:
            return set(self._observed)

    def violations(self) -> list[LockOrderViolation]:
        """Witnessed inversions, in discovery order."""
        with self._lock:
            return list(self._violations)

    def novel_edges(self) -> set[tuple[str, str]]:
        """Observed orders the static graph has no edge for.

        Empty when no static graph was provided: there is nothing to
        cross-check against.
        """
        if self.static is None:
            return set()
        return {edge for edge in self.observed_edges()
                if edge not in self.static}

    def report(self) -> dict:
        """JSON-ready summary (edges, violations, cross-check)."""
        return {
            "observed_edges": sorted(
                list(edge) for edge in self.observed_edges()),
            "violations": [v.describe() for v in self.violations()],
            "novel_edges": sorted(
                list(edge) for edge in self.novel_edges()),
        }

    def __repr__(self) -> str:
        return (f"<LockOrderWatchdog "
                f"{len(self.observed_edges())} edges, "
                f"{len(self.violations())} violations>")


def watch_session(watchdog: LockOrderWatchdog, session) -> None:
    """Wrap the serving layer's inventoried locks on one session.

    Covers the locks the Tier-C analyzer names in its DESIGN
    hierarchy: both cache locks and the metrics registry.  Undo with
    ``watchdog.unwatch_all()``.
    """
    watchdog.watch(session.plan_cache, "_lock", "PlanCache._lock")
    watchdog.watch(session.block_cache, "_lock", "BlockCache._lock")
    watchdog.watch(session.metrics, "_lock", "MetricsRegistry._lock")
