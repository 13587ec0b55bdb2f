"""The serving layer's two caches: prepared plans and decoded blocks.

Both caches report ``cache.*`` hit/miss/eviction counters into a
:class:`~repro.obs.metrics.MetricsRegistry` (the session's registry by
default), so cache effectiveness shows up next to the engine's operator
counters instead of being a private implementation detail.  Both are
thread-safe: one session serves ``execute_many`` worker threads from
one plan cache and one block cache.

* :class:`PlanCache` — an LRU over *prepared plans* keyed on
  normalized query text.  A hit skips parsing, planning, binding and
  static plan verification entirely (the paper's processor assumes a
  resident repository answering many queries), and threads missing
  one text together prepare it once.
* :class:`BlockCache` — a byte-budgeted LRU memoizing decoded
  container records: the ``value_at`` reads that materialise result
  nodes and their texts, and the blob ``record_at`` reads that
  re-encode a blob value.  A resident session answering similar
  queries re-decodes the same hot records constantly; summary paths
  are resolved once, when a plan is bound, so nothing else is left to
  memoise at run time.

Invalidation is explicit (:meth:`PlanCache.invalidate`,
:meth:`BlockCache.invalidate`): the repository is immutable once
loaded, so the only event that must flush caches is swapping the
repository itself — which the session exposes as
``Session.invalidate_caches()``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future

from repro.obs.metrics import MetricsRegistry

#: default number of prepared plans kept resident.
DEFAULT_PLAN_CAPACITY = 128

#: default decoded-block budget: 4 MiB of decoded records.
DEFAULT_BLOCK_BUDGET = 4 * 1024 * 1024

#: approximate bookkeeping charged per entry on top of its payload
#: (key tuple, OrderedDict slot, string header).
_ENTRY_OVERHEAD = 96


def normalize_query_text(text: str) -> str:
    """The plan-cache key: query text with whitespace runs collapsed.

    Two spellings of one query ("same tokens, different layout") must
    share a cache slot; anything smarter (parameter extraction,
    AST-level hashing) would have to re-run the parser, defeating the
    point of the cache.
    """
    return " ".join(text.split())


class PlanCache:
    """A thread-safe LRU of prepared plans keyed on normalized text.

    Metric increments happen *outside* ``_lock``: the cache lock is a
    leaf of the documented lock hierarchy (DESIGN "Lock hierarchy"),
    so nothing that can itself block is ever called while holding it.
    """

    GUARDED_BY = {"_entries": "_lock", "_pending": "_lock"}

    def __init__(self, capacity: int = DEFAULT_PLAN_CAPACITY,
                 metrics: MetricsRegistry | None = None):
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, "
                             f"got {capacity}")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._entries: OrderedDict[str, object] = OrderedDict()
        #: the plan being prepared, by key, for threads missing it too.
        self._pending: dict[str, Future] = {}
        self._lock = threading.Lock()

    def get(self, key: str):
        """The cached plan for ``key``, or ``None`` (counts hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.metrics.add("cache.plan.miss")
            return None
        self.metrics.add("cache.plan.hit")
        return entry

    def get_or_prepare(self, key: str, prepare):
        """The cached plan for ``key``, else ``prepare()``'s, cached
        unless it ``has_errors``.  Threads that miss one key together
        prepare it once: the others wait for that plan, and count a
        hit, since they prepared nothing."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
            pending = self._pending.get(key)
            mine = plan is None and pending is None
            if mine:
                pending = self._pending[key] = Future()
        if not mine:
            self.metrics.add("cache.plan.hit")
            return plan if plan is not None else pending.result()
        self.metrics.add("cache.plan.miss")
        try:
            plan = prepare()
            if not plan.has_errors:
                self.put(key, plan)
            pending.set_result(plan)
            return plan
        except BaseException as error:
            pending.set_exception(error)
            raise
        finally:
            with self._lock:
                del self._pending[key]

    def put(self, key: str, plan) -> None:
        """Insert (or refresh) a plan, evicting LRU entries over
        capacity."""
        evicted = 0
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.metrics.add("cache.plan.evictions", evicted)

    def invalidate(self, key: str | None = None) -> None:
        """Drop one entry (by normalized key) or the whole cache."""
        with self._lock:
            if key is None:
                self._entries.clear()
            else:
                self._entries.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (f"<PlanCache {len(self)}/{self.capacity} plans>")


class BlockCache:
    """A thread-safe, byte-budgeted LRU of decoded blocks.

    Entries are charged an approximate decoded size (``nbytes``); when
    the running total exceeds the budget, least-recently-used entries
    are evicted.  An entry bigger than the whole budget is not cached
    at all (it would evict everything for one use).

    Like :class:`PlanCache`, ``_lock`` is a hierarchy leaf: metric
    increments happen after the critical section.
    """

    GUARDED_BY = {"_entries": "_lock", "_used": "_lock"}

    def __init__(self, budget_bytes: int = DEFAULT_BLOCK_BUDGET,
                 metrics: MetricsRegistry | None = None):
        if budget_bytes < 1:
            raise ValueError(f"block cache budget must be >= 1 byte, "
                             f"got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._entries: OrderedDict[tuple, tuple[object, int]] = \
            OrderedDict()
        self._lock = threading.Lock()
        self._used = 0

    @property
    def used_bytes(self) -> int:
        """Approximate decoded bytes currently resident."""
        with self._lock:
            return self._used

    def get(self, key: tuple):
        """The cached block for ``key``, or ``None`` (counts
        hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.metrics.add("cache.block.miss")
            return None
        self.metrics.add("cache.block.hit")
        return entry[0]

    def put(self, key: tuple, value, nbytes: int) -> None:
        """Insert a block charged at ``nbytes``, evicting LRU entries
        until the budget holds again."""
        if nbytes > self.budget_bytes:
            self.metrics.add("cache.block.oversize")
            return
        evicted = 0
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._used -= previous[1]
            self._entries[key] = (value, nbytes)
            self._used += nbytes
            while self._used > self.budget_bytes and self._entries:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._used -= dropped
                evicted += 1
        if evicted:
            self.metrics.add("cache.block.evictions", evicted)

    def value_at(self, container, slot: int) -> str:
        """``container.value_at(slot)``, memoised (keyed by the container
        object: documents sharing a path never collide)."""
        key = ("value", container, slot)
        value = self.get(key)
        if value is None:
            value = container.value_at(slot)
            self.put(key, value, len(value) + _ENTRY_OVERHEAD)
        return value

    def record_at(self, container, slot: int):
        """``container.record_at(slot)``, memoised for a blob container,
        whose every access re-encodes the value (elsewhere a list index)."""
        if not container.is_blob:
            return container.record_at(slot)
        key = ("record", container, slot)
        record = self.get(key)
        if record is None:
            record = container.record_at(slot)
            self.put(key, record,
                     record.compressed.nbytes + _ENTRY_OVERHEAD)
        return record

    def invalidate(self) -> None:
        """Drop every cached block."""
        with self._lock:
            self._entries.clear()
            self._used = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (f"<BlockCache {len(self)} blocks, "
                f"{self.used_bytes}/{self.budget_bytes} B>")
