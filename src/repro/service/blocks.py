"""Block-cached views over a compressed repository.

The session builds its engine over a :class:`CachedRepositoryView`
instead of the raw :class:`~repro.storage.repository.CompressedRepository`.
The view is a transparent forwarding proxy that intercepts exactly the
two block-shaped lookups the paper's processor repeats across queries:

* **structure-summary resolutions** — ``resolve_path(steps)`` walks the
  path summary; resident sessions resolve the same absolute prefixes
  on every query touching the same region of the document;
* **decoded container records** — ``container(path).value_at(index)``
  is the per-record decompression unit; result materialization and
  string atomization hit the same hot records again and again.

Everything else (structure tree, name dictionary, codecs, interval
searches) forwards to the wrapped objects unchanged, so operator
counters and plan verification observe the same repository they
always did.  The views themselves are stateless apart
from the shared :class:`~repro.service.cache.BlockCache`; one cache can
back any number of sessions over the same repository.
"""

from __future__ import annotations

import threading

from repro.service.cache import BlockCache
from repro.storage.repository import CompressedRepository

#: approximate per-entry bookkeeping overhead charged on top of the
#: decoded payload (key tuple, OrderedDict slot, string header).
_ENTRY_OVERHEAD = 96


class CachedContainerView:
    """A value container with block-cached decoded record access."""

    __slots__ = ("_container", "_cache")

    def __init__(self, container, cache: BlockCache):
        self._container = container
        self._cache = cache

    def value_at(self, index: int) -> str:
        """Plain value by position, memoised in the block cache."""
        key = ("value", self._container.path, index)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self._container.value_at(index)
        self._cache.put(key, value, len(value) + _ENTRY_OVERHEAD)
        return value

    def record_at(self, index: int):
        """Record by position; cached only for blob containers, where
        every access re-encodes the value (non-blob access is a plain
        list index — caching it would only add overhead)."""
        if not self._container.is_blob:
            return self._container.record_at(index)
        key = ("record", self._container.path, index)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        record = self._container.record_at(index)
        self._cache.put(key, record,
                        record.compressed.nbytes + _ENTRY_OVERHEAD)
        return record

    def as_arrays(self):
        """The container's array view, charged to the block cache.

        The arrays are immutable once built (containers are sealed),
        so the cache entry doubles as the memo *and* as budget
        accounting: the batch engine's resident array footprint shows
        up in — and is evicted by — the same byte budget as decoded
        records.
        """
        key = ("arrays", self._container.path)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        arrays = self._container.as_arrays()
        self._cache.put(key, arrays, arrays.nbytes + _ENTRY_OVERHEAD)
        return arrays

    def __len__(self) -> int:
        return len(self._container)

    def __getattr__(self, name: str):
        return getattr(self._container, name)

    def __repr__(self) -> str:
        return f"<CachedContainerView {self._container!r}>"


class CachedRepositoryView:
    """A repository whose block-shaped lookups go through one cache."""

    __slots__ = ("_repository", "_cache", "_views", "_views_lock")

    GUARDED_BY = {"_views": "_views_lock"}

    def __init__(self, repository: CompressedRepository,
                 cache: BlockCache):
        self._repository = repository
        self._cache = cache
        self._views: dict[str, CachedContainerView] = {}
        self._views_lock = threading.Lock()

    @property
    def wrapped(self) -> CompressedRepository:
        """The raw repository underneath (for cache-bypassing paths)."""
        return self._repository

    def container(self, path: str) -> CachedContainerView:
        """The block-cached view of one container (views are shared,
        so per-path lookups stay one dict probe)."""
        view = self._views.get(path)  # lockfree-read (double-checked)
        if view is None:
            container = self._repository.container(path)
            with self._views_lock:
                view = self._views.get(path)
                if view is None:
                    view = CachedContainerView(container, self._cache)
                    self._views[path] = view
        return view

    def resolve_path(self, steps):
        """Structure-summary resolution, memoised in the block cache."""
        key = ("resolve", tuple(steps))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        nodes = self._repository.resolve_path(list(steps))
        self._cache.put(key, nodes,
                        len(nodes) * 64 + _ENTRY_OVERHEAD)
        return nodes

    def __getattr__(self, name: str):
        return getattr(self._repository, name)

    def __repr__(self) -> str:
        return f"<CachedRepositoryView {self._repository!r}>"
