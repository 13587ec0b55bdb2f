"""The container array view backing the batch engine (DESIGN.md §13).

``as_arrays()`` caching, ``interval_positions``/``interval_bounds``
parity with the scalar ``interval_search``, the vectorized codec
kernels, the structure tree's ``parent_array`` and the block-cache
memoization of the array view.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.compression.kernels import (
    FloatKernel,
    IntegerKernel,
    kernel_for,
)
from repro.obs import runtime
from repro.obs.telemetry import Telemetry
from repro.service.blocks import CachedRepositoryView
from repro.service.cache import BlockCache
from repro.storage.loader import load_document

DOC = """
<store>
  <item n="5"><name>delta</name><price>19.5</price></item>
  <item n="2"><name>alpha</name><price>-3.25</price></item>
  <item n="9"><name>echo</name><price>0.0</price></item>
  <item n="2"><name>bravo</name><price>100.125</price></item>
  <item n="7"><name>charlie</name><price>-50.5</price></item>
</store>
"""

NAME_PATH = "/store/item/name/#text"
N_PATH = "/store/item/@n"
PRICE_PATH = "/store/item/price/#text"


@pytest.fixture(scope="module")
def repo():
    return load_document(DOC)


class TestAsArrays:
    def test_cached_instance(self, repo):
        container = repo.container(NAME_PATH)
        assert container.as_arrays() is container.as_arrays()

    def test_parent_ids_match_records(self, repo):
        container = repo.container(NAME_PATH)
        arrays = container.as_arrays()
        assert arrays.count == len(container)
        assert arrays.parent_ids.dtype == np.int64
        scalar = [record.parent_id
                  for _, record in zip(range(arrays.count),
                                       arrays.records)]
        assert arrays.parent_ids.tolist() == scalar

    def test_blob_container_has_no_records(self):
        blob_repo = load_document("<r><t>aa</t><t>bb</t></r>",
                                  default_string_codec="zlib")
        arrays = blob_repo.container("/r/t/#text").as_arrays()
        assert arrays.records is None
        assert arrays.sort_keys is None
        assert arrays.count == 2


class TestIntervalPositions:
    BOUNDS = [("alpha", "charlie"), ("bravo", None), (None, "delta"),
              (None, None), ("aaa", "zzz"), ("foo", "foo")]

    def test_matches_scalar_interval_search(self, repo):
        container = repo.container(NAME_PATH)
        for (low, high), li, hi in itertools.product(
                self.BOUNDS, (True, False), (True, False)):
            positions = container.interval_positions(low, high, li, hi)
            assert positions is not None
            start, end = positions
            scalar = list(container.interval_search(low, high, li, hi))
            records = container.as_arrays().records
            assert [(records[i].parent_id, records[i].compressed)
                    for i in range(start, end)] == scalar, \
                (low, high, li, hi)

    def test_numeric_container(self, repo):
        container = repo.container(N_PATH)
        start, end = container.interval_positions("2", "7", True, True)
        values = [container.value_at(i) for i in range(start, end)]
        assert values == ["2", "2", "5", "7"]

    def test_interval_bounds_counts_like_interval_search(self, repo):
        container = repo.container(NAME_PATH)
        t1 = Telemetry()
        with runtime.activated(t1):
            list(container.interval_search("alpha", "delta",
                                           True, True))
        t2 = Telemetry()
        with runtime.activated(t2):
            container.interval_bounds("alpha", "delta", True, True)
        key = "container.interval_searches"
        assert t1.metrics.counters().get(key) == \
            t2.metrics.counters().get(key) == 1

    def test_interval_positions_is_uncounted(self, repo):
        container = repo.container(NAME_PATH)
        telemetry = Telemetry()
        with runtime.activated(telemetry):
            container.interval_positions("alpha", "delta", True, True)
        assert "container.interval_searches" not in \
            telemetry.metrics.counters()

    def test_blob_returns_none(self):
        blob_repo = load_document("<r><t>aa</t><t>bb</t></r>",
                                  default_string_codec="zlib")
        container = blob_repo.container("/r/t/#text")
        assert container.interval_positions("a", "z", True, True) is None


class TestKernels:
    def test_integer_kernel_matches_scalar_decode(self, repo):
        container = repo.container(N_PATH)
        kernel = kernel_for(container.codec)
        assert isinstance(kernel, IntegerKernel)
        records = container.as_arrays().records
        keys = kernel.decode_keys(records)
        assert keys.dtype == np.int64
        assert keys.tolist() == \
            [int(container.codec.decode(r.compressed))
             for r in records]

    def test_float_kernel_matches_scalar_decode(self, repo):
        container = repo.container(PRICE_PATH)
        kernel = kernel_for(container.codec)
        assert isinstance(kernel, FloatKernel)
        records = container.as_arrays().records
        keys = kernel.decode_keys(records)
        assert keys.dtype == np.float64
        assert keys.tolist() == \
            [float(container.codec.decode(r.compressed))
             for r in records]

    def test_sort_keys_are_sorted(self, repo):
        for path in (N_PATH, PRICE_PATH):
            keys = repo.container(path).as_arrays().sort_keys
            assert keys is not None
            assert (keys[:-1] <= keys[1:]).all()

    def test_string_codec_has_no_kernel(self, repo):
        assert kernel_for(repo.container(NAME_PATH).codec) is None
        assert repo.container(NAME_PATH).as_arrays().sort_keys is None


class TestParentArray:
    def test_matches_scalar_parents(self, repo):
        structure = repo.structure
        parents = structure.parent_array()
        assert parents.dtype == np.int64
        for node_id in range(len(parents)):
            assert parents[node_id] == \
                structure.record(node_id).parent_id

    def test_cached(self, repo):
        structure = repo.structure
        assert structure.parent_array() is structure.parent_array()


class TestBlockCacheArrays:
    def test_as_arrays_memoized_in_cache(self, repo):
        cache = BlockCache(budget_bytes=1 << 20)
        view = CachedRepositoryView(repo, cache)
        container = view.container(NAME_PATH)
        first = container.as_arrays()
        hits_before = cache.metrics.counters().get(
            "cache.block.hit", 0)
        assert container.as_arrays() is first
        assert cache.metrics.counters().get("cache.block.hit", 0) == \
            hits_before + 1

    def test_arrays_charged_to_budget(self, repo):
        cache = BlockCache(budget_bytes=1 << 20)
        view = CachedRepositoryView(repo, cache)
        used_before = cache.used_bytes
        view.container(NAME_PATH).as_arrays()
        assert cache.used_bytes > used_before
