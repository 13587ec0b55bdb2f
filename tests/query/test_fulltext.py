"""Tests for the §6 full-text extension: ``word-contains`` and the
substring access path that answers it (and ``contains``)."""

import pytest

from repro.baselines.galax import GalaxEngine
from repro.query.engine import QueryEngine
from repro.query.functions import tokenize
from repro.storage.loader import load_document

DOC = """
<site>
  <item id="i0"><name>gold ring</name>
    <desc>a fine Gold band, hand made</desc></item>
  <item id="i1"><name>silver chain</name>
    <desc>polished silver links</desc></item>
  <item id="i2"><name>golden bowl</name>
    <desc>large golden bowl with gold leaf</desc></item>
</site>
"""

QUERY = ('for $i in /site/item '
         'where word-contains($i/desc/text(), "gold") '
         "return $i/@id")


@pytest.fixture(scope="module")
def repo():
    return load_document(DOC)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_numbers_kept(self):
        assert tokenize("item 42") == ["item", "42"]

    def test_underscore_not_a_word_char(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []


class TestWordContainsFunction:
    def test_whole_word_semantics(self, repo):
        engine = QueryEngine(repo)
        # "gold" matches i0 and i2 (gold leaf) but NOT "golden" alone.
        assert engine.execute(QUERY).items == ["i0", "i2"]

    def test_case_insensitive(self, repo):
        engine = QueryEngine(repo)
        result = engine.execute(
            'for $i in /site/item '
            'where word-contains($i/desc/text(), "GOLD") '
            "return $i/@id")
        assert result.items == ["i0", "i2"]

    def test_multi_word_needle(self, repo):
        engine = QueryEngine(repo)
        result = engine.execute(
            'for $i in /site/item '
            'where word-contains($i/desc/text(), "gold leaf") '
            "return $i/@id")
        assert result.items == ["i2"]

    def test_galax_agrees(self, repo):
        assert QueryEngine(repo).execute(QUERY).to_xml() == \
            GalaxEngine(DOC).execute_to_xml(QUERY)


class TestIndexedAccessPath:
    CONTAINER = "/site/item/desc/#text"

    def test_registered_index_used(self):
        # A run leaves the q-gram index on the container; the next run
        # probes it instead of scanning.
        repo = load_document(DOC)
        engine = QueryEngine(repo)
        assert repo.container(self.CONTAINER)._substring_index is None
        assert engine.execute(QUERY).items == ["i0", "i2"]
        index = repo.container(self.CONTAINER)._substring_index
        result = engine.execute(QUERY)
        assert result.items == ["i0", "i2"]
        assert repo.container(self.CONTAINER)._substring_index is index
        # One probe; the re-check decodes the two candidates and the
        # results their ids — the silver chain is never touched.
        assert result.stats.container_accesses == 1
        assert result.stats.decompressions == 2 + len(result.items)

    def test_index_results_equal_plain_results(self, repo):
        engine = QueryEngine(repo)
        for function in ("contains", "word-contains"):
            for needle in ("gold", "silver", "golden", "bowl gold",
                           "Gold", "nothing", "go", ""):
                indexed = engine.execute(
                    f'for $i in /site/item where {function}('
                    f'$i/desc/text(), "{needle}") return $i/@id')
                # string() hides the path from the planner: every item
                # is bound and checked.
                plain = engine.execute(
                    f'for $i in /site/item where {function}('
                    f'string($i/desc/text()), "{needle}") return $i/@id')
                assert plain.stats.container_accesses == 0
                assert indexed.items == plain.items, (function, needle)

    def test_unindexed_container_falls_back(self, repo):
        # Two folded characters are below q: no candidates, so the
        # conjunct is evaluated per binding.
        result = QueryEngine(repo).execute(
            'for $i in /site/item '
            'where contains($i/name/text(), "go") '
            "return $i/@id")
        assert result.items == ["i0", "i2"]
        assert result.stats.container_accesses == 0
