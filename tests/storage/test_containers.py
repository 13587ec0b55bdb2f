"""Tests for value containers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.registry import train_codec
from repro.errors import StorageError
from repro.storage.containers import ValueContainer

WORDS = ["delta", "alpha", "charlie", "bravo", "alpha"]


def make_container(values, codec_name="alm", value_type="string"):
    container = ValueContainer("/doc/item/#text", value_type)
    for i, value in enumerate(values):
        container.add_value(value, parent_id=100 + i)
    container.seal(train_codec(codec_name, values))
    return container


class TestLifecycle:
    def test_add_after_seal_rejected(self):
        container = make_container(WORDS)
        with pytest.raises(StorageError):
            container.add_value("late", 0)

    def test_double_seal_rejected(self):
        container = make_container(WORDS)
        with pytest.raises(StorageError):
            container.seal(train_codec("alm", WORDS))

    def test_access_before_seal_rejected(self):
        container = ValueContainer("/p")
        container.add_value("x", 0)
        with pytest.raises(StorageError):
            list(container.scan())

    def test_len(self):
        assert len(make_container(WORDS)) == 5


class TestOrderingAndPointers:
    def test_records_value_sorted_not_document_ordered(self):
        container = make_container(WORDS)
        values = [v for _, v in container.scan_decoded()]
        assert values == sorted(WORDS)

    def test_sorted_position_maps_staging_to_slot(self):
        container = make_container(WORDS)
        for staged_index, value in enumerate(WORDS):
            slot = container.sorted_position(staged_index)
            assert container.value_at(slot) == value

    def test_parent_ids_travel_with_values(self):
        container = make_container(WORDS)
        # "delta" was staged first with parent 100.
        slot = container.sorted_position(0)
        assert container.record_at(slot).parent_id == 100

    def test_compressed_scan_order_preserving_codec(self):
        container = make_container(WORDS, codec_name="alm")
        compressed = [cv for _, cv in container.scan()]
        assert compressed == sorted(compressed)


class TestIntervalSearch:
    @pytest.mark.parametrize("codec_name", ["alm", "hutucker",
                                            "arithmetic", "huffman"])
    def test_closed_interval(self, codec_name):
        container = make_container(WORDS, codec_name)
        codec = container.codec
        got = sorted(codec.decode(cv)
                     for _, cv in container.interval_search("alpha",
                                                            "charlie"))
        assert got == ["alpha", "alpha", "bravo", "charlie"]

    def test_open_bounds(self):
        container = make_container(WORDS)
        assert len(list(container.interval_search(None, None))) == 5

    def test_exclusive_bounds(self):
        container = make_container(WORDS)
        got = [container.codec.decode(cv) for _, cv in
               container.interval_search("alpha", "delta",
                                         low_inclusive=False,
                                         high_inclusive=False)]
        assert got == ["bravo", "charlie"]

    def test_bound_outside_source_model_falls_back(self):
        container = make_container(WORDS, "alm")
        # 'z' never occurs in the corpus: try_encode fails, the
        # decompressing fallback must still answer correctly.
        got = [container.codec.decode(cv) for _, cv in
               container.interval_search("delta", "zzz")]
        assert got == ["delta"]

    def test_numeric_container_numeric_order(self):
        values = ["9", "100", "23"]
        container = make_container(values, "integer", value_type="int")
        got = [container.codec.decode(cv) for _, cv in
               container.interval_search("10", "150")]
        assert got == ["23", "100"]


class TestBlobContainers:
    def test_blob_roundtrip(self):
        container = make_container(WORDS, "bzip2")
        assert container.is_blob
        assert [v for _, v in container.scan_decoded()] == sorted(WORDS)

    def test_blob_interval_search(self):
        container = make_container(WORDS, "zlib")
        codec = container.codec
        got = [codec.decode(cv) for _, cv in
               container.interval_search("bravo", "delta")]
        assert got == ["bravo", "charlie", "delta"]

    def test_blob_value_at(self):
        container = make_container(WORDS, "zlib")
        assert container.value_at(0) == "alpha"


class TestSubstringCandidates:
    """The q-gram candidates are a superset of the slots whose value
    contains the needle — as it stands or in another letter case."""

    VALUES = ["gold ring", "Golden bowl", "old goLD", "silver", "go",
              "", "straße", "STRASSE", "İstanbul", "istanbul",
              "ΟΔΥΣΣΕΥΣ", "οδυσσευς", "a 😀😀😀 b"]

    def slots(self, needle, values=None, codec_name="alm"):
        container = make_container(values or self.VALUES, codec_name)
        found = container.substring_candidates(needle)
        return None if found is None else \
            [container.value_at(slot) for slot in found.tolist()]

    def test_needles_below_q_have_no_candidates(self):
        for needle in ("", "g", "go", "ß", "Σσ"):
            assert self.slots(needle) is None, needle
        # Three folded characters from two: "ßa" is "ssa".
        assert self.slots("ßa") == []

    def test_absent_character_or_gram_is_empty_not_none(self):
        assert self.slots("golz") == []
        assert self.slots("dlo") == []
        found = make_container(self.VALUES).substring_candidates("xyz")
        assert found.dtype.kind == "i" and len(found) == 0

    def test_candidates_come_sorted_by_slot_in_any_case(self):
        container = make_container(self.VALUES)
        found = container.substring_candidates("gold")
        assert found.tolist() == sorted(found.tolist())
        assert sorted(self.slots("gold")) == \
            ["Golden bowl", "gold ring", "old goLD"]
        assert self.slots("GOLD") == self.slots("gold")
        # Every q-gram somewhere in the value is all it takes: a
        # superset is all the index promises.
        assert self.slots("abab", ["babxaba", "abab", "aba"]) == \
            ["abab", "babxaba"]

    def test_folding_keeps_containment(self):
        # ß folds to ss, İ to i + combining dot, final and medial
        # sigma to one letter; a non-BMP character is one character.
        assert sorted(self.slots("straße")) == ["STRASSE", "straße"]
        assert sorted(self.slots("RASS")) == ["STRASSE", "straße"]
        assert "İstanbul" in self.slots("İst")
        assert sorted(self.slots("tanb")) == ["istanbul", "İstanbul"]
        assert sorted(self.slots("σευς")) == ["ΟΔΥΣΣΕΥΣ", "οδυσσευς"]
        assert sorted(self.slots("ΣΕΥΣ")) == ["ΟΔΥΣΣΕΥΣ", "οδυσσευς"]
        assert self.slots("😀😀😀") == ["a 😀😀😀 b"]
        assert self.slots(" 😀😀") == ["a 😀😀😀 b"]

    def test_lowering_then_folding_is_folding(self):
        # What lets one index serve word-contains, which lowercases:
        # str.lower never leaves a character's fold class.
        import sys
        for point in range(sys.maxunicode + 1):
            char = chr(point)
            assert char.lower().casefold() == char.casefold(), hex(point)

    def test_no_gram_spans_two_values(self):
        assert self.slots("abcd", ["ab", "cd", "abcd"]) == ["abcd"]
        assert self.slots("bcd", ["ab", "cd"]) == []

    def test_order_agnostic_codec_answers_too(self):
        assert sorted(self.slots("gold", codec_name="huffman")) == \
            ["Golden bowl", "gold ring", "old goLD"]

    def test_blob_container_has_no_candidates(self):
        container = make_container(WORDS, "bzip2")
        assert not container.substring_indexable("alpha")
        assert container.substring_candidates("alpha") is None


class TestSubstringSlots:
    """The positional q-grams decide ``needle in value`` exactly, case
    and all: a q-gram counts only at its place in the needle."""

    def slots(self, needle, values):
        container = make_container(values)
        found = container.substring_slots(needle)
        return None if found is None else \
            [container.value_at(slot) for slot in found.tolist()]

    def test_q_grams_must_sit_in_order(self):
        values = ["aaa", "aaaa", "aba bab", "abab", "gold old", "Gold"]
        assert self.slots("aaaa", values) == ["aaaa"]
        assert self.slots("abab", values) == ["abab"]
        assert self.slots("goldold", values) == []
        assert self.slots("gold", values) == ["gold old"]
        assert self.slots("old", values) == ["Gold", "gold old"]
        assert self.slots("😀😀😀", TestSubstringCandidates.VALUES) == \
            ["a 😀😀😀 b"]

    def test_below_q_or_blob_undecided(self):
        assert self.slots("go", ["gold"]) is None
        # casefolds to three characters: a candidate, not a position
        assert self.slots("ßa", ["ssa"]) is None
        container = make_container(WORDS, "bzip2")
        assert not container.substring_decidable("alpha")
        assert container.substring_slots("alpha") is None


class TestAccounting:
    def test_data_size_positive(self):
        container = make_container(WORDS)
        # at least one payload byte + one parent-pointer byte per record
        assert container.data_size_bytes() >= 2 * len(WORDS)

    def test_uncompressed_size(self):
        container = make_container(WORDS)
        assert container.uncompressed_size_bytes() == \
            sum(len(w) for w in WORDS)

    def test_compression_shrinks_repetitive_values(self):
        values = ["the same sentence again and again"] * 50
        container = make_container(values)
        assert (container.data_size_bytes() - 4 * len(values)
                < container.uncompressed_size_bytes() / 2)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.text(alphabet="abcde", max_size=8), min_size=1,
                max_size=30),
       st.text(alphabet="abcde", max_size=4),
       st.text(alphabet="abcde", max_size=4))
def test_interval_matches_filter_model(values, low, high):
    container = make_container(values)
    low, high = min(low, high), max(low, high)
    codec = container.codec
    got = sorted(codec.decode(cv)
                 for _, cv in container.interval_search(low, high))
    assert got == sorted(v for v in values if low <= v <= high)


_FOLDING = "abAB ßsSİiıΣσς😀"


@settings(deadline=None, max_examples=60)
@given(st.lists(st.text(alphabet=_FOLDING, max_size=10), min_size=1,
                max_size=20),
       st.text(alphabet=_FOLDING, min_size=1, max_size=5))
def test_substring_candidates_are_a_superset(values, needle):
    container = make_container(values)
    found = container.substring_candidates(needle)
    if found is None:
        assert len(needle.casefold()) < 3
        return
    decoded = [v for _, v in container.scan_decoded()]
    for slot, value in enumerate(decoded):
        if needle in value or needle.lower() in value.lower():
            assert slot in found, (value, needle)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.text(alphabet="ab" + _FOLDING, max_size=12),
                min_size=1, max_size=20),
       st.text(alphabet="ab" + _FOLDING, min_size=3, max_size=6))
def test_substring_slots_are_exact(values, needle):
    container = make_container(values)
    decoded = [v for _, v in container.scan_decoded()]
    assert container.substring_slots(needle).tolist() == \
        [slot for slot, value in enumerate(decoded) if needle in value]
