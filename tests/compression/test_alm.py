"""Tests for the ALM order-preserving dictionary codec."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import alm
from repro.compression.alm import ALMCodec, select_tokens
from repro.compression.serialization import (
    deserialize_codec,
    serialize_codec,
)
from repro.errors import CodecDomainError

CORPUS = ["there is a tide in the affairs of men",
          "their hearts are in the right place",
          "these are the times that try souls",
          "the theory of the these there their"]


class TestTokenSelection:
    def test_frequent_substrings_found(self):
        tokens = select_tokens(CORPUS, max_tokens=30)
        assert any("the" in t for t in tokens)

    def test_cap_respected(self):
        assert len(select_tokens(CORPUS, max_tokens=5)) <= 5

    def test_empty_corpus(self):
        assert select_tokens([]) == []


class TestPaperExample:
    """The 'the/there/their/these' construction from Figure 2."""

    def test_interval_symbols_order(self):
        codec = ALMCodec(list("abcdefghijlmnorstuvz") + ["the", "there"])
        # their = the + ir; there = there; these = the + se.
        their = codec.encode("their")
        there = codec.encode("there")
        these = codec.encode("these")
        assert their < there < these

    def test_token_exactly_equal(self):
        codec = ALMCodec(list("aehrst") + ["the", "there"])
        assert codec.encode("the") < codec.encode("there")
        assert codec.decode(codec.encode("there")) == "there"

    def test_segmentation_uses_longest_match(self):
        codec = ALMCodec(list("aehirst") + ["the", "there"])
        # "there" must be one token, not the + r + e.
        assert codec.encode("there").bits <= codec.encode("theri").bits


class TestCodec:
    def test_roundtrip(self):
        codec = ALMCodec.train(CORPUS)
        for value in CORPUS:
            assert codec.decode(codec.encode(value)) == value

    def test_empty_string(self):
        codec = ALMCodec.train(CORPUS)
        assert codec.decode(codec.encode("")) == ""

    def test_order_preserved_on_corpus(self):
        codec = ALMCodec.train(CORPUS)
        ordered = sorted(CORPUS)
        encoded = [codec.encode(v) for v in ordered]
        assert encoded == sorted(encoded)

    def test_dictionary_beats_char_codes_on_repetitive_text(self):
        values = ["the cat and the dog and the bird"] * 4
        trained = ALMCodec.train(values)
        naive = ALMCodec(sorted({c for v in values for c in v}))
        assert (trained.encode(values[0]).bits
                < naive.encode(values[0]).bits)

    def test_unseen_character(self):
        codec = ALMCodec.train(CORPUS)
        with pytest.raises(CodecDomainError):
            codec.encode("UPPERCASE")

    def test_determinism(self):
        codec = ALMCodec.train(CORPUS)
        value = CORPUS[0]
        assert codec.encode(value) == codec.encode(value)

    def test_symbol_count_at_least_tokens(self):
        codec = ALMCodec.train(CORPUS)
        assert codec.symbol_count >= len(codec.tokens)

    def test_model_size_positive(self):
        assert ALMCodec.train(CORPUS).model_size_bytes() > 0

    def test_rejects_empty_token(self):
        with pytest.raises(ValueError):
            ALMCodec(["a", ""])

    def test_properties_match_paper(self):
        assert ALMCodec.properties.eq
        assert ALMCodec.properties.ineq
        assert not ALMCodec.properties.wild

    def test_decompression_cheaper_than_huffman(self):
        from repro.compression.huffman import HuffmanCodec
        assert ALMCodec.decompression_cost < HuffmanCodec.decompression_cost


@settings(deadline=None, max_examples=50)
@given(st.lists(st.text(alphabet="abct he", max_size=25), min_size=1,
                max_size=10))
def test_roundtrip_property(values):
    codec = ALMCodec.train(values)
    for value in values:
        assert codec.decode(codec.encode(value)) == value


@settings(deadline=None, max_examples=50)
@given(st.lists(st.text(alphabet="abc", max_size=15), min_size=2,
                max_size=8))
def test_order_property(values):
    codec = ALMCodec.train(values)
    encoded = {v: codec.encode(v) for v in values}
    for a in values:
        for b in values:
            assert (encoded[a] < encoded[b]) == (a < b), (a, b)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.sampled_from(
    ["the", "there", "their", "these", "them", "then", "tha", "thf",
     "t", "th", "thereafter", "x", "theyx"]), min_size=2, max_size=10))
def test_order_property_nested_tokens(values):
    """Order preservation with deliberately nested dictionary tokens."""
    codec = ALMCodec(list("abcdefghijklmnopqrstuvwxyz")
                     + ["the", "there", "them", "these"])
    encoded = {v: codec.encode(v) for v in values}
    for a in values:
        for b in values:
            assert (encoded[a] < encoded[b]) == (a < b), (a, b)


# -- exact equivalence with the straight-line miner -------------------------


def reference_select_tokens(values, max_tokens):
    """The miner as written before it was made to run in bulk (one
    ``Counter`` update per character and n-gram length): the reference
    every token list — hence every stored byte — must keep matching."""
    word_counts = Counter()
    ngram_counts = Counter()
    budget = alm._TRAINING_CHAR_BUDGET
    for value in values:
        if budget <= 0:
            break
        budget -= len(value)
        pieces = value.split(" ")
        for i, piece in enumerate(pieces):
            if not piece:
                continue
            if i + 1 < len(pieces):
                word_counts[piece + " "] += 1
            else:
                word_counts[piece] += 1
        for n in alm._NGRAM_LENGTHS:
            if len(value) < n:
                continue
            for i in range(len(value) - n + 1):
                ngram_counts[value[i:i + n]] += 1
    scored = [((len(tok) - 1) * cnt, tok)
              for tok, cnt in word_counts.items()
              if cnt >= 2 and len(tok) > 1]
    scored += [((len(tok) - 1) * cnt * 0.1, tok)
               for tok, cnt in ngram_counts.items()
               if cnt >= 2 and len(tok) > 1 and tok not in word_counts]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [tok for _, tok in scored[:max_tokens]]


MAX_TOKENS = (0, 1, 8, 768)

#: few distinct characters, so n-grams repeat, scores tie and words
#: coincide with n-grams; a non-BMP character and runs of spaces ride in.
tight_text = st.text(alphabet="ab \U0001f600", max_size=40)
values_strategy = st.lists(
    st.one_of(tight_text, st.text(max_size=30), st.just(""),
              st.sampled_from(["  ", "    a  ", "abab abab", "the there"])),
    max_size=12).flatmap(
        lambda values: st.permutations(values + values[:3]))


@settings(deadline=None, max_examples=200)
@given(values_strategy, st.sampled_from(MAX_TOKENS))
def test_select_tokens_equals_reference(values, max_tokens):
    assert select_tokens(values, max_tokens) == \
        reference_select_tokens(values, max_tokens)


@pytest.mark.parametrize("max_tokens", MAX_TOKENS)
def test_select_tokens_equals_reference_on_prose(max_tokens):
    values = CORPUS * 3 + [v[::-1] for v in CORPUS] + ["", " ", "the"]
    assert select_tokens(values, max_tokens) == \
        reference_select_tokens(values, max_tokens)


def test_select_tokens_ties_break_by_token():
    # "ab", "cd", "ef" all occur twice with equal score; so do the
    # 3- and 4-grams over them: the cut falls inside a run of ties.
    values = ["abcdef", "abcdef"]
    for max_tokens in range(12):
        assert select_tokens(values, max_tokens) == \
            reference_select_tokens(values, max_tokens)


@pytest.mark.parametrize("distinct", [300, 66_000])
def test_select_tokens_wide_alphabet(distinct):
    # More distinct characters than one byte, then two bytes, can rank.
    run = "".join(chr(0x10000 + i) for i in range(distinct))
    values = [run, run[::2], run[:400]]
    assert select_tokens(values, 64) == reference_select_tokens(values, 64)


def test_select_tokens_stops_at_the_training_budget(monkeypatch):
    # The value that crosses the budget is still scanned whole; the
    # ones after it are not, however often they repeat.
    monkeypatch.setattr(alm, "_TRAINING_CHAR_BUDGET", 60)
    values = ["abcabcabc " * 3, "xyzxyz " * 6, "never seen never seen"] * 2
    expected = reference_select_tokens(values, 768)
    assert select_tokens(values, 768) == expected
    assert not any("never" in token for token in expected)
    assert select_tokens(iter(values), 768) == expected


class TestTrainedEqualsRebuilt:
    """``encode`` on the trained codec and on the codec rebuilt from its
    serialized model agree bit for bit, seen values or not."""

    PROBES = ["", "the", "there", "their", "these", "th", "hee",
              "the aa", "the rd", "the rf", "theta", "t", "e r"]

    @pytest.mark.parametrize("values", [
        CORPUS, ["there", "their", "these", "the"] * 2, [""], [],
        ["a"], ["ab ab ab", "ab", "abab"]])
    def test_fixed_corpora(self, values):
        codec, encoded = ALMCodec.train_and_encode(values)
        clone = deserialize_codec(serialize_codec(codec))
        assert encoded == [clone.encode(value) for value in values]
        alphabet = set("".join(values))
        for probe in self.PROBES:
            if set(probe) <= alphabet:
                assert codec.encode(probe) == clone.encode(probe)
                assert clone.decode(codec.encode(probe)) == probe

    def test_gap_intervals_of_the_docstring(self):
        # the/there: "the" owns the gap before and the gap after
        # "there"'s zone, and suffixes land in the right one.
        codec = ALMCodec(list(" adefhrtz") + ["the", "there"])
        clone = ALMCodec.from_code_lengths(codec.tokens,
                                           codec.code_lengths())
        ordered = ["the", "the aa", "the rd", "there", "there z",
                   "the rf", "thez"]
        ordered.sort()
        encoded = [codec.encode(value) for value in ordered]
        assert encoded == sorted(encoded)
        assert encoded == [clone.encode(value) for value in ordered]
        before, inside, after = (codec.encode(v)
                                 for v in ("thea", "there", "thez"))
        assert before < inside < after
        # "t" and "the" each own one gap symbol past their first.
        assert codec.symbol_count == len(codec.tokens) + 2

    def test_deeply_nested_tokens(self):
        # a, aa, aaa, ...: more tokens prefixing one another than the
        # longest-match expression nests groups for.
        depth = 200
        codec = ALMCodec(["a" * k for k in range(1, depth + 1)]
                         + ["b", "a" * 20 + "b", "a" * 150 + "b"])
        clone = ALMCodec.from_code_lengths(codec.tokens,
                                           codec.code_lengths())
        values = sorted(["a" * (depth + 5) + "b", "a" * 150 + "bb",
                         "a" * 149 + "b", "a" * 20 + "b", "a" * 21, "b"])
        encoded = [codec.encode(value) for value in values]
        assert encoded == sorted(encoded)
        assert encoded == [clone.encode(value) for value in values]
        assert [codec.decode(e) for e in encoded] == values

    def test_unknown_character_still_raises(self):
        codec, _ = ALMCodec.train_and_encode(CORPUS)
        clone = deserialize_codec(serialize_codec(codec))
        for broken in (codec, clone):
            with pytest.raises(CodecDomainError, match="'Q'"):
                broken.encode("the Queen")
            assert broken.try_encode("\n") is None

    def test_nothing_per_value_stays_on_the_codec(self):
        values = ["a value seen in training %d" % i for i in range(50)]
        codec, _ = ALMCodec.train_and_encode(values)
        held = [v for v in vars(codec).values()
                if isinstance(v, (dict, list, tuple, set))]
        assert not any(value in container for container in held
                       for value in values)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.text(alphabet="abct he", max_size=25), min_size=1,
                max_size=10),
       st.lists(st.text(alphabet="abct he", max_size=25), max_size=5))
def test_trained_equals_rebuilt_property(values, unseen):
    codec, encoded = ALMCodec.train_and_encode(values)
    clone = deserialize_codec(serialize_codec(codec))
    assert encoded == [codec.encode(value) for value in values]
    assert encoded == [clone.encode(value) for value in values]
    alphabet = set("".join(values))
    for value in unseen:
        if set(value) <= alphabet:
            assert codec.encode(value) == clone.encode(value)
        else:
            with pytest.raises(CodecDomainError):
                codec.encode(value)
