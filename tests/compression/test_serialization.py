"""Codec source-model serialization must be bit-exact."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.registry import STRING_ALGORITHMS, train_codec
from repro.compression.serialization import (
    deserialize_codec,
    serialize_codec,
)
from repro.errors import CorruptDataError, UnknownCodecError

CORPUS = ["the quick brown fox", "jumps over", "the lazy dog",
          "pack my box with five dozen jugs"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", STRING_ALGORITHMS)
    def test_string_codecs_bit_exact(self, name):
        codec = train_codec(name, CORPUS)
        clone = deserialize_codec(serialize_codec(codec))
        for value in CORPUS:
            original = codec.encode(value)
            restored = clone.encode(value)
            assert original == restored, name
            assert clone.decode(original) == value

    def test_integer_codec(self):
        codec = train_codec("integer", ["-5", "1000", "42"])
        clone = deserialize_codec(serialize_codec(codec))
        assert clone.encode("7") == codec.encode("7")
        assert clone.decode(codec.encode("-5")) == "-5"

    def test_float_codec(self):
        codec = train_codec("float", ["1.5"])
        clone = deserialize_codec(serialize_codec(codec))
        assert clone.encode("2.25") == codec.encode("2.25")

    def test_blob_codecs(self):
        for name in ("zlib", "bzip2"):
            codec = train_codec(name, [])
            clone = deserialize_codec(serialize_codec(codec))
            chunk = b"hello " * 50
            assert clone.decompress_chunk(
                codec.compress_chunk(chunk)) == chunk

    def test_alm_interval_symbols_preserved(self):
        # The paper's nested-token case must survive serialization.
        codec = train_codec("alm", ["there", "their", "these", "the"])
        clone = deserialize_codec(serialize_codec(codec))
        for value in ("the", "there", "their", "these", "th", "hee"):
            assert clone.encode(value) == codec.encode(value)


class TestErrors:
    def test_unknown_type_tag(self):
        with pytest.raises(CorruptDataError):
            deserialize_codec(b"\xff")

    def test_truncated(self):
        codec = train_codec("huffman", CORPUS)
        data = serialize_codec(codec)
        with pytest.raises(CorruptDataError):
            deserialize_codec(data[: len(data) // 2])

    def _alm_blob(self, tokens, lengths):
        from repro.util.bytestream import ByteWriter
        writer = ByteWriter()
        writer.byte(4)  # the ALM type tag
        writer.varint(len(tokens))
        for token in tokens:
            writer.string(token)
        writer.varint(len(lengths))
        for length in lengths:
            writer.varint(length)
        return writer.getvalue()

    @pytest.mark.parametrize("lengths", [
        [1, 2],              # fewer lengths than interval symbols
        [2, 2, 2, 2],        # more
        [1, 1, 1],           # codes outgrow their length
        [0, 1, 1],           # no codeword is empty
        [2, 2, 40],          # deeper than any tree over three symbols
        [3, 3, 3_000_000],
    ])
    def test_corrupt_alm_lengths_fail_typed(self, lengths):
        with pytest.raises(CorruptDataError):
            deserialize_codec(self._alm_blob(["a", "b", "c"], lengths))

    def test_alm_lengths_validated_whatever_the_table_holds(self):
        # Codewords longer than the decoder's lookup table never enter
        # it; they must be checked all the same.
        tokens = [chr(ord("a") + i) for i in range(20)]
        good = [min(i + 1, 19) for i in range(20)]
        codec = deserialize_codec(self._alm_blob(tokens, good))
        assert codec.decode(codec.encode("tsa")) == "tsa"
        with pytest.raises(CorruptDataError):
            deserialize_codec(self._alm_blob(tokens, [15] * 19 + [1]))

    def test_unregistered_codec(self):
        from repro.compression.base import Codec

        class Weird(Codec):
            name = "weird"

            @classmethod
            def train(cls, values):
                return cls()

            def encode(self, value):
                raise NotImplementedError

            def decode(self, compressed):
                raise NotImplementedError

            def model_size_bytes(self):
                return 0

        with pytest.raises(UnknownCodecError):
            serialize_codec(Weird())


@settings(deadline=None, max_examples=30)
@given(st.lists(st.text(alphabet="abc def", min_size=1, max_size=12),
                min_size=1, max_size=12))
def test_roundtrip_property(values):
    for name in ("huffman", "alm", "hutucker", "arithmetic"):
        codec = train_codec(name, values)
        clone = deserialize_codec(serialize_codec(codec))
        for value in values:
            assert clone.encode(value) == codec.encode(value)
