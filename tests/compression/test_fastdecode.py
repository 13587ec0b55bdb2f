"""Tests for the table-driven prefix decoder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CompressedValue
from repro.compression.fastdecode import PrefixDecoder
from repro.compression.huffman import (
    canonical_codes,
    code_lengths_from_frequencies,
)
from repro.errors import CorruptDataError
from repro.util.bits import BitWriter


def encode_with(codes, symbols):
    writer = BitWriter()
    for symbol in symbols:
        code, length = codes[symbol]
        writer.write_bits(code, length)
    return CompressedValue(writer.getvalue(), writer.bit_length)


class TestPrefixDecoder:
    CODES = {"a": (0b0, 1), "b": (0b10, 2), "c": (0b11, 2)}

    def decoder(self, codes=None):
        codes = codes or self.CODES
        return PrefixDecoder({(c, l): s for s, (c, l) in codes.items()})

    def test_roundtrip(self):
        decoder = self.decoder()
        value = encode_with(self.CODES, "abcabcba")
        assert decoder.decode(value) == list("abcabcba")

    def test_empty(self):
        assert self.decoder().decode(CompressedValue(b"", 0)) == []

    def test_truncated_raises(self):
        decoder = self.decoder()
        value = encode_with(self.CODES, "b")
        with pytest.raises(CorruptDataError):
            decoder.decode(CompressedValue(value.data, 1))

    def test_long_codes_beyond_table(self):
        # Codes longer than the 12-bit table exercise the slow path.
        lengths = {chr(97 + i): max(1, i) for i in range(1, 18)}
        # Build a valid prefix code via the canonical constructor.
        freqs = {chr(97 + i): 1 << (20 - i) for i in range(18)}
        code_lengths = code_lengths_from_frequencies(freqs)
        codes = canonical_codes(code_lengths)
        decoder = PrefixDecoder(
            {(c, l): s for s, (c, l) in codes.items()})
        text = "".join(sorted(freqs)) * 3
        assert decoder.decode(encode_with(codes, text)) == list(text)
        assert lengths  # silence unused warning

    def test_single_symbol_code(self):
        decoder = PrefixDecoder({(0, 1): "x"})
        value = encode_with({"x": (0, 1)}, "xxxx")
        assert decoder.decode(value) == ["x", "x", "x", "x"]


@settings(deadline=None, max_examples=60)
@given(st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=1),
    st.integers(1, 1_000_000), min_size=2, max_size=8),
    st.text(alphabet="abcdefgh", max_size=60))
def test_matches_canonical_huffman(freqs, text):
    """Fast decode == encode inverse for arbitrary canonical codes."""
    text = "".join(ch for ch in text if ch in freqs)
    code_lengths = code_lengths_from_frequencies(freqs)
    codes = canonical_codes(code_lengths)
    decoder = PrefixDecoder({(c, l): s for s, (c, l) in codes.items()})
    value = encode_with(codes, text)
    assert decoder.decode(value) == list(text)


@pytest.mark.parametrize("name", ("huffman", "hutucker", "alm"))
def test_bits_beyond_the_data_are_corrupt(name):
    """A value claiming more bits than its bytes hold must not decode:
    the decoder used to read on into its own zero padding and invent
    symbols ("hello" with 64 extra bits came back as "hellolllll...")."""
    from repro.compression.registry import train_codec
    codec = train_codec(name, ["hello world", "help", "hollow", "aaaa"])
    encoded = codec.encode("hello")
    assert codec.decode(encoded) == "hello"
    for bits in (8 * len(encoded.data) + 1, encoded.bits + 64):
        with pytest.raises(CorruptDataError,
                           match="truncated code sequence"):
            codec.decode(CompressedValue(encoded.data, bits))


def test_long_code_cut_short_is_invalid():
    """The slow path keeps its own message: a code word longer than
    the table's 12 bits, cut before its end, matches no symbol."""
    freqs = {chr(97 + i): 1 << (20 - i) for i in range(18)}
    codes = canonical_codes(code_lengths_from_frequencies(freqs))
    decoder = PrefixDecoder({(c, l): s for s, (c, l) in codes.items()})
    symbol = max(codes, key=lambda s: codes[s][1])
    assert codes[symbol][1] > 12
    value = encode_with(codes, symbol)
    with pytest.raises(CorruptDataError, match="invalid code sequence"):
        decoder.decode(CompressedValue(value.data, value.bits - 1))
