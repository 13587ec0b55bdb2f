"""Unit and property tests for bit-level I/O."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptDataError
from repro.util.bits import BitReader, BitWriter, bits_to_bytes, bytes_to_bits


class TestBitWriter:
    def test_empty_writer(self):
        writer = BitWriter()
        assert writer.getvalue() == b""
        assert writer.bit_length == 0

    def test_single_bit(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.getvalue() == b"\x80"
        assert writer.bit_length == 1

    def test_full_byte(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 0, 1, 0, 1, 0):
            writer.write_bit(bit)
        assert writer.getvalue() == b"\xaa"

    def test_write_bits_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == b"\xa0"

    def test_pad_bit_one(self):
        writer = BitWriter()
        writer.write_bit(0)
        assert writer.getvalue(pad_bit=1) == b"\x7f"

    def test_write_bitstring(self):
        writer = BitWriter()
        writer.write_bitstring("1100")
        assert writer.getvalue() == b"\xc0"
        assert writer.bit_length == 4

    def test_len(self):
        writer = BitWriter()
        writer.write_bits(0, 13)
        assert len(writer) == 13


class TestBitReader:
    def test_read_bits_roundtrip(self):
        writer = BitWriter()
        writer.write_bits(0x2BD, 10)
        reader = BitReader(writer.getvalue(), 10)
        assert reader.read_bits(10) == 0x2BD

    def test_exhaustion_raises(self):
        reader = BitReader(b"\x80", 1)
        reader.read_bit()
        with pytest.raises(CorruptDataError):
            reader.read_bit()

    def test_declared_length_too_long(self):
        with pytest.raises(CorruptDataError):
            BitReader(b"\x00", 9)

    def test_peek_does_not_consume(self):
        reader = BitReader(b"\x80", 1)
        assert reader.peek_bit() == 1
        assert reader.read_bit() == 1
        assert reader.peek_bit() is None

    def test_remaining(self):
        reader = BitReader(b"\xff", 5)
        reader.read_bits(2)
        assert reader.remaining == 3


@given(st.text(alphabet="01", max_size=200))
def test_bits_bytes_roundtrip(bits):
    data = bits_to_bytes(bits)
    assert bytes_to_bits(data, len(bits)) == bits


@given(st.lists(st.integers(0, 1), max_size=300))
def test_writer_reader_roundtrip(bits):
    writer = BitWriter()
    for bit in bits:
        writer.write_bit(bit)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    assert [reader.read_bit() for _ in bits] == bits


class ReferenceBitWriter:
    """One bit per step: what ``BitWriter`` must keep producing."""

    def __init__(self):
        self.bits = []

    def write_bit(self, bit):
        self.bits.append(bit & 1)

    def write_bits(self, value, width):
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_bitstring(self, bits):
        for ch in bits:
            self.write_bit(1 if ch == "1" else 0)

    def getvalue(self, pad_bit=0):
        padded = self.bits + [pad_bit] * (-len(self.bits) % 8)
        return bytes(int("".join(map(str, padded[i:i + 8])), 2)
                     for i in range(0, len(padded), 8))


writes = st.one_of(
    st.tuples(st.just("write_bit"), st.integers(0, 1)),
    st.tuples(st.just("write_bitstring"),
              st.text(alphabet="01", max_size=20)),
    st.integers(0, 130).flatmap(lambda width: st.tuples(
        st.just("write_bits"),
        # wider than ``width`` too: the excess high bits are dropped
        st.integers(0, (1 << width + 3) - 1), st.just(width))))


@given(st.lists(writes, max_size=40))
def test_write_bits_matches_bit_by_bit_reference(operations):
    writer, reference = BitWriter(), ReferenceBitWriter()
    for name, *arguments in operations:
        getattr(writer, name)(*arguments)
        getattr(reference, name)(*arguments)
        assert writer.bit_length == len(writer) == len(reference.bits)
    for pad_bit in (0, 1):
        assert writer.getvalue(pad_bit) == reference.getvalue(pad_bit)


@pytest.mark.parametrize("width", range(131))
def test_write_bits_every_width_at_every_alignment(width):
    value = (0xA5C3_96F0_1234_5678_9ABC_DEF0_0FED_CBA9_8765 >> 3) \
        & ((1 << width) - 1)
    for lead in range(8):
        writer, reference = BitWriter(), ReferenceBitWriter()
        for target in (writer, reference):
            target.write_bitstring("1" * lead)
            target.write_bits(value, width)
            target.write_bit(1)
        assert len(writer) == lead + width + 1
        for pad_bit in (0, 1):
            assert writer.getvalue(pad_bit) == reference.getvalue(pad_bit)
