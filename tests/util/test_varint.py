"""Tests for varint encoding and size helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptDataError
from repro.util.varint import (
    decode_varint,
    decode_varints,
    delta_sizes,
    encode_varint,
    encode_varints,
    varint_size,
    varint_sizes,
)


class TestVarint:
    def test_small_values_one_byte(self):
        for value in (0, 1, 127):
            assert len(encode_varint(value)) == 1
            assert varint_size(value) == 1

    def test_boundaries(self):
        assert varint_size(128) == 2
        assert varint_size(16383) == 2
        assert varint_size(16384) == 3

    def test_roundtrip(self):
        for value in (0, 1, 127, 128, 300, 10**9):
            data = encode_varint(value)
            decoded, offset = decode_varint(data)
            assert decoded == value
            assert offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_negative_size_estimated(self):
        assert varint_size(-1) == 1
        assert varint_size(-1000) == 2

    def test_truncated_decode(self):
        with pytest.raises(CorruptDataError):
            decode_varint(b"\x80")

    def test_overlong_decode(self):
        with pytest.raises(CorruptDataError):
            decode_varint(b"\xff" * 11)

    def test_decode_with_offset(self):
        data = encode_varint(5) + encode_varint(300)
        value, offset = decode_varint(data, 1)
        assert value == 300 and offset == len(data)


class TestDeltaSizes:
    def test_dense_ascending_is_one_byte_each(self):
        assert delta_sizes(list(range(100, 200))) == 100

    def test_empty(self):
        assert delta_sizes([]) == 0

    def test_first_value_counted_from_zero(self):
        assert delta_sizes([300]) == varint_size(300)


@given(st.integers(0, 2**62))
def test_roundtrip_property(value):
    data = encode_varint(value)
    assert len(data) == varint_size(value)
    assert decode_varint(data)[0] == value


class TestBulkVarints:
    """The bulk codec is the scalar one, value for value."""

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 63 - 1)))
    def test_matches_the_scalar_codec(self, values):
        array = np.array(values, dtype=np.int64)
        data = b"".join(map(encode_varint, values))
        assert encode_varints(array) == data
        assert decode_varints(data).tolist() == values
        assert varint_sizes(array).tolist() == list(map(varint_size, values))

    def test_truncated_and_overlong(self):
        with pytest.raises(CorruptDataError):
            decode_varints(encode_varint(300)[:1])
        with pytest.raises(CorruptDataError):
            decode_varints(b"\x80" * 9 + b"\x01")
