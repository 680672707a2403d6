"""Tests for the low-level binary encodings."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.timeseries.compression import available_codecs, get_codec
from repro.timeseries.point import DataPoint
from repro.util.encoding import (
    decode_signed_varint,
    decode_varint,
    decode_zigzag,
    encode_signed_varint,
    encode_varint,
    encode_zigzag,
    from_u64_signed,
    int_from_bytes,
    int_to_bytes,
    pack_varint_list,
    to_u64,
    unpack_varint_list,
)


class TestVarint:
    def test_zero(self):
        assert encode_varint(0) == b"\x00"
        assert decode_varint(b"\x00") == (0, 1)

    def test_single_byte_boundary(self):
        assert encode_varint(127) == b"\x7f"
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_input(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            decode_varint(b"\xff" * 11)

    def test_decode_with_offset(self):
        blob = b"\x05" + encode_varint(300)
        value, pos = decode_varint(blob, 1)
        assert value == 300
        assert pos == len(blob)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip(self, value):
        assert decode_varint(encode_varint(value))[0] == value


#: ``±2^n`` and ``±(2^n - 1)`` for every ``n ≤ 69``.
POWER_EDGES = sorted(
    {sign * magnitude for n in range(70) for magnitude in (1 << n, (1 << n) - 1) for sign in (1, -1)}
)


class TestZigzag:
    @pytest.mark.parametrize(
        "signed,unsigned", [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (2147483647, 4294967294)]
    )
    def test_known_mappings(self, signed, unsigned):
        assert encode_zigzag(signed) == unsigned
        assert decode_zigzag(unsigned) == signed

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip(self, value):
        assert decode_zigzag(encode_zigzag(value)) == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_signed_varint_roundtrip(self, value):
        assert decode_signed_varint(encode_signed_varint(value))[0] == value

    def test_small_magnitudes_stay_small(self):
        assert len(encode_signed_varint(-3)) == 1
        assert len(encode_signed_varint(3)) == 1

    @pytest.mark.parametrize("value", POWER_EDGES)
    def test_power_of_two_edges_roundtrip(self, value):
        assert decode_zigzag(encode_zigzag(value)) == value
        encoded = encode_signed_varint(value)
        if encode_zigzag(value) >> 70:
            # Needs an 11th varint byte, which the bounded decoder refuses.
            with pytest.raises(ValueError):
                decode_signed_varint(encoded)
        else:
            assert decode_signed_varint(encoded) == (value, len(encoded))

    def test_nonnegative_zigzag_is_a_shift(self):
        for n in range(70):
            assert encode_zigzag(1 << n) == 1 << (n + 1)
            assert encode_zigzag((1 << n) - 1) == ((1 << n) - 1) << 1

    @pytest.mark.parametrize("codec_name", available_codecs())
    def test_two_point_chunks_roundtrip_through_every_codec(self, codec_name):
        codec = get_codec(codec_name)
        for value in POWER_EDGES:
            if encode_zigzag(value) >> 70:
                continue
            timestamp = max(value, 0)
            for points in (
                [DataPoint(0, value), DataPoint(1, value)],
                [DataPoint(timestamp, 0), DataPoint(timestamp, value)],
            ):
                assert codec.decompress(codec.compress_points(points)) == points, value


class TestVarintList:
    def test_empty(self):
        assert unpack_varint_list(pack_varint_list([]))[0] == []

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=50))
    def test_roundtrip(self, values):
        assert unpack_varint_list(pack_varint_list(values))[0] == values


class TestFixedWidth:
    def test_int_bytes_roundtrip(self):
        assert int_from_bytes(int_to_bytes(123456789, 8)) == 123456789

    def test_u64_wrapping(self):
        assert to_u64(2**64 + 5) == 5
        assert to_u64(-1) == 2**64 - 1

    def test_signed_reinterpretation(self):
        assert from_u64_signed(2**64 - 1) == -1
        assert from_u64_signed(5) == 5
        assert from_u64_signed(2**63) == -(2**63)
