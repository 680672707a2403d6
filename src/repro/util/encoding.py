"""Low-level binary encodings.

These are the building blocks of the chunk serialization format and the
wire protocol: unsigned LEB128 varints, zigzag encoding for signed deltas,
and fixed-width big-endian integer conversions.

Chunk payloads encode and decode whole integer columns at once.
:func:`signed_varints` looks up the varints of every zigzag value below
``2^14`` — everything that fits in one or two bytes — in a table built at
import, and only larger values go through :func:`encode_varint`.
:func:`signed_varint_column` is its inverse: one regular expression splits
the payload into varint tokens, a dict built from the same table maps every
canonical one- and two-byte token to its signed value, and only longer or
non-canonical tokens go through :func:`decode_signed_varint`.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, List, Tuple

_MASK_64 = (1 << 64) - 1


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varint requires a non-negative integer")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode an unsigned LEB128 varint.

    Returns ``(value, next_offset)``. Raises :class:`ValueError` on truncated
    input or on varints longer than 10 bytes (values above 2^70 are rejected
    to bound memory on malicious input).
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        if shift > 63:
            raise ValueError("varint too long")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (small magnitudes stay small).

    ``v ≥ 0`` maps to ``2v`` and ``v < 0`` to ``-2v - 1``, for integers of
    any size.
    """
    return value << 1 if value >= 0 else ~(value << 1)


def decode_zigzag(value: int) -> int:
    """Inverse of :func:`encode_zigzag`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def encode_signed_varint(value: int) -> bytes:
    """Zigzag + varint encode a signed integer."""
    return encode_varint(encode_zigzag(value))


def decode_signed_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a zigzag + varint encoded signed integer."""
    raw, pos = decode_varint(data, offset)
    return decode_zigzag(raw), pos


#: Zigzag values with a precomputed varint: every one- and two-byte varint.
_VARINT_TABLE_SIZE = 1 << 14
_VARINT_TABLE: Tuple[bytes, ...] = tuple(
    bytes((value,)) if value < 0x80 else bytes(((value & 0x7F) | 0x80, value >> 7))
    for value in range(_VARINT_TABLE_SIZE)
)


def signed_varints(values: Iterable[int]) -> List[bytes]:
    """Zigzag + varint encode a column: one ``encode_signed_varint`` per value."""
    table = _VARINT_TABLE
    size = _VARINT_TABLE_SIZE
    # encode_zigzag, inlined: a call per value would cost more than the lookup.
    return [
        table[zigzag] if (zigzag := value << 1 if value >= 0 else ~(value << 1)) < size
        else encode_varint(zigzag)
        for value in values
    ]


class _SignedVarintValues(dict):
    """Canonical short varint → signed value; other varints are decoded on a miss."""

    def __missing__(self, token: bytes) -> int:
        return decode_signed_varint(token)[0]  # not stored: the table stays fixed


#: Inverse of :data:`_VARINT_TABLE`: each canonical short varint → its signed value.
_SIGNED_VARINT_VALUES = _SignedVarintValues(
    zip(
        _VARINT_TABLE,
        # decode_zigzag of 0, 1, 2, 3, ... is 0, -1, 1, -2, ...
        chain.from_iterable(zip(range(_VARINT_TABLE_SIZE // 2), range(-1, -_VARINT_TABLE_SIZE, -1))),
    )
)

#: One varint: any continuation bytes, then the byte that ends it.
_VARINT_TOKEN = re.compile(rb"[\x80-\xff]*[\x00-\x7f]")

#: The longest varint :func:`decode_varint` accepts.
_MAX_VARINT_BYTES = 10


def signed_varint_column(data: bytes, offset: int, count: int) -> Tuple[List[int], int]:
    """Decode ``count`` consecutive zigzag + varint integers from ``offset``.

    Returns ``(values, next_offset)`` and raises what ``count`` calls of
    :func:`decode_signed_varint` would: ``ValueError("truncated varint")``
    when the data ends first, ``ValueError("varint too long")`` on a varint
    past 10 bytes.  Bytes after the last value are not read.
    """
    if count <= 0:
        return [], offset
    # count varints of at most 10 bytes each fit in this window; a longer one
    # leaves the column short.
    window_end = min(len(data), offset + _MAX_VARINT_BYTES * count)
    tokens = _VARINT_TOKEN.findall(data, offset, window_end)
    del tokens[count:]
    values = list(map(_SIGNED_VARINT_VALUES.__getitem__, tokens))
    end = offset + len(b"".join(tokens))
    while len(values) < count:  # over-long or unterminated: the scalar decoder raises
        value, end = decode_signed_varint(data, end)
        values.append(value)
    return values, end


def int_to_bytes(value: int, length: int) -> bytes:
    """Big-endian fixed-width encoding of a non-negative integer."""
    return value.to_bytes(length, "big")


def int_from_bytes(data: bytes) -> int:
    """Big-endian decoding of a non-negative integer."""
    return int.from_bytes(data, "big")


def pack_varint_list(values: Iterable[int]) -> bytes:
    """Pack a sequence of signed integers as length-prefixed signed varints."""
    encoded = signed_varints(values)
    return encode_varint(len(encoded)) + b"".join(encoded)


def unpack_varint_list(data: bytes, offset: int = 0) -> Tuple[List[int], int]:
    """Inverse of :func:`pack_varint_list`."""
    count, pos = decode_varint(data, offset)
    return signed_varint_column(data, pos, count)


def to_u64(value: int) -> int:
    """Reduce an arbitrary integer into the unsigned 64-bit ring (mod 2^64)."""
    return value & _MASK_64


def from_u64_signed(value: int) -> int:
    """Interpret an unsigned 64-bit value as a two's-complement signed int."""
    value &= _MASK_64
    return value - (1 << 64) if value >= (1 << 63) else value
