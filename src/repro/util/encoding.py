"""Low-level binary encodings.

These are the building blocks of the chunk serialization format and the
wire protocol: unsigned LEB128 varints, zigzag encoding for signed deltas,
and fixed-width big-endian integer conversions.

Chunk payloads encode whole integer columns at once
(:func:`signed_varints`): the varints of every zigzag value below
``2^14`` — everything that fits in one or two bytes — are looked up in a
table built at import, and only larger values go through
:func:`encode_varint`.
"""

from __future__ import annotations

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
    values: List[int] = []
    for _ in range(count):
        value, pos = decode_signed_varint(data, pos)
        values.append(value)
    return values, pos


def to_u64(value: int) -> int:
    """Reduce an arbitrary integer into the unsigned 64-bit ring (mod 2^64)."""
    return value & _MASK_64


def from_u64_signed(value: int) -> int:
    """Interpret an unsigned 64-bit value as a two's-complement signed int."""
    value &= _MASK_64
    return value - (1 << 64) if value >= (1 << 63) else value
