"""Lossless compression codecs for raw chunk payloads (paper §4.1).

TimeCrypt compresses chunk payloads before encrypting them; the paper's
default is zlib, with the note that delta-style encodings work well for
low-precision data.  We implement a small codec family behind a single
interface so the stream configuration can pick per-workload:

* ``none``        — identity (useful as a baseline in ablations)
* ``zlib``        — DEFLATE over the serialized points (paper default)
* ``delta``       — delta-of-delta timestamps + zigzag/varint values
  (Gorilla-style integer compression), good for regular sampling intervals
* ``delta-zlib``  — delta encoding followed by zlib, best of both for most
  monitoring workloads.

A chunk reaches a codec as its two integer columns, timestamps and
fixed-point values.  Every transform works on a whole column: deltas and
delta-of-deltas are pairwise list maps, and :func:`signed_varints` encodes a
column through a lookup table, so no per-point Python runs on the write
path.  :meth:`Codec.compress_points` adapts a point list onto the same path.

Decompression runs the same steps backwards, column at a time:
:func:`signed_varint_column` decodes every varint of the payload in one
pass, ``itertools.accumulate`` rebuilds timestamps and values from their
deltas, and :func:`column_points` zips the two columns into the
:class:`DataPoint` list a codec returns.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from itertools import accumulate, chain, islice
from operator import sub
from typing import Dict, Iterable, List, Sequence, Tuple, Type

from repro.exceptions import ChunkError, ConfigurationError
from repro.timeseries.point import DataPoint, column_points, point_columns
from repro.util.encoding import (
    decode_varint,
    encode_varint,
    signed_varint_column,
    signed_varints,
)


def serialize_columns(timestamps: Sequence[int], values: Sequence[int]) -> bytes:
    """Canonical flat serialization: count, then (timestamp, value) varint pairs."""
    return encode_varint(len(timestamps)) + b"".join(
        signed_varints(chain.from_iterable(zip(timestamps, values)))
    )


def serialize_points(points: Iterable[DataPoint]) -> bytes:
    """:func:`serialize_columns` over a point list."""
    return serialize_columns(*point_columns(points))


def deserialize_points(data: bytes) -> List[DataPoint]:
    """Inverse of :func:`serialize_points`."""
    count, pos = decode_varint(data, 0)
    fields, _end = signed_varint_column(data, pos, 2 * count)
    return column_points(fields[0::2], fields[1::2])


class Codec(ABC):
    """A lossless transform over serialized chunk payloads."""

    name = "abstract"

    @abstractmethod
    def compress(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        """Encode a chunk's timestamp and value columns into a compressed payload."""

    @abstractmethod
    def decompress(self, payload: bytes) -> List[DataPoint]:
        """Recover the exact point list from a compressed payload."""

    def compress_points(self, points: Iterable[DataPoint]) -> bytes:
        """:meth:`compress` over a point list."""
        return self.compress(*point_columns(points))


class NoneCodec(Codec):
    """Identity codec: serialization only."""

    name = "none"

    def compress(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        return serialize_columns(timestamps, values)

    def decompress(self, payload: bytes) -> List[DataPoint]:
        return deserialize_points(payload)


class ZlibCodec(Codec):
    """DEFLATE over the canonical serialization (the paper's default)."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise ConfigurationError("zlib level must be between 0 and 9")
        self._level = level

    def compress(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        return zlib.compress(serialize_columns(timestamps, values), self._level)

    def decompress(self, payload: bytes) -> List[DataPoint]:
        try:
            raw = zlib.decompress(payload)
        except zlib.error as exc:
            raise ChunkError("corrupt zlib chunk payload") from exc
        return deserialize_points(raw)


class DeltaCodec(Codec):
    """Delta-of-delta timestamps and delta values, zigzag/varint packed.

    Monitoring streams have near-constant sampling intervals, so the second
    difference of the timestamps is almost always zero and packs into a
    single byte; values are delta-encoded, which collapses slowly-varying
    metrics (CPU %, heart rate) dramatically.
    """

    name = "delta"

    def compress(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        count = len(timestamps)
        if not count:
            return encode_varint(0)
        first = timestamps[0]
        # t[i] - 2·t[i-1] + t[i-2] for i ≥ 1, with t[-1] = t[0]: the delta
        # before the first point counts as zero.
        delta_of_deltas = [
            current - previous - previous + before
            for before, previous, current in zip(
                chain((first,), timestamps), timestamps, islice(timestamps, 1, None)
            )
        ]
        value_deltas = map(sub, islice(values, 1, None), values)
        pairs = [first, values[0]]
        pairs += chain.from_iterable(zip(delta_of_deltas, value_deltas))
        return encode_varint(count) + b"".join(signed_varints(pairs))

    def decompress(self, payload: bytes) -> List[DataPoint]:
        count, pos = decode_varint(payload, 0)
        if count == 0:
            return []
        fields, _end = signed_varint_column(payload, pos, 2 * count)
        # fields = [t0, v0, dod1, dv1, dod2, dv2, ...]; the delta before the
        # first point is zero, so the deltas are running sums of the dods.
        deltas = accumulate(islice(fields, 2, None, 2))
        timestamps = accumulate(deltas, initial=fields[0])
        values = accumulate(islice(fields, 3, None, 2), initial=fields[1])
        return column_points(timestamps, values)


class DeltaZlibCodec(Codec):
    """Delta encoding followed by zlib."""

    name = "delta-zlib"

    def __init__(self, level: int = 6) -> None:
        self._delta = DeltaCodec()
        self._level = level

    def compress(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        return zlib.compress(self._delta.compress(timestamps, values), self._level)

    def decompress(self, payload: bytes) -> List[DataPoint]:
        try:
            raw = zlib.decompress(payload)
        except zlib.error as exc:
            raise ChunkError("corrupt delta-zlib chunk payload") from exc
        return self._delta.decompress(raw)


_CODECS: Dict[str, Type[Codec]] = {
    NoneCodec.name: NoneCodec,
    ZlibCodec.name: ZlibCodec,
    DeltaCodec.name: DeltaCodec,
    DeltaZlibCodec.name: DeltaZlibCodec,
}


def available_codecs() -> Tuple[str, ...]:
    return tuple(sorted(_CODECS))


def get_codec(name: str) -> Codec:
    """Instantiate a codec by configuration name."""
    try:
        return _CODECS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown compression codec '{name}'; available: {', '.join(available_codecs())}"
        ) from None


def compression_ratio(points: Iterable[DataPoint], codec_name: str) -> float:
    """Ratio of raw serialized size to compressed size (>1 means smaller)."""
    timestamps, values = point_columns(points)
    raw = len(serialize_columns(timestamps, values))
    compressed = len(get_codec(codec_name).compress(timestamps, values))
    return raw / compressed if compressed else float("inf")
