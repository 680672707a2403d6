"""Byte-identity gate for the columnar chunk path.

The reference functions below are the per-point loops the column path
replaced (chunking one point at a time, ``Digest.add_point`` with a linear bin
search, one ``encode_signed_varint`` per field).  The column path must produce
the same windows, the same payload bytes from every codec and the same digest
vectors, since those bytes are the storage and wire format.

The read path is held to the same standard: the column decoders must return
the points the per-point ``decode_signed_varint`` loops returned, or raise
the same exception, on any payload — valid, truncated, padded, non-canonical
or over-long.
"""

from __future__ import annotations

import zlib
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.chunk import ChunkBuilder
from repro.timeseries.compression import (
    available_codecs,
    deserialize_points,
    get_codec,
    serialize_points,
)
from repro.timeseries.digest import Digest, DigestConfig, HistogramConfig
from repro.timeseries.point import DataPoint, point_columns
from repro.timeseries.stream import StreamConfig
from repro.util.encoding import (
    decode_signed_varint,
    decode_varint,
    encode_signed_varint,
    encode_varint,
    pack_varint_list,
    unpack_varint_list,
)

HISTOGRAM = HistogramConfig(boundaries=(-1000, -3, 0, 7, 250, 1 << 40))
DIGESTS = (
    DigestConfig(histogram=HISTOGRAM),
    DigestConfig(include_sum_of_squares=False),
    DigestConfig(include_sum=False, include_count=False, histogram=HistogramConfig((0,))),
)


# -- reference implementations: the per-point loops -------------------------------------


def reference_serialize(points: List[DataPoint]) -> bytes:
    out = bytearray(encode_varint(len(points)))
    for point in points:
        out += encode_signed_varint(point.timestamp)
        out += encode_signed_varint(point.value)
    return bytes(out)


def reference_delta(points: List[DataPoint]) -> bytes:
    out = bytearray(encode_varint(len(points)))
    if not points:
        return bytes(out)
    first = points[0]
    out += encode_signed_varint(first.timestamp)
    out += encode_signed_varint(first.value)
    previous_ts = first.timestamp
    previous_delta = 0
    previous_value = first.value
    for point in points[1:]:
        delta = point.timestamp - previous_ts
        out += encode_signed_varint(delta - previous_delta)
        out += encode_signed_varint(point.value - previous_value)
        previous_delta = delta
        previous_ts = point.timestamp
        previous_value = point.value
    return bytes(out)


REFERENCE_PAYLOADS = {
    "none": reference_serialize,
    "zlib": lambda points: zlib.compress(reference_serialize(points), 6),
    "delta": reference_delta,
    "delta-zlib": lambda points: zlib.compress(reference_delta(points), 6),
}


def reference_deserialize(data: bytes) -> List[DataPoint]:
    count, pos = decode_varint(data, 0)
    points: List[DataPoint] = []
    for _ in range(count):
        timestamp, pos = decode_signed_varint(data, pos)
        value, pos = decode_signed_varint(data, pos)
        points.append(DataPoint(timestamp=timestamp, value=value))
    return points


def reference_delta_decompress(payload: bytes) -> List[DataPoint]:
    count, pos = decode_varint(payload, 0)
    if count == 0:
        return []
    timestamp, pos = decode_signed_varint(payload, pos)
    value, pos = decode_signed_varint(payload, pos)
    points = [DataPoint(timestamp=timestamp, value=value)]
    previous_delta = 0
    for _ in range(count - 1):
        delta_of_delta, pos = decode_signed_varint(payload, pos)
        value_delta, pos = decode_signed_varint(payload, pos)
        previous_delta += delta_of_delta
        timestamp += previous_delta
        value += value_delta
        points.append(DataPoint(timestamp=timestamp, value=value))
    return points


def reference_unpack_varint_list(data: bytes, offset: int = 0) -> Tuple[List[int], int]:
    count, pos = decode_varint(data, offset)
    values: List[int] = []
    for _ in range(count):
        value, pos = decode_signed_varint(data, pos)
        values.append(value)
    return values, pos


#: The decoded payload each codec's ``decompress`` must match, by reference.
REFERENCE_DECODERS = {
    "none": reference_deserialize,
    "zlib": reference_deserialize,
    "delta": reference_delta_decompress,
    "delta-zlib": reference_delta_decompress,
}


def reference_bin_of(histogram: HistogramConfig, value: int) -> int:
    for index, edge in enumerate(histogram.boundaries):
        if value < edge:
            return index
    return len(histogram.boundaries)


def reference_digest(config: DigestConfig, points: List[DataPoint]) -> List[int]:
    values = [0] * config.width
    for point in points:
        offset = 0
        if config.include_sum:
            values[offset] += point.value
            offset += 1
        if config.include_count:
            values[offset] += 1
            offset += 1
        if config.include_sum_of_squares:
            values[offset] += point.value * point.value
            offset += 1
        if config.histogram.num_bins:
            values[offset + reference_bin_of(config.histogram, point.value)] += 1
    return values


def reference_chunks(config: StreamConfig, points: List[DataPoint]) -> List[Tuple[int, List[DataPoint]]]:
    """Point-at-a-time windowing: ``(window, points)``, empty windows included."""
    chunks: List[Tuple[int, List[DataPoint]]] = []
    current = None
    pending: List[DataPoint] = []
    for point in points:
        window = config.window_of(point.timestamp)
        if current is None:
            current = window
        elif window != current:
            chunks.append((current, pending))
            chunks.extend((empty, []) for empty in range(current + 1, window))
            current, pending = window, []
        pending.append(point)
    if current is not None:
        chunks.append((current, pending))
    return chunks


# -- strategies ---------------------------------------------------------------------------

VALUES = st.one_of(
    st.integers(-64, 63),  # one-byte varints
    st.integers(-(2**20), 2**20),  # several bytes
    st.integers(-(2**70), 2**70),  # beyond the 64-bit ring and the lookup table
)


@st.composite
def point_streams(draw):
    """``(interval, points, cuts)``: a sorted stream and where to split it into batches."""
    interval = draw(st.sampled_from([1, 7, 100, 1_000]))
    gaps = st.one_of(
        st.just(0),  # duplicate timestamps
        st.integers(1, 40),
        st.integers(interval, 6 * interval),  # skips windows: empty chunks
    )
    timestamps = [draw(st.integers(0, 2**66))]
    for gap in draw(st.lists(gaps, max_size=80)):
        timestamps.append(timestamps[-1] + gap)
    values = draw(st.lists(VALUES, min_size=len(timestamps), max_size=len(timestamps)))
    points = [DataPoint(t, v) for t, v in zip(timestamps, values)]
    cuts = sorted(draw(st.lists(st.integers(0, len(points)), max_size=4)))
    return interval, points, cuts


def _assert_chunk_identical(chunk, window, points, digest_config):
    assert chunk.window_index == window
    assert chunk.points == points
    assert chunk.digest.values == reference_digest(digest_config, points)
    for name in available_codecs():
        assert get_codec(name).compress(chunk.timestamps, chunk.values) == REFERENCE_PAYLOADS[name](points)


@given(point_streams(), st.sampled_from(DIGESTS))
@settings(max_examples=150, deadline=None)
def test_column_path_matches_per_point_reference(stream, digest_config):
    interval, points, cuts = stream
    config = StreamConfig(chunk_interval=interval, start_time=0, digest=digest_config)
    builder = ChunkBuilder(config=config)
    chunks = []
    for low, high in zip([0] + cuts, cuts + [len(points)]):
        chunks += builder.extend(*point_columns(points[low:high]))
    chunks += builder.flush()
    expected = reference_chunks(config, points)
    assert len(chunks) == len(expected)
    for chunk, (window, window_points) in zip(chunks, expected):
        _assert_chunk_identical(chunk, window, window_points, digest_config)


@given(point_streams(), st.sampled_from(DIGESTS))
@settings(max_examples=60, deadline=None)
def test_point_list_adapters_match_reference(stream, digest_config):
    _interval, points, _cuts = stream
    assert serialize_points(points) == reference_serialize(points)
    assert Digest.of_points(digest_config, points).values == reference_digest(digest_config, points)
    for name in available_codecs():
        assert get_codec(name).compress_points(points) == REFERENCE_PAYLOADS[name](points)


EDGE_VALUES = sorted(
    {sign * magnitude for n in range(70) for magnitude in (1 << n, (1 << n) - 1) for sign in (1, -1)}
)


@pytest.mark.parametrize("name", available_codecs())
@pytest.mark.parametrize(
    "points",
    [
        [],
        [DataPoint(0, 0)],
        [DataPoint(123_456_789, -42)],
        [DataPoint(1 << 62, (1 << 64) - 1)],
        [DataPoint(n, value) for n, value in enumerate(EDGE_VALUES)],
        [DataPoint(1 << n, -(1 << n)) for n in range(70)],
    ],
    ids=["empty", "zero", "single", "single-large", "every-edge-value", "every-power-of-two"],
)
def test_edge_chunks_match_reference(name, points):
    assert get_codec(name).compress_points(points) == REFERENCE_PAYLOADS[name](points)
    for config in DIGESTS:
        assert Digest.of_points(config, points).values == reference_digest(config, points)


# -- read path: the column decoders against the per-point loops -----------------------------


def _outcome(decode, data: bytes, *args):
    """A decoder's result, typed item by item, or the type and message of
    what it raised."""
    try:
        result = decode(data, *args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):  # unpack_varint_list: (values, next_offset)
        values, end = result
        return [(type(value), value) for value in values], end
    return [(type(point), point) for point in result]


def _assert_decoders_match(raw: bytes) -> None:
    """Every column decoder agrees with its per-point reference on ``raw``.

    ``raw`` is an uncompressed payload; the zlib codecs see it deflated.
    """
    assert _outcome(deserialize_points, raw) == _outcome(reference_deserialize, raw)
    for offset in (0, 1):
        assert _outcome(unpack_varint_list, raw, offset) == _outcome(
            reference_unpack_varint_list, raw, offset
        )
    for name in available_codecs():
        payload = zlib.compress(raw) if "zlib" in name else raw
        assert _outcome(get_codec(name).decompress, payload) == _outcome(
            REFERENCE_DECODERS[name], raw
        ), name


def _padded(value: int, width: int) -> bytes:
    """A non-canonical varint: ``value`` spread over ``width`` bytes."""
    code = bytearray(encode_signed_varint(value))
    while len(code) < width:
        code[-1] |= 0x80
        code.append(0)
    return bytes(code)


#: One varint token each: canonical, non-canonical, the longest accepted
#: (10 bytes), over-long (11 bytes) and unterminated.
TOKENS = st.one_of(
    VALUES.map(encode_signed_varint),
    st.builds(_padded, st.integers(-64, 63), st.integers(2, 10)),
    st.just(b"\xff" * 9 + b"\x7f"),
    st.just(b"\xff" * 10 + b"\x01"),
    st.binary(min_size=1, max_size=3).map(lambda tail: b"\x80" * len(tail) + tail),
)


@st.composite
def raw_payloads(draw):
    """A count prefix and varint tokens, cut short or padded at the end."""
    tokens = draw(st.lists(TOKENS, max_size=24))
    count = draw(st.one_of(st.just(len(tokens) // 2), st.integers(0, 16)))
    body = encode_varint(count) + b"".join(tokens)
    cut = draw(st.integers(0, 3))
    if cut:
        body = body[:-cut]
    return body + draw(st.binary(max_size=4))


@given(raw_payloads())
@settings(max_examples=400, deadline=None)
def test_column_decoders_match_reference_on_token_streams(raw):
    _assert_decoders_match(raw)


@given(st.binary(max_size=48))
@settings(max_examples=300, deadline=None)
def test_column_decoders_match_reference_on_arbitrary_bytes(raw):
    _assert_decoders_match(raw)


@given(point_streams())
@settings(max_examples=100, deadline=None)
def test_column_decoders_match_reference_on_encoded_streams(stream):
    _interval, points, _cuts = stream
    for encode in (reference_serialize, reference_delta):
        _assert_decoders_match(encode(points))
    values = [point.value for point in points]
    packed = pack_varint_list(values)
    assert _outcome(unpack_varint_list, packed) == _outcome(reference_unpack_varint_list, packed)


EDGE_POINTS = [
    [],
    [DataPoint(0, 0)],
    [DataPoint(-5, 1 << 69)],
    [DataPoint(n, value) for n, value in enumerate(EDGE_VALUES)],
    [DataPoint(value, -value) for value in EDGE_VALUES],
]


@pytest.mark.parametrize("points", EDGE_POINTS, ids=["empty", "zero", "single", "edge-values", "edge-timestamps"])
def test_edge_payloads_decode_like_reference(points):
    for encode in (reference_serialize, reference_delta):
        raw = encode(points)
        _assert_decoders_match(raw)
        _assert_decoders_match(raw + b"\x05\x80\xff")  # trailing bytes are not read
        if raw[1:]:
            _assert_decoders_match(raw[:-1])  # truncated


@pytest.mark.parametrize(
    "raw, expected",
    [
        (encode_varint(1) + b"\x80\x00" + b"\x02", [DataPoint(0, 1)]),  # non-canonical 0
        (encode_varint(1) + b"\xff" * 9 + b"\x7f" + b"\x00", [DataPoint(-(1 << 69), 0)]),
        (encode_varint(1) + b"\xff" * 10 + b"\x01" + b"\x00", (ValueError, "varint too long")),
        (encode_varint(1) + b"\xff" * 10, (ValueError, "truncated varint")),
        (encode_varint(2) + b"\x02\x04", (ValueError, "truncated varint")),
    ],
    ids=["non-canonical", "ten-byte", "eleven-byte", "unterminated", "short"],
)
def test_hand_built_payloads(raw, expected):
    if isinstance(expected, list):
        expected = [(DataPoint, point) for point in expected]
    assert _outcome(deserialize_points, raw) == expected
    _assert_decoders_match(raw)
