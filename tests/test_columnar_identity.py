"""Byte-identity gate for the columnar chunk path.

The reference functions below are the per-point loops the column path
replaced (chunking one point at a time, ``Digest.add_point`` with a linear bin
search, one ``encode_signed_varint`` per field).  The column path must produce
the same windows, the same payload bytes from every codec and the same digest
vectors, since those bytes are the storage and wire format.
"""

from __future__ import annotations

import zlib
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.chunk import ChunkBuilder
from repro.timeseries.compression import available_codecs, get_codec, serialize_points
from repro.timeseries.digest import Digest, DigestConfig, HistogramConfig
from repro.timeseries.point import DataPoint, point_columns
from repro.timeseries.stream import StreamConfig
from repro.util.encoding import encode_signed_varint, encode_varint

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
