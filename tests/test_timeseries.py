"""Tests for the time-series data model: points, digests, chunks, streams."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ChunkError, ConfigurationError, OutOfOrderError, QueryError
from repro.timeseries.chunk import Chunk, ChunkBuilder, chunks_from_points
from repro.timeseries.digest import Digest, DigestConfig, HistogramConfig, sum_digests
from repro.timeseries.point import (
    DataPoint,
    column_points,
    decode_value,
    encode_value,
    make_points,
    validate_sorted,
)
from repro.timeseries.stream import StreamConfig, StreamMetadata
from repro.util.timeutil import TimeRange


class TestDataPoint:
    def test_requires_integer_value(self):
        with pytest.raises(TypeError):
            DataPoint(timestamp=0, value=1.5)

    def test_requires_integer_timestamp(self):
        with pytest.raises(TypeError):
            DataPoint(timestamp="0", value=1)

    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_rejects_non_integer_fields(self, bad):
        with pytest.raises(TypeError):
            DataPoint(bad, 1)
        with pytest.raises(TypeError):
            DataPoint(timestamp=1, value=bad)

    def test_ordering_by_timestamp(self):
        assert DataPoint(1, 100) < DataPoint(2, 0)
        assert DataPoint(1, 5) < DataPoint(1, 6)  # ties break on the value
        assert sorted([DataPoint(3, 0), DataPoint(1, 9), DataPoint(1, 2)]) == [
            DataPoint(1, 2), DataPoint(1, 9), DataPoint(3, 0)
        ]

    def test_immutable(self):
        point = DataPoint(1, 2)
        with pytest.raises(AttributeError):
            point.timestamp = 5
        with pytest.raises(AttributeError):
            point.value = 5
        with pytest.raises(AttributeError):
            point.label = "extra"  # slotted: no instance dict
        assert point == DataPoint(1, 2)

    def test_repr_and_fields(self):
        point = DataPoint(timestamp=7, value=-3)
        assert repr(point) == "DataPoint(timestamp=7, value=-3)"
        assert (point.timestamp, point.value) == (7, -3)
        assert hash(point) == hash(DataPoint(7, -3))

    def test_pickle_round_trip(self):
        points = [DataPoint(0, 0), DataPoint(1 << 70, -(1 << 70))]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(points, protocol))
            assert restored == points
            assert all(type(point) is DataPoint for point in restored)

    def test_column_points_match_the_constructor(self):
        timestamps, values = [0, 5, 5, 1 << 66], [-1, 0, 1 << 64, 7]
        built = column_points(timestamps, values)
        assert built == [DataPoint(t, v) for t, v in zip(timestamps, values)]
        assert all(type(point) is DataPoint for point in built)
        assert column_points([], []) == []

    def test_fixed_point_encoding(self):
        assert encode_value(36.62, scale=100) == 3662
        assert decode_value(3662, scale=100) == 36.62
        assert encode_value(5, scale=1) == 5

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            encode_value(1.0, scale=0)
        with pytest.raises(ValueError):
            decode_value(1, scale=0)

    def test_make_points(self):
        points = make_points([0, 10], [1.5, 2.5], scale=10)
        assert points == [DataPoint(0, 15), DataPoint(10, 25)]

    def test_validate_sorted(self):
        ordered = [DataPoint(0, 1), DataPoint(5, 2)]
        assert validate_sorted(ordered) == ordered
        with pytest.raises(ValueError):
            validate_sorted([DataPoint(5, 1), DataPoint(0, 2)])

    @given(st.floats(min_value=-1e6, max_value=1e6), st.integers(1, 10**6))
    def test_fixed_point_roundtrip_error_bounded(self, value, scale):
        encoded = encode_value(value, scale)
        assert abs(decode_value(encoded, scale) - value) <= 0.5 / scale + 1e-9


class TestHistogramConfig:
    def test_bin_assignment(self):
        histogram = HistogramConfig(boundaries=(10, 20, 30))
        assert histogram.num_bins == 4
        assert histogram.bin_of(5) == 0
        assert histogram.bin_of(10) == 1
        assert histogram.bin_of(29) == 2
        assert histogram.bin_of(30) == 3
        assert histogram.bin_of(1000) == 3

    def test_bin_range(self):
        histogram = HistogramConfig(boundaries=(10, 20))
        assert histogram.bin_range(0) == (None, 10)
        assert histogram.bin_range(1) == (10, 20)
        assert histogram.bin_range(2) == (20, None)
        with pytest.raises(QueryError):
            histogram.bin_range(3)

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ConfigurationError):
            HistogramConfig(boundaries=(20, 10))

    def test_duplicate_boundaries_rejected(self):
        with pytest.raises(ConfigurationError):
            HistogramConfig(boundaries=(10, 10))

    def test_empty_histogram(self):
        histogram = HistogramConfig()
        assert histogram.num_bins == 0
        with pytest.raises(QueryError):
            histogram.bin_of(5)


class TestDigestConfig:
    def test_width_and_names(self):
        config = DigestConfig(histogram=HistogramConfig(boundaries=(10, 20)))
        assert config.width == 6
        assert config.component_names == ("sum", "count", "sum_sq", "bin_0", "bin_1", "bin_2")

    def test_supported_operators(self):
        full = DigestConfig(histogram=HistogramConfig(boundaries=(10,)))
        assert set(full.supported_operators()) >= {"sum", "count", "mean", "var", "stdev", "min", "max"}
        minimal = DigestConfig(include_sum_of_squares=False)
        assert "var" not in minimal.supported_operators()
        assert not minimal.supports("histogram")


class TestDigest:
    CONFIG = DigestConfig(histogram=HistogramConfig(boundaries=(10, 20, 30)))

    def _points(self, values):
        return [DataPoint(timestamp=i, value=v) for i, v in enumerate(values)]

    def test_of_points_statistics(self):
        values = [5, 15, 25, 35, 15]
        digest = Digest.of_points(self.CONFIG, self._points(values))
        assert digest.sum == sum(values)
        assert digest.count == len(values)
        assert digest.sum_of_squares == sum(v * v for v in values)
        assert digest.histogram_counts == [1, 2, 1, 1]

    def test_mean_variance_stdev(self):
        values = [10, 20, 30, 40]
        digest = Digest.of_points(self.CONFIG, self._points(values))
        assert digest.mean() == 25
        assert digest.variance() == pytest.approx(125.0)
        assert digest.stdev() == pytest.approx(125.0 ** 0.5)

    def test_min_max_bins(self):
        digest = Digest.of_points(self.CONFIG, self._points([15, 25]))
        assert digest.min_bin() == 1
        assert digest.max_bin() == 2
        assert digest.evaluate("min") == (10, 20)
        assert digest.evaluate("max") == (20, 30)

    def test_empty_digest_errors(self):
        digest = Digest.zero(self.CONFIG)
        with pytest.raises(QueryError):
            digest.mean()
        with pytest.raises(QueryError):
            digest.min_bin()

    def test_addition(self):
        a = Digest.of_points(self.CONFIG, self._points([5, 15]))
        b = Digest.of_points(self.CONFIG, self._points([25]))
        combined = a + b
        assert combined.sum == 45
        assert combined.count == 3

    def test_addition_requires_same_config(self):
        a = Digest.zero(self.CONFIG)
        b = Digest.zero(DigestConfig())
        with pytest.raises(ConfigurationError):
            _ = a + b

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigurationError):
            Digest(config=self.CONFIG, values=[0, 0])

    def test_unsupported_operator(self):
        digest = Digest.zero(DigestConfig(include_sum_of_squares=False))
        with pytest.raises(QueryError):
            digest.evaluate("var")

    def test_sum_digests(self):
        digests = [Digest.of_points(self.CONFIG, self._points([v])) for v in (1, 2, 3)]
        assert sum_digests(digests).sum == 6
        with pytest.raises(QueryError):
            sum_digests([])

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_digest_matches_direct_computation(self, values):
        digest = Digest.of_points(self.CONFIG, self._points(values))
        assert digest.sum == sum(values)
        assert digest.count == len(values)
        assert digest.mean() == pytest.approx(sum(values) / len(values))
        mean = sum(values) / len(values)
        assert digest.variance() == pytest.approx(
            sum(v * v for v in values) / len(values) - mean * mean, abs=1e-6
        )

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=30),
        st.lists(st.integers(0, 100), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_digest_addition_is_concatenation(self, first, second):
        combined = Digest.of_points(self.CONFIG, self._points(first)) + Digest.of_points(
            self.CONFIG, self._points(second)
        )
        direct = Digest.of_points(self.CONFIG, self._points(first + second))
        assert combined.values == direct.values


class TestStreamConfig:
    def test_defaults_valid(self):
        config = StreamConfig()
        assert config.max_chunks == 2**30

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(chunk_interval=0)
        with pytest.raises(ConfigurationError):
            StreamConfig(value_scale=0)
        with pytest.raises(ConfigurationError):
            StreamConfig(key_tree_height=0)
        with pytest.raises(ConfigurationError):
            StreamConfig(index_fanout=1)

    def test_window_mapping(self):
        config = StreamConfig(chunk_interval=10, start_time=100)
        assert config.window_of(100) == 0
        assert config.window_of(109) == 0
        assert config.window_of(110) == 1
        assert config.window_start(2) == 120
        with pytest.raises(ConfigurationError):
            config.window_of(99)

    def test_metadata_new_generates_uuid(self):
        a = StreamMetadata.new(owner_id="o")
        b = StreamMetadata.new(owner_id="o")
        assert a.uuid != b.uuid


class TestChunking:
    CONFIG = StreamConfig(chunk_interval=100, digest=DigestConfig())

    def test_chunk_rejects_out_of_window_points(self):
        with pytest.raises(ChunkError):
            Chunk.of_points(0, TimeRange(0, 100), [DataPoint(150, 1)], DigestConfig())

    def test_builder_emits_on_window_crossing(self):
        builder = ChunkBuilder(config=self.CONFIG)
        assert builder.append(DataPoint(10, 1)) == []
        assert builder.append(DataPoint(50, 2)) == []
        completed = builder.append(DataPoint(120, 3))
        assert len(completed) == 1
        assert completed[0].window_index == 0
        assert completed[0].num_points == 2

    def test_builder_flush(self):
        builder = ChunkBuilder(config=self.CONFIG)
        builder.append(DataPoint(10, 1))
        chunks = builder.flush()
        assert len(chunks) == 1 and chunks[0].num_points == 1
        assert builder.flush() == []

    def test_builder_emits_empty_gap_windows(self):
        builder = ChunkBuilder(config=self.CONFIG)
        builder.append(DataPoint(10, 1))
        completed = builder.append(DataPoint(350, 2))
        # windows 0 (with data), 1 and 2 (empty) are emitted; window 3 stays open.
        assert [chunk.window_index for chunk in completed] == [0, 1, 2]
        assert [chunk.num_points for chunk in completed] == [1, 0, 0]

    def test_builder_can_skip_empty_windows(self):
        builder = ChunkBuilder(config=self.CONFIG, emit_empty_chunks=False)
        builder.append(DataPoint(10, 1))
        completed = builder.append(DataPoint(350, 2))
        assert [chunk.window_index for chunk in completed] == [0]

    def test_out_of_order_rejected(self):
        builder = ChunkBuilder(config=self.CONFIG)
        builder.append(DataPoint(50, 1))
        with pytest.raises(OutOfOrderError):
            builder.append(DataPoint(40, 2))

    def test_chunks_from_points_covers_everything(self):
        points = [DataPoint(t, t) for t in range(0, 1000, 30)]
        chunks = chunks_from_points(self.CONFIG, points)
        assert sum(chunk.num_points for chunk in chunks) == len(points)
        # Window indices are consecutive from 0.
        assert [chunk.window_index for chunk in chunks] == list(range(len(chunks)))

    def test_chunk_digest_matches_points(self):
        points = [DataPoint(t, t % 7) for t in range(0, 100, 10)]
        chunks = chunks_from_points(self.CONFIG, points)
        assert chunks[0].digest.sum == sum(p.value for p in points)

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_builder_preserves_all_points(self, deltas):
        timestamps = []
        current = 0
        for delta in deltas:
            current += delta
            timestamps.append(current)
        points = [DataPoint(t, i) for i, t in enumerate(timestamps)]
        chunks = chunks_from_points(self.CONFIG, points)
        recovered = [point for chunk in chunks for point in chunk.points]
        assert recovered == points


class TestColumnBatches:
    CONFIG = StreamConfig(chunk_interval=100, start_time=1_000)

    def test_extend_splits_windows_and_emits_empties(self):
        builder = ChunkBuilder(config=self.CONFIG)
        completed = builder.extend([1_000, 1_050, 1_099, 1_100, 1_420], [1, 2, 3, 4, 5])
        assert [(c.window_index, c.timestamps, c.values) for c in completed] == [
            (0, [1_000, 1_050, 1_099], [1, 2, 3]),
            (1, [1_100], [4]),
            (2, [], []),
            (3, [], []),
        ]
        assert [(c.window_index, c.values) for c in builder.flush()] == [(4, [5])]

    def test_window_continues_across_batches(self):
        builder = ChunkBuilder(config=self.CONFIG)
        assert builder.extend([1_010, 1_020], [1, 2]) == []
        assert builder.extend([1_020, 1_030], [3, 4]) == []
        (chunk,) = builder.extend([1_200], [5])[:1]
        assert chunk.timestamps == [1_010, 1_020, 1_020, 1_030]
        assert chunk.digest.sum == 10

    def test_rejected_batch_leaves_builder_unchanged(self):
        builder = ChunkBuilder(config=self.CONFIG)
        builder.extend([1_010], [1])
        with pytest.raises(OutOfOrderError):
            builder.extend([1_020, 1_500, 1_400], [2, 3, 4])  # out of order inside
        with pytest.raises(OutOfOrderError):
            builder.extend([1_005], [2])  # before the previous batch
        with pytest.raises(TypeError):
            builder.extend([1_020, 1_030.0], [2, 3])
        with pytest.raises(TypeError):
            builder.extend([1_020], [2.5])
        with pytest.raises(ChunkError):
            builder.extend([1_020, 1_030], [2])
        assert [(c.timestamps, c.values) for c in builder.flush()] == [([1_010], [1])]

    def test_first_timestamp_before_stream_start_rejected(self):
        with pytest.raises(ConfigurationError):
            ChunkBuilder(config=self.CONFIG).extend([999, 1_000], [1, 2])

    def test_chunk_columns_must_match_and_fit_the_window(self):
        with pytest.raises(ChunkError):
            Chunk(0, TimeRange(0, 100), [1, 2], [1], Digest.of_values(DigestConfig(), [1]))
        with pytest.raises(ChunkError):
            Chunk(0, TimeRange(0, 100), [50, 100, 10], [1, 2, 3], Digest.of_values(DigestConfig(), [1, 2, 3]))
        assert Chunk.of_points(0, TimeRange(0, 100), [DataPoint(5, 1)], DigestConfig()).points == [DataPoint(5, 1)]
