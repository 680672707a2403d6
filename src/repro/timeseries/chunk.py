"""Chunks: one time window's points as integer columns, plus their digest (paper §4.1).

The client serializes points into fixed time-interval chunks.  Each chunk
carries:

* the raw points as two parallel integer columns, timestamps and fixed-point
  values (compressed, then AEAD-encrypted on the write path),
* a digest vector computed from the value column (encrypted with HEAC so the
  server can aggregate it),
* its window index — the position in the keystream / aggregation index.

:class:`ChunkBuilder` implements the client-side batching over whole
columns: :meth:`ChunkBuilder.extend` validates a batch in one pass, splits it
at window boundaries with ``bisect``, and emits a chunk whenever the batch
crosses the current window boundary (or on explicit flush).  The per-point
entry points (:meth:`ChunkBuilder.append`, :meth:`Chunk.of_points`,
:func:`chunks_from_points`) adapt point lists onto the same column path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from operator import gt
from typing import Iterable, List, Optional, Sequence

from repro.exceptions import ChunkError, OutOfOrderError
from repro.timeseries.digest import Digest, DigestConfig
from repro.timeseries.point import DataPoint, point_columns
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange


@dataclass
class Chunk:
    """A plaintext chunk: one window's timestamp and value columns and their digest."""

    window_index: int
    time_range: TimeRange
    timestamps: List[int]
    values: List[int]
    digest: Digest

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.values):
            raise ChunkError(
                f"chunk has {len(self.timestamps)} timestamps but {len(self.values)} values"
            )
        if self.timestamps:
            for timestamp in (min(self.timestamps), max(self.timestamps)):
                if not self.time_range.contains(timestamp):
                    raise ChunkError(
                        f"point at {timestamp} outside chunk window {self.time_range}"
                    )

    @property
    def num_points(self) -> int:
        return len(self.timestamps)

    @property
    def points(self) -> List[DataPoint]:
        """The chunk's points, rebuilt from its columns."""
        return [DataPoint(timestamp, value) for timestamp, value in zip(self.timestamps, self.values)]

    @classmethod
    def of_points(
        cls,
        window_index: int,
        time_range: TimeRange,
        points: Iterable[DataPoint],
        digest_config: DigestConfig,
    ) -> "Chunk":
        timestamps, values = point_columns(sorted(points, key=lambda p: p.timestamp))
        return cls(
            window_index=window_index,
            time_range=time_range,
            timestamps=timestamps,
            values=values,
            digest=Digest.of_values(digest_config, values),
        )


def _require_integers(column: Sequence[int], name: str) -> None:
    for kind in set(map(type, column)):
        if not issubclass(kind, int):
            raise TypeError(
                f"{name} must be integers, got {kind.__name__}; use encode_value() "
                "to convert float measurements"
            )


@dataclass
class ChunkBuilder:
    """Client-side batching of an append-only column stream into chunks.

    Timestamps must be non-decreasing, within a batch and across batches
    (time series ingest is in-order append-only, §4.5); an out-of-order
    timestamp raises :class:`OutOfOrderError` and leaves the builder
    unchanged.  Chunks are emitted strictly in window order; empty windows
    between points are emitted as empty chunks so the keystream position
    always equals the window index.
    """

    config: StreamConfig
    emit_empty_chunks: bool = True
    _current_window: Optional[int] = field(default=None, init=False)
    _timestamps: List[int] = field(default_factory=list, init=False)
    _values: List[int] = field(default_factory=list, init=False)
    _last_timestamp: Optional[int] = field(default=None, init=False)

    def append(self, point: DataPoint) -> List[Chunk]:
        """Add a point; returns the chunks completed by this append (possibly none)."""
        return self.extend([point.timestamp], [point.value])

    def extend(self, timestamps: Sequence[int], values: Sequence[int]) -> List[Chunk]:
        """Append parallel timestamp/value columns; returns the chunks completed.

        The whole batch is validated before the builder changes: integer
        columns of equal length, non-decreasing timestamps that do not precede
        the previous batch's last one, and a first timestamp at or after the
        stream start.
        """
        if len(timestamps) != len(values):
            raise ChunkError(f"{len(timestamps)} timestamps but {len(values)} values")
        if not timestamps:
            return []
        _require_integers(timestamps, "timestamps")
        _require_integers(values, "values")
        first = timestamps[0]
        if self._last_timestamp is not None and first < self._last_timestamp:
            raise OutOfOrderError(f"point at {first} arrived after {self._last_timestamp}")
        window = self._current_window
        if window is None:
            window = self.config.window_of(first)
        if any(map(gt, timestamps, islice(timestamps, 1, None))):
            earlier, later = next(
                pair for pair in zip(timestamps, islice(timestamps, 1, None)) if pair[0] > pair[1]
            )
            raise OutOfOrderError(f"point at {later} arrived after {earlier}")

        start_time = self.config.start_time
        interval = self.config.chunk_interval
        last = timestamps[-1]
        completed: List[Chunk] = []
        low = 0
        while last >= start_time + (window + 1) * interval:
            high = bisect_left(timestamps, start_time + (window + 1) * interval, low)
            self._timestamps += timestamps[low:high]
            self._values += values[low:high]
            completed.append(self._build_chunk(window, self._timestamps, self._values))
            next_window = (timestamps[high] - start_time) // interval
            if self.emit_empty_chunks:
                completed.extend(self._build_chunk(empty, [], []) for empty in range(window + 1, next_window))
            window, low = next_window, high
            self._timestamps, self._values = [], []
        self._timestamps += timestamps[low:]
        self._values += values[low:]
        self._current_window = window
        self._last_timestamp = last
        return completed

    def flush(self) -> List[Chunk]:
        """Emit the current partial chunk (ends the stream segment)."""
        if self._current_window is None:
            return []
        chunk = self._build_chunk(self._current_window, self._timestamps, self._values)
        self._current_window = None
        self._timestamps, self._values = [], []
        return [chunk]

    def _build_chunk(self, window_index: int, timestamps: List[int], values: List[int]) -> Chunk:
        start = self.config.window_start(window_index)
        return Chunk(
            window_index=window_index,
            time_range=TimeRange(start, start + self.config.chunk_interval),
            timestamps=timestamps,
            values=values,
            digest=Digest.of_values(self.config.digest, values),
        )


def chunks_from_points(
    config: StreamConfig, points: Iterable[DataPoint], emit_empty_chunks: bool = True
) -> List[Chunk]:
    """Batch a complete point sequence into chunks (builder + flush)."""
    builder = ChunkBuilder(config=config, emit_empty_chunks=emit_empty_chunks)
    chunks = builder.extend(*point_columns(points))
    chunks.extend(builder.flush())
    return chunks
