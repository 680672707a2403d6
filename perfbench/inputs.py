"""Seeded mHealth inputs and the reference oracle that checks every answer.

Inputs are the paper's mHealth streams: 12 wearable metrics sampled at
50 Hz, chunked at Δ = 10 s (500 records per chunk), each stream with a
histogram digest and the ``delta-zlib`` codec.  ``MHealthWorkload`` generates
``POOL_CHUNKS`` chunks of samples per metric from the seed before anything is
timed; window ``w`` of a stream replays pool chunk ``w % POOL_CHUNKS`` at
window ``w``'s timestamps, so a run can ingest for as long as it measures
without generating inside the timed loop.

The oracle never calls the program: it keeps the fixed-point values
(``round(value * scale)``, the definition of the stored representation) and
integer prefix sums over them, and answers stat and range queries from those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.workloads.mhealth import METRICS, MHealthWorkload

CHUNK_MS = 10_000
STEP_MS = 1000 // 50
RECORDS_PER_CHUNK = CHUNK_MS // STEP_MS
#: Distinct chunks generated per stream; later windows replay them.
POOL_CHUNKS = 24


@dataclass
class StreamInput:
    """One metric's generated samples and its reference sums."""

    metric: str
    scale: int
    values: List[List[float]]
    fixed: List[List[int]]
    #: ``prefix[i]`` is the fixed-point sum of pool chunks ``0 .. i-1``.
    prefix: List[int]

    def window_sum(self, window_start: int, window_end: int) -> int:
        """Fixed-point sum over windows ``[window_start, window_end)``."""
        return self._sum_to(window_end) - self._sum_to(window_start)

    def _sum_to(self, window: int) -> int:
        cycles, rest = divmod(window, POOL_CHUNKS)
        return cycles * self.prefix[POOL_CHUNKS] + self.prefix[rest]


class Inputs:
    """Every stream's records, generated from one seed before timing starts."""

    def __init__(self, seed: int) -> None:
        workload = MHealthWorkload(seed=seed)
        duration_s = POOL_CHUNKS * CHUNK_MS // 1000
        self.streams: List[StreamInput] = []
        for metric in workload.metric_names():
            scale = METRICS[metric][3]
            samples = [value for _ts, value in workload.records(metric, duration_s)]
            values = [samples[i:i + RECORDS_PER_CHUNK] for i in range(0, len(samples), RECORDS_PER_CHUNK)]
            fixed = [[round(value * scale) for value in chunk] for chunk in values]
            prefix = [0]
            for chunk in fixed:
                prefix.append(prefix[-1] + sum(chunk))
            self.streams.append(StreamInput(metric, scale, values, fixed, prefix))

    def config(self, stream: int):
        return MHealthWorkload.stream_config(self.streams[stream].metric, CHUNK_MS)

    def records(self, stream: int, window: int, num_windows: int = 1) -> List[Tuple[int, float]]:
        """The ``(timestamp_ms, value)`` records of ``num_windows`` windows from ``window``."""
        pool = self.streams[stream].values
        records: List[Tuple[int, float]] = []
        for current in range(window, window + num_windows):
            base = current * CHUNK_MS
            records.extend(
                (base + index * STEP_MS, value) for index, value in enumerate(pool[current % POOL_CHUNKS])
            )
        return records


class Oracle:
    """Reference answers from the generated fixed-point values."""

    def __init__(self, inputs: Inputs) -> None:
        self._streams = inputs.streams

    def expected_stat(self, stream: int, window_start: int, window_end: int) -> Dict[str, object]:
        """``sum``, ``count`` and ``mean`` as ``get_stat_range`` reports them."""
        source = self._streams[stream]
        total = source.window_sum(window_start, window_end)
        count = (window_end - window_start) * RECORDS_PER_CHUNK
        return {"sum": total / source.scale, "count": count, "mean": (total / count) / source.scale}

    def check_stat(self, stream: int, window_start: int, window_end: int, answer: Dict[str, object]) -> bool:
        expected = self.expected_stat(stream, window_start, window_end)
        return all(
            type(answer.get(name)) is type(value) and answer.get(name) == value
            for name, value in expected.items()
        )

    def expected_points(self, stream: int, start_ms: int, end_ms: int) -> List[Tuple[int, int]]:
        """``(timestamp, fixed-point value)`` pairs in ``[start_ms, end_ms)``."""
        fixed = self._streams[stream].fixed
        points: List[Tuple[int, int]] = []
        for window in range(start_ms // CHUNK_MS, -(-end_ms // CHUNK_MS)):
            base = window * CHUNK_MS
            points.extend(
                (base + index * STEP_MS, value)
                for index, value in enumerate(fixed[window % POOL_CHUNKS])
                if start_ms <= base + index * STEP_MS < end_ms
            )
        return points

    def check_points(self, stream: int, start_ms: int, end_ms: int, answer: Sequence) -> bool:
        return [(point.timestamp, point.value) for point in answer] == self.expected_points(stream, start_ms, end_ms)
