"""Data points: the atoms of a time series stream.

A point is a ``(timestamp, value)`` pair (paper §2).  TimeCrypt's encrypted
digests operate over integers modulo 2^64, so float-valued metrics (heart
rate in bpm, CPU utilisation in percent, ...) are stored as fixed-point
integers with a per-stream scale factor; the helpers here perform that
conversion consistently on the write and read paths.

A point is an immutable named tuple, so the read path can build a chunk's
points straight from its decoded integer columns (:func:`column_points`)
without running the public constructor's checks once per point.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List, NamedTuple, Tuple, Union

Number = Union[int, float]


class _PointFields(NamedTuple):
    timestamp: int
    value: int


class DataPoint(_PointFields):
    """A single measurement: integer timestamp plus fixed-point integer value.

    Points compare, sort and hash as ``(timestamp, value)`` tuples.
    """

    __slots__ = ()

    def __new__(cls, timestamp: int, value: int) -> "DataPoint":
        if not isinstance(timestamp, int):
            raise TypeError("timestamps must be integers")
        if not isinstance(value, int):
            raise TypeError(
                "DataPoint values are fixed-point integers; use encode_value() "
                "to convert floats"
            )
        return tuple.__new__(cls, (timestamp, value))


def column_points(timestamps: Iterable[int], values: Iterable[int]) -> List[DataPoint]:
    """Zip integer columns into points, skipping the per-point type checks.

    Only for columns already known to hold ints, such as a codec's decoded
    output; anything else goes through :class:`DataPoint`.
    """
    return list(map(tuple.__new__, repeat(DataPoint), zip(timestamps, values)))


def encode_value(value: Number, scale: int = 1) -> int:
    """Convert a measurement to its fixed-point integer representation.

    ``scale`` is the number of integer units per 1.0 of the raw measurement
    (e.g. ``scale=100`` stores two decimal places).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    return round(value * scale)


def decode_value(value: int, scale: int = 1) -> float:
    """Convert a fixed-point integer back into the measurement's unit."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return value / scale


def make_points(
    timestamps: Iterable[int], values: Iterable[Number], scale: int = 1
) -> List[DataPoint]:
    """Build a list of points from parallel timestamp/value sequences."""
    points = [
        DataPoint(timestamp=ts, value=encode_value(val, scale))
        for ts, val in zip(timestamps, values)
    ]
    return points


def point_columns(points: Iterable[DataPoint]) -> Tuple[List[int], List[int]]:
    """Split points into the parallel ``(timestamps, values)`` columns chunks carry."""
    materialised = list(points)
    return [point.timestamp for point in materialised], [point.value for point in materialised]


def validate_sorted(points: Iterable[DataPoint]) -> List[DataPoint]:
    """Return the points as a list, requiring non-decreasing timestamps."""
    materialised = list(points)
    for earlier, later in zip(materialised, materialised[1:]):
        if later.timestamp < earlier.timestamp:
            raise ValueError(
                f"points out of order: {later.timestamp} after {earlier.timestamp}"
            )
    return materialised
