"""Index nodes: per-level aggregated digest vectors.

The aggregation index is a k-ary tree over chunk windows.  A node at level
``L`` and position ``p`` summarises the window interval
``[p * k^L, (p+1) * k^L)``: its digest is the component-wise sum of its
children's digests.  Because the digests are HEAC ciphertexts (or Paillier /
EC-ElGamal ciphertexts in the strawman configurations) the server can compute
these sums without ever seeing a plaintext.

The node is cipher-agnostic: it stores opaque "cells" plus the window
interval, and the tree combines cells through a pluggable
:class:`DigestCombiner`.  HEAC cells are plain integers in the ring
``Z_{2^64}``, kept as an ``array('Q')`` of eight bytes per cell: the
node's ``[window_start, window_end)`` is the interval of every cell, so a
cell needs no interval of its own, and two cell vectors combine with one
modular comprehension (:func:`heac_combiner`).  The tree
checks that combined nodes are adjacent once per node.
:class:`~repro.crypto.heac.HEACCiphertext` objects exist only at the engine
and client boundary.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Generic, List, Sequence, TypeVar

from repro.crypto.heac import MODULUS
from repro.exceptions import IndexError_

Cell = TypeVar("Cell")

_MASK = MODULUS - 1


@dataclass(frozen=True, slots=True)
class IndexNode(Generic[Cell]):
    """One node of the aggregation tree.

    Attributes
    ----------
    level:
        0 for leaves (one chunk window per node), increasing towards the root.
    position:
        Index of the node within its level.
    window_start / window_end:
        Half-open chunk-window interval the node summarises.  For partially
        filled nodes at the head of the stream the interval reflects only the
        windows actually ingested so far.
    cells:
        The aggregated digest vector (one opaque cell per digest component),
        each cell aggregating exactly ``[window_start, window_end)``; the
        container is the combiner's :meth:`DigestCombiner.node_cells`.
    """

    level: int
    position: int
    window_start: int
    window_end: int
    cells: Sequence[Cell]

    def __post_init__(self) -> None:
        if self.level < 0 or self.position < 0:
            raise IndexError_("index node coordinates must be non-negative")
        if self.window_end <= self.window_start:
            raise IndexError_("index node must cover a non-empty window interval")

    @property
    def num_windows(self) -> int:
        return self.window_end - self.window_start

    @property
    def width(self) -> int:
        return len(self.cells)


class DigestCombiner(Generic[Cell]):
    """How digest cells are added together and how large they are.

    ``add`` must be associative; ``size_of`` reports the serialized size of a
    cell so index-size accounting (Table 2) works uniformly across ciphers.
    """

    def __init__(self, add: Callable[[Cell, Cell], Cell], size_of: Callable[[Cell], int]) -> None:
        self._add = add
        self._size_of = size_of

    def add(self, left: Cell, right: Cell) -> Cell:
        return self._add(left, right)

    def node_cells(self, cells: Sequence[Cell]) -> Sequence[Cell]:
        """The container an index node keeps its cells in (never mutated)."""
        return tuple(cells)

    def size_of(self, cell: Cell) -> int:
        return self._size_of(cell)

    def combine_vectors(self, left: Sequence[Cell], right: Sequence[Cell]) -> List[Cell]:
        if len(left) != len(right):
            raise IndexError_("cannot combine digest vectors of different widths")
        return [self._add(a, b) for a, b in zip(left, right)]

    def vector_size(self, cells: Sequence[Cell]) -> int:
        return sum(self._size_of(cell) for cell in cells)


class _RingCombiner(DigestCombiner[int]):
    """Cells are integers mod 2^64; a vector add is one comprehension."""

    def __init__(self) -> None:
        super().__init__(add=lambda a, b: (a + b) & _MASK, size_of=lambda _cell: 8)

    def combine_vectors(self, left: Sequence[int], right: Sequence[int]) -> List[int]:
        if len(left) != len(right):
            raise IndexError_("cannot combine digest vectors of different widths")
        return [(a + b) & _MASK for a, b in zip(left, right)]

    def node_cells(self, cells: Sequence[int]) -> Sequence[int]:
        # Eight bytes per cell, and no int object per cell in cached nodes.
        return array("Q", cells)


def heac_combiner() -> DigestCombiner[int]:
    """Combiner for HEAC digest cells held as ring integers (8-byte cells)."""
    return _RingCombiner()


def plaintext_combiner() -> DigestCombiner[int]:
    """Combiner for the plaintext baseline (plain integer addition, 8-byte cells)."""
    return DigestCombiner(add=lambda a, b: a + b, size_of=lambda _cell: 8)
