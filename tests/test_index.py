"""Tests for the k-ary aggregation index: planning, correctness, persistence, decay."""

from __future__ import annotations

import random
from array import array
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.heac import MODULUS, HEACCiphertext, aggregate_componentwise
from repro.exceptions import ChunkError, IndexError_, QueryError
from repro.index.cache import NodeCache
from repro.index.node import DigestCombiner, IndexNode, heac_combiner, plaintext_combiner
from repro.index.query import plan_range, worst_case_nodes
from repro.index.tree import AggregationIndex, levels_for
from repro.server.engine import ServerEngine
from repro.storage.memory import MemoryStore
from repro.timeseries.serialization import (
    EncryptedChunk,
    decode_digest_cells,
    decode_digest_vector,
    encode_digest_cells,
    encode_digest_vector,
    index_node_storage_key,
)
from repro.timeseries.stream import StreamMetadata
from repro.util.encoding import decode_varint, encode_varint, pack_varint_list, unpack_varint_list


def _encode(cells, _window_start, _window_end) -> bytes:
    return pack_varint_list(cells)


def _decode(blob: bytes, _window_start, _window_end) -> List[int]:
    values, _pos = unpack_varint_list(blob, 0)
    return values


def _make_index(fanout: int = 4, store=None, cache=None) -> AggregationIndex:
    return AggregationIndex(
        stream_uuid="s",
        store=store if store is not None else MemoryStore(),
        combiner=plaintext_combiner(),
        encode_cells=_encode,
        decode_cells=_decode,
        fanout=fanout,
        cache=cache,
        max_windows=1 << 20,
    )


class TestIndexNode:
    def test_invalid_coordinates(self):
        with pytest.raises(IndexError_):
            IndexNode(level=-1, position=0, window_start=0, window_end=1, cells=(1,))
        with pytest.raises(IndexError_):
            IndexNode(level=0, position=0, window_start=5, window_end=5, cells=(1,))

    def test_combiner_vector_width_check(self):
        combiner = plaintext_combiner()
        with pytest.raises(IndexError_):
            combiner.combine_vectors([1], [1, 2])

    def test_combiner_sizes(self):
        assert heac_combiner().size_of(None) == 8
        custom = DigestCombiner(add=lambda a, b: a + b, size_of=len)
        assert custom.vector_size([b"ab", b"cde"]) == 5


class TestRangePlanning:
    def test_single_window(self):
        plan = plan_range(5, 6, fanout=4, max_level=5)
        assert plan.num_nodes == 1
        assert plan.nodes[0].level == 0

    def test_aligned_block_uses_single_node(self):
        plan = plan_range(0, 64, fanout=4, max_level=5)
        assert plan.num_nodes == 1
        assert plan.nodes[0].level == 3

    def test_max_level_caps_block_size(self):
        plan = plan_range(0, 64, fanout=4, max_level=2)
        assert all(node.level <= 2 for node in plan.nodes)
        assert plan.num_nodes == 4

    def test_invalid_ranges(self):
        with pytest.raises(QueryError):
            plan_range(5, 4, fanout=4, max_level=3)
        with pytest.raises(QueryError):
            plan_range(0, 4, fanout=1, max_level=3)

    def test_plan_tiles_range_exactly(self):
        plan = plan_range(3, 117, fanout=4, max_level=5)
        position = 3
        for node in plan.nodes:
            assert node.window_start == position
            position = node.window_end
        assert position == 117

    def test_worst_case_bound(self):
        assert worst_case_nodes(4, 1) == 1
        assert worst_case_nodes(64, 10**6) == 2 * 63 * 4

    @given(
        st.integers(0, 4000),
        st.integers(1, 500),
        st.sampled_from([2, 4, 16, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_size_within_worst_case(self, start, length, fanout):
        end = start + length
        max_level = levels_for(fanout, 1 << 20)
        plan = plan_range(start, end, fanout, max_level)
        # Exact tiling.
        position = start
        for node in plan.nodes:
            assert node.window_start == position
            assert node.window_end - node.window_start == fanout ** node.level
            position = node.window_end
        assert position == end
        assert plan.num_nodes <= worst_case_nodes(fanout, end) + 1


class TestLevelsFor:
    def test_levels(self):
        assert levels_for(64, 1) == 1
        assert levels_for(64, 64) == 1
        assert levels_for(64, 65) == 2
        assert levels_for(2, 1024) == 10


class TestAggregationIndex:
    def test_append_returns_window_indices(self):
        index = _make_index()
        assert index.append([1, 1]) == 0
        assert index.append([2, 1]) == 1
        assert index.num_windows == 2

    def test_query_empty_range_rejected(self):
        index = _make_index()
        index.append([1])
        with pytest.raises(QueryError):
            index.query_range(0, 0)

    def test_query_beyond_head_rejected(self):
        index = _make_index()
        index.append([1])
        with pytest.raises(QueryError):
            index.query_range(0, 2)

    def test_correctness_against_naive_sums(self):
        rng = random.Random(7)
        index = _make_index(fanout=4)
        values = []
        for _ in range(300):
            value = rng.randint(0, 1000)
            values.append(value)
            index.append([value, 1])
        for _ in range(100):
            a = rng.randint(0, len(values) - 1)
            b = rng.randint(a + 1, len(values))
            cells = index.query_range(a, b)
            assert cells[0] == sum(values[a:b])
            assert cells[1] == b - a

    def test_fanout_64_correctness(self):
        rng = random.Random(3)
        index = _make_index(fanout=64)
        values = [rng.randint(0, 99) for _ in range(200)]
        for value in values:
            index.append([value])
        assert index.query_range(0, 200)[0] == sum(values)
        assert index.query_range(63, 130)[0] == sum(values[63:130])

    def test_persistence_across_reopen(self):
        store = MemoryStore()
        index = _make_index(store=store)
        for value in range(50):
            index.append([value])
        reopened = _make_index(store=store)
        assert reopened.num_windows == 50
        assert reopened.query_range(10, 40)[0] == sum(range(10, 40))

    def test_small_cache_still_correct(self):
        cache = NodeCache(capacity_bytes=256)
        index = _make_index(fanout=4, cache=cache)
        values = list(range(200))
        for value in values:
            index.append([value])
        assert index.query_range(17, 193)[0] == sum(values[17:193])
        assert cache.stats.evictions > 0

    def test_cache_hits_on_repeated_queries(self):
        index = _make_index(fanout=4)
        for value in range(100):
            index.append([value])
        index.query_range(0, 100)
        hits_before = index.cache.stats.hits
        index.query_range(0, 100)
        assert index.cache.stats.hits > hits_before

    def test_plan_exposed(self):
        index = _make_index(fanout=4)
        for value in range(64):
            index.append([value])
        plan = index.plan(0, 64)
        assert plan.num_nodes == 1

    def test_missing_node_detected(self):
        store = MemoryStore()
        index = _make_index(fanout=4, store=store)
        for value in range(20):
            index.append([value])
        # Corrupt the store: remove a leaf node and clear the cache.
        store.delete(b"index/s/00/" + b"0" * 15 + b"3")
        index.cache.clear()
        with pytest.raises(IndexError_):
            index.query_range(3, 4)

    def test_size_and_node_count(self):
        index = _make_index(fanout=4)
        for value in range(16):
            index.append([value])
        assert index.node_count() >= 16
        assert index.size_bytes() > 0

    def test_prune_below_keeps_coarse_levels(self):
        index = _make_index(fanout=4)
        for value in range(64):
            index.append([value])
        deleted = index.prune_below(level=1, before_window=32)
        assert deleted == 32
        # Coarse aggregates over the pruned range still work.
        assert index.query_range(0, 64)[0] == sum(range(64))
        # Fine-grained access to the pruned range is gone.
        index.cache.clear()
        with pytest.raises(IndexError_):
            index.query_range(3, 4)

    def test_invalid_fanout(self):
        with pytest.raises(IndexError_):
            _make_index(fanout=1)

    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=150),
        st.sampled_from([2, 4, 8, 64]),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_ranges_match_naive(self, values, fanout, data):
        index = _make_index(fanout=fanout)
        for value in values:
            index.append([value, 1])
        start = data.draw(st.integers(0, len(values) - 1))
        end = data.draw(st.integers(start + 1, len(values)))
        cells = index.query_range(start, end)
        assert cells[0] == sum(values[start:end])
        assert cells[1] == end - start


class TestRingCells:
    """HEAC cells held as ring integers; the node interval is every cell's interval."""

    WIDTH = 3

    @staticmethod
    def _ring_index(store, fanout=4):
        return AggregationIndex(
            stream_uuid="s",
            store=store,
            combiner=heac_combiner(),
            encode_cells=encode_digest_cells,
            decode_cells=decode_digest_cells,
            fanout=fanout,
            max_windows=1 << 20,
        )

    @staticmethod
    def _leaf_key(position):
        return index_node_storage_key("s", 0, position)

    @staticmethod
    def _node_blob(window_start, window_end, cells, cell_interval=None):
        cell_start, cell_end = cell_interval or (window_start, window_end)
        return (
            encode_varint(window_start)
            + encode_varint(window_end)
            + encode_digest_vector([HEACCiphertext(value, cell_start, cell_end) for value in cells])
        )

    def test_ring_combiner_wraps_mod_2_64(self):
        combiner = heac_combiner()
        assert combiner.combine_vectors([MODULUS - 1, 5], [2, 7]) == [1, 12]
        with pytest.raises(IndexError_):
            combiner.combine_vectors([1], [1, 2])

    def test_non_adjacent_nodes_refused(self):
        store = MemoryStore()
        index = self._ring_index(store)
        for window in range(8):
            index.append([window, 1, 2])
        # Leaf 5 claims [6, 7): it does not continue leaf 4's [4, 5).
        store.put(self._leaf_key(5), self._node_blob(6, 7, [5, 1, 2]))
        index.cache.clear()
        with pytest.raises(IndexError_):
            index.query_range(4, 6)

    def test_node_wider_than_its_plan_slot_refused(self):
        store = MemoryStore()
        index = self._ring_index(store)
        for window in range(8):
            index.append([window, 1, 2])
        store.put(self._leaf_key(4), self._node_blob(4, 6, [4, 1, 2]))
        index.cache.clear()
        with pytest.raises(IndexError_):
            index.query_range(4, 6)

    def test_cell_interval_disagreeing_with_node_header_refused(self):
        store = MemoryStore()
        index = self._ring_index(store)
        for window in range(8):
            index.append([window, 1, 2])
        store.put(self._leaf_key(5), self._node_blob(5, 6, [5, 1, 2], cell_interval=(5, 7)))
        index.cache.clear()
        with pytest.raises(ChunkError):
            index.node(0, 5)
        with pytest.raises(ChunkError):
            index.query_range(4, 6)

    def test_stored_nodes_use_the_digest_vector_format(self):
        store = MemoryStore()
        index = self._ring_index(store)
        for window in range(6):
            index.append([window, 1, MODULUS - 1 - window])
        for key, blob in store.scan_prefix(b"index/s/"):
            if key.endswith(b"/meta"):
                continue
            window_start, pos = decode_varint(blob, 0)
            window_end, pos = decode_varint(blob, pos)
            cells = decode_digest_vector(blob[pos:])
            assert {(c.window_start, c.window_end) for c in cells} == {(window_start, window_end)}
            assert blob == self._node_blob(window_start, window_end, [c.value for c in cells])
        assert index.node(0, 5).cells == array("Q", [5, 1, MODULUS - 6])

    def test_stat_range_under_a_growing_spine_node(self, small_config):
        """Results equal the ciphertext sum of the leaves, over the queried interval."""
        engine = ServerEngine()
        metadata = StreamMetadata.new(owner_id="o", config=small_config)
        engine.create_stream(metadata)
        width = small_config.digest.width
        rng = random.Random(11)
        leaves = []

        def ingest(count):
            for _ in range(count):
                window = len(leaves)
                digest = [HEACCiphertext(rng.getrandbits(64), window, window + 1) for _ in range(width)]
                leaves.append(digest)
                engine.insert_chunk(EncryptedChunk(metadata.uuid, window, b"sealed", digest, 1))

        def check_every_range():
            for start in range(len(leaves)):
                for end in range(start + 1, len(leaves) + 1):
                    result = engine.stat_range_windows(metadata.uuid, start, end)
                    assert list(result.cells) == aggregate_componentwise(leaves[start:end])

        ingest(6)  # fanout 4: the level-1 node at position 1 covers [4, 6) and is growing
        check_every_range()
        ingest(3)  # it fills up to [4, 8); position 2 starts growing at [8, 9)
        check_every_range()
