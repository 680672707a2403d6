"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not in the paper's evaluation, but each sweep isolates one design decision:

* index fanout k (the paper fixes k=64) — query cost vs ingest cost trade-off,
* compression codec for chunk payloads (zlib default vs delta variants),
* AEAD choice for chunk payloads (AES-GCM native, AES-GCM pure-Python,
  ChaCha20-Poly1305),
* index-cache size (the Fig. 7c small-cache effect in isolation).
"""

from __future__ import annotations

import pytest

from repro.crypto.chacha import chacha_decrypt, chacha_encrypt
from repro.crypto.gcm import aead_decrypt, aead_encrypt
from repro.index.cache import NodeCache
from repro.index.node import plaintext_combiner
from repro.index.tree import AggregationIndex
from repro.storage.memory import MemoryStore
from repro.timeseries.compression import get_codec
from repro.timeseries.point import DataPoint
from repro.util.encoding import pack_varint_list, unpack_varint_list

from conftest import scaled

PAYLOAD_POINTS = [DataPoint(timestamp=20 * i, value=500 + (i % 37)) for i in range(500)]
PAYLOAD_BYTES = get_codec("zlib").compress_points(PAYLOAD_POINTS)


def _encode(cells, _window_start, _window_end):
    return pack_varint_list(cells)


def _decode(blob, _window_start, _window_end):
    values, _ = unpack_varint_list(blob, 0)
    return values


def _build_index(fanout: int, num_windows: int, cache_bytes: int = 64 * 1024 * 1024):
    index = AggregationIndex(
        stream_uuid="ablation",
        store=MemoryStore(),
        combiner=plaintext_combiner(),
        encode_cells=_encode,
        decode_cells=_decode,
        fanout=fanout,
        cache=NodeCache(capacity_bytes=cache_bytes),
        max_windows=1 << 30,
    )
    for window in range(num_windows):
        index.append([window % 100, 1])
    return index


# --- fanout sweep -----------------------------------------------------------------


@pytest.mark.parametrize("fanout", [2, 8, 64, 256])
def test_ablation_fanout_query(benchmark, fanout):
    benchmark.group = "ablation-fanout-query"
    num_windows = scaled(2048)
    index = _build_index(fanout, num_windows)
    benchmark(lambda: index.query_range(1, num_windows - 1))


@pytest.mark.parametrize("fanout", [2, 8, 64, 256])
def test_ablation_fanout_ingest(benchmark, fanout):
    benchmark.group = "ablation-fanout-ingest"
    index = _build_index(fanout, scaled(256))
    benchmark(lambda: index.append([7, 1]))


# --- compression codec sweep -------------------------------------------------------


@pytest.mark.parametrize("codec_name", ["none", "zlib", "delta", "delta-zlib"])
def test_ablation_codec_compress(benchmark, codec_name):
    benchmark.group = "ablation-codec"
    codec = get_codec(codec_name)
    benchmark(lambda: codec.compress_points(PAYLOAD_POINTS))


@pytest.mark.parametrize("codec_name", ["none", "zlib", "delta", "delta-zlib"])
def test_ablation_codec_ratio(codec_name):
    from repro.timeseries.compression import compression_ratio

    ratio = compression_ratio(PAYLOAD_POINTS, codec_name)
    assert ratio >= 0.9  # no codec may blow the payload up


# --- AEAD choice -------------------------------------------------------------------


def test_ablation_aead_aesgcm_native(benchmark):
    benchmark.group = "ablation-aead"
    key = b"k" * 16
    blob = aead_encrypt(key, PAYLOAD_BYTES)
    benchmark(lambda: aead_decrypt(key, blob))


def test_ablation_aead_aesgcm_pure_python(benchmark):
    benchmark.group = "ablation-aead"
    key = b"k" * 16
    blob = aead_encrypt(key, PAYLOAD_BYTES, force_pure_python=True)
    benchmark.pedantic(
        lambda: aead_decrypt(key, blob, force_pure_python=True), rounds=3, iterations=1
    )


def test_ablation_aead_chacha20poly1305(benchmark):
    benchmark.group = "ablation-aead"
    key = b"k" * 32
    blob = chacha_encrypt(key, PAYLOAD_BYTES)
    benchmark.pedantic(lambda: chacha_decrypt(key, blob), rounds=3, iterations=1)


# --- cache size sweep -----------------------------------------------------------------


@pytest.mark.parametrize("cache_kib", [1, 64, 4096])
def test_ablation_cache_size(benchmark, cache_kib):
    benchmark.group = "ablation-cache"
    num_windows = scaled(2048)
    index = _build_index(64, num_windows, cache_bytes=cache_kib * 1024)
    benchmark(lambda: index.query_range(1, num_windows - 1))
