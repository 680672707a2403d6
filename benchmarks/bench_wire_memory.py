"""Wire memory path: copies per frame, syscalls per batch, and throughput.

PR 7 moved bytes efficiently *between* machines (scheduling, credits); this
benchmark tracks how often those bytes are copied *inside* one machine.
Before the zero-copy path, a large message was materialized at least three
times between ``Request.encode()`` and ``sendall`` (message join, frame
concat, batch join) and up to three more times on decode.  The segment
encode path plus ``sendmsg``-vectored writes and view-based decode — now the
only wire path — cost zero user-space copies on encode and at most one on
decode, without costing extra syscalls on small frames.  The retired
copying arm's numbers are frozen in the baseline's ``history`` block, which
re-runs preserve.

Four claims, measured two ways:

1. **Copies per frame** (deterministic, gated): the library's
   ``MEMORY_COUNTERS.payload_copies`` over fixed call sequences — encode 0,
   server decode ≤ 1, client decode 0.
2. **Syscalls per batch** (deterministic, gated): a multi-frame batch costs
   one ``sendmsg`` — the one-syscall bill a joined ``sendall`` had, with
   no copy.
3. **Throughput / peak memory** (wall clock, informational): bulk-ingest
   (``kv_multi_put``) and big-response (``kv_multi_get``) shapes over a real
   loopback socket, as the median and inter-quartile range of warm repeats
   timed with ``tracemalloc`` off; allocation peaks come from a separate
   traced pass.
4. **Compression** (deterministic, gated): negotiated zlib frame
   compression engages only above the size threshold and only when both
   ends opt in, and the codec round-trips byte-identically.

Run as a script to print the tables and refresh ``BENCH_wire.json``:

    PYTHONPATH=src python benchmarks/bench_wire_memory.py

``--smoke`` shrinks only the throughput workloads; the gated counters are
measured at fixed sizes so the CI invariant gate can compare them against
the committed baseline.  The assertions also run under plain pytest.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List

from repro import ServerEngine, TimeCrypt
from repro.bench.reporting import ResultTable, merge_json_report
from repro.net.client import RemoteServerClient
from repro.net.framing import (
    MEMORY_COUNTERS,
    FrameAssembler,
    FrameReader,
    encode_frame_segments_v2,
    encode_frame_v2,
    write_vectored,
)
from repro.net.messages import Request, maybe_compress_segments, retain
from repro.net.server import TimeCryptTCPServer
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore

from conftest import scaled

#: Attachment size for the per-frame copy accounting (fixed: gated).
COPY_PROBE_BYTES = 1 << 20
#: Frames per batch for the syscall accounting (fixed: gated).
BATCH_FRAMES = 8
#: Bulk workload for the throughput arms (scaled; smoke shrinks it).
BULK_VALUES = scaled(32, minimum=8)
BULK_VALUE_BYTES = 1 << 20
#: Small-frame workload: the no-regression check for tiny messages.
SMALL_OPS = scaled(400, minimum=100)
#: Timed repeats per throughput shape, after one untimed warm-up round.
THROUGHPUT_REPEATS = 7

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_wire.json"


class _RecordingSink:
    """A sendmsg/write-capable sink that records bytes without a kernel."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def sendmsg(self, group) -> int:
        total = 0
        for iov in group:
            self.buffer += iov
            total += len(iov)
        return total

    def write(self, data) -> int:
        self.buffer += data
        return len(data)

    def flush(self) -> None:
        pass


def _probe_request() -> Request:
    return Request("insert_chunks", {"uuid": "bench", "count": 1}, [bytes(COPY_PROBE_BYTES)])


# ---------------------------------------------------------------------------
# 1. Copies per frame (deterministic)
# ---------------------------------------------------------------------------


def copies_per_frame() -> Dict[str, Dict[str, int]]:
    """``MEMORY_COUNTERS.payload_copies`` over one frame, per path."""
    request = _probe_request()

    MEMORY_COUNTERS.reset()
    segments = encode_frame_segments_v2(1, request.encode_segments())
    encode_copies = MEMORY_COUNTERS.payload_copies
    wire = b"".join(segments)
    assert wire == encode_frame_v2(1, request.encode())  # byte identity with the joined form

    # Server-side decode: the incremental assembler copies the payload in
    # from the socket's staging buffer once; attachments decode as views.
    MEMORY_COUNTERS.reset()
    (frame,) = FrameAssembler().feed(wire)
    decoded = Request.decode(frame.payload)
    server_decode_copies = MEMORY_COUNTERS.payload_copies
    assert retain(decoded.attachments[0]) == request.attachments[0]

    # Client-side decode: the blocking reader pulls payloads via recv_into,
    # so the bytes are touched exactly once (in the kernel).
    MEMORY_COUNTERS.reset()
    frame = FrameReader(io.BytesIO(wire)).read()
    Request.decode(frame.payload)
    client_decode_copies = MEMORY_COUNTERS.payload_copies

    MEMORY_COUNTERS.reset()
    return {
        "encode": {"zero_copy": encode_copies},
        "server_decode": {"zero_copy": server_decode_copies},
        "client_decode": {"zero_copy": client_decode_copies},
    }


# ---------------------------------------------------------------------------
# 2. Syscalls per batch (deterministic)
# ---------------------------------------------------------------------------


def syscalls_per_batch() -> Dict[str, int]:
    """Write one ``BATCH_FRAMES``-frame batch through the vectored path."""
    requests = [
        Request("insert_chunks", {"uuid": "bench", "i": index}, [bytes(COPY_PROBE_BYTES)])
        for index in range(BATCH_FRAMES)
    ]
    MEMORY_COUNTERS.reset()
    segments: List = []
    for index, request in enumerate(requests):
        segments.extend(encode_frame_segments_v2(index + 1, request.encode_segments()))
    sink = _RecordingSink()
    syscalls, total, coalesced = write_vectored(sink, segments)
    copies = MEMORY_COUNTERS.payload_copies
    MEMORY_COUNTERS.reset()
    assert bytes(sink.buffer) == b"".join(
        encode_frame_v2(index + 1, request.encode()) for index, request in enumerate(requests)
    )
    return {
        "batch_frames": BATCH_FRAMES,
        "batch_bytes": total,
        "zero_copy_syscalls": syscalls,
        "zero_copy_copies": copies,
        "headers_coalesced": coalesced,
    }


# ---------------------------------------------------------------------------
# 3. Throughput and peak memory over a real socket (informational)
# ---------------------------------------------------------------------------


def _bulk_items(num_values: int, value_bytes: int):
    return [
        (f"bulk/{index:06d}".encode(), bytes([index % 251]) * value_bytes)
        for index in range(num_values)
    ]


def _one_round(remote: RemoteKeyValueStore, items, small_ops: int) -> Dict[str, float]:
    """Ingest, fetch and small puts once; seconds per shape."""
    begin = time.perf_counter()
    remote.multi_put(items)
    ingest = time.perf_counter() - begin
    begin = time.perf_counter()
    found = remote.multi_get([key for key, _value in items])
    fetch = time.perf_counter() - begin
    assert found == dict(items)  # byte identity end to end
    begin = time.perf_counter()
    for index in range(small_ops):
        remote.put(b"small/%d" % (index % 32), b"v")
    small = time.perf_counter() - begin
    return {"ingest": ingest, "fetch": fetch, "small": small}


def _median_and_iqr(samples: List[float]) -> Dict[str, object]:
    quartiles = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "iqr": [quartiles[0], quartiles[2]]}


def run_throughput(num_values: int, value_bytes: int, repeats: int) -> Dict[str, object]:
    """Warm repeats over loopback, ``tracemalloc`` off; medians and IQRs."""
    items = _bulk_items(num_values, value_bytes)
    total_mb = sum(len(key) + len(value) for key, value in items) / 1e6
    rates: Dict[str, List[float]] = {"ingest": [], "fetch": [], "small": []}
    with StorageNodeServer(MemoryStore()) as node:
        remote = RemoteKeyValueStore(*node.address, timeout=60.0)
        try:
            _one_round(remote, items, SMALL_OPS)  # warm-up: dial, allocator, caches
            for _repeat in range(repeats):
                seconds = _one_round(remote, items, SMALL_OPS)
                rates["ingest"].append(total_mb / seconds["ingest"])
                rates["fetch"].append(total_mb / seconds["fetch"])
                rates["small"].append(SMALL_OPS / seconds["small"])
        finally:
            remote.close()
    ingest, fetch, small = (_median_and_iqr(rates[shape]) for shape in ("ingest", "fetch", "small"))
    return {
        "values": num_values,
        "total_mb": total_mb,
        "repeats": repeats,
        "ingest_mb_per_s": ingest["median"],
        "ingest_mb_per_s_iqr": ingest["iqr"],
        "fetch_mb_per_s": fetch["median"],
        "fetch_mb_per_s_iqr": fetch["iqr"],
        "small_ops_per_s": small["median"],
        "small_ops_per_s_iqr": small["iqr"],
    }


def measure_peaks(num_values: int, value_bytes: int) -> Dict[str, float]:
    """Allocation peaks of one ingest and one fetch — a separate, untimed pass."""
    items = _bulk_items(num_values, value_bytes)
    peaks = {}
    with StorageNodeServer(MemoryStore()) as node:
        remote = RemoteKeyValueStore(*node.address, timeout=60.0)
        try:
            remote.connect()
            for shape, action in (
                ("ingest_peak_mb", lambda: remote.multi_put(items)),
                ("fetch_peak_mb", lambda: remote.multi_get([key for key, _value in items])),
            ):
                tracemalloc.start()
                try:
                    action()
                    peaks[shape] = tracemalloc.get_traced_memory()[1] / 1e6
                finally:
                    tracemalloc.stop()
        finally:
            remote.close()
    return peaks


# ---------------------------------------------------------------------------
# 4. Compression (deterministic negotiation + codec)
# ---------------------------------------------------------------------------


def compression_counters() -> Dict[str, object]:
    """Codec ratio plus negotiated end-to-end frame counts (fixed sizes)."""
    # Codec: a redundant grant burst compresses far below 1:1.
    segments = Request(
        "put_grants", {"uuid": "s"}, [b"sealed-token-" * 600 for _ in range(4)]
    ).encode_segments()
    raw_bytes = sum(len(segment) for segment in segments)
    squeezed, compressed = maybe_compress_segments(segments)
    wire_bytes = sum(len(segment) for segment in squeezed)

    # Negotiated end to end: one compressible request frame, one
    # compressible response frame, tiny frames left alone.
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, wire_compression=True) as server:
        host, port = server.address
        with RemoteServerClient(host, port, compression=True) as remote:
            owner = TimeCrypt(server=remote, owner_id="bench")
            uuid = owner.create_stream(metric="wire-bench")
            remote.wire_stats.reset()
            remote.put_grants([(uuid, f"w-{i}", b"sealed" * 1200) for i in range(8)])
            request_frames_compressed = remote.wire_stats.frames_compressed
            assert remote.fetch_grants(uuid, "w-3") == [b"sealed" * 1200]
            assert remote.ping()  # small frame: must stay uncompressed
            server_frames_compressed = server.scheduler_stats()["frames_compressed"]
    return {
        "codec_compressed": bool(compressed),
        "raw_bytes": raw_bytes,
        "wire_bytes": wire_bytes,
        "ratio": round(raw_bytes / wire_bytes, 2) if wire_bytes else 0.0,
        "request_frames_compressed": request_frames_compressed,
        "response_frames_compressed": server_frames_compressed,
    }


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_copies_per_frame_meet_acceptance():
    """Encode: 0 copies.  Decode: at most 1 (server), 0 (client)."""
    copies = copies_per_frame()
    assert copies["encode"]["zero_copy"] == 0
    assert copies["server_decode"]["zero_copy"] <= 1
    assert copies["client_decode"]["zero_copy"] == 0


def test_vectored_batch_costs_no_extra_syscalls():
    """The copy-free batch write costs one syscall, like one joined sendall."""
    syscalls = syscalls_per_batch()
    assert syscalls["zero_copy_syscalls"] <= 1
    assert syscalls["zero_copy_copies"] == 0
    # Two small segments per frame (frame header + message header) coalesce.
    assert syscalls["headers_coalesced"] == 2 * syscalls["batch_frames"]


def test_compression_engages_only_when_negotiated_and_large():
    counters = compression_counters()
    assert counters["codec_compressed"] is True
    assert counters["ratio"] > 2.0
    assert counters["request_frames_compressed"] == 1
    assert counters["response_frames_compressed"] >= 1


def test_throughput_is_byte_identical():
    """Smoke-sized throughput run; the multi_get assert checks identity."""
    run_throughput(4, 1 << 18, repeats=2)
    assert set(measure_peaks(4, 1 << 18)) == {"ingest_peak_mb", "fetch_peak_mb"}


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_wire.json baseline
# ---------------------------------------------------------------------------


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced-iteration CI mode: small throughput workload, same gated counters",
    )
    parser.add_argument(
        "--output",
        default=os.environ.get("BENCH_OUTPUT", str(_DEFAULT_OUTPUT)),
        help="path of the JSON baseline to write",
    )
    args = parser.parse_args(argv)
    num_values = 8 if args.smoke else BULK_VALUES
    value_bytes = (1 << 18) if args.smoke else BULK_VALUE_BYTES
    repeats = 3 if args.smoke else THROUGHPUT_REPEATS

    results: Dict[str, object] = {"smoke": args.smoke}

    copies = copies_per_frame()
    copy_table = ResultTable(
        title="Full-payload copies per frame — 1 MiB attachment, library counters",
        columns=["path", "copies"],
    )
    for path in ("encode", "server_decode", "client_decode"):
        copy_table.add_row(path, str(copies[path]["zero_copy"]))
    copy_table.add_note("acceptance: encode 0 and decode <= 1 (the retired copying path: >= 3)")
    copy_table.print()
    results["copies"] = copies

    syscalls = syscalls_per_batch()
    syscall_table = ResultTable(
        title=f"Syscalls per {BATCH_FRAMES}-frame batch ({syscalls['batch_bytes'] >> 20} MiB)",
        columns=["path", "syscalls", "payload copies"],
    )
    syscall_table.add_row("vectored sendmsg", str(syscalls["zero_copy_syscalls"]), str(syscalls["zero_copy_copies"]))
    syscall_table.add_note(f"{syscalls['headers_coalesced']} small header segments coalesced into one iovec run")
    syscall_table.print()
    results["syscalls"] = syscalls

    throughput = run_throughput(num_values, value_bytes, repeats)
    throughput.update(measure_peaks(num_values, value_bytes))
    throughput_table = ResultTable(
        title=(
            f"Bulk wire throughput — {throughput['total_mb']:.0f} MB over loopback "
            f"({num_values} values, median of {repeats} warm repeats, tracemalloc off)"
        ),
        columns=["shape", "median", "IQR", "traced peak"],
    )
    for label, key, unit, peak in (
        ("ingest", "ingest_mb_per_s", "MB/s", f"{throughput['ingest_peak_mb']:.1f} MB"),
        ("fetch", "fetch_mb_per_s", "MB/s", f"{throughput['fetch_peak_mb']:.1f} MB"),
        ("small puts", "small_ops_per_s", "ops/s", "-"),
    ):
        low, high = throughput[f"{key}_iqr"]
        throughput_table.add_row(label, f"{throughput[key]:.0f} {unit}", f"{low:.0f}-{high:.0f}", peak)
    throughput_table.add_note("peaks come from a separate tracemalloc pass; every fetch is byte-identical")
    throughput_table.print()
    results["throughput"] = throughput
    results["byte_identity"] = {"identical": True}

    compression = compression_counters()
    compression_table = ResultTable(
        title="Negotiated zlib frame compression (fixed workload)",
        columns=["counter", "value"],
    )
    compression_table.add_row("codec ratio", f"{compression['ratio']:.2f}x")
    compression_table.add_row("request frames compressed", str(compression["request_frames_compressed"]))
    compression_table.add_row("response frames compressed", str(compression["response_frames_compressed"]))
    compression_table.add_note("engages only above 4 KiB and only when both ends negotiate it")
    compression_table.print()
    results["compression"] = compression

    # Merge, not overwrite: the baseline's frozen ``history`` block survives.
    print(f"baseline written to {merge_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
