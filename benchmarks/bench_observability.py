"""Observability plane: tracing overhead, spans per request, scrape cost.

PR 9 added end-to-end request tracing and a unified metrics plane across
the client/router/engine/storage tiers.  Telemetry that slows the hot path
gets turned off in production, so the headline claim is *zero cost when
disabled*: with tracing off the per-frame path takes no clock reads, makes
no allocations, and records no spans.  This benchmark pins that down three
ways:

1. **Disabled-parity** (deterministic, gated): a fixed workload run with
   tracing off records exactly zero spans, and its round-trip and
   payload-copy counters are identical to the tracing-on arm — the trace
   context rides the existing header encode, costing no extra frames and
   no extra copies.
2. **Spans per request** (deterministic, gated): one traced ``stat_range``
   against an engine over a remote storage node yields one *connected*
   span tree (single root, no orphans) spanning the client, engine, and
   storage tiers, with a call-sequence-deterministic span count — the
   tracing analogue of the gated round-trips-per-query counters.
3. **Scrape cost** (deterministic, gated): ``stats`` and ``trace_dump``
   each pull a whole node's telemetry in exactly one round trip.
4. **Overhead** (wall clock, informational): ns/op for a ping workload,
   tracing off vs. on.

Run as a script to print the tables and refresh ``BENCH_obs.json``:

    PYTHONPATH=src python benchmarks/bench_observability.py

``--smoke`` shrinks only the wall-clock workload; the gated counters are
measured on fixed call sequences.  The assertions also run under pytest.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path
from typing import Dict

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.access.keystore import TokenStore
from repro.bench.reporting import ResultTable, write_json_report
from repro.net.client import RemoteServerClient
from repro.net.framing import MEMORY_COUNTERS
from repro.net.messages import Request
from repro.net.server import TimeCryptTCPServer
from repro.obs import SPANS
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.util.timeutil import TimeRange

from conftest import scaled

#: Ops for the wall-clock overhead arms (scaled; smoke shrinks it).
OVERHEAD_OPS = scaled(2000, minimum=200)
#: Ops for the deterministic parity arms (fixed: gated).
PARITY_OPS = 32
#: Chunks behind the span-tree query (fixed: gated).
TREE_CHUNKS = 8
CHUNK_INTERVAL = 1_000

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


# ---------------------------------------------------------------------------
# 1. Disabled-parity (deterministic)
# ---------------------------------------------------------------------------


def _parity_arm(tracing: bool) -> Dict[str, int]:
    """A fixed ping workload; spans, round trips, and wire copies recorded."""
    SPANS.clear()
    spans_before = SPANS.recorded
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, tracing=tracing) as server:
        host, port = server.address
        MEMORY_COUNTERS.reset()
        with RemoteServerClient(host, port, tracing=tracing) as remote:
            for _ in range(PARITY_OPS):
                remote.ping()
            round_trips = remote.wire_stats.round_trips
        payload_copies = MEMORY_COUNTERS.payload_copies
    return {
        "ops": PARITY_OPS,
        "spans_recorded": SPANS.recorded - spans_before,
        "round_trips": round_trips,
        "payload_copies": payload_copies,
    }


def disabled_parity() -> Dict[str, object]:
    off = _parity_arm(tracing=False)
    on = _parity_arm(tracing=True)
    return {
        "off": off,
        "on": on,
        # Gated booleans: the off arm is span-free, and enabling tracing
        # changes neither the frame count nor the copy count of the same
        # call sequence (the context rides the existing header encode).
        "off_spans": off["spans_recorded"],
        "round_trip_parity": int(off["round_trips"] == on["round_trips"]),
        "copy_parity": int(off["payload_copies"] == on["payload_copies"]),
        "on_spans_per_op": on["spans_recorded"] // on["ops"],
    }


# ---------------------------------------------------------------------------
# 2. Spans per request, connected across tiers (deterministic)
# ---------------------------------------------------------------------------


def _encrypted_stream(num_chunks: int):
    scratch = ServerEngine()
    owner = TimeCrypt(server=scratch, owner_id="bench")
    config = StreamConfig(chunk_interval=CHUNK_INTERVAL, index_fanout=4)
    uuid = owner.create_stream(metric="obs-bench", config=config)
    owner.insert_records(
        uuid, [(t, float(t % 97)) for t in range(0, num_chunks * CHUNK_INTERVAL, 100)]
    )
    owner.flush(uuid)
    chunks = [scratch.get_chunk(uuid, position) for position in range(num_chunks)]
    return scratch.stream_metadata(uuid), chunks


def span_tree() -> Dict[str, object]:
    """One traced stat_range across client → engine → storage; tree shape."""
    metadata, chunks = _encrypted_stream(TREE_CHUNKS)
    backing = MemoryStore()
    with StorageNodeServer(backing, node_name="storage-0") as node:
        host, port = node.address
        store = RemoteKeyValueStore(host, port, timeout=30.0, tracing=True)
        engine = ServerEngine(store=store, token_store=TokenStore(store=store))
        with TimeCryptTCPServer(engine, node_name="engine-0", tracing=True) as server:
            with RemoteServerClient(*server.address, tracing=True) as remote:
                remote.create_stream(metadata)
                remote.insert_chunks(chunks)
                engine.reset_stream_cache()  # force the query back to storage
                SPANS.clear()
                remote.stat_range(metadata.uuid, TimeRange(0, TREE_CHUNKS * CHUNK_INTERVAL))
                dump = remote.call_many([Request("trace_dump")])[0]
    # Read the spans only once both servers have stopped: a server records
    # its span after writing the response, so reading right after the reply
    # could race a handler that is still finishing.
    spans = SPANS.spans()

    root = next(
        span
        for span in spans
        if span["kind"] == "client" and span["op"] == "stat_range" and span["parent_id"] is None
    )
    tree = [span for span in spans if span["trace_id"] == root["trace_id"]]
    by_id = {span["span_id"]: span for span in tree}
    roots = [span for span in tree if span["parent_id"] is None]
    orphans = [
        span for span in tree if span["parent_id"] is not None and span["parent_id"] not in by_id
    ]
    tiers = sorted({span["node"].split(":")[0].split("-")[0] for span in tree})
    return {
        "query_chunks": TREE_CHUNKS,
        "spans_per_stat_range": len(tree),
        "connected": int(len(roots) == 1 and not orphans),
        "tiers": tiers,
        "storage_spans": len(
            [span for span in tree if span["kind"] == "server" and span["op"].startswith("kv_")]
        ),
        "retrievable_via_trace_dump": int(
            dump.ok
            and any(span["trace_id"] == root["trace_id"] for span in dump.result["spans"])
        ),
    }


# ---------------------------------------------------------------------------
# 3. Scrape cost (deterministic)
# ---------------------------------------------------------------------------


def scrape_cost() -> Dict[str, int]:
    """stats / trace_dump each cost one round trip, on both server tiers."""
    engine = ServerEngine()
    counters: Dict[str, int] = {}
    with TimeCryptTCPServer(engine) as server:
        with RemoteServerClient(*server.address) as remote:
            before = remote.wire_stats.round_trips
            assert remote.call_many([Request("stats")])[0].ok
            counters["engine_stats_round_trips"] = remote.wire_stats.round_trips - before
            before = remote.wire_stats.round_trips
            assert remote.call_many([Request("trace_dump")])[0].ok
            counters["engine_trace_dump_round_trips"] = remote.wire_stats.round_trips - before
    with StorageNodeServer(MemoryStore()) as node:
        with RemoteServerClient(*node.address) as remote:
            before = remote.wire_stats.round_trips
            assert remote.call_many([Request("stats")])[0].ok
            counters["storage_stats_round_trips"] = remote.wire_stats.round_trips - before
    return counters


# ---------------------------------------------------------------------------
# 4. Wall-clock overhead (informational)
# ---------------------------------------------------------------------------


def overhead(num_ops: int) -> Dict[str, Dict[str, float]]:
    arms: Dict[str, Dict[str, float]] = {}
    for label, tracing in (("off", False), ("on", True)):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine, tracing=tracing) as server:
            host, port = server.address
            with RemoteServerClient(host, port, tracing=tracing) as remote:
                remote.ping()  # connection warm-up outside the window
                SPANS.clear()
                begin = time.perf_counter()
                for _ in range(num_ops):
                    remote.ping()
                elapsed = time.perf_counter() - begin
        arms[label] = {
            "ops": num_ops,
            "ns_per_op": elapsed / num_ops * 1e9,
            "ops_per_s": num_ops / elapsed if elapsed else 0.0,
        }
    off_ns, on_ns = arms["off"]["ns_per_op"], arms["on"]["ns_per_op"]
    arms["overhead_pct"] = {"value": (on_ns - off_ns) / off_ns * 100.0 if off_ns else 0.0}
    return arms


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_tracing_off_is_free_on_the_gated_counters():
    parity = disabled_parity()
    assert parity["off_spans"] == 0
    assert parity["round_trip_parity"] == 1
    assert parity["copy_parity"] == 1
    # Tracing on: exactly one client and one server span per ping.
    assert parity["on_spans_per_op"] == 2


def test_stat_range_yields_one_connected_tree():
    tree = span_tree()
    assert tree["connected"] == 1
    assert tree["tiers"] == ["client", "engine", "storage"]
    assert tree["storage_spans"] >= 1
    assert tree["retrievable_via_trace_dump"] == 1


def test_scrapes_cost_one_round_trip():
    counters = scrape_cost()
    assert all(value == 1 for value in counters.values())


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_obs.json baseline
# ---------------------------------------------------------------------------


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced-iteration CI mode: small wall-clock workload, same gated counters",
    )
    parser.add_argument(
        "--output",
        default=os.environ.get("BENCH_OUTPUT", str(_DEFAULT_OUTPUT)),
        help="path of the JSON baseline to write",
    )
    args = parser.parse_args(argv)
    num_ops = 200 if args.smoke else OVERHEAD_OPS

    results: Dict[str, object] = {"smoke": args.smoke}

    parity = disabled_parity()
    parity_table = ResultTable(
        title=f"Tracing-disabled parity — {PARITY_OPS} pings, library counters",
        columns=["counter", "off", "on"],
    )
    for field in ("spans_recorded", "round_trips", "payload_copies"):
        parity_table.add_row(field, str(parity["off"][field]), str(parity["on"][field]))
    parity_table.add_note("acceptance: off arm records 0 spans; frame and copy bills identical")
    parity_table.print()
    results["parity"] = parity

    tree = span_tree()
    tree_table = ResultTable(
        title=f"Span tree — one stat_range over {TREE_CHUNKS} chunks, engine over remote storage",
        columns=["counter", "value"],
    )
    tree_table.add_row("spans per stat_range", str(tree["spans_per_stat_range"]))
    tree_table.add_row("connected (one root, no orphans)", str(bool(tree["connected"])))
    tree_table.add_row("tiers in the tree", ", ".join(tree["tiers"]))
    tree_table.add_row("storage server spans", str(tree["storage_spans"]))
    tree_table.add_note("client → engine → storage, stitched by the wire trace context")
    tree_table.print()
    results["tree"] = tree

    scrapes = scrape_cost()
    scrape_table = ResultTable(
        title="Telemetry scrape cost (round trips per pull)",
        columns=["scrape", "round trips"],
    )
    for name, value in scrapes.items():
        scrape_table.add_row(name, str(value))
    scrape_table.print()
    results["scrapes"] = scrapes

    arms = overhead(num_ops)
    overhead_table = ResultTable(
        title=f"Tracing overhead — {num_ops} pings over loopback (wall clock)",
        columns=["arm", "ns/op", "ops/s"],
    )
    for label in ("off", "on"):
        overhead_table.add_row(
            label, f"{arms[label]['ns_per_op']:.0f}", f"{arms[label]['ops_per_s']:.0f}"
        )
    overhead_table.add_note(
        f"tracing-on overhead {arms['overhead_pct']['value']:+.1f}% (informational; loopback noise dominates)"
    )
    overhead_table.print()
    results["overhead"] = arms

    print(f"baseline written to {write_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
