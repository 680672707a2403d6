"""Mixed-traffic QoS on a real socket: weighted dispatch + typed shedding.

PR 7 put a two-class scheduler and credit-based flow control into
:class:`~repro.net.server.TimeCryptTCPServer`.  Two claims are measured
over loopback TCP:

1. **Interactive latency under bulk pressure** — with flooder clients
   saturating the dispatch pool with ``insert_chunks`` batches, a small
   ``stat_range`` still costs one round trip and its p50/p99 stay low,
   because interactive frames never queue behind every buffered bulk
   frame.  The retired FIFO pool's numbers (≈ 6× worse p99 in the same
   run) are frozen in the baseline's ``history`` block, which re-runs
   preserve.
2. **Typed overload shedding** — flooding a server with a tiny bulk queue
   must answer *every* correlation id: accepted requests succeed, refused
   ones get a typed ``overloaded`` with a retry hint (zero silent drops,
   zero untyped errors), liveness pings still answer, and a client with
   retry budget drains every shed request once the burst passes.

Run as a script to print the tables and refresh ``BENCH_sched.json``:

    PYTHONPATH=src python benchmarks/bench_scheduler.py

``--smoke`` shrinks the workload for CI smoke jobs; the shedding and
round-trip invariants are deterministic at any scale (wall clock is not
gated in CI).  The
deterministic assertions also run under plain pytest:
``pytest benchmarks/bench_scheduler.py``.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro import ServerEngine, TimeCrypt
from repro.bench.reporting import ResultTable, merge_json_report
from repro.net.client import RemoteServerClient
from repro.net.messages import Request
from repro.net.server import TimeCryptTCPServer
from repro.timeseries.serialization import encode_encrypted_chunk
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange

from conftest import scaled

CHUNK_INTERVAL_MS = 1_000
TREE_HEIGHT = 16

#: Latency experiment: flooder clients × chunks per delivered bulk batch.
LATENCY_WORKERS = 2
FLOOD_CLIENTS = scaled(16, minimum=6)
FLOOD_CHUNKS_PER_BATCH = 8
FLOOD_POINTS_PER_CHUNK = 8
PROBE_CHUNKS = 64
PROBE_ITERS = scaled(240, minimum=40)

#: Overload experiment: offered bulk burst against a tiny queue.
OVERLOAD_OFFERED = scaled(64, minimum=32)
OVERLOAD_QUEUE_LIMIT = 4
OVERLOAD_RETRY_AFTER_MS = 15

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sched.json"


def _stream_config() -> StreamConfig:
    return StreamConfig(chunk_interval=CHUNK_INTERVAL_MS, key_tree_height=TREE_HEIGHT)


def _records(start_ms: int, num_chunks: int, points_per_chunk: int) -> List[tuple]:
    step = CHUNK_INTERVAL_MS // points_per_chunk
    return [
        (t, float(t % 101))
        for t in range(start_ms, start_ms + num_chunks * CHUNK_INTERVAL_MS, step)
    ]


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


# -- experiment 1: interactive p99 under bulk flood ----------------------------------


def _flood_worker(
    host: str, port: int, index: int, stop: threading.Event, batches: List[int]
) -> None:
    """One bulk writer: its own connection, its own stream, batch after batch."""
    with RemoteServerClient(host, port, overload_retries=8) as client:
        owner = TimeCrypt(server=client, owner_id=f"flood-{index}")
        uuid = owner.create_stream(metric=f"bulk-{index}", config=_stream_config())
        offset = 0
        while not stop.is_set():
            owner.insert_records(
                uuid, _records(offset, FLOOD_CHUNKS_PER_BATCH, FLOOD_POINTS_PER_CHUNK)
            )
            offset += FLOOD_CHUNKS_PER_BATCH * CHUNK_INTERVAL_MS
            batches[index] += 1


def _run_latency_arm(probe_iters: int, flood_clients: int) -> Dict[str, float]:
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, max_workers=LATENCY_WORKERS, bulk_queue_limit=512) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as probe:
            owner = TimeCrypt(server=probe, owner_id="probe")
            uuid = owner.create_stream(metric="interactive", config=_stream_config())
            owner.insert_records(uuid, _records(0, PROBE_CHUNKS, 4))
            owner.flush(uuid)
            horizon = TimeRange(0, PROBE_CHUNKS * CHUNK_INTERVAL_MS)

            stop = threading.Event()
            batches = [0] * flood_clients
            flooders = [
                threading.Thread(target=_flood_worker, args=(host, port, i, stop, batches))
                for i in range(flood_clients)
            ]
            for thread in flooders:
                thread.start()
            try:
                time.sleep(0.3)  # let the flood reach steady state
                probe.wire_stats.reset()
                latencies = []
                flood_begin = time.perf_counter()
                for _ in range(probe_iters):
                    begin = time.perf_counter()
                    probe.stat_range(uuid, horizon)
                    latencies.append(time.perf_counter() - begin)
                flood_seconds = time.perf_counter() - flood_begin + 0.3
                probe_round_trips = probe.wire_stats.round_trips
                flood_live = any(thread.is_alive() for thread in flooders)
            finally:
                stop.set()
                for thread in flooders:
                    thread.join(timeout=30)
            credits_restored = (
                probe.credit_window > 0 and probe.credits_available == probe.credit_window
            )
    return {
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "mean_ms": sum(latencies) / len(latencies) * 1e3,
        "flood_batches": sum(batches),
        "flood_batches_per_s": sum(batches) / flood_seconds,
        "flood_live_throughout": flood_live,
        "probe_round_trips_per_stat": probe_round_trips / probe_iters,
        "credits_restored": credits_restored,
    }


# -- experiment 2: typed shedding under a saturating burst ---------------------------


def _build_replay_chunks(count: int):
    """``count`` independent single-chunk streams, built offline for replay."""
    local = ServerEngine()
    owner = TimeCrypt(server=local, owner_id="burst")
    replays = []
    for index in range(count):
        uuid = owner.create_stream(metric=f"burst-{index}", config=_stream_config())
        owner.insert_records(uuid, _records(0, 1, 8))
        owner.flush(uuid)
        chunks = local.get_range(uuid, TimeRange(0, CHUNK_INTERVAL_MS))
        replays.append((local.stream_metadata(uuid), chunks))
    return replays


def _run_overload_arm(offered: int) -> Dict[str, object]:
    replays = _build_replay_chunks(offered)
    engine = ServerEngine()
    with TimeCryptTCPServer(
        engine,
        max_workers=1,
        bulk_queue_limit=OVERLOAD_QUEUE_LIMIT,
        retry_after_ms=OVERLOAD_RETRY_AFTER_MS,
    ) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as setup:
            for metadata, _chunks in replays:
                setup.create_stream(metadata)
        requests = [
            Request("insert_chunks", {}, [encode_encrypted_chunk(c) for c in chunks])
            for _metadata, chunks in replays
        ]
        with RemoteServerClient(host, port, overload_retries=0) as flood:
            responses = flood.call_many(requests)
            # Saturation must not read as an outage: liveness is force-admitted.
            ping_ok = flood.ping()

        ok = [i for i, r in enumerate(responses) if r.ok]
        shed = [i for i, r in enumerate(responses) if not r.ok and r.error_type == "OverloadedError"]
        other = [i for i, r in enumerate(responses) if not r.ok and r.error_type != "OverloadedError"]
        hints = {responses[i].result.get("retry_after_ms") for i in shed}
        stats = server.scheduler_stats()

        # A polite client drains the backlog once the burst passes: resends
        # paced to the advertised queue size, with the capped-backoff retry
        # budget absorbing any overlap with the still-draining worker.
        drained = 0
        if shed:
            with RemoteServerClient(host, port, overload_retries=8) as retry_client:
                for start in range(0, len(shed), OVERLOAD_QUEUE_LIMIT):
                    chunk = [requests[i] for i in shed[start : start + OVERLOAD_QUEUE_LIMIT]]
                    drained += sum(1 for r in retry_client.call_many(chunk) if r.ok)

    return {
        "offered": offered,
        "accepted": len(ok),
        "shed": len(shed),
        "unanswered": offered - len(responses),
        "untyped_errors": len(other),
        "retry_after_ms": sorted(hints) if hints else [],
        "server_shed_matches_client": stats["shed_bulk"] == len(shed),
        "max_depth_bulk": stats["max_depth_bulk"],
        "bulk_queue_limit": OVERLOAD_QUEUE_LIMIT,
        "ping_during_saturation": ping_ok,
        "drained_after_retries": drained,
        "all_drained": drained == len(shed),
    }


# -- deterministic assertions (also collected by pytest) -----------------------------


def test_overload_answers_every_correlation_id():
    outcome = _run_overload_arm(offered=24)
    assert outcome["unanswered"] == 0
    assert outcome["untyped_errors"] == 0
    assert outcome["accepted"] + outcome["shed"] == outcome["offered"]
    assert outcome["server_shed_matches_client"]
    assert outcome["max_depth_bulk"] <= OVERLOAD_QUEUE_LIMIT
    assert outcome["ping_during_saturation"]
    assert outcome["all_drained"]
    assert all(hint == OVERLOAD_RETRY_AFTER_MS for hint in outcome["retry_after_ms"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny workload for CI")
    parser.add_argument(
        "--output",
        default=os.environ.get("BENCH_OUTPUT", str(_DEFAULT_OUTPUT)),
        help="where to write the JSON baseline",
    )
    args = parser.parse_args()

    probe_iters = 40 if args.smoke else PROBE_ITERS
    flood_clients = 6 if args.smoke else FLOOD_CLIENTS
    offered = 32 if args.smoke else OVERLOAD_OFFERED
    results: Dict[str, object] = {"smoke": bool(args.smoke)}

    arm = _run_latency_arm(probe_iters, flood_clients)
    latency_table = ResultTable(
        title=f"stat_range latency under bulk flood ({flood_clients} writers, "
        f"{LATENCY_WORKERS} workers)",
        columns=["dispatch", "p50", "p99", "flood batches/s"],
    )
    latency_table.add_row(
        "weighted",
        f"{arm['p50_ms']:.2f} ms",
        f"{arm['p99_ms']:.2f} ms",
        f"{arm['flood_batches_per_s']:.0f}",
    )
    latency_table.add_note("the retired FIFO pool's p99 is frozen in the baseline's history block")
    latency_table.print()

    overload = _run_overload_arm(offered)
    shed_table = ResultTable(
        title=f"overload shedding — {offered} bulk bursts, queue limit "
        f"{OVERLOAD_QUEUE_LIMIT}, one worker",
        columns=["outcome", "count"],
    )
    shed_table.add_row("accepted", f"{overload['accepted']}")
    shed_table.add_row("shed (typed overloaded)", f"{overload['shed']}")
    shed_table.add_row("unanswered", f"{overload['unanswered']}")
    shed_table.add_row("untyped errors", f"{overload['untyped_errors']}")
    shed_table.add_row("drained by retries", f"{overload['drained_after_retries']}")
    shed_table.add_note("every correlation id answers; sheds carry a retry-after hint")
    shed_table.print()

    # The deterministic contract holds at any scale.
    assert overload["unanswered"] == 0, "silent drop: a correlation id went unanswered"
    assert overload["untyped_errors"] == 0, "a shed surfaced as something other than overloaded"
    assert overload["server_shed_matches_client"], "server and client disagree on shed count"
    assert overload["all_drained"], "retry budget failed to drain the shed backlog"
    assert arm["probe_round_trips_per_stat"] == 1.0
    assert arm["credits_restored"]
    if not args.smoke:
        assert overload["shed"] > 0, "full-scale burst produced no sheds"

    results["latency"] = {
        "workers": LATENCY_WORKERS,
        "flood_clients": flood_clients,
        "probe_iters": probe_iters,
        "weighted": arm,
    }
    results["overload"] = overload
    # Merge, not overwrite: the baseline's frozen ``history`` block survives.
    print(f"baseline written to {merge_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
