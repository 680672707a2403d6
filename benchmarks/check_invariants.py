"""Deterministic perf-regression gate: smoke baselines vs. committed ones.

Wall clock on shared CI runners is noise, so the smoke job has never gated
on speed.  What *is* deterministic — at any workload scale — are the
invariant counters the benchmarks record: wire round trips per query,
per-batch round-trip overheads, shed/drain bookkeeping, replication
fan-out.  A change that silently reintroduces per-chunk round trips or
drops a correlation id moves one of these integers, on the smoke workload
just as surely as on the full one.

This script diffs each CI smoke baseline (``bench-smoke-*.json``) against
the committed full baseline (``BENCH_*.json``) on a manifest of checks:

- ``eq``    — the counter (or whole subtree) must match the committed value:
              round trips per query do not depend on workload size.
- ``le``    — the counter must not exceed the committed value (bounded
              depths and caps).
- ``delta`` — the *difference* of two counters must match the committed
              difference: ``wire_round_trips - num_batches`` is the fixed
              per-ingest overhead whatever the batch count.

``BENCH_batch.json`` is deliberately not gated — it records wall-clock
sweeps only.  Usage (paths are smoke files; committed baselines are found
next to this script's parent directory, override with ``--baseline-dir``):

    python benchmarks/check_invariants.py net=bench-smoke-net.json \
        sched=bench-smoke-sched.json ...

Exits non-zero listing every violated invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple


def eq(path: str) -> Tuple[str, str, str]:
    return ("eq", path, "")


def le(path: str) -> Tuple[str, str, str]:
    return ("le", path, "")


def delta(minuend: str, subtrahend: str) -> Tuple[str, str, str]:
    return ("delta", minuend, subtrahend)


#: name -> (committed baseline filename, checks). Every path is relative to
#: the ``results`` block of the baseline JSON.
MANIFEST: Dict[str, Tuple[str, List[Tuple[str, str, str]]]] = {
    "storage": (
        "BENCH_storage.json",
        [
            eq("query_fetch.index_store_round_trips"),
            eq("query_fetch.max_multi_gets_per_node"),
            eq("query_fetch.total_node_round_trips"),
            # Fixed per-ingest overhead beyond one write round trip per batch.
            delta("appendlog_ingest.batch.write_round_trips", "appendlog_ingest.batch.num_batches"),
        ],
    ),
    "net": (
        "BENCH_net.json",
        [
            eq("queries.range_round_trips"),
            eq("queries.stat_round_trips"),
            eq("grant_burst.batched.issue_round_trips"),
            eq("grant_burst.batched.pickup_round_trips"),
            eq("ingest.scalar.round_trips_per_batch"),
            # Pipelined ingest: one frame per batch plus the final flush.
            delta("ingest.pipelined.wire_round_trips", "ingest.pipelined.num_batches"),
            # Scalar grants cost exactly one round trip per principal.
            delta("grant_burst.scalar.issue_round_trips", "grant_burst.scalar.principals"),
        ],
    ),
    "remote": (
        "BENCH_remote.json",
        [
            eq("queries.range_max_node_round_trips"),
            eq("queries.stat_max_node_round_trips"),
            eq("grant_burst.max_node_round_trips"),
            eq("grant_burst.total_round_trips"),
            eq("ingest.remote.flush_round_trips"),
            eq("kv_batch.batched.max_node_round_trips"),
            eq("kv_batch.batched.total_round_trips"),
            eq("kv_batch.scalar.max_node_round_trips"),
            eq("kv_batch.scalar.total_round_trips"),
        ],
    ),
    "topology": (
        "BENCH_topology.json",
        [
            eq("outage_heal.hinted.hinted_handoff"),
            eq("outage_heal.hinted.repair_healed"),
            eq("outage_heal.hinted.replay_round_trips_on_node"),
            eq("outage_heal.repair_only.hints_replayed"),
            eq("outage_heal.repair_only.replay_round_trips_on_node"),
            eq("scale_in.byte_identical_to_static"),
            eq("scale_out.expected_fraction"),
            delta("scale_in.copied_keys", "scale_in.moved_keys"),
        ],
    ),
    "sharding": (
        "BENCH_sharding.json",
        [
            # The delete workload is pinned at both scales: the whole
            # round-trip table must match the committed one.
            eq("delete_round_trips"),
        ],
    ),
    "wire": (
        "BENCH_wire.json",
        [
            # Copies per frame are call-sequence invariants, not workload
            # sizes: the zero-copy acceptance (encode 0, decode <= 1) must
            # hold at any scale.  (The retired legacy arm's bill lives in
            # the baseline's ungated history block.)
            eq("copies.encode.zero_copy"),
            eq("copies.server_decode.zero_copy"),
            eq("copies.client_decode.zero_copy"),
            le("syscalls.zero_copy_syscalls"),
            eq("syscalls.zero_copy_copies"),
            eq("syscalls.headers_coalesced"),
            eq("byte_identity.identical"),
            eq("compression.codec_compressed"),
            eq("compression.request_frames_compressed"),
            eq("compression.response_frames_compressed"),
        ],
    ),
    "sched": (
        "BENCH_sched.json",
        [
            eq("latency.weighted.probe_round_trips_per_stat"),
            eq("latency.weighted.credits_restored"),
            eq("overload.unanswered"),
            eq("overload.untyped_errors"),
            eq("overload.server_shed_matches_client"),
            eq("overload.all_drained"),
            eq("overload.ping_during_saturation"),
            le("overload.max_depth_bulk"),
        ],
    ),
    "obs": (
        "BENCH_obs.json",
        [
            eq("parity.off_spans"),
            eq("parity.round_trip_parity"),
            eq("parity.copy_parity"),
            eq("parity.on_spans_per_op"),
            eq("parity.off.round_trips"),
            eq("parity.off.payload_copies"),
            eq("tree.connected"),
            eq("tree.spans_per_stat_range"),
            eq("tree.storage_spans"),
            eq("tree.retrievable_via_trace_dump"),
            eq("scrapes.engine_stats_round_trips"),
            eq("scrapes.engine_trace_dump_round_trips"),
            eq("scrapes.storage_stats_round_trips"),
        ],
    ),
}

_MISSING = object()


def _lookup(results: Dict, dotted: str):
    node = results
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def _load_results(path: Path) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["results"]


def check_baseline(name: str, smoke: Dict, committed: Dict) -> List[str]:
    """Every violated invariant for one baseline, as printable messages."""
    _file, checks = MANIFEST[name]
    failures = []
    for kind, first, second in checks:
        if kind == "delta":
            values = [_lookup(side, path) for side in (smoke, committed) for path in (first, second)]
            if any(value is _MISSING for value in values):
                failures.append(f"{name}: {first} - {second}: counter missing from a baseline")
                continue
            got, want = values[0] - values[1], values[2] - values[3]
            if got != want:
                failures.append(
                    f"{name}: {first} - {second} = {got}, committed baseline has {want}"
                )
            continue
        got, want = _lookup(smoke, first), _lookup(committed, first)
        if got is _MISSING or want is _MISSING:
            failures.append(f"{name}: {first}: counter missing from a baseline")
        elif kind == "eq" and got != want:
            failures.append(f"{name}: {first} = {got!r}, committed baseline has {want!r}")
        elif kind == "le" and got > want:
            failures.append(f"{name}: {first} = {got!r}, above the committed bound {want!r}")
    return failures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "pairs",
        nargs="+",
        metavar="name=smoke.json",
        help=f"baseline name ({', '.join(sorted(MANIFEST))}) and its smoke file",
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(Path(__file__).resolve().parent.parent),
        help="directory holding the committed BENCH_*.json files",
    )
    args = parser.parse_args(argv)

    failures: List[str] = []
    checked = 0
    for pair in args.pairs:
        name, _sep, smoke_path = pair.partition("=")
        if name not in MANIFEST or not smoke_path:
            parser.error(f"unknown baseline pair '{pair}'")
        committed_path = Path(args.baseline_dir) / MANIFEST[name][0]
        smoke = _load_results(Path(smoke_path))
        committed = _load_results(committed_path)
        baseline_failures = check_baseline(name, smoke, committed)
        failures.extend(baseline_failures)
        checked += len(MANIFEST[name][1])
        status = "FAIL" if baseline_failures else "ok"
        print(f"{name}: {len(MANIFEST[name][1])} invariants vs {committed_path.name} — {status}")

    if failures:
        print(f"\n{len(failures)} invariant(s) regressed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"all {checked} invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
