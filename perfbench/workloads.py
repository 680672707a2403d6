"""The three closed-loop workloads: set-up, timed loop, read-back and metrics.

Every workload runs 1 client, 1 thread and 1 connection in closed loop: the
Table-1 API is synchronous, so each producer or consumer call waits for its
reply, as the client threads of the paper's Fig. 7 do.  A single-thread open
loop cannot keep requests in flight through that API.

* ``ingest-embedded`` — ``TimeCrypt`` over an in-process ``ServerEngine`` and
  ``MemoryStore``; the loop ingests the 12 streams round-robin, one chunk per
  ``insert_records`` call.  A read-back phase then queries what was ingested.
* ``query-wire`` — the engine runs behind ``TimeCryptTCPServer`` in a child
  process; set-up preloads the streams over the wire one chunk per call; the
  loop runs 9 ``get_stat_range`` calls over random ranges of the whole
  history for every ``get_range`` of a 60-s window.
* ``mixed-cluster`` — the engine runs over a 3-node ``StorageCluster``
  (RF=2) of ``StorageNodeServer``s in one child process, with an index cache
  of about a tenth of the final index; each ingested chunk is followed by 4
  dashboard ``get_stat_range`` calls over the last 1–36 chunks of a stream.
  A read-back phase then reads 60-s ranges through the cluster.

Every answer is checked against :class:`inputs.Oracle` outside the op's timed
interval; a wrong answer or an exception counts as a failed op.  Untraced runs
scale every time to a reference host speed (:mod:`hostspeed`).
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.timecrypt import TimeCrypt
from repro.net.client import RemoteServerClient
from repro.server.engine import ServerEngine

import layers
from hostspeed import HostSpeed
from inputs import CHUNK_MS, RECORDS_PER_CHUNK, Inputs, Oracle
from tracer import Patcher, Recorder, load_trace

ROOT = Path(__file__).resolve().parent.parent
#: Trace files of the latest traced run (git-ignored).
TRACE_DIR = ROOT / ".perfbench_out"

#: Chunks preloaded per stream before the timed loop (query-wire, mixed-cluster).
QUERY_WIRE_PRELOAD = 48
MIXED_PRELOAD = 36
#: Dashboard ranges reach back this many chunks (mixed-cluster).
DASHBOARD_CHUNKS = 36
#: The engine's index cache in mixed-cluster: a small share of the index a run
#: ends with (~90–110 nodes per stream after 20 s, each weighed 32 + 8·11 bytes).
MIXED_INDEX_CACHE_BYTES = 16 * 1024
RANGE_MS = 60_000
#: Random stat ranges lie in a stream's first windows, so that their cost does
#: not grow with how much a faster run ingested (query-wire holds 49).
STAT_WINDOWS = 256
#: Read-back phases of untraced runs: (share of --seconds, stats, ranges per group).
READBACK = {"ingest-embedded": (0.25, 9, 1), "mixed-cluster": (0.2, 0, 1)}
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = {"ingest-embedded": 21, "query-wire": 3, "mixed-cluster": 3}
#: Reference kernel runs before the first set-up and after each one.
SETUP_KERNEL_RUNS = 10
#: Ops per window of the windowed throughputs (one round over the 12 streams;
#: four 9+1 query groups, or 48 dashboard stats).
INGEST_WINDOW = 12
QUERY_WINDOW = 40
#: Groups of ops per traced or untraced block of a traced run.
GROUPS_PER_BLOCK = {"ingest-embedded": 3, "query-wire": 4, "mixed-cluster": 1}

WORKLOADS = ("ingest-embedded", "query-wire", "mixed-cluster")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_records_per_s": "records/s",
    "ingest_call_p50_ms": "ms",
    "query_ops_per_s": "ops/s",
    "stat_query_p50_ms": "ms",
    "range_query_p50_ms": "ms",
    "stored_bytes_per_record": "B",
    "peak_rss_mb": "MB",
}


class ChildServer:
    """The server child process and its JSON-lines control pipe."""

    def __init__(self, kind: str, index_cache_bytes: int) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server_child.py"), kind, str(index_cache_bytes)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with code {self.process.wait()}")
        return json.loads(line)

    def call(self, cmd: str, **args) -> dict:
        self.process.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self.process.poll() is None:
            try:
                self.call("stop")
                self.process.wait(timeout=30)
            except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


@dataclass
class Session:
    """One set-up topology with the owner client and per-stream positions."""

    owner: TimeCrypt
    uuids: List[str]
    engine: Optional[ServerEngine] = None
    child: Optional[ChildServer] = None
    client: Optional[RemoteServerClient] = None
    #: Windows the server holds per stream.
    heads: List[int] = field(default_factory=list)
    #: The next window each stream ingests (the writer holds the one before it open).
    next_window: List[int] = field(default_factory=list)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.child is not None:
            self.child.close()
        if self.engine is not None:
            self.engine.close()


@dataclass
class Phase:
    """The untraced op latencies of one phase of a run."""

    #: ``(kind, latency_ns, start_ns)`` in the order the ops ran.
    order: List[tuple]

    def latencies(self, *kinds: str, speed: Optional[HostSpeed] = None) -> List[float]:
        """Latencies of ``kinds`` in run order, scaled to the reference speed when ``speed`` is given."""
        return [
            speed.scale(start, elapsed) if speed is not None else elapsed
            for kind, elapsed, start in self.order if kind in kinds
        ]


class OpRunner:
    """Runs ops in closed loop, timing each call and checking each answer."""

    def __init__(self, session: Session, inputs: Inputs, seed: int) -> None:
        self.session = session
        self.inputs = inputs
        self.oracle = Oracle(inputs)
        self.rng = random.Random(seed)
        self.samples: Dict[str, List[int]] = {"ingest": [], "stat": [], "range": []}
        #: Untraced ``(kind, latency_ns, start_ns)`` in the order the ops ran.
        self.order: List[tuple] = []
        self.traced_samples: Dict[str, List[int]] = {"ingest": [], "stat": [], "range": []}
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.traced_records = 0
        self.first_error: Optional[str] = None

    def _record(self, kind: str, start_ns: int, elapsed_ns: int, ok: bool) -> None:
        if self.traced:
            self.traced_samples[kind].append(elapsed_ns)
        else:
            self.samples[kind].append(elapsed_ns)
            self.order.append((kind, elapsed_ns, start_ns))
        self.attempted += 1
        if not ok:
            self.failed += 1

    def _fail(self) -> bool:
        if self.first_error is None:
            self.first_error = traceback.format_exc()
        return False

    def take_phase(self) -> "Phase":
        """Hand over the untraced samples so far and start a new phase."""
        phase = Phase(self.order)
        self.samples = {kind: [] for kind in self.samples}
        self.order = []
        return phase

    def ingest(self, stream: int) -> None:
        """One ``insert_records`` call carrying one chunk; it delivers the chunk before it."""
        session = self.session
        window = session.next_window[stream]
        records = self.inputs.records(stream, window)
        start = time.perf_counter_ns()
        try:
            session.owner.insert_records(session.uuids[stream], records)
            ok = True
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            ok = self._fail()
        elapsed = time.perf_counter_ns() - start
        session.next_window[stream] = window + 1
        session.heads[stream] = window
        if ok and session.engine is not None:
            ok = session.engine.stream_head(session.uuids[stream]) == window
        if ok and self.traced:
            self.traced_records += RECORDS_PER_CHUNK
        self._record("ingest", start, elapsed, ok)

    def stat(self, stream: int, window_start: int, window_end: int) -> None:
        session = self.session
        start = time.perf_counter_ns()
        try:
            answer = session.owner.get_stat_range(
                session.uuids[stream], window_start * CHUNK_MS, window_end * CHUNK_MS
            )
        except Exception:  # noqa: BLE001
            answer = None
            self._fail()
        elapsed = time.perf_counter_ns() - start
        ok = answer is not None and self.oracle.check_stat(stream, window_start, window_end, answer)
        self._record("stat", start, elapsed, ok)

    def range(self, stream: int, start_ms: int, end_ms: int) -> None:
        session = self.session
        start = time.perf_counter_ns()
        try:
            answer = session.owner.get_range(session.uuids[stream], start_ms, end_ms)
        except Exception:  # noqa: BLE001
            answer = None
            self._fail()
        elapsed = time.perf_counter_ns() - start
        ok = answer is not None and self.oracle.check_points(stream, start_ms, end_ms, answer)
        self._record("range", start, elapsed, ok)

    # -- op mixes -------------------------------------------------------------------

    def random_stat(self) -> None:
        """A stat query over a random range of one stream's first ``STAT_WINDOWS`` windows."""
        stream = self.rng.randrange(len(self.session.uuids))
        head = min(self.session.heads[stream], STAT_WINDOWS)
        first, second = self.rng.randrange(head + 1), self.rng.randrange(head + 1)
        if first == second:
            second = first + 1 if first < head else first - 1
        self.stat(stream, min(first, second), max(first, second))

    def random_range(self) -> None:
        """A 60-s range read at a random offset into one stream's history."""
        stream = self.rng.randrange(len(self.session.uuids))
        span = self.session.heads[stream] * CHUNK_MS - RANGE_MS
        start_ms = self.rng.randrange(span + 1)
        self.range(stream, start_ms, start_ms + RANGE_MS)

    def dashboard_stat(self) -> None:
        """A stat query over the last 1–36 chunks of one stream."""
        stream = self.rng.randrange(len(self.session.uuids))
        head = self.session.heads[stream]
        back = self.rng.randint(1, DASHBOARD_CHUNKS)
        self.stat(stream, max(0, head - back), head)


# -- set-up -------------------------------------------------------------------------------


def _create_streams(owner: TimeCrypt, inputs: Inputs) -> List[str]:
    return [
        owner.create_stream(metric=source.metric, config=inputs.config(stream), uuid=f"stream-{stream:02d}")
        for stream, source in enumerate(inputs.streams)
    ]


def _open_windows(session: Session, inputs: Inputs, speed: Optional[HostSpeed], first_windows: int = 1) -> None:
    """Hand every stream its first ``first_windows`` windows in one call each."""
    for stream, uuid in enumerate(session.uuids):
        session.owner.insert_records(uuid, inputs.records(stream, 0, first_windows))
        if speed is not None:
            speed.sample()
    count = len(session.uuids)
    session.heads = [first_windows - 1] * count
    session.next_window = [first_windows] * count


def _remote_session(inputs: Inputs, kind: str, cache_bytes: int) -> Session:
    child = ChildServer(kind, cache_bytes)
    try:
        client = RemoteServerClient("127.0.0.1", child.port)
    except BaseException:
        child.close()
        raise
    owner = TimeCrypt(server=client, owner_id="perfbench")
    session = Session(owner=owner, uuids=[], child=child, client=client)
    try:
        session.uuids = _create_streams(owner, inputs)
    except BaseException:
        session.close()
        raise
    return session


def setup(name: str, inputs: Inputs, runner_seed: int, speed: Optional[HostSpeed] = None) -> tuple:
    """Build the workload's topology; returns ``(session, preload runner or None)``.

    ``speed`` samples the reference kernel after each preload call or round.
    """
    if name == "ingest-embedded":
        engine = ServerEngine()
        owner = TimeCrypt(server=engine, owner_id="perfbench")
        session = Session(owner=owner, uuids=_create_streams(owner, inputs), engine=engine)
        _open_windows(session, inputs, speed)
        return session, None
    if name == "query-wire":
        session = _remote_session(inputs, "engine", ServerEngine.index_cache_bytes)
        try:
            _open_windows(session, inputs, speed)
            preload = OpRunner(session, inputs, runner_seed)
            for _ in range(QUERY_WIRE_PRELOAD):
                for stream in range(len(session.uuids)):
                    preload.ingest(stream)
                if speed is not None:
                    speed.sample()
            session.owner.flush_all()
            session.heads = list(session.next_window)
        except BaseException:
            session.close()
            raise
        return session, preload
    if name == "mixed-cluster":
        session = _remote_session(inputs, "cluster", MIXED_INDEX_CACHE_BYTES)
        try:
            _open_windows(session, inputs, speed, MIXED_PRELOAD + 1)
        except BaseException:
            session.close()
            raise
        return session, None
    raise ValueError(f"unknown workload '{name}'")


# -- the traced run's wrappers --------------------------------------------------------------


class TraceControl:
    """Installs and removes the wrappers in the generator and the server child."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.recorder = Recorder(roots=layers.ROOT_NAMES)
        self.patcher = Patcher()
        self.engines = [session.engine] if session.engine is not None else []
        self.owners = [session.owner]
        self.on = False
        self.before = None
        self.restored = True

    def set(self, on: bool) -> None:
        if on == self.on:
            return
        if on:
            self.before = layers.patched_attributes(self.engines, self.owners)
            layers.install(self.recorder, self.patcher, self.engines, self.owners)
        else:
            self.patcher.restore()
            self.restored = self.restored and layers.unchanged(self.before)
        if self.session.child is not None:
            self.session.child.call("trace", on=on)
        self.on = on


# -- running ----------------------------------------------------------------------------------


def _group(name: str, runner: OpRunner, position: int) -> None:
    if name == "ingest-embedded":
        for stream in range(len(runner.session.uuids)):
            runner.ingest(stream)
    elif name == "query-wire":
        for _ in range(9):
            runner.random_stat()
        runner.random_range()
    else:
        runner.ingest(position % len(runner.session.uuids))
        for _ in range(4):
            runner.dashboard_stat()


def _median_ms(values: List[int]) -> float:
    return statistics.median(values) / 1e6 if values else 0.0


def _p99_ms(values: List[int]) -> float:
    if len(values) < 2:
        return _median_ms(values)
    return statistics.quantiles(values, n=100)[98] / 1e6


def _windowed_rate(values_ns: List[int], work_per_op: int, window: int) -> float:
    """Median over consecutive windows of ``window`` ops of work per second inside the calls.

    A median of window rates rather than one total keeps a few stalled calls
    from moving the throughput the way they cannot move a median latency.
    """
    rates = [
        work_per_op * window * 1e9 / sum(values_ns[start:start + window])
        for start in range(0, len(values_ns) - window + 1, window)
    ]
    return statistics.median(rates) if rates else 0.0


def pin_to_one_cpu() -> None:
    """Run the generator, and the server child it starts, on one CPU.

    The guest's vCPUs slow down independently of each other, and the
    reference kernel can only measure the one it runs on; with every process
    of the run on that CPU, the kernel's speed is the speed the ops ran at.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(name: str, seed: int, seconds: float, trace: bool, max_blocks: Optional[int] = None) -> dict:
    """One benchmark run; returns the result object the command prints.

    ``max_blocks`` ends the timed loop after that many blocks of op groups
    even before ``seconds`` pass, so tests can compare runs of equal work.
    """
    inputs = Inputs(seed)
    repeats = 1 if trace else SETUP_REPEATS[name]
    speed = None if trace else HostSpeed()
    #: ``(start_ns, end_ns, seconds)`` of each set-up, kernel runs inside it excluded.
    setup_times: List[tuple] = []
    preloads: List[OpRunner] = []
    session: Optional[Session] = None
    try:
        if speed is not None:
            speed.sample(SETUP_KERNEL_RUNS)
        for repeat in range(repeats):
            kernel_before = speed.total_ns if speed is not None else 0
            start = time.perf_counter_ns()
            session, preload = setup(name, inputs, seed, speed)
            end = time.perf_counter_ns()
            kernel_inside = (speed.total_ns if speed is not None else 0) - kernel_before
            setup_times.append((start, end, (end - start - kernel_inside) / 1e9))
            if speed is not None:
                speed.sample(SETUP_KERNEL_RUNS)
            if preload is not None:
                preloads.append(preload)
            if repeat < repeats - 1:
                session.close()
                session = None
        return _measure(name, seed, seconds, speed, max_blocks, inputs, session, setup_times, preloads)
    finally:
        if session is not None:
            session.close()


def _measure(name, seed, seconds, speed, max_blocks, inputs, session, setup_times, preloads) -> dict:
    """The timed loop (and read-back) after set-up; ``speed`` is None in a traced run."""
    trace = speed is None
    runner = OpRunner(session, inputs, seed + 1)
    control = TraceControl(session) if trace else None
    if session.child is not None:
        session.child.call("mark")
    cache_before = _cache_counters(session)
    wire_before = _wire_counters(session)
    readback_share = 0.0 if trace else READBACK.get(name, (0.0,))[0]
    block_walls = _timed_loop(name, runner, control, speed, seconds * (1.0 - readback_share), max_blocks)
    if trace:
        values = _traced_metrics(name, session, runner, control, block_walls, cache_before,
                                 wire_before, _wire_counters(session))
    else:
        timed = runner.take_phase()
        if readback_share:
            _readback(name, runner, speed, seconds * readback_share, max_blocks)
        readback = runner.take_phase()
        preloaded = [preload.take_phase() for preload in preloads]
        report = session.child.call("report") if session.child is not None else None
        raw = _end_to_end(session, report, setup_times, preloaded, timed, readback, None)
        print("unscaled: " + json.dumps(raw), file=sys.stderr)
        values = _end_to_end(session, report, setup_times, preloaded, timed, readback, speed)
    attempted = runner.attempted + sum(preload.attempted for preload in preloads)
    failed = runner.failed + sum(preload.failed for preload in preloads)
    errors = [each.first_error for each in (runner, *preloads) if each.first_error is not None]
    if errors:
        print(errors[0], file=sys.stderr)
    units = layers.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": failed == 0 and (control is None or control.restored),
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }


def _timed_loop(name, runner: OpRunner, control: Optional[TraceControl], speed: Optional[HostSpeed], seconds,
                max_blocks) -> Dict[bool, List[int]]:
    """Run op groups in blocks until ``seconds`` pass; returns busy time per block.

    A traced run alternates untraced and traced blocks of equal op groups; an
    untraced run is one untraced stretch cut into the same blocks, with the
    reference kernel sampled after each group.
    """
    block_walls: Dict[bool, List[int]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    position = block = 0
    while time.perf_counter() < deadline and (max_blocks is None or block < max_blocks):
        traced = control is not None and block % 2 == 1
        if control is not None:
            control.set(traced)
        runner.traced = traced
        busy_before = _busy(runner, traced)
        for _ in range(GROUPS_PER_BLOCK[name]):
            _group(name, runner, position)
            position += 1
            if speed is not None:
                speed.sample()
        block_walls[traced].append(_busy(runner, traced) - busy_before)
        block += 1
    if control is not None:
        control.set(False)
    runner.traced = False
    return block_walls


def _readback(name, runner: OpRunner, speed: HostSpeed, seconds, max_groups) -> None:
    """Query the ingested history for ``seconds``: groups of stats and 60-s ranges."""
    _, stats, ranges = READBACK[name]
    deadline = time.perf_counter() + seconds
    groups = 0
    while time.perf_counter() < deadline and (max_groups is None or groups < max_groups):
        groups += 1
        for _ in range(stats):
            runner.random_stat()
        for _ in range(ranges):
            runner.random_range()
        speed.sample()


def _busy(runner: OpRunner, traced: bool) -> int:
    samples = runner.traced_samples if traced else runner.samples
    return sum(sum(values) for values in samples.values())


def _wire_counters(session: Session) -> Dict[str, int]:
    if session.client is None:
        return {"round_trips": 0, "bytes": 0, "stalls_retries": 0}
    wire = session.client.wire_stats
    return {
        "round_trips": wire.round_trips,
        "bytes": wire.bytes_sent + wire.bytes_received,
        "stalls_retries": wire.credit_stalls + wire.overload_retries,
    }


def _cache_counters(session: Session) -> Dict[str, int]:
    if session.engine is None:
        return {"cache_hits": 0, "cache_misses": 0}
    stats = session.engine.cache_stats()
    return {"cache_hits": stats.hits, "cache_misses": stats.misses}


def _rss_mb(session: Session, report: Optional[dict]) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + (report["rss_mb"] if report else 0.0)


def _stored_bytes(session: Session, report: Optional[dict]) -> float:
    stored = report["storage_bytes"] if report else session.engine.storage_size_bytes()
    return stored / (sum(session.heads) * RECORDS_PER_CHUNK)


def _end_to_end(session, report, setup_times, preloaded: List[Phase], timed: Phase, readback: Phase,
                speed: Optional[HostSpeed]) -> Dict[str, float]:
    """End-to-end metrics; each comes from the phase that runs its op (see README).

    Times are scaled to the reference host speed when ``speed`` is given.
    """
    if preloaded:
        ingest = [value for phase in preloaded for value in phase.latencies("ingest", speed=speed)]
    else:
        ingest = timed.latencies("ingest", speed=speed)
    source = timed if timed.latencies("stat") else readback
    stats = source.latencies("stat", speed=speed)
    ranges = timed.latencies("range", speed=speed) or readback.latencies("range", speed=speed)
    setups = [
        speed.scale_interval(start, end, seconds) if speed is not None else seconds
        for start, end, seconds in setup_times
    ]
    return {
        "setup_s": statistics.median(setups),
        "ingest_records_per_s": _windowed_rate(ingest, RECORDS_PER_CHUNK, INGEST_WINDOW),
        "ingest_call_p50_ms": _median_ms(ingest),
        "query_ops_per_s": _windowed_rate(source.latencies("stat", "range", speed=speed), 1, QUERY_WINDOW),
        "stat_query_p50_ms": _median_ms(stats),
        "range_query_p50_ms": _median_ms(ranges),
        "stored_bytes_per_record": _stored_bytes(session, report),
        "peak_rss_mb": _rss_mb(session, report),
    }


def _traced_metrics(name, session, runner, control, block_walls, cache_before, wire_before, wire_after):
    TRACE_DIR.mkdir(exist_ok=True)
    gen_path = TRACE_DIR / f"{name}-generator.jsonl"
    control.recorder.dump(gen_path)
    gen_spans, counts, _ = load_trace(gen_path)
    child_spans = []
    report = None
    if session.child is not None:
        child_path = TRACE_DIR / f"{name}-server.jsonl"
        report = session.child.call("report", trace_path=str(child_path))
        control.restored = control.restored and report["restored"]
        child_spans, child_counts, _ = load_trace(child_path)
        counts.update(child_counts)
    # Blocks alternate untraced, traced: compare equally many of each.
    pairs = min(len(block_walls[False]), len(block_walls[True]))
    paired_traced = sum(block_walls[True][:pairs])
    paired_untraced = sum(block_walls[False][:pairs])
    traced_ops = {kind: len(values) for kind, values in runner.traced_samples.items()}
    traced_ops["records"] = runner.traced_records
    total_ops = sum(len(values) for values in runner.samples.values()) + sum(
        len(values) for values in runner.traced_samples.values())
    if report is not None:
        cache = {"cache_hits": report["cache_hits"], "cache_misses": report["cache_misses"]}
    else:
        after = _cache_counters(session)
        cache = {key: after[key] - cache_before[key] for key in after}
    lookups = cache["cache_hits"] + cache["cache_misses"]
    wire_rt = wire_after["round_trips"] - wire_before["round_trips"]
    extra = {
        "core.insert_records_p99_ms": _p99_ms(runner.samples["ingest"]),
        "core.get_stat_range_p99_ms": _p99_ms(runner.samples["stat"]),
        "core.get_range_p99_ms": _p99_ms(runner.samples["range"]),
        "net.round_trips_per_op": wire_rt / total_ops,
        "net.bytes_per_op": (wire_after["bytes"] - wire_before["bytes"]) / total_ops,
        "net.stalls_and_retries_per_op": (
            wire_after["stalls_retries"] - wire_before["stalls_retries"]
            + (report["node_stalls_retries"] if report else 0)
        ) / total_ops,
        "index.cache_hit_ratio": cache["cache_hits"] / lookups if lookups else 0.0,
        "storage.max_node_round_trips_per_batch": _node_round_trips_per_batch(report, gen_spans + child_spans),
    }
    overhead = paired_traced / paired_untraced - 1.0 if paired_untraced else 0.0
    return layers.per_layer_metrics(
        gen_spans, child_spans, counts, traced_ops, sum(block_walls[True]), overhead, extra
    )


def _node_round_trips_per_batch(report: Optional[dict], spans) -> float:
    """The busiest node's wire round trips per engine storage call, over traced blocks."""
    if not report or not report["traced_node_round_trips"]:
        return 0.0
    batches = sum(1 for span in spans if span["layer"] == "storage" and span["parent_layer"] != "storage")
    return max(report["traced_node_round_trips"]) / batches if batches else 0.0
