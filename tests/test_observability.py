"""The observability plane: metrics registry, tracing, scrape ops, logging.

Covers the unified plane added in :mod:`repro.obs`:

- the process-wide :class:`MetricsRegistry` (weakly-held sources, collision
  suffixing, the deterministic-counter subset the CI gate reads),
- :class:`Counter` / :class:`Gauge` / :class:`Histogram` primitives,
- the bounded :class:`SpanCollector` ring buffer and its slow-request log,
- the ``stats`` / ``trace_dump`` wire scrape ops on every tier,
- trace-context propagation: the ``trace`` header key, the per-connection
  negotiation, thread-local parenting through server handlers, and the
  connected span tree across client → router → engine shard → storage node,
- edge cases: refused v1 peers, compressed frames, ``overloaded`` sheds
  retried under the same trace id, and zero span recording with tracing off,
- the adaptive ``retry_after_ms`` hint derived from the bulk drain rate,
- library-style logging (NullHandler on the ``repro`` root logger; cluster
  lifecycle events emitted at INFO/WARNING).
"""

from __future__ import annotations

import logging
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.exceptions import OverloadedError, StreamNotFoundError
from repro.net.client import RemoteServerClient, ShardedServerClient
from repro.net.messages import Request, Response
from repro.net.server import (
    DEFAULT_RETRY_AFTER_MS,
    MAX_RETRY_AFTER_MS,
    MIN_RETRY_AFTER_MS,
    RequestDispatcher,
    TimeCryptTCPServer,
    WireDispatcher,
    _FrameScheduler,
)
from repro.obs import SPANS
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import SpanCollector, current_context, set_context
from repro.server.router import deploy_sharded_engines
from repro.storage.cluster import StorageCluster
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.util.timeutil import TimeRange

CHUNK_INTERVAL = 1_000


@pytest.fixture(autouse=True)
def _clean_spans():
    """Each test starts and ends with an empty process-global span buffer."""
    SPANS.clear()
    yield
    SPANS.clear()


# ---------------------------------------------------------------------------
# Metrics registry


class _Stats:
    def __init__(self) -> None:
        self.calls = 0

    def snapshot(self):
        return {"calls": self.calls}


def test_registry_register_snapshot_unregister():
    registry = MetricsRegistry()
    source = _Stats()
    source.calls = 3
    key = registry.register("test.stats", source)
    assert registry.snapshot()[key] == {"calls": 3}
    registry.unregister(key)
    assert key not in registry.snapshot()


def test_registry_suffixes_colliding_names():
    registry = MetricsRegistry()
    first, second = _Stats(), _Stats()
    key_a = registry.register("dup", first)
    key_b = registry.register("dup", second)
    assert key_a == "dup"
    assert key_b != "dup" and key_b.startswith("dup#")
    assert set(registry.snapshot()) == {key_a, key_b}


def test_registry_prunes_dead_sources():
    registry = MetricsRegistry()
    source = _Stats()
    key = registry.register("ephemeral", source)
    assert key in registry.snapshot()
    del source
    assert key not in registry.snapshot()


def test_registry_deterministic_subset():
    registry = MetricsRegistry()
    source = _Stats()

    def snapshot(stats):
        return {"calls": stats.calls, "wall_ms": 12.7}

    key = registry.register("mixed", source, snapshot=snapshot, deterministic=("calls",))
    deterministic = registry.deterministic_snapshot()
    # Only the declared counters survive; the timing field is filtered out.
    assert deterministic == {key: {"calls": 0}}


def test_registry_default_snapshot_uses_dataclass_fields():
    from repro.storage.memory import StoreStats

    registry = MetricsRegistry()
    stats = StoreStats()
    stats.gets = 5
    key = registry.register("ds", stats)
    assert registry.snapshot()[key]["gets"] == 5


def test_counter_gauge_histogram():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert counter.snapshot() == {"count": 5}

    gauge = Gauge()
    gauge.set(17)
    assert gauge.value == 17
    assert gauge.snapshot() == {"value": 17}

    histogram = Histogram(boundaries=(10, 100))
    for value in (1, 10, 11, 1000):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["counts"] == [2, 1, 1]  # <=10, <=100, overflow
    assert snap["count"] == 4
    assert snap["sum"] == 1022


# ---------------------------------------------------------------------------
# Span collector


def test_span_collector_bounds_and_filters():
    collector = SpanCollector(capacity=4)
    for index in range(10):
        collector.record({"trace_id": f"t{index % 2}", "span_id": str(index)})
    assert collector.recorded == 10
    spans = collector.spans()
    assert len(spans) == 4  # oldest six dropped
    assert [span["span_id"] for span in spans] == ["6", "7", "8", "9"]
    assert all(span["trace_id"] == "t1" for span in collector.spans(trace_id="t1"))
    assert len(collector.spans(limit=2)) == 2
    assert collector.snapshot() == {"recorded": 10, "buffered": 4}


def test_span_collector_slow_request_log(caplog):
    collector = SpanCollector(capacity=8, slow_ms=50.0)
    with caplog.at_level(logging.WARNING, logger="repro.obs.tracing"):
        collector.record({"trace_id": "t", "span_id": "a", "op": "fast", "total_ms": 1.0})
        collector.record({"trace_id": "t", "span_id": "b", "op": "slow", "total_ms": 80.0})
    messages = [record.getMessage() for record in caplog.records]
    assert any("slow request" in message and "op=slow" in message for message in messages)
    assert not any("op=fast" in message for message in messages)


def test_thread_local_context_is_per_thread():
    assert current_context() is None
    previous = set_context(("trace", "span"))
    try:
        assert previous is None
        assert current_context() == ("trace", "span")
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(current_context).result() is None
    finally:
        set_context(previous)
    assert current_context() is None


# ---------------------------------------------------------------------------
# Scrape ops over the wire


def test_stats_scrape_over_socket():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, node_name="engine-main") as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:
            assert remote.supports_operation("stats")
            response = remote.call_many([Request("stats")])[0]
    assert response.ok
    assert response.result["node"] == "engine-main"
    metrics = response.result["metrics"]
    # One snapshot covers the whole process: the engine's query stats, the
    # index cache, the store, the scheduler, and the wire-memory counters.
    assert any(key.startswith("engine.query_stats") for key in metrics)
    assert any(key.startswith("engine.index_cache") for key in metrics)
    assert any(key.startswith("store.memory") for key in metrics)
    assert any(key.startswith("server.scheduler") for key in metrics)
    assert "wire.memory" in metrics
    assert "tracing.spans" in metrics


def test_trace_dump_scrape_over_socket():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, node_name="engine-main") as server:
        host, port = server.address
        with RemoteServerClient(host, port, tracing=True) as remote:
            remote.ping()
            response = remote.call_many([Request("trace_dump")])[0]
    assert response.ok
    spans = response.result["spans"]
    server_spans = [span for span in spans if span["kind"] == "server"]
    assert server_spans, "the traced ping must have produced a server span"
    ping = next(span for span in server_spans if span["op"] == "ping")
    assert ping["node"] == "engine-main"
    assert ping["status"] == "ok"
    for field in ("queue_ms", "handler_ms", "write_ms", "total_ms", "request_bytes"):
        assert field in ping


def test_trace_dump_filters_by_trace_id():
    SPANS.record({"trace_id": "aaaa", "span_id": "1", "kind": "client"})
    SPANS.record({"trace_id": "bbbb", "span_id": "2", "kind": "client"})
    engine = ServerEngine()
    with TimeCryptTCPServer(engine) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:
            response = remote.call_many([Request("trace_dump", {"trace_id": "aaaa"})])[0]
    assert [span["span_id"] for span in response.result["spans"]] == ["1"]


def test_scrape_ops_are_interactive_and_lock_free():
    from repro.net.messages import BULK_OPERATIONS, classify_operation

    for operation in ("stats", "trace_dump"):
        assert operation not in BULK_OPERATIONS
        assert classify_operation(operation) == "interactive"
        assert operation in RequestDispatcher._LOCK_FREE_OPS


# ---------------------------------------------------------------------------
# Trace negotiation and propagation


def test_tracing_negotiated_in_hello():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, tracing=True) as server:
        host, port = server.address
        with RemoteServerClient(host, port, tracing=True) as remote:
            assert remote.hello_info.get("tracing") is True


def test_server_records_no_spans_for_non_tracing_client():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:  # tracing off (default)
            remote.ping()
    assert SPANS.spans() == []


def test_tracing_disabled_server_ignores_trace_context():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, tracing=False) as server:
        host, port = server.address
        with RemoteServerClient(host, port, tracing=True) as remote:
            assert remote.hello_info.get("tracing") is None
            assert remote.ping()
    # The client still opened its own span; the server recorded none.
    kinds = {span["kind"] for span in SPANS.spans()}
    assert kinds == {"client"}


def test_client_and_server_spans_share_a_trace():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, node_name="engine-main") as server:
        host, port = server.address
        with RemoteServerClient(host, port, tracing=True) as remote:
            remote.ping()
    spans = SPANS.spans()
    client = next(span for span in spans if span["kind"] == "client" and span["op"] == "ping")
    srv = next(span for span in spans if span["kind"] == "server" and span["op"] == "ping")
    assert client["trace_id"] == srv["trace_id"]
    assert srv["parent_id"] == client["span_id"]
    assert client["parent_id"] is None
    assert client["status"] == "ok"


def test_error_spans_record_the_error_type():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine) as server:
        host, port = server.address
        with RemoteServerClient(host, port, tracing=True) as remote:
            with pytest.raises(StreamNotFoundError):
                remote.stream_head("no-such-stream")
    statuses = {span["kind"]: span["status"] for span in SPANS.spans() if span["op"] == "stream_head"}
    assert statuses["server"] == "StreamNotFoundError"
    assert statuses["client"] == "StreamNotFoundError"


def test_v1_lockstep_client_with_tracing_is_harmless():
    """A retired v1 peer offering a trace key is refused without a span."""
    engine = ServerEngine()
    with TimeCryptTCPServer(engine) as server:
        host, port = server.address
        hello = Request("hello", {"tracing": True}).encode()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"TC" + len(hello).to_bytes(4, "big") + hello)
            try:
                assert sock.recv(1) == b""  # closed unanswered
            except ConnectionResetError:
                pass
        with RemoteServerClient(host, port) as remote:
            assert remote.ping()  # the server is unharmed
    assert SPANS.spans() == []


def test_tracing_rides_compressed_frames():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, wire_compression=True, node_name="zip") as server:
        host, port = server.address
        with RemoteServerClient(host, port, compression=True, tracing=True) as remote:
            assert "zlib" in remote.hello_info.get("compression", [])
            # Big compressible args force the compressed-frame path.
            response = remote.call_many(
                [Request("ping", {"pad": "x" * 65536}) for _ in range(3)]
            )
            assert all(r.ok for r in response)
            sent = remote.wire_stats.frames_compressed
    assert sent > 0, "the padded requests must have travelled compressed"
    server_spans = [span for span in SPANS.spans() if span["kind"] == "server"]
    assert len([span for span in server_spans if span["op"] == "ping"]) == 3


def test_shed_retry_keeps_the_trace_id():
    """A request re-sent after an ``overloaded`` shed is the same span."""

    class _Shedder(WireDispatcher):
        def __init__(self) -> None:
            self.attempts = 0

        def _op_stream_head(self, _request: Request) -> Response:
            self.attempts += 1
            if self.attempts <= 2:
                response = Response.failure(OverloadedError("busy", retry_after_ms=5))
                response.result = {"retry_after_ms": 5, "queue": "interactive"}
                return response
            return Response.success({"head": 7})

    dispatcher = _Shedder()
    with TimeCryptTCPServer(dispatcher=dispatcher, node_name="shedder") as server:
        host, port = server.address
        with RemoteServerClient(host, port, overload_retries=4, tracing=True) as remote:
            assert remote.stream_head("s") == 7
            assert remote.wire_stats.overload_retries == 2
    spans = [span for span in SPANS.spans() if span["op"] == "stream_head"]
    client_spans = [span for span in spans if span["kind"] == "client"]
    server_spans = [span for span in spans if span["kind"] == "server"]
    # One client span for the whole retried call; one server span per
    # attempt (two sheds, one success), all under the same trace id.
    assert len(client_spans) == 1
    assert len(server_spans) == 3
    trace_ids = {span["trace_id"] for span in spans}
    assert trace_ids == {client_spans[0]["trace_id"]}
    assert all(span["parent_id"] == client_spans[0]["span_id"] for span in server_spans)
    statuses = sorted(span["status"] for span in server_spans)
    assert statuses == ["OverloadedError", "OverloadedError", "ok"]


# ---------------------------------------------------------------------------
# The connected span tree across tiers


def _assert_connected_tree(spans, trace_id):
    tree = [span for span in spans if span["trace_id"] == trace_id]
    by_id = {span["span_id"]: span for span in tree}
    roots = [span for span in tree if span["parent_id"] is None]
    assert len(roots) == 1, f"expected one root, got {roots}"
    for span in tree:
        if span["parent_id"] is not None:
            assert span["parent_id"] in by_id, f"orphan span {span}"
    return tree, roots[0]


def _one_encrypted_stream(num_chunks: int = 8):
    scratch = ServerEngine()
    owner = TimeCrypt(server=scratch, owner_id="tester")
    config = StreamConfig(chunk_interval=CHUNK_INTERVAL, index_fanout=4)
    uuid = owner.create_stream(metric="obs", config=config)
    owner.insert_records(
        uuid, [(t, float(t % 97)) for t in range(0, num_chunks * CHUNK_INTERVAL, 100)]
    )
    owner.flush(uuid)
    chunks = [scratch.get_chunk(uuid, position) for position in range(num_chunks)]
    return scratch.stream_metadata(uuid), chunks


def test_sharded_stat_range_yields_connected_tree_to_storage():
    """The acceptance path: client → engine shard → storage node, one tree."""
    backing = MemoryStore()
    with StorageNodeServer(backing, node_name="storage-0") as node:
        host, port = node.address
        from repro.access.keystore import TokenStore

        engines = {}
        for index in range(2):
            store = RemoteKeyValueStore(host, port, timeout=10.0, tracing=True)
            engines[f"engine-{index}"] = ServerEngine(
                store=store, token_store=TokenStore(store=store)
            )
        router, shards = deploy_sharded_engines(engines)
        try:
            metadata, chunks = _one_encrypted_stream()
            with ShardedServerClient(*router.address, timeout=10.0, tracing=True) as client:
                client.create_stream(metadata)
                client.insert_chunks(chunks)
                # Drop cached index state so the query must read storage.
                for shard in shards.values():
                    shard.engine.reset_stream_cache()
                SPANS.clear()
                result = client.stat_range(metadata.uuid, TimeRange(0, 8 * CHUNK_INTERVAL))
                assert result.cells
        finally:
            router.stop()
            for shard in shards.values():
                shard.stop()

        spans = SPANS.spans()
        root = next(
            span
            for span in spans
            if span["kind"] == "client" and span["op"] == "stat_range" and span["parent_id"] is None
        )
        tree, _ = _assert_connected_tree(spans, root["trace_id"])
        engine_spans = [
            span for span in tree if span["kind"] == "server" and span["op"] == "stat_range"
        ]
        assert len(engine_spans) == 1
        assert engine_spans[0]["node"].startswith("engine:engine-")
        assert engine_spans[0]["parent_id"] == root["span_id"]
        # The engine's storage reads hang off its server span...
        kv_clients = [
            span for span in tree if span["kind"] == "client" and span["op"].startswith("kv_")
        ]
        assert kv_clients
        assert all(span["parent_id"] == engine_spans[0]["span_id"] for span in kv_clients)
        # ...and the storage node's server spans hang off those.
        kv_servers = [
            span for span in tree if span["kind"] == "server" and span["op"].startswith("kv_")
        ]
        assert kv_servers
        assert kv_servers[0]["node"] == "storage-0"
        kv_client_ids = {span["span_id"] for span in kv_clients}
        assert all(span["parent_id"] in kv_client_ids for span in kv_servers)


def test_router_proxied_request_yields_four_tier_tree():
    """A plain client through the router: client → router → engine → storage."""
    backing = MemoryStore()
    with StorageNodeServer(backing, node_name="storage-0") as node:
        host, port = node.address
        from repro.access.keystore import TokenStore

        store = RemoteKeyValueStore(host, port, timeout=10.0, tracing=True)
        engines = {"engine-0": ServerEngine(store=store, token_store=TokenStore(store=store))}
        router, shards = deploy_sharded_engines(engines)
        try:
            metadata, chunks = _one_encrypted_stream()
            with RemoteServerClient(*router.address, tracing=True) as remote:
                remote.create_stream(metadata)
                remote.insert_chunks(chunks)
                shards["engine-0"].engine.reset_stream_cache()
                SPANS.clear()
                remote.stat_range(metadata.uuid, TimeRange(0, 8 * CHUNK_INTERVAL))
        finally:
            router.stop()
            for shard in shards.values():
                shard.stop()

        spans = SPANS.spans()
        root = next(
            span
            for span in spans
            if span["kind"] == "client" and span["op"] == "stat_range" and span["parent_id"] is None
        )
        tree, _ = _assert_connected_tree(spans, root["trace_id"])
        nodes_by_kind = {(span["kind"], span["node"]) for span in tree}
        assert ("server", "router") in nodes_by_kind
        assert ("server", "engine:engine-0") in nodes_by_kind
        assert ("server", "storage-0") in nodes_by_kind
        # Four tiers deep: root client → router server → (forwarded request
        # keeps the root's trace context) engine server → kv client → storage.
        depths = {}

        def depth(span_id, by_id):
            span = by_id[span_id]
            if span["parent_id"] is None:
                return 0
            return 1 + depth(span["parent_id"], by_id)

        by_id = {span["span_id"]: span for span in tree}
        for span in tree:
            depths[span["span_id"]] = depth(span["span_id"], by_id)
        assert max(depths.values()) >= 3


def test_scrape_each_tier_in_one_round_trip():
    """stats / trace_dump pull from router, engine shard, and storage node."""
    backing = MemoryStore()
    with StorageNodeServer(backing, node_name="storage-0") as node:
        engines = {"engine-0": ServerEngine()}
        router, shards = deploy_sharded_engines(engines)
        try:
            targets = [router.address, shards["engine-0"].address, node.address]
            for address in targets:
                with RemoteServerClient(*address, timeout=10.0) as remote:
                    before = remote.wire_stats.round_trips
                    stats = remote.call_many([Request("stats")])[0]
                    dump = remote.call_many([Request("trace_dump")])[0]
                    assert stats.ok and dump.ok
                    assert "metrics" in stats.result and "spans" in dump.result
                    assert remote.wire_stats.round_trips == before + 2
        finally:
            router.stop()
            for shard in shards.values():
                shard.stop()


# ---------------------------------------------------------------------------
# Adaptive overload hints


def _make_scheduler(bulk_limit: int = 8) -> _FrameScheduler:
    pool = ThreadPoolExecutor(max_workers=1)
    scheduler = _FrameScheduler(
        pool=pool,
        handler=lambda *args: None,
        max_workers=1,
        interactive_limit=8,
        bulk_limit=bulk_limit,
        interactive_weight=4,
    )
    return scheduler


def test_retry_hint_falls_back_before_measurements():
    scheduler = _make_scheduler()
    assert scheduler.retry_hint_ms("bulk", default=25) == 25
    assert scheduler.retry_hint_ms("interactive", default=25) == 25


def test_retry_hint_scales_with_depth_and_drain_rate():
    scheduler = _make_scheduler()
    scheduler._bulk_interval_ewma_ns = 4e6  # 4 ms per bulk dispatch
    scheduler._queues["bulk"].extend((None, None, 0) for _ in range(5))
    hint = scheduler.retry_hint_ms("bulk", default=25)
    assert hint == 20  # 5 deep × 4 ms
    # Clamped at both ends.
    scheduler._bulk_interval_ewma_ns = 1e3
    assert scheduler.retry_hint_ms("bulk", default=25) == MIN_RETRY_AFTER_MS
    scheduler._bulk_interval_ewma_ns = 1e12
    assert scheduler.retry_hint_ms("bulk", default=25) == MAX_RETRY_AFTER_MS
    # Interactive sheds never use the bulk drain estimate.
    assert scheduler.retry_hint_ms("interactive", default=25) == 25


def test_shed_carries_adaptive_hint_after_bulk_traffic():
    """Once bulk frames have drained, sheds hint the measured rate, not 25."""
    import threading

    class _Gated(WireDispatcher):
        def __init__(self) -> None:
            self.release = threading.Event()

        def _op_insert_chunks(self, request: Request) -> Response:
            self.release.wait(10)
            return Response.success({"window_index": 0, "num_chunks": len(request.attachments)})

    dispatcher = _Gated()
    with TimeCryptTCPServer(
        dispatcher=dispatcher, max_workers=1, bulk_queue_limit=2, retry_after_ms=40
    ) as server:
        host, port = server.address
        with RemoteServerClient(host, port, overload_retries=0) as remote:
            requests = [Request("insert_chunks", {}, [b"\x00"]) for _ in range(12)]
            futures = remote._send_requests(requests)
            deadline = time.monotonic() + 5
            while sum(f.done() for f in futures) < 8 and time.monotonic() < deadline:
                time.sleep(0.005)
            dispatcher.release.set()
            responses = [future.result(timeout=10) for future in futures]
    shed = [r for r in responses if not r.ok]
    assert shed and all(r.error_type == "OverloadedError" for r in shed)
    hints = {r.result["retry_after_ms"] for r in shed}
    # Before two bulk dispatches the configured default applies; once the
    # drain rate is measured the hint is clamped into the adaptive band.
    assert all(
        hint == 40 or MIN_RETRY_AFTER_MS <= hint <= MAX_RETRY_AFTER_MS for hint in hints
    )
    assert DEFAULT_RETRY_AFTER_MS == 25  # the constant remains the fallback


# ---------------------------------------------------------------------------
# Logging


def test_repro_root_logger_has_null_handler():
    import repro.obs  # noqa: F401 — importing installs the handler

    handlers = logging.getLogger("repro").handlers
    assert any(isinstance(handler, logging.NullHandler) for handler in handlers)


def test_cluster_lifecycle_events_logged(caplog):
    cluster = StorageCluster(num_nodes=3, replication_factor=2)
    cluster.put(b"chunk/x", b"payload")
    name = cluster.node_names[0]
    with caplog.at_level(logging.INFO, logger="repro.storage.cluster"):
        cluster.mark_down(name)
        cluster.put(b"chunk/x", b"payload-2")  # parks a hint for the downed node
        cluster.mark_up(name)
    messages = [record.getMessage() for record in caplog.records]
    assert any("marked down" in message for message in messages)
    assert any("marked up" in message for message in messages)


def test_tracing_off_is_allocation_free_on_the_scheduler_path():
    """With tracing off, enqueue timestamps stay zero (no per-frame clock reads)."""
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, tracing=False) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:
            for _ in range(4):
                remote.ping()
    assert SPANS.spans() == []
