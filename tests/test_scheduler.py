"""Request scheduling, credit-based flow control, and typed overload shedding.

Covers the QoS layer added to :class:`~repro.net.server.TimeCryptTCPServer`:

- frame classification (bulk vs. interactive) and header peeking,
- the client-side credit gate (window never goes negative, grants clamp),
- typed ``overloaded`` responses when the bulk queue is full — a shed is a
  prompt, typed answer, never a timeout or a dead correlation id,
- weighted dispatch: interactive ops answer while bulk traffic saturates
  the workers,
- the server refusing a credit window below one,
- capped-backoff retry of shed requests in the v2 client,
- sliced dispatch of giant ingest batches (engine lock released between
  slices, validation per slice),
- the storage tier mapping a shed to :class:`StorageError` once retries
  are exhausted, and
- the router's concurrent cross-shard fan-out.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import ServerEngine, TimeCrypt
from repro.exceptions import (
    OverloadedError,
    StorageError,
)
from repro.net.client import RemoteServerClient, _CreditGate
from repro.net.messages import (
    BULK_OPERATIONS,
    Request,
    Response,
    ShardRoutingTable,
    classify_operation,
    peek_operation,
)
from repro.net.server import RequestDispatcher, TimeCryptTCPServer, WireDispatcher
from repro.server.router import RouterDispatcher, RoutingTableRef
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.timeseries.serialization import encode_encrypted_chunk
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange

CHUNK_INTERVAL = 1_000


def _wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


class _GatedDispatcher(WireDispatcher):
    """Bulk ops block on an event; completion order is recorded.

    Deliberately engine-free: these tests exercise the transport's
    scheduling, not the engine, so handlers are trivial and hold no lock.
    """

    def __init__(self) -> None:
        self.release = threading.Event()
        self.order = []
        self._order_lock = threading.Lock()

    def _op_insert_chunks(self, request: Request) -> Response:
        self.release.wait(10)
        with self._order_lock:
            self.order.append("bulk")
        return Response.success({"window_index": 0, "num_chunks": len(request.attachments)})

    def _op_stream_head(self, _request: Request) -> Response:
        with self._order_lock:
            self.order.append("interactive")
        return Response.success({"head": 0})


class _FlakyDispatcher(WireDispatcher):
    """Sheds the first ``sheds`` stream_head calls, then answers."""

    def __init__(self, sheds: int) -> None:
        self._sheds = sheds
        self.attempts = 0

    def _op_stream_head(self, _request: Request) -> Response:
        self.attempts += 1
        if self.attempts <= self._sheds:
            response = Response.failure(OverloadedError("busy", retry_after_ms=5))
            response.result = {"retry_after_ms": 5, "queue": "interactive"}
            return response
        return Response.success({"head": 7})


# -- classification and peeking ------------------------------------------------------


def test_classify_operation():
    assert classify_operation("insert_chunks") == "bulk"
    assert classify_operation("kv_multi_put") == "bulk"
    assert classify_operation("rollup_stream") == "bulk"
    assert classify_operation("stat_range") == "interactive"
    assert classify_operation("kv_multi_get") == "interactive"  # query fetches ride on it
    assert classify_operation("hello") == "interactive"
    assert classify_operation(None) == "interactive"
    assert BULK_OPERATIONS.isdisjoint({"hello", "ping", "stat_range", "get_range"})


def test_peek_operation_reads_only_the_header():
    payload = Request("insert_chunks", {"x": 1}, [b"\x00" * 64]).encode()
    assert peek_operation(payload) == "insert_chunks"
    assert peek_operation(b"\x05notjs") is None
    assert peek_operation(b"") is None


# -- the credit gate -----------------------------------------------------------------


def test_credit_gate_never_negative_and_grants_clamp():
    gate = _CreditGate(4)
    assert gate.window == 4 and gate.available == 4
    assert gate.acquire(10, timeout=1.0) == 4  # clamped to what's available
    assert gate.available == 0
    assert gate.acquire(1, timeout=0.05) == 0  # timeout, not a negative balance
    gate.grant(2)
    assert gate.available == 2
    gate.grant(100)  # clamps at the window, never beyond
    assert gate.available == 4
    assert gate.acquire(3, timeout=1.0) == 3
    assert gate.available == 1


def test_hello_advertises_credits():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, credit_window=7) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:
            assert remote.hello_info.get("credits") == 7
            assert remote.credit_window == 7
            assert remote.credits_available == 7
    # In-process dispatch advertises no credits: there is no transport to pace.
    hello = RequestDispatcher(ServerEngine()).dispatch(Request("hello"))
    assert "credits" not in hello.result


# -- typed overload shedding ---------------------------------------------------------


def test_full_bulk_queue_sheds_typed_not_timeout():
    dispatcher = _GatedDispatcher()
    with TimeCryptTCPServer(
        dispatcher=dispatcher, max_workers=1, bulk_queue_limit=2, retry_after_ms=40
    ) as server:
        host, port = server.address
        with RemoteServerClient(host, port, overload_retries=0) as remote:
            offered = 16
            requests = [Request("insert_chunks", {}, [b"\x00"]) for _ in range(offered)]
            futures = remote._send_requests(requests)
            # Sheds must arrive while the lone worker is still blocked: the
            # backpressure signal does not queue behind saturated dispatch.
            _wait_until(lambda: sum(f.done() for f in futures) >= offered - 4)
            dispatcher.release.set()
            responses = [future.result(timeout=10) for future in futures]

        ok = [r for r in responses if r.ok]
        shed = [r for r in responses if not r.ok]
        # Zero silent drops: every correlation id answered, every failure typed.
        assert len(ok) + len(shed) == offered
        assert ok and shed
        assert all(r.error_type == "OverloadedError" for r in shed)
        assert all(r.result["retry_after_ms"] == 40 for r in shed)
        assert all(r.result["queue"] == "bulk" for r in shed)

        stats = server.scheduler_stats()
        assert stats["shed_bulk"] == len(shed)
        assert stats["dispatched_bulk"] == len(ok)
        assert stats["max_depth_bulk"] <= 2


def test_interactive_answers_while_bulk_saturated():
    dispatcher = _GatedDispatcher()
    with TimeCryptTCPServer(dispatcher=dispatcher, max_workers=1, bulk_queue_limit=64) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:
            bulk_futures = remote._send_requests(
                [Request("insert_chunks", {}, [b"\x00"]) for _ in range(6)]
            )
            _wait_until(
                lambda: server.scheduler_stats()["dispatched_bulk"] >= 1
                and server.scheduler_stats()["enqueued_bulk"] == 6
            )
            head_future = remote._send_requests([Request("stream_head", {"uuid": "s"})])[0]
            # enqueued_interactive is 2: the connect-time hello plus this head.
            _wait_until(lambda: server.scheduler_stats()["enqueued_interactive"] == 2)
            dispatcher.release.set()
            assert head_future.result(timeout=10).ok
            assert all(f.result(timeout=10).ok for f in bulk_futures)

    # One worker makes the drain order deterministic: the in-flight bulk
    # request finishes first, then weighted round-robin picks the lone
    # interactive request ahead of the five queued bulk requests.
    assert dispatcher.order[0] == "bulk"
    assert dispatcher.order.index("interactive") == 1


def test_overload_retry_backoff_then_success():
    dispatcher = _FlakyDispatcher(sheds=2)
    with TimeCryptTCPServer(dispatcher=dispatcher) as server:
        host, port = server.address
        with RemoteServerClient(host, port, overload_retries=4) as remote:
            assert remote.stream_head("s") == 7
            assert remote.wire_stats.overload_retries == 2
            assert dispatcher.attempts == 3


def test_overload_surfaces_typed_when_retries_exhausted():
    dispatcher = _FlakyDispatcher(sheds=100)
    with TimeCryptTCPServer(dispatcher=dispatcher) as server:
        host, port = server.address
        with RemoteServerClient(host, port, overload_retries=1) as remote:
            with pytest.raises(OverloadedError) as excinfo:
                remote.stream_head("s")
            assert excinfo.value.retry_after_ms == 5


# -- credit-based flow control over the wire -----------------------------------------


def test_credit_window_paces_the_sender():
    dispatcher = _GatedDispatcher()
    with TimeCryptTCPServer(dispatcher=dispatcher, max_workers=2, credit_window=4) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:
            assert remote.credit_window == 4
            requests = [Request("insert_chunks", {}, [b"\x00"]) for _ in range(12)]
            futures_box = {}

            def send():
                futures_box["futures"] = remote._send_requests(requests)

            sender = threading.Thread(target=send)
            sender.start()
            # The first burst (= the window) goes out, then the sender stalls:
            # no responses yet, so no credits come back.
            _wait_until(lambda: remote.wire_stats.credit_stalls >= 1)
            assert remote.credits_available == 0
            dispatcher.release.set()
            sender.join(timeout=10)
            assert not sender.is_alive()
            responses = [f.result(timeout=10) for f in futures_box["futures"]]
            assert all(r.ok for r in responses)
            # Every response granted its credit back: the gate refills exactly
            # to the window, never beyond it.
            assert remote.credits_available == 4
        assert server.scheduler_stats()["max_in_flight"] <= 4


def test_credit_window_never_negative_under_concurrent_call_many():
    engine = ServerEngine()
    with TimeCryptTCPServer(engine, credit_window=4) as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:
            errors = []

            def burst():
                try:
                    responses = remote.call_many([Request("ping") for _ in range(8)])
                    assert all(r.ok for r in responses)
                except Exception as exc:  # noqa: BLE001 — collected for the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=burst) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
            assert not errors
            assert remote.credits_available == remote.credit_window == 4
        assert server.scheduler_stats()["max_in_flight"] <= 4


def test_credit_window_below_one_refused():
    with pytest.raises(ValueError, match="credit"):
        TimeCryptTCPServer(ServerEngine(), credit_window=0)


# -- sliced giant-ingest dispatch ----------------------------------------------------


def _encrypted_chunks(num_chunks: int):
    engine = ServerEngine()
    owner = TimeCrypt(server=engine, owner_id="alice")
    config = StreamConfig(chunk_interval=CHUNK_INTERVAL, key_tree_height=16)
    uuid = owner.create_stream(metric="sliced", config=config)
    step = CHUNK_INTERVAL // 4
    owner.insert_records(
        uuid, [(t, float(t % 97)) for t in range(0, num_chunks * CHUNK_INTERVAL, step)]
    )
    owner.flush(uuid)
    chunks = engine.get_range(uuid, TimeRange(0, num_chunks * CHUNK_INTERVAL))
    assert len(chunks) == num_chunks
    return engine.stream_metadata(uuid), chunks


def test_sliced_ingest_matches_unsliced():
    metadata, chunks = _encrypted_chunks(16)
    attachments = [encode_encrypted_chunk(chunk) for chunk in chunks]

    sliced_engine = ServerEngine()
    sliced_engine.create_stream(metadata)
    sliced = RequestDispatcher(sliced_engine, bulk_slice_chunks=4)
    response = sliced.dispatch(Request("insert_chunks", {}, list(attachments)))
    assert response.ok
    assert response.result == {"window_index": 0, "num_chunks": 16}

    whole_engine = ServerEngine()
    whole_engine.create_stream(metadata)
    whole = RequestDispatcher(whole_engine, bulk_slice_chunks=0)  # slicing off
    assert whole.dispatch(Request("insert_chunks", {}, list(attachments))).ok

    horizon = TimeRange(0, 16 * CHUNK_INTERVAL)
    assert [encode_encrypted_chunk(c) for c in sliced_engine.get_range("%s" % metadata.uuid, horizon)] == [
        encode_encrypted_chunk(c) for c in whole_engine.get_range("%s" % metadata.uuid, horizon)
    ]


def test_sliced_ingest_validates_each_slice():
    metadata, chunks = _encrypted_chunks(16)
    engine = ServerEngine()
    engine.create_stream(metadata)
    dispatcher = RequestDispatcher(engine, bulk_slice_chunks=4)
    # Drop window 4: the first slice (windows 0-3) is valid, the second
    # starts at window 5 and must fail validation — same outcome a client
    # splitting the batch itself would see.
    gapped = [encode_encrypted_chunk(c) for c in chunks[:4] + chunks[5:]]
    response = dispatcher.dispatch(Request("insert_chunks", {}, gapped))
    assert not response.ok
    assert response.error_type == "QueryError"
    applied = engine.get_range(metadata.uuid, TimeRange(0, 16 * CHUNK_INTERVAL))
    assert len(applied) == 4


# -- the storage tier ----------------------------------------------------------------


class _GatedStore(MemoryStore):
    def __init__(self) -> None:
        super().__init__()
        self.release = threading.Event()

    def multi_put(self, items):
        self.release.wait(10)
        return super().multi_put(list(items))


def test_storage_shed_maps_to_storage_error_after_retries():
    store = _GatedStore()
    with StorageNodeServer(store, max_workers=1, bulk_queue_limit=1) as node:
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0, overload_retries=0)
        try:
            background = [
                threading.Thread(target=remote.multi_put, args=([(b"k%d" % i, b"v")],))
                for i in range(2)
            ]
            for thread in background:
                thread.start()
            # One multi_put blocked in the handler, one filling the queue.
            _wait_until(
                lambda: node.scheduler_stats()["dispatched_bulk"] >= 1
                and node.scheduler_stats()["enqueued_bulk"] >= 2
            )
            with pytest.raises(StorageError, match="overloaded"):
                remote.multi_put([(b"shed", b"v")])
            store.release.set()
            for thread in background:
                thread.join(timeout=10)
            assert store.get(b"k0") == b"v" and store.get(b"k1") == b"v"
            assert store.get(b"shed") is None  # the shed write was never applied
        finally:
            store.release.set()
            remote.close()


# -- the router's concurrent cross-shard fan-out -------------------------------------


class _SlowGrantDispatcher(WireDispatcher):
    def __init__(self, delay: float) -> None:
        self._delay = delay

    def _op_put_grants(self, request: Request) -> Response:
        time.sleep(self._delay)
        return Response.success({"grant_ids": list(range(len(request.args["grants"])))})


def test_router_fans_out_cross_shard_batches_concurrently():
    delay = 0.4
    with TimeCryptTCPServer(dispatcher=_SlowGrantDispatcher(delay)) as shard_a:
        with TimeCryptTCPServer(dispatcher=_SlowGrantDispatcher(delay)) as shard_b:
            table = ShardRoutingTable(
                [("e1", *shard_a.address), ("e2", *shard_b.address)]
            )
            dispatcher = RouterDispatcher(RoutingTableRef(table))
            try:
                by_owner = {"e1": [], "e2": []}
                index = 0
                while min(len(uuids) for uuids in by_owner.values()) < 2:
                    uuid = f"stream-{index}"
                    index += 1
                    owner = table.owner_of(uuid)
                    if len(by_owner[owner]) < 2:
                        by_owner[owner].append(uuid)
                targets = by_owner["e1"] + by_owner["e2"]
                request = Request(
                    "put_grants",
                    {"grants": [{"uuid": uuid, "principal_id": "p"} for uuid in targets]},
                    [b"token-%d" % i for i in range(len(targets))],
                )
                begin = time.perf_counter()
                response = dispatcher.dispatch(request)
                elapsed = time.perf_counter() - begin
            finally:
                dispatcher.close()

    assert response.ok
    grant_ids = response.result["grant_ids"]
    assert len(grant_ids) == 4
    # Each shard numbered its own sub-batch 0..n-1; stitching preserves slots.
    assert grant_ids == [0, 1, 0, 1]
    # Both shards slept concurrently: a serial fan-out would take >= 2 * delay.
    assert elapsed < 2 * delay * 0.85
