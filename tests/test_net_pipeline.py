"""Tests for the pipelined wire protocol and its batch fast paths.

Covers the frame header and incremental assembler, out-of-order response
correlation, ``call_many``/``pipeline()`` batching, mid-batch error
isolation, ``hello`` negotiation (including the typed refusal of retired v1
lockstep peers), concurrent clients against the bounded-worker-pool server,
thread-pooled cluster fan-out fault paths, and the batched token-store /
grant-burst plumbing.
"""

from __future__ import annotations

import io
import socket
import threading
import time
from typing import Optional

import pytest

from repro import Principal, ServerEngine, TimeCrypt, TimeCryptConsumer
from repro.access.keystore import TokenStore
from repro.crypto.heac import HEACCipher
from repro.crypto.keytree import KeyDerivationTree
from repro.exceptions import (
    PartitionError,
    ProtocolError,
    StorageError,
    StreamNotFoundError,
    TransportError,
)
from repro.net.client import RemoteServerClient
from repro.net.framing import (
    MAGIC_V2,
    Frame,
    FrameAssembler,
    FrameReader,
    encode_frame_v2,
)
from repro.net.messages import Request, Response
from repro.net.server import RequestDispatcher, TimeCryptTCPServer
from repro.storage.cluster import StorageCluster
from repro.storage.memory import MemoryStore
from repro.util.timeutil import TimeRange


#: A frame of the retired v1 lockstep wire: ``b"TC" || length (4B) || payload``.
def _v1_frame(payload: bytes) -> bytes:
    return b"TC" + len(payload).to_bytes(4, "big") + payload


class TestFramingV2:
    def test_v2_roundtrip_over_stream(self):
        frame = FrameReader(io.BytesIO(encode_frame_v2(0xDEADBEEF, b"payload"))).read()
        assert frame == Frame(correlation_id=0xDEADBEEF, payload=memoryview(b"payload"))

    def test_reader_rejects_v1_frames(self):
        """The v1 lockstep magic is a typed protocol error, not a second format."""
        with pytest.raises(ProtocolError, match="magic"):
            FrameReader(io.BytesIO(_v1_frame(b"legacy"))).read()
        with pytest.raises(ProtocolError, match="magic"):
            FrameAssembler().feed(_v1_frame(b"legacy"))

    def test_correlation_id_range_checked(self):
        with pytest.raises(ProtocolError):
            encode_frame_v2(1 << 64, b"")
        with pytest.raises(ProtocolError):
            encode_frame_v2(-1, b"")

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError):
            FrameReader(io.BytesIO(b"XX\x00\x00\x00\x00\x00")).read()

    def test_assembler_reassembles_byte_by_byte(self):
        wire = encode_frame_v2(7, b"first") + encode_frame_v2(8, b"") + encode_frame_v2(9, b"third")
        assembler = FrameAssembler()
        frames = []
        for index in range(len(wire)):
            frames.extend(assembler.feed(wire[index : index + 1]))
        assert [(f.correlation_id, bytes(f.payload)) for f in frames] == [
            (7, b"first"),
            (8, b""),
            (9, b"third"),
        ]

    def test_assembler_returns_multiple_frames_per_feed(self):
        wire = encode_frame_v2(1, b"a") + encode_frame_v2(2, b"b")
        frames = FrameAssembler().feed(wire)
        assert [frame.correlation_id for frame in frames] == [1, 2]

    def test_assembler_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            FrameAssembler().feed(b"nonsense")


class _SlowPingDispatcher(RequestDispatcher):
    """A dispatcher whose ping can be told to sleep — for reordering tests."""

    def _op_ping(self, request: Request) -> Response:
        delay_ms = request.args.get("sleep_ms", 0)
        if delay_ms:
            time.sleep(delay_ms / 1000.0)
        return Response.success({"pong": True, "slept_ms": delay_ms})


class TestPipelinedTransport:
    def test_hello_negotiates_v2_and_operations(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                assert remote.hello_info["protocol"] == 2
                assert remote.supports_operation("insert_chunks")
                assert remote.supports_operation("put_grants")
                assert not remote.supports_operation("drop_everything")
                assert remote.ping()

    def test_out_of_order_responses_correlate(self):
        """A fast request overtakes a slow one on the same connection."""
        engine = ServerEngine()
        dispatcher = _SlowPingDispatcher(engine)
        with TimeCryptTCPServer(engine, dispatcher=dispatcher) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                slow = remote._send_requests([Request("ping", {"sleep_ms": 500})])[0]
                fast = remote._send_requests([Request("ping")])[0]
                fast_response = fast.result(timeout=5)
                assert fast_response.result["slept_ms"] == 0
                # The fast response arrived while the slow request was still
                # in flight — responses really are matched by correlation id,
                # not arrival order.
                assert not slow.done()
                assert slow.result(timeout=5).result["slept_ms"] == 500

    def test_call_many_is_one_round_trip(self, small_config):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 1.0) for t in range(0, 5_000, 100)])
                owner.flush(uuid)
                remote.wire_stats.reset()
                responses = remote.call_many(
                    [
                        Request("ping"),
                        Request("stream_head", {"uuid": uuid}),
                        Request("stat_range", {"uuid": uuid, "start": 0, "end": 5_000}),
                    ]
                )
                assert [response.ok for response in responses] == [True, True, True]
                assert responses[1].result["head"] == 5
                assert remote.wire_stats.round_trips == 1
                assert remote.wire_stats.requests_sent == 3

    def test_pipeline_context_flushes_one_batch(self, small_config):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 2.0) for t in range(0, 3_000, 100)])
                owner.flush(uuid)
                remote.wire_stats.reset()
                with remote.pipeline() as batch:
                    pong = batch.ping()
                    head = batch.stream_head(uuid)
                    chunks = batch.get_range(uuid, TimeRange(0, 3_000))
                    metadata = batch.stream_metadata(uuid)
                assert pong.result() is True
                assert head.result() == 3
                assert len(chunks.result()) == 3
                assert metadata.result().uuid == uuid
                assert remote.wire_stats.round_trips == 1
                assert remote.wire_stats.batches_sent == 1

    def test_pipeline_flush_failure_fails_handles_with_cause(self):
        """A transport failure during flush surfaces from result(), typed."""
        engine = ServerEngine()
        server = TimeCryptTCPServer(engine).start()
        host, port = server.address
        remote = RemoteServerClient(host, port, timeout=5.0)
        try:
            batch = remote.pipeline()
            handle = batch.ping()
            server.stop()  # kill the peer mid-pipeline
            with pytest.raises(TransportError):
                batch.flush()
            with pytest.raises(TransportError):
                handle.result()
            # The failed batch was cleared; flushing again is a no-op.
            batch.flush()
        finally:
            remote.close()
            server.stop()

    def test_pipeline_result_before_flush_raises(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                batch = remote.pipeline()
                handle = batch.ping()
                with pytest.raises(ProtocolError):
                    handle.result()
                batch.flush()
                assert handle.result() is True

    def test_mid_batch_error_surfaces_right_subclass(self, small_config):
        """One failed request in a batch raises its own typed error; the rest succeed."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 1.0) for t in range(0, 2_000, 100)])
                owner.flush(uuid)
                with remote.pipeline() as batch:
                    good_head = batch.stream_head(uuid)
                    bad_head = batch.stream_head("no-such-stream")
                    pong = batch.ping()
                assert good_head.result() == 2
                assert pong.result() is True
                with pytest.raises(StreamNotFoundError):
                    bad_head.result()

    def test_ingest_batch_and_range_query_round_trips(self, small_config):
        """Acceptance: an N-chunk ingest batch and a range read cost ≤2 round trips."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                records = [(t, float(t % 17)) for t in range(0, 32_000, 100)]
                remote.wire_stats.reset()
                owner.insert_records(uuid, records)  # seals 31 chunks in one batch
                owner.flush(uuid)  # seals the open 32nd chunk
                assert remote.wire_stats.round_trips <= 2
                assert remote.stream_head(uuid) == 32
                remote.wire_stats.reset()
                chunks = remote.get_range(uuid, TimeRange(0, 32_000))
                assert len(chunks) == 32
                assert remote.wire_stats.round_trips == 1

    def test_concurrent_clients_hammer_one_server(self, small_config):
        """Many client connections share the bounded dispatch pool correctly."""
        engine = ServerEngine()
        errors = []

        def one_client(index: int, host: str, port: int) -> None:
            try:
                with RemoteServerClient(host, port) as remote:
                    owner = TimeCrypt(server=remote, owner_id=f"owner-{index}")
                    uuid = owner.create_stream(
                        metric="hr", config=small_config, uuid=f"hammer-{index}"
                    )
                    records = [(t, float(index)) for t in range(0, 8_000, 100)]
                    owner.insert_records(uuid, records)
                    owner.flush(uuid)
                    stats = owner.get_stat_range(uuid, 0, 8_000, operators=("count", "sum"))
                    assert stats["count"] == len(records)
                    assert stats["sum"] == pytest.approx(index * len(records))
            except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
                errors.append((index, exc))

        with TimeCryptTCPServer(engine, max_workers=4) as server:
            host, port = server.address
            threads = [
                threading.Thread(target=one_client, args=(index, host, port))
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors, f"client failures: {errors}"
        assert sorted(engine.list_streams()) == [f"hammer-{index}" for index in range(6)]

    def test_one_connection_shared_by_many_threads(self, small_config):
        """The multiplexed client is thread-safe without external locking."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 3.0) for t in range(0, 4_000, 100)])
                owner.flush(uuid)
                results = []
                errors = []

                def probe() -> None:
                    try:
                        for _ in range(20):
                            results.append(remote.stream_head(uuid))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=probe) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not errors
                assert results == [4] * (8 * 20)


class _V1OnlyServer:
    """A retired v1 lockstep peer: it hangs up on the ``T2`` frame magic."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self):
        return self._listener.getsockname()

    def __enter__(self) -> "_V1OnlyServer":
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _address = self._listener.accept()
            except OSError:
                return
            with sock:
                try:
                    sock.recv(2)  # the unknown magic: a v1-only peer just hangs up
                except OSError:
                    pass


def _refused_by(host: str, port: int, wire: bytes) -> bool:
    """Send raw bytes; True when the server closes the connection unanswered."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(wire)
        try:
            return sock.recv(1) == b""
        except ConnectionResetError:
            return True


class TestVersionInterop:
    def test_v1_client_against_new_server(self):
        """A v1 lockstep client is refused; the server keeps serving others."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                assert _refused_by(host, port, _v1_frame(Request("hello").encode()))
                assert remote.ping()

    def test_raw_v1_frames_against_new_server(self):
        """A hand-rolled v1 exchange gets the connection closed, never an answer."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            assert _refused_by(host, port, _v1_frame(Request("ping").encode()))
            # A frame with the right magic but an unknown version byte too.
            assert _refused_by(host, port, MAGIC_V2 + b"\x03" + bytes(12))

    def test_negotiation_with_v1_only_peer_raises_typed_error(self):
        """A peer that hangs up mid-hello fails the constructor, typed."""
        with _V1OnlyServer() as server:
            host, port = server.address
            with pytest.raises(TransportError, match="negotiation"):
                RemoteServerClient(host, port, timeout=5.0)

    def test_unknown_protocol_version_rejected(self):
        wire = bytearray(encode_frame_v2(1, b"ping"))
        wire[2] = 3  # the frame's protocol version byte
        with pytest.raises(ProtocolError, match="version"):
            FrameReader(io.BytesIO(bytes(wire))).read()
        with pytest.raises(ProtocolError, match="version"):
            FrameAssembler().feed(bytes(wire))

    def test_negotiation_timeout_raises_instead_of_downgrading(self):
        """A silent peer must fail the constructor with a typed error."""
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            host, port = listener.getsockname()
            with pytest.raises(TransportError):
                RemoteServerClient(host, port, timeout=0.3)
        finally:
            listener.close()


class _FlakyStore(MemoryStore):
    """A node store that fails batch ops until ``heal`` is called."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.failing = False

    def multi_put(self, items):
        if self.failing:
            raise StorageError(f"multi_put boom on {self.name}")
        return super().multi_put(items)

    def multi_get(self, keys):
        if self.failing:
            raise StorageError(f"multi_get boom on {self.name}")
        return super().multi_get(keys)

    def multi_delete(self, keys):
        if self.failing:
            raise StorageError(f"multi_delete boom on {self.name}")
        return super().multi_delete(keys)


class TestClusterThreadPoolFanOut:
    def _cluster(self, num_nodes=3, replication_factor=2) -> StorageCluster:
        return StorageCluster(
            num_nodes=num_nodes,
            replication_factor=replication_factor,
            store_factory=_FlakyStore,
        )

    def test_multi_put_marks_down_and_reroutes_under_pool(self):
        cluster = self._cluster()
        items = [(f"key-{index:04d}".encode(), b"v" * 32) for index in range(200)]
        cluster.node_store("node-1").failing = True
        cluster.multi_put(items)
        assert "node-1" in cluster._down
        # Every key must be readable despite the mid-batch node failure.
        found = cluster.multi_get([key for key, _value in items])
        assert all(found[key] == b"v" * 32 for key, _value in items)
        cluster.close()

    def test_multi_get_reroutes_to_replica_when_node_fails(self):
        cluster = self._cluster()
        items = [(f"get-{index:04d}".encode(), bytes([index % 251])) for index in range(150)]
        cluster.multi_put(items)
        cluster.node_store("node-0").failing = True
        found = cluster.multi_get([key for key, _value in items])
        assert all(found[key] == value for key, value in items)
        assert "node-0" in cluster._down
        cluster.close()

    def test_multi_delete_propagates_lowest_named_node_error(self):
        cluster = self._cluster()
        items = [(f"del-{index:04d}".encode(), b"x") for index in range(120)]
        cluster.multi_put(items)
        cluster.node_store("node-2").failing = True
        cluster.node_store("node-1").failing = True
        with pytest.raises(StorageError) as excinfo:
            cluster.multi_delete([key for key, _value in items])
        # Deterministic propagation: the lowest-named failing node wins,
        # regardless of worker-thread timing.
        assert "node-1" in str(excinfo.value)
        cluster.close()

    def test_partition_error_when_all_replicas_down(self):
        cluster = self._cluster(num_nodes=2, replication_factor=2)
        cluster.mark_down("node-0")
        cluster.mark_down("node-1")
        with pytest.raises(PartitionError):
            cluster.multi_put([(b"k", b"v")])
        cluster.close()

    def test_concurrent_batches_keep_data_intact(self):
        cluster = self._cluster(num_nodes=4, replication_factor=2)
        errors = []

        def writer(thread_index: int) -> None:
            try:
                for round_index in range(10):
                    items = [
                        (f"t{thread_index}-r{round_index}-{k}".encode(), b"payload")
                        for k in range(25)
                    ]
                    cluster.multi_put(items)
                    found = cluster.multi_get([key for key, _value in items])
                    assert all(value == b"payload" for value in found.values())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(index,)) for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert cluster.count_prefix(b"t") == 6 * 10 * 25
        cluster.close()


class TestTokenStoreBatching:
    def test_put_grants_matches_scalar_ids_and_order(self):
        scalar = TokenStore()
        batch = TokenStore(MemoryStore())
        grants = [
            ("stream-a", "alice", b"token-a0"),
            ("stream-a", "bob", b"token-b0"),
            ("stream-a", "alice", b"token-a1"),
            ("stream-b", "alice", b"token-ba"),
        ]
        scalar_ids = [scalar.put_grant(*grant) for grant in grants]
        batch_ids = batch.put_grants(grants)
        assert batch_ids == scalar_ids == [0, 0, 1, 0]
        for stream, principal in {(g[0], g[1]) for g in grants}:
            assert scalar.grants_for(stream, principal) == batch.grants_for(stream, principal)

    def test_put_grants_is_one_write_round_trip(self):
        backing = MemoryStore()
        store = TokenStore(backing)
        store.put_grants([("s", f"principal-{index}", b"tok") for index in range(32)])
        assert backing.stats.multi_puts == 1
        assert backing.stats.puts == 0
        assert backing.stats.multi_put_keys == 32

    def test_put_grants_handles_slash_in_principal_id(self):
        """'/'-containing principal ids get the exact scalar-path numbering."""
        scalar = TokenStore()
        batch = TokenStore()
        grants = [
            ("s", "org/alice", b"a0"),
            ("s", "org/bob", b"b0"),
            ("s", "org/alice", b"a1"),
            # Scalar counting is prefix-based, so "org" sees the three
            # "org/..." keys above; the batch must reproduce that exactly.
            ("s", "org", b"plain"),
        ]
        scalar_ids = [scalar.put_grant(*grant) for grant in grants]
        batch_ids = batch.put_grants(grants)
        assert batch_ids == scalar_ids == [0, 0, 1, 3]
        assert batch.grants_for("s", "org/alice") == [b"a0", b"a1"]
        assert batch.grants_for("s", "org/bob") == [b"b0"]
        # A second burst keeps counting correctly on top of the first.
        assert batch.put_grants([("s", "org/alice", b"a2")]) == [2]

    def test_put_grants_appends_after_existing(self):
        store = TokenStore()
        store.put_grant("s", "alice", b"first")
        ids = store.put_grants([("s", "alice", b"second"), ("s", "alice", b"third")])
        assert ids == [1, 2]
        assert store.grants_for("s", "alice") == [b"first", b"second", b"third"]

    def test_put_envelopes_is_one_write_round_trip(self):
        backing = MemoryStore()
        store = TokenStore(backing)
        store.put_envelopes("s", 4, {window: b"env" for window in range(0, 64, 4)})
        assert backing.stats.multi_puts == 1
        assert backing.stats.puts == 0
        assert store.envelopes_for_range("s", 4, 0, 63) == {
            window: b"env" for window in range(0, 64, 4)
        }

    def test_delete_grants_uses_multi_delete(self):
        backing = MemoryStore()
        store = TokenStore(backing)
        store.put_grants([("s", f"p{index}", b"tok") for index in range(10)])
        assert store.delete_grants("s") == 10
        assert backing.stats.multi_deletes == 1
        assert backing.stats.deletes == 0
        assert store.principals_with_grants("s") == []

    def test_empty_burst_is_free(self):
        backing = MemoryStore()
        store = TokenStore(backing)
        assert store.put_grants([]) == []
        store.put_envelopes("s", 2, {})
        assert backing.stats.round_trips == 0


class TestGrantBurst:
    def test_grant_access_many_end_to_end(self, small_config):
        """A cohort burst issues decryptable grants (full and restricted)."""
        server = ServerEngine()
        owner = TimeCrypt(server=server, owner_id="alice")
        uuid = owner.create_stream(metric="hr", config=small_config)
        records = [(t, float(50 + t % 10)) for t in range(0, 20_000, 100)]
        owner.insert_records(uuid, records)
        owner.flush(uuid)
        cohort = [Principal.create(f"worker-{index}") for index in range(4)]
        for principal in cohort:
            owner.register_principal(principal)
        policies = owner.grant_access_many(
            uuid,
            [
                ("worker-0", 0, 10_000, None),
                ("worker-1", 0, 20_000, None),
                ("worker-2", 0, 20_000, 4_000),
                ("worker-3", 0, 10_000, None),
            ],
        )
        assert len(policies) == 4
        full_consumer = TimeCryptConsumer(server=server, principal=cohort[1])
        full_consumer.fetch_access(uuid, small_config)
        stats = full_consumer.get_stat_range(uuid, 0, 20_000, operators=("count",))
        assert stats["count"] == len(records)
        restricted = TimeCryptConsumer(server=server, principal=cohort[2])
        restricted.fetch_access(uuid, small_config)
        coarse = restricted.get_stat_range(uuid, 0, 20_000, operators=("count",))
        assert coarse["count"] == len(records)

    def test_grant_burst_over_wire_is_bounded_round_trips(self, small_config):
        """Acceptance: a cohort grant burst costs O(1) wire round trips."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 1.0) for t in range(0, 10_000, 100)])
                owner.flush(uuid)
                cohort = [Principal.create(f"member-{index}") for index in range(16)]
                for principal in cohort:
                    owner.register_principal(principal)
                remote.wire_stats.reset()
                owner.grant_access_many(
                    uuid,
                    [(p.principal_id, 0, 10_000, None) for p in cohort],
                )
                assert remote.wire_stats.round_trips <= 2
                # Every member can still pick up and use their grant.
                consumer = TimeCryptConsumer(server=remote, principal=cohort[7])
                consumer.fetch_access(uuid, small_config)
                stats = consumer.get_stat_range(uuid, 0, 10_000, operators=("count",))
                assert stats["count"] == 100

    def test_grant_pickup_burst_via_pipeline(self, small_config):
        """Consumers batched through pipeline(): K pickups, one round trip."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 1.0) for t in range(0, 2_000, 100)])
                owner.flush(uuid)
                cohort = [Principal.create(f"batch-{index}") for index in range(5)]
                for principal in cohort:
                    owner.register_principal(principal)
                owner.grant_access_many(
                    uuid, [(p.principal_id, 0, 2_000, None) for p in cohort]
                )
                remote.wire_stats.reset()
                with remote.pipeline() as batch:
                    handles = [
                        batch.fetch_grants(uuid, principal.principal_id)
                        for principal in cohort
                    ]
                sealed_lists = [handle.result() for handle in handles]
                assert all(len(sealed) == 1 for sealed in sealed_lists)
                assert remote.wire_stats.round_trips == 1


class TestOuterPadsBatch:
    def test_outer_pads_match_scalar(self, key_tree: KeyDerivationTree):
        cipher = HEACCipher(key_tree)
        for window_start, window_end in ((0, 1), (3, 17), (5, 6), (100, 4096)):
            batch = cipher.outer_pads(window_start, window_end, 6)
            scalar = [
                cipher.outer_pad(window_start, window_end, component)
                for component in range(6)
            ]
            assert batch == scalar

    def test_multi_stream_decrypt_unchanged(self, small_config):
        """End to end: inter-stream aggregates decrypt to the true totals."""
        server = ServerEngine()
        owner = TimeCrypt(server=server, owner_id="alice")
        uuids = []
        for index in range(3):
            uuid = owner.create_stream(metric=f"m{index}", config=small_config)
            owner.insert_records(uuid, [(t, float(index + 1)) for t in range(0, 5_000, 100)])
            owner.flush(uuid)
            uuids.append(uuid)
        stats = owner.get_stat_range(uuids, 0, 5_000, operators=("sum", "count"))
        assert stats["count"] == 3 * 50
        assert stats["sum"] == pytest.approx(50 * (1 + 2 + 3))
