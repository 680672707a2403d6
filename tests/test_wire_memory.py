"""Tests for the zero-copy wire memory path and negotiated frame compression.

Covers the segment-based encode path (byte identity with the joined
reference encoding), vectored writes, the view-emitting frame assembler and
reader (frame-cap edges, back-to-back frames, buffer-reuse safety for
retained views), hostile varint hardening in the message codec,
the ``hello`` compression negotiation matrix, and the end-to-end retain
audit (stored attachments survive later traffic over the same buffers).
"""

from __future__ import annotations

import io
import socket
import threading

import pytest

from repro import ServerEngine, TimeCrypt
from repro.exceptions import ProtocolError
from repro.net.client import RemoteServerClient
from repro.net.framing import (
    MAX_FRAME_BYTES,
    FrameAssembler,
    encode_frame_segments_v2,
    encode_frame_v2,
    write_vectored,
)
from repro.net.messages import (
    Request,
    Response,
    compress_message,
    encode_message_segments,
    maybe_compress_segments,
    peek_operation,
    retain,
    _decode_message,
)
from repro.net.server import TimeCryptTCPServer
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.util.encoding import encode_varint


class TestSegmentEncoding:
    def test_segments_join_is_byte_identical_to_legacy_encode(self):
        request = Request("insert_chunks", {"uuid": "s", "n": 3}, [b"a" * 100, b"", b"b" * 7])
        assert b"".join(request.encode_segments()) == request.encode()
        response = Response.success({"found": [0, 2]}, [b"x" * 64, b"y"])
        assert b"".join(response.encode_segments()) == response.encode()

    def test_attachments_pass_through_by_reference(self):
        big = bytes(1 << 20)
        segments = encode_message_segments({"op": "ping"}, [big, memoryview(big)])
        assert segments[1] is big
        assert segments[2].obj is big

    def test_frame_segments_match_legacy_frame(self):
        request = Request("put_grant", {"uuid": "s"}, [b"sealed-token" * 50])
        segments = encode_frame_segments_v2(7, request.encode_segments())
        assert b"".join(segments) == encode_frame_v2(7, request.encode())

    def test_frame_segments_enforce_cap_and_correlation_range(self):
        with pytest.raises(ProtocolError):
            encode_frame_segments_v2(1, [b"\x00" * (MAX_FRAME_BYTES + 1)])
        with pytest.raises(ProtocolError):
            encode_frame_segments_v2(1 << 64, [b""])
        # Exactly at the cap is legal.
        header, payload = encode_frame_segments_v2(1, [bytes(MAX_FRAME_BYTES)])
        assert len(payload) == MAX_FRAME_BYTES

    def test_write_vectored_output_matches_concatenation(self):
        segments = [b"h" * 10, bytes(range(256)) * 400, b"t" * 3, bytes(200_000)]
        sink = io.BytesIO()
        syscalls, total, coalesced = write_vectored(sink, segments)
        assert sink.getvalue() == b"".join(segments)
        assert total == sum(len(s) for s in segments)
        # The two small segments around the large ones coalesce.
        assert coalesced == 2

    def test_write_vectored_over_socketpair_resumes_partial_sends(self):
        left, right = socket.socketpair()
        try:
            segments = [b"S" * 100, bytes(3 << 20), b"E" * 9]
            expected = b"".join(segments)
            received = bytearray()

            def drain() -> None:
                while len(received) < len(expected):
                    chunk = right.recv(1 << 16)
                    if not chunk:
                        return
                    received.extend(chunk)

            reader = threading.Thread(target=drain)
            reader.start()
            write_vectored(left, segments)
            reader.join(timeout=30)
            assert bytes(received) == expected
        finally:
            left.close()
            right.close()


class TestViewAssembler:
    def test_v1_v2_interleave_yields_views(self):
        """Back-to-back frames yield views; a retired v1 frame after them is refused."""
        wire = (
            encode_frame_v2(3, b"alpha")
            + encode_frame_v2(4, b"")
            + encode_frame_v2(5, b"omega" * 1000)
        )
        assembler = FrameAssembler()
        frames = []
        for start in range(0, len(wire), 7):
            frames.extend(assembler.feed(wire[start : start + 7]))
        assert [f.correlation_id for f in frames] == [3, 4, 5]
        assert all(isinstance(f.payload, memoryview) for f in frames)
        assert bytes(frames[0].payload) == b"alpha"
        assert bytes(frames[1].payload) == b""
        assert bytes(frames[2].payload) == b"omega" * 1000
        with pytest.raises(ProtocolError, match="magic"):
            assembler.feed(b"TC" + (6).to_bytes(4, "big") + b"legacy")
        # Frames emitted before the refusal stay valid views.
        assert bytes(frames[0].payload) == b"alpha"

    def test_payload_at_exactly_the_frame_cap(self):
        payload = bytes(MAX_FRAME_BYTES)
        assembler = FrameAssembler()
        frames = assembler.feed(encode_frame_segments_v2(9, [payload])[0])
        assert frames == []
        # Feed the payload in two halves to exercise mid-payload resume.
        half = MAX_FRAME_BYTES // 2
        assert assembler.feed(payload[:half]) == []
        (frame,) = assembler.feed(payload[half:])
        assert frame.correlation_id == 9
        assert len(frame.payload) == MAX_FRAME_BYTES

    def test_payload_one_past_the_cap_rejected_before_allocation(self):
        import struct

        header = struct.pack(">2sBQI", b"T2", 2, 1, MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            FrameAssembler().feed(header)

    def test_retained_view_survives_feed_buffer_reuse(self):
        """Mutating the fed buffer after feed() must not corrupt emitted frames."""
        scratch = bytearray(1 << 12)
        wire = encode_frame_v2(1, b"precious-payload")
        scratch[: len(wire)] = wire
        assembler = FrameAssembler()
        (frame,) = assembler.feed(memoryview(scratch)[: len(wire)])
        # The caller reuses its receive buffer for the next read.
        scratch[:] = b"\xff" * len(scratch)
        assert bytes(frame.payload) == b"precious-payload"
        assert frame.payload.readonly

    def test_view_attachments_decode_and_retain(self):
        request = Request("kv_put", {}, [b"key-1", b"value-1"])
        wire = encode_frame_v2(2, request.encode())
        (frame,) = FrameAssembler().feed(wire)
        decoded = Request.decode(frame.payload)
        assert all(isinstance(blob, memoryview) for blob in decoded.attachments)
        assert retain(decoded.attachments[0]) == b"key-1"
        assert retain(decoded.attachments[1]) == b"value-1"


class TestHostileHeaders:
    def test_forged_giant_header_len_peeks_as_none(self):
        # varint says 3 GiB of JSON header; actual payload is tiny.
        forged = encode_varint(3 << 30) + b"{}"
        assert peek_operation(forged) is None

    def test_forged_giant_header_len_decode_raises_typed(self):
        forged = encode_varint(3 << 30) + b"{}"
        with pytest.raises(ProtocolError):
            Request.decode(forged)

    def test_negative_attachment_length_rejected(self):
        segments = encode_message_segments({"op": "ping"}, [])
        header = b"".join(segments)
        # Splice a negative length into the JSON header.
        tampered = header.replace(b'"attachment_lengths": []', b'"attachment_lengths": [-1]')
        assert tampered != header
        with pytest.raises(ProtocolError):
            _decode_message(tampered)

    def test_non_list_and_bool_attachment_lengths_rejected(self):
        base = b"".join(encode_message_segments({"op": "ping"}, []))
        not_list = base.replace(b'"attachment_lengths": []', b'"attachment_lengths": 4')
        with pytest.raises(ProtocolError):
            _decode_message(not_list)
        booled = base.replace(b'"attachment_lengths": []', b'"attachment_lengths": [true]')
        with pytest.raises(ProtocolError):
            _decode_message(booled)

    def test_truncated_attachment_rejected(self):
        wire = b"".join(encode_message_segments({"op": "ping"}, [b"full-attachment"]))
        with pytest.raises(ProtocolError):
            _decode_message(wire[:-3])

    def test_compressed_message_declaring_wrong_length_rejected(self):
        wire = compress_message(b"".join(encode_message_segments({"op": "ping"}, [])))
        # Corrupt the declared raw length (second varint).
        tampered = wire[:1] + encode_varint(5) + wire[2:]
        with pytest.raises(ProtocolError):
            _decode_message(tampered)

    def test_compressed_message_above_frame_cap_rejected(self):
        bomb = b"\x00" + encode_varint(MAX_FRAME_BYTES + 1) + b"x"
        with pytest.raises(ProtocolError):
            _decode_message(bomb)
        assert peek_operation(bomb) is None


class TestCompressionCodec:
    def test_round_trip_preserves_header_and_attachments(self):
        original = Request("put_grants", {"uuid": "s"}, [b"tok" * 2000, b"x"])
        wire = compress_message(original.encode())
        assert len(wire) < len(original.encode())
        decoded = Request.decode(wire)
        assert decoded.operation == "put_grants"
        assert [retain(blob) for blob in decoded.attachments] == [b"tok" * 2000, b"x"]

    def test_peek_operation_sees_through_compression(self):
        wire = compress_message(Request("stat_range", {"uuid": "s"}).encode())
        assert peek_operation(wire) == "stat_range"

    def test_maybe_compress_respects_threshold(self):
        small = encode_message_segments({"op": "ping"}, [])
        passed, compressed = maybe_compress_segments(small, threshold=4096)
        assert not compressed and b"".join(passed) == b"".join(small)
        big = encode_message_segments({"op": "ping"}, [b"z" * 10_000])
        squeezed, compressed = maybe_compress_segments(big, threshold=4096)
        assert compressed and len(squeezed) == 1
        header, attachments = _decode_message(squeezed[0])
        assert retain(attachments[0]) == b"z" * 10_000


class TestCompressionNegotiation:
    def _grant_burst(self, remote: RemoteServerClient) -> None:
        """One compressible request (a large, redundant grant burst)."""
        owner = TimeCrypt(server=remote, owner_id="alice")
        uuid = owner.create_stream(metric="hr")
        remote.put_grants([(uuid, f"worker-{i}", b"sealed" * 300) for i in range(8)])
        fetched = remote.fetch_grants(uuid, "worker-3")
        assert fetched == [b"sealed" * 300]

    def test_both_ends_on_compresses_large_frames(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine, wire_compression=True) as server:
            host, port = server.address
            with RemoteServerClient(host, port, compression=True) as remote:
                assert remote._compress is True
                self._grant_burst(remote)
                assert remote.wire_stats.frames_compressed >= 1
                # Small frames (ping) stay uncompressed.
                before = remote.wire_stats.frames_compressed
                assert remote.ping()
                assert remote.wire_stats.frames_compressed == before

    def test_server_side_compression_counter_visible_in_stats(self, small_config):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine, wire_compression=True) as server:
            host, port = server.address
            with RemoteServerClient(host, port, compression=True) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                remote.put_grants(
                    [(uuid, f"w-{i}", b"sealed" * 1200) for i in range(16)]
                )
                # A large, highly-redundant response: every worker's grants.
                for index in range(16):
                    assert remote.fetch_grants(uuid, f"w-{index}")
                stats = server.scheduler_stats()
                assert stats["frames_compressed"] >= 1

    def test_client_on_server_off_negotiates_uncompressed(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine, wire_compression=False) as server:
            host, port = server.address
            with RemoteServerClient(host, port, compression=True) as remote:
                assert remote._compress is False
                self._grant_burst(remote)
                assert remote.wire_stats.frames_compressed == 0

    def test_client_off_server_on_negotiates_uncompressed(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine, wire_compression=True) as server:
            host, port = server.address
            with RemoteServerClient(host, port, compression=False) as remote:
                assert remote._compress is False
                self._grant_burst(remote)
                assert remote.wire_stats.frames_compressed == 0
                assert server.scheduler_stats()["frames_compressed"] == 0

class TestEndToEndRetention:
    def test_stored_kv_values_survive_later_traffic(self):
        """The retain audit, end to end: values stored from view attachments
        must not alias frame buffers that later requests overwrite."""
        store = MemoryStore()
        with StorageNodeServer(store) as node:
            host, port = node.address
            remote = RemoteKeyValueStore(host, port)
            try:
                originals = {
                    f"key-{index:03d}".encode(): bytes([index % 251]) * 512
                    for index in range(32)
                }
                remote.multi_put(list(originals.items()))
                # Hammer the same connection (and thus the same receive
                # buffers) with different payloads.
                remote.multi_put(
                    [(f"noise-{i:03d}".encode(), b"\xee" * 600) for i in range(64)]
                )
                found = remote.multi_get(list(originals))
                assert found == originals
                for key, value in remote.scan_prefix(b"key-"):
                    assert isinstance(key, bytes) and isinstance(value, bytes)
                    assert found[key] == value
            finally:
                remote.close()

    def test_wire_client_gets_engine_identical_bytes(self, small_config):
        """Byte-identity acceptance: chunks read over the wire as views match
        the bytes the engine stored."""
        from repro.util.timeutil import TimeRange

        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, float(t % 13)) for t in range(0, 8_000, 100)])
                owner.flush(uuid)
                wire_chunks = remote.get_range(uuid, TimeRange(0, 8_000))
        engine_chunks = engine.get_range(uuid, TimeRange(0, 8_000))
        assert len(wire_chunks) == len(engine_chunks) == 8
        for wire_chunk, engine_chunk in zip(wire_chunks, engine_chunks):
            assert wire_chunk.payload == engine_chunk.payload
            assert wire_chunk.stream_uuid == engine_chunk.stream_uuid
