"""Hostile wire input: property tests for the one frame parser and codec.

Whatever bytes a peer sends, the wire layer must answer with frames or a
typed :class:`~repro.exceptions.ProtocolError` /
:class:`~repro.exceptions.TransportError` — never another exception, never
a hang, never an allocation beyond the frame cap:

- arbitrary bytes, in arbitrary chunkings, through :class:`FrameAssembler`
  and through :class:`FrameReader` over a stream;
- valid frames split at arbitrary points reassemble byte-identically;
- a declared length above ``MAX_FRAME_BYTES`` raises before any payload
  buffer is allocated;
- ``peek_operation`` never raises, and message decoding raises only
  ``ProtocolError`` — including on compressed bodies;
- a peer that answers ``hello`` correctly and then sends a malformed
  message fails the pending call promptly, not by timeout.
"""

from __future__ import annotations

import io
import socket
import struct
import threading
import time
import tracemalloc
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError, TransportError
from repro.net.client import RemoteServerClient
from repro.net.framing import MAX_FRAME_BYTES, FrameAssembler, FrameReader, encode_frame_v2
from repro.net.messages import Request, Response, peek_operation
from repro.util.encoding import encode_varint

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Headers that are valid JSON but not objects, so not valid messages.
NON_OBJECT_HEADERS = [b"\x03[1]", b"\x015", b'\x05"abc"']


def _frame_header(correlation_id: int, length: int, magic: bytes = b"T2", version: int = 2) -> bytes:
    return struct.pack(">2sBQI", magic, version, correlation_id, length)


def _split(data: bytes, cuts) -> list:
    points = sorted({cut % (len(data) + 1) for cut in cuts})
    edges = [0, *points, len(data)]
    return [data[start:end] for start, end in zip(edges, edges[1:])]


def _frames_or_typed_error(chunks) -> list:
    assembler = FrameAssembler()
    frames = []
    try:
        for chunk in chunks:
            frames.extend(assembler.feed(chunk))
    except (ProtocolError, TransportError):
        pass
    return frames


#: Byte strings biased toward the frame magic, so fuzzing gets past it often.
wire_bytes = st.one_of(
    st.binary(max_size=256),
    st.builds(
        lambda header, body: header + body,
        st.builds(
            _frame_header,
            st.integers(0, 2**64 - 1),
            st.integers(0, 512),
            st.sampled_from([b"T2", b"TC", b"T3"]),
            st.integers(0, 3),
        ),
        st.binary(max_size=256),
    ),
)


@FUZZ
@given(data=wire_bytes, cuts=st.lists(st.integers(0, 1024), max_size=8))
def test_assembler_yields_frames_or_typed_errors(data, cuts):
    for frame in _frames_or_typed_error(_split(data, cuts)):
        assert isinstance(frame.payload, memoryview) and frame.payload.readonly


@FUZZ
@given(data=wire_bytes)
def test_reader_yields_frames_or_typed_errors(data):
    reader = FrameReader(io.BytesIO(data))
    for _frame in range(len(data) + 1):
        try:
            reader.read()
        except (ProtocolError, TransportError):
            return
    pytest.fail("the reader never reached end of stream")


@FUZZ
@given(
    frames=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.binary(max_size=300)), max_size=6),
    cuts=st.lists(st.integers(0, 4096), max_size=12),
)
def test_valid_frames_reassemble_byte_identically(frames, cuts):
    wire = b"".join(encode_frame_v2(correlation_id, payload) for correlation_id, payload in frames)
    assembler = FrameAssembler()
    decoded = []
    for chunk in _split(wire, cuts):
        decoded.extend(assembler.feed(chunk))
    assert [(frame.correlation_id, bytes(frame.payload)) for frame in decoded] == frames
    reader = FrameReader(io.BytesIO(wire))
    assert [(frame.correlation_id, bytes(frame.payload)) for frame in (reader.read() for _ in frames)] == frames


@settings(max_examples=25, deadline=None)
@given(length=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1), split=st.integers(0, 15))
def test_oversized_length_raises_before_allocating(length, split):
    header = _frame_header(1, length)
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="cap"):
            assembler = FrameAssembler()
            assembler.feed(header[:split])
            assembler.feed(header[split:])
        with pytest.raises(ProtocolError, match="cap"):
            FrameReader(io.BytesIO(header + b"x" * 64)).read()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _corrupt(payload: bytes, flips) -> bytes:
    data = bytearray(payload)
    for position, value in flips:
        if data:
            data[position % len(data)] = value
    return bytes(data)


#: Encoded messages: random bytes, hostile headers, compressed bodies with
#: any declared length, and valid messages with random bytes overwritten.
messages = st.one_of(
    st.binary(max_size=256),
    st.builds(lambda header, rest: encode_varint(len(header)) + header + rest,
              st.sampled_from([b"[1]", b"5", b'"abc"', b"null", b'{"op": 5}', b'{"op": "ping", "args": []}',
                               b'{"ok": true, "result": [1]}', b'{"attachment_lengths": [-1]}',
                               b'{"attachment_lengths": [99]}', b'{"error_type": [1]}', b"[" * 5000]),
              st.binary(max_size=64)),
    st.builds(lambda raw_len, body: b"\x00" + encode_varint(raw_len) + zlib.compress(body),
              st.integers(0, 2 * MAX_FRAME_BYTES), st.binary(max_size=256)),
    st.builds(_corrupt,
              st.sampled_from([Request("ping", {"a": 1}, [b"x"]).encode(),
                               Response.success({"pong": True}, [b"y" * 10]).encode()]),
              st.lists(st.tuples(st.integers(0, 64), st.integers(0, 255)), max_size=4)),
)


@FUZZ
@given(payload=messages)
def test_peek_operation_never_raises(payload):
    operation = peek_operation(payload)
    assert operation is None or isinstance(operation, str)
    assert peek_operation(memoryview(payload)) == operation


@FUZZ
@given(payload=messages)
def test_message_decode_raises_only_protocol_error(payload):
    for decode in (Request.decode, Response.decode):
        try:
            decode(memoryview(payload))
        except ProtocolError:
            pass


@pytest.mark.parametrize("payload", NON_OBJECT_HEADERS)
def test_non_object_header_is_a_protocol_error(payload):
    with pytest.raises(ProtocolError, match="JSON object"):
        Request.decode(payload)
    with pytest.raises(ProtocolError, match="JSON object"):
        Response.decode(payload)


class _MalformedAnswerPeer:
    """Answers ``hello`` correctly, then replies to the next call with ``payload``."""

    def __init__(self, payload: bytes) -> None:
        self._payload = payload
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def address(self):
        return self._listener.getsockname()

    def __enter__(self) -> "_MalformedAnswerPeer":
        self._thread.start()
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self._listener.close()
        self._thread.join(timeout=5)

    def _serve(self) -> None:
        sock, _address = self._listener.accept()
        with sock:
            reader = FrameReader(sock)
            hello = reader.read()
            answer = Response.success({"protocol": 2, "operations": ["ping"], "credits": 8})
            sock.sendall(encode_frame_v2(hello.correlation_id, answer.encode()))
            call = reader.read()
            sock.sendall(encode_frame_v2(call.correlation_id, self._payload))
            try:
                sock.recv(1)  # hold the connection open until the client leaves
            except OSError:
                pass


@pytest.mark.parametrize("payload", NON_OBJECT_HEADERS)
def test_malformed_response_fails_the_call_promptly(payload):
    with _MalformedAnswerPeer(payload) as peer:
        with RemoteServerClient(*peer.address, timeout=5.0) as client:
            begin = time.monotonic()
            with pytest.raises(TransportError, match="JSON object"):
                client.ping()
            assert time.monotonic() - begin < 1.0
