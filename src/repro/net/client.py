"""The network client: a pipelined remote ServerEngine proxy.

:class:`RemoteServerClient` speaks the framed wire protocol to a
:class:`~repro.net.server.TimeCryptTCPServer` and exposes the same method
surface as :class:`~repro.server.engine.ServerEngine`, so the
:class:`~repro.core.timecrypt.TimeCrypt` facade and the consumer client work
unchanged whether the server is in-process or across the network.

Transport model: one dedicated **reader thread** drains response frames and
resolves them against a correlation-id → future table, so any number of
requests can be in flight on one connection and responses may arrive in any
order.  On top of that sit three calling styles:

* ``_call`` — write one request, wait for its future (one round trip);
* :meth:`call_many` — write a whole batch of requests back-to-back in one
  vectored write, then wait for all futures: N requests, **one** round trip;
* :meth:`pipeline` — a context manager that records ServerEngine-shaped
  calls as deferred handles and flushes them through :meth:`call_many` on
  exit, so heterogeneous bursts (grant pickups, range reads, stat queries)
  also collapse into one round trip.

Capabilities are negotiated at connect time with one synchronous ``hello``;
a peer that rejects it, hangs up, or answers something unparseable fails
the constructor with a typed :class:`~repro.exceptions.TransportError`.
:class:`WireStats` counts requests and round trips, which is what the
network benchmarks assert against.

Two backpressure mechanisms ride on the transport (see
:mod:`repro.net.server`): servers advertise a per-connection **credit
window** in ``hello`` and return one credit per response, and the client
blocks frame submission on the window; a server shedding under load answers
with a typed ``overloaded`` error, which the client retries with capped
exponential backoff (``overload_retries``) before surfacing
:class:`~repro.exceptions.OverloadedError` to the caller.

:class:`ConnectionCache` is the one place connections are dialled: the
sharded client, the router and the remote storage client all keep their
per-address connections in one.
"""

from __future__ import annotations

import itertools
import logging
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.heac import HEACCiphertext
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import SPANS, current_context, new_span_id, new_trace_id
from repro.exceptions import (
    OverloadedError,
    ProtocolError,
    QueryError,
    TimeCryptError,
    TransportError,
)
from repro.net.framing import (
    FRAME_HEADER_BYTES,
    PROTOCOL_VERSION,
    FrameReader,
    encode_frame_segments_v2,
    write_vectored,
)
from repro.net.messages import (
    WIRE_COMPRESSION_SCHEMES,
    WIRE_COMPRESSION_THRESHOLD,
    Request,
    Response,
    ShardRoutingTable,
    maybe_compress_segments,
    retain,
)
from repro.server.engine import _metadata_from_json, _metadata_to_json
from repro.server.query_executor import MultiStreamAggregate, StatQueryResult
from repro.timeseries.serialization import (
    EncryptedChunk,
    decode_encrypted_chunk,
    encode_encrypted_chunk,
)
from repro.timeseries.stream import StreamMetadata
from repro.util.timeutil import TimeRange

logger = logging.getLogger(__name__)

#: Exception classes re-raised by name when the server reports them.
_ERROR_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in TimeCryptError.__subclasses__() + [TimeCryptError]
}


def _register_error_types() -> None:
    """Index the full TimeCryptError hierarchy (grandchildren included)."""
    pending = [TimeCryptError]
    while pending:
        cls = pending.pop()
        _ERROR_TYPES[cls.__name__] = cls
        pending.extend(cls.__subclasses__())


_register_error_types()


def _remote_error(response: Response) -> TimeCryptError:
    error_cls = _ERROR_TYPES.get(response.error_type or "", TimeCryptError)
    error = error_cls(response.error or "remote error")
    if isinstance(error, OverloadedError) and isinstance(response.result, dict):
        hint = response.result.get("retry_after_ms")
        if isinstance(hint, (int, float)) and hint > 0:
            error.retry_after_ms = int(hint)
    return error


def _raise_remote(response: Response) -> None:
    raise _remote_error(response)


def _is_overloaded(response: Response) -> bool:
    return (not response.ok) and response.error_type == "OverloadedError"


@dataclass
class WireStats:
    """Client-side wire accounting.

    ``round_trips`` counts *wait points*: one per call and one per flushed
    pipeline/batch, however many requests it carried.  This is the
    quantity that maps to network latency and that ``BENCH_net.json``
    tracks; ``requests_sent`` is the op count for computing batching ratios.
    """

    requests_sent: int = 0
    responses_received: int = 0
    round_trips: int = 0
    batches_sent: int = 0
    #: Times frame submission found the credit window empty and had to wait.
    credit_stalls: int = 0
    #: Requests re-sent after the server shed them with a typed ``overloaded``.
    overload_retries: int = 0
    #: Wire bytes written / read (frame headers included).
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Vectored-send bookkeeping: batches shipped through ``write_vectored``
    #: and small segments it merged into a single iovec.
    vectored_writes: int = 0
    frames_coalesced: int = 0
    #: Request frames that went out in the negotiated compressed form.
    frames_compressed: int = 0

    def reset(self) -> None:
        self.requests_sent = 0
        self.responses_received = 0
        self.round_trips = 0
        self.batches_sent = 0
        self.credit_stalls = 0
        self.overload_retries = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.vectored_writes = 0
        self.frames_coalesced = 0
        self.frames_compressed = 0


class _CreditGate:
    """The client half of credit-based flow control.

    Initialised from the window the server advertised in ``hello``; every
    accepted frame costs one credit and every response returns the credits
    the server piggybacked.  ``available`` can never go negative (credits
    are taken under the condition lock, at most what is there) and never
    exceeds the window (grants are clamped, so refunds after a connection
    failure cannot inflate it).
    """

    def __init__(self, window: int) -> None:
        self._window = max(1, int(window))
        self._available = self._window
        self._cond = threading.Condition()

    @property
    def window(self) -> int:
        return self._window

    @property
    def available(self) -> int:
        with self._cond:
            return self._available

    def acquire(self, upto: int, timeout: float) -> int:
        """Block until at least one credit is free; take up to ``upto``.

        Returns how many credits were taken, or 0 if the window never
        refilled within ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._available <= 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return 0
                self._cond.wait(remaining)
            taken = min(max(1, int(upto)), self._available)
            self._available -= taken
            return taken

    def grant(self, count: int) -> None:
        if count <= 0:
            return
        with self._cond:
            self._available = min(self._window, self._available + int(count))
            self._cond.notify_all()


class PipelineResult:
    """A deferred result handle returned by :class:`RequestPipeline` methods."""

    def __init__(self, decoder: Callable[[Response], Any]) -> None:
        self._decoder = decoder
        self._response: Optional[Response] = None
        self._error: Optional[Exception] = None
        self._resolved = False

    def _resolve(self, response: Response) -> None:
        self._response = response
        self._resolved = True

    def _fail(self, error: Exception) -> None:
        self._error = error
        self._resolved = True

    def result(self) -> Any:
        """The decoded response; raises the remote (or transport) error on failure."""
        if not self._resolved:
            raise ProtocolError("pipeline result read before the pipeline was flushed")
        if self._error is not None:
            raise self._error
        assert self._response is not None
        if not self._response.ok:
            _raise_remote(self._response)
        return self._decoder(self._response)


class RequestPipeline:
    """Records ServerEngine-shaped calls; one round trip flushes them all.

    Used as a context manager::

        with client.pipeline() as batch:
            heads = [batch.stream_head(uuid) for uuid in uuids]
            grants = batch.fetch_grants(uuid, "bob")
        print([handle.result() for handle in heads])

    Every method returns a :class:`PipelineResult`; results become readable
    after the ``with`` block (or an explicit :meth:`flush`).  A failed
    request raises its remote error from ``result()`` without affecting the
    other requests in the batch — mid-batch errors stay per-request.
    """

    def __init__(self, client: "RemoteServerClient") -> None:
        self._client = client
        self._requests: List[Request] = []
        self._handles: List[PipelineResult] = []

    def __len__(self) -> int:
        return len(self._requests)

    def __enter__(self) -> "RequestPipeline":
        return self

    def __exit__(self, exc_type: object, *_exc_info: object) -> None:
        if exc_type is None:
            self.flush()

    def flush(self) -> None:
        """Ship all recorded requests as one framed batch and resolve handles.

        On a transport failure every handle is failed with that error (so
        ``result()`` reports the real cause, not an unflushed-pipeline
        state) and the recorded batch is cleared before re-raising.
        """
        if not self._requests:
            return
        requests, handles = self._requests, self._handles
        self._requests = []
        self._handles = []
        try:
            responses = self._client.call_many(requests)
        except Exception as exc:
            for handle in handles:
                handle._fail(exc)
            raise
        for handle, response in zip(handles, responses):
            handle._resolve(response)

    def _defer(self, request: Request, decoder: Callable[[Response], Any]) -> PipelineResult:
        handle = PipelineResult(decoder)
        self._requests.append(request)
        self._handles.append(handle)
        return handle

    # -- deferred ServerEngine-shaped calls ---------------------------------------

    def ping(self) -> PipelineResult:
        return self._defer(Request("ping"), lambda r: bool(r.result.get("pong")))

    def stream_head(self, stream_uuid: str) -> PipelineResult:
        return self._defer(
            Request("stream_head", {"uuid": stream_uuid}), lambda r: int(r.result["head"])
        )

    def stream_metadata(self, stream_uuid: str) -> PipelineResult:
        return self._defer(
            Request("stream_metadata", {"uuid": stream_uuid}),
            lambda r: _metadata_from_json(r.attachments[0]),
        )

    def insert_chunks(self, chunks: Sequence[EncryptedChunk]) -> PipelineResult:
        if not chunks:
            raise ProtocolError("insert_chunks requires at least one chunk")
        return self._defer(
            Request("insert_chunks", {}, [encode_encrypted_chunk(chunk) for chunk in chunks]),
            lambda r: int(r.result["window_index"]),
        )

    def get_range(self, stream_uuid: str, time_range: TimeRange) -> PipelineResult:
        return self._defer(
            Request(
                "get_range",
                {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end},
            ),
            lambda r: [decode_encrypted_chunk(blob) for blob in r.attachments],
        )

    def stat_range(self, stream_uuid: str, time_range: TimeRange) -> PipelineResult:
        return self._defer(
            Request(
                "stat_range",
                {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end},
            ),
            lambda r: RemoteServerClient._stat_from_json(r.result["stat"]),
        )

    def put_grant(self, stream_uuid: str, principal_id: str, sealed_token: bytes) -> PipelineResult:
        return self._defer(
            Request(
                "put_grant", {"uuid": stream_uuid, "principal_id": principal_id}, [sealed_token]
            ),
            lambda r: int(r.result["grant_id"]),
        )

    def fetch_grants(self, stream_uuid: str, principal_id: str) -> PipelineResult:
        return self._defer(
            Request("fetch_grants", {"uuid": stream_uuid, "principal_id": principal_id}),
            lambda r: [retain(blob) for blob in r.attachments],
        )

    def fetch_envelopes(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> PipelineResult:
        return self._defer(
            Request(
                "fetch_envelopes",
                {
                    "uuid": stream_uuid,
                    "resolution_chunks": resolution_chunks,
                    "window_start": window_start,
                    "window_end": window_end,
                },
            ),
            lambda r: dict(zip(r.result["windows"], (retain(blob) for blob in r.attachments))),
        )


class _RemoteTokenStore:
    """Token-store facade forwarding grant/envelope traffic over the wire."""

    def __init__(self, client: "RemoteServerClient") -> None:
        self._client = client

    def put_grant(self, stream_uuid: str, principal_id: str, sealed_token: bytes) -> int:
        response = self._client._call(
            Request(
                "put_grant",
                {"uuid": stream_uuid, "principal_id": principal_id},
                [sealed_token],
            )
        )
        return int(response.result["grant_id"])

    def put_grants(self, grants: Sequence[Tuple[str, str, bytes]]) -> List[int]:
        """A cohort grant burst: one wire round trip, one storage ``multi_put``.

        Falls back to per-grant ``put_grant`` calls against dispatchers that
        predate the ``put_grants`` operation (detected via negotiation).
        """
        if not grants:
            return []
        if not self._client.supports_operation("put_grants"):
            return [self.put_grant(*grant) for grant in grants]
        response = self._client._call(
            Request(
                "put_grants",
                {
                    "grants": [
                        {"uuid": stream_uuid, "principal_id": principal_id}
                        for stream_uuid, principal_id, _sealed in grants
                    ]
                },
                [sealed for _uuid, _principal, sealed in grants],
            )
        )
        return [int(grant_id) for grant_id in response.result["grant_ids"]]

    def grants_for(self, stream_uuid: str, principal_id: str) -> List[bytes]:
        response = self._client._call(
            Request("fetch_grants", {"uuid": stream_uuid, "principal_id": principal_id})
        )
        # Copy-on-retain: zero-copy decode hands out views over the frame
        # buffer; sealed tokens outlive the response, so own the bytes here.
        return [retain(blob) for blob in response.attachments]

    def put_envelopes(
        self, stream_uuid: str, resolution_chunks: int, envelopes: Dict[int, bytes]
    ) -> None:
        windows = sorted(envelopes)
        self._client._call(
            Request(
                "put_envelopes",
                {
                    "uuid": stream_uuid,
                    "resolution_chunks": resolution_chunks,
                    "windows": windows,
                },
                [envelopes[window] for window in windows],
            )
        )

    def envelopes_for_range(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> Dict[int, bytes]:
        response = self._client._call(
            Request(
                "fetch_envelopes",
                {
                    "uuid": stream_uuid,
                    "resolution_chunks": resolution_chunks,
                    "window_start": window_start,
                    "window_end": window_end,
                },
            )
        )
        windows = response.result["windows"]
        return dict(zip(windows, (retain(blob) for blob in response.attachments)))


class RemoteServerClient:
    """A ServerEngine-compatible proxy over a TCP connection.

    Frame submission blocks once the credit window the server advertised in
    ``hello`` is used up.  ``overload_retries`` bounds how often a request
    the server shed with a typed ``overloaded`` response is re-sent (capped
    exponential backoff seeded by the server's retry-after hint) before the
    error surfaces to the caller.

    Request batches go out through ``socket.sendmsg`` as header +
    attachment views (no batch concatenation), and responses decode as
    memoryviews over per-frame buffers.  ``compression=True`` offers zlib
    frame compression in ``hello`` and compresses requests over
    ``compress_threshold`` bytes once the server advertises support; off by
    default (chunk ciphertext is incompressible — see
    :mod:`repro.net.messages`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        overload_retries: int = 4,
        overload_backoff_cap: float = 0.25,
        compression: bool = False,
        compress_threshold: int = WIRE_COMPRESSION_THRESHOLD,
        tracing: bool = False,
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._socket = socket.create_connection(self._address, timeout=timeout)
        self._frames = FrameReader(self._socket)
        self._lock = threading.Lock()  # serialises frame writes
        self._closed = False
        self.token_store = _RemoteTokenStore(self)
        self.wire_stats = WireStats()
        #: Distributed tracing (off by default — with it off the request path
        #: never touches a clock or builds a span).  When on, every call gets
        #: a client span, its context rides the request's ``trace`` header
        #: key, and the ``tracing`` capability is offered in ``hello`` so
        #: negotiating servers record matching server-side spans.  A server
        #: that never negotiated simply ignores the header key.
        self._tracing = bool(tracing)
        self._node_label = f"client:{host}:{port}"
        self._pending: Dict[int, "Future[Response]"] = {}
        self._pending_lock = threading.Lock()
        self._correlation_ids = itertools.count(1)
        self._overload_retries = max(0, int(overload_retries))
        self._overload_backoff_cap = max(0.0, float(overload_backoff_cap))
        self._compression = bool(compression)
        self._compress_threshold = max(1, int(compress_threshold))
        try:
            #: The full ``hello`` result: capability fields beyond the op list
            #: (e.g. a shard routing table).
            self.hello_info: Dict[str, Any] = self._negotiate()
        except BaseException:
            self._socket.close()
            raise
        self._server_operations = frozenset(self.hello_info.get("operations", ()))
        advertised = self.hello_info.get("compression") or ()
        #: True once both ends negotiated a compression scheme in ``hello``.
        self._compress = self._compression and any(
            scheme in advertised for scheme in WIRE_COMPRESSION_SCHEMES
        )
        # Created before the reader starts, so every piggybacked grant the
        # reader ever sees lands in the gate.  (The hello exchange itself
        # was synchronous — its grant is already accounted for by starting
        # at the full window.)
        self._credits = _CreditGate(self.hello_info["credits"])
        # Snapshot through the client, not the stats object: wrappers like
        # RemoteKeyValueStore swap in a shared WireStats after construction.
        self._metrics_key = REGISTRY.register(
            f"client.wire[{host}:{port}]", self, snapshot=lambda client: asdict(client.wire_stats)
        )
        # Idle connections must not kill the reader thread: per-request
        # deadlines are enforced on the futures, not on the socket.
        self._socket.settimeout(None)
        self._reader = threading.Thread(target=self._read_loop, daemon=True, name="tc-client-reader")
        self._reader.start()

    @property
    def credit_window(self) -> int:
        """The flow-control window the server advertised in ``hello``."""
        return self._credits.window

    @property
    def credits_available(self) -> int:
        return self._credits.available

    # -- connection management ---------------------------------------------------------

    def _negotiate(self) -> Dict[str, Any]:
        """One synchronous ``hello``; returns the peer's capability fields.

        A peer that hangs up, times out, or answers anything but a
        successful hello carrying a credit window fails with a plain
        :class:`~repro.exceptions.TransportError` — to a caller it looks
        like an unreachable peer (a restarting node drops the connection
        mid-hello), so the storage tier treats it as a retryable outage.
        """
        hello_args: Dict[str, Any] = {"protocol": PROTOCOL_VERSION}
        if self._compression:
            # Offering a scheme also means: compressed responses welcome.
            hello_args["compression"] = list(WIRE_COMPRESSION_SCHEMES)
        if self._tracing:
            hello_args["tracing"] = True
        request = Request("hello", hello_args)
        try:
            write_vectored(self._socket, encode_frame_segments_v2(0, request.encode_segments()))
            response = Response.decode(self._frames.read().payload)
            window = response.result.get("credits")
            if not response.ok or not isinstance(window, int) or window < 1:
                raise ProtocolError(
                    f"peer rejected hello or advertised no credit window: "
                    f"{response.error or response.result}"
                )
        except (TransportError, OSError) as exc:
            raise TransportError(f"hello negotiation with {self._address} failed: {exc}") from exc
        return dict(response.result)

    def supports_operation(self, operation: str) -> bool:
        """Whether negotiation advertised an operation."""
        return operation in self._server_operations

    def close(self) -> None:
        self._closed = True
        REGISTRY.unregister(self._metrics_key)
        try:
            # shutdown (not just close) reliably wakes the reader thread's
            # blocking recv with EOF on every platform.
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass
        self._reader.join(timeout=5)

    def __enter__(self) -> "RemoteServerClient":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # -- transport -------------------------------------------------------------------

    def _read_loop(self) -> None:
        """Reader thread: resolve response frames against the pending table.

        Payloads land straight in per-frame buffers via ``recv_into`` and
        decode as views over them — the engine-facing accessors
        (``get_range``, grant/envelope pickup) materialize copies only where
        results are retained.  Any read or decode failure fails every
        pending call at once: a stream that cannot be parsed cannot be
        re-synchronised, and waiting out the timeout would hide the cause.
        """
        while True:
            try:
                frame = self._frames.read()
                response = Response.decode(frame.payload)
            except Exception as exc:  # noqa: BLE001 — every failure must reach the waiters
                self._fail_pending(exc)
                return
            self.wire_stats.bytes_received += len(frame.payload) + FRAME_HEADER_BYTES
            with self._pending_lock:
                future = self._pending.pop(frame.correlation_id, None)
            if response.credit_grant:
                # Replenish before resolving the future: a caller chaining
                # sends off the result must see the returned credit.
                self._credits.grant(response.credit_grant)
            self.wire_stats.responses_received += 1
            if future is not None:
                future.set_result(response)

    def _fail_pending(self, cause: Exception) -> None:
        if self._closed:
            error: Exception = TransportError("connection closed")
        else:
            error = TransportError(f"connection to {self._address} failed: {cause}")
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        if pending:
            # Responses that will never arrive must still return their
            # credits, or every sender blocked on the window hangs until its
            # timeout.  (grant() clamps at the window, so requests that never
            # consumed a credit cannot inflate it.)
            self._credits.grant(len(pending))
        for future in pending:
            if not future.done():
                future.set_exception(error)

    def _encode_batch(self, requests: Sequence[Request]) -> List[List[Any]]:
        """Message-segment lists for a batch, compressed where negotiated."""
        encoded: List[List[Any]] = []
        for request in requests:
            segments = request.encode_segments()
            if self._compress:
                segments, compressed = maybe_compress_segments(segments, self._compress_threshold)
                if compressed:
                    self.wire_stats.frames_compressed += 1
            encoded.append(segments)
        return encoded

    def _write_frames(self, frames: Sequence[List[Any]]) -> None:
        """Ship framed segment lists in one vectored write."""
        flat = [segment for frame in frames for segment in frame]
        _syscalls, sent, coalesced = write_vectored(self._socket, flat)
        self.wire_stats.vectored_writes += 1
        self.wire_stats.frames_coalesced += coalesced
        self.wire_stats.bytes_sent += sent

    def _send_requests(self, requests: Sequence[Request]) -> List["Future[Response]"]:
        """Frame and write a request batch in credit-sized bursts; returns futures."""
        # Encode outside the pending lock: a multi-megabyte chunk batch must
        # not stall the reader thread's response resolution while it JSONs.
        # Framing happens *before* any future is registered — an oversized
        # payload raises here without leaving ghost correlation ids in the
        # pending table that nothing would ever resolve.
        messages = self._encode_batch(requests)
        with self._pending_lock:
            correlation_ids = [next(self._correlation_ids) for _message in messages]
        frames = [
            encode_frame_segments_v2(correlation_id, segments)
            for correlation_id, segments in zip(correlation_ids, messages)
        ]
        futures: List["Future[Response]"] = []
        with self._pending_lock:
            for correlation_id in correlation_ids:
                future: "Future[Response]" = Future()
                self._pending[correlation_id] = future
                futures.append(future)
        # A reader that died *before* the registration above has already
        # swept _pending and will never fail these futures; checking after
        # registration closes the race (a reader dying later sweeps them).
        if not self._reader.is_alive():
            self._fail_pending(TransportError("reader thread terminated"))
            return futures
        # The batch goes out in credit-sized bursts, so at most window-many
        # frames are ever unanswered on this connection.
        sent = 0
        while sent < len(frames):
            if self._credits.available <= 0:
                self.wire_stats.credit_stalls += 1
            granted = self._credits.acquire(len(frames) - sent, self._timeout)
            if granted == 0:
                # The window never refilled within the deadline.  Fail only
                # the unsent tail — its correlation ids never hit the wire;
                # the frames already sent may still be answered normally.
                error = TransportError(
                    f"timed out waiting for flow-control credits from {self._address}"
                )
                with self._pending_lock:
                    stale = [
                        self._pending.pop(correlation_id)
                        for correlation_id in correlation_ids[sent:]
                        if correlation_id in self._pending
                    ]
                for future in stale:
                    if not future.done():
                        future.set_exception(error)
                return futures
            try:
                with self._lock:
                    # repro: allow[REPRO004] _lock exists to serialize frame writes on this socket; holding it across the vectored write is the design, and only writers contend on it
                    self._write_frames(frames[sent : sent + granted])
            except OSError as exc:
                self._fail_pending(exc)
                return futures
            sent += granted
            self.wire_stats.requests_sent += granted
        return futures

    def _await(self, future: "Future[Response]") -> Response:
        try:
            return future.result(timeout=self._timeout)
        except TimeCryptError:
            raise
        except Exception as exc:  # concurrent.futures.TimeoutError et al.
            raise TransportError(f"request to {self._address} timed out or failed: {exc}") from exc

    # -- tracing -----------------------------------------------------------------------

    def _begin_trace(
        self, requests: Sequence[Request]
    ) -> Optional[Tuple[List[Optional[Dict[str, Any]]], int]]:
        """Attach trace contexts and open client spans (no-op with tracing off).

        The context is attached to the :class:`Request` itself, exactly once:
        a request re-sent after an ``overloaded`` shed keeps its original
        trace and span ids, so the retried attempt is the *same* span on the
        wire (and opens no duplicate client span here).  The parent is the
        thread's current context — inside a traced server handler (a router
        forwarding, an engine fetching from storage) the outbound span
        becomes a child of the server span, which is what stitches the
        cross-tier tree together.
        """
        if not self._tracing:
            return None
        parent = current_context()
        spans: List[Optional[Dict[str, Any]]] = []
        for request in requests:
            if request.trace is not None:
                spans.append(None)
                continue
            trace_id = parent[0] if parent is not None else new_trace_id()
            span_id = new_span_id()
            request.trace = (trace_id, span_id)
            spans.append(
                {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent[1] if parent is not None else None,
                    "node": self._node_label,
                    "kind": "client",
                    "op": request.operation,
                }
            )
        return spans, time.monotonic_ns()

    def _finish_trace(
        self,
        begun: Optional[Tuple[List[Optional[Dict[str, Any]]], int]],
        responses: Optional[Sequence[Response]] = None,
        error: Optional[Exception] = None,
    ) -> None:
        if begun is None:
            return
        spans, start_ns = begun
        total_ms = (time.monotonic_ns() - start_ns) / 1e6
        for index, span in enumerate(spans):
            if span is None:
                continue
            span["total_ms"] = total_ms
            if error is not None:
                span["status"] = type(error).__name__
            elif responses is not None and index < len(responses):
                response = responses[index]
                span["status"] = "ok" if response.ok else (response.error_type or "error")
            else:
                span["status"] = "ok"
            SPANS.record(span)

    # -- calling styles -----------------------------------------------------------------

    def _call(self, request: Request) -> Response:
        """One request, one round trip; raises the remote error on failure."""
        begun = self._begin_trace((request,))
        try:
            future = self._send_requests([request])[0]
            self.wire_stats.round_trips += 1
            response = self._await(future)
            if _is_overloaded(response):
                response = self._retry_overloaded([request], [response])[0]
        except Exception as exc:
            self._finish_trace(begun, error=exc)
            raise
        self._finish_trace(begun, responses=(response,))
        if not response.ok:
            _raise_remote(response)
        return response

    def _overload_delay(self, response: Response, attempt: int) -> float:
        """Backoff before re-sending a shed request: server hint × 2^attempt, capped."""
        hint = response.result.get("retry_after_ms") if isinstance(response.result, dict) else None
        base = (hint if isinstance(hint, (int, float)) and hint > 0 else 10.0) / 1000.0
        return min(self._overload_backoff_cap, base * (2 ** attempt))

    def _retry_overloaded(self, requests: List[Request], responses: List[Response]) -> List[Response]:
        """Re-send requests the server shed, with capped exponential backoff.

        Only the shed slots are retried (successes and real errors keep
        their responses); a request still overloaded after the retry budget
        keeps its ``overloaded`` response, which callers surface as
        :class:`~repro.exceptions.OverloadedError`.
        """
        for attempt in range(self._overload_retries):
            slots = [index for index, response in enumerate(responses) if _is_overloaded(response)]
            if not slots:
                break
            time.sleep(self._overload_delay(responses[slots[0]], attempt))
            self.wire_stats.overload_retries += len(slots)
            futures = self._send_requests([requests[index] for index in slots])
            self.wire_stats.round_trips += 1
            for slot, future in zip(slots, futures):
                responses[slot] = self._await(future)
        return responses

    def call_many(self, requests: Sequence[Request]) -> List[Response]:
        """Ship a request batch in one round trip; responses in request order.

        Unlike :meth:`_call` this does **not** raise on per-request errors —
        each returned :class:`Response` carries its own outcome, so one
        failed request inside a batch cannot mask the others.
        """
        if not requests:
            return []
        begun = self._begin_trace(requests)
        try:
            futures = self._send_requests(requests)
            self.wire_stats.round_trips += 1
            self.wire_stats.batches_sent += 1
            responses = [self._await(future) for future in futures]
            responses = self._retry_overloaded(list(requests), responses)
        except Exception as exc:
            self._finish_trace(begun, error=exc)
            raise
        self._finish_trace(begun, responses=responses)
        return responses

    def pipeline(self) -> RequestPipeline:
        """A deferred-call context; everything inside flushes as one batch."""
        return RequestPipeline(self)

    def ping(self) -> bool:
        return bool(self._call(Request("ping")).result.get("pong"))

    # -- ServerEngine-compatible surface ----------------------------------------------

    def create_stream(self, metadata: StreamMetadata) -> None:
        self._call(Request("create_stream", {}, [_metadata_to_json(metadata)]))

    def delete_stream(self, stream_uuid: str) -> None:
        self._call(Request("delete_stream", {"uuid": stream_uuid}))

    def stream_metadata(self, stream_uuid: str) -> StreamMetadata:
        response = self._call(Request("stream_metadata", {"uuid": stream_uuid}))
        if not response.attachments:
            raise ProtocolError("stream_metadata response missing attachment")
        return _metadata_from_json(response.attachments[0])

    def stream_head(self, stream_uuid: str) -> int:
        return int(self._call(Request("stream_head", {"uuid": stream_uuid})).result["head"])

    def rollup_stream(
        self, stream_uuid: str, resolution_windows: int, before_time: Optional[int] = None
    ) -> int:
        response = self._call(
            Request(
                "rollup_stream",
                {
                    "uuid": stream_uuid,
                    "resolution_windows": resolution_windows,
                    "before_time": before_time,
                },
            )
        )
        return int(response.result["deleted"])

    def insert_chunk(self, chunk: EncryptedChunk) -> int:
        response = self._call(Request("insert_chunk", {}, [encode_encrypted_chunk(chunk)]))
        return int(response.result["window_index"])

    def insert_chunks(self, chunks: Sequence[EncryptedChunk]) -> int:
        """Bulk ingest over one round trip; returns the first appended window index.

        Dispatchers that predate the ``insert_chunks`` wire operation (not
        advertised by ``hello``, or rejected at dispatch) get the batch as
        per-chunk ``insert_chunk`` calls instead; the downgrade is remembered
        so later batches skip the failed round trip.
        """
        if not chunks:
            raise ProtocolError("insert_chunks requires at least one chunk")
        if not self.supports_operation("insert_chunks"):
            return self._insert_chunks_one_by_one(chunks)
        try:
            response = self._call(
                Request("insert_chunks", {}, [encode_encrypted_chunk(chunk) for chunk in chunks])
            )
        except TimeCryptError as exc:
            # Remote errors re-raise by class *name*, which may surface as the
            # base class — match on the message, not the type.  A server
            # without the op rejects it in Request.decode ("unknown
            # operation", messages.py) before dispatch ("unsupported
            # operation") could ever see it; accept both spellings.
            message = str(exc)
            if "unsupported operation" not in message and "unknown operation" not in message:
                raise
            self._server_operations = self._server_operations - {"insert_chunks"}
            return self._insert_chunks_one_by_one(chunks)
        return int(response.result["window_index"])

    def _insert_chunks_one_by_one(self, chunks: Sequence[EncryptedChunk]) -> int:
        return min(self.insert_chunk(chunk) for chunk in chunks)

    def get_range(self, stream_uuid: str, time_range: TimeRange) -> List[EncryptedChunk]:
        response = self._call(
            Request("get_range", {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end})
        )
        return [decode_encrypted_chunk(blob) for blob in response.attachments]

    def delete_range(self, stream_uuid: str, time_range: TimeRange) -> int:
        response = self._call(
            Request(
                "delete_range",
                {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end},
            )
        )
        return int(response.result["deleted"])

    @staticmethod
    def _stat_from_json(payload: Dict) -> StatQueryResult:
        return StatQueryResult(
            stream_uuid=payload["stream_uuid"],
            window_start=payload["window_start"],
            window_end=payload["window_end"],
            cells=tuple(
                HEACCiphertext(value=cell["value"], window_start=cell["start"], window_end=cell["end"])
                for cell in payload["cells"]
            ),
            component_names=tuple(payload["component_names"]),
            num_index_nodes=payload["num_index_nodes"],
        )

    def stat_range(self, stream_uuid: str, time_range: TimeRange) -> StatQueryResult:
        response = self._call(
            Request("stat_range", {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end})
        )
        return self._stat_from_json(response.result["stat"])

    def stat_series(
        self, stream_uuid: str, time_range: TimeRange, granularity_windows: int
    ) -> List[StatQueryResult]:
        response = self._call(
            Request(
                "stat_series",
                {
                    "uuid": stream_uuid,
                    "start": time_range.start,
                    "end": time_range.end,
                    "granularity_windows": granularity_windows,
                },
            )
        )
        return [self._stat_from_json(item) for item in response.result["series"]]

    def stat_range_multi(
        self, stream_uuids: Sequence[str], time_range: TimeRange
    ) -> MultiStreamAggregate:
        response = self._call(
            Request(
                "stat_range_multi",
                {"uuids": list(stream_uuids), "start": time_range.start, "end": time_range.end},
            )
        )
        return MultiStreamAggregate(
            values=tuple(response.result["values"]),
            component_names=tuple(response.result["component_names"]),
            per_stream_intervals=tuple(
                (item[0], item[1], item[2]) for item in response.result["per_stream_intervals"]
            ),
        )

    # -- grant / envelope passthrough (ServerEngine-compatible) -----------------------------

    def put_grant(self, stream_uuid: str, principal_id: str, sealed_token: bytes) -> int:
        return self.token_store.put_grant(stream_uuid, principal_id, sealed_token)

    def put_grants(self, grants: Sequence[Tuple[str, str, bytes]]) -> List[int]:
        return self.token_store.put_grants(grants)

    def fetch_grants(self, stream_uuid: str, principal_id: str) -> List[bytes]:
        return self.token_store.grants_for(stream_uuid, principal_id)

    def fetch_envelopes(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> Dict[int, bytes]:
        return self.token_store.envelopes_for_range(
            stream_uuid, resolution_chunks, window_start, window_end
        )


Address = Tuple[str, int]


class ConnectionCache:
    """Lazily dialled :class:`RemoteServerClient` connections, one per address.

    The one dialler behind every cached connection (the sharded client, the
    router's proxy hop, the remote storage client):

    * it dials **outside** the lock — a connect + ``hello`` can block for
      the full timeout against a dead peer, and threads that only want an
      already-cached connection must not queue behind it;
    * it installs **double-checked**: a thread that loses a concurrent dial
      race closes its own client and uses the installed one, so racing
      first calls neither leak connections nor close each other's;
    * it **drops** a connection after a transport failure — only if it is
      still the installed one, so a racing redial survives — and the next
      call dials again.

    ``prepare`` runs on every freshly dialled client before it is installed;
    if it raises, the client is closed and the error propagates.
    ``client_options`` are the :class:`RemoteServerClient` keyword arguments.
    """

    def __init__(
        self, prepare: Optional[Callable[[RemoteServerClient], None]] = None, **client_options: Any
    ) -> None:
        self.client_options = client_options
        self._prepare = prepare
        self._lock = threading.Lock()
        self._clients: Dict[Address, RemoteServerClient] = {}

    def get(self, address: Address) -> RemoteServerClient:
        """The cached connection to ``address``, dialling it if there is none."""
        installed = self.peek(address)
        if installed is not None:
            return installed
        client = RemoteServerClient(address[0], address[1], **self.client_options)
        try:
            if self._prepare is not None:
                self._prepare(client)
        except BaseException:
            client.close()
            raise
        with self._lock:
            installed = self._clients.setdefault(address, client)
        if installed is not client:
            client.close()  # lost the dial race: keep the installed transport
        return installed

    def peek(self, address: Address) -> Optional[RemoteServerClient]:
        """The cached connection to ``address``, never dialling."""
        with self._lock:
            return self._clients.get(address)

    def clients(self) -> List[RemoteServerClient]:
        with self._lock:
            return list(self._clients.values())

    def call_many(self, address: Address, requests: Sequence[Request]) -> List[Response]:
        """:meth:`RemoteServerClient.call_many` over the cached connection.

        A transport failure drops the connection before re-raising.  A
        :class:`~repro.exceptions.ProtocolError` raised here was raised
        locally (a request past the frame cap), so the healthy connection
        stays cached.
        """
        client = self.get(address)
        try:
            return client.call_many(requests)
        except ProtocolError:
            raise
        except (TransportError, OSError):
            self.drop(address, client)
            raise

    def drop(self, address: Address, client: Optional[RemoteServerClient] = None) -> None:
        """Close and forget the connection to ``address`` (only if it is ``client``)."""
        with self._lock:
            installed = self._clients.get(address)
            if installed is None or (client is not None and installed is not client):
                return
            del self._clients[address]
        installed.close()

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()


class _ShardedTokenStore:
    """Token-store facade routing grant/envelope traffic to the owning shard."""

    def __init__(self, client: "ShardedServerClient") -> None:
        self._client = client

    def put_grant(self, stream_uuid: str, principal_id: str, sealed_token: bytes) -> int:
        return self._client.put_grant(stream_uuid, principal_id, sealed_token)

    def put_grants(self, grants: Sequence[Tuple[str, str, bytes]]) -> List[int]:
        return self._client.put_grants(grants)

    def grants_for(self, stream_uuid: str, principal_id: str) -> List[bytes]:
        return self._client.fetch_grants(stream_uuid, principal_id)

    def put_envelopes(
        self, stream_uuid: str, resolution_chunks: int, envelopes: Dict[int, bytes]
    ) -> None:
        windows = sorted(envelopes)
        self._client._call(
            stream_uuid,
            Request(
                "put_envelopes",
                {
                    "uuid": stream_uuid,
                    "resolution_chunks": resolution_chunks,
                    "windows": windows,
                },
                [envelopes[window] for window in windows],
            ),
        )

    def envelopes_for_range(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> Dict[int, bytes]:
        return self._client.fetch_envelopes(
            stream_uuid, resolution_chunks, window_start, window_end
        )


class ShardedServerClient:
    """A routing-aware client for the sharded engine tier.

    Dials the :class:`~repro.server.router.StreamRouter`, learns the shard
    routing table from its ``hello``, and from then on sends every stream
    operation *directly* to the owning engine over one multiplexed
    connection per shard — the router is only revisited to refresh the
    table.  A ``WrongShardError`` redirect (the client's table was stale)
    triggers a refresh and a bounded re-route; an engine that died
    mid-workload surfaces as a transport error, which likewise refreshes
    the table and redials, so a membership change needs no client restart.
    """

    _MAX_ROUTE_ATTEMPTS = 5

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        overload_retries: int = 4,
        compression: bool = False,
        tracing: bool = False,
    ) -> None:
        self._router_address = (host, port)
        #: The router and every engine shard, keyed by address.
        self._connections = ConnectionCache(
            timeout=timeout,
            overload_retries=max(0, int(overload_retries)),
            compression=bool(compression),
            tracing=bool(tracing),
        )
        self._table = self._table_from_hello(self._connections.get(self._router_address))
        self.token_store = _ShardedTokenStore(self)

    # -- table management -------------------------------------------------------

    def _table_from_hello(self, client: RemoteServerClient) -> ShardRoutingTable:
        payload = client.hello_info.get("routing")
        if payload is None:
            raise ProtocolError(
                f"peer at {self._router_address} did not advertise a shard routing table"
            )
        return ShardRoutingTable.from_payload(payload)

    @property
    def routing_table(self) -> ShardRoutingTable:
        return self._table

    @property
    def routing_epoch(self) -> int:
        return self._table.epoch

    def _fetch_table(self, address: Address) -> Optional[ShardRoutingTable]:
        """Ask one peer for its current table; ``None`` on any failure."""
        try:
            response = self._connections.call_many(address, [Request("routing_table")])[0]
        except (TransportError, OSError):
            return None
        payload = response.result.get("routing") if response.ok else None
        if payload is None:
            return None
        try:
            return ShardRoutingTable.from_payload(payload)
        except ProtocolError:
            return None

    def _adopt_table(self, table: Optional[ShardRoutingTable]) -> bool:
        """Adopt a strictly newer table; returns whether the epoch advanced."""
        if table is None or table.epoch <= self._table.epoch:
            return False
        self._table = table
        return True

    def _refresh_table(self) -> bool:
        """Refresh from the router (redialling once), else from any connected shard."""
        for _attempt in range(2):
            table = self._fetch_table(self._router_address)
            if table is not None:
                return self._adopt_table(table)
        for name in self._table.engine_names:
            address = self._table.address_of(name)
            if self._connections.peek(address) is None:
                continue
            table = self._fetch_table(address)
            if table is not None:
                return self._adopt_table(table)
        return False

    # -- connections ------------------------------------------------------------

    def _engine_client(self, name: str) -> RemoteServerClient:
        return self._connections.get(self._table.address_of(name))

    def close(self) -> None:
        self._connections.close()

    def __enter__(self) -> "ShardedServerClient":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    @property
    def wire_stats(self) -> WireStats:
        """Aggregate wire accounting across the router and all shard connections."""
        total = WireStats()
        for client in self._connections.clients():
            for name, value in asdict(client.wire_stats).items():
                setattr(total, name, getattr(total, name) + value)
        return total

    # -- routing ----------------------------------------------------------------

    def _routed(self, stream_uuid: str, request: Request) -> Response:
        """Send one request to the stream's owner, chasing redirects boundedly.

        Transport loss drops the shard connection, refreshes the table and
        retries; a ``wrong_shard`` redirect refreshes the table, falling back
        to the redirect's owner hint only when no newer table materialises.
        A topology that never converges (peers answering for each other's
        shards) is reported as a protocol error instead of looping forever.
        """
        owner_hint: Optional[str] = None
        for _attempt in range(self._MAX_ROUTE_ATTEMPTS):
            table = self._table
            if owner_hint is not None and owner_hint in table.engine_names:
                owner = owner_hint
            else:
                owner = table.owner_of(stream_uuid)
            owner_hint = None
            try:
                response = self._connections.call_many(table.address_of(owner), [request])[0]
            except (TransportError, OSError):
                logger.info(
                    "engine shard '%s' unreachable; refreshing table and redialling", owner
                )
                self._refresh_table()
                continue
            if response.ok or response.error_type != "WrongShardError":
                return response
            progressed = self._refresh_table()
            if not progressed and self._table.epoch == table.epoch:
                hinted = response.result.get("owner")
                if hinted in table.engine_names and hinted != owner:
                    owner_hint = hinted
        raise ProtocolError(
            f"shard routing for stream '{stream_uuid}' did not converge after "
            f"{self._MAX_ROUTE_ATTEMPTS} attempts"
        )

    def _call(self, stream_uuid: str, request: Request) -> Response:
        response = self._routed(stream_uuid, request)
        if not response.ok:
            _raise_remote(response)
        return response

    def ping(self) -> bool:
        """Liveness of the tier: the router, or failing that any live shard."""
        table = self._table
        addresses = [self._router_address] + [table.address_of(name) for name in table.engine_names]
        for address in addresses:
            try:
                response = self._connections.call_many(address, [Request("ping")])[0]
            except (TimeCryptError, OSError):
                continue
            if response.ok:
                return bool(response.result.get("pong"))
        return False

    # -- ServerEngine-compatible surface ----------------------------------------

    def create_stream(self, metadata: StreamMetadata) -> None:
        self._call(metadata.uuid, Request("create_stream", {}, [_metadata_to_json(metadata)]))

    def delete_stream(self, stream_uuid: str) -> None:
        self._call(stream_uuid, Request("delete_stream", {"uuid": stream_uuid}))

    def stream_metadata(self, stream_uuid: str) -> StreamMetadata:
        response = self._call(stream_uuid, Request("stream_metadata", {"uuid": stream_uuid}))
        if not response.attachments:
            raise ProtocolError("stream_metadata response missing attachment")
        return _metadata_from_json(response.attachments[0])

    def stream_head(self, stream_uuid: str) -> int:
        response = self._call(stream_uuid, Request("stream_head", {"uuid": stream_uuid}))
        return int(response.result["head"])

    def rollup_stream(
        self, stream_uuid: str, resolution_windows: int, before_time: Optional[int] = None
    ) -> int:
        response = self._call(
            stream_uuid,
            Request(
                "rollup_stream",
                {
                    "uuid": stream_uuid,
                    "resolution_windows": resolution_windows,
                    "before_time": before_time,
                },
            ),
        )
        return int(response.result["deleted"])

    def insert_chunk(self, chunk: EncryptedChunk) -> int:
        response = self._call(
            chunk.stream_uuid, Request("insert_chunk", {}, [encode_encrypted_chunk(chunk)])
        )
        return int(response.result["window_index"])

    def insert_chunks(self, chunks: Sequence[EncryptedChunk]) -> int:
        if not chunks:
            raise ProtocolError("insert_chunks requires at least one chunk")
        response = self._call(
            chunks[0].stream_uuid,
            Request("insert_chunks", {}, [encode_encrypted_chunk(chunk) for chunk in chunks]),
        )
        return int(response.result["window_index"])

    def get_range(self, stream_uuid: str, time_range: TimeRange) -> List[EncryptedChunk]:
        response = self._call(
            stream_uuid,
            Request(
                "get_range",
                {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end},
            ),
        )
        return [decode_encrypted_chunk(blob) for blob in response.attachments]

    def delete_range(self, stream_uuid: str, time_range: TimeRange) -> int:
        response = self._call(
            stream_uuid,
            Request(
                "delete_range",
                {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end},
            ),
        )
        return int(response.result["deleted"])

    def stat_range(self, stream_uuid: str, time_range: TimeRange) -> StatQueryResult:
        response = self._call(
            stream_uuid,
            Request(
                "stat_range",
                {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end},
            ),
        )
        return RemoteServerClient._stat_from_json(response.result["stat"])

    def stat_series(
        self, stream_uuid: str, time_range: TimeRange, granularity_windows: int
    ) -> List[StatQueryResult]:
        response = self._call(
            stream_uuid,
            Request(
                "stat_series",
                {
                    "uuid": stream_uuid,
                    "start": time_range.start,
                    "end": time_range.end,
                    "granularity_windows": granularity_windows,
                },
            ),
        )
        return [RemoteServerClient._stat_from_json(item) for item in response.result["series"]]

    def stat_range_multi(
        self, stream_uuids: Sequence[str], time_range: TimeRange
    ) -> MultiStreamAggregate:
        """Inter-stream query: forwarded whole when one shard owns every
        stream, otherwise per-stream ``stat_range`` calls recombined exactly
        as a single engine would (:meth:`MultiStreamAggregate.combine` over
        results in request order)."""
        uuids = list(stream_uuids)
        if not uuids:
            raise QueryError("an inter-stream query needs at least one stream")
        table = self._table
        owners = {table.owner_of(stream_uuid) for stream_uuid in uuids}
        if len(owners) == 1:
            response = self._call(
                uuids[0],
                Request(
                    "stat_range_multi",
                    {"uuids": uuids, "start": time_range.start, "end": time_range.end},
                ),
            )
            return MultiStreamAggregate(
                values=tuple(response.result["values"]),
                component_names=tuple(response.result["component_names"]),
                per_stream_intervals=tuple(
                    (item[0], item[1], item[2])
                    for item in response.result["per_stream_intervals"]
                ),
            )
        return MultiStreamAggregate.combine(
            [self.stat_range(stream_uuid, time_range) for stream_uuid in uuids]
        )

    # -- grant / envelope passthrough -------------------------------------------

    def put_grant(self, stream_uuid: str, principal_id: str, sealed_token: bytes) -> int:
        response = self._call(
            stream_uuid,
            Request(
                "put_grant", {"uuid": stream_uuid, "principal_id": principal_id}, [sealed_token]
            ),
        )
        return int(response.result["grant_id"])

    def put_grants(self, grants: Sequence[Tuple[str, str, bytes]]) -> List[int]:
        """A grant burst, split into one ``put_grants`` per owning shard.

        Ids are stitched back into input order.  A membership change racing
        the burst can strand a sub-batch on a shard that no longer owns one
        of its streams; that surfaces as the redirect error rather than a
        silent partial write.
        """
        if not grants:
            return []
        table = self._table
        slots_by_owner: Dict[str, List[int]] = {}
        for slot, (stream_uuid, _principal, _sealed) in enumerate(grants):
            slots_by_owner.setdefault(table.owner_of(stream_uuid), []).append(slot)
        grant_ids: List[int] = [0] * len(grants)
        for owner in sorted(slots_by_owner):
            slots = slots_by_owner[owner]
            subset = [grants[slot] for slot in slots]
            response = self._call(
                subset[0][0],
                Request(
                    "put_grants",
                    {
                        "grants": [
                            {"uuid": stream_uuid, "principal_id": principal_id}
                            for stream_uuid, principal_id, _sealed in subset
                        ]
                    },
                    [sealed for _uuid, _principal, sealed in subset],
                ),
            )
            for slot, grant_id in zip(slots, response.result["grant_ids"]):
                grant_ids[slot] = int(grant_id)
        return grant_ids

    def fetch_grants(self, stream_uuid: str, principal_id: str) -> List[bytes]:
        response = self._call(
            stream_uuid,
            Request("fetch_grants", {"uuid": stream_uuid, "principal_id": principal_id}),
        )
        return list(response.attachments)

    def fetch_envelopes(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> Dict[int, bytes]:
        response = self._call(
            stream_uuid,
            Request(
                "fetch_envelopes",
                {
                    "uuid": stream_uuid,
                    "resolution_chunks": resolution_chunks,
                    "window_start": window_start,
                    "window_end": window_end,
                },
            ),
        )
        return dict(zip(response.result["windows"], response.attachments))
