"""The TCP server exposing a :class:`~repro.server.engine.ServerEngine`.

The transport is a single-threaded ``selectors`` I/O loop feeding a
**bounded worker pool** (the Netty stand-in): one thread accepts
connections and reads bytes, an incremental
:class:`~repro.net.framing.FrameAssembler` per connection turns them into
frames, and each complete frame is dispatched on a shared
``ThreadPoolExecutor`` — so request handling no longer scales one thread
per connection, and a slow request only occupies one pool slot.

Frames carry a correlation id, so they are dispatched concurrently and
their responses are written (under the per-connection write lock) whenever
they finish — out of order is expected and correct, the client matches
responses by correlation id.

Dispatch is **scheduled**: every frame is classified interactive or bulk
(:func:`~repro.net.messages.classify_operation`) into one of two *bounded*
queues drained weighted-round-robin by the worker pool, so a small
``stat_range`` never waits behind a whole ingest burst.  A full queue sheds
the frame with a typed ``overloaded`` response carrying a retry-after hint
— never silent latency or dead air.  Backpressure is credit-based:
``hello`` advertises a per-connection window (at least one credit), every
response returns one credit (the ``credits`` header field), and the client
caps its in-flight frames at the window.  Responses go out through
``sendmsg`` as header + attachment views, never concatenated.

The dispatcher is also usable without sockets through
:class:`RequestDispatcher`, which the in-process transport and the tests
reuse directly.  The transport itself is dispatcher-agnostic: any
:class:`WireDispatcher` can sit behind it — the storage-node tier
(:mod:`repro.storage.node`) serves the raw key-value contract through the
exact same I/O loop, worker pool, and framing.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.exceptions import OverloadedError, ProtocolError, TimeCryptError
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import SPANS, SpanCollector, new_span_id, set_context
from repro.net.framing import (
    PROTOCOL_VERSION,
    Frame,
    FrameAssembler,
    encode_frame_segments_v2,
    write_vectored,
)
from repro.net.messages import (
    OPERATIONS,
    WIRE_COMPRESSION_SCHEMES,
    WIRE_COMPRESSION_THRESHOLD,
    Request,
    Response,
    classify_operation,
    maybe_compress_segments,
    peek_operation,
    retain,
)
from repro.server.engine import ServerEngine, _metadata_from_json, _metadata_to_json
from repro.timeseries.serialization import decode_encrypted_chunk, encode_encrypted_chunk
from repro.util.timeutil import TimeRange

#: Default per-connection credit window advertised in ``hello``.
DEFAULT_CREDIT_WINDOW = 256
#: Default bounded-queue depths for the two scheduler classes.  Interactive
#: requests are small and fast, so the queue is generous; the bulk cap is the
#: backpressure point — beyond it, writers get typed ``overloaded`` sheds.
DEFAULT_INTERACTIVE_QUEUE_LIMIT = 1024
DEFAULT_BULK_QUEUE_LIMIT = 128
#: Interactive frames dispatched per bulk frame when both queues are non-empty.
DEFAULT_INTERACTIVE_WEIGHT = 4
#: Fallback retry hint carried in ``overloaded`` responses before the
#: scheduler has observed any bulk drain (the adaptive hint needs at least
#: two dispatched bulk frames to measure an interval).
DEFAULT_RETRY_AFTER_MS = 25
#: Clamp bounds for the adaptive retry hint derived from the measured
#: bulk-queue drain rate: never tell a client to hammer faster than 5 ms,
#: never park it longer than a second.
MIN_RETRY_AFTER_MS = 5
MAX_RETRY_AFTER_MS = 1000

logger = logging.getLogger(__name__)


class WireDispatcher:
    """Shared dispatch machinery: op lookup, ``hello`` negotiation, ``ping``.

    Concrete dispatchers (the server-engine :class:`RequestDispatcher`, the
    storage-node dispatcher) add ``_op_<name>`` handlers; ``hello``
    advertises exactly the operations this instance implements, so a client
    negotiating against a storage node does not believe it can
    ``insert_chunks`` there (and vice versa).
    """

    #: Per-connection flow-control window advertised in ``hello``.  Set by the
    #: owning transport (:class:`TimeCryptTCPServer`); ``None`` (the default,
    #: e.g. for in-process dispatch) advertises no credits.
    credit_window: Optional[int] = None

    #: Frame-compression schemes advertised in ``hello`` (set by the owning
    #: transport when ``wire_compression`` is enabled; ``None`` advertises
    #: none, so clients never send compressed frames to this dispatcher).
    wire_compression: Optional[List[str]] = None

    #: Whether this node records server-side spans for peers that offer the
    #: ``tracing`` capability in ``hello``.  Set by the owning transport;
    #: advertised back so clients know their trace context will be honoured.
    tracing: bool = False

    #: Span ring buffer served by ``trace_dump``.  Set by the owning
    #: transport; defaults to the process-global collector so in-process
    #: dispatchers dump something sensible too.
    span_collector: Optional[SpanCollector] = None

    #: Human-readable node identity stamped on spans and scrape responses
    #: (an engine-shard name, ``router``, a storage-node name).
    node_name: str = "node"

    def supported_operations(self) -> List[str]:
        """The wire operations this dispatcher actually implements."""
        return [op for op in OPERATIONS if hasattr(self, f"_op_{op}")]

    def dispatch(self, request: Request) -> Response:
        """Execute one request, translating library errors into error responses."""
        handler = getattr(self, f"_op_{request.operation}", None)
        if handler is None:
            return Response.failure(ProtocolError(f"unsupported operation '{request.operation}'"))
        try:
            return handler(request)
        except TimeCryptError as exc:
            return Response.failure(exc)
        except Exception as exc:  # noqa: BLE001 — dead air is worse than a broad catch
            # A non-library exception (malformed args hitting int(), a buggy
            # handler) must still answer the correlation id: an unanswered
            # request reads as a peer outage on the client side.
            return Response.failure(self._unexpected_error(exc))

    def _unexpected_error(self, exc: Exception) -> TimeCryptError:
        """Classify a non-TimeCryptError escaping a handler (overridable)."""
        return ProtocolError(f"request failed in dispatch: {type(exc).__name__}: {exc}")

    # -- negotiation ---------------------------------------------------------------

    def hello_extras(self) -> Dict:
        """Extra capability fields merged into the ``hello`` response.

        Overridden by dispatchers that advertise more than the op list — the
        sharded engine tier announces its routing table here, so clients
        learn stream placement during negotiation with no extra round trip.
        """
        return {}

    def _op_hello(self, _request: Request) -> Response:
        """Protocol negotiation: advertise the framing version and operations."""
        payload = {"protocol": PROTOCOL_VERSION, "operations": self.supported_operations()}
        if self.credit_window:
            payload["credits"] = int(self.credit_window)
        if self.wire_compression:
            payload["compression"] = list(self.wire_compression)
        if self.tracing:
            payload["tracing"] = True
        payload.update(self.hello_extras())
        return Response.success(payload)

    def _op_ping(self, _request: Request) -> Response:
        return Response.success({"pong": True})

    # -- observability scrape ops ---------------------------------------------------

    def _op_stats(self, _request: Request) -> Response:
        """One round trip pulls every registered metric source in this process.

        Metrics are leakage-aware by construction: counters describe request
        shapes (round trips, byte totals, queue depths, cache hits), never
        key material or plaintext.
        """
        return Response.success({"node": self.node_name, "metrics": REGISTRY.snapshot()})

    def _op_trace_dump(self, request: Request) -> Response:
        """Dump this node's span ring buffer (optionally one trace id)."""
        trace_id = request.args.get("trace_id")
        limit = request.args.get("limit")
        collector = self.span_collector if self.span_collector is not None else SPANS
        spans = collector.spans(
            trace_id=trace_id if isinstance(trace_id, str) else None,
            limit=int(limit) if isinstance(limit, int) and not isinstance(limit, bool) else None,
        )
        return Response.success({"node": self.node_name, "spans": spans})


class RequestDispatcher(WireDispatcher):
    """Maps protocol requests onto server-engine calls.

    Engine state (the stream registry, the index node cache, query stats) is
    not thread-safe, so engine-touching operations are serialised behind one
    lock: a single engine is deliberately serial, and scaling comes from
    running *several* engines behind the shard router
    (:mod:`repro.server.router`), not from intra-engine concurrency.
    ``hello``/``ping`` stay lock-free so negotiation and liveness probes are
    never queued behind a long-running query.
    """

    #: Operations dispatched without taking the engine lock.  The scrape ops
    #: read only the metrics registry and the span buffer (both internally
    #: locked), so an operator can always pull stats from a busy engine.
    _LOCK_FREE_OPS = frozenset({"hello", "ping", "stats", "trace_dump"})

    #: Ingest batches above this many chunks are applied in slices, with the
    #: engine lock released between slices, so one enormous ``insert_chunks``
    #: cannot park every interactive op for its full duration.  Typical
    #: batches (≤ the slice) take the single-acquisition fast path.
    DEFAULT_BULK_SLICE_CHUNKS = 64

    def __init__(self, engine: ServerEngine, bulk_slice_chunks: int = DEFAULT_BULK_SLICE_CHUNKS) -> None:
        self._engine = engine
        self._engine_lock = threading.Lock()
        self._bulk_slice_chunks = max(0, int(bulk_slice_chunks))

    def dispatch(self, request: Request) -> Response:
        if request.operation in self._LOCK_FREE_OPS:
            return super().dispatch(request)
        if (
            request.operation == "insert_chunks"
            and self._bulk_slice_chunks
            and len(request.attachments) > self._bulk_slice_chunks
        ):
            return self._dispatch_sliced_ingest(request)
        try:
            with self._engine_lock:
                return self._dispatch_engine(request)
        except TimeCryptError as exc:
            return Response.failure(exc)
        except Exception as exc:  # noqa: BLE001 — dead air is worse than a broad catch
            return Response.failure(self._unexpected_error(exc))

    def _dispatch_sliced_ingest(self, request: Request) -> Response:
        """A giant ingest batch, applied slice by slice through the normal path.

        Each slice is a full ``dispatch`` of a sub-request, so subclass
        checks (shard ownership, epoch redirects) and per-slice validation
        run unchanged, and interactive ops queued on the engine lock
        interleave between slices.  A batch that fails validation mid-way
        stops at the offending slice with earlier slices applied — the same
        partial-application contract a client splitting its own batches
        gets; the engine's consecutiveness check
        (:meth:`~repro.server.engine.ServerEngine.validate_chunk_batch`)
        makes the failure typed and precise.
        """
        size = self._bulk_slice_chunks
        total = len(request.attachments)
        first_window: Optional[int] = None
        for start in range(0, total, size):
            sub = Request(request.operation, dict(request.args), request.attachments[start : start + size])
            response = self.dispatch(sub)
            if not response.ok:
                return response
            if first_window is None:
                first_window = response.result.get("window_index")
        return Response.success({"window_index": first_window, "num_chunks": total})

    def _dispatch_engine(self, request: Request) -> Response:
        """One engine-touching request, already under the engine lock."""
        return super().dispatch(request)

    # -- stream lifecycle ----------------------------------------------------------

    def _op_create_stream(self, request: Request) -> Response:
        if not request.attachments:
            raise ProtocolError("create_stream requires a metadata attachment")
        metadata = _metadata_from_json(request.attachments[0])
        self._engine.create_stream(metadata)
        return Response.success({"uuid": metadata.uuid})

    def _op_delete_stream(self, request: Request) -> Response:
        self._engine.delete_stream(request.args["uuid"])
        return Response.success()

    def _op_stream_head(self, request: Request) -> Response:
        return Response.success({"head": self._engine.stream_head(request.args["uuid"])})

    def _op_stream_metadata(self, request: Request) -> Response:
        metadata = self._engine.stream_metadata(request.args["uuid"])
        return Response.success(attachments=[_metadata_to_json(metadata)])

    def _op_rollup_stream(self, request: Request) -> Response:
        deleted = self._engine.rollup_stream(
            request.args["uuid"],
            request.args["resolution_windows"],
            request.args.get("before_time"),
        )
        return Response.success({"deleted": deleted})

    # -- ingest / raw data ------------------------------------------------------------

    def _op_insert_chunk(self, request: Request) -> Response:
        if not request.attachments:
            raise ProtocolError("insert_chunk requires a chunk attachment")
        chunk = decode_encrypted_chunk(request.attachments[0])
        window_index = self._engine.insert_chunk(chunk)
        return Response.success({"window_index": window_index})

    def _op_insert_chunks(self, request: Request) -> Response:
        """Bulk ingest: one consecutive chunk batch per request (one attachment each)."""
        if not request.attachments:
            raise ProtocolError("insert_chunks requires at least one chunk attachment")
        chunks = [decode_encrypted_chunk(blob) for blob in request.attachments]
        window_index = self._engine.insert_chunks(chunks)
        return Response.success({"window_index": window_index, "num_chunks": len(chunks)})

    def _op_get_range(self, request: Request) -> Response:
        chunks = self._engine.get_range(
            request.args["uuid"], TimeRange(request.args["start"], request.args["end"])
        )
        return Response.success(
            {"num_chunks": len(chunks)},
            attachments=[encode_encrypted_chunk(chunk) for chunk in chunks],
        )

    def _op_delete_range(self, request: Request) -> Response:
        deleted = self._engine.delete_range(
            request.args["uuid"], TimeRange(request.args["start"], request.args["end"])
        )
        return Response.success({"deleted": deleted})

    # -- statistical queries ----------------------------------------------------------------

    @staticmethod
    def _result_to_json(result) -> Dict:
        return {
            "stream_uuid": result.stream_uuid,
            "window_start": result.window_start,
            "window_end": result.window_end,
            "cells": [
                {"value": cell.value, "start": cell.window_start, "end": cell.window_end}
                for cell in result.cells
            ],
            "component_names": list(result.component_names),
            "num_index_nodes": result.num_index_nodes,
        }

    def _op_stat_range(self, request: Request) -> Response:
        result = self._engine.stat_range(
            request.args["uuid"], TimeRange(request.args["start"], request.args["end"])
        )
        return Response.success({"stat": self._result_to_json(result)})

    def _op_stat_series(self, request: Request) -> Response:
        results = self._engine.stat_series(
            request.args["uuid"],
            TimeRange(request.args["start"], request.args["end"]),
            request.args["granularity_windows"],
        )
        return Response.success({"series": [self._result_to_json(result) for result in results]})

    def _op_stat_range_multi(self, request: Request) -> Response:
        aggregate = self._engine.stat_range_multi(
            request.args["uuids"], TimeRange(request.args["start"], request.args["end"])
        )
        return Response.success(
            {
                "values": list(aggregate.values),
                "component_names": list(aggregate.component_names),
                "per_stream_intervals": [list(item) for item in aggregate.per_stream_intervals],
            }
        )

    # -- grants / envelopes --------------------------------------------------------------------

    def _op_put_grant(self, request: Request) -> Response:
        if not request.attachments:
            raise ProtocolError("put_grant requires a sealed token attachment")
        # Copy-on-retain: sealed tokens are stored past this request's
        # lifetime, so they must own their bytes (attachments may be views
        # over the frame buffer on the zero-copy path).
        grant_id = self._engine.put_grant(
            request.args["uuid"], request.args["principal_id"], retain(request.attachments[0])
        )
        return Response.success({"grant_id": grant_id})

    def _op_put_grants(self, request: Request) -> Response:
        """Grant burst: many sealed tokens land in one storage ``multi_put``."""
        targets: List[Dict] = request.args["grants"]
        if len(targets) != len(request.attachments):
            raise ProtocolError("put_grants targets and attachments must align")
        grant_ids = self._engine.put_grants(
            [
                (target["uuid"], target["principal_id"], retain(sealed))
                for target, sealed in zip(targets, request.attachments)
            ]
        )
        return Response.success({"grant_ids": list(grant_ids)})

    def _op_fetch_grants(self, request: Request) -> Response:
        grants = self._engine.fetch_grants(request.args["uuid"], request.args["principal_id"])
        return Response.success({"num_grants": len(grants)}, attachments=list(grants))

    def _op_put_envelopes(self, request: Request) -> Response:
        windows: List[int] = request.args["windows"]
        if len(windows) != len(request.attachments):
            raise ProtocolError("envelope windows and attachments must align")
        self._engine.token_store.put_envelopes(
            request.args["uuid"],
            request.args["resolution_chunks"],
            dict(zip(windows, (retain(blob) for blob in request.attachments))),
        )
        return Response.success({"stored": len(windows)})

    def _op_fetch_envelopes(self, request: Request) -> Response:
        envelopes = self._engine.fetch_envelopes(
            request.args["uuid"],
            request.args["resolution_chunks"],
            request.args["window_start"],
            request.args["window_end"],
        )
        windows = sorted(envelopes)
        return Response.success(
            {"windows": windows}, attachments=[envelopes[window] for window in windows]
        )


@dataclass
class SchedulerStats:
    """Deterministic scheduler counters (exposed for benches and the CI gate).

    Everything here is workload-derived, not wall-clock-derived: enqueue and
    shed counts, queue-depth high-water marks, and the per-connection
    in-flight peak — so CI can diff them exactly against committed baselines.
    """

    enqueued_interactive: int = 0
    enqueued_bulk: int = 0
    dispatched_interactive: int = 0
    dispatched_bulk: int = 0
    shed_interactive: int = 0
    shed_bulk: int = 0
    max_depth_interactive: int = 0
    max_depth_bulk: int = 0
    #: Highest in-flight frame count observed on any single connection —
    #: a credit-respecting client keeps this at or below the advertised window.
    max_in_flight: int = 0
    #: Wire-memory counters, filled in by the owning transport: bytes on the
    #: wire each way, responses shipped through
    #: ``write_vectored``, small segments it merged, and responses sent in
    #: the negotiated compressed form.
    bytes_sent: int = 0
    bytes_received: int = 0
    vectored_writes: int = 0
    frames_coalesced: int = 0
    frames_compressed: int = 0

    def snapshot(self) -> Dict[str, int]:
        return asdict(self)


class _FrameScheduler:
    """Two bounded frame queues drained weighted-round-robin by the pool.

    ``submit`` is called on the I/O loop and never blocks: a frame either
    lands in its class queue or (queue at capacity) is refused, and the
    caller sheds it with a typed ``overloaded`` response.  Drain workers run
    on the shared ``ThreadPoolExecutor``; at most ``max_workers`` are active
    at once, and each yields its pool slot after ``yield_every`` frames so
    work queued behind it on the pool is never starved under sustained
    load.  When both queues are non-empty, ``interactive_weight``
    interactive frames are dispatched per bulk frame.
    """

    def __init__(
        self,
        pool: ThreadPoolExecutor,
        handler,
        max_workers: int,
        interactive_limit: int,
        bulk_limit: int,
        interactive_weight: int,
        yield_every: int = 16,
    ) -> None:
        self._pool = pool
        self._handler = handler
        self._max_workers = max_workers
        self._limits = {"interactive": int(interactive_limit), "bulk": int(bulk_limit)}
        self._queues: Dict[str, Deque[Tuple["_Connection", Frame, int]]] = {
            "interactive": deque(),
            "bulk": deque(),
        }
        self._weight = max(1, int(interactive_weight))
        self._yield_every = max(1, int(yield_every))
        self._lock = threading.Lock()
        self._active = 0
        self._interactive_run = 0
        # Bulk drain-rate tracking for the adaptive overload hint: an EWMA of
        # the interval between consecutive bulk dispatches.  Guarded by
        # ``_lock`` (updated inside ``_next_locked``).
        self._bulk_last_dispatch_ns = 0
        self._bulk_interval_ewma_ns = 0.0
        # repro: allow[REPRO005] registered by the owning TimeCryptTCPServer under server.scheduler[...] via its scheduler_stats() snapshot
        self.stats = SchedulerStats()

    def submit(
        self,
        connection: "_Connection",
        frame: Frame,
        klass: str,
        force: bool = False,
        enqueue_ns: int = 0,
    ) -> bool:
        """Enqueue a classified frame; False means the queue refused it (shed).

        ``force`` bypasses the capacity check — liveness ops (``hello``,
        ``ping``) are always admitted so saturation never reads as an outage.
        ``enqueue_ns`` rides the existing queue tuple through to the handler
        (it widens the tuple, no extra allocation); it is non-zero only when
        the connection negotiated tracing, so the queue-wait span field costs
        untraced frames nothing.
        """
        with self._lock:
            queue = self._queues[klass]
            if not force and len(queue) >= self._limits[klass]:
                if klass == "bulk":
                    self.stats.shed_bulk += 1
                else:
                    self.stats.shed_interactive += 1
                return False
            queue.append((connection, frame, enqueue_ns))
            depth = len(queue)
            if klass == "bulk":
                self.stats.enqueued_bulk += 1
                if depth > self.stats.max_depth_bulk:
                    self.stats.max_depth_bulk = depth
            else:
                self.stats.enqueued_interactive += 1
                if depth > self.stats.max_depth_interactive:
                    self.stats.max_depth_interactive = depth
            spawn = self._active < self._max_workers
            if spawn:
                self._active += 1
        if spawn:
            self._spawn()
        return True

    def note_in_flight(self, depth: int) -> None:
        with self._lock:
            if depth > self.stats.max_in_flight:
                self.stats.max_in_flight = depth

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return self.stats.snapshot()

    def _spawn(self) -> None:
        try:
            self._pool.submit(self._drain)
        except RuntimeError:
            # Pool already shut down: the server is stopping, abandon the slot.
            with self._lock:
                self._active -= 1

    def retry_hint_ms(self, klass: str, default: int) -> int:
        """Retry-after hint from the measured bulk drain rate.

        ``depth × EWMA(bulk inter-dispatch interval)`` estimates how long the
        queue needs to drain to where a retried frame would land, clamped to
        [``MIN_RETRY_AFTER_MS``, ``MAX_RETRY_AFTER_MS``].  Before two bulk
        frames have been dispatched there is no measured rate and the caller's
        ``default`` (the configured constant) is returned; interactive sheds
        also use the default — their queue is not the drain-limited one.
        """
        if klass != "bulk":
            return default
        with self._lock:
            ewma_ns = self._bulk_interval_ewma_ns
            depth = len(self._queues["bulk"])
        if ewma_ns <= 0.0:
            return default
        hint = max(1, depth) * ewma_ns / 1e6
        return int(min(max(hint, MIN_RETRY_AFTER_MS), MAX_RETRY_AFTER_MS))

    def _next_locked(self) -> Optional[Tuple["_Connection", Frame, int]]:
        interactive = self._queues["interactive"]
        bulk = self._queues["bulk"]
        if interactive and (self._interactive_run < self._weight or not bulk):
            self._interactive_run += 1
            self.stats.dispatched_interactive += 1
            return interactive.popleft()
        if bulk:
            self._interactive_run = 0
            self.stats.dispatched_bulk += 1
            now_ns = time.monotonic_ns()
            if self._bulk_last_dispatch_ns:
                interval = now_ns - self._bulk_last_dispatch_ns
                if self._bulk_interval_ewma_ns > 0.0:
                    self._bulk_interval_ewma_ns += 0.2 * (interval - self._bulk_interval_ewma_ns)
                else:
                    self._bulk_interval_ewma_ns = float(interval)
            self._bulk_last_dispatch_ns = now_ns
            return bulk.popleft()
        return None

    def _drain(self) -> None:
        processed = 0
        while True:
            with self._lock:
                item = self._next_locked()
                if item is None:
                    self._active -= 1
                    return
            try:
                self._handler(*item)
            except Exception:  # noqa: BLE001 — the handler answers its own errors
                pass
            processed += 1
            if processed >= self._yield_every:
                # Re-submit instead of looping forever: gives the pool slot
                # back to other queued work under sustained load.
                self._spawn()
                return


class _Connection:
    """Per-connection transport state: socket, parser, write lock, in-flight count."""

    def __init__(self, sock: socket.socket, address: Tuple[str, int]) -> None:
        self.sock = sock
        self.address = address
        self.assembler = FrameAssembler()
        #: Reusable receive staging buffer for ``recv_into`` — safe to reuse
        #: because the assembler copies into per-frame payload buffers.
        self.recv_buffer = bytearray(1 << 16)
        #: True once this peer's ``hello`` offered a compression scheme the
        #: transport also enables; responses over the threshold then go out
        #: compressed.
        self.accepts_compression = False
        #: True once this peer's ``hello`` offered the ``tracing`` capability
        #: and the transport has tracing enabled.  Every per-frame tracing
        #: cost (timestamps, span dicts) is gated on this flag, so untraced
        #: connections pay zero extra allocations per frame.
        self.tracing = False
        self.write_lock = threading.Lock()
        #: Frames accepted but not yet answered; guarded by ``state_lock``.
        self.in_flight = 0
        self.state_lock = threading.Lock()
        self.closed = False


class TimeCryptTCPServer:
    """A background TCP server: selector I/O loop + bounded dispatch pool.

    ``max_workers`` bounds concurrent request execution across *all*
    connections; accepting another client costs a selector registration,
    not a thread.  A custom ``dispatcher`` may be injected (tests use this
    to add slow or failing operations).

    Frames are admitted through a two-class weighted scheduler with
    bounded queues and credit-based flow control (see the module
    docstring); ``credit_window`` must be at least one.
    """

    def __init__(
        self,
        engine: Optional[ServerEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        dispatcher: Optional[WireDispatcher] = None,
        credit_window: int = DEFAULT_CREDIT_WINDOW,
        interactive_queue_limit: int = DEFAULT_INTERACTIVE_QUEUE_LIMIT,
        bulk_queue_limit: int = DEFAULT_BULK_QUEUE_LIMIT,
        interactive_weight: int = DEFAULT_INTERACTIVE_WEIGHT,
        retry_after_ms: int = DEFAULT_RETRY_AFTER_MS,
        wire_compression: bool = False,
        compress_threshold: int = WIRE_COMPRESSION_THRESHOLD,
        tracing: bool = True,
        node_name: Optional[str] = None,
        span_collector: Optional[SpanCollector] = None,
        slow_request_ms: Optional[float] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("the dispatch pool needs at least one worker")
        if dispatcher is None and engine is None:
            raise ValueError("either an engine or a dispatcher is required")
        if credit_window < 1:
            raise ValueError("the credit window needs at least one credit")
        self._engine = engine
        self._dispatcher = dispatcher if dispatcher is not None else RequestDispatcher(engine)
        self._credit_window = int(credit_window)
        self._dispatcher.credit_window = self._credit_window
        self._retry_after_ms = max(1, int(retry_after_ms))
        #: Tracing support: spans are recorded only for connections whose
        #: ``hello`` offered the capability, so ``tracing=True`` costs nothing
        #: until a client opts in.  ``tracing=False`` refuses the capability
        #: outright (the hot path then never checks a clock).
        self._tracing = bool(tracing)
        self._spans = span_collector if span_collector is not None else SPANS
        self._slow_request_ms = slow_request_ms
        self._wire_compression = bool(wire_compression)
        self._compress_threshold = max(1, int(compress_threshold))
        self._dispatcher.wire_compression = (
            list(WIRE_COMPRESSION_SCHEMES) if self._wire_compression else None
        )
        # Transport-level wire counters, merged into scheduler_stats().
        self._wire_lock = threading.Lock()
        self._wire_counters = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "vectored_writes": 0,
            "frames_coalesced": 0,
            "frames_compressed": 0,
        }
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.setblocking(True)
        self._node_name = node_name or f"server:{self._listener.getsockname()[1]}"
        self._dispatcher.tracing = self._tracing
        self._dispatcher.span_collector = self._spans
        self._dispatcher.node_name = self._node_name
        # Register this server's scheduler/wire counters into the unified
        # metrics plane (weakly — a stopped, dropped server unregisters
        # itself), so a single `stats` scrape covers every live server.
        self._metrics_key = REGISTRY.register(
            f"server.scheduler[{self._node_name}]",
            self,
            snapshot=lambda server: server.scheduler_stats(),
        )
        self._selector = selectors.DefaultSelector()
        self._pool = ThreadPoolExecutor(max_workers=max_workers, thread_name_prefix="tc-dispatch")
        # Shed replies must not queue behind the saturated dispatch pool — a
        # dedicated writer keeps the backpressure signal prompt under overload.
        self._shed_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="tc-shed")
        self._scheduler = _FrameScheduler(
            self._pool,
            self._handle_frame,
            max_workers=max_workers,
            interactive_limit=interactive_queue_limit,
            bulk_limit=bulk_queue_limit,
            interactive_weight=interactive_weight,
        )
        self._connections: Set[_Connection] = set()
        self._doomed: Deque[_Connection] = deque()
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._running = False
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()

    @property
    def dispatcher(self) -> WireDispatcher:
        return self._dispatcher

    @property
    def credit_window(self) -> int:
        return self._credit_window

    def scheduler_stats(self) -> Dict[str, int]:
        """A snapshot of the scheduler's deterministic counters.

        The wire-memory counters (``bytes_sent``/``bytes_received``,
        ``vectored_writes``, ``frames_coalesced``, ``frames_compressed``)
        are merged in from the transport.
        """
        snapshot = self._scheduler.snapshot()
        with self._wire_lock:
            snapshot.update(self._wire_counters)
        return snapshot

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "TimeCryptTCPServer":
        self._running = True
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wakeup_recv, selectors.EVENT_READ, "wakeup")
        self._thread = threading.Thread(target=self._serve_loop, daemon=True, name="tc-io-loop")
        self._thread.start()
        return self

    def stop(self) -> None:
        REGISTRY.unregister(self._metrics_key)
        self._running = False
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._pool.shutdown(wait=True)
        self._shed_pool.shutdown(wait=True)
        for handle in (self._wakeup_recv, self._wakeup_send, self._listener):
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "TimeCryptTCPServer":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()

    def _wake(self) -> None:
        try:
            self._wakeup_send.send(b"\x00")
        except OSError:
            pass

    # -- I/O loop --------------------------------------------------------------------

    def _serve_loop(self) -> None:  # pragma: no cover - exercised via integration tests
        try:
            while self._running:
                events = self._selector.select(timeout=1.0)
                for key, _mask in events:
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wakeup":
                        self._drain_wakeup()
                    else:
                        self._service(key.data)
                self._reap_doomed()
        finally:
            for connection in list(self._connections):
                self._close_connection(connection, unregister=True)
            try:
                self._selector.unregister(self._listener)
                self._selector.unregister(self._wakeup_recv)
            except (KeyError, OSError, ValueError):
                pass
            self._selector.close()

    def _accept(self) -> None:
        try:
            sock, address = self._listener.accept()
        except OSError:
            return
        sock.setblocking(True)
        connection = _Connection(sock, address)
        self._connections.add(connection)
        self._selector.register(sock, selectors.EVENT_READ, connection)

    def _drain_wakeup(self) -> None:
        try:
            while self._wakeup_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _service(self, connection: _Connection) -> None:
        """One readable socket: pull bytes, dispatch every completed frame.

        Bytes land in the connection's reusable staging buffer via
        ``recv_into`` (no per-read allocation); the assembler copies them
        into per-frame payload buffers, so reusing the staging buffer on the
        next read is safe even while decoded views are still held.
        """
        try:
            received = connection.sock.recv_into(connection.recv_buffer)
        except OSError:
            received = 0
        if not received:
            self._close_connection(connection, unregister=True)
            return
        with self._wire_lock:
            self._wire_counters["bytes_received"] += received
        try:
            frames = connection.assembler.feed(memoryview(connection.recv_buffer)[:received])
        except ProtocolError:
            # Unrecognizable bytes: the stream cannot be re-synchronised.
            self._close_connection(connection, unregister=True)
            return
        for frame in frames:
            self._admit(connection, frame)

    def _admit(self, connection: _Connection, frame: Frame) -> None:
        """Classify and enqueue a frame; shed it (typed) if its queue is full."""
        operation = peek_operation(frame.payload)
        klass = classify_operation(operation)
        with connection.state_lock:
            connection.in_flight += 1
            depth = connection.in_flight
        self._scheduler.note_in_flight(depth)
        # Tracing-gated: untraced connections never read the clock here.
        enqueue_ns = time.monotonic_ns() if connection.tracing else 0
        # hello/ping bypass the caps: liveness must never read as an outage.
        if not self._scheduler.submit(
            connection, frame, klass, force=operation in ("hello", "ping"), enqueue_ns=enqueue_ns
        ):
            try:
                self._shed_pool.submit(self._shed_frame, connection, frame, klass)
            except RuntimeError:
                pass  # server stopping; the connection is about to close anyway

    def _reap_doomed(self) -> None:
        """Unregister connections a worker thread asked to close."""
        while True:
            try:
                connection = self._doomed.popleft()
            except IndexError:
                return
            self._close_connection(connection, unregister=True)

    def _close_connection(self, connection: _Connection, unregister: bool) -> None:
        with connection.state_lock:
            if connection.closed:
                already_closed = True
            else:
                connection.closed = True
                already_closed = False
        if unregister:
            try:
                self._selector.unregister(connection.sock)
            except (KeyError, OSError, ValueError):
                pass
        if already_closed:
            return
        self._connections.discard(connection)
        # shutdown() promptly errors out any worker blocked mid-sendall (it
        # does not release the fd, so there is no reuse hazard); only then
        # close() under the write lock, so the fd number can never be
        # recycled into a new connection while a worker is still writing.
        try:
            connection.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with connection.write_lock:
            try:
                connection.sock.close()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------------------

    def _handle_frame(self, connection: _Connection, frame: Frame, enqueue_ns: int = 0) -> None:
        # Everything tracing-related below is gated on the per-connection
        # negotiation flag: with tracing off this method allocates nothing
        # beyond the pre-tracing baseline.
        traced = connection.tracing
        start_ns = time.monotonic_ns() if traced else 0
        span: Optional[Dict[str, Any]] = None
        try:
            request = Request.decode(frame.payload)
            if request.operation == "hello":
                self._note_hello(connection, request)
            if traced and request.trace is not None:
                span = self._start_span(request, frame, enqueue_ns, start_ns)
                previous = set_context((span["trace_id"], span["span_id"]))
                try:
                    response = self._dispatcher.dispatch(request)
                finally:
                    set_context(previous)
            else:
                response = self._dispatcher.dispatch(request)
        except TimeCryptError as exc:
            response = Response.failure(exc)
        except Exception as exc:  # noqa: BLE001 — a worker must never die unanswered
            # Anything a hostile or buggy peer can make decode/dispatch
            # raise must still answer the correlation id.
            response = Response.failure(
                ProtocolError(f"malformed request: {type(exc).__name__}: {exc}")
            )
        handler_end_ns = time.monotonic_ns() if span is not None else 0
        self._write_response(connection, frame, response)
        if span is not None:
            self._finish_span(span, response, start_ns, handler_end_ns)

    def _start_span(
        self, request: Request, frame: Frame, enqueue_ns: int, start_ns: int
    ) -> Dict[str, Any]:
        """A server-side span for a traced request, timing fields pending.

        Leakage stance: the span records only what the server already sees —
        the operation name, the scheduler class, byte sizes, and timings.
        Never query arguments, keys, or attachment contents.
        """
        trace_id, parent_id = request.trace  # type: ignore[misc]
        return {
            "trace_id": trace_id,
            "span_id": new_span_id(),
            "parent_id": parent_id,
            "node": self._node_name,
            "kind": "server",
            "op": request.operation,
            "class": classify_operation(request.operation),
            "queue_ms": (start_ns - enqueue_ns) / 1e6 if enqueue_ns else 0.0,
            "request_bytes": len(frame.payload),
        }

    def _finish_span(
        self, span: Dict[str, Any], response: Response, start_ns: int, handler_end_ns: int
    ) -> None:
        end_ns = time.monotonic_ns()
        span["handler_ms"] = (handler_end_ns - start_ns) / 1e6
        span["write_ms"] = (end_ns - handler_end_ns) / 1e6
        span["total_ms"] = span["queue_ms"] + (end_ns - start_ns) / 1e6
        span["status"] = "ok" if response.ok else (response.error_type or "error")
        span["response_bytes"] = sum(len(blob) for blob in response.attachments)
        self._spans.record(span)
        if self._slow_request_ms is not None and span["total_ms"] >= self._slow_request_ms:
            logger.warning(
                "slow request on %s: op=%s trace=%s queue_ms=%.1f handler_ms=%.1f total_ms=%.1f",
                self._node_name,
                span["op"],
                span["trace_id"],
                span["queue_ms"],
                span["handler_ms"],
                span["total_ms"],
            )

    def _note_hello(self, connection: _Connection, request: Request) -> None:
        """Record the peer's capability offers (transport-level negotiation).

        Compression and tracing are each on only when *both* ends opt in: the
        transport enables the capability *and* this peer's ``hello`` offers
        it.  Clients that never offer get byte-identical uncompressed,
        untraced responses.
        """
        if self._tracing and request.args.get("tracing") is True:
            connection.tracing = True
        if not self._wire_compression:
            return
        offered = request.args.get("compression")
        if isinstance(offered, (list, tuple)) and any(
            scheme in WIRE_COMPRESSION_SCHEMES for scheme in offered
        ):
            connection.accepts_compression = True

    def _shed_frame(self, connection: _Connection, frame: Frame, klass: str) -> None:
        """Answer a refused frame with a typed ``overloaded`` (never dead air).

        The retry hint is adaptive: it reflects the measured bulk drain rate
        (queue depth × EWMA inter-dispatch interval) rather than the static
        ``retry_after_ms`` constant, which only serves as the fallback before
        the scheduler has observed a drain interval.
        """
        retry_after_ms = self._scheduler.retry_hint_ms(klass, default=self._retry_after_ms)
        error = OverloadedError(
            f"server overloaded: the {klass} queue is full", retry_after_ms=retry_after_ms
        )
        response = Response.failure(error)
        response.result = {"retry_after_ms": retry_after_ms, "queue": klass}
        self._write_response(connection, frame, response)

    def _write_response(self, connection: _Connection, frame: Frame, response: Response) -> None:
        # One credit back per answered frame: the sum of grants a client ever
        # sees equals the frames the server accepted, so the window is
        # conserved.
        response.credit_grant = 1
        try:
            encoded = self._encode_response(connection, frame, response)
        except TimeCryptError as exc:
            # An unencodable response (e.g. attachments past the frame cap)
            # must still answer the correlation id — swallowing it here
            # would leave the client staring at dead air until its timeout,
            # which a storage client reads as a node outage.
            fallback = Response.failure(exc)
            fallback.credit_grant = response.credit_grant
            encoded = self._encode_response(connection, frame, fallback)
        with connection.state_lock:
            if connection.in_flight > 0:
                connection.in_flight -= 1
        try:
            with connection.write_lock:
                if connection.closed:
                    return
                # repro: allow[REPRO004] write_lock is the per-connection response serializer; holding it across the socket write is its entire purpose
                _syscalls, sent, coalesced = write_vectored(connection.sock, encoded)
        except OSError:
            # The I/O loop owns selector state; hand the corpse over.
            self._doomed.append(connection)
            self._wake()
            return
        with self._wire_lock:
            self._wire_counters["bytes_sent"] += sent
            self._wire_counters["vectored_writes"] += 1
            self._wire_counters["frames_coalesced"] += coalesced

    def _encode_response(self, connection: _Connection, frame: Frame, response: Response) -> List:
        """The response's wire form: ``[frame_header, message_header, *attachment_views]``.

        Attachments are never concatenated, so a 32 MiB ``get_range``
        response costs no user-space copy on the way out.
        """
        segments = response.encode_segments()
        if connection.accepts_compression:
            segments, compressed = maybe_compress_segments(segments, self._compress_threshold)
            if compressed:
                with self._wire_lock:
                    self._wire_counters["frames_compressed"] += 1
        return encode_frame_segments_v2(frame.correlation_id, segments)
