"""Request/response messages of the TimeCrypt wire protocol.

The protocol mirrors the server engine's API surface: stream lifecycle,
chunk ingest (scalar and bulk), raw range retrieval, statistical queries
(single and multi-stream), grant/envelope pickup (scalar and burst), and
rollup.  A second op family (``kv_*``) carries the raw key-value store
contract for remote storage nodes, so the same framing/pipelining serves
both the engine tier and the storage tier.  ``hello`` negotiates
capabilities: the server answers with its protocol version, credit window
and the operations its dispatcher supports, so clients can use the
``multi_*``-style batch ops without probing.  Messages are encoded as a
JSON header object plus optional binary attachments:

``frame = varint(header_len) || header_json || attachments``

Binary payloads (encrypted chunks, sealed tokens) travel as attachments so
they are never base64-inflated; the header references them by index and
length.  This keeps the format debuggable (the header is readable JSON, as a
protobuf text dump would be) while staying compact where it matters.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ProtocolError
from repro.net.framing import MAX_FRAME_BYTES, MEMORY_COUNTERS
from repro.util.encoding import decode_varint, encode_varint

Buffer = Union[bytes, bytearray, memoryview]

#: The storage-node op family: the raw :class:`~repro.storage.kv.KeyValueStore`
#: contract carried over the same framing.  Keys and values are opaque byte
#: strings, so they always travel as attachments, never inside the JSON
#: header.  ``kv_scan_page`` is the wire shape of ``scan_prefix``: prefix
#: scans are paged with an exclusive ``after`` cursor so a remote client can
#: stream an arbitrarily large keyspace without ever materializing it (or
#: hitting the frame cap).  ``kv_scan_prefix`` and ``kv_delete_prefix`` are
#: the scan-offload ops: the node walks its own keyspace (optionally
#: key-range-filtered) and ships only matching items — or just a deletion
#: count — so bulk erase and recovery stop paging the keyspace through the
#: engine one ``kv_scan_page`` at a time.
KV_OPERATIONS = (
    "kv_get",
    "kv_put",
    "kv_delete",
    "kv_multi_get",
    "kv_multi_put",
    "kv_multi_delete",
    "kv_scan_page",
    "kv_scan_prefix",
    "kv_delete_prefix",
    "kv_size_bytes",
)

#: Operation names accepted by the server dispatchers (engine + storage node).
OPERATIONS = (
    "hello",
    "create_stream",
    "delete_stream",
    "insert_chunk",
    "insert_chunks",
    "get_range",
    "delete_range",
    "stat_range",
    "stat_range_multi",
    "stat_series",
    "rollup_stream",
    "stream_head",
    "stream_metadata",
    "put_grant",
    "put_grants",
    "fetch_grants",
    "fetch_envelopes",
    "put_envelopes",
    "routing_table",
    "ping",
    # Observability scrape ops, answered locally by every tier's dispatcher:
    # `stats` returns the process metrics-registry snapshot, `trace_dump` the
    # node's span ring buffer.  Deliberately absent from BULK_OPERATIONS so an
    # operator can scrape a node that is drowning in bulk traffic.
    "stats",
    "trace_dump",
) + KV_OPERATIONS

#: Operations that move bulk payloads (ingest batches, grant bursts, prefix
#: deletes, repair scans).  Everything else — small stats, metadata, grant
#: pickup, liveness — is interactive.  The server's two-class scheduler
#: drains the classes from separate bounded queues so a small ``stat_range``
#: never waits behind a whole ingest burst; ``kv_multi_get`` stays
#: interactive because query fetches (index covers, chunk reads) ride on it
#: and are byte-capped.
BULK_OPERATIONS = frozenset(
    {
        "insert_chunk",
        "insert_chunks",
        "delete_stream",
        "delete_range",
        "rollup_stream",
        "put_grants",
        "put_envelopes",
        "kv_multi_put",
        "kv_multi_delete",
        "kv_scan_page",
        "kv_scan_prefix",
        "kv_delete_prefix",
    }
)


#: The complement of :data:`BULK_OPERATIONS`, spelled out so the scheduler
#: classification is a checked partition rather than an implicit default:
#: the static analyzer (REPRO003) verifies ``BULK_OPERATIONS`` and
#: ``INTERACTIVE_OPERATIONS`` are disjoint and together cover every name in
#: ``OPERATIONS``, so adding an op without deciding its class is an error.
INTERACTIVE_OPERATIONS = frozenset(
    {
        "hello",
        "create_stream",
        "get_range",
        "stat_range",
        "stat_range_multi",
        "stat_series",
        "stream_head",
        "stream_metadata",
        "put_grant",
        "fetch_grants",
        "fetch_envelopes",
        "routing_table",
        "ping",
        "stats",
        "trace_dump",
        "kv_get",
        "kv_put",
        "kv_delete",
        "kv_multi_get",
        "kv_size_bytes",
    }
)


def classify_operation(operation: Optional[str]) -> str:
    """``"bulk"`` or ``"interactive"`` — the scheduler class of an operation.

    Unknown or unparseable operations classify interactive so they reach the
    dispatcher, which answers them with the proper typed error.
    """
    return "bulk" if operation in BULK_OPERATIONS else "interactive"


#: The one compression scheme currently negotiated in ``hello``.  A
#: compressed message travels as ``varint(0) || varint(raw_len) ||
#: zlib(encoded_message)`` — a real message's JSON header is never empty, so
#: a zero ``header_len`` is an unambiguous sentinel and needs no frame-level
#: flag.  Off by default: chunk ciphertext is incompressible; the win is
#: JSON-heavy headers, grant bursts, and ``kv`` scan pages of plaintext
#: metadata.
WIRE_COMPRESSION_SCHEMES = ("zlib",)

#: Messages below this size are never compressed — the zlib header plus the
#: CPU round trip outweighs any saving on small frames.
WIRE_COMPRESSION_THRESHOLD = 4096

#: ``peek_operation`` decompresses at most this much output looking for the
#: header of a compressed request, so a hostile frame cannot force a large
#: decompression on the server's I/O loop.
_PEEK_DECOMPRESS_LIMIT = 64 * 1024


def peek_operation(payload: Buffer) -> Optional[str]:
    """The operation name of an encoded request, without decoding attachments.

    The server's I/O loop classifies every frame before enqueueing it, so
    this parses only the varint-prefixed JSON header — bounded by the actual
    payload size before any slice or ``json.loads``, so a forged
    multi-gigabyte ``header_len`` classifies as ``None`` instead of driving a
    pathological allocation.  Compressed messages get a bounded incremental
    decompression (at most 64 KiB of output) to reach the header.
    """
    try:
        header_len, pos = decode_varint(payload, 0)
        if header_len == 0:
            raw_len, pos = decode_varint(payload, pos)
            if not 0 < raw_len <= MAX_FRAME_BYTES:
                return None
            head = zlib.decompressobj().decompress(
                bytes(payload[pos:]), min(raw_len, _PEEK_DECOMPRESS_LIMIT)
            )
            header_len, pos = decode_varint(head, 0)
            if header_len == 0 or header_len > len(head) - pos:
                return None
            payload = head
        if header_len > len(payload) - pos:
            return None
        header = json.loads(bytes(payload[pos : pos + header_len]).decode("utf-8"))
        operation = header.get("op")
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError, zlib.error):
        return None
    return operation if isinstance(operation, str) else None


def encode_message_segments(
    header: Dict[str, Any], attachments: Sequence[Buffer]
) -> List[Buffer]:
    """Encode a message as ``[varint(len) + header_json, *attachments]``.

    Attachments pass through by reference — nothing is concatenated.  Feed
    the result to :func:`repro.net.framing.encode_frame_segments_v2` and
    :func:`repro.net.framing.write_vectored` for a copy-free send path.
    """
    header = dict(header)
    header["attachment_lengths"] = [len(blob) for blob in attachments]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return [encode_varint(len(header_bytes)) + header_bytes, *attachments]


def compress_message(payload: Buffer, level: int = 6) -> bytes:
    """Wrap an encoded message in the compressed-sentinel wire form."""
    raw_len = len(payload)
    return b"\x00" + encode_varint(raw_len) + zlib.compress(bytes(payload), level)


def maybe_compress_segments(
    segments: Sequence[Buffer], threshold: int = WIRE_COMPRESSION_THRESHOLD
) -> Tuple[List[Buffer], bool]:
    """Compress a segment list into one segment if it crosses ``threshold``.

    Returns ``(segments, compressed)``; below the threshold the input passes
    through untouched.  Only call this after both peers negotiated
    compression in ``hello``.
    """
    total = sum(len(segment) for segment in segments)
    if total < threshold:
        return list(segments), False
    return [compress_message(b"".join(segments))], True


def _decompress_message(payload: Buffer, pos: int) -> bytes:
    """Expand the compressed-sentinel form back to a raw encoded message."""
    raw_len, pos = decode_varint(payload, pos)
    if raw_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"compressed message declares {raw_len} raw bytes, above the frame cap")
    if raw_len == 0:
        # zlib reads a zero output limit as "unbounded": refuse it before
        # a hostile frame can inflate past the cap.
        raise ProtocolError("compressed message declares an empty body")
    decompressor = zlib.decompressobj()
    try:
        raw = decompressor.decompress(bytes(payload[pos:]), raw_len)
    except zlib.error as exc:
        raise ProtocolError("malformed compressed message") from exc
    if len(raw) != raw_len or decompressor.unconsumed_tail or not decompressor.eof:
        raise ProtocolError("compressed message does not match its declared length")
    return raw


def _decode_message(payload: Buffer) -> tuple[Dict[str, Any], List[Buffer]]:
    """Decode ``varint(header_len) || header_json || attachments``.

    When ``payload`` is a memoryview over a dedicated frame buffer, the
    attachments come back as sub-views — no copies.  Anything that keeps an
    attachment beyond the request's lifetime must go through
    :func:`retain`.  Header lengths and attachment lengths are bounds-checked
    against the actual payload before any allocation happens.
    """
    try:
        header_len, pos = decode_varint(payload, 0)
        if header_len == 0:
            # Compressed sentinel — expand (a copy, inherent to the scheme)
            # and decode the raw bytes, which must not be compressed again.
            payload = _decompress_message(payload, pos)
            header_len, pos = decode_varint(payload, 0)
            if header_len == 0:
                raise ProtocolError("compressed message nests another compressed message")
        if header_len > len(payload) - pos:
            raise ProtocolError(f"header length {header_len} exceeds the {len(payload)}-byte payload")
        header = json.loads(bytes(payload[pos : pos + header_len]).decode("utf-8"))
        if not isinstance(header, dict):
            raise ProtocolError(f"message header must be a JSON object, not {type(header).__name__}")
        pos += header_len
        lengths = header.get("attachment_lengths", [])
        if not isinstance(lengths, list):
            raise ProtocolError("attachment_lengths must be a list")
        attachments: List[Buffer] = []
        copied = False
        for length in lengths:
            if not isinstance(length, int) or isinstance(length, bool) or length < 0:
                raise ProtocolError(f"invalid attachment length {length!r}")
            if length > len(payload) - pos:
                raise ProtocolError("truncated attachment")
            attachments.append(payload[pos : pos + length])
            if length and not isinstance(payload, memoryview):
                copied = True
            pos += length
        if copied:
            MEMORY_COUNTERS.payload_copies += 1
        return header, attachments
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ProtocolError("malformed protocol message") from exc


def retain(blob: Buffer) -> bytes:
    """Materialize an attachment that outlives its request.

    Zero-copy decode hands out memoryviews over the frame buffer; any code
    that *stores* an attachment (kv values, sealed tokens, envelopes) or
    keys a dict on it must own real bytes.  Every such boundary calls this —
    it is the explicit copy-on-retain audit point.
    """
    if isinstance(blob, bytes):
        return blob
    return bytes(blob)


@dataclass
class Request:
    """A client request: operation name, JSON-safe arguments, binary attachments."""

    operation: str
    args: Dict[str, Any] = field(default_factory=dict)
    attachments: List[Buffer] = field(default_factory=list)
    #: Optional trace context ``(trace_id, parent_span_id)``.  Serialized as a
    #: ``trace`` header key only when set, so untraced requests are
    #: byte-identical to the pre-tracing wire form; servers that did not
    #: negotiate ``tracing`` in ``hello`` ignore the key (``decode``
    #: tolerates unknown header keys by construction).
    trace: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if self.operation not in OPERATIONS:
            raise ProtocolError(f"unknown operation '{self.operation}'")

    def _header(self) -> Dict[str, Any]:
        header: Dict[str, Any] = {"op": self.operation, "args": self.args}
        if self.trace is not None:
            header["trace"] = [self.trace[0], self.trace[1]]
        return header

    def encode(self) -> bytes:
        """The whole message as one buffer — the reference form of :meth:`encode_segments`."""
        return b"".join(self.encode_segments())

    def encode_segments(self) -> List[Buffer]:
        """Segment form for the vectored send path — attachments uncopied."""
        return encode_message_segments(self._header(), self.attachments)

    @staticmethod
    def decode(payload: Buffer) -> "Request":
        header, attachments = _decode_message(payload)
        if "op" not in header:
            raise ProtocolError("request missing operation")
        args = header.get("args", {})
        if not isinstance(args, dict):
            raise ProtocolError("request args must be a JSON object")
        trace = header.get("trace")
        if (
            not isinstance(trace, list)
            or len(trace) != 2
            or not all(isinstance(part, str) for part in trace)
        ):
            trace = None
        return Request(
            operation=header["op"],
            args=args,
            attachments=attachments,
            trace=(trace[0], trace[1]) if trace is not None else None,
        )


@dataclass
class Response:
    """A server response: success flag, JSON-safe result, binary attachments."""

    ok: bool
    result: Dict[str, Any] = field(default_factory=dict)
    attachments: List[Buffer] = field(default_factory=list)
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: Flow-control credits returned to the sender with this response: the
    #: server piggybacks one grant per answered frame here, refilling the
    #: credit window it advertised in ``hello``.
    credit_grant: Optional[int] = None

    def _header(self) -> Dict[str, Any]:
        header: Dict[str, Any] = {"ok": self.ok, "result": self.result}
        if self.error is not None:
            header["error"] = self.error
            header["error_type"] = self.error_type or "TimeCryptError"
        if self.credit_grant:
            header["credits"] = int(self.credit_grant)
        return header

    def encode(self) -> bytes:
        """The whole message as one buffer — the reference form of :meth:`encode_segments`."""
        return b"".join(self.encode_segments())

    def encode_segments(self) -> List[Buffer]:
        """Segment form for the vectored send path — attachments uncopied."""
        return encode_message_segments(self._header(), self.attachments)

    @staticmethod
    def decode(payload: Buffer) -> "Response":
        header, attachments = _decode_message(payload)
        result = header.get("result", {})
        error, error_type = header.get("error"), header.get("error_type")
        if not isinstance(result, dict):
            raise ProtocolError("response result must be a JSON object")
        if not all(field is None or isinstance(field, str) for field in (error, error_type)):
            raise ProtocolError("response error fields must be strings")
        credits = header.get("credits")
        return Response(
            ok=bool(header.get("ok", False)),
            result=result,
            attachments=attachments,
            error=error,
            error_type=error_type,
            credit_grant=int(credits) if isinstance(credits, int) and credits > 0 else None,
        )

    @staticmethod
    def success(result: Optional[Dict[str, Any]] = None, attachments: Optional[List[bytes]] = None) -> "Response":
        return Response(ok=True, result=result or {}, attachments=attachments or [])

    @staticmethod
    def failure(error: Exception) -> "Response":
        return Response(ok=False, error=str(error), error_type=type(error).__name__)


class ShardRoutingTable:
    """The engine-shard routing capability advertised in ``hello``.

    Streams are sharded across engine processes by consistent-hashing the
    stream uuid onto the named engines (the same
    :class:`~repro.storage.partitioner.ConsistentHashRing` machinery the
    storage tier places keys with), so client and server agree on ownership
    by construction — the table is just ``(name, host, port)`` triples plus
    an ``epoch`` that increases on every membership change.  A client that
    learned the table at ``hello`` routes stream ops straight to the owner
    with no router hop; a client holding a stale epoch gets a typed
    ``wrong_shard`` redirect carrying the answering engine's epoch and
    refreshes.  Tables are immutable: membership changes produce a *new*
    table (epoch + 1), so concurrent readers never observe a half-updated
    topology.
    """

    def __init__(
        self,
        engines: Any = (),
        epoch: int = 0,
        virtual_tokens: int = 64,
    ) -> None:
        self._engines: Dict[str, tuple[str, int]] = {}
        for name, host, port in engines:
            if name in self._engines:
                raise ProtocolError(f"duplicate engine shard '{name}' in routing table")
            self._engines[str(name)] = (str(host), int(port))
        self._epoch = int(epoch)
        self._virtual_tokens = int(virtual_tokens)
        self._ring: Optional[Any] = None

    # -- introspection ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def virtual_tokens(self) -> int:
        return self._virtual_tokens

    @property
    def engine_names(self) -> List[str]:
        return sorted(self._engines)

    def __len__(self) -> int:
        return len(self._engines)

    def address_of(self, name: str) -> tuple[str, int]:
        try:
            return self._engines[name]
        except KeyError:
            raise ProtocolError(f"unknown engine shard '{name}'") from None

    def owner_of(self, stream_uuid: str) -> str:
        """The engine shard owning ``stream_uuid`` under this table."""
        if not self._engines:
            raise ProtocolError("the routing table has no engine shards")
        if self._ring is None:
            # Deferred import: messages is the bottom of the net layer and
            # the ring only pulls in repro.exceptions, so this cannot cycle —
            # but tables are decoded far more often than they place streams.
            from repro.storage.partitioner import ConsistentHashRing

            self._ring = ConsistentHashRing(sorted(self._engines), virtual_tokens=self._virtual_tokens)
        return self._ring.primary(stream_uuid.encode("utf-8"))

    # -- evolution (immutable: each change returns a new table, epoch + 1) -----

    def _entries(self) -> List[tuple[str, str, int]]:
        return [(name, host, port) for name, (host, port) in sorted(self._engines.items())]

    def with_engines(self, engines: Any, epoch: Optional[int] = None) -> "ShardRoutingTable":
        """A new table with this membership replaced (epoch bumped)."""
        return ShardRoutingTable(
            engines,
            epoch=self._epoch + 1 if epoch is None else epoch,
            virtual_tokens=self._virtual_tokens,
        )

    def with_engine(self, name: str, host: str, port: int) -> "ShardRoutingTable":
        if name in self._engines:
            raise ProtocolError(f"engine shard '{name}' already in the routing table")
        return self.with_engines(self._entries() + [(name, host, port)])

    def without_engine(self, name: str) -> "ShardRoutingTable":
        if name not in self._engines:
            raise ProtocolError(f"unknown engine shard '{name}'")
        return self.with_engines([entry for entry in self._entries() if entry[0] != name])

    # -- wire form -------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form carried in ``hello`` and ``routing_table`` responses."""
        return {
            "epoch": self._epoch,
            "virtual_tokens": self._virtual_tokens,
            "engines": [
                {"name": name, "host": host, "port": port}
                for name, host, port in self._entries()
            ],
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "ShardRoutingTable":
        try:
            return ShardRoutingTable(
                engines=[
                    (entry["name"], entry["host"], int(entry["port"]))
                    for entry in payload.get("engines", [])
                ],
                epoch=int(payload.get("epoch", 0)),
                virtual_tokens=int(payload.get("virtual_tokens", 64)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed routing-table payload: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRoutingTable(epoch={self._epoch}, engines={self.engine_names})"
