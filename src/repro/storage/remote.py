"""A KeyValueStore client for a remote :class:`StorageNodeServer`.

:class:`RemoteKeyValueStore` implements the full
:class:`~repro.storage.kv.KeyValueStore` contract over the pipelined
wire protocol (the ``kv_*`` op family), so a
:class:`~repro.storage.cluster.StorageCluster` can use it as a node
``store_factory`` and replicate across real sockets.  Design points:

* **One batch = one round trip.**  ``multi_get``/``multi_put``/
  ``multi_delete`` ship the whole key set as a single ``kv_multi_*``
  request; a batch too large for one frame is split by payload size and the
  parts go out back-to-back through the transport's ``call_many`` — still a
  single wire round trip.  Combined with the cluster's per-node grouping, a
  cluster batch of n keys costs one round trip per owning node, not n·RF.
* **Streaming scans, offloaded when possible.**  ``scan_prefix`` is a
  generator that streams the keyspace on demand without materializing it
  client-side or hitting the frame cap.  Against a peer that advertises
  ``kv_scan_prefix`` it pulls byte-capped *regions* (one round trip for a
  typical prefix, range filters applied on the node); against an older
  peer it falls back to fixed-size ``kv_scan_page`` pages.  Likewise
  ``delete_prefix`` is one ``kv_delete_prefix`` round trip on a current
  peer and a paged scan-then-``multi_delete`` walk on an old one.
* **Failures are node outages.**  Connection refusal, timeouts, dropped
  sockets, and transport-level protocol errors all surface as
  :class:`~repro.exceptions.StorageError`, which is exactly what the
  cluster's ``_NODE_FAILURES`` mark-down/re-route/repair machinery treats
  as a downed node.  Typed remote errors raised *by* the store itself
  propagate unchanged.
* **Reconnect.**  The connection lives in a
  :class:`~repro.net.client.ConnectionCache`: created lazily, dropped on
  any transport failure, and dialled again by the next operation (one
  retry per operation), so a node restart heals transparently.  Idempotent
  KV operations make the at-least-once retry safe; the one observable
  wrinkle is that a ``delete`` retried across a reconnect can report
  ``existed=False`` for a key its first, half-lost attempt removed.
* **Elastic membership.**  A client is cheap before its first operation
  (no socket until then), so ``StorageCluster.add_node`` can adopt a
  ``RemoteKeyValueStore`` for a node that is still booting; the handoff's
  first batch dials it.  ``decommission_node`` calls :meth:`close`, which
  only drops the connection — the detached node keeps its data.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import OverloadedError, ProtocolError, StorageError, TransportError
from repro.net.client import ConnectionCache, RemoteServerClient, WireStats, _remote_error
from repro.net.messages import Request, Response, retain
from repro.obs.metrics import REGISTRY
from repro.storage.kv import KeyValueStore

logger = logging.getLogger(__name__)

#: Soft cap on one request's attachment payload; frames are hard-capped at
#: 64 MiB, so splitting at 32 MiB leaves ample room for headers and keys.
DEFAULT_MAX_REQUEST_BYTES = 32 * 1024 * 1024
#: Keys per kv_multi_get / kv_multi_delete part.
DEFAULT_MAX_KEYS_PER_REQUEST = 8192


class RemoteKeyValueStore(KeyValueStore):
    """The client half of a remote storage node (see module docstring)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        scan_page_size: int = 1024,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        max_keys_per_request: int = DEFAULT_MAX_KEYS_PER_REQUEST,
        prefix_ops: bool = True,
        overload_retries: int = 4,
        compression: bool = False,
        tracing: bool = False,
    ) -> None:
        if scan_page_size < 1:
            raise ValueError("scan_page_size must be positive")
        #: When False, never use the kv_scan_prefix / kv_delete_prefix
        #: offload ops even against a peer that advertises them — the
        #: legacy-pager escape hatch (and the before/after lever the
        #: sharding benchmark uses to measure the offload).
        self._prefix_ops = prefix_ops
        self._address = (host, port)
        self._scan_page_size = scan_page_size
        self._max_request_bytes = max_request_bytes
        self._max_keys_per_request = max_keys_per_request
        # ``overload_retries`` is the transport's retry budget for typed
        # ``overloaded`` sheds; once exhausted, the shed surfaces here and is
        # wrapped as StorageError.  With ``tracing`` the transport attaches
        # trace contexts to outbound kv_* requests — inside a traced engine
        # handler those spans join the request's tree (see repro.obs.tracing).
        self._connections = ConnectionCache(
            prepare=self._adopt,
            timeout=timeout,
            overload_retries=max(0, int(overload_retries)),
            compression=compression,
            tracing=bool(tracing),
        )
        #: Wire accounting that survives reconnects: the same WireStats
        #: object is handed to every underlying client, so per-node
        #: round-trip counters stay continuous across node restarts.
        self.wire_stats = WireStats()
        self._metrics_lock = threading.Lock()
        self._metrics_key: Optional[str] = REGISTRY.register(
            f"store.remote.{host}:{port}", self.wire_stats
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    # -- connection management -----------------------------------------------------

    def _adopt(self, client: RemoteServerClient) -> None:
        """Vet a freshly dialled transport before the cache installs it."""
        if not client.supports_operation("kv_multi_put"):
            # A reachable peer of the wrong tier is a topology /
            # configuration error, not an outage: raise the non-retryable
            # ProtocolError so callers (and the cluster) do not redial or
            # mark the node down.
            raise ProtocolError(
                f"peer at {self._address} does not serve the kv_* storage-node "
                "operations (is it an engine server?)"
            )
        client.wire_stats = self.wire_stats
        with self._metrics_lock:
            if self._metrics_key is None:
                # Store reused after close(): re-attach its wire stats.
                self._metrics_key = REGISTRY.register(
                    f"store.remote.{self._address[0]}:{self._address[1]}", self.wire_stats
                )

    def _client(self) -> RemoteServerClient:
        """The live transport, dialling if necessary; dial failures are outages."""
        try:
            return self._connections.get(self._address)
        except ProtocolError:
            raise
        except (OSError, TransportError) as exc:
            raise StorageError(f"storage node {self._address} unreachable: {exc}") from exc

    def connect(self) -> "RemoteKeyValueStore":
        """Eagerly dial the node (the first operation otherwise does it lazily)."""
        self._client()
        return self

    def ping(self) -> bool:
        return bool(self._call(Request("ping")).result.get("pong"))

    def close(self) -> None:
        """Drop the connection.  The store may be reused; the next op redials."""
        with self._metrics_lock:
            if self._metrics_key is not None:
                REGISTRY.unregister(self._metrics_key)
                self._metrics_key = None
        self._connections.close()

    # -- wire plumbing -------------------------------------------------------------

    def _call(self, request: Request) -> Response:
        """One request, one round trip, with one reconnect retry.

        Transport failures (refused, reset, timed out, unparseable peer)
        become :class:`StorageError` so the cluster marks the node down;
        typed errors the remote store raised propagate unchanged.
        """
        return self._call_many([request])[0]

    def _call_many(self, requests: Sequence[Request]) -> List[Response]:
        """A request batch in one round trip, with one reconnect retry."""
        last_error: Optional[Exception] = None
        for _attempt in range(2):
            try:
                responses = self._connections.call_many(self._address, list(requests))
            except ProtocolError:
                # Raised locally by frame encoding (e.g. a single value past
                # the 64 MiB cap) or by a wrong-tier peer: a deterministic
                # caller error no reconnect can fix.  Propagate it unchanged —
                # wrapping it in StorageError would make the cluster mark a
                # healthy node down and replay the same failure on every
                # replica.
                raise
            except (TransportError, OSError) as exc:
                # A failed dial, or a lost connection the cache already
                # dropped; remote per-request errors come back inside
                # responses instead.
                logger.info("storage node %s unreachable (%s); redialling", self._address, exc)
                last_error = exc
                continue
            for response in responses:
                if not response.ok:
                    error = _remote_error(response)
                    if isinstance(error, OverloadedError):
                        # The node is still shedding after the client's own
                        # capped backoff retries: treat persistent overload
                        # like an outage so the cluster marks the node down
                        # and re-routes, instead of crashing the caller.
                        raise StorageError(
                            f"storage node {self._address} overloaded: {error}"
                        ) from error
                    raise error
            return responses
        raise StorageError(
            f"storage node {self._address} unreachable: {last_error}"
        ) from last_error

    # -- KeyValueStore contract ----------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        response = self._call(Request("kv_get", {}, [key]))
        if not response.result.get("found"):
            return None
        return retain(response.attachments[0])

    def put(self, key: bytes, value: bytes) -> None:
        self._call(Request("kv_put", {}, [key, value]))

    def delete(self, key: bytes) -> bool:
        return bool(self._call(Request("kv_delete", {}, [key])).result.get("existed"))

    # -- batch primitives: one wire round trip per batch ---------------------------

    def _split(self, items: List, size_of: Callable) -> Iterator[List]:
        """Split a batch by item count and payload size (frame-cap safety)."""
        part: List = []
        part_bytes = 0
        for item in items:
            item_bytes = size_of(item)
            if part and (
                len(part) >= self._max_keys_per_request
                or part_bytes + item_bytes > self._max_request_bytes
            ):
                yield part
                part, part_bytes = [], 0
            part.append(item)
            part_bytes += item_bytes
        if part:
            yield part

    def _key_parts(self, keys: List[bytes]) -> Iterator[List[bytes]]:
        return self._split(keys, len)

    def multi_get(self, keys: Iterable[bytes]) -> Dict[bytes, Optional[bytes]]:
        materialized = list(keys)
        if not materialized:
            return {}
        result: Dict[bytes, Optional[bytes]] = {key: None for key in materialized}
        parts = list(self._key_parts(materialized))
        # The node byte-caps responses and defers the tail (see
        # ``kv_multi_get`` in storage/node.py); each retry wave re-requests
        # every deferred key in one further round trip.  The node always
        # serves at least one value per request, so the loop terminates.
        while parts:
            responses = self._call_many([Request("kv_multi_get", {}, part) for part in parts])
            deferred_keys: List[bytes] = []
            for part, response in zip(parts, responses):
                for index, value in zip(response.result["found"], response.attachments):
                    result[part[index]] = retain(value)
                deferred_keys.extend(
                    part[index] for index in response.result.get("deferred", ())
                )
            parts = list(self._key_parts(deferred_keys)) if deferred_keys else []
        return result

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        materialized = list(items)
        if not materialized:
            return
        self._call_many(
            [
                Request(
                    "kv_multi_put",
                    {},
                    [blob for key_value in part for blob in key_value],
                )
                for part in self._split(materialized, lambda item: len(item[0]) + len(item[1]))
            ]
        )

    def multi_delete(self, keys: Iterable[bytes]) -> Set[bytes]:
        materialized = list(keys)
        if not materialized:
            return set()
        parts = list(self._key_parts(materialized))
        responses = self._call_many(
            [Request("kv_multi_delete", {}, part) for part in parts]
        )
        existed: Set[bytes] = set()
        for part, response in zip(parts, responses):
            existed.update(part[index] for index in response.result["existed"])
        return existed

    # -- scans / sizing ------------------------------------------------------------

    def _offload_supported(self, operation: str) -> bool:
        """Whether the scan-offload fast path applies for ``operation``."""
        if not self._prefix_ops:
            return False
        try:
            return self._client().supports_operation(operation)
        except StorageError:
            # Node unreachable: claim support and let the actual call do the
            # reconnect-retry dance (and surface the outage as usual).
            return True

    def _scan(
        self,
        prefix: bytes,
        after: Optional[bytes],
        keys_only: bool,
        lo: Optional[bytes] = None,
        hi: Optional[bytes] = None,
    ):
        """The chooser behind all scan flavours: offload when the peer can.

        Yields ``(key, value_length)`` pairs when ``keys_only`` else
        ``(key, value)`` pairs, optionally restricted to ``lo <= key <= hi``.
        """
        if self._offload_supported("kv_scan_prefix"):
            yield from self._offload_scan(prefix, after, keys_only, lo, hi)
            return
        scan = self._paged_scan(prefix, after, keys_only)
        if lo is None:
            yield from scan
            return
        # Legacy peer: the range filter runs client-side, which still stops
        # the page walk at the first key past ``hi``.
        for key, payload in scan:
            if key > hi:
                return
            if key >= lo:
                yield key, payload

    def _offload_scan(
        self,
        prefix: bytes,
        after: Optional[bytes],
        keys_only: bool,
        lo: Optional[bytes],
        hi: Optional[bytes],
    ):
        """The ``kv_scan_prefix`` fast path: node-side filtering per region.

        ``scan_page_size`` still bounds the items per round trip (laziness is
        part of the scan contract); the win over ``kv_scan_page`` is that
        range filters run on the node, so skipped keys never cross the wire.
        """
        while True:
            args: Dict = {"limit": self._scan_page_size}
            attachments = [prefix]
            if after is not None:
                args["cursor"] = True
                attachments.append(after)
            if lo is not None and hi is not None:
                args["range"] = True
                attachments.extend((lo, hi))
            if keys_only:
                args["keys_only"] = True
            response = self._call(Request("kv_scan_prefix", args, attachments))
            # Scan results escape to the caller (and keys become cursors), so
            # pin them off the frame buffers here.
            blobs = [retain(blob) for blob in response.attachments]
            if keys_only:
                yield from zip(blobs, response.result.get("value_bytes", ()))
            else:
                yield from zip(blobs[0::2], blobs[1::2])
            if not response.result.get("truncated"):
                return
            if not blobs:
                raise ProtocolError("kv_scan_prefix returned a truncated empty region")
            after = blobs[-1] if keys_only else blobs[-2]

    def _paged_scan(self, prefix: bytes, after: Optional[bytes], keys_only: bool):
        """The legacy ``kv_scan_page`` pager (peers without scan offload).

        ``keys_only`` pages yield ``(key, value_length)`` pairs (lengths
        travel as integers in the header); value pages yield ``(key,
        value)`` pairs.
        """
        args = {"limit": self._scan_page_size}
        if keys_only:
            args["keys_only"] = True
        while True:
            attachments = [prefix] if after is None else [prefix, after]
            response = self._call(Request("kv_scan_page", dict(args), attachments))
            blobs = [retain(blob) for blob in response.attachments]
            if keys_only:
                yield from zip(blobs, response.result.get("value_bytes", ()))
            else:
                yield from zip(blobs[0::2], blobs[1::2])
            if not response.result.get("truncated"):
                return
            after = blobs[-1] if keys_only else blobs[-2]

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Stream ``(key, value)`` pairs lazily; one round trip per region/page."""
        return self._scan(prefix, None, keys_only=False)

    def scan_from(
        self, prefix: bytes, after: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        return self._scan(prefix, after, keys_only=False)

    def scan_range(self, prefix: bytes, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Range-filtered scan: on a current peer the filter runs node-side,
        so only keys in ``[lo, hi]`` ever cross the wire."""
        return self._scan(prefix, None, keys_only=False, lo=lo, hi=hi)

    def scan_keys(self, prefix: bytes) -> Iterator[bytes]:
        """Stream only the keys under ``prefix`` — no value bytes on the wire."""
        return (key for key, _size in self._scan(prefix, None, keys_only=True))

    def scan_key_sizes(self, prefix: bytes) -> Iterator[Tuple[bytes, int]]:
        """Stream ``(key, stored_bytes)`` — sizes as integers, never values."""
        return (
            (key, len(key) + value_length)
            for key, value_length in self._scan(prefix, None, keys_only=True)
        )

    def scan_sizes_from(self, prefix: bytes, after: Optional[bytes] = None) -> Iterator[Tuple[bytes, int]]:
        """Cursor-resumed ``(key, value_length)`` pairs via keys-only scans."""
        return self._scan(prefix, after, keys_only=True)

    def keys_with_prefix(self, prefix: bytes) -> List[bytes]:
        return list(self.scan_keys(prefix))

    # -- bulk erase ----------------------------------------------------------------

    def delete_prefix(self, prefix: bytes, batch_size: int = 4096) -> int:
        return self.delete_prefixes([prefix])

    def delete_prefixes(self, prefixes: Iterable[bytes]) -> int:
        """Erase whole keyspaces in one ``kv_delete_prefix`` round trip.

        Against a peer that predates the op, fall back to the client-driven
        walk: stream the keys and ``multi_delete`` them in request-sized
        batches (the O(pages) behaviour the offload exists to remove).
        """
        materialized = list(prefixes)
        if not materialized:
            return 0
        if self._offload_supported("kv_delete_prefix"):
            response = self._call(Request("kv_delete_prefix", {}, materialized))
            return int(response.result["deleted"])
        deleted = 0
        for prefix in materialized:
            batch: List[bytes] = []
            for key in self.scan_keys(prefix):
                batch.append(key)
                if len(batch) >= self._max_keys_per_request:
                    deleted += len(self.multi_delete(batch))
                    batch = []
            if batch:
                deleted += len(self.multi_delete(batch))
        return deleted

    def count_prefix(self, prefix: bytes) -> int:
        return sum(1 for _ in self.scan_keys(prefix))

    def size_bytes(self) -> int:
        return int(self._call(Request("kv_size_bytes")).result["bytes"])
