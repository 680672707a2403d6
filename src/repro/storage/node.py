"""The remote storage node: a TCP server fronting one local KeyValueStore.

This is the storage tier of the distributed deployment shape: the paper's
server is a thin crypto-oblivious layer over a distributed key-value store
(Cassandra in their prototype), and here each *storage node* is its own
process — a :class:`StorageNodeServer` serving the raw
:class:`~repro.storage.kv.KeyValueStore` contract over the same pipelined
wire protocol the engine tier speaks (``kv_*`` operations, see
:mod:`repro.net.messages`).  A :class:`~repro.storage.cluster.StorageCluster`
whose ``store_factory`` returns
:class:`~repro.storage.remote.RemoteKeyValueStore` clients then replicates
across real sockets instead of in-process objects.

Wire encoding: keys and values are opaque byte strings, so every key and
value travels as a binary attachment, never inside the JSON header.

* ``kv_get``        — attachments ``[key]`` → ``{found}`` + ``[value]`` if found
* ``kv_put``        — attachments ``[key, value]``
* ``kv_delete``     — attachments ``[key]`` → ``{existed}``
* ``kv_multi_get``  — attachments ``keys`` → ``{found: [indices]}`` + values
  of the found keys, in index order; a response that would blow the frame
  cap serves a byte-capped head and returns the rest as ``deferred``
  indices for the client to re-request
* ``kv_multi_put``  — attachments ``[k0, v0, k1, v1, ...]`` → ``{stored}``
* ``kv_multi_delete`` — attachments ``keys`` → ``{existed: [indices]}``
* ``kv_scan_page``  — args ``{limit, keys_only}``, attachments ``[prefix]``
  or ``[prefix, after]`` (exclusive cursor) → ``{num_items, truncated}`` +
  ``[k0, v0, k1, v1, ...]`` (keys only when ``keys_only``); clients stream
  big scans page by page, bounded per page by count and bytes
* ``kv_scan_prefix`` — args ``{limit?, keys_only?, cursor?, range?}``,
  attachments ``[prefix] (+ [after] when cursor) (+ [lo, hi] when range)``
  → same result shape as ``kv_scan_page``, but the node walks the whole
  prefix region (range-filtered, byte-capped) in one response instead of
  one default-sized page — the scan-offload read op
* ``kv_delete_prefix`` — attachments = one or more non-empty prefixes →
  ``{deleted}``; the node erases the keyspaces locally in bounded batches,
  so bulk erase is one round trip instead of a paged scan-then-delete
  driven by the engine
* ``kv_size_bytes`` — → ``{bytes}``

The node server deliberately does **not** own its store's lifetime: the
store is the node's disk, the server is the node's process.  Stopping the
server (a crash, a restart) leaves the store's contents intact, which is
exactly what the cluster's mark-down → ``mark_up`` → hint-replay →
``repair_node`` cycle expects to heal — parked hints for the node live in
*other* nodes' stores under the reserved ``hint/`` keyspace, so on a
persistent backend they survive restarts of the hosting node too.  The
same store-outlives-process property is what makes live topology changes
safe: ``StorageCluster.add_node`` can dial a node that just started empty
and stream its ranges to it, and ``decommission_node`` leaves the detached
node's contents on disk, exactly like a Cassandra decommission.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.exceptions import ProtocolError, StorageError, TimeCryptError
from repro.net.messages import Request, Response, retain
from repro.net.server import (
    DEFAULT_BULK_QUEUE_LIMIT,
    DEFAULT_CREDIT_WINDOW,
    TimeCryptTCPServer,
    WireDispatcher,
)
from repro.storage.kv import KeyValueStore

#: Default page size for ``kv_scan_page`` when the client does not ask.
DEFAULT_SCAN_PAGE_LIMIT = 1024
#: Hard ceiling on one scan page, far below the 64 MiB frame cap for
#: typical chunk sizes while still amortizing the round trip.
MAX_SCAN_PAGE_LIMIT = 8192
#: Soft cap on one response's attachment bytes.  Responses always carry at
#: least one item past the cap so progress is guaranteed, which bounds a
#: response at this cap plus one value — safely inside the 64 MiB frame cap
#: as long as individual values respect the clients' request split size.
RESPONSE_BYTE_CAP = 32 * 1024 * 1024


class StorageNodeDispatcher(WireDispatcher):
    """Maps ``kv_*`` wire requests onto one local :class:`KeyValueStore`.

    The TCP server dispatches frames from a worker pool, but the injected
    store is **not** required to be thread-safe (``AppendLogStore`` shares
    one file handle and an unlocked index): every handler runs under a
    per-dispatcher lock, so the store only ever sees one operation at a
    time.  Concurrency still pays off on the wire — requests batch, frame,
    and queue concurrently — while the store, which is the node's actual
    bottleneck, executes serially exactly as its single-process contract
    assumes.
    """

    def __init__(self, store: KeyValueStore) -> None:
        self._store = store
        self._store_lock = threading.Lock()

    @property
    def store(self) -> KeyValueStore:
        return self._store

    def dispatch(self, request: Request) -> Response:
        if request.operation.startswith("kv_"):
            with self._store_lock:
                return super().dispatch(request)
        # hello/ping/stats/trace_dump touch no store state — they must stay
        # responsive on a busy node, or reconnect negotiation, liveness
        # checks, and telemetry scrapes would be blocked by the very load
        # they are meant to see through.
        return super().dispatch(request)

    def _unexpected_error(self, exc: Exception) -> TimeCryptError:
        if isinstance(exc, OSError):
            # A failing local backend (disk full, closed log file) must
            # surface as a typed storage error the cluster can treat as a
            # node outage — not tear down the connection.
            return StorageError(f"storage backend failed: {exc}")
        return super()._unexpected_error(exc)

    # -- helpers -------------------------------------------------------------------
    #
    # The zero-copy server hands dispatchers memoryview attachments over
    # per-frame buffers.  Keys are used as dict keys / set members / ordering
    # bounds and stored past the request's lifetime, so every key (and every
    # stored value) is pinned with retain() at the wire boundary.

    @staticmethod
    def _one_key(request: Request) -> bytes:
        if len(request.attachments) != 1:
            raise ProtocolError(f"{request.operation} requires exactly one key attachment")
        return retain(request.attachments[0])

    # -- scalar ops ----------------------------------------------------------------

    def _op_kv_get(self, request: Request) -> Response:
        value = self._store.get(self._one_key(request))
        if value is None:
            return Response.success({"found": False})
        return Response.success({"found": True}, [value])

    def _op_kv_put(self, request: Request) -> Response:
        if len(request.attachments) != 2:
            raise ProtocolError("kv_put requires key and value attachments")
        key, value = (retain(blob) for blob in request.attachments)
        self._store.put(key, value)
        return Response.success()

    def _op_kv_delete(self, request: Request) -> Response:
        existed = self._store.delete(self._one_key(request))
        return Response.success({"existed": existed})

    # -- batch ops -----------------------------------------------------------------

    def _op_kv_multi_get(self, request: Request) -> Response:
        """Batched get; oversized result sets defer their tail to the client.

        Clients bound the *request* size, but cannot know value sizes, so
        the response is byte-capped here: once the accumulated values pass
        :data:`RESPONSE_BYTE_CAP` (with at least one value served, so a
        retry loop always progresses), every not-yet-served key's index is
        returned in ``deferred`` and the client re-requests those keys —
        instead of the encoder blowing the 64 MiB frame cap and the client
        reading the dead air as a node outage.  Values are fetched from the
        store in small sub-batches so the deferred tail is never read at
        all (it will be read by the retry wave that actually ships it).
        """
        keys = [retain(key) for key in request.attachments]
        indices: List[int] = []
        values: List[bytes] = []
        deferred: List[int] = []
        total_bytes = 0
        capped = False
        chunk_size = 64
        for start in range(0, len(keys), chunk_size):
            chunk = keys[start : start + chunk_size]
            if capped:
                deferred.extend(range(start, start + len(chunk)))
                continue
            found = self._store.multi_get(chunk)
            for offset, key in enumerate(chunk):
                value = found.get(key)
                if value is None:
                    continue
                if capped or (values and total_bytes + len(value) > RESPONSE_BYTE_CAP):
                    capped = True
                    deferred.append(start + offset)
                    continue
                indices.append(start + offset)
                values.append(value)
                total_bytes += len(value)
        result = {"found": indices}
        if deferred:
            result["deferred"] = deferred
        return Response.success(result, values)

    def _op_kv_multi_put(self, request: Request) -> Response:
        if len(request.attachments) % 2:
            raise ProtocolError("kv_multi_put requires alternating key/value attachments")
        items: List[Tuple[bytes, bytes]] = [
            (retain(key), retain(value))
            for key, value in zip(request.attachments[0::2], request.attachments[1::2])
        ]
        self._store.multi_put(items)
        return Response.success({"stored": len(items)})

    def _op_kv_multi_delete(self, request: Request) -> Response:
        keys = [retain(key) for key in request.attachments]
        existed = self._store.multi_delete(keys)
        return Response.success({"existed": [i for i, key in enumerate(keys) if key in existed]})

    # -- scans / sizing ------------------------------------------------------------

    def _op_kv_scan_page(self, request: Request) -> Response:
        """One cursor-resumed scan page, bounded by item count *and* bytes.

        ``keys_only`` pages omit the values (membership walks — cluster
        repair's "which keys does the ring assign here" pass — should not
        drag every value over the wire just to discard it).  The cursor
        goes through :meth:`KeyValueStore.scan_from`, so backends with
        sorted key access seek instead of re-walking the keyspace.
        """
        if not 1 <= len(request.attachments) <= 2:
            raise ProtocolError("kv_scan_page requires a prefix (and optional cursor) attachment")
        prefix = retain(request.attachments[0])
        after: Optional[bytes] = (
            retain(request.attachments[1]) if len(request.attachments) == 2 else None
        )
        limit = int(request.args.get("limit", DEFAULT_SCAN_PAGE_LIMIT))
        if limit < 1:
            raise ProtocolError(f"kv_scan_page limit must be positive, got {limit}")
        limit = min(limit, MAX_SCAN_PAGE_LIMIT)
        keys_only = bool(request.args.get("keys_only", False))
        attachments: List[bytes] = []
        value_bytes: List[int] = []
        num_items = 0
        page_bytes = 0
        truncated = False
        # keys_only pages pull from scan_sizes_from — value lengths ride
        # along as integers and backends with indexed lengths (append-log)
        # never touch the value payloads at all.
        scan = (
            self._store.scan_sizes_from(prefix, after)
            if keys_only
            else self._store.scan_from(prefix, after)
        )
        for key, payload in scan:
            item_bytes = len(key) if keys_only else len(key) + len(payload)
            if num_items == limit or (num_items and page_bytes + item_bytes > RESPONSE_BYTE_CAP):
                truncated = True
                break
            attachments.append(key)
            if keys_only:
                value_bytes.append(payload)
            else:
                attachments.append(payload)
            num_items += 1
            page_bytes += item_bytes
        result = {"num_items": num_items, "truncated": truncated}
        if keys_only:
            result["value_bytes"] = value_bytes
        return Response.success(result, attachments)

    def _op_kv_scan_prefix(self, request: Request) -> Response:
        """One server-side prefix walk: filter, cap, and ship only matches.

        The scan-offload read op.  Unlike ``kv_scan_page`` there is no
        default item limit — the response is bounded by bytes (and any
        explicit ``limit``), so a typical prefix region arrives in one round
        trip; oversized regions set ``truncated`` and the client resumes
        from the last returned key.  With the ``range`` flag only keys in
        ``[lo, hi]`` (inclusive) are served: the node walks key/size pairs
        first and fetches just the matching values, so filtered-out values
        never leave the backend at all.
        """
        attachments = [retain(blob) for blob in request.attachments]
        if not attachments:
            raise ProtocolError("kv_scan_prefix requires a prefix attachment")
        prefix = attachments.pop(0)
        after: Optional[bytes] = None
        if request.args.get("cursor"):
            if not attachments:
                raise ProtocolError("kv_scan_prefix cursor flag set without a cursor attachment")
            after = attachments.pop(0)
        lo: Optional[bytes] = None
        hi: Optional[bytes] = None
        if request.args.get("range"):
            if len(attachments) != 2:
                raise ProtocolError("kv_scan_prefix range flag needs lo and hi attachments")
            lo, hi = attachments
        elif attachments:
            raise ProtocolError("kv_scan_prefix got unexpected attachments")
        limit = request.args.get("limit")
        if limit is not None:
            limit = int(limit)
            if limit < 1:
                raise ProtocolError(f"kv_scan_prefix limit must be positive, got {limit}")
        keys_only = bool(request.args.get("keys_only", False))
        matched: List[bytes] = []
        sizes: List[int] = []
        page_bytes = 0
        truncated = False
        for key, value_length in self._store.scan_sizes_from(prefix, after):
            if hi is not None and key > hi:
                break
            if lo is not None and key < lo:
                continue
            item_bytes = len(key) if keys_only else len(key) + value_length
            if (limit is not None and len(matched) == limit) or (
                matched and page_bytes + item_bytes > RESPONSE_BYTE_CAP
            ):
                truncated = True
                break
            matched.append(key)
            sizes.append(value_length)
            page_bytes += item_bytes
        if keys_only:
            return Response.success(
                {"num_items": len(matched), "truncated": truncated, "value_bytes": sizes},
                matched,
            )
        # All kv_ ops run under the dispatcher's store lock, so the values of
        # the keys matched above cannot vanish between the size walk and this
        # fetch; the .get guard below is belt-and-braces only.
        found = self._store.multi_get(matched) if matched else {}
        attachments = []
        num_items = 0
        for key in matched:
            value = found.get(key)
            if value is None:
                continue
            attachments.extend((key, value))
            num_items += 1
        return Response.success({"num_items": num_items, "truncated": truncated}, attachments)

    def _op_kv_delete_prefix(self, request: Request) -> Response:
        """Server-side bulk erase of one or more keyspaces (scan offload)."""
        if not request.attachments:
            raise ProtocolError("kv_delete_prefix requires at least one prefix attachment")
        prefixes = [retain(prefix) for prefix in request.attachments]
        for prefix in prefixes:
            if not prefix:
                raise ProtocolError("kv_delete_prefix refuses an empty prefix")
        deleted = self._store.delete_prefixes(prefixes)
        return Response.success({"deleted": int(deleted)})

    def _op_kv_size_bytes(self, request: Request) -> Response:
        return Response.success({"bytes": int(self._store.size_bytes())})


class StorageNodeServer:
    """One remote storage node: a local store behind the pipelined TCP wire.

    Reuses :class:`~repro.net.server.TimeCryptTCPServer` unchanged — the
    selector I/O loop, bounded worker pool, framing, scheduler and ``hello``
    negotiation all come for free; only the dispatcher differs.  Stopping
    the server does *not* close the store (the store is the node's disk);
    restart the node on the same port with a fresh ``StorageNodeServer``
    around the same store and reconnecting clients resume where they were.
    """

    def __init__(
        self,
        store: KeyValueStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 4,
        credit_window: int = DEFAULT_CREDIT_WINDOW,
        bulk_queue_limit: int = DEFAULT_BULK_QUEUE_LIMIT,
        wire_compression: bool = False,
        node_name: Optional[str] = None,
        tracing: bool = True,
    ) -> None:
        self._store = store
        self._dispatcher = StorageNodeDispatcher(store)
        # The storage tier runs the same scheduler and credit window as the
        # engine tier: kv_multi_put floods queue in the bounded bulk class
        # (typed sheds past the cap) while query fetches stay interactive.
        self._tcp = TimeCryptTCPServer(
            host=host,
            port=port,
            max_workers=max_workers,
            dispatcher=self._dispatcher,
            credit_window=credit_window,
            bulk_queue_limit=bulk_queue_limit,
            wire_compression=wire_compression,
            node_name=node_name,
            tracing=tracing,
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._tcp.address

    @property
    def store(self) -> KeyValueStore:
        return self._store

    def scheduler_stats(self) -> dict:
        """The transport scheduler's deterministic counters (sheds, depths)."""
        return self._tcp.scheduler_stats()

    def start(self) -> "StorageNodeServer":
        self._tcp.start()
        return self

    def stop(self) -> None:
        """Stop serving; the store and its contents stay untouched."""
        self._tcp.stop()

    def __enter__(self) -> "StorageNodeServer":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()
