"""Horizontal engine sharding: N ServerEngines behind a stream router.

Engines are stateless apart from the storage they wrap (paper §3.2), so the
scalability story is running *several* engines and partitioning streams
across them.  This module provides that tier:

* Streams are placed by consistent-hashing the stream uuid onto named engine
  shards — the same :class:`~repro.storage.partitioner.ConsistentHashRing`
  the storage tier places keys with, carried on the wire as a
  :class:`~repro.net.messages.ShardRoutingTable`.
* Each :class:`EngineShardServer` serves one engine and *enforces* placement:
  a request for a stream it does not own is answered with a typed
  ``WrongShardError`` redirect naming the owner and the routing epoch, so a
  stale client refreshes instead of silently writing to the wrong shard.
* The :class:`StreamRouter` is the front door: it advertises the routing
  table in ``hello`` (clients that understand it route straight to the
  owning engine — no extra hop on the hot path) and proxies requests for
  clients that do not, including splitting cross-shard ``stat_range_multi``
  and ``put_grants`` across the owning engines.

Membership changes bump the table epoch.  Shards observe the bump on their
next request and drop cached stream state (indexes rebuild lazily from
shared storage), so ownership moves without restarting engines.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ProtocolError, QueryError, TimeCryptError, TransportError
from repro.net.client import ConnectionCache, RemoteServerClient
from repro.net.messages import KV_OPERATIONS, OPERATIONS, Request, Response, ShardRoutingTable
from repro.net.server import RequestDispatcher, TimeCryptTCPServer, WireDispatcher
from repro.obs.tracing import current_context, set_context
from repro.server.engine import ServerEngine, _metadata_from_json
from repro.server.query_executor import MultiStreamAggregate
from repro.timeseries.serialization import peek_chunk_stream_uuid

logger = logging.getLogger(__name__)


class RoutingTableRef:
    """A mutable handle over an immutable routing table.

    Readers grab the current table with one attribute read (tables are
    immutable, so a grabbed reference stays internally consistent however
    membership changes race); writers swap in a whole new table under the
    lock, bumping the epoch.
    """

    def __init__(self, table: Optional[ShardRoutingTable] = None) -> None:
        self._table = table if table is not None else ShardRoutingTable()
        self._lock = threading.Lock()

    @property
    def table(self) -> ShardRoutingTable:
        return self._table

    def set_engines(self, engines) -> ShardRoutingTable:
        with self._lock:
            self._table = self._table.with_engines(engines)
            table = self._table
        logger.info(
            "routing table replaced: %d engine shard(s), epoch %d", len(table), table.epoch
        )
        return table

    def add_engine(self, name: str, host: str, port: int) -> ShardRoutingTable:
        with self._lock:
            self._table = self._table.with_engine(name, host, port)
            table = self._table
        logger.info("engine shard '%s' added at %s:%d, epoch %d", name, host, port, table.epoch)
        return table

    def remove_engine(self, name: str) -> ShardRoutingTable:
        with self._lock:
            self._table = self._table.without_engine(name)
            table = self._table
        logger.info("engine shard '%s' removed, epoch %d", name, table.epoch)
        return table


#: Engine operations whose target stream is a plain ``uuid`` argument.
_UUID_ARG_OPS = frozenset(
    {
        "delete_stream",
        "stream_head",
        "stream_metadata",
        "rollup_stream",
        "get_range",
        "delete_range",
        "stat_range",
        "stat_series",
        "put_grant",
        "fetch_grants",
        "fetch_envelopes",
        "put_envelopes",
    }
)


def _request_stream_uuids(request: Request) -> List[str]:
    """The stream uuids a request addresses (empty: not stream-routed).

    Ingest requests are placed by peeking the uuid out of the first chunk
    attachment — a magic check, one varint and a slice, no full decode; the
    engine itself enforces that a batch is single-stream.
    """
    operation = request.operation
    if operation in _UUID_ARG_OPS:
        return [request.args["uuid"]]
    if operation == "stat_range_multi":
        return list(request.args["uuids"])
    if operation == "put_grants":
        return [target["uuid"] for target in request.args["grants"]]
    if operation in ("insert_chunk", "insert_chunks"):
        if not request.attachments:
            raise ProtocolError(f"{operation} requires a chunk attachment")
        return [peek_chunk_stream_uuid(request.attachments[0])]
    if operation == "create_stream":
        if not request.attachments:
            raise ProtocolError("create_stream requires a metadata attachment")
        return [_metadata_from_json(request.attachments[0]).uuid]
    return []


def _wrong_shard_response(
    stream_uuid: str, owner: str, table: ShardRoutingTable
) -> Response:
    """The typed redirect: names the owner and the epoch the shard observed."""
    host, port = table.address_of(owner)
    return Response(
        ok=False,
        error=(
            f"stream '{stream_uuid}' is owned by engine shard '{owner}' "
            f"(routing epoch {table.epoch})"
        ),
        error_type="WrongShardError",
        result={"owner": owner, "epoch": table.epoch, "address": [host, port]},
    )


class ShardedEngineDispatcher(RequestDispatcher):
    """A :class:`RequestDispatcher` that enforces shard ownership.

    Every engine-touching request is checked against the current routing
    table before dispatch; requests for foreign streams get the typed
    redirect instead of an answer.  The first request observed after an
    epoch bump drops the engine's cached stream state — a stream this shard
    just (re)gained may have advanced under its previous owner, so indexes
    rebuild lazily from shared storage.
    """

    _LOCK_FREE_OPS = RequestDispatcher._LOCK_FREE_OPS | {"routing_table"}

    def __init__(self, engine: ServerEngine, table_ref: RoutingTableRef, shard_name: str) -> None:
        super().__init__(engine)
        self._table_ref = table_ref
        self._shard_name = shard_name
        self._seen_epoch = table_ref.table.epoch

    def hello_extras(self) -> Dict:
        return {"routing": self._table_ref.table.to_payload(), "shard": self._shard_name}

    def _op_routing_table(self, _request: Request) -> Response:
        return Response.success({"routing": self._table_ref.table.to_payload()})

    def _dispatch_engine(self, request: Request) -> Response:
        table = self._table_ref.table
        if table.epoch != self._seen_epoch:
            logger.info(
                "shard '%s' observed routing epoch %d (was %d); dropping cached stream state",
                self._shard_name,
                table.epoch,
                self._seen_epoch,
            )
            self._engine.reset_stream_cache()
            self._seen_epoch = table.epoch
        for stream_uuid in _request_stream_uuids(request):
            owner = table.owner_of(stream_uuid) if len(table) else self._shard_name
            if owner != self._shard_name:
                return _wrong_shard_response(stream_uuid, owner, table)
        return super()._dispatch_engine(request)


class EngineShardServer:
    """One named engine shard: a :class:`ServerEngine` behind TCP."""

    def __init__(
        self,
        name: str,
        engine: ServerEngine,
        table_ref: RoutingTableRef,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
    ) -> None:
        self.name = name
        self.engine = engine
        self._server = TimeCryptTCPServer(
            host=host,
            port=port,
            max_workers=max_workers,
            dispatcher=ShardedEngineDispatcher(engine, table_ref, name),
            node_name=f"engine:{name}",
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    def start(self) -> "EngineShardServer":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()

    def __enter__(self) -> "EngineShardServer":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()


#: Engine-tier operations the router will proxy (kv_* belongs to storage nodes;
#: the scrape ops describe the node answering them, so they are never proxied).
_PROXYABLE_OPS = (
    frozenset(OPERATIONS)
    - frozenset(KV_OPERATIONS)
    - {"hello", "ping", "routing_table", "stats", "trace_dump"}
)


class RouterDispatcher(WireDispatcher):
    """The router's dispatcher: advertises the table, proxies the rest.

    Routing-aware clients never send it stream traffic — they learn the
    table from ``hello`` and dial the owning engines directly.  For plain
    :class:`~repro.net.client.RemoteServerClient` users the router is a
    transparent proxy: it forwards each request to the owning shard over a
    pooled multiplexed connection, and splits the two cross-shard batch ops
    (``stat_range_multi``, ``put_grants``) across owners concurrently.
    Backpressure composes per hop: each upstream connection honours the
    credit window that shard advertised in ``hello``, so the router cannot
    flood a saturated engine on a proxied burst.
    """

    #: Concurrent per-owner sub-batches for the cross-shard split ops.  The
    #: pool is shared across requests (fan-out is I/O-bound waiting on
    #: shards, so a handful of threads covers many in-flight splits).
    _FANOUT_WORKERS = 8

    def __init__(self, table_ref: RoutingTableRef, timeout: float = 30.0) -> None:
        self._table_ref = table_ref
        #: Pooled upstream connections, one per engine shard address.
        self.connections = ConnectionCache(timeout=timeout, tracing=False)
        self._fanout = ThreadPoolExecutor(
            max_workers=self._FANOUT_WORKERS, thread_name_prefix="tc-router-fanout"
        )

    def supported_operations(self) -> List[str]:
        # The proxy surface, not the handler list: a client negotiating
        # against the router must not downgrade to per-chunk ingest just
        # because the router itself has no _op_insert_chunks.
        return [op for op in OPERATIONS if op not in KV_OPERATIONS]

    def hello_extras(self) -> Dict:
        return {"routing": self._table_ref.table.to_payload(), "role": "router"}

    def _op_routing_table(self, _request: Request) -> Response:
        return Response.success({"routing": self._table_ref.table.to_payload()})

    def dispatch(self, request: Request) -> Response:
        if request.operation in ("hello", "ping", "routing_table", "stats", "trace_dump"):
            return super().dispatch(request)
        try:
            return self._proxy(request)
        except TimeCryptError as exc:
            return Response.failure(exc)
        except Exception as exc:  # noqa: BLE001 — the proxy must always answer
            return Response.failure(self._unexpected_error(exc))

    # -- engine connections -----------------------------------------------------

    @property  # type: ignore[override]
    def tracing(self) -> bool:
        """Set by the owning transport, and mirrored onto the outbound hop.

        A proxied request forwarded from inside a traced handler then shows
        up as a child span of the router's server span.
        """
        return self.connections.client_options["tracing"]

    @tracing.setter
    def tracing(self, value: bool) -> None:
        self.connections.client_options["tracing"] = bool(value)

    def _engine_client(self, name: str) -> RemoteServerClient:
        return self.connections.get(self._table_ref.table.address_of(name))

    def close(self) -> None:
        self._fanout.shutdown(wait=True)
        self.connections.close()

    def _fan_out(
        self, batches: Dict[str, List[Request]]
    ) -> Dict[str, List[Response]]:
        """Run one ``_forward_many`` per owner concurrently.

        ``_forward_many`` already degrades transport loss to per-request
        failure responses, so the futures only raise on programming errors —
        which the dispatch catch-all turns into a typed failure.  Owners'
        sub-batches ride separate pipelined connections, so a cross-shard
        split costs one round-trip *time*, not one per owner.

        The submitting thread's trace context is re-installed around each
        sub-batch — pool threads have no thread-local context of their own,
        and without this the split sub-requests would start fresh traces
        instead of joining the proxied request's tree.
        """
        parent = current_context()

        def forward(owner: str, requests: List[Request]) -> List[Response]:
            previous = set_context(parent)
            try:
                return self._forward_many(owner, requests)
            finally:
                set_context(previous)

        futures = {
            owner: self._fanout.submit(forward, owner, requests)
            for owner, requests in sorted(batches.items())
        }
        return {owner: future.result() for owner, future in futures.items()}

    # -- proxying ---------------------------------------------------------------

    def _proxy(self, request: Request) -> Response:
        table = self._table_ref.table
        if not len(table):
            return Response.failure(ProtocolError("the routing table has no engine shards"))
        if request.operation not in _PROXYABLE_OPS:
            return Response.failure(
                ProtocolError(f"unsupported operation '{request.operation}'")
            )
        stream_uuids = _request_stream_uuids(request)
        owners: Dict[str, List[str]] = {}
        for stream_uuid in stream_uuids:
            owners.setdefault(table.owner_of(stream_uuid), []).append(stream_uuid)
        if len(owners) <= 1:
            owner = next(iter(owners)) if owners else sorted(table.engine_names)[0]
            return self._forward_many(owner, [request])[0]
        if request.operation == "stat_range_multi":
            return self._split_stat_range_multi(request, table)
        if request.operation == "put_grants":
            return self._split_put_grants(request, table)
        return Response.failure(
            QueryError(
                f"'{request.operation}' addresses streams on several shards "
                "and cannot be split"
            )
        )

    def _forward_many(self, owner: str, requests: List[Request]) -> List[Response]:
        """Forward a batch to one shard; one reconnect attempt on transport loss."""
        last_error: Optional[Exception] = None
        for _attempt in range(2):
            try:
                return self.connections.call_many(self._table_ref.table.address_of(owner), requests)
            except (TransportError, OSError) as exc:
                last_error = exc
        return [
            Response.failure(
                TransportError(f"engine shard '{owner}' is unreachable: {last_error}")
            )
            for _request in requests
        ]

    def _split_stat_range_multi(self, request: Request, table: ShardRoutingTable) -> Response:
        """A cross-shard inter-stream query: per-stream ``stat_range`` sub-requests,
        pipelined per owner and fanned out to all owners concurrently,
        recombined exactly as a single engine would."""
        uuids = list(request.args["uuids"])
        start, end = request.args["start"], request.args["end"]
        by_owner: Dict[str, List[str]] = {}
        for stream_uuid in uuids:
            by_owner.setdefault(table.owner_of(stream_uuid), []).append(stream_uuid)
        responses_by_owner = self._fan_out(
            {
                owner: [
                    Request("stat_range", {"uuid": stream_uuid, "start": start, "end": end})
                    for stream_uuid in owned
                ]
                for owner, owned in by_owner.items()
            }
        )
        per_stream: Dict[str, Response] = {}
        for owner, owned in by_owner.items():
            per_stream.update(zip(owned, responses_by_owner[owner]))
        results = []
        for stream_uuid in uuids:  # combine in request order, as one engine would
            response = per_stream[stream_uuid]
            if not response.ok:
                return response
            results.append(RemoteServerClient._stat_from_json(response.result["stat"]))
        aggregate = MultiStreamAggregate.combine(results)
        return Response.success(
            {
                "values": list(aggregate.values),
                "component_names": list(aggregate.component_names),
                "per_stream_intervals": [list(item) for item in aggregate.per_stream_intervals],
            }
        )

    def _split_put_grants(self, request: Request, table: ShardRoutingTable) -> Response:
        """A cross-shard grant burst: one ``put_grants`` sub-batch per owner,
        fanned out to all owners concurrently, grant ids stitched back into
        input order."""
        targets = list(request.args["grants"])
        if len(targets) != len(request.attachments):
            return Response.failure(ProtocolError("put_grants targets and attachments must align"))
        slots_by_owner: Dict[str, List[int]] = {}
        for slot, target in enumerate(targets):
            slots_by_owner.setdefault(table.owner_of(target["uuid"]), []).append(slot)
        responses_by_owner = self._fan_out(
            {
                owner: [
                    Request(
                        "put_grants",
                        {"grants": [targets[slot] for slot in slots]},
                        [request.attachments[slot] for slot in slots],
                    )
                ]
                for owner, slots in slots_by_owner.items()
            }
        )
        grant_ids: List[Optional[int]] = [None] * len(targets)
        for owner in sorted(slots_by_owner):
            slots = slots_by_owner[owner]
            response = responses_by_owner[owner][0]
            if not response.ok:
                return response
            for slot, grant_id in zip(slots, response.result["grant_ids"]):
                grant_ids[slot] = int(grant_id)
        return Response.success({"grant_ids": grant_ids})


class StreamRouter:
    """The sharded tier's front door: routing table + proxy behind TCP."""

    def __init__(
        self,
        table_ref: Optional[RoutingTableRef] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        timeout: float = 30.0,
    ) -> None:
        self.table_ref = table_ref if table_ref is not None else RoutingTableRef()
        self._dispatcher = RouterDispatcher(self.table_ref, timeout=timeout)
        self._server = TimeCryptTCPServer(
            host=host,
            port=port,
            max_workers=max_workers,
            dispatcher=self._dispatcher,
            node_name="router",
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    @property
    def table(self) -> ShardRoutingTable:
        return self.table_ref.table

    def set_engines(self, engines) -> ShardRoutingTable:
        return self.table_ref.set_engines(engines)

    def add_engine(self, name: str, host: str, port: int) -> ShardRoutingTable:
        return self.table_ref.add_engine(name, host, port)

    def remove_engine(self, name: str) -> ShardRoutingTable:
        address = self.table_ref.table.address_of(name)
        table = self.table_ref.remove_engine(name)
        self._dispatcher.connections.drop(address)
        return table

    def start(self) -> "StreamRouter":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()
        self._dispatcher.close()

    def __enter__(self) -> "StreamRouter":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()


def deploy_sharded_engines(
    engines: Mapping[str, ServerEngine],
    host: str = "127.0.0.1",
    max_workers: int = 8,
    timeout: float = 30.0,
    shard_factory: Optional[Callable[..., EngineShardServer]] = None,
) -> Tuple[StreamRouter, Dict[str, EngineShardServer]]:
    """Start one shard server per engine plus a router that fronts them.

    Shards bind ephemeral ports first, then the shared table is populated
    with the real addresses (epoch 1) and the router starts.  The caller
    owns shutdown: stop the router, then the shards.
    """
    if not engines:
        raise ValueError("a sharded deployment needs at least one engine")
    table_ref = RoutingTableRef()
    make_shard = shard_factory if shard_factory is not None else EngineShardServer
    shards: Dict[str, EngineShardServer] = {}
    router: Optional[StreamRouter] = None
    try:
        for name in sorted(engines):
            shards[name] = make_shard(
                name, engines[name], table_ref, host=host, max_workers=max_workers
            ).start()
        table_ref.set_engines(
            [(name, *shard.address) for name, shard in sorted(shards.items())]
        )
        router = StreamRouter(table_ref, host=host, max_workers=max_workers, timeout=timeout)
        router.start()
        return router, shards
    except BaseException:
        if router is not None:
            router.stop()
        for shard in shards.values():
            shard.stop()
        raise
