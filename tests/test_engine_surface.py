"""Parity of the ServerEngine method surface across its implementations.

One op script runs against an in-process :class:`ServerEngine`, a
:class:`RemoteServerClient` to a TCP server, a :class:`ShardedServerClient`
over two engine shards (streams on both), and the client's ``pipeline()``.
Every result must equal the engine's, down to the result types — fetched
grants and envelopes are owned ``bytes``, never views over a frame buffer —
and every error must match the engine's in type and message.
The wire methods must also keep the engine's call signatures, so any of
these handles is a drop-in ``TimeCrypt(server=...)``.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Any, Iterator, List, Tuple

import pytest

from repro import ServerEngine
from repro.exceptions import TimeCryptError
from repro.net.client import _ENGINE_OPS, RemoteServerClient, ShardedServerClient
from repro.net.messages import ShardRoutingTable
from repro.net.server import TimeCryptTCPServer
from repro.util.timeutil import TimeRange
from tests.test_engine_sharding import (
    CHUNK_INTERVAL,
    _sharded_deployment,
    _stop_all,
    _streams_spanning_owners,
)

TARGETS = ("engine", "remote", "sharded", "pipeline")
CLIENTS = ("remote", "sharded", "pipeline")
NUM_CHUNKS = 8


@pytest.fixture(scope="module")
def streams():
    """Three encrypted streams; the first two live on different shards of a
    2-engine tier (placement depends on engine names only)."""
    table = ShardRoutingTable([(f"engine-{index}", "127.0.0.1", index) for index in range(2)])
    by_owner = {}
    for item in _streams_spanning_owners(table, 3, NUM_CHUNKS):
        by_owner.setdefault(table.owner_of(item[0].uuid), []).append(item)
    first, second = by_owner.values()
    return [first[0], second[0], (first[1:] + second[1:])[0]]


class _OnePerPipeline:
    """Runs every engine call through its own ``pipeline()`` flush."""

    def __init__(self, client: RemoteServerClient) -> None:
        self._client = client
        self.token_store = client.token_store

    def __getattr__(self, name: str) -> Any:
        def call(*args: Any, **kwargs: Any) -> Any:
            with self._client.pipeline() as batch:
                handle = getattr(batch, name)(*args, **kwargs)
            return handle.result()

        return call


@contextmanager
def _target(kind: str) -> Iterator[Any]:
    if kind == "engine":
        yield ServerEngine()
    elif kind == "sharded":
        _store, router, shards = _sharded_deployment(2)
        try:
            with ShardedServerClient(*router.address, timeout=10.0) as client:
                yield client
        finally:
            _stop_all(router, shards)
    else:
        with TimeCryptTCPServer(ServerEngine()) as server:
            with RemoteServerClient(*server.address, timeout=10.0) as client:
                yield client if kind == "remote" else _OnePerPipeline(client)


def _outcome(call, *args: Any, **kwargs: Any) -> Any:
    try:
        return call(*args, **kwargs)
    except TimeCryptError as exc:
        return type(exc), str(exc)


def _run_script(handle: Any, streams) -> List[Tuple[str, Any]]:
    """Every wire op of the engine surface, in an order that exercises each."""
    a, b, c = (metadata.uuid for metadata, _chunks in streams)
    full = TimeRange(0, NUM_CHUNKS * CHUNK_INTERVAL)
    out: List[Tuple[str, Any]] = []
    for metadata, chunks in streams:
        out.append(("create_stream", handle.create_stream(metadata)))
        out.append(("insert_chunk", handle.insert_chunk(chunks[0])))
        out.append(("insert_chunks", handle.insert_chunks(chunks[1:])))
    out += [
        ("insert_chunks of none", _outcome(handle.insert_chunks, [])),
        ("stream_head", [handle.stream_head(uuid) for uuid in (a, b, c)]),
        ("stream_metadata", handle.stream_metadata(b)),
        ("get_range", handle.get_range(a, TimeRange(CHUNK_INTERVAL, 4 * CHUNK_INTERVAL))),
        ("stat_range", handle.stat_range(b, full)),
        ("stat_series", handle.stat_series(c, full, granularity_windows=3)),
        ("stat_range_multi", handle.stat_range_multi([a, b, c], full)),
        ("stat_range_multi of none", _outcome(handle.stat_range_multi, [], full)),
        ("put_grant", handle.put_grant(a, "alice", b"sealed-a")),
        ("put_grants", handle.put_grants([(b, "alice", b"sealed-b"), (a, "alice", b"again-a")])),
        ("put_grants of none", handle.put_grants([])),
        ("fetch_grants", [handle.fetch_grants(uuid, "alice") for uuid in (a, b, c)]),
        ("put_envelopes", handle.token_store.put_envelopes(c, 4, {4: b"env4", 0: b"env0"})),
        ("fetch_envelopes", handle.fetch_envelopes(c, 4, 0, 8)),
        ("delete_range", handle.delete_range(a, TimeRange(0, 2 * CHUNK_INTERVAL))),
        ("get_range after delete", handle.get_range(a, full)),
        ("rollup_stream", handle.rollup_stream(b, 4, before_time=None)),
        ("delete_stream", handle.delete_stream(c)),
        ("stream_head after delete", _outcome(handle.stream_head, c)),
        ("fetch_grants after delete", _outcome(handle.fetch_grants, c, "alice")),
    ]
    return out


def _shape(value: Any) -> Any:
    """The type structure of a result, containers included."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_shape(item) for item in value])
    if isinstance(value, dict):
        return ("dict", sorted((type(key).__name__, _shape(item)) for key, item in value.items()))
    return type(value).__name__


@pytest.mark.parametrize("kind", TARGETS)
def test_op_script_matches_the_in_process_engine(kind, streams):
    with _target("engine") as engine:
        expected = _run_script(engine, streams)
    with _target(kind) as handle:
        if kind == "sharded":
            table = handle.routing_table
            assert len({table.owner_of(metadata.uuid) for metadata, _ in streams}) == 2
        observed = _run_script(handle, streams)
    assert [label for label, _ in observed] == [label for label, _ in expected]
    for (label, got), (_label, want) in zip(observed, expected):
        assert got == want, label
        assert _shape(got) == _shape(want), label


@pytest.mark.parametrize("kind", CLIENTS)
def test_fetched_grants_and_envelopes_are_bytes(kind, streams):
    """Copy-on-retain: a fetched token must not pin the response frame."""
    with _target(kind) as handle:
        for metadata, _chunks in streams:
            handle.create_stream(metadata)
            handle.put_grant(metadata.uuid, "bob", b"sealed-" + metadata.uuid.encode())
            handle.token_store.put_envelopes(metadata.uuid, 2, {0: b"e0", 2: b"e2"})
        store = handle.token_store
        for metadata, _chunks in streams:
            uuid = metadata.uuid
            for grants in (handle.fetch_grants(uuid, "bob"), store.grants_for(uuid, "bob")):
                assert [type(grant) for grant in grants] == [bytes]
            for by_window in (
                handle.fetch_envelopes(uuid, 2, 0, 4),
                store.envelopes_for_range(uuid, 2, 0, 4),
            ):
                assert by_window == {0: b"e0", 2: b"e2"}
                assert {type(blob) for blob in by_window.values()} == {bytes}


@pytest.mark.parametrize("client_cls", (RemoteServerClient, ShardedServerClient))
def test_wire_methods_keep_the_engine_signatures(client_cls):
    for name, op in _ENGINE_OPS.items():
        engine_signature = inspect.signature(getattr(ServerEngine, name))
        assert inspect.signature(getattr(client_cls, name)) == engine_signature, name
        # Keyword calls reach the request builder under the engine's names.
        engine_params = list(engine_signature.parameters)[1:]
        assert list(inspect.signature(op.build).parameters) == engine_params, name
