"""The one connection dialler: :class:`~repro.net.client.ConnectionCache`.

Every cached connection in the repo — the sharded client's router and
shard connections, the router's proxy hop, the remote storage client — goes
through this helper.  Covers its contract (dial once, double-checked
install, drop-on-failure only of the installed client, failed dials never
cached) and the two first-call dial races: concurrent first calls on a
fresh :class:`ShardedServerClient` must leave no losing connection open,
and concurrent first calls on :class:`RouterDispatcher` must not close the
connection another thread was handed.
"""

from __future__ import annotations

import threading
from functools import partial

import pytest

from repro import ServerEngine
from repro.exceptions import TransportError
from repro.net.client import ConnectionCache, RemoteServerClient, ShardedServerClient
from repro.net.messages import Request
from repro.net.server import TimeCryptTCPServer
from repro.server.router import RouterDispatcher, RoutingTableRef, deploy_sharded_engines

THREADS = 8


@pytest.fixture
def opened(monkeypatch):
    """Every RemoteServerClient constructed while the test runs."""
    clients = []
    original_init = RemoteServerClient.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        clients.append(self)

    monkeypatch.setattr(RemoteServerClient, "__init__", tracking_init)
    return clients


def _in_parallel(action, threads: int = THREADS) -> list:
    """Run ``action()`` on ``threads`` threads released together; collect errors."""
    barrier = threading.Barrier(threads)
    errors = []

    def run() -> None:
        try:
            barrier.wait(timeout=10)
            action()
        except Exception as exc:  # noqa: BLE001 — collected for the main thread
            errors.append(exc)

    workers = [threading.Thread(target=run) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
    return errors


@pytest.fixture
def server():
    with TimeCryptTCPServer(ServerEngine()) as tcp:
        yield tcp


def test_get_dials_once_and_reuses(server, opened):
    cache = ConnectionCache(timeout=5.0)
    try:
        first = cache.get(server.address)
        assert cache.get(server.address) is first
        assert cache.peek(server.address) is first
        assert cache.clients() == [first]
        assert len(opened) == 1
    finally:
        cache.close()
    assert first._closed and cache.clients() == []


def test_concurrent_first_gets_share_one_connection(server, opened):
    cache = ConnectionCache(timeout=5.0)
    got = []
    errors = _in_parallel(lambda: got.append(cache.get(server.address)))
    try:
        assert not errors
        assert len({id(client) for client in got}) == 1
        # Every racing loser was closed; only the installed one is open.
        assert [client for client in opened if not client._closed] == [got[0]]
    finally:
        cache.close()


def test_drop_only_closes_the_installed_client(server):
    cache = ConnectionCache(timeout=5.0)
    try:
        stale = cache.get(server.address)
        cache.drop(server.address)
        assert stale._closed and cache.peek(server.address) is None
        fresh = cache.get(server.address)
        # A late drop for the connection that already failed must not close
        # the one a racing caller redialled in the meantime.
        cache.drop(server.address, stale)
        assert cache.peek(server.address) is fresh and not fresh._closed
    finally:
        cache.close()


def test_transport_failure_drops_and_next_call_redials(server):
    cache = ConnectionCache(timeout=5.0)
    try:
        client = cache.get(server.address)
        client.close()  # the connection dies under the cache
        with pytest.raises(TransportError):
            cache.call_many(server.address, [Request("ping")])
        assert cache.peek(server.address) is None
        (response,) = cache.call_many(server.address, [Request("ping")])
        assert response.ok and response.result["pong"] is True
    finally:
        cache.close()


def test_failed_prepare_closes_the_client_and_caches_nothing(server, opened):
    def refuse(_client: RemoteServerClient) -> None:
        raise TransportError("wrong peer")

    cache = ConnectionCache(prepare=refuse, timeout=5.0)
    with pytest.raises(TransportError, match="wrong peer"):
        cache.get(server.address)
    assert cache.peek(server.address) is None
    assert len(opened) == 1 and opened[0]._closed


def test_sharded_client_first_call_race_leaves_nothing_open(opened):
    """Racing first ``_engine_client`` calls must not leak the losers."""
    router, shards = deploy_sharded_engines({"a": ServerEngine(), "b": ServerEngine()})
    try:
        for _trial in range(3):
            client = ShardedServerClient(*router.address, timeout=10.0)
            errors = _in_parallel(partial(client._engine_client, "a"))
            client.close()
            assert not errors
            assert [c for c in opened if not c._closed] == []
    finally:
        router.stop()
        for shard in shards.values():
            shard.stop()


def _first_call_and_ping(dispatcher: RouterDispatcher, pongs: list) -> None:
    pongs.append(dispatcher._engine_client("e0").ping())


def test_router_first_call_race_fails_no_ping(server):
    """Racing first calls must not close the connection another thread got."""
    table_ref = RoutingTableRef()
    table_ref.set_engines([("e0", *server.address)])
    for _trial in range(3):
        dispatcher = RouterDispatcher(table_ref, timeout=10.0)
        pongs = []
        errors = _in_parallel(partial(_first_call_and_ping, dispatcher, pongs))
        dispatcher.close()
        assert errors == [] and pongs == [True] * THREADS
