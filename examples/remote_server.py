#!/usr/bin/env python3
"""Client/server deployment: TimeCrypt over the pipelined TCP wire protocol.

The other examples talk to an in-process server engine.  This one runs the
server behind the framed TCP protocol (the Netty/protobuf stand-in) and
drives it through :class:`repro.net.client.RemoteServerClient`, demonstrating
that the client engines work unchanged against a remote server — the server
still only ever sees ciphertexts.

The connection is pipelined and request-multiplexed: the client
negotiates capabilities (operations, credit window) with a ``hello`` at
connect, an N-chunk
ingest batch ships as one framed ``insert_chunks`` request, a cohort grant
burst is one ``put_grants`` request, and heterogeneous call batches
collapse into a single round trip through ``client.pipeline()``.  The
``wire_stats`` counters printed below make the round-trip savings visible.

Run it with ``python examples/remote_server.py``.
"""

from __future__ import annotations

from repro import Principal, ServerEngine, StreamConfig, TimeCrypt, TimeCryptConsumer
from repro.net.client import RemoteServerClient
from repro.net.server import TimeCryptTCPServer
from repro.util.timeutil import TimeRange


def main() -> None:
    engine = ServerEngine()
    with TimeCryptTCPServer(engine) as tcp_server:
        host, port = tcp_server.address
        print(f"TimeCrypt server listening on {host}:{port}")

        with RemoteServerClient(host, port) as remote:
            print(
                f"negotiated protocol v{remote.hello_info['protocol']}, "
                f"credit window {remote.credit_window}, ping: {remote.ping()}"
            )

            # The owner-side client is identical to the in-process case; only the
            # server handle differs.
            owner = TimeCrypt(server=remote, owner_id="alice")
            config = StreamConfig(chunk_interval=5_000, value_scale=100)
            stream = owner.create_stream(metric="temperature", unit="celsius", config=config)

            records = [(t * 1000, 21.5 + 0.01 * (t % 300)) for t in range(1800)]
            remote.wire_stats.reset()
            owner.insert_records(stream, records)
            owner.flush(stream)
            print(
                f"ingested {len(records)} records over TCP "
                f"({remote.stream_head(stream)} encrypted chunks stored, "
                f"{remote.wire_stats.round_trips - 1} ingest round trips)"
            )

            stats = owner.get_stat_range(stream, 0, 1_800_000, operators=("count", "mean", "stdev"))
            print("owner query over the wire:", {k: round(stats[k], 3) for k in ("count", "mean", "stdev")})

            # A cohort grant burst crosses the wire as one put_grants request.
            cohort = [Principal.create(f"auditor-{index}") for index in range(3)]
            for principal in cohort:
                owner.register_principal(principal)
            remote.wire_stats.reset()
            owner.grant_access_many(
                stream, [(p.principal_id, 0, 900_000, None) for p in cohort]
            )
            print(
                f"granted {len(cohort)} principals in "
                f"{remote.wire_stats.round_trips} wire round trip(s)"
            )

            # Heterogeneous call batches pipeline into a single round trip.
            remote.wire_stats.reset()
            with remote.pipeline() as batch:
                head = batch.stream_head(stream)
                first_chunks = batch.get_range(stream, TimeRange(0, 60_000))
                grants = [batch.fetch_grants(stream, p.principal_id) for p in cohort]
            print(
                f"pipelined {2 + len(cohort)} calls in "
                f"{remote.wire_stats.round_trips} round trip: head={head.result()}, "
                f"{len(first_chunks.result())} chunks, "
                f"{sum(len(g.result()) for g in grants)} sealed grants picked up"
            )

            consumer = TimeCryptConsumer(server=remote, principal=cohort[0])
            consumer.fetch_access(stream, config)
            print(
                "auditor query over the wire:",
                consumer.get_stat_range(stream, 0, 900_000, operators=("count", "mean")),
            )

        print("server shutting down")


if __name__ == "__main__":
    main()
