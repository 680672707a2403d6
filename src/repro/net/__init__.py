"""Client/server transport: the Netty + protobuf stand-in.

The original prototype exposes the TimeCrypt API over Netty with protobuf
messages.  Here the wire format is a hand-rolled length-prefixed binary
protocol (:mod:`repro.net.messages`, :mod:`repro.net.framing`) carried over
real TCP sockets (:mod:`repro.net.server`, :mod:`repro.net.client`).

The wire is **pipelined and request-multiplexed**: every frame carries a
per-request correlation id (see :mod:`repro.net.framing` for the header
layout), the server dispatches frames from a bounded, two-class scheduled
worker pool and answers out of order, and the client multiplexes any number
of in-flight requests over one connection under a credit window —
``call_many`` / ``pipeline()`` ship whole request batches in a single round
trip.  ``hello`` negotiates capabilities (operations, credit window,
compression, tracing) up front, and :class:`ConnectionCache` is the one
place cached connections are dialled.
"""

from repro.net.client import ConnectionCache, RemoteServerClient, RequestPipeline, WireStats
from repro.net.framing import Frame, FrameAssembler, FrameReader, encode_frame_segments_v2, write_vectored
from repro.net.messages import Request, Response
from repro.net.server import RequestDispatcher, TimeCryptTCPServer, WireDispatcher

__all__ = [
    "Request",
    "Response",
    "WireDispatcher",
    "Frame",
    "FrameAssembler",
    "FrameReader",
    "encode_frame_segments_v2",
    "write_vectored",
    "RequestDispatcher",
    "TimeCryptTCPServer",
    "RemoteServerClient",
    "ConnectionCache",
    "RequestPipeline",
    "WireStats",
]
