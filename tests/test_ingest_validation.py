"""The engine refuses malformed chunk digests before writing anything.

A digest whose width differs from the stream's digest layout, or one of whose
cells does not cover exactly the chunk's window ``[w, w+1)``, would otherwise
land in the index and make every later well-formed chunk of the stream fail.
"""

from __future__ import annotations

import pytest

from repro.crypto.heac import HEACCiphertext
from repro.exceptions import QueryError
from repro.net.client import RemoteServerClient
from repro.net.server import TimeCryptTCPServer
from repro.server.engine import ServerEngine
from repro.timeseries.serialization import EncryptedChunk, chunk_storage_key
from repro.timeseries.stream import StreamMetadata
from repro.util.timeutil import TimeRange


def _digest(width, window, interval=None):
    start, end = interval or (window, window + 1)
    return [HEACCiphertext(component + 1, start, end) for component in range(width)]


def _malformed_digests(width, window):
    """Every way a chunk's digest can be malformed, for a chunk at ``window ≥ 1``."""
    well_formed = _digest(width, window)
    shifted = list(well_formed)
    shifted[-1] = HEACCiphertext(9, window + 1, window + 2)
    return [
        well_formed[:-1],  # too narrow
        well_formed + [HEACCiphertext(9, window, window + 1)],  # too wide
        [],
        _digest(width, window, (window, window + 2)),  # wider interval
        _digest(width, window, (window - 1, window)),  # the previous window
        shifted,  # one cell off
    ]


@pytest.fixture
def stream(small_config):
    engine = ServerEngine()
    metadata = StreamMetadata.new(owner_id="o", config=small_config)
    engine.create_stream(metadata)
    return engine, metadata.uuid, small_config.digest.width


def _chunk(uuid, window, digest):
    return EncryptedChunk(uuid, window, b"sealed", digest, 1)


def _assert_untouched(engine, uuid, head):
    assert engine.stream_head(uuid) == head
    assert engine.store.get(chunk_storage_key(uuid, head)) is None


def _assert_stream_still_works(insert_chunk, stat_range, uuid, width, head):
    for window in range(head, head + 3):
        insert_chunk(_chunk(uuid, window, _digest(width, window)))
    result = stat_range(uuid, TimeRange(0, (head + 3) * 1_000))
    assert [cell.value for cell in result.cells] == [
        (component + 1) * (head + 3) for component in range(width)
    ]


def test_engine_refuses_malformed_digests(stream):
    engine, uuid, width = stream
    engine.insert_chunk(_chunk(uuid, 0, _digest(width, 0)))
    good = _chunk(uuid, 1, _digest(width, 1))
    for single, in_batch in zip(_malformed_digests(width, 1), _malformed_digests(width, 2)):
        with pytest.raises(QueryError):
            engine.insert_chunk(_chunk(uuid, 1, single))
        with pytest.raises(QueryError):
            engine.validate_chunk_batch([_chunk(uuid, 1, single)])
        with pytest.raises(QueryError):
            engine.insert_chunks([good, _chunk(uuid, 2, in_batch)])
        _assert_untouched(engine, uuid, 1)
    _assert_stream_still_works(engine.insert_chunk, engine.stat_range, uuid, width, 1)


def test_wire_refuses_malformed_digests(stream):
    engine, uuid, width = stream
    good = _chunk(uuid, 1, _digest(width, 1))
    with TimeCryptTCPServer(engine) as tcp_server:
        host, port = tcp_server.address
        with RemoteServerClient(host, port) as remote:
            remote.insert_chunk(_chunk(uuid, 0, _digest(width, 0)))
            for single, in_batch in zip(_malformed_digests(width, 1), _malformed_digests(width, 2)):
                with pytest.raises(QueryError):
                    remote.insert_chunk(_chunk(uuid, 1, single))
                with pytest.raises(QueryError):
                    remote.insert_chunks([good, _chunk(uuid, 2, in_batch)])
                _assert_untouched(engine, uuid, 1)
            _assert_stream_still_works(remote.insert_chunk, remote.stat_range, uuid, width, 1)
