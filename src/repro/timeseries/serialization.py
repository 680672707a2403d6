"""Binary serialization of encrypted chunks and digests (the storage format).

What the server stores per chunk window (paper §4.1, §4.6):

* an **encrypted chunk blob** — compressed points sealed with AES-GCM under a
  key derived from the HEAC keystream; opaque to the server,
* an **encrypted digest vector** — one HEAC ciphertext per digest component,
  which the server *can* aggregate (but not decrypt).

A digest vector tags every cell with its window interval.  An index node's
cells all share the node's interval and are held as ring integers, so the
index (de)serializes them with :func:`encode_digest_cells` and
:func:`decode_digest_cells`: the same bytes, with the interval written from
and checked against the node header.

Records are keyed by ``stream-id || window-encoding`` (see
:func:`chunk_storage_key`), mirroring the paper's "identifier computed
on-the-fly from the temporal range boundaries" design.

The formats below are deliberately simple length-prefixed structures; they
stand in for the protobuf messages of the original prototype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.crypto.heac import HEACCiphertext
from repro.exceptions import ChunkError
from repro.util.encoding import decode_varint, encode_varint

_MAGIC_CHUNK = b"TCC1"
_MAGIC_DIGEST = b"TCD1"


@dataclass(frozen=True)
class EncryptedChunk:
    """An encrypted chunk as stored by the server."""

    stream_uuid: str
    window_index: int
    payload: bytes  # AEAD blob over the compressed points
    digest: List[HEACCiphertext]
    num_points: int

    @property
    def size_bytes(self) -> int:
        return len(self.payload) + 8 * len(self.digest)


def encode_digest_vector(digest: Sequence[HEACCiphertext]) -> bytes:
    """Serialize a vector of HEAC ciphertexts."""
    parts = [_MAGIC_DIGEST, encode_varint(len(digest))]
    bounds = None
    for ciphertext in digest:
        # A chunk's cells all cover its window: encode the interval once.
        if bounds != (ciphertext.window_start, ciphertext.window_end):
            bounds = (ciphertext.window_start, ciphertext.window_end)
            interval = encode_varint(bounds[0]) + encode_varint(bounds[1])
        parts.append(ciphertext.value.to_bytes(8, "big") + interval)
    return b"".join(parts)


def _iter_digest_cells(blob: bytes) -> Iterator[Tuple[int, int, int]]:
    """``(value, window_start, window_end)`` of every cell of a digest vector blob."""
    if blob[:4] != _MAGIC_DIGEST:
        raise ChunkError("not a digest vector blob")
    count, pos = decode_varint(blob, 4)
    for _ in range(count):
        if pos + 8 > len(blob):
            raise ChunkError("truncated digest vector")
        value = int.from_bytes(blob[pos : pos + 8], "big")
        pos += 8
        window_start, pos = decode_varint(blob, pos)
        window_end, pos = decode_varint(blob, pos)
        yield value, window_start, window_end


def decode_digest_vector(blob: bytes) -> List[HEACCiphertext]:
    """Inverse of :func:`encode_digest_vector`."""
    return [
        HEACCiphertext(value=value, window_start=window_start, window_end=window_end)
        for value, window_start, window_end in _iter_digest_cells(blob)
    ]


def encode_digest_cells(values: Sequence[int], window_start: int, window_end: int) -> bytes:
    """:func:`encode_digest_vector` of ring-integer cells that all cover one interval."""
    interval = encode_varint(window_start) + encode_varint(window_end)
    return (
        _MAGIC_DIGEST
        + encode_varint(len(values))
        + b"".join([value.to_bytes(8, "big") + interval for value in values])
    )


def decode_digest_cells(blob: bytes, window_start: int, window_end: int) -> List[int]:
    """Inverse of :func:`encode_digest_cells`; every cell must cover ``[start, end)``."""
    values: List[int] = []
    for value, cell_start, cell_end in _iter_digest_cells(blob):
        if cell_start != window_start or cell_end != window_end:
            raise ChunkError(
                f"digest cell covers [{cell_start}, {cell_end}), its node covers "
                f"[{window_start}, {window_end})"
            )
        values.append(value)
    return values


def encode_encrypted_chunk(chunk: EncryptedChunk) -> bytes:
    """Serialize an :class:`EncryptedChunk` for storage or the wire."""
    uuid_bytes = chunk.stream_uuid.encode("utf-8")
    digest_blob = encode_digest_vector(chunk.digest)
    out = bytearray(_MAGIC_CHUNK)
    out += encode_varint(len(uuid_bytes))
    out += uuid_bytes
    out += encode_varint(chunk.window_index)
    out += encode_varint(chunk.num_points)
    out += encode_varint(len(digest_blob))
    out += digest_blob
    out += encode_varint(len(chunk.payload))
    out += chunk.payload
    return bytes(out)


def decode_encrypted_chunk(blob: bytes) -> EncryptedChunk:
    """Inverse of :func:`encode_encrypted_chunk`.

    Accepts any bytes-like ``blob`` (the zero-copy wire path hands in
    memoryviews over frame buffers).  The returned chunk owns its payload as
    real bytes — chunks outlive the frame they arrived in.
    """
    if blob[:4] != _MAGIC_CHUNK:
        raise ChunkError("not an encrypted chunk blob")
    pos = 4
    uuid_len, pos = decode_varint(blob, pos)
    stream_uuid = bytes(blob[pos : pos + uuid_len]).decode("utf-8")
    pos += uuid_len
    window_index, pos = decode_varint(blob, pos)
    num_points, pos = decode_varint(blob, pos)
    digest_len, pos = decode_varint(blob, pos)
    digest = decode_digest_vector(blob[pos : pos + digest_len])
    pos += digest_len
    payload_len, pos = decode_varint(blob, pos)
    payload = bytes(blob[pos : pos + payload_len])
    if len(payload) != payload_len:
        raise ChunkError("truncated chunk payload")
    return EncryptedChunk(
        stream_uuid=stream_uuid,
        window_index=window_index,
        payload=payload,
        digest=digest,
        num_points=num_points,
    )


def peek_chunk_stream_uuid(blob: bytes) -> str:
    """The stream uuid of an encoded chunk, without decoding the chunk.

    The shard router needs only the uuid to place an ingest request; the
    encoding puts it right after the magic so routing costs one varint and a
    short slice instead of a full digest/payload decode.
    """
    if blob[:4] != _MAGIC_CHUNK:
        raise ChunkError("not an encrypted chunk blob")
    uuid_len, pos = decode_varint(blob, 4)
    uuid_bytes = bytes(blob[pos : pos + uuid_len])
    if len(uuid_bytes) != uuid_len:
        raise ChunkError("truncated chunk blob")
    return uuid_bytes.decode("utf-8")


def chunk_storage_key(stream_uuid: str, window_index: int) -> bytes:
    """Storage key of a chunk: stream id plus the window encoding."""
    return f"chunk/{stream_uuid}/{window_index:016x}".encode("ascii")


def index_node_storage_key(stream_uuid: str, level: int, position: int) -> bytes:
    """Storage key of an index node, derived from its temporal coordinates."""
    return f"index/{stream_uuid}/{level:02d}/{position:016x}".encode("ascii")


def metadata_storage_key(stream_uuid: str) -> bytes:
    """Storage key of a stream's metadata record."""
    return f"meta/{stream_uuid}".encode("ascii")
