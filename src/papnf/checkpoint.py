"""Binary checkpoint container.

Layout (all integers little-endian):

    magic   7 bytes  b"PAPNF1\\0"
    u32     header length in bytes
    header  canonical JSON (sorted keys, no spaces), UTF-8
    body    per weight, sorted by name:
                u32 name length, name UTF-8,
                u32 rank, u32 per dimension,
                raw float64 values (little-endian, C order)
    u32     CRC-32 of the body bytes

The header carries the config needed to rebuild the owning object and is
validated on load; a corrupted body fails the CRC check.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

MAGIC = b"PAPNF1\x00"


class CheckpointError(ValueError):
    """Unreadable, corrupted or architecturally mismatched checkpoint."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_container(path: str, header: dict, weights: dict[str, np.ndarray]) -> None:
    header_bytes = canonical_json(header).encode("utf-8")
    body = bytearray()
    for name in sorted(weights):
        arr = np.asarray(weights[name], dtype="<f8")  # keeps rank 0; tobytes() is C order
        name_bytes = name.encode("utf-8")
        body += struct.pack("<I", len(name_bytes))
        body += name_bytes
        body += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            body += struct.pack("<I", dim)
        body += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(bytes(body))
        fh.write(struct.pack("<I", zlib.crc32(bytes(body))))


def read_container(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 8 or not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a PAPNF checkpoint (bad magic)")
    off = len(MAGIC)
    (header_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    if off + header_len + 4 > len(blob):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[off : off + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, overlong ints, deep nesting
        raise CheckpointError(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    off += header_len
    body = blob[off:-4]
    (crc_stored,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(body) != crc_stored:
        raise CheckpointError(f"{path}: body CRC mismatch, file is corrupted")

    weights: dict[str, np.ndarray] = {}
    pos = 0
    while pos < len(body):
        try:
            (name_len,) = struct.unpack_from("<I", body, pos)
            pos += 4
            name = body[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", body, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", body, pos)
            pos += 4 * rank
            count = math.prod(dims)
            arr = np.frombuffer(body, dtype="<f8", count=count, offset=pos).reshape(dims)
            pos += 8 * count
        except (struct.error, ValueError, OverflowError) as exc:
            # ValueError: a non-UTF-8 name, values past the body, dims numpy cannot hold
            raise CheckpointError(f"{path}: corrupt weight record ({exc})") from None
        if name in weights:
            raise CheckpointError(f"{path}: duplicate weight {name!r}")
        weights[name] = arr.astype(np.float64).copy()
    return header, weights
