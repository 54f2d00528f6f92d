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
validated on load by ``check_header``; a corrupted body fails the CRC check.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from papnf.config import ConfigError

MAGIC = b"PAPNF1\x00"


class CheckpointError(ValueError):
    """Unreadable, corrupted or architecturally mismatched checkpoint."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check_header(path: str, header: dict, cls):
    """``cls.from_dict(header)`` for a header whose kind and version are the defaults of ``cls``.

    Every fault, a wrong kind or version first, is a CheckpointError naming ``path``.
    """
    if header.get("kind") != cls.kind:
        raise CheckpointError(
            f"{path}: expected a {cls.kind} checkpoint, found kind {header.get('kind')!r}"
        )
    if header.get("version") != cls.version:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
    try:
        return cls.from_dict(header)
    except ConfigError as err:
        raise CheckpointError(f"{path}: bad header: {err}") from None


def load_weights(targets: dict, weights: dict, what: str) -> None:
    """Assign each weight to the tensor of its name, after one check that names every fault."""
    missing = sorted(targets.keys() - weights.keys())
    extra = sorted(weights.keys() - targets.keys())
    shapes = sorted(n for n in targets if n in weights and np.shape(weights[n]) != targets[n].shape)
    if missing or extra or shapes:
        raise CheckpointError(
            f"{what} do not match (missing {missing}, unexpected {extra}, wrong shape {shapes})"
        )
    for name, t in targets.items():
        t.data = np.array(weights[name], dtype=np.float64)


def write_container(path: str, header: dict, weights: dict[str, np.ndarray]) -> None:
    """Write the container record by record, with the body's CRC computed as it goes."""
    header_bytes = canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        crc = 0
        for name in sorted(weights):
            arr = np.asarray(weights[name], dtype="<f8")  # keeps rank 0
            if not arr.flags.c_contiguous:
                arr = arr.copy(order="C")
            name_bytes = name.encode("utf-8")
            record = struct.pack(
                f"<I{len(name_bytes)}sI{arr.ndim}I", len(name_bytes), name_bytes, arr.ndim,
                *arr.shape,
            )
            values = arr.reshape(-1).view(np.uint8)  # the raw bytes, without a copy
            for chunk in (record, values):
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<I", crc))


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
    body = memoryview(blob)[off:-4]  # parsed in place, not copied
    (crc_stored,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(body) != crc_stored:
        raise CheckpointError(f"{path}: body CRC mismatch, file is corrupted")

    weights: dict[str, np.ndarray] = {}
    pos = 0
    while pos < len(body):
        try:
            (name_len,) = struct.unpack_from("<I", body, pos)
            pos += 4
            name = str(body[pos : pos + name_len], "utf-8")
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
        weights[name] = arr.astype(np.float64)  # a copy, so no weight views the file's bytes
    return header, weights
