"""Checkpoint container: malformed weight records and byte-level fuzzing."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from papnf.checkpoint import MAGIC, CheckpointError, read_container, write_container

HEADER = b'{"kind":"model"}'


def wrapped(body: bytes, header: bytes = HEADER) -> bytes:
    """A container with a valid magic, header and CRC around ``body``."""
    return (
        MAGIC + struct.pack("<I", len(header)) + header + body
        + struct.pack("<I", zlib.crc32(body))
    )


def record(name: bytes, dims: tuple[int, ...], values: bytes) -> bytes:
    return (
        struct.pack("<I", len(name)) + name + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
        + values
    )


def test_round_trip_through_the_record_layout(tmp_path):
    weights = {"a": np.arange(6.0).reshape(2, 3), "b": np.zeros(0), "c": np.zeros((3, 0))}
    path = str(tmp_path / "w.papnf")
    write_container(path, {"kind": "model"}, weights)
    header, loaded = read_container(path)
    assert header == {"kind": "model"}
    for name, arr in weights.items():
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_zero_d_weight_keeps_its_shape(tmp_path):
    path = str(tmp_path / "s.papnf")
    write_container(path, {}, {"s": np.array(2.5), "t": np.arange(6.0).reshape(2, 3).T})
    _, loaded = read_container(path)
    assert loaded["s"].shape == () and loaded["s"] == 2.5
    assert np.array_equal(loaded["t"], np.arange(6.0).reshape(2, 3).T)


@pytest.mark.parametrize(
    "body",
    [
        record(b"w", (10,), np.zeros(1).tobytes()),  # values run past the body
        record(b"w", (2**16,) * 4, b""),  # dims whose product overflows int64
        record(b"w", (0, 2**32 - 1, 2**32 - 1), b""),  # empty, but too big to address
        record(b"w", (2**32 - 1,) * 3 + (0,), b""),
        struct.pack("<II", 1, 0),  # name runs past the body
        record(b"\xff", (), np.zeros(1).tobytes()),  # name is not UTF-8
    ],
    ids=["past-body", "dims-overflow", "huge-empty", "huge-empty-last", "short-name", "bad-name"],
)
def test_malformed_weight_record_is_a_checkpoint_error(tmp_path, body):
    path = tmp_path / "c.papnf"
    path.write_bytes(wrapped(body))
    with pytest.raises(CheckpointError, match="corrupt weight record") as err:
        read_container(str(path))
    assert str(path) in str(err.value)


def test_duplicate_weight_name_is_rejected(tmp_path):
    one = record(b"w", (1,), np.ones(1).tobytes())
    path = tmp_path / "c.papnf"
    path.write_bytes(wrapped(one + one))
    with pytest.raises(CheckpointError, match="duplicate weight 'w'") as err:
        read_container(str(path))
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "header", [b"1" * 5000, b"[" * 100_000, b"\xff"], ids=["long-int", "deep", "not-utf8"]
)
def test_unreadable_header_is_a_checkpoint_error(tmp_path, header):
    path = tmp_path / "c.papnf"
    path.write_bytes(wrapped(b"", header))
    with pytest.raises(CheckpointError, match="unreadable header"):
        read_container(str(path))


def _read_or_checkpoint_error(tmp_path, blob: bytes) -> None:
    """Anything but a (dict, dict) result or a CheckpointError fails the test."""
    path = tmp_path / "fuzz.papnf"
    path.write_bytes(blob)
    try:
        header, weights = read_container(str(path))
    except CheckpointError as err:
        assert str(path) in str(err)
        return
    assert isinstance(header, dict) and isinstance(weights, dict)


_fuzz = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_fuzz
@given(blob=st.binary(max_size=200) | st.binary(max_size=200).map(lambda b: MAGIC + b))
def test_fuzz_arbitrary_blobs(tmp_path, blob):
    _read_or_checkpoint_error(tmp_path, blob)


# bodies built from plausible pieces reach deeper into the record parser than
# uniform bytes, which nearly always fail at the first length field
_u32 = st.sampled_from([0, 1, 2, 3, 8, 2**16, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)
_piece = st.one_of(
    _u32.map(lambda v: struct.pack("<I", v)),
    st.sampled_from([b"w", b"pos", b"\xff", b""]),
    st.integers(0, 4).map(lambda n: np.arange(float(n)).tobytes()),
    st.binary(max_size=16),
)


@_fuzz
@given(body=st.lists(_piece, max_size=12).map(b"".join) | st.binary(max_size=120))
def test_fuzz_bodies_inside_a_valid_envelope(tmp_path, body):
    _read_or_checkpoint_error(tmp_path, wrapped(body))
