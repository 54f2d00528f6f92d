"""CSV loading, chronological splits, sliding windows, per-window scaling.

Input files follow the ETT layout: UTF-8, a mandatory header, a first
``date`` column treated as an opaque string, and one numeric column per
channel. Rows are assumed to be in time order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from papnf.config import DictConfig

__all__ = [
    "CsvFormatError",
    "SplitError",
    "RawSeries",
    "SplitSpec",
    "Scaler",
    "WindowSample",
    "ETT_HOURLY_SPLIT",
    "STD_FLOOR",
    "load_csv",
    "split_series",
    "make_windows",
    "window_count",
    "windows_digest",
]

# Channels with (near-)constant look-backs would divide by ~0 without this.
STD_FLOOR = 1e-6


class CsvFormatError(ValueError):
    """Malformed input file; the message carries the offending line number."""


class SplitError(ValueError):
    """Split lengths incompatible with the series."""


@dataclass(frozen=True)
class RawSeries:
    """A loaded multichannel series: opaque timestamps plus a (T, C) matrix."""

    timestamps: tuple[str, ...]
    values: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"values must be (T, C), got shape {self.values.shape}")
        if len(self.timestamps) != self.values.shape[0]:
            raise ValueError("timestamp count does not match row count")
        if len(self.channel_names) != self.values.shape[1]:
            raise ValueError("channel name count does not match column count")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def load_csv(path: str) -> RawSeries:
    """Load an ETT-style CSV.

    The header's first cell names the timestamp column; every other column is
    a numeric channel. Bytes that are not UTF-8, unparseable CSV, ragged
    rows, non-numeric or non-finite cells (``nan``, ``inf``) and empty files
    are reported with the file line number where they occur.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None
    reader = _csv_rows(csv.reader(io.StringIO(text, newline="")), path)
    try:
        _, header = next(reader)
    except StopIteration:
        raise CsvFormatError(f"{path}: file is empty") from None
    if len(header) < 2:
        raise CsvFormatError(f"{path}: line 1: need a date column plus at least one channel")
    channel_names = tuple(name.strip() for name in header[1:])

    timestamps: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        timestamps.append(row[0])
        try:
            values = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric cell ({exc})") from None
        for name, v in zip(channel_names, values):
            if not math.isfinite(v):
                raise CsvFormatError(
                    f"{path}: line {lineno}: non-finite value {v} in column {name!r}"
                )
        rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows after the header")
    values = np.asarray(rows, dtype=np.float64)
    return RawSeries(tuple(timestamps), values, channel_names)


def _csv_rows(reader, path: str):
    """(line the row ends on, row) pairs; a csv.Error becomes a CsvFormatError."""
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None


@dataclass(frozen=True)
class SplitSpec(DictConfig):
    """Chronological train/validation/test lengths."""

    train_len: int
    val_len: int
    test_len: int

    def __post_init__(self):
        for name, v in (("train_len", self.train_len), ("val_len", self.val_len), ("test_len", self.test_len)):
            if v <= 0:
                raise SplitError(f"{name} must be positive, got {v}")

    @property
    def total(self) -> int:
        return self.train_len + self.val_len + self.test_len


ETT_HOURLY_SPLIT = SplitSpec(8640, 2880, 2880)


def split_series(series: RawSeries, spec: SplitSpec) -> tuple[RawSeries, RawSeries, RawSeries]:
    """Cut the series into contiguous train/val/test segments."""
    if spec.total > series.length:
        raise SplitError(
            f"split needs {spec.total} rows but the series has {series.length}"
        )
    bounds = (0, spec.train_len, spec.train_len + spec.val_len, spec.total)
    parts = []
    for a, b in zip(bounds, bounds[1:]):
        parts.append(
            RawSeries(series.timestamps[a:b], series.values[a:b].copy(), series.channel_names)
        )
    return tuple(parts)


@dataclass(frozen=True)
class Scaler:
    """Per-channel affine scaling fitted on one look-back segment."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Scaler":
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population (1/N) standard deviation
        return cls(mean=mean, std=np.maximum(std, STD_FLOOR))

    def standardize(self, v: np.ndarray) -> np.ndarray:
        return (v - self.mean) / self.std

    def destandardize(self, v: np.ndarray) -> np.ndarray:
        return v * self.std + self.mean


@dataclass(frozen=True)
class WindowSample:
    """One (look-back, horizon) pair with the scaler fitted on the look-back.

    ``x``/``y`` stay on the raw scale; the model consumes ``x_std`` and its
    standardized outputs are mapped back through ``scaler`` before metrics.
    """

    index: int
    x: np.ndarray
    y: np.ndarray
    scaler: Scaler

    @property
    def x_std(self) -> np.ndarray:
        return self.scaler.standardize(self.x)

    @property
    def y_std(self) -> np.ndarray:
        return self.scaler.standardize(self.y)


def window_count(segment_len: int, lookback: int, horizon: int, stride: int = 1) -> int:
    """Number of sliding windows: floor((T - L - H) / stride) + 1, or 0."""
    span = segment_len - lookback - horizon
    if span < 0:
        return 0
    return span // stride + 1


def make_windows(
    series: RawSeries | np.ndarray,
    lookback: int,
    horizon: int,
    stride: int = 1,
) -> list[WindowSample]:
    """Slide (lookback, horizon) windows over one contiguous segment."""
    if lookback <= 0 or horizon <= 0 or stride <= 0:
        raise ValueError("lookback, horizon and stride must be positive")
    values = series.values if isinstance(series, RawSeries) else np.asarray(series, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"segment must be (T, C), got shape {values.shape}")
    n = window_count(values.shape[0], lookback, horizon, stride)
    windows = []
    for i in range(n):
        start = i * stride
        x = values[start : start + lookback].copy()
        y = values[start + lookback : start + lookback + horizon].copy()
        windows.append(WindowSample(index=i, x=x, y=y, scaler=Scaler.fit(x)))
    return windows


def windows_digest(windows: list[WindowSample]) -> str:
    """Order-sensitive SHA-256 over the raw window contents."""
    import hashlib

    h = hashlib.sha256()
    for w in windows:
        h.update(np.ascontiguousarray(w.x).tobytes())
        h.update(np.ascontiguousarray(w.y).tobytes())
    return h.hexdigest()
