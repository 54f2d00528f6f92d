"""Synthetic series generators for tests, demos and backbone pretraining."""

from __future__ import annotations

import csv
from datetime import datetime, timedelta

import numpy as np

from papnf.data import RawSeries
from papnf.seeding import substream

ETT_CHANNELS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")


def _stamps(n: int) -> tuple[str, ...]:
    t0 = datetime(2016, 7, 1, 0, 0)
    dt = timedelta(hours=1)
    return tuple((t0 + i * dt).strftime("%Y-%m-%d %H:%M:%S") for i in range(n))


def ar1_seasonal(
    length: int,
    channels: int = 1,
    period: int = 24,
    phi: float = 0.7,
    noise_std: float = 0.3,
    amplitude: float = 1.0,
    seed: int = 0,
) -> RawSeries:
    """AR(1) noise riding on a fixed seasonal cycle, per channel.

    x[t] = amplitude * sin(2*pi*(t/period + phase_c)) + r[t],
    r[t] = phi * r[t-1] + noise_std * eps[t]. The generative noise level is
    known, which makes the series usable as a calibration oracle.
    """
    rng = substream(seed, "ar1_seasonal")
    t = np.arange(length)[:, None]
    phase = rng.uniform(0.0, 1.0, size=channels)[None, :]
    base = amplitude * np.sin(2.0 * np.pi * (t / period + phase))
    resid = np.zeros((length, channels))
    eps = rng.standard_normal((length, channels)) * noise_std
    for i in range(1, length):
        resid[i] = phi * resid[i - 1] + eps[i]
    values = base + resid
    names = tuple(f"ch{i}" for i in range(channels))
    return RawSeries(_stamps(length), values, names)


def ett_like(length: int, seed: int = 0) -> RawSeries:
    """A seven-channel hourly series in the ETT file layout.

    Channels mix a daily cycle, a slow drift and AR(1) noise with
    channel-specific phases and scales; the last channel (OT) couples to the
    average of the others, mimicking load/temperature structure.
    """
    rng = substream(seed, "ett_like")
    t = np.arange(length)[:, None]
    cols = []
    for c in range(6):
        phase = rng.uniform(0.0, 1.0)
        amp = rng.uniform(0.8, 1.6)
        slow = rng.uniform(120.0, 200.0)
        daily = amp * np.sin(2.0 * np.pi * (t[:, 0] / 24.0 + phase))
        drift = 0.5 * np.sin(2.0 * np.pi * t[:, 0] / slow)
        resid = np.zeros(length)
        eps = rng.standard_normal(length) * 0.25
        for i in range(1, length):
            resid[i] = 0.6 * resid[i - 1] + eps[i]
        level = rng.uniform(-2.0, 4.0)
        cols.append(level + daily + drift + resid)
    stacked = np.stack(cols, axis=1)
    ot = 0.6 * stacked.mean(axis=1) + 0.8 * np.sin(2.0 * np.pi * t[:, 0] / 24.0)
    ot = ot + np.cumsum(rng.standard_normal(length) * 0.02)
    values = np.concatenate([stacked, ot[:, None]], axis=1)
    return RawSeries(_stamps(length), values, ETT_CHANNELS)


def write_csv(series: RawSeries, path: str) -> None:
    """Write a RawSeries in the ETT CSV layout (RFC 4180, header included)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("date",) + series.channel_names)
        for stamp, row in zip(series.timestamps, series.values):
            writer.writerow([stamp] + [repr(float(v)) for v in row])


def pretrain_sequences(rng: np.random.Generator, batch: int, length: int) -> np.ndarray:
    """Mixed sinusoid/AR(1) scalar sequences, standardized per sequence.

    Used as the next-token-regression corpus when pretraining the backbone.
    """
    out = np.zeros((batch, length))
    for b in range(batch):
        period = rng.uniform(6.0, float(length))
        amp = rng.uniform(0.3, 1.5)
        phase = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.4, 0.95)
        sigma = rng.uniform(0.05, 0.4)
        t = np.arange(length)
        seq = amp * np.sin(2.0 * np.pi * (t / period + phase))
        resid = 0.0
        for i in range(length):
            resid = phi * resid + sigma * rng.standard_normal()
            seq[i] += resid
        mu, sd = seq.mean(), seq.std()
        out[b] = (seq - mu) / max(sd, 1e-6)
    return out
