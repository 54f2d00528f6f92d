"""Split-level evaluation: sampling, reports, CSV and SVG artifacts.

Windows are sampled in chunks of ``flow.SAMPLE_CHUNK``, one forward pass per
chunk, each window from its own seed-derived stream, and reduced in window
order, so a report depends only on the model, the windows and the seed; each
ensemble is bitwise the one ``sample_forecasts`` draws for its window alone.
"""

from __future__ import annotations

import os

import numpy as np

from papnf.flow import ForecastEnsemble, sample_windows
from papnf.metrics import (
    MetricsReport,
    build_report,
    gaussian_residual,
    persistence,
    seasonal_naive,
)
from papnf.seeding import substream

__all__ = [
    "DEFAULT_LEVELS",
    "QUANTILE_COLUMNS",
    "thread_count",
    "evaluate_split",
    "baseline_ensembles",
    "baseline_report",
    "write_quantiles_csv",
    "write_ensemble_csv",
    "write_fan_chart_svg",
]

DEFAULT_LEVELS = (0.8, 0.9, 0.95)
QUANTILE_COLUMNS = (0.05, 0.10, 0.50, 0.90, 0.95)
BASELINE_NAMES = ("persistence", "seasonal_naive", "gaussian_residual")


def thread_count() -> int:
    """Worker cap from PAPNF_THREADS, else min(4, cpu_count).

    Only the benchmark reads it; evaluation is serial and no longer has a
    code path that depends on it.
    """
    raw = os.environ.get("PAPNF_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError as err:
            raise ValueError(f"PAPNF_THREADS must be an integer, got {raw!r}") from err
        return max(1, n)
    return min(4, os.cpu_count() or 1)


def evaluate_split(
    model,
    windows,
    n_samples: int = 100,
    seed: int = 0,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
) -> tuple[MetricsReport, list[ForecastEnsemble]]:
    """Sample every window and aggregate one MetricsReport for the split.

    Each window's ensemble comes from substream(seed, "sample", index), so
    it does not depend on which other windows the split holds.
    """
    if not windows:
        raise ValueError("evaluate_split over an empty split")
    ensembles = sample_windows(windows, model, n_samples, seed, "sample")
    report = build_report(
        [e.samples for e in ensembles],
        [w.y for w in windows],
        [persistence(w) for w in windows],
        levels=levels,
    )
    return report, ensembles


def baseline_ensembles(
    windows, name: str, n_samples: int = 100, seed: int = 0, period: int | None = None
) -> list[ForecastEnsemble]:
    """Per-window ensembles for one named baseline.

    Deterministic baselines are wrapped as two identical rows: the energy
    CRPS of that degenerate ensemble is exactly the point forecast's MAE,
    and its intervals have zero width, which is the honest representation.
    """
    if name not in BASELINE_NAMES:
        raise ValueError(f"unknown baseline {name!r}, expected one of {BASELINE_NAMES}")
    out = []
    for w in windows:
        if name == "persistence":
            pred = persistence(w)
            samples = np.stack([pred, pred])
        elif name == "seasonal_naive":
            if period is None:
                raise ValueError("seasonal_naive needs a period")
            pred = seasonal_naive(w, period)
            samples = np.stack([pred, pred])
        else:
            rng = substream(seed, "baseline", name, int(w.index))
            samples = gaussian_residual(w, n_samples, rng)
        out.append(ForecastEnsemble(window_index=int(w.index), samples=samples))
    return out


def baseline_report(
    windows,
    name: str,
    n_samples: int = 100,
    seed: int = 0,
    period: int | None = None,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
) -> MetricsReport:
    """MetricsReport for one baseline through the same aggregation pipeline."""
    ensembles = baseline_ensembles(windows, name, n_samples, seed, period)
    return build_report(
        [e.samples for e in ensembles],
        [w.y for w in windows],
        [persistence(w) for w in windows],
        levels=levels,
    )


# -- CSV artifacts ----------------------------------------------------------------


def _paired(windows, ensembles):
    """zip(windows, ensembles), once each ensemble is checked to be its window's."""
    if len(ensembles) != len(windows):
        raise ValueError(f"{len(ensembles)} ensembles for {len(windows)} windows")
    for pos, (w, ens) in enumerate(zip(windows, ensembles)):
        _check_pair(w, ens, f"position {pos}: ")
    return zip(windows, ensembles)


def _check_pair(window, ensemble, where: str = "") -> None:
    if ensemble.window_index != int(window.index):
        raise ValueError(
            f"{where}ensemble of window {ensemble.window_index} "
            f"paired with window {int(window.index)}"
        )


def write_quantiles_csv(path: str, windows, ensembles) -> None:
    """Per-point quantile table: window_id, step, channel, q05..q95, truth.

    Each ensemble is sorted once for all quantile columns. Rows are joined
    per window and written as each window's block is done; the bytes are
    those of ``csv.writer``: values are written with ``repr``, so they
    round-trip, and rows end in CRLF.
    """
    pairs = _paired(windows, ensembles)
    header = ["window_id", "step", "channel"]
    header += [f"q{int(q * 100):02d}" for q in QUANTILE_COLUMNS] + ["truth"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for w, ens in pairs:
            index = int(w.index)
            c = w.y.shape[1]
            columns = np.concatenate([ens.quantiles(QUANTILE_COLUMNS), w.y[None]])
            points = columns.reshape(len(columns), -1).T.tolist()
            fh.write("".join(
                f"{index},{k // c},{k % c}," + ",".join(map(repr, values)) + "\r\n"
                for k, values in enumerate(points)
            ))


def write_ensemble_csv(path: str, windows, ensembles) -> None:
    """Raw sampled trajectories: window_id, sample_id, step, channel, value.

    Written per window like ``write_quantiles_csv``, in ``csv.writer``'s bytes.
    """
    pairs = _paired(windows, ensembles)
    with open(path, "w", newline="") as fh:
        fh.write("window_id,sample_id,step,channel,value\r\n")
        for w, ens in pairs:
            index = int(w.index)
            s, h, c = ens.samples.shape
            points = [f"{k // c},{k % c}," for k in range(h * c)]
            fh.write("".join(
                f"{index},{sample_id},{point}{v!r}\r\n"
                for sample_id, values in enumerate(ens.samples.reshape(s, h * c).tolist())
                for point, v in zip(points, values)
            ))


# -- SVG fan chart ----------------------------------------------------------------

_SVG_W = 800
_SVG_H = 400
_MARGIN = 40
_BAND_STYLE = {0.95: "#c6dbef", 0.9: "#9ecae1", 0.8: "#6baed6"}


def _scale(xs, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return [out_lo + (x - lo) / span * (out_hi - out_lo) for x in xs]


def _polyline(xs, ys, stroke, width, dash="") -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}"{extra}/>'
    )


def write_fan_chart_svg(path: str, window, ensemble, channel: int = 0) -> None:
    """Static fan chart: look-back tail, quantile bands, median, truth.

    Deterministic output: fixed canvas, coordinates rounded to 2 decimals,
    no timestamps. Bands show the central 80/90/95% intervals.
    """
    _check_pair(window, ensemble)
    h = window.y.shape[0]
    tail = min(window.x.shape[0], 2 * h)
    hist = window.x[-tail:, channel]
    truth = window.y[:, channel]
    levels = sorted(_BAND_STYLE, reverse=True)
    alphas = [(1.0 - level) / 2.0 for level in levels]  # ForecastEnsemble.interval's bounds
    q = ensemble.quantiles([0.5, *alphas, *(1.0 - a for a in alphas)])[:, :, channel]
    med = q[0]
    bands = {level: (q[1 + i], q[1 + len(levels) + i]) for i, level in enumerate(levels)}

    all_vals = np.concatenate(
        [hist, truth, med] + [np.concatenate(pair) for pair in bands.values()]
    )
    v_lo = float(all_vals.min())
    v_hi = float(all_vals.max())
    pad = 0.05 * (v_hi - v_lo or 1.0)
    v_lo -= pad
    v_hi += pad

    t_hist = list(range(-tail + 1, 1))
    t_fut = list(range(1, h + 1))
    t_lo, t_hi = -tail + 1, h
    x_left, x_right = _MARGIN, _SVG_W - _MARGIN
    y_top, y_bot = _MARGIN, _SVG_H - _MARGIN

    def to_xy(ts, vs):
        xs = _scale(ts, t_lo, t_hi, x_left, x_right)
        ys = _scale(vs, v_lo, v_hi, y_bot, y_top)  # y axis points down
        return xs, ys

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    # forecast-start divider
    x0 = _scale([0.5], t_lo, t_hi, x_left, x_right)[0]
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y_top}" x2="{x0:.2f}" y2="{y_bot}" '
        f'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    for level in sorted(bands, reverse=True):  # widest band painted first
        lo_v, hi_v = bands[level]
        xs_u, ys_u = to_xy(t_fut, hi_v)
        xs_l, ys_l = to_xy(t_fut[::-1], lo_v[::-1])
        pts = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in zip(xs_u + xs_l, ys_u + ys_l)
        )
        parts.append(
            f'<polygon points="{pts}" fill="{_BAND_STYLE[level]}" '
            f'fill-opacity="0.8" stroke="none"/>'
        )
    xs, ys = to_xy(t_hist, hist)
    parts.append(_polyline(xs, ys, "#444444", 1.5))
    xs, ys = to_xy(t_fut, med)
    parts.append(_polyline(xs, ys, "#08519c", 2))
    xs, ys = to_xy(t_fut, truth)
    parts.append(_polyline(xs, ys, "#d62728", 1.5, dash="5 3"))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
