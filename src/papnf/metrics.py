"""Forecast metrics: point errors, empirical CRPS, coverage, baselines.

Everything here is plain numpy on destandardized values. The point forecast
of an ensemble is its mean; probabilistic scores use the empirical energy
form of CRPS computed per (step, channel) and aggregated over a split.

Each window's (S, H, C) ensemble is sorted once along the samples. That
sorted block feeds the CRPS spread term (``pairwise_spread``) and, through
``sorted_quantile``, every interval bound and quantile, so a split report
costs one sort per window and no call to numpy's quantile routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from papnf.checkpoint import canonical_json
from papnf.tensor import pairwise_spread

__all__ = [
    "point_metrics",
    "crps_empirical",
    "crps_grid",
    "weighted_crps",
    "coverage",
    "coverage_mask",
    "sorted_quantile",
    "extreme_coverage",
    "persistence",
    "seasonal_naive",
    "gaussian_residual",
    "MetricsReport",
    "build_report",
]


def point_metrics(pred: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) over all entries of matching arrays."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), float(np.mean(np.abs(diff)))


def crps_empirical(samples: np.ndarray, y: float, fair: bool = False) -> float:
    """Energy-form CRPS of a scalar ensemble against one observation.

    crps = mean|X - y| - (1/(2 S^2)) sum_ij |X_i - X_j|; the ``fair`` variant
    divides the spread term by S(S-1) instead of S^2, making the estimator
    unbiased in the ensemble size.
    """
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    s = samples.size
    if s < 2:
        raise ValueError("crps_empirical needs at least two samples")
    term1 = float(np.mean(np.abs(samples - y)))
    denom = s * (s - 1) if fair else s * s
    return term1 - float(pairwise_spread(np.sort(samples))) / denom


def _grid_operands(ensemble, target) -> tuple[np.ndarray, np.ndarray]:
    ensemble = np.asarray(ensemble, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if ensemble.ndim != 3 or ensemble.shape[1:] != target.shape:
        raise ValueError(f"ensemble {ensemble.shape} does not match target {target.shape}")
    if ensemble.shape[0] < 2:
        raise ValueError("crps_grid needs at least two samples")
    return ensemble, target


def _crps_sorted(
    ensemble: np.ndarray, ordered: np.ndarray, target: np.ndarray, fair: bool
) -> np.ndarray:
    """crps_grid given the ensemble and its samples-axis sort ``ordered``."""
    s = ensemble.shape[0]
    term1 = np.abs(ensemble - target[None]).mean(axis=0)
    denom = s * (s - 1) if fair else s * s
    return term1 - pairwise_spread(ordered) / denom


def crps_grid(ensemble: np.ndarray, target: np.ndarray, fair: bool = False) -> np.ndarray:
    """Per-(step, channel) CRPS of an (S, H, C) ensemble against (H, C) truth."""
    ensemble, target = _grid_operands(ensemble, target)
    return _crps_sorted(ensemble, np.sort(ensemble, axis=0), target, fair)


def sorted_quantile(sorted_samples: np.ndarray, q: float) -> np.ndarray:
    """Quantile q along axis 0 of x, given ``sorted_samples = np.sort(x, axis=0)``.

    Reproduces numpy's quantile with its default ``linear`` method bit for
    bit, so one sort serves any number of levels. The virtual index is
    (S-1)q. From S-1 on, both neighbours are the last row and gamma is the
    index plus one, as in numpy's ``_get_indexes``. The interpolation is
    a + (b-a)g for g < 0.5 and b - (b-a)(1-g) otherwise, as in numpy's
    ``_lerp``. A column whose largest value is NaN gives NaN. The one
    difference is the sign of a zero result drawn from tied -0.0 and 0.0
    samples, which sort and numpy's partition may order differently.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    n = sorted_samples.shape[0]
    virtual = (n - 1) * q
    below = math.floor(virtual)
    above = below + 1
    if virtual >= n - 1:
        below = above = -1
    gamma = virtual - below
    a = sorted_samples[below]
    b = sorted_samples[above]
    diff = b - a
    out = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    last = sorted_samples[-1]
    nan_cols = np.isnan(last)
    if nan_cols.any():
        out = np.where(nan_cols, last, out)
    return out


def _interval_mask(ordered: np.ndarray, target: np.ndarray, level: float) -> np.ndarray:
    alpha = (1.0 - level) / 2.0
    lo = sorted_quantile(ordered, alpha)
    hi = sorted_quantile(ordered, 1.0 - alpha)
    return (target >= lo) & (target <= hi)


def coverage_mask(ensemble: np.ndarray, target: np.ndarray, level: float) -> np.ndarray:
    """Boolean (H, C) mask: truth inside the central interval (inclusive)."""
    return _interval_mask(np.sort(ensemble, axis=0), target, level)


def _window_scores(
    position: int, ensemble, target, levels: tuple[float, ...], fair: bool | None
) -> tuple[np.ndarray | None, dict[float, np.ndarray]]:
    """One window's CRPS grid and interval masks from a single sort.

    ``fair=None`` skips the CRPS grid. An ensemble holding NaN or inf raises
    ValueError naming the window's position in the split: a NaN bound would
    otherwise count as a silent coverage miss.
    """
    ensemble = np.asarray(ensemble, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    ordered = np.sort(ensemble, axis=0)
    # NaN sorts last and -inf/+inf to the ends, so the end rows show them all
    if not (np.isfinite(ordered[0]).all() and np.isfinite(ordered[-1]).all()):
        raise ValueError(f"window {position} of the split: ensemble holds NaN or inf")
    grid = None
    if fair is not None:
        ensemble, target = _grid_operands(ensemble, target)
        grid = _crps_sorted(ensemble, ordered, target, fair)
    return grid, {lvl: _interval_mask(ordered, target, lvl) for lvl in levels}


def _split_masks(ensembles, targets, level: float) -> list[np.ndarray]:
    return [
        _window_scores(i, ens, y, (level,), None)[1][level]
        for i, (ens, y) in enumerate(zip(ensembles, targets))
    ]


def _weighted_ratio(grids: list[np.ndarray], targets) -> tuple[float, bool]:
    total_crps = 0.0
    total_abs = 0.0
    for grid, y in zip(grids, targets):
        total_crps += float(grid.sum())
        total_abs += float(np.abs(y).sum())
    if total_abs == 0.0:
        return total_crps, False
    return total_crps / total_abs, True


def _hit_fraction(masks: list[np.ndarray]) -> float:
    hits = 0
    total = 0
    for mask in masks:
        hits += int(mask.sum())
        total += mask.size
    if total == 0:
        raise ValueError("coverage over an empty split")
    return hits / total


def _extreme_fraction(masks: list[np.ndarray], targets, baseline_preds, top_frac: float) -> float:
    errs = []
    hits = []
    for mask, y, base in zip(masks, targets, baseline_preds):
        y = np.asarray(y, dtype=np.float64)
        errs.append(np.abs(np.asarray(base) - y).reshape(-1))
        hits.append(mask.reshape(-1))
    if not errs:
        raise ValueError("extreme_coverage over an empty split")
    err = np.concatenate(errs)
    hit = np.concatenate(hits)
    k = max(1, int(np.floor(top_frac * err.size)))
    order = np.argsort(-err, kind="stable")  # stable: ties keep earliest index
    selected = order[:k]
    return float(hit[selected].mean())


def weighted_crps(
    ensembles: list[np.ndarray], targets: list[np.ndarray], fair: bool = False
) -> tuple[float, bool]:
    """Split-level CRPS normalized by the total absolute target mass.

    Returns (value, normalized). When sum|y| is zero the raw CRPS sum is
    returned with normalized=False instead of dividing by zero.
    """
    grids = [
        _window_scores(i, ens, y, (), fair)[0]
        for i, (ens, y) in enumerate(zip(ensembles, targets))
    ]
    return _weighted_ratio(grids, targets)


def coverage(ensembles: list[np.ndarray], targets: list[np.ndarray], level: float) -> float:
    """Fraction of all (window, step, channel) points inside the interval."""
    return _hit_fraction(_split_masks(ensembles, targets, level))


def extreme_coverage(
    ensembles: list[np.ndarray],
    targets: list[np.ndarray],
    baseline_preds: list[np.ndarray],
    level: float = 0.9,
    top_frac: float = 0.1,
) -> float:
    """Coverage restricted to the hardest points for a baseline forecaster.

    Points from the whole split are pooled and ranked by the baseline's
    absolute error; the top floor(top_frac * n) points (ties broken toward
    the earliest index) are kept and their interval coverage is returned.
    """
    if not 0.0 < top_frac <= 1.0:
        raise ValueError(f"top_frac must be in (0, 1], got {top_frac}")
    masks = _split_masks(ensembles, targets, level)
    return _extreme_fraction(masks, targets, baseline_preds, top_frac)


# -- baselines -----------------------------------------------------------------


def persistence(window) -> np.ndarray:
    """Repeat the last look-back row across the horizon."""
    h = window.y.shape[0]
    return np.repeat(window.x[-1:], h, axis=0)


def seasonal_naive(window, period: int) -> np.ndarray:
    """Repeat the final full period of the look-back across the horizon."""
    lookback = window.x.shape[0]
    if period <= 0 or period > lookback:
        raise ValueError(f"period {period} must be in [1, lookback={lookback}]")
    h = window.y.shape[0]
    cycle = window.x[-period:]
    reps = -(-h // period)
    return np.tile(cycle, (reps, 1))[:h]


def gaussian_residual(window, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Persistence mean plus Gaussian noise sized from one-step residuals.

    The per-channel noise scale is the population std of the look-back's
    first differences (the persistence one-step error), floored at 1e-6.
    """
    if n_samples < 2:
        raise ValueError("gaussian_residual needs at least two samples")
    mu = persistence(window)
    diffs = np.diff(window.x, axis=0)
    sigma = np.maximum(diffs.std(axis=0), 1e-6)
    noise = rng.standard_normal((n_samples,) + mu.shape) * sigma[None, None, :]
    return mu[None] + noise


# -- aggregate report ------------------------------------------------------------

EXTREME_LEVEL = 0.9  # interval level of MetricsReport.extreme_coverage_90


@dataclass
class MetricsReport:
    """Split-level metric bundle with a canonical JSON form."""

    n_windows: int
    n_points: int
    mse: float
    mae: float
    crps_mean: float
    weighted_crps: float
    weighted_crps_normalized: bool
    coverage: dict[str, float]
    extreme_coverage_90: float
    per_horizon_mse: list[float] = field(default_factory=list)
    per_horizon_mae: list[float] = field(default_factory=list)
    per_horizon_crps: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_windows": self.n_windows,
            "n_points": self.n_points,
            "mse": self.mse,
            "mae": self.mae,
            "crps_mean": self.crps_mean,
            "weighted_crps": self.weighted_crps,
            "weighted_crps_normalized": self.weighted_crps_normalized,
            "coverage": self.coverage,
            "extreme_coverage_90": self.extreme_coverage_90,
            "per_horizon_mse": self.per_horizon_mse,
            "per_horizon_mae": self.per_horizon_mae,
            "per_horizon_crps": self.per_horizon_crps,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def build_report(
    ensembles: list[np.ndarray],
    targets: list[np.ndarray],
    baseline_preds: list[np.ndarray] | None = None,
    levels: tuple[float, ...] = (0.8, 0.9, 0.95),
    fair: bool = False,
) -> MetricsReport:
    """Aggregate per-window ensembles and truths into one MetricsReport.

    ``baseline_preds`` (default: persistence is computed by the caller) feeds
    the extreme-coverage selection; point metrics use the ensemble mean. Each
    ensemble is sorted once, and that sort feeds its CRPS grid and the
    interval masks at every level. An ensemble holding NaN or inf raises
    ValueError naming its window's position.
    """
    if not ensembles:
        raise ValueError("cannot build a report from zero windows")
    if len(ensembles) != len(targets):
        raise ValueError("ensemble/target count mismatch")
    mask_levels = tuple(levels)
    if baseline_preds is not None and EXTREME_LEVEL not in mask_levels:
        mask_levels += (EXTREME_LEVEL,)
    h = targets[0].shape[0]
    sq_sum = np.zeros(h)
    abs_sum = np.zeros(h)
    crps_sum = np.zeros(h)
    per_point = 0
    grids = []
    masks: dict[float, list[np.ndarray]] = {lvl: [] for lvl in mask_levels}
    for position, (ens, y) in enumerate(zip(ensembles, targets)):
        mean = ens.mean(axis=0)
        diff = mean - y
        sq_sum += (diff * diff).mean(axis=1)
        abs_sum += np.abs(diff).mean(axis=1)
        grid, window_masks = _window_scores(position, ens, y, mask_levels, fair)
        crps_sum += grid.mean(axis=1)
        grids.append(grid)
        for lvl, mask in window_masks.items():
            masks[lvl].append(mask)
        per_point += y.size
    n = len(targets)
    w_crps, normalized = _weighted_ratio(grids, targets)
    cov = {f"{lvl:g}": _hit_fraction(masks[lvl]) for lvl in levels}
    if baseline_preds is None:
        extreme = float("nan")
    else:
        extreme = _extreme_fraction(masks[EXTREME_LEVEL], targets, baseline_preds, top_frac=0.1)
    return MetricsReport(
        n_windows=n,
        n_points=per_point,
        mse=float(sq_sum.mean() / n),
        mae=float(abs_sum.mean() / n),
        crps_mean=float(crps_sum.mean() / n),
        weighted_crps=w_crps,
        weighted_crps_normalized=normalized,
        coverage=cov,
        extreme_coverage_90=extreme,
        per_horizon_mse=[float(v / n) for v in sq_sum],
        per_horizon_mae=[float(v / n) for v in abs_sum],
        per_horizon_crps=[float(v / n) for v in crps_sum],
    )
