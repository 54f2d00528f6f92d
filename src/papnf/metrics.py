"""Forecast metrics: empirical CRPS, the split report, baselines.

Everything here is plain numpy on destandardized values. ``build_report`` is
the one split-level scorer: the point forecast of an ensemble is its mean,
and the probabilistic scores use the empirical energy form of CRPS computed
per (step, channel) and aggregated over the split, beside interval coverage
and coverage of the points hardest for a baseline.

Each window's (S, H, C) ensemble is sorted once along the samples. That
sorted block feeds the CRPS spread term (``pairwise_spread``) and, through
``sorted_quantile``, every interval bound and quantile, so a split report
costs one sort per window and no call to numpy's quantile routine.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from papnf.checkpoint import canonical_json
from papnf.tensor import pairwise_spread

__all__ = [
    "crps_empirical",
    "sorted_quantile",
    "persistence",
    "seasonal_naive",
    "gaussian_residual",
    "MetricsReport",
    "build_report",
    "coverage_label",
]


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
    return term1 - float(pairwise_spread(np.sort(samples)[:, None])[0]) / denom


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
EXTREME_SHARE = 0.1  # share of the split's points that extreme coverage keeps


def _interval_mask(ordered: np.ndarray, target: np.ndarray, level: float) -> np.ndarray:
    alpha = (1.0 - level) / 2.0
    lo = sorted_quantile(ordered, alpha)
    hi = sorted_quantile(ordered, 1.0 - alpha)
    return (target >= lo) & (target <= hi)


def _window_scores(
    position: int, ensemble, target, levels: tuple[float, ...]
) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """One window's CRPS grid and interval masks from a single sort.

    The (S, H, C) ensemble needs S >= 2 samples and an (H, C) target. The
    spread term is ``pairwise_spread`` of the sorted block seen as (S, H*C).
    An ensemble holding NaN or inf raises ValueError naming the window's
    position in the split: a NaN bound would otherwise count as a silent
    coverage miss.
    """
    ensemble = np.asarray(ensemble, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    where = f"window {position} of the split"
    if ensemble.ndim != 3 or ensemble.shape[1:] != target.shape:
        raise ValueError(f"{where}: ensemble {ensemble.shape} does not match target {target.shape}")
    s = ensemble.shape[0]
    if s < 2:
        raise ValueError(f"{where}: the CRPS needs at least two samples, got {s}")
    ordered = np.sort(ensemble, axis=0)
    # NaN sorts last and -inf/+inf to the ends, so the end rows show them all
    if not (np.isfinite(ordered[0]).all() and np.isfinite(ordered[-1]).all()):
        raise ValueError(f"{where}: ensemble holds NaN or inf")
    term1 = np.abs(ensemble - target[None]).mean(axis=0)
    spread = pairwise_spread(ordered.reshape(s, -1)).reshape(target.shape)
    grid = term1 - spread / (s * s)
    return grid, {lvl: _interval_mask(ordered, target, lvl) for lvl in levels}


def _extreme_fraction(masks: list[np.ndarray], targets, baseline_preds) -> float:
    """Coverage of the EXTREME_SHARE of the split's points hardest for a baseline.

    Points from the whole split are pooled and ranked by the baseline's
    absolute error; the top floor(EXTREME_SHARE * n) points, at least one,
    are kept (ties broken toward the earliest index) and their interval
    coverage is returned.
    """
    err = np.concatenate(
        [np.abs(np.asarray(base) - np.asarray(y, dtype=np.float64)).reshape(-1)
         for y, base in zip(targets, baseline_preds)]
    )
    hit = np.concatenate([mask.reshape(-1) for mask in masks])
    k = max(1, int(np.floor(EXTREME_SHARE * err.size)))
    order = np.argsort(-err, kind="stable")  # stable: ties keep earliest index
    return float(hit[order[:k]].mean())


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
        return asdict(self)

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def coverage_label(level: float) -> str:
    """The key of ``level`` in ``MetricsReport.coverage``, e.g. ``"0.9"``."""
    return f"{level:g}"


def build_report(
    ensembles: list[np.ndarray],
    targets: list[np.ndarray],
    baseline_preds: list[np.ndarray] | None = None,
    levels: tuple[float, ...] = (0.8, 0.9, 0.95),
) -> MetricsReport:
    """Aggregate per-window ensembles and truths into one MetricsReport.

    ``baseline_preds`` (default: persistence is computed by the caller) feeds
    the extreme-coverage selection; point metrics use the ensemble mean. Each
    (S, H, C) ensemble, S >= 2, is sorted once, and that sort feeds its CRPS
    grid and the interval masks at every level. An ensemble of the wrong
    shape or holding NaN or inf raises ValueError naming its window's
    position.
    """
    if not ensembles:
        raise ValueError("cannot build a report from zero windows")
    if len(ensembles) != len(targets):
        raise ValueError("ensemble/target count mismatch")
    if baseline_preds is not None and len(baseline_preds) != len(targets):
        raise ValueError("baseline/target count mismatch")
    mask_levels = tuple(levels)
    if baseline_preds is not None and EXTREME_LEVEL not in mask_levels:
        mask_levels += (EXTREME_LEVEL,)
    h = targets[0].shape[0]
    sq_sum = np.zeros(h)
    abs_sum = np.zeros(h)
    crps_sum = np.zeros(h)
    total_crps = total_abs = 0.0
    per_point = 0
    hits = dict.fromkeys(mask_levels, 0)
    extreme_masks = []
    for position, (ens, y) in enumerate(zip(ensembles, targets)):
        grid, window_masks = _window_scores(position, ens, y, mask_levels)
        diff = ens.mean(axis=0) - y
        sq_sum += (diff * diff).mean(axis=1)
        abs_sum += np.abs(diff).mean(axis=1)
        crps_sum += grid.mean(axis=1)
        total_crps += float(grid.sum())
        total_abs += float(np.abs(y).sum())
        for lvl, mask in window_masks.items():
            hits[lvl] += int(mask.sum())
        extreme_masks.append(window_masks.get(EXTREME_LEVEL))
        per_point += y.size
    if per_point == 0:
        raise ValueError("coverage over an empty split")
    n = len(targets)
    normalized = total_abs != 0.0
    w_crps = total_crps / total_abs if normalized else total_crps
    cov = {coverage_label(lvl): hits[lvl] / per_point for lvl in levels}
    if baseline_preds is None:
        extreme = float("nan")
    else:
        extreme = _extreme_fraction(extreme_masks, targets, baseline_preds)
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
