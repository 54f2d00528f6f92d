"""Metric oracles: closed-form CRPS, brute-force spreads, coverage by hand."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papnf.data import make_windows
from papnf.evaluate import DEFAULT_LEVELS, QUANTILE_COLUMNS, baseline_ensembles
from papnf.metrics import (
    MetricsReport,
    build_report,
    coverage,
    coverage_mask,
    crps_empirical,
    crps_grid,
    extreme_coverage,
    gaussian_residual,
    persistence,
    point_metrics,
    seasonal_naive,
    sorted_quantile,
    weighted_crps,
)
from papnf.synthetic import ar1_seasonal


def crps_gaussian(mu: float, sigma: float, y: float) -> float:
    """Closed-form CRPS of N(mu, sigma^2) at y, via the error function."""
    z = (y - mu) / sigma
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))


def crps_bruteforce(samples, y, fair=False):
    samples = np.asarray(samples, dtype=np.float64)
    s = samples.size
    term1 = np.mean(np.abs(samples - y))
    spread = sum(abs(a - b) for a in samples for b in samples)
    denom = s * (s - 1) if fair else s * s
    return term1 - spread / (2.0 * denom)


class TestCrps:
    def test_standard_normal_matches_closed_form(self):
        # spec oracle: CRPS of N(0,1) at 0 is about 0.2337
        assert abs(crps_gaussian(0.0, 1.0, 0.0) - 0.2337) < 5e-5
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(4000)
        est = crps_empirical(samples, 0.0, fair=True)
        assert abs(est - 0.2337) < 0.01

    def test_two_point_ensemble_exact_half(self):
        assert crps_empirical(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(3)
        for fair in (False, True):
            samples = rng.normal(size=17)
            y = float(rng.normal())
            assert crps_empirical(samples, y, fair=fair) == pytest.approx(
                crps_bruteforce(samples, y, fair=fair), abs=1e-12
            )

    def test_grid_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        ens = rng.normal(size=(9, 4, 3))
        y = rng.normal(size=(4, 3))
        grid = crps_grid(ens, y)
        for i in range(4):
            for j in range(3):
                assert grid[i, j] == pytest.approx(
                    crps_empirical(ens[:, i, j], y[i, j]), abs=1e-12
                )

    def test_degenerate_ensemble_reduces_to_mae(self):
        ens = np.full((6,), 2.5)
        assert crps_empirical(ens, 4.0) == pytest.approx(1.5, abs=1e-15)

    def test_shift_and_scale_equivariance(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=25)
        y = 0.3
        base = crps_empirical(samples, y)
        assert crps_empirical(samples + 5.0, y + 5.0) == pytest.approx(base, abs=1e-12)
        assert crps_empirical(samples * 3.0, y * 3.0) == pytest.approx(3.0 * base, abs=1e-12)

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_standard_estimator_nonnegative(self, s, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=s)
        y = float(rng.normal())
        assert crps_empirical(samples, y) >= -1e-12

    def test_rejects_tiny_ensembles(self):
        with pytest.raises(ValueError):
            crps_empirical(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            crps_grid(np.zeros((1, 2, 2)), np.zeros((2, 2)))


class TestWeightedCrps:
    def test_hand_computed_ratio(self):
        ens = np.array([[[0.0]], [[2.0]]])  # (2,1,1), crps vs y=1 is 0.5
        val, normalized = weighted_crps([ens, ens], [np.array([[1.0]]), np.array([[3.0]])])
        # crps terms: 0.5 and (|0-3|+|2-3|)/2 - 0.5 = 1.5 ; weights 1 + 3
        assert normalized
        assert val == pytest.approx((0.5 + 1.5) / 4.0, abs=1e-12)

    def test_zero_target_mass_is_flagged(self):
        ens = np.array([[[0.0]], [[2.0]]])
        val, normalized = weighted_crps([ens], [np.array([[0.0]])])
        assert not normalized
        assert val == pytest.approx(0.5, abs=1e-12)


class TestCoverage:
    def test_inclusive_bounds_cover_degenerate_ensemble(self):
        ens = np.full((8, 3, 2), 1.25)
        y = np.full((3, 2), 1.25)
        assert coverage([ens], [y], 0.9) == 1.0

    def test_known_quantiles_small_ensemble(self):
        ens = np.arange(1.0, 11.0).reshape(10, 1, 1)  # 1..10
        lo = np.quantile(ens[:, 0, 0], 0.05)
        hi = np.quantile(ens[:, 0, 0], 0.95)
        inside = np.array([[(lo + hi) / 2.0]])
        outside = np.array([[hi + 1.0]])
        assert coverage([ens], [inside], 0.9) == 1.0
        assert coverage([ens], [outside], 0.9) == 0.0

    def test_pooled_fraction(self):
        ens = np.arange(1.0, 11.0).reshape(10, 1, 1)
        y_in = np.array([[5.0]])
        y_out = np.array([[99.0]])
        assert coverage([ens, ens], [y_in, y_out], 0.8) == pytest.approx(0.5)

    def test_gaussian_nominal_rate(self):
        rng = np.random.default_rng(23)
        ensembles = [rng.standard_normal((400, 2, 2)) for _ in range(60)]
        targets = [rng.standard_normal((2, 2)) for _ in range(60)]
        cov = coverage(ensembles, targets, 0.9)
        assert 0.85 < cov < 0.95

    def test_mask_shape(self):
        mask = coverage_mask(np.zeros((4, 5, 3)), np.zeros((5, 3)), 0.9)
        assert mask.shape == (5, 3) and mask.all()


class TestExtremeCoverage:
    def test_selects_hardest_points_only(self):
        # 10 points; baseline is wrong by 10 on exactly one of them.
        ens = np.tile(np.linspace(-5.0, 5.0, 50)[:, None, None], (1, 10, 1))
        y = np.zeros((10, 1))
        y[3, 0] = 100.0  # outside every interval, and the baseline miss
        base = np.zeros((10, 1))
        out = extreme_coverage([ens], [y], [base], level=0.9, top_frac=0.1)
        assert out == 0.0  # the one selected point is uncovered
        y[3, 0] = 0.5  # now the hard point is covered
        out = extreme_coverage([ens], [y], [base], level=0.9, top_frac=0.1)
        assert out == 1.0

    def test_tie_break_is_stable(self):
        ens = np.tile(np.linspace(-1.0, 1.0, 30)[:, None, None], (1, 4, 1))
        y = np.array([[0.0], [9.0], [0.0], [0.0]])  # equal baseline errors except idx 1
        base = np.array([[1.0], [9.0], [1.0], [1.0]])  # errors: 1, 0, 1, 1
        # top 50% of 4 points = 2 points: indices 0 and 2 (stable among ties)
        out = extreme_coverage([ens], [y], [base], level=0.9, top_frac=0.5)
        assert out == 1.0  # both tied picks are covered points

    def test_rejects_bad_fraction(self):
        ens = np.zeros((4, 2, 1))
        with pytest.raises(ValueError):
            extreme_coverage([ens], [np.zeros((2, 1))], [np.zeros((2, 1))], top_frac=0.0)


class TestBaselines:
    def _window(self):
        values = np.arange(48.0).reshape(24, 2)
        return make_windows(values, lookback=16, horizon=8)[0]

    def test_persistence_repeats_last_row(self):
        w = self._window()
        pred = persistence(w)
        assert pred.shape == (8, 2)
        assert np.all(pred == w.x[-1])

    def test_seasonal_naive_tiles_last_period(self):
        w = self._window()
        pred = seasonal_naive(w, period=4)
        assert pred.shape == (8, 2)
        np.testing.assert_array_equal(pred[:4], w.x[-4:])
        np.testing.assert_array_equal(pred[4:], w.x[-4:])

    def test_seasonal_naive_partial_cycle(self):
        w = self._window()
        pred = seasonal_naive(w, period=5)
        np.testing.assert_array_equal(pred[:5], w.x[-5:])
        np.testing.assert_array_equal(pred[5:], w.x[-5:][:3])

    def test_seasonal_naive_period_bounds(self):
        w = self._window()
        with pytest.raises(ValueError):
            seasonal_naive(w, period=17)
        with pytest.raises(ValueError):
            seasonal_naive(w, period=0)

    def test_gaussian_residual_moments_and_determinism(self):
        rng = np.random.default_rng(2)
        x = np.cumsum(rng.standard_normal((64, 2)), axis=0)
        w = make_windows(x, lookback=48, horizon=8)[0]
        ens = gaussian_residual(w, 4000, np.random.default_rng(9))
        assert ens.shape == (4000, 8, 2)
        sigma = np.maximum(np.diff(w.x, axis=0).std(axis=0), 1e-6)
        mu = persistence(w)
        assert np.abs(ens.mean(axis=0) - mu).max() < 0.15
        assert np.abs(ens.std(axis=0) - sigma[None, :]).max() < 0.15
        again = gaussian_residual(w, 4000, np.random.default_rng(9))
        np.testing.assert_array_equal(ens, again)


class TestPointMetrics:
    def test_hand_case(self):
        mse, mae = point_metrics(np.array([1.0, 2.0]), np.array([0.0, 4.0]))
        assert mse == pytest.approx(2.5)
        assert mae == pytest.approx(1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            point_metrics(np.zeros(3), np.zeros(4))

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ensemble_mean_mse_never_worse_than_mean_sample_mse(self, s, seed):
        # Jensen: MSE of the ensemble mean <= mean over samples of per-sample MSE
        rng = np.random.default_rng(seed)
        ens = rng.normal(size=(s, 5, 2))
        y = rng.normal(size=(5, 2))
        mean_mse = point_metrics(ens.mean(axis=0), y)[0]
        per_sample = np.mean([(point_metrics(ens[i], y)[0]) for i in range(s)])
        assert mean_mse <= per_sample + 1e-12


class TestReport:
    def _split(self, seed=0):
        rng = np.random.default_rng(seed)
        ensembles = [rng.normal(size=(30, 6, 2)) for _ in range(5)]
        targets = [rng.normal(size=(6, 2)) for _ in range(5)]
        baselines = [np.zeros((6, 2)) for _ in range(5)]
        return ensembles, targets, baselines

    def test_fields_and_shapes(self):
        ensembles, targets, baselines = self._split()
        rep = build_report(ensembles, targets, baselines)
        assert rep.n_windows == 5
        assert rep.n_points == 5 * 6 * 2
        assert len(rep.per_horizon_mse) == 6
        assert set(rep.coverage) == {"0.8", "0.9", "0.95"}
        assert 0.0 <= rep.extreme_coverage_90 <= 1.0

    def test_mse_matches_direct_computation(self):
        ensembles, targets, baselines = self._split(3)
        rep = build_report(ensembles, targets, baselines)
        means = np.stack([e.mean(axis=0) for e in ensembles])
        ys = np.stack(targets)
        assert rep.mse == pytest.approx(float(np.mean((means - ys) ** 2)), abs=1e-12)
        assert rep.mae == pytest.approx(float(np.mean(np.abs(means - ys))), abs=1e-12)

    def test_canonical_json_bitwise_stable(self):
        ensembles, targets, baselines = self._split(5)
        a = build_report(ensembles, targets, baselines).to_json()
        b = build_report(
            [e.copy() for e in ensembles], [t.copy() for t in targets], baselines
        ).to_json()
        assert a == b
        assert isinstance(MetricsReport(**build_report(ensembles, targets, baselines).to_dict()), MetricsReport)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            build_report([], [])


# -- one sort per window ------------------------------------------------------------

SIZES = (2, 3, 8, 100, 101)
ALPHAS = [(1.0 - lvl) / 2.0 for lvl in DEFAULT_LEVELS + (0.5, 0.99)]
LEVELS_Q = (0.0, 1.0) + QUANTILE_COLUMNS + tuple(ALPHAS) + tuple(1.0 - a for a in ALPHAS)


def _ensembles(s: int, seed: int) -> dict[str, np.ndarray]:
    """Continuous, tied and constant (S, 4, 3) ensembles.

    Rounded values get + 0.0, which turns -0.0 into 0.0: sort and numpy's
    partition may order tied -0.0 and 0.0 differently, so a quantile that
    lands on such a tie may differ from numpy's in the sign of zero only.
    """
    rng = np.random.default_rng(seed)
    return {
        "continuous": rng.normal(size=(s, 4, 3)) * 10.0,
        "tied": np.round(rng.normal(size=(s, 4, 3)), 0) + 0.0,
        "constant": np.full((s, 4, 3), -2.5),
        "two_values": rng.choice([0.0, 1.0], size=(s, 4, 3)),
    }


def reference_report(ensembles, targets, baseline_preds=None, levels=(0.8, 0.9, 0.95), fair=False):
    """build_report computed function by function, with np.quantile bounds."""

    def mask(ens, y, level):
        alpha = (1.0 - level) / 2.0
        lo = np.quantile(ens, alpha, axis=0)
        hi = np.quantile(ens, 1.0 - alpha, axis=0)
        return (y >= lo) & (y <= hi)

    def cov(level):
        masks = [mask(e, np.asarray(y), level) for e, y in zip(ensembles, targets)]
        return sum(int(m.sum()) for m in masks) / sum(m.size for m in masks)

    h = targets[0].shape[0]
    sq_sum, abs_sum, crps_sum = np.zeros(h), np.zeros(h), np.zeros(h)
    total_crps = total_abs = 0.0
    for ens, y in zip(ensembles, targets):
        diff = ens.mean(axis=0) - y
        sq_sum += (diff * diff).mean(axis=1)
        abs_sum += np.abs(diff).mean(axis=1)
        crps_sum += crps_grid(ens, y, fair=fair).mean(axis=1)
    for ens, y in zip(ensembles, targets):
        total_crps += float(crps_grid(ens, y, fair=fair).sum())
        total_abs += float(np.abs(y).sum())
    normalized = total_abs != 0.0
    extreme = float("nan")
    if baseline_preds is not None:
        err = np.concatenate([np.abs(b - y).reshape(-1) for y, b in zip(targets, baseline_preds)])
        hit = np.concatenate([mask(e, y, 0.9).reshape(-1) for e, y in zip(ensembles, targets)])
        k = max(1, int(np.floor(0.1 * err.size)))
        extreme = float(hit[np.argsort(-err, kind="stable")[:k]].mean())
    n = len(targets)
    return MetricsReport(
        n_windows=n,
        n_points=sum(y.size for y in targets),
        mse=float(sq_sum.mean() / n),
        mae=float(abs_sum.mean() / n),
        crps_mean=float(crps_sum.mean() / n),
        weighted_crps=total_crps / total_abs if normalized else total_crps,
        weighted_crps_normalized=normalized,
        coverage={f"{lvl:g}": cov(lvl) for lvl in levels},
        extreme_coverage_90=extreme,
        per_horizon_mse=[float(v / n) for v in sq_sum],
        per_horizon_mae=[float(v / n) for v in abs_sum],
        per_horizon_crps=[float(v / n) for v in crps_sum],
    )


class TestSortedQuantile:
    @pytest.mark.parametrize("s", SIZES)
    def test_bitwise_equal_to_np_quantile(self, s):
        for name, ens in _ensembles(s, seed=s).items():
            ordered = np.sort(ens, axis=0)
            for q in LEVELS_Q:
                got = sorted_quantile(ordered, q)
                want = np.quantile(ens, q, axis=0)
                assert np.array_equal(got, want), (name, s, q)
                assert got.tobytes() == want.tobytes(), (name, s, q)

    def test_signed_zero_ties_compare_equal(self):
        ens = np.array([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 0.0, -0.0]).reshape(8, 1, 1)
        for q in LEVELS_Q:
            got = sorted_quantile(np.sort(ens, axis=0), q)
            assert np.array_equal(got, np.quantile(ens, q, axis=0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 257), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_any_level_and_size(self, s, q, seed):
        ens = np.round(np.random.default_rng(seed).normal(size=(s, 2, 2)), 1) + 0.0
        got = sorted_quantile(np.sort(ens, axis=0), q)
        assert got.tobytes() == np.quantile(ens, q, axis=0).tobytes()

    def test_nan_column_gives_nan_like_numpy(self):
        ens = np.random.default_rng(1).normal(size=(9, 2, 2))
        ens[4, 1, 0] = np.nan
        for q in (0.0, 0.05, 0.5, 1.0):
            got = sorted_quantile(np.sort(ens, axis=0), q)
            want = np.quantile(ens, q, axis=0)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.isnan(got[1, 0]) and np.isfinite(got[0, 0])

    @pytest.mark.parametrize("q", [-0.01, 1.01, float("nan")])
    def test_rejects_levels_outside_unit_interval(self, q):
        with pytest.raises(ValueError):
            sorted_quantile(np.zeros((4, 1, 1)), q)

    def test_coverage_mask_matches_np_quantile_bounds(self):
        rng = np.random.default_rng(4)
        ens = np.round(rng.normal(size=(100, 5, 2)), 1)
        y = np.round(rng.normal(size=(5, 2)) * 2.0, 1)
        for lvl in DEFAULT_LEVELS:
            alpha = (1.0 - lvl) / 2.0
            lo = np.quantile(ens, alpha, axis=0)
            hi = np.quantile(ens, 1.0 - alpha, axis=0)
            want = (y >= lo) & (y <= hi)
            assert np.array_equal(coverage_mask(ens, y, lvl), want)


class TestReportParity:
    def _split(self, s, seed, ties=False):
        rng = np.random.default_rng(seed)
        ensembles = [rng.normal(size=(s, 6, 3)) for _ in range(7)]
        if ties:
            ensembles = [np.round(e, 0) for e in ensembles]
        targets = [rng.normal(size=(6, 3)) * 1.5 for _ in range(7)]
        baselines = [rng.normal(size=(6, 3)) for _ in range(7)]
        return ensembles, targets, baselines

    @pytest.mark.parametrize("s", SIZES)
    @pytest.mark.parametrize("fair", [False, True])
    def test_json_matches_reference(self, s, fair):
        for ties in (False, True):
            ens, ys, base = self._split(s, seed=s, ties=ties)
            got = build_report(ens, ys, base, fair=fair).to_json()
            assert got == reference_report(ens, ys, base, fair=fair).to_json()

    def test_levels_without_baseline_match_reference(self):
        ens, ys, _ = self._split(40, seed=9)
        levels = (0.5, 0.99)
        got = build_report(ens, ys, None, levels=levels).to_json()
        assert got == reference_report(ens, ys, None, levels=levels).to_json()

    @pytest.mark.parametrize("name", ["persistence", "seasonal_naive", "gaussian_residual"])
    def test_baseline_reports_match_reference(self, name):
        series = ar1_seasonal(80, channels=2, period=12, seed=4)
        windows = make_windows(series, lookback=24, horizon=6)[:6]
        ensembles = [e.samples for e in baseline_ensembles(windows, name, 50, 3, period=12)]
        ys = [w.y for w in windows]
        base = [persistence(w) for w in windows]
        got = build_report(ensembles, ys, base).to_json()
        assert got == reference_report(ensembles, ys, base).to_json()

    def test_standalone_functions_match_report(self):
        ens, ys, base = self._split(30, seed=2)
        rep = build_report(ens, ys, base, fair=True)
        assert weighted_crps(ens, ys, fair=True) == (rep.weighted_crps, True)
        for lvl in (0.8, 0.9, 0.95):
            assert coverage(ens, ys, lvl) == rep.coverage[f"{lvl:g}"]
        assert extreme_coverage(ens, ys, base) == rep.extreme_coverage_90

    def test_one_sort_per_window(self, monkeypatch):
        ens, ys, base = self._split(20, seed=5)
        calls = []
        real_sort = np.sort

        def counting_sort(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        build_report(ens, ys, base, levels=(0.5, 0.8))  # 0.9 added for extreme coverage
        assert calls == [(20, 6, 3)] * len(ens)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_report_names_the_window(self, bad):
        rng = np.random.default_rng(0)
        ens = [rng.normal(size=(10, 4, 2)) for _ in range(4)]
        ys = [np.zeros((4, 2)) for _ in range(4)]
        ens[2][3, 1, 1] = bad
        with pytest.raises(ValueError, match="window 2 "):
            build_report(ens, ys, [np.zeros((4, 2))] * 4)
        with pytest.raises(ValueError, match="window 2 "):
            coverage(ens, ys, 0.9)
        with pytest.raises(ValueError, match="window 2 "):
            weighted_crps(ens, ys)
