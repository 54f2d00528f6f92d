"""Evaluation orchestration: thread determinism, baselines, CSV/SVG artifacts."""

import csv
import gc
import io

import numpy as np
import pytest

from papnf.backbone import BackboneArch
from papnf.data import make_windows
from papnf.evaluate import (
    QUANTILE_COLUMNS,
    baseline_ensembles,
    baseline_report,
    evaluate_split,
    thread_count,
    write_ensemble_csv,
    write_fan_chart_svg,
    write_quantiles_csv,
)
from papnf.flow import ForecastEnsemble, sample_forecasts
from papnf.metrics import crps_empirical
from papnf.model import ModelConfig, PapNfModel
from papnf.synthetic import ar1_seasonal


@pytest.fixture(scope="module")
def small_setup():
    cfg = ModelConfig(
        lookback=16,
        horizon=4,
        channels=2,
        patch_len=8,
        d_n=6,
        d_c=4,
        d_h=8,
        d_u=3,
        t_flow=2,
        k_prefix=2,
        recon_hidden=10,
        hyper_hidden=6,
        backbone=BackboneArch(n_layers=1, n_heads=2, d=8, ffn_width=16, max_len=8),
    )
    model = PapNfModel(cfg, seed=0)
    series = ar1_seasonal(60, channels=2, period=8, seed=1)
    windows = make_windows(series, lookback=16, horizon=4)[:5]
    return model, windows


class TestThreadCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PAPNF_THREADS", "7")
        assert thread_count() == 7
        monkeypatch.setenv("PAPNF_THREADS", "0")
        assert thread_count() == 1
        monkeypatch.setenv("PAPNF_THREADS", "x")
        with pytest.raises(ValueError):
            thread_count()

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("PAPNF_THREADS", raising=False)
        assert thread_count() >= 1


class TestEvaluateSplit:
    def test_report_independent_of_thread_count(self, small_setup, monkeypatch):
        model, windows = small_setup
        outputs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("PAPNF_THREADS", threads)
            report, ensembles = evaluate_split(model, windows, n_samples=8, seed=42)
            outputs.append((report.to_json(), [e.samples.copy() for e in ensembles]))
        assert outputs[0][0] == outputs[1][0]
        for a, b in zip(outputs[0][1], outputs[1][1]):
            assert np.array_equal(a, b)

    def test_rerun_is_bitwise_identical(self, small_setup):
        model, windows = small_setup
        a, _ = evaluate_split(model, windows, n_samples=6, seed=7)
        b, _ = evaluate_split(model, windows, n_samples=6, seed=7)
        assert a.to_json() == b.to_json()

    def test_seed_changes_samples(self, small_setup):
        model, windows = small_setup
        _, ens_a = evaluate_split(model, windows, n_samples=6, seed=1)
        _, ens_b = evaluate_split(model, windows, n_samples=6, seed=2)
        assert not np.array_equal(ens_a[0].samples, ens_b[0].samples)

    def test_quantile_monotonicity_across_levels(self, small_setup):
        model, windows = small_setup
        _, ensembles = evaluate_split(model, windows, n_samples=12, seed=3)
        for ens in ensembles:
            lo80, hi80 = ens.interval(0.8)
            lo95, hi95 = ens.interval(0.95)
            assert np.all(lo95 <= lo80) and np.all(hi80 <= hi95)

    def test_sampling_records_no_graph(self, small_setup):
        # sampling runs under no_grad: nothing is left for the cyclic collector
        model, windows = small_setup
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            evaluate_split(model, windows, n_samples=8, seed=5)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
        assert all(p.grad is None for p in model.parameters().values())

    def test_empty_split_rejected(self, small_setup):
        model, _ = small_setup
        with pytest.raises(ValueError):
            evaluate_split(model, [], n_samples=4)


class TestBaselines:
    def _windows(self):
        series = ar1_seasonal(60, channels=1, period=8, seed=5)
        return make_windows(series, lookback=16, horizon=4)[:4]

    def test_deterministic_baseline_crps_equals_mae(self):
        windows = self._windows()
        report = baseline_report(windows, "persistence")
        assert report.crps_mean == pytest.approx(report.mae, abs=1e-12)

    def test_point_mass_crps_identity_holds_per_point(self):
        # two identical rows: spread term vanishes, energy form reduces to MAE
        assert crps_empirical(np.array([3.0, 3.0]), 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_gaussian_residual_is_seeded(self):
        windows = self._windows()
        a = baseline_ensembles(windows, "gaussian_residual", n_samples=16, seed=9)
        b = baseline_ensembles(windows, "gaussian_residual", n_samples=16, seed=9)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.samples, eb.samples)

    def test_seasonal_naive_requires_period(self):
        windows = self._windows()
        with pytest.raises(ValueError):
            baseline_report(windows, "seasonal_naive")
        report = baseline_report(windows, "seasonal_naive", period=8)
        assert np.isfinite(report.mse)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            baseline_report(self._windows(), "arima")


class TestCsvArtifacts:
    def test_quantile_csv_layout(self, small_setup, tmp_path):
        model, windows = small_setup
        _, ensembles = evaluate_split(model, windows, n_samples=8, seed=0)
        path = tmp_path / "q.csv"
        write_quantiles_csv(str(path), windows, ensembles)
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == [
            "window_id", "step", "channel", "q05", "q10", "q50", "q90", "q95", "truth",
        ]
        h, c = windows[0].y.shape
        assert len(rows) - 1 == len(windows) * h * c
        for row in rows[1:]:
            qs = [float(v) for v in row[3:8]]
            assert qs == sorted(qs)  # quantile columns are monotone

    def test_quantile_csv_roundtrips_floats_exactly(self, small_setup, tmp_path):
        model, windows = small_setup
        _, ensembles = evaluate_split(model, windows, n_samples=8, seed=0)
        path = tmp_path / "q.csv"
        write_quantiles_csv(str(path), windows, ensembles)
        rows = list(csv.reader(io.StringIO(path.read_text())))
        first = rows[1]
        want = float(ensembles[0].quantile(0.05)[0, 0])
        assert float(first[3]) == want  # repr round-trip is exact

    def test_ensemble_csv_layout(self, small_setup, tmp_path):
        model, windows = small_setup
        _, ensembles = evaluate_split(model, windows, n_samples=5, seed=0)
        path = tmp_path / "e.csv"
        write_ensemble_csv(str(path), windows, ensembles)
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == ["window_id", "sample_id", "step", "channel", "value"]
        s, h, c = ensembles[0].samples.shape
        assert len(rows) - 1 == len(windows) * s * h * c


class TestFanChart:
    def test_svg_is_deterministic_and_well_formed(self, small_setup, tmp_path):
        model, windows = small_setup
        _, ensembles = evaluate_split(model, windows, n_samples=10, seed=0)
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        write_fan_chart_svg(str(p1), windows[0], ensembles[0], channel=0)
        write_fan_chart_svg(str(p2), windows[0], ensembles[0], channel=0)
        text = p1.read_text()
        assert text == p2.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polygon") == 3  # one band per level
        assert text.count("<polyline") == 3  # history, median, truth
        assert "</svg>" in text

    def test_one_sort_per_chart(self, small_setup, tmp_path, monkeypatch):
        model, windows = small_setup
        _, ensembles = evaluate_split(model, windows, n_samples=10, seed=0)
        calls = []
        real_sort = np.sort

        def counting_sort(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        write_fan_chart_svg(str(tmp_path / "f.svg"), windows[0], ensembles[0], channel=1)
        assert calls == [ensembles[0].samples.shape]

    def test_channel_selects_different_series(self, small_setup, tmp_path):
        model, windows = small_setup
        _, ensembles = evaluate_split(model, windows, n_samples=10, seed=0)
        p1 = tmp_path / "c0.svg"
        p2 = tmp_path / "c1.svg"
        write_fan_chart_svg(str(p1), windows[0], ensembles[0], channel=0)
        write_fan_chart_svg(str(p2), windows[0], ensembles[0], channel=1)
        assert p1.read_text() != p2.read_text()


# -- sorted-ensemble writers against per-element references ---------------------------


def reference_quantiles_csv(path, windows, ensembles):
    """write_quantiles_csv one np.quantile call and one repr per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["window_id", "step", "channel"]
            + [f"q{int(q * 100):02d}" for q in QUANTILE_COLUMNS]
            + ["truth"]
        )
        for w, ens in zip(windows, ensembles):
            qs = [np.quantile(ens.samples, q, axis=0) for q in QUANTILE_COLUMNS]
            h, c = w.y.shape
            for step in range(h):
                for ch in range(c):
                    writer.writerow(
                        [int(w.index), step, ch]
                        + [repr(float(q[step, ch])) for q in qs]
                        + [repr(float(w.y[step, ch]))]
                    )


def reference_ensemble_csv(path, windows, ensembles):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_id", "sample_id", "step", "channel", "value"])
        for w, ens in zip(windows, ensembles):
            s, h, c = ens.samples.shape
            for sample_id in range(s):
                for step in range(h):
                    for ch in range(c):
                        value = repr(float(ens.samples[sample_id, step, ch]))
                        writer.writerow([int(w.index), sample_id, step, ch, value])


def _synthetic_ensembles(windows, s, seed):
    """Continuous and tied ensembles, with large and tiny magnitudes."""
    rng = np.random.default_rng(seed)
    out = []
    for k, w in enumerate(windows):
        samples = rng.normal(size=(s,) + w.y.shape) * 10.0 ** rng.integers(-8, 9)
        if k % 2:
            samples = np.round(samples, 1) + 0.0
        out.append(ForecastEnsemble(window_index=int(w.index), samples=samples))
    return out


class TestWriterParity:
    @pytest.mark.parametrize("s", [2, 3, 8, 100, 101])
    def test_quantiles_csv_bytes_match_reference(self, small_setup, tmp_path, s):
        _, windows = small_setup
        ensembles = _synthetic_ensembles(windows, s, seed=s)
        write_quantiles_csv(str(tmp_path / "got.csv"), windows, ensembles)
        reference_quantiles_csv(str(tmp_path / "want.csv"), windows, ensembles)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_model_csvs_bytes_match_reference(self, small_setup, tmp_path):
        model, windows = small_setup
        _, ensembles = evaluate_split(model, windows, n_samples=100, seed=4)
        for writer, reference in (
            (write_quantiles_csv, reference_quantiles_csv),
            (write_ensemble_csv, reference_ensemble_csv),
        ):
            writer(str(tmp_path / "got.csv"), windows, ensembles)
            reference(str(tmp_path / "want.csv"), windows, ensembles)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_ensemble_csv_bytes_match_reference(self, small_setup, tmp_path):
        _, windows = small_setup
        ensembles = _synthetic_ensembles(windows, 7, seed=1)
        write_ensemble_csv(str(tmp_path / "got.csv"), windows, ensembles)
        reference_ensemble_csv(str(tmp_path / "want.csv"), windows, ensembles)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_quantiles_csv_sorts_each_ensemble_once(self, small_setup, tmp_path, monkeypatch):
        _, windows = small_setup
        ensembles = _synthetic_ensembles(windows, 20, seed=2)
        calls = []
        real_sort = np.sort

        def counting_sort(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        write_quantiles_csv(str(tmp_path / "q.csv"), windows, ensembles)
        assert calls == [(20,) + windows[0].y.shape] * len(windows)

    def test_ensemble_quantiles_match_np_quantile(self, small_setup):
        _, windows = small_setup
        for ens in _synthetic_ensembles(windows, 50, seed=3):
            for q in (0.0, 0.025, 0.5, 0.975, 1.0):
                assert ens.quantile(q).tobytes() == np.quantile(ens.samples, q, axis=0).tobytes()
            alpha = (1.0 - 0.9) / 2.0
            lo, hi = ens.interval(0.9)
            assert lo.tobytes() == np.quantile(ens.samples, alpha, axis=0).tobytes()
            assert hi.tobytes() == np.quantile(ens.samples, 1.0 - alpha, axis=0).tobytes()
        with pytest.raises(ValueError):
            ens.quantile(1.5)


class TestSampleForecasts:
    def test_block_destandardize_matches_per_sample(self, small_setup):
        model, windows = small_setup
        w = windows[2]
        ens = sample_forecasts(w, model, 9, np.random.default_rng(11))
        u0 = np.random.default_rng(11).standard_normal((9, model.cfg.d_u))
        std = model.forward_samples(w.x_std, u0).data.reshape(9, *w.y.shape)
        want = np.stack([w.scaler.destandardize(row) for row in std])
        assert ens.samples.shape == want.shape
        assert ens.samples.tobytes() == want.tobytes()
