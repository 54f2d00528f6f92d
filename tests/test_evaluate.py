"""Evaluation orchestration: determinism, chunked sampling, baselines, CSV/SVG artifacts."""

import csv
import gc
import io

from dataclasses import replace

import numpy as np
import pytest

from papnf import tensor as tz
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
from papnf.flow import (
    _NORM_EPS,
    PLANAR_MARGIN,
    SAMPLE_CHUNK,
    ForecastEnsemble,
    sample_chunk,
    sample_forecasts,
)
from papnf.metrics import crps_empirical
from papnf.model import ModelConfig, PapNfModel, ablation_variant
from papnf.seeding import substream
from papnf.synthetic import ar1_seasonal
from papnf.tensor import Tape, Tensor, no_grad
from papnf.train import loss_reconstruction, validation_mse


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
    def test_report_independent_of_thread_count(self, small_setup):
        model, windows = small_setup
        outputs = []
        for _ in range(2):
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
            a80, a95 = (1.0 - 0.8) / 2.0, (1.0 - 0.95) / 2.0  # central interval levels
            lo95, lo80, hi80, hi95 = ens.quantiles((a95, a80, 1.0 - a80, 1.0 - a95))
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

    def test_one_sample_rejected_before_sampling(self, small_setup, monkeypatch):
        model, windows = small_setup
        monkeypatch.setattr("papnf.evaluate.sample_windows", lambda *a: pytest.fail("sampled"))
        with pytest.raises(ValueError, match="n_samples >= 2, got 1"):
            evaluate_split(model, windows, n_samples=1)


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
        want = float(ensembles[0].quantiles((0.05,))[0, 0, 0])
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

    @pytest.mark.parametrize("writer", [write_quantiles_csv, write_ensemble_csv])
    def test_writers_reject_unpaired_ensembles(self, small_setup, tmp_path, writer):
        _, windows = small_setup
        ensembles = _synthetic_ensembles(windows, 4, seed=5)
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="3 ensembles for 5 windows"):
            writer(str(path), windows, ensembles[:3])
        reversed_msg = "position 0: ensemble of window 4 paired with window 0"
        with pytest.raises(ValueError, match=reversed_msg):
            writer(str(path), windows, ensembles[::-1])
        swapped = [ensembles[0], ensembles[3], ensembles[2], ensembles[1], ensembles[4]]
        with pytest.raises(ValueError, match="position 1: "):
            writer(str(path), windows, swapped)
        assert not path.exists()  # checked before the file is opened


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

    def test_rejects_another_windows_ensemble(self, small_setup, tmp_path):
        _, windows = small_setup
        ensembles = _synthetic_ensembles(windows, 4, seed=6)
        path = tmp_path / "f.svg"
        with pytest.raises(ValueError, match="ensemble of window 2 paired with window 0"):
            write_fan_chart_svg(str(path), windows[0], ensembles[2])
        assert not path.exists()


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
                want = np.quantile(ens.samples, q, axis=0)
                assert ens.quantiles((q,))[0].tobytes() == want.tobytes()
            alpha = (1.0 - 0.9) / 2.0
            lo, hi = ens.quantiles((alpha, 1.0 - alpha))
            assert lo.tobytes() == np.quantile(ens.samples, alpha, axis=0).tobytes()
            assert hi.tobytes() == np.quantile(ens.samples, 1.0 - alpha, axis=0).tobytes()
        with pytest.raises(ValueError):
            ens.quantiles((1.5,))


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


# -- chunked sampling against the one-window 2-D pass ----------------------------------


def chunk_config(channels, **changes):
    cfg = ModelConfig(
        lookback=24,
        horizon=4,
        channels=channels,
        patch_len=8,
        d_n=12,
        d_c=6,
        d_h=10,
        d_u=4,
        t_flow=2,
        k_prefix=2,
        recon_hidden=16,
        hyper_hidden=8,
        backbone=BackboneArch(n_layers=2, n_heads=2, d=8, ffn_width=16, max_len=8),
    )
    return replace(cfg, **changes)


def chunk_windows(channels, n):
    series = ar1_seasonal(60, channels=channels, period=8, seed=channels)
    return make_windows(series, lookback=24, horizon=4)[:n]


def reference_ensemble(window, model, n_samples, rng):
    """One window alone through the 2-D forward pass that training records."""
    u0 = rng.standard_normal((n_samples, model.cfg.d_u))
    with no_grad():
        rows = model.forward_samples(window.x_std, u0).data
    assert rows.ndim == 2
    return window.scaler.destandardize(rows.reshape(n_samples, *window.y.shape))


def assert_split_matches_reference(model, windows, n_samples=10, seed=21):
    _, ensembles = evaluate_split(model, windows, n_samples=n_samples, seed=seed)
    assert [e.window_index for e in ensembles] == [w.index for w in windows]
    for w, ens in zip(windows, ensembles):
        want = reference_ensemble(w, model, n_samples, substream(seed, "sample", int(w.index)))
        assert ens.samples.tobytes() == want.tobytes()
        alone = sample_forecasts(w, model, n_samples, substream(seed, "sample", int(w.index)))
        assert ens.samples.tobytes() == alone.samples.tobytes()


class TestChunkedSampling:
    @pytest.mark.parametrize("channels", [1, 7])
    @pytest.mark.parametrize("n_windows", [1, 7, 8, 9, 17])
    def test_split_is_bitwise_the_one_window_pass(self, channels, n_windows):
        model = PapNfModel(chunk_config(channels), seed=2)
        assert_split_matches_reference(model, chunk_windows(channels, n_windows))

    @pytest.mark.parametrize("channels", [1, 7])
    @pytest.mark.parametrize("variant", ["no_pap", "no_global_context", "t_flow_0"])
    def test_variants_are_bitwise_the_one_window_pass(self, channels, variant):
        cfg = chunk_config(channels)
        cfg = replace(cfg, t_flow=0) if variant == "t_flow_0" else ablation_variant(cfg, variant)
        model = PapNfModel(cfg, seed=4)
        assert_split_matches_reference(model, chunk_windows(channels, 17))

    def test_one_forward_pass_per_chunk(self, monkeypatch):
        model = PapNfModel(chunk_config(1), seed=2)
        passes = []
        real = PapNfModel.forward_samples

        def counting(self, x_std, u0):
            passes.append(x_std.shape[0] if x_std.ndim == 3 else "alone")
            return real(self, x_std, u0)

        monkeypatch.setattr(PapNfModel, "forward_samples", counting)
        evaluate_split(model, chunk_windows(1, 17), n_samples=5, seed=1)
        assert SAMPLE_CHUNK == 8 and passes == [8, 8, 1]

    @pytest.mark.parametrize("channels", [1, 7])
    def test_validation_mse_is_bitwise_the_per_window_reference(self, channels):
        model = PapNfModel(chunk_config(channels), seed=6)
        windows = chunk_windows(channels, 11)
        total = 0.0
        for w in windows:
            samples = reference_ensemble(w, model, 7, substream(9, "val-sample", int(w.index)))
            diff = samples.mean(axis=0) - w.y
            total += float(np.mean(diff * diff))
        assert validation_mse(model, windows, 7, 9) == total / len(windows)

    def test_chunked_split_records_no_graph(self):
        model = PapNfModel(chunk_config(7), seed=2)
        windows = chunk_windows(7, 17)
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

    def test_one_generator_per_window(self):
        model = PapNfModel(chunk_config(1), seed=2)
        windows = chunk_windows(1, 3)
        with pytest.raises(ValueError, match="2 generators for 3 windows"):
            sample_chunk(windows, model, 4, [substream(0, "a"), substream(0, "b")])


# -- the window axis, op by op ----------------------------------------------------------

B = 3


def _arr(rng, *shape):
    return rng.normal(size=shape)


def _window_axis_cases(rng):
    """name -> (op, window-stacked operands, shared 2-D operands)."""
    d, n = 4, 5
    return {
        "linear": (tz.linear, [_arr(rng, B, n, 6)], [_arr(rng, d, 6), _arr(rng, d)]),
        "matmul": (tz.matmul, [_arr(rng, B, n, d)], [_arr(rng, d, 6)]),
        "concat_rows": (
            lambda x, p: tz.concat_rows([p, x]), [_arr(rng, B, n, d)], [_arr(rng, 2, d)]
        ),
        "concat_cols": (
            lambda x, y: tz.concat_cols([x, y]), [_arr(rng, B, 1, d), _arr(rng, B, 1, 2)], []
        ),
        "mean_rows": (tz.mean_rows, [_arr(rng, B, n, d)], []),
        "repeat_rows": (lambda v: tz.repeat_rows(v, 6), [_arr(rng, B, 1, d)], []),
        "energy_score": (tz.energy_score, [_arr(rng, B, 7, d), _arr(rng, B, 1, d)], []),
        "loss_reconstruction": (
            loss_reconstruction, [_arr(rng, B, 7, d), _arr(rng, B, 1, d)], []
        ),
        "sum": (lambda x: x.sum(), [_arr(rng, B, n, d)], []),
        "slice": (lambda x: x[1:4, 0:3], [_arr(rng, B, n, d)], []),
        "transformer": (
            lambda x, pos, *w: tz.transformer(x, pos, [tuple(w[:10])], tuple(w[10:]), n_heads=2),
            [_arr(rng, B, n, d)],
            [_arr(rng, 7, d)] + [_arr(rng, d, d) for _ in range(4)]
            + [_arr(rng, d) for _ in range(4)] + [_arr(rng, d, 6), _arr(rng, 6, d)]
            + [_arr(rng, d), _arr(rng, d)],
        ),
        "planar_layer": (  # h first: the hypernet's weights read its rows
            lambda h, u, *w: tz.planar_layer(u, h, *w, PLANAR_MARGIN, _NORM_EPS),
            [_arr(rng, B, 1, 3), _arr(rng, B, 7, d)],
            [_arr(rng, 5, 3), _arr(rng, 5), _arr(rng, 2 * d + 1, 5), _arr(rng, 2 * d + 1)],
        ),
        "mlp_split": (
            tz.mlp_split,
            [_arr(rng, B, 7, d), _arr(rng, B, 1, 3)],
            [_arr(rng, 5, d + 3), _arr(rng, 5), _arr(rng, 6, 5), _arr(rng, 6)],
        ),
    }


CASES = sorted(_window_axis_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("name", CASES)
def test_window_axis_is_bitwise_the_per_window_op(name):
    op, stacked, shared = _window_axis_cases(np.random.default_rng(1))[name]
    shared = [Tensor(s, requires_grad=True) for s in shared]
    with no_grad():
        got = op(*[Tensor(s) for s in stacked], *shared).data
        for i in range(B):
            want = op(*[Tensor(s[i]) for s in stacked], *shared).data
            assert got[i].tobytes() == want.tobytes()


def _backward_from(out, grad):
    out.accumulate_grad(np.asarray(grad))
    Tape.from_root(out).replay_backward()


def _one_backward_over_windows(outs, upstream):
    """One backward over per-window graphs: their terms summed into one loss."""
    total = None
    for out, g in zip(outs, upstream):
        term = (out * Tensor(g)).sum()
        total = term if total is None else total + term
    total.backward()


@pytest.mark.parametrize("name", CASES)
def test_window_axis_gradients_are_bitwise_the_per_window_graphs(name):
    # reference: one graph per window, built for windows 0..B-1 and replayed in
    # one backward, as fit's reference loop and perfbench build a batch
    op, stacked, shared = _window_axis_cases(np.random.default_rng(2))[name]
    operands = [Tensor(s, requires_grad=True) for s in stacked]
    shared_t = [Tensor(s, requires_grad=True) for s in shared]
    out = op(*operands, *shared_t)
    upstream = np.random.default_rng(3).normal(size=out.shape)
    _backward_from(out, upstream)

    per_window = [[Tensor(s[i], requires_grad=True) for s in stacked] for i in range(B)]
    shared_ref = [Tensor(s, requires_grad=True) for s in shared]
    outs = [op(*per_window[i], *shared_ref) for i in range(B)]
    _one_backward_over_windows(outs, upstream)

    for i in range(B):
        assert out.data[i].tobytes() == outs[i].data.tobytes()
        for t, ref in zip(operands, per_window[i]):
            assert t.grad[i].tobytes() == ref.grad.tobytes()
    for t, ref in zip(shared_t, shared_ref):
        assert t.grad.tobytes() == ref.grad.tobytes()


SHARED_CASES = [n for n in CASES if _window_axis_cases(np.random.default_rng(0))[n][2]]


@pytest.mark.parametrize("name", SHARED_CASES)
def test_each_shared_operand_takes_one_stacked_gradient_per_node(name, monkeypatch):
    # each shared operand takes exactly one reduction per backward, over one
    # block of all B windows' rows: a weight one product over B*r rows, a bias
    # or gain one sum over B*r rows, a concatenated 2-D part one sum over B rows
    reductions = {}
    real = tz._reduce

    def spy(t, lefts, blocks):
        rows = {sum(a.size // a.shape[-1] for a in arrays) for arrays in (lefts or blocks, blocks)}
        kind = "sum" if lefts is None else "product"
        reductions.setdefault(id(t), []).append((kind, len(blocks), *rows))
        real(t, lefts, blocks)

    monkeypatch.setattr(tz, "_reduce", spy)
    op, stacked, shared = _window_axis_cases(np.random.default_rng(2))[name]
    shared_t = [Tensor(s, requires_grad=True) for s in shared]
    x = Tensor(stacked[0], requires_grad=True)
    out = op(x, *[Tensor(s, requires_grad=True) for s in stacked[1:]], *shared_t)
    _backward_from(out, np.random.default_rng(3).normal(size=out.shape))
    broadcast = name == "concat_rows"  # out.grad's rows, handed over
    summed = shared_t[0] if name == "transformer" else None  # pos: summed over windows in the op
    for t in shared_t:
        if broadcast:
            assert reductions[id(t)] == [("sum", 1, B)]
        elif t is summed:
            assert reductions[id(t)] == [("sum", 1, 1)]
        elif t.data.ndim == 2:  # a weight
            assert reductions[id(t)] == [("product", 1, B * x.shape[-2])]
        else:
            assert reductions[id(t)] == [("sum", 1, B * x.shape[-2])]
