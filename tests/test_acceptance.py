"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion N [...]: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output of failures) and asserts the same
condition. The slow end-to-end criteria share module-scoped pipeline fixtures;
the determinism criterion reruns those pipelines under a different thread cap
and compares report JSON bitwise.
"""

import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from papnf import tensor as tz
from papnf.cli import main as cli_main
from papnf.data import SplitSpec, load_csv, make_windows, split_series
from papnf.encoder import PrefixBank, build_llm_input
from papnf.evaluate import baseline_report, evaluate_split
from papnf.flow import (
    PLANAR_MARGIN,
    FlowLayer,
    flow_invert_np,
    flow_forward_np,
    invert_planar_np,
    planar_step_np,
    reparameterize_np,
    sample_forecasts,
)
from papnf.metrics import crps_empirical
from papnf.model import ModelConfig, PapNfModel
from papnf.seeding import derive_seed, substream
from papnf.synthetic import ar1_seasonal, ett_like, write_csv
from papnf.tensor import Tensor, grad_check
from papnf.train import TrainConfig, fit, loss_energy

# Criterion-4 task: AR(1) residuals on a daily cycle, known generative noise.
CRIT4 = SimpleNamespace(
    length=3000, period=24, phi=0.7, noise_std=0.3, amplitude=1.0, data_seed=7,
    lookback=96, horizon=24, epochs=6, seed=0, n_samples=100,
)
# Criterion-5 task: ETT-format file, desk config, point-forecast sanity.
CRIT5 = SimpleNamespace(
    length=900, train_len=400, val_len=250, test_len=250, data_seed=13,
    lookback=96, horizon=96, epochs=15, seed=0, n_samples=100,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _with_threads(value, fn):
    """Run fn with PAPNF_THREADS set to value (None = unset), then restore."""
    old = os.environ.pop("PAPNF_THREADS", None)
    if value is not None:
        os.environ["PAPNF_THREADS"] = value
    try:
        return fn()
    finally:
        os.environ.pop("PAPNF_THREADS", None)
        if old is not None:
            os.environ["PAPNF_THREADS"] = old


# -- shared pipelines ---------------------------------------------------------------


def _crit4_pipeline():
    p = CRIT4
    t0 = time.time()
    series = ar1_seasonal(
        p.length, period=p.period, phi=p.phi, noise_std=p.noise_std,
        amplitude=p.amplitude, seed=p.data_seed,
    )
    train_len, val_len = int(p.length * 0.6), int(p.length * 0.2)
    spec = SplitSpec(train_len, val_len, p.length - train_len - val_len)
    tr, va, te = split_series(series, spec)
    train_w = make_windows(tr, p.lookback, p.horizon)
    val_w = make_windows(va, p.lookback, p.horizon)
    test_w = make_windows(te, p.lookback, p.horizon)
    cfg = ModelConfig(lookback=p.lookback, horizon=p.horizon, channels=1)
    model = PapNfModel(cfg, seed=derive_seed(p.seed, "init"))
    fit(model, train_w, val_w, TrainConfig(model=cfg, epochs=p.epochs, seed=p.seed))
    report, ensembles = evaluate_split(model, test_w, n_samples=p.n_samples, seed=p.seed)
    base = baseline_report(test_w, "gaussian_residual", n_samples=p.n_samples, seed=p.seed)
    return SimpleNamespace(
        report=report, ensembles=ensembles, windows=test_w, baseline=base,
        report_json=report.to_json(), elapsed=time.time() - t0,
    )


def _crit5_pipeline(csv_path: str):
    p = CRIT5
    series = load_csv(csv_path)
    tr, va, te = split_series(series, SplitSpec(p.train_len, p.val_len, p.test_len))
    train_w = make_windows(tr, p.lookback, p.horizon)
    val_w = make_windows(va, p.lookback, p.horizon)
    test_w = make_windows(te, p.lookback, p.horizon)
    cfg = ModelConfig(lookback=p.lookback, horizon=p.horizon, channels=series.channels)
    model = PapNfModel(cfg, seed=derive_seed(p.seed, "init"))
    hash_before = model.backbone.weight_hash()
    params_before = {k: t.data.copy() for k, t in model.parameters().items()}
    fit(model, train_w, val_w, TrainConfig(model=cfg, epochs=p.epochs, seed=p.seed))
    hash_after = model.backbone.weight_hash()
    params_after = {k: t.data.copy() for k, t in model.parameters().items()}
    report, _ = evaluate_split(model, test_w, n_samples=p.n_samples, seed=p.seed)
    persistence = baseline_report(test_w, "persistence", n_samples=p.n_samples, seed=p.seed)
    return SimpleNamespace(
        report=report, report_json=report.to_json(), persistence=persistence,
        hash_before=hash_before, hash_after=hash_after,
        params_before=params_before, params_after=params_after,
        n_backbone_layers=cfg.backbone.n_layers,
    )


@pytest.fixture(scope="module")
def crit4():
    return _with_threads(None, _crit4_pipeline)


@pytest.fixture(scope="module")
def crit4_redo():
    return _with_threads("3", _crit4_pipeline)


@pytest.fixture(scope="module")
def ett_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "ettlike.csv"
    write_csv(ett_like(CRIT5.length, seed=CRIT5.data_seed), str(path))
    return str(path)


@pytest.fixture(scope="module")
def crit5(ett_csv):
    return _with_threads(None, lambda: _crit5_pipeline(ett_csv))


@pytest.fixture(scope="module")
def crit5_redo(ett_csv):
    return _with_threads("2", lambda: _crit5_pipeline(ett_csv))


# -- criterion 1: autodiff fidelity -------------------------------------------------


def _op_cases(rng):
    """(name, fn, points) triples covering every differentiable operation."""

    def t(*shape, low=None):
        data = rng.normal(size=shape)
        if low is not None:
            data = np.sign(data) * (np.abs(data) + low)
        return Tensor(data, requires_grad=True)

    def probed(shape, g):
        # fixed projection weights: grad_check re-calls fn, so fn must be
        # the same deterministic function on every evaluation
        w = Tensor(rng.normal(size=shape))
        return lambda *ts: tz.tensor_sum(g(*ts) * w)

    def attention_weights(trainable):
        # scaled like the backbone's init so the softmax does not saturate
        return [Tensor(rng.normal(size=(6, 6)) / math.sqrt(6), requires_grad=trainable)
                for _ in range(4)]

    cases = [
        ("add", probed((3, 4), lambda x, y: x + y), [t(3, 4), t(3, 4)]),
        ("add_scalar", probed((3, 4), lambda x: x + 2.5), [t(3, 4)]),
        ("sub", probed((3, 4), lambda x, y: x - y), [t(3, 4), t(3, 4)]),
        ("mul", probed((3, 4), lambda x, y: x * y), [t(3, 4), t(3, 4)]),
        ("mul_scalar", probed((3, 4), lambda x: x * -1.7), [t(3, 4)]),
        ("neg", probed((3, 4), lambda x: -x), [t(3, 4)]),
        ("tanh", probed((3, 4), lambda x: x.tanh()), [t(3, 4)]),
        ("softplus", probed((3, 4), lambda x: x.softplus()), [t(3, 4)]),
        ("abs", probed((3, 4), lambda x: x.abs()), [t(3, 4, low=0.3)]),
        ("reciprocal", probed((3, 4), lambda x: x.reciprocal()), [t(3, 4, low=0.5)]),
        ("matmul", probed((3, 2), lambda x, y: x @ y), [t(3, 4), t(4, 2)]),
        ("transpose", probed((4, 3), lambda x: x.T), [t(3, 4)]),
        ("reshape", probed((2, 6), lambda x: x.reshape((2, 6))), [t(3, 4)]),
        ("slice", probed((2, 2), lambda x: x[1:3, 0:2]), [t(4, 4)]),
        ("concat_rows", probed((5, 4), lambda x, y: tz.concat_rows([x, y])), [t(2, 4), t(3, 4)]),
        ("concat_cols", probed((3, 6), lambda x, y: tz.concat_cols([x, y])), [t(3, 2), t(3, 4)]),
        ("mean_rows", probed((1, 4), lambda x: tz.mean_rows(x)), [t(3, 4)]),
        ("sum", lambda x: x.sum(), [t(3, 4)]),
        ("add_rowvec", probed((3, 4), lambda m, v: tz.add_rowvec(m, v)), [t(3, 4), t(4)]),
        ("mul_rowvec", probed((3, 4), lambda m, v: tz.mul_rowvec(m, v)), [t(3, 4), t(4, low=0.3)]),
        ("repeat_rows", probed((5, 4), lambda v: tz.repeat_rows(v, 5)), [t(1, 4)]),
        ("softmax_rows", probed((3, 4), lambda x: tz.softmax_rows(x)), [t(3, 4)]),
        ("layernorm_rows", probed((3, 4), lambda x: tz.layernorm_rows(x)), [t(3, 4)]),
    ]
    # the fused layer ops; "_frozen" variants hold the weights constant
    lin_W, lin_b = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=5))
    att_frozen = attention_weights(False)
    cases += [
        ("linear", probed((3, 5), tz.linear), [t(3, 4), t(5, 4), t(5)]),
        ("linear_frozen", probed((3, 5), lambda x: tz.linear(x, lin_W, lin_b)), [t(3, 4)]),
        ("layernorm_affine", probed((3, 4), tz.layernorm_affine), [t(3, 4), t(4), t(4)]),
        ("causal_attention", probed((4, 6), lambda x, *w: tz.causal_attention(x, *w, 2)),
         [t(4, 6), *attention_weights(True)]),
        ("causal_attention_frozen",
         probed((4, 6), lambda x: tz.causal_attention(x, *att_frozen, 2)), [t(4, 6)]),
        ("planar_step", probed((3, 4), lambda u, th: tz.planar_step(u, th, PLANAR_MARGIN, 1e-12)),
         [t(3, 4), t(1, 9)]),
        ("energy_score", tz.energy_score, [t(6, 4), t(1, 4)]),
        ("linear_split", probed((3, 5), tz.linear_split), [t(3, 2), t(1, 2), t(5, 4), t(5)]),
    ]
    return cases


def test_criterion_1_autodiff_fidelity():
    t0 = time.time()
    rng = substream(0, "acceptance", "ops")
    worst_op, worst_err = "", 0.0
    for name, fn, points in _op_cases(rng):
        err = grad_check(fn, points)
        if err > worst_err:
            worst_op, worst_err = name, err
    ops_ok = worst_err < 1e-5

    cfg = ModelConfig(
        lookback=24, horizon=8, channels=2, patch_len=8, d_n=8, d_c=6, d_h=10,
        d_u=4, t_flow=2, k_prefix=2, recon_hidden=12, hyper_hidden=8,
        backbone={"n_layers": 1, "n_heads": 2, "d": 16, "ffn_width": 32, "max_len": 8},
    )
    model = PapNfModel(cfg, seed=derive_seed(0, "acceptance", "e2e"))
    data_rng = substream(0, "acceptance", "e2e-data")
    x_std = data_rng.normal(size=(24, 2))
    u0 = data_rng.normal(size=(3, cfg.d_u))
    target = Tensor(data_rng.normal(size=(1, 16)))

    def end_to_end(*_params):
        return loss_energy(model.forward_samples(x_std, u0), target)

    params = list(model.parameters().values())
    e2e_err = grad_check(end_to_end, params)
    e2e_ok = e2e_err < 1e-4
    elapsed = time.time() - t0
    _verdict(
        1, "autodiff fidelity", ops_ok and e2e_ok and elapsed < 60.0,
        f"ops max {worst_err:.2e} ({worst_op}), end-to-end {e2e_err:.2e}, {elapsed:.1f}s",
    )


# -- criterion 2: flow invertibility ------------------------------------------------


def test_criterion_2_flow_invertibility():
    t0 = time.time()
    d_h, d_u, hidden, t_flow = 128, 32, 64, 4
    rng = substream(0, "acceptance", "invert")
    worst_wa = math.inf
    worst_rec = 0.0
    for t in range(t_flow):
        layer = FlowLayer(t, d_h, d_u, hidden, substream(0, "acceptance", "flow", t))
        # stress far from the near-identity init: large hypernet outputs
        layer.U2.data = rng.normal(size=layer.U2.shape)
        layer.c2.data = rng.normal(size=layer.c2.shape)
        for _ in range(1000):
            h = rng.normal(size=d_h)
            u = rng.normal(size=d_u)
            a, w, b = layer.hyper_np(h)
            _, wa = reparameterize_np(a, w)
            worst_wa = min(worst_wa, wa)
            u_prime = planar_step_np(u, a, w, b)
            u_back = invert_planar_np(u_prime, a, w, b)
            worst_rec = max(worst_rec, float(np.max(np.abs(u_back - u))))
    elapsed = time.time() - t0
    ok = worst_wa >= -1.0 + 1e-4 and worst_rec <= 1e-8 and elapsed < 30.0
    _verdict(
        2, "flow invertibility", ok,
        f"min w_hat.a {worst_wa:+.6f}, max inversion error {worst_rec:.2e}, {elapsed:.1f}s",
    )


# -- criterion 3: CRPS estimator oracle ---------------------------------------------


def test_criterion_3_crps_oracle():
    # independent closed form: CRPS of N(mu, sigma) at y is
    # sigma * (z(2*Phi(z) - 1) + 2*phi(z) - 1/sqrt(pi)), z = (y-mu)/sigma
    def crps_gaussian(y, mu, sigma):
        z = (y - mu) / sigma
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))

    closed = crps_gaussian(0.0, 0.0, 1.0)
    constant_ok = abs(closed - 0.2337) < 5e-5
    samples = substream(0, "acceptance", "crps").standard_normal(10_000)
    est = crps_empirical(samples, 0.0)
    mc_ok = abs(est - closed) <= 0.01
    pair = crps_empirical(np.array([0.0, 2.0]), 1.0)
    pair_ok = pair == 0.5
    _verdict(
        3, "CRPS estimator oracle", constant_ok and mc_ok and pair_ok,
        f"closed {closed:.5f}, estimate {est:.5f}, fixture {pair}",
    )


# -- criterion 4: calibration on synthetic data -------------------------------------


def test_criterion_4_synthetic_calibration(crit4):
    cov = crit4.report.coverage["0.9"]
    cov_ok = 0.85 <= cov <= 0.95
    crps_ok = crit4.report.weighted_crps < crit4.baseline.weighted_crps
    time_ok = crit4.elapsed < 900.0
    _verdict(
        4, "synthetic calibration", cov_ok and crps_ok and time_ok,
        f"coverage@90 {cov:.3f}, weighted CRPS {crit4.report.weighted_crps:.4f} "
        f"vs baseline {crit4.baseline.weighted_crps:.4f}, {crit4.elapsed:.0f}s",
    )


# -- criterion 5: point-forecast sanity ---------------------------------------------


def test_criterion_5_point_forecast_sanity(crit5):
    ok = (
        crit5.n_backbone_layers == 2
        and crit5.report.mse < crit5.persistence.mse
    )
    _verdict(
        5, "point-forecast sanity", ok,
        f"model MSE {crit5.report.mse:.4f} vs persistence {crit5.persistence.mse:.4f}, "
        f"{crit5.n_backbone_layers}-layer frozen backbone, "
        f"{CRIT5.lookback}->{CRIT5.horizon}, {CRIT5.epochs} epochs",
    )


# -- criterion 6: frozen contract --------------------------------------------------


def test_criterion_6_frozen_contract(crit5):
    frozen_ok = crit5.hash_before == crit5.hash_after
    groups = ("prefix.", "reprogram.", "fusion.", "flow.", "recon.")
    stale = [
        name
        for name in crit5.params_before
        if name.startswith(groups)
        and np.array_equal(crit5.params_before[name], crit5.params_after[name])
    ]
    moved_ok = not stale
    _verdict(
        6, "frozen contract", frozen_ok and moved_ok,
        f"backbone hash {'unchanged' if frozen_ok else 'CHANGED'}, "
        f"stale trainables: {stale if stale else 'none'}",
    )


# -- criterion 7: ablation harness --------------------------------------------------


def test_criterion_7_ablation_harness(tmp_path):
    data_path = tmp_path / "ablate_data.csv"
    write_csv(
        ar1_seasonal(600, period=24, noise_std=0.3, seed=CRIT4.data_seed),
        str(data_path),
    )
    config = {
        "version": 1,
        "seed": 0,
        "dataset": {"path": str(data_path), "period": 24},
        "split": {"train_len": 240, "val_len": 180, "test_len": 180},
        "model": {
            "lookback": 96,
            "horizon": 24,
            "patch_len": 16,
            "d_n": 16,
            "d_c": 8,
            "d_h": 16,
            "d_u": 6,
            "t_flow": 2,
            "k_prefix": 3,
            "recon_hidden": 32,
            "hyper_hidden": 16,
            "backbone": {"n_layers": 1, "n_heads": 2, "d": 16, "ffn_width": 32, "max_len": 16},
        },
        "train": {"epochs": 2, "train_samples": 4, "val_samples": 4},
        "eval": {"n_samples": 50},
    }
    cfg_path = tmp_path / "ablate_config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "ablate_out"
    code = cli_main(["ablate", "--config", str(cfg_path), "--out", str(out)])
    completed = code == 0

    rows = (out / "ablation.csv").read_text().strip().splitlines() if completed else []
    header_ok = bool(rows) and rows[0] == "arm,mse,mae,delta_mse_pct,delta_mae_pct"
    arms = [r.split(",")[0] for r in rows[1:]]
    arms_ok = arms == ["full", "no_pap", "random_backbone", "no_global_context"]

    census_ok = False
    if completed:
        meta = json.loads((out / "ablation.json").read_text())
        census = meta["census"]
        diff = set(census["full"]) ^ set(census["no_pap"])
        census_ok = diff == {"prefix.P"}
    _verdict(
        7, "ablation harness", completed and header_ok and arms_ok and census_ok,
        f"exit {code}, arms {arms}, census diff "
        f"{sorted(diff) if completed else 'n/a'}",
    )


# -- criterion 8: determinism -------------------------------------------------------


def test_criterion_8_determinism(crit4, crit4_redo, crit5, crit5_redo):
    same4 = crit4.report_json == crit4_redo.report_json
    same5 = crit5.report_json == crit5_redo.report_json
    _verdict(
        8, "determinism across thread caps", same4 and same5,
        f"criterion-4 report bitwise equal: {same4}, criterion-5: {same5}",
    )


# -- criterion 9: shape and protocol invariants -------------------------------------


def test_criterion_9_shape_protocol_invariants(crit4):
    rng = substream(0, "acceptance", "shapes")
    d = 16
    stack_ok = True
    for _ in range(25):
        k = int(rng.integers(0, 9))
        m = int(rng.integers(1, 7))
        prefix = PrefixBank(k, d, substream(0, "acceptance", "prefix", k))
        e_rep = Tensor(rng.normal(size=(m, d)))
        stacked = build_llm_input(prefix, e_rep)
        stack_ok = stack_ok and stacked.shape == (k + m, d)

    cfg = ModelConfig(
        lookback=16, horizon=4, channels=2, patch_len=8, d_n=6, d_c=4, d_h=8,
        d_u=3, t_flow=2, k_prefix=2, recon_hidden=10, hyper_hidden=6,
        backbone={"n_layers": 1, "n_heads": 2, "d": 8, "ffn_width": 16, "max_len": 8},
    )
    model = PapNfModel(cfg, seed=derive_seed(0, "acceptance", "shape-model"))
    series = ar1_seasonal(40, period=8, channels=2, seed=3)
    window = make_windows(series, 16, 4)[0]
    ens = sample_forecasts(window, model, 7, substream(0, "acceptance", "draws"))
    ens_ok = ens.samples.shape == (7, 4, 2)

    mono_ok = True
    nested_ok = True
    for ens4 in crit4.ensembles:
        qs = [ens4.quantile(q) for q in (0.05, 0.10, 0.50, 0.90, 0.95)]
        for lo, hi in zip(qs, qs[1:]):
            mono_ok = mono_ok and bool(np.all(lo <= hi))
        lo80, hi80 = ens4.interval(0.8)
        lo95, hi95 = ens4.interval(0.95)
        nested_ok = nested_ok and bool(np.all(lo95 <= lo80)) and bool(np.all(hi80 <= hi95))
    _verdict(
        9, "shape and protocol invariants",
        stack_ok and ens_ok and mono_ok and nested_ok,
        f"prefix stacking {stack_ok}, ensemble shape {ens.samples.shape}, "
        f"quantile monotone {mono_ok}, intervals nested {nested_ok} "
        f"over {len(crit4.ensembles)} windows",
    )
