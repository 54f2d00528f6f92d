"""Trainer: objectives against oracles, Adam reference, fit behavior, checkpoints."""

import math

import numpy as np
import pytest

from papnf import tensor as tz
from papnf import train as train_mod
from papnf.backbone import BackboneArch, load_frozen_checkpoint
from papnf.data import make_windows
from papnf.metrics import crps_empirical
from papnf.model import ModelConfig, PapNfModel, ablation_variant
from papnf.synthetic import ar1_seasonal
from papnf.tensor import Tape, Tensor, energy_score, grad_check
from papnf.train import (
    Adam,
    Checkpoint,
    PretrainConfig,
    TrainConfig,
    TrainingDiverged,
    fit,
    load_checkpoint,
    loss_energy,
    loss_reconstruction,
    model_from_checkpoint,
    pretrain_backbone,
    save_checkpoint,
    validation_mse,
)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        lookback=16,
        horizon=4,
        channels=1,
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
    base.update(overrides)
    return ModelConfig(**base)


def tiny_windows(n_total=40, seed=0):
    series = ar1_seasonal(n_total, channels=1, period=8, seed=seed)
    return make_windows(series, lookback=16, horizon=4)


class TestLosses:
    def test_reconstruction_zero_when_equal(self):
        pred = Tensor(np.ones((1, 8)))
        target = Tensor(np.ones((1, 8)))
        assert loss_reconstruction(pred, target).item() == 0.0

    def test_reconstruction_offset_one(self):
        pred = Tensor(np.zeros((3, 8)) + 1.0)
        target = Tensor(np.zeros((1, 8)))
        assert loss_reconstruction(pred, target).item() == pytest.approx(1.0, abs=1e-15)

    def test_reconstruction_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(4, 6))
        target = rng.normal(size=(1, 6))
        want = sum(
            (pred[s, j] - target[0, j]) ** 2 for s in range(4) for j in range(6)
        ) / 24.0
        got = loss_reconstruction(Tensor(pred), Tensor(target)).item()
        assert got == pytest.approx(want, abs=1e-12)

    def test_reconstruction_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        pred = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        target = Tensor(rng.normal(size=(1, 5)))
        loss_reconstruction(pred, target).backward()
        want = 2.0 * (pred.data - target.data) / pred.data.size
        np.testing.assert_allclose(pred.grad, want, atol=1e-12)

    def test_energy_matches_fair_crps_per_point(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(6, 7))
        target = rng.normal(size=(1, 7))
        want = np.mean(
            [crps_empirical(pred[:, j], target[0, j], fair=True) for j in range(7)]
        )
        got = loss_energy(Tensor(pred), Tensor(target)).item()
        assert got == pytest.approx(want, abs=1e-12)

    def test_energy_two_sample_hand_case(self):
        pred = Tensor(np.array([[0.0], [2.0]]))
        target = Tensor(np.array([[1.0]]))
        # fair estimator: mean|x-y| - |0-2|/(2*1) = 1 - 1 = 0
        assert loss_energy(pred, target).item() == pytest.approx(0.0, abs=1e-15)

    def test_energy_gradient_matches_numeric(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(4, 3))
        target = Tensor(rng.normal(size=(1, 3)))
        pred = Tensor(base.copy(), requires_grad=True)
        loss_energy(pred, target).backward()
        eps = 1e-6
        num = np.zeros_like(base)
        for i in range(4):
            for j in range(3):
                up = base.copy()
                up[i, j] += eps
                dn = base.copy()
                dn[i, j] -= eps
                num[i, j] = (
                    loss_energy(Tensor(up), target).item()
                    - loss_energy(Tensor(dn), target).item()
                ) / (2 * eps)
        np.testing.assert_allclose(pred.grad, num, atol=1e-6)

    def test_energy_rewards_correct_spread(self):
        # among ensembles with the right mean, the true noise scale scores best
        rng = np.random.default_rng(5)
        y = Tensor(rng.normal(size=(1, 200)))
        scores = {}
        for scale in (0.0, 1.0, 5.0):
            draws = rng.normal(size=(16, 200)) * scale
            scores[scale] = loss_energy(Tensor(draws), y).item()
        assert scores[1.0] < scores[0.0]
        assert scores[1.0] < scores[5.0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            loss_reconstruction(Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 5))))
        with pytest.raises(ValueError):
            loss_energy(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))


def pairwise_energy(pred: Tensor, target: Tensor) -> Tensor:
    """The energy score as S(S-1)/2 pairwise sub-graphs, sign(0) = 0 at ties."""
    s, n = pred.shape
    term1 = (pred - Tensor(np.repeat(target.data, s, axis=0))).abs().sum() * (1.0 / (s * n))
    rows = [pred[i : i + 1, :] for i in range(s)]
    spread = None
    for i in range(s):
        for j in range(i + 1, s):
            d = (rows[i] - rows[j]).abs().sum()
            spread = d if spread is None else spread + d
    return term1 - spread * (1.0 / (s * (s - 1) * n))


def value_and_grad(loss_fn, base: np.ndarray, target: np.ndarray):
    pred = Tensor(base.copy(), requires_grad=True)
    loss = loss_fn(pred, Tensor(target))
    loss.backward()
    return loss.item(), pred.grad


class TestEnergyScoreOp:
    @pytest.mark.parametrize("s", [2, 3, 8, 32, 100])
    def test_matches_pairwise_loop(self, s):
        rng = np.random.default_rng(s)
        base = rng.normal(size=(s, 5))
        target = rng.normal(size=(1, 5))
        want, want_grad = value_and_grad(pairwise_energy, base, target)
        got, got_grad = value_and_grad(loss_energy, base, target)
        assert got == pytest.approx(want, abs=1e-12)
        np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)

    def test_is_one_graph_node(self):
        pred = Tensor(np.random.default_rng(0).normal(size=(32, 4)), requires_grad=True)
        assert len(Tape.from_root(loss_energy(pred, Tensor(np.zeros((1, 4)))))) == 1

    def test_grad_check(self):
        rng = np.random.default_rng(6)
        pred = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        target = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        # the outermost samples' gradients are exactly zero (their accuracy and
        # spread terms cancel), where central differences leave rounding noise
        # that reads as relative error 1; a quadratic moves every coordinate
        # off zero without hiding an error in the op's own gradient
        def fn(p, t):
            return energy_score(p, t) + ((p * p).sum() + (t * t).sum()) * 0.01

        assert grad_check(fn, [pred, target]) < 1e-6

    def test_target_gradient_matches_numeric(self):
        rng = np.random.default_rng(7)
        pred = Tensor(rng.normal(size=(5, 3)))
        base = rng.normal(size=(1, 3))
        target = Tensor(base.copy(), requires_grad=True)
        loss_energy(pred, target).backward()
        eps = 1e-6
        num = np.zeros_like(base)
        for j in range(3):
            up = base.copy()
            up[0, j] += eps
            dn = base.copy()
            dn[0, j] -= eps
            num[0, j] = (
                loss_energy(pred, Tensor(up)).item() - loss_energy(pred, Tensor(dn)).item()
            ) / (2 * eps)
        np.testing.assert_allclose(target.grad, num, atol=1e-8)

    def test_fully_tied_ensemble(self):
        # ties get distinct rank coefficients, so per-row subgradients differ
        # from the pairwise loop's sign(0) = 0, but each column sums the same
        base = np.tile(np.array([[0.5, -1.0, 2.0]]), (6, 1))
        target = np.array([[0.0, 0.0, 3.0]])
        want, want_grad = value_and_grad(pairwise_energy, base, target)
        got, got_grad = value_and_grad(loss_energy, base, target)
        assert np.isfinite(got) and got == pytest.approx(want, abs=1e-15)
        assert np.all(np.isfinite(got_grad))
        np.testing.assert_allclose(got_grad.sum(axis=0), want_grad.sum(axis=0), atol=1e-15)


class TestTrainConfig:
    def test_rejects_out_of_grid_learning_rates(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            TrainConfig(model=cfg, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(model=cfg, learning_rate=1e-2)

    def test_rejects_bad_batch_size_and_objective(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            TrainConfig(model=cfg, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(model=cfg, batch_size=17)
        with pytest.raises(ValueError):
            TrainConfig(model=cfg, objective="quantile")
        with pytest.raises(ValueError):
            TrainConfig(model=cfg, objective="energy", train_samples=1)

    def test_round_trips_through_dict(self):
        cfg = TrainConfig(model=tiny_config(), learning_rate=5e-4, epochs=3)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestAdam:
    def _reference_adam(self, grads, lr, steps):
        # independent loop-free re-derivation of the update rule
        p = np.zeros(2)
        m = np.zeros(2)
        v = np.zeros(2)
        trace = []
        for t in range(1, steps + 1):
            g = grads[t - 1]
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            p = p - lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            trace.append(p.copy())
        return trace

    def test_matches_reference_updates(self):
        rng = np.random.default_rng(6)
        grads = [rng.normal(size=2) for _ in range(5)]
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam({"p": p}, lr=1e-3)
        want = self._reference_adam(grads, 1e-3, 5)
        for t in range(5):
            p.zero_grad()
            p.accumulate_grad(grads[t])
            opt.step()
            np.testing.assert_allclose(p.data, want[t], atol=1e-15)

    def test_buffers_only_for_trainables(self):
        frozen = Tensor(np.zeros(3))
        live = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam({"frozen": frozen, "live": live}, lr=1e-3)
        assert set(opt.m) == {"live"}
        assert set(opt.v) == {"live"}

    def test_zero_lr_leaves_parameters_bitwise_unchanged(self):
        p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.0)
        p.accumulate_grad(np.array([0.3, -0.1, 2.0]))
        opt.step()
        assert np.array_equal(p.data, before)

    def test_skips_parameters_without_gradients(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"p": p}, lr=1e-3)
        opt.step()  # no grad accumulated: must be a no-op, not a crash
        assert np.array_equal(p.data, np.ones(2))

    def test_minimizes_a_quadratic(self):
        p = Tensor(np.array([4.0, -3.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=5e-2)
        for _ in range(4000):
            p.zero_grad()
            p.accumulate_grad(2.0 * p.data)
            opt.step()
        assert np.abs(p.data).max() < 0.1


class TestFit:
    def test_single_window_overfit(self):
        cfg = tiny_config()
        windows = tiny_windows()[:1]
        model = PapNfModel(cfg, seed=1)
        tc = TrainConfig(
            model=cfg, learning_rate=1e-3, batch_size=1, epochs=500,
            seed=1, objective="mse", val_samples=2,
        )
        ckpt = fit(model, windows, windows, tc)
        losses = [h["train_loss"] for h in ckpt.history]
        assert losses[-1] < 0.1 * losses[0]

    def test_zero_like_lr_keeps_parameters_near_start(self):
        # smallest in-grid rate: parameters move, but barely
        cfg = tiny_config()
        windows = tiny_windows()[:2]
        model = PapNfModel(cfg, seed=2)
        before = {k: v.copy() for k, v in model.snapshot().items()}
        tc = TrainConfig(model=cfg, learning_rate=1e-5, batch_size=2, epochs=1,
                         seed=2, val_samples=2, train_samples=2)
        fit(model, windows, windows, tc)
        moved = max(np.abs(model.snapshot()[k] - before[k]).max() for k in before)
        assert 0.0 < moved < 1e-3

    def test_training_is_reproducible(self):
        cfg = tiny_config()
        windows = tiny_windows()
        results = []
        for _ in range(2):
            model = PapNfModel(cfg, seed=3)
            tc = TrainConfig(model=cfg, batch_size=4, epochs=2, seed=3,
                             train_samples=3, val_samples=2)
            ckpt = fit(model, windows[:8], windows[8:12], tc)
            results.append(ckpt)
        assert results[0].val_mse == results[1].val_mse
        for name in results[0].weights:
            assert np.array_equal(results[0].weights[name], results[1].weights[name])

    def test_gradient_census_after_one_step(self):
        cfg = tiny_config()
        windows = tiny_windows()[:2]
        model = PapNfModel(cfg, seed=4)
        from papnf.train import loss_energy as le  # exercise the public pieces

        u0 = np.random.default_rng(0).standard_normal((3, cfg.d_u))
        pred = model.forward_samples(windows[0].x_std, u0)
        target = Tensor(windows[0].y_std.reshape(1, -1))
        le(pred, target).backward()
        for name, p in model.parameters().items():
            assert p.grad is not None, f"trainable {name} missing gradient"
        for name, t in model.backbone.tensors().items():
            assert t.grad is None, f"frozen {name} received gradient"

    def test_frozen_backbone_hash_unchanged_by_training(self):
        cfg = tiny_config()
        windows = tiny_windows()
        model = PapNfModel(cfg, seed=5)
        before = model.backbone.weight_hash()
        prefix_before = model.parameters()["prefix.P"].data.copy()
        tc = TrainConfig(model=cfg, batch_size=4, epochs=1, seed=5,
                         train_samples=2, val_samples=2)
        fit(model, windows[:8], windows[8:10], tc)
        assert model.backbone.weight_hash() == before
        assert not np.array_equal(model.parameters()["prefix.P"].data, prefix_before)

    def test_best_epoch_weights_are_restored(self):
        cfg = tiny_config()
        windows = tiny_windows()
        model = PapNfModel(cfg, seed=6)
        tc = TrainConfig(model=cfg, batch_size=4, epochs=3, seed=6,
                         train_samples=2, val_samples=2)
        ckpt = fit(model, windows[:6], windows[6:9], tc)
        vals = [h["val_mse"] for h in ckpt.history]
        assert ckpt.best_epoch == int(np.argmin(vals))
        assert ckpt.val_mse == min(vals)
        current = model.all_weights()
        for name in current:
            assert np.array_equal(current[name], ckpt.weights[name])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_diagnostics(self):
        cfg = tiny_config()
        windows = tiny_windows()[:2]
        model = PapNfModel(cfg, seed=7)
        model.parameters()["recon.G2"].data[:] = 1e200  # squared error overflows
        tc = TrainConfig(model=cfg, batch_size=2, epochs=1, seed=7,
                         objective="mse", val_samples=2)
        with pytest.raises(TrainingDiverged) as err:
            fit(model, windows, windows, tc)
        assert err.value.epoch == 0
        assert not math.isfinite(err.value.loss)

    def test_nonfinite_gradient_aborts_before_the_step(self, monkeypatch):
        # a finite loss whose backward writes NaN into the predictions' gradient
        def poisoned(pred, target):
            def nan_grad():
                pred.accumulate_grad(np.full(pred.shape, np.nan))

            return energy_score(tz._make(pred.data.copy(), (pred,), nan_grad), target)

        monkeypatch.setattr(train_mod, "loss_energy", poisoned)
        cfg = tiny_config()
        windows = tiny_windows()[:4]
        model = PapNfModel(cfg, seed=9)
        before = model.all_weights()
        tc = TrainConfig(model=cfg, batch_size=2, epochs=1, seed=9,
                         train_samples=2, val_samples=2)
        with pytest.raises(TrainingDiverged, match="non-finite gradient") as err:
            fit(model, windows, windows, tc)
        assert (err.value.epoch, err.value.batch) == (0, 0)
        assert math.isfinite(err.value.loss)
        assert err.value.param in model.parameters()
        after = model.all_weights()
        assert all(np.array_equal(after[name], before[name]) for name in before)

    def test_ablation_switches_compose(self):
        # no_pap and no_global_context together still train and evaluate
        cfg = ablation_variant(ablation_variant(tiny_config(), "no_pap"), "no_global_context")
        windows = tiny_windows()
        model = PapNfModel(cfg, seed=8)
        tc = TrainConfig(model=cfg, batch_size=4, epochs=1, seed=8,
                         train_samples=2, val_samples=2)
        ckpt = fit(model, windows[:6], windows[6:8], tc)
        assert math.isfinite(ckpt.val_mse)

    def test_empty_split_rejected(self):
        cfg = tiny_config()
        model = PapNfModel(cfg, seed=9)
        tc = TrainConfig(model=cfg, val_samples=2)
        with pytest.raises(ValueError):
            fit(model, [], tiny_windows()[:1], tc)


class TestCheckpointRoundTrip:
    def _trained(self, tmp_path, kind="frozen_random"):
        cfg = tiny_config(backbone_kind=kind)
        model = PapNfModel(cfg, seed=10)
        ckpt = Checkpoint(
            model_config=cfg,
            weights=model.all_weights(),
            rng_state={"root_seed": 10, "scheme": "sha256-labeled-substreams"},
            val_mse=0.5,
            best_epoch=2,
            train_config=TrainConfig(model=cfg, val_samples=2),
            history=[{"epoch": 0, "train_loss": 1.0, "val_mse": 0.5}],
        )
        path = str(tmp_path / "model.papnf")
        save_checkpoint(ckpt, path)
        return model, ckpt, path

    def test_round_trip_preserves_forward_outputs_bitwise(self, tmp_path):
        model, _, path = self._trained(tmp_path)
        loaded = model_from_checkpoint(path)
        x = tiny_windows()[0].x_std
        u0 = np.random.default_rng(1).standard_normal((4, model.cfg.d_u))
        a = model.forward_samples(x, u0).data
        b = loaded.forward_samples(x, u0).data
        assert np.array_equal(a, b)

    def test_header_fields_survive(self, tmp_path):
        _, ckpt, path = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.val_mse == 0.5
        assert loaded.best_epoch == 2
        assert loaded.rng_state["root_seed"] == 10
        assert loaded.train_config == ckpt.train_config
        assert loaded.history == ckpt.history
        assert loaded.model_config == ckpt.model_config

    def test_mismatched_width_is_descriptive(self, tmp_path):
        _, ckpt, path = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        import dataclasses

        bad_cfg = dataclasses.replace(loaded.model_config, d_u=7)
        model = PapNfModel(bad_cfg, seed=0)
        with pytest.raises(ValueError, match="shape"):
            model.load_weights(loaded.weights)

    def test_checkpoint_with_pretrained_backbone_reloads_without_file(self, tmp_path):
        arch = BackboneArch(n_layers=1, n_heads=2, d=8, ffn_width=16, max_len=8)
        pre = pretrain_backbone(
            PretrainConfig(arch=arch, steps=30, batch=2, seq_len=8, seed=11),
            str(tmp_path / "backbone.papnf"),
        )
        cfg = tiny_config(
            backbone_kind="frozen_checkpoint", backbone_checkpoint=pre.path
        )
        model = PapNfModel(cfg, seed=12)
        ckpt = Checkpoint(
            model_config=cfg,
            weights=model.all_weights(),
            rng_state={"root_seed": 12, "scheme": "sha256-labeled-substreams"},
            val_mse=1.0,
            best_epoch=0,
        )
        path = str(tmp_path / "model.papnf")
        save_checkpoint(ckpt, path)
        (tmp_path / "backbone.papnf").unlink()  # inlined weights must suffice
        loaded = model_from_checkpoint(path)
        assert loaded.backbone.weight_hash() == model.backbone.weight_hash()


class TestPretraining:
    def test_loss_decreases_thirty_percent(self, tmp_path):
        arch = BackboneArch(n_layers=1, n_heads=2, d=16, ffn_width=32, max_len=32)
        cfg = PretrainConfig(arch=arch, steps=400, batch=4, seq_len=24, seed=0)
        result = pretrain_backbone(cfg, str(tmp_path / "bb.papnf"))
        assert result.loss_decrease >= 0.3

    def test_artifact_loads_frozen_and_differs_from_random(self, tmp_path):
        arch = BackboneArch(n_layers=1, n_heads=2, d=8, ffn_width=16, max_len=16)
        cfg = PretrainConfig(arch=arch, steps=40, batch=2, seq_len=12, seed=1)
        result = pretrain_backbone(cfg, str(tmp_path / "bb.papnf"))
        bb = load_frozen_checkpoint(result.path, expected=arch)
        assert bb.frozen
        assert bb.kind == "frozen_checkpoint"
        from papnf.backbone import TransformerBackbone

        rnd = TransformerBackbone(arch, seed=99, kind="frozen_random")
        x = Tensor(np.random.default_rng(3).normal(size=(5, 8)))
        out_pre = bb.forward(x).data
        out_rnd = rnd.forward(x).data
        assert np.abs(out_pre - out_rnd).max() > 1e-6

    def test_divergence_aborts_before_the_step_and_the_save(self, tmp_path, monkeypatch):
        arch = BackboneArch(n_layers=1, n_heads=2, d=8, ffn_width=16, max_len=8)
        monkeypatch.setattr(
            train_mod, "pretrain_sequences", lambda rng, batch, n: np.full((batch, n), np.nan)
        )
        cfg = PretrainConfig(arch=arch, steps=3, batch=2, seq_len=8, seed=2)
        with pytest.raises(TrainingDiverged, match="non-finite loss nan at epoch 0, batch 0") as err:
            pretrain_backbone(cfg, str(tmp_path / "bb.papnf"))
        assert (err.value.epoch, err.value.batch, err.value.history) == (0, 0, [])
        assert not (tmp_path / "bb.papnf").exists()

    def test_seq_len_over_max_len_rejected(self):
        arch = BackboneArch(n_layers=1, n_heads=2, d=8, ffn_width=16, max_len=8)
        with pytest.raises(ValueError):
            PretrainConfig(arch=arch, seq_len=16)


class TestValidationMse:
    def test_perfect_model_scores_zero(self):
        # build windows whose target equals what a zero-spread model predicts
        cfg = tiny_config()
        windows = tiny_windows()[:3]
        model = PapNfModel(cfg, seed=13)
        v = validation_mse(model, windows, n_samples=2, seed=0)
        assert v > 0.0  # sanity: untrained model is wrong
        with pytest.raises(ValueError):
            validation_mse(model, [], 2, 0)

    def test_validation_is_seed_stable(self):
        cfg = tiny_config()
        windows = tiny_windows()[:3]
        model = PapNfModel(cfg, seed=14)
        a = validation_mse(model, windows, 4, seed=5)
        b = validation_mse(model, windows, 4, seed=5)
        assert a == b
