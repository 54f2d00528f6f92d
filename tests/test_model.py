"""Assembled forecaster: shapes, ablation wiring, gradient routing."""

from collections import Counter

import numpy as np
import pytest

from papnf import flow as F
from papnf.backbone import BackboneArch
from papnf.data import make_windows
from papnf.model import ModelConfig, PapNfModel, ablation_variant
from papnf.seeding import substream
from papnf.tensor import Tape, Tensor, grad_check
from papnf.train import loss_energy


def toy_config(**over) -> ModelConfig:
    base = dict(
        lookback=24,
        horizon=8,
        channels=2,
        patch_len=8,
        d_n=10,
        d_c=6,
        d_h=12,
        d_u=5,
        t_flow=2,
        k_prefix=3,
        recon_hidden=14,
        hyper_hidden=7,
        backbone=BackboneArch(n_layers=1, n_heads=2, d=16, ffn_width=24, max_len=16),
    )
    base.update(over)
    return ModelConfig(**base)


def toy_window(cfg, seed=0):
    rng = substream(seed, "window")
    values = rng.normal(size=(cfg.lookback + cfg.horizon, cfg.channels))
    return make_windows(values, cfg.lookback, cfg.horizon)[0]


def test_forward_shapes_and_token_count():
    cfg = toy_config()
    model = PapNfModel(cfg, seed=1)
    assert cfg.n_patches == 3
    assert cfg.n_tokens == 3 + 3
    w = toy_window(cfg)
    u0 = substream(2, "u").standard_normal((4, cfg.d_u))
    rows = model.forward_samples(w.x_std, u0)
    assert rows.shape == (4, cfg.horizon * cfg.channels)


def test_token_budget_validated_against_max_len():
    with pytest.raises(ValueError, match="max_len"):
        PapNfModel(toy_config(k_prefix=14), seed=3)


def test_conditioning_pass_returns_row_vectors():
    cfg = toy_config()
    model = PapNfModel(cfg, seed=4)
    z, c, h = model.condition(toy_window(cfg).x_std)
    assert z.shape == (1, cfg.d_n)
    assert c.shape == (1, cfg.d_c)
    assert h.shape == (1, cfg.d_h)


def test_trainable_census_excludes_backbone():
    model = PapNfModel(toy_config(), seed=5)
    census = model.census()
    assert "prefix.P" in census
    assert census["prefix.P"] == (3, 16)
    assert not any(name.startswith("backbone.") for name in census)
    cfg = model.cfg
    # the recon head's fused first layer still stores one [u | h] weight
    assert census["recon.G1"] == (cfg.recon_hidden, cfg.d_u + cfg.d_h)
    assert census["recon.g1"] == (cfg.recon_hidden,)


def test_no_pap_arm_drops_prefix_and_bypasses_backbone():
    cfg = toy_config()
    variant = ablation_variant(cfg, "no_pap")
    assert variant.k_prefix == 0 and variant.backbone.n_layers == 0
    full = PapNfModel(cfg, seed=6)
    ablated = PapNfModel(variant, seed=6)
    diff = set(full.census()) ^ set(ablated.census())
    assert diff == {"prefix.P"}
    # bypass really skips the backbone: corrupting backbone weights changes
    # nothing for the ablated model
    w = toy_window(cfg)
    _, c1, _ = ablated.condition(w.x_std)
    for t in ablated.backbone.tensors().values():
        t.data = t.data + 100.0
    _, c2, _ = ablated.condition(w.x_std)
    np.testing.assert_array_equal(c1.data, c2.data)


def test_no_global_context_zeroes_c():
    cfg = ablation_variant(toy_config(), "no_global_context")
    model = PapNfModel(cfg, seed=7)
    _, c, _ = model.condition(toy_window(cfg).x_std)
    np.testing.assert_array_equal(c.data, np.zeros((1, cfg.d_c)))


def test_random_backbone_arm_changes_only_backbone():
    cfg = toy_config(backbone_kind="frozen_random")
    arm = ablation_variant(cfg, "random_backbone")
    assert arm.backbone_kind == "frozen_random"
    assert set(PapNfModel(cfg, seed=8).census()) == set(PapNfModel(arm, seed=8).census())


def test_gradient_census_after_one_backward():
    cfg = toy_config()
    model = PapNfModel(cfg, seed=9)
    w = toy_window(cfg)
    u0 = substream(10, "u").standard_normal((2, cfg.d_u))
    # randomize hypernet output layers so flow parameters participate
    for layer in model.flow_layers:
        layer.U2.data = substream(11, layer.index).normal(size=layer.U2.shape) * 0.1
    rows = model.forward_samples(w.x_std, u0)
    target = np.asarray(w.y_std, dtype=float).reshape(1, -1)
    err = rows - np.repeat(target, 2, axis=0)
    (err * err).sum().backward()
    for name, t in model.parameters().items():
        assert t.grad is not None, f"no gradient reached {name}"
    for name, t in model.backbone.tensors().items():
        assert t.grad is None, f"frozen backbone tensor {name} got a gradient"


def test_ensemble_sampling_is_deterministic_per_seed():
    cfg = toy_config()
    model = PapNfModel(cfg, seed=12)
    w = toy_window(cfg)
    e1 = F.sample_forecasts(w, model, 6, substream(13, "s"))
    e2 = F.sample_forecasts(w, model, 6, substream(13, "s"))
    e3 = F.sample_forecasts(w, model, 6, substream(14, "s"))
    assert np.array_equal(e1.samples, e2.samples)
    assert not np.array_equal(e1.samples, e3.samples)
    assert e1.samples.shape == (6, cfg.horizon, cfg.channels)


def test_ensemble_matches_per_draw_decoding():
    cfg = toy_config()
    model = PapNfModel(cfg, seed=15)
    w = toy_window(cfg)
    u0 = substream(16, "u").standard_normal((3, cfg.d_u))
    batch_rows = model.forward_samples(w.x_std, u0).data
    for s in range(3):
        single = model.forward_samples(w.x_std, u0[s : s + 1]).data
        np.testing.assert_allclose(single[0], batch_rows[s], atol=1e-12)


def test_weight_round_trip_through_dict():
    cfg = toy_config()
    a = PapNfModel(cfg, seed=17)
    b = PapNfModel(cfg, seed=18)
    w = toy_window(cfg)
    u0 = substream(19, "u").standard_normal((2, cfg.d_u))
    assert not np.array_equal(
        a.forward_samples(w.x_std, u0).data, b.forward_samples(w.x_std, u0).data
    )
    b.load_weights(a.all_weights())
    np.testing.assert_array_equal(
        a.forward_samples(w.x_std, u0).data, b.forward_samples(w.x_std, u0).data
    )


def test_load_weights_rejects_mismatch():
    model = PapNfModel(toy_config(), seed=20)
    weights = model.all_weights()
    weights.pop("prefix.P")
    with pytest.raises(ValueError, match="missing"):
        model.load_weights(weights)


def test_end_to_end_grad_check_small():
    cfg = toy_config(
        lookback=8, horizon=3, channels=1, patch_len=4, d_n=5, d_c=4, d_h=6, d_u=3,
        t_flow=1, k_prefix=2, recon_hidden=6, hyper_hidden=4,
        backbone=BackboneArch(n_layers=1, n_heads=1, d=6, ffn_width=8, max_len=8),
    )
    model = PapNfModel(cfg, seed=21)
    for layer in model.flow_layers:
        layer.U2.data = substream(22, layer.index).normal(size=layer.U2.shape) * 0.1
        layer.c2.data = substream(23, layer.index).normal(size=layer.c2.shape) * 0.1
    w = toy_window(cfg, seed=24)
    u0 = substream(25, "u").standard_normal((2, cfg.d_u))
    target = np.asarray(w.y_std).reshape(1, -1)

    def fn(*params):
        rows = model.forward_samples(w.x_std, u0)
        err = rows - np.repeat(target, rows.shape[0], axis=0)
        return (err * err).sum() * (1.0 / err.size)

    assert grad_check(fn, list(model.parameters().values())) < 1e-4


def test_window_loss_graph_uses_one_node_per_fused_layer():
    # one window's energy loss under the default config; each attention layer
    # and each planar step is a single node (the unfused graph had 248)
    cfg = ModelConfig(lookback=96, horizon=24, channels=1)
    model = PapNfModel(cfg, seed=26)
    rng = substream(27, "window")
    values = rng.normal(size=(cfg.lookback + cfg.horizon, 1))
    w = make_windows(values, cfg.lookback, cfg.horizon)[0]
    u0 = substream(28, "u").standard_normal((8, cfg.d_u))
    loss = loss_energy(model.forward_samples(w.x_std, u0), Tensor(w.y_std.reshape(1, -1)))
    nodes = Tape.from_root(loss).nodes
    kinds = Counter(_kind(node) for node in nodes)
    assert kinds["causal_attention"] == cfg.backbone.n_layers
    assert kinds["planar_step"] == cfg.t_flow
    # the recon head is linear(tanh(linear_split(u, h))): h's term once, so
    # no repeat_rows; the one concat_cols left is the fusion's [z; c]
    head = _consumer(nodes, model.recon.G2)
    hidden = head._parents[0]
    first = hidden._parents[0]
    assert [_kind(n) for n in (head, hidden, first)] == ["linear", "tanh", "linear_split"]
    assert first is _consumer(nodes, model.recon.G1)
    assert kinds["linear_split"] == 1
    assert kinds["repeat_rows"] == 0
    assert kinds["concat_cols"] == 1
    assert _kind(_consumer(nodes, model.fusion.W_h)._parents[0]) == "concat_cols"
    assert len(nodes) == 46


def _kind(node):
    return node._backward.__qualname__.split(".")[0]


def _consumer(nodes, param):
    """The one graph node that takes ``param`` as an operand."""
    (node,) = [n for n in nodes if any(p is param for p in n._parents)]
    return node
