"""Assembled forecaster: shapes, ablation wiring, gradient routing."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from papnf import flow as F
from papnf.backbone import BackboneArch, TransformerBackbone, extract_context
from papnf.checkpoint import CheckpointError
from papnf.data import make_windows
from papnf.encoder import PrefixBank, build_llm_input
from papnf.model import ModelConfig, PapNfModel, ablation_variant
from papnf.seeding import substream
from papnf.tensor import ShapeError, Tape, Tensor, grad_check
from papnf.train import TrainConfig, _batch_loss, loss_energy


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


# Each layer leaves its operand checks to the fused op it calls: (call on the
# toy model, the op's message). The toy widths are d_n=10, d=16, d_c=6, d_h=12.
WRONG_OPERANDS = {
    "encode_global": (
        lambda m: m.encoder.encode_global(np.zeros((24, 3))),
        "linear: rows of width 72 for a weight of shape (10, 48)",
    ),
    "reprogram": (
        lambda m: m.reprogrammer.reprogram(Tensor(np.zeros((3, 5)))),
        "linear: rows of width 5 for a weight of shape (16, 10)",
    ),
    "build_llm_input-k3": (
        lambda m: build_llm_input(m.prefix, Tensor(np.zeros((2, 3, 5)))),
        "concat_rows: column counts differ: [5, 16]",
    ),
    "build_llm_input-k0": (
        lambda m: m.backbone.forward(
            build_llm_input(PrefixBank(0, 16, np.random.default_rng(0)), Tensor(np.zeros((3, 5))))
        ),
        "backbone expects (N, 16) input, got (3, 5)",
    ),
    "extract_context-width": (
        lambda m: extract_context(Tensor(np.zeros((6, 15))), m.ctx_proj),
        "linear: rows of width 15 for a weight of shape (6, 16)",
    ),
    "extract_context-zero-rows": (
        lambda m: extract_context(Tensor(np.zeros((2, 0, 16))), m.ctx_proj),
        "mean_rows over zero rows",
    ),
    "fuse-width": (
        lambda m: m.fusion.fuse(Tensor(np.zeros((1, 11))), Tensor(np.zeros((1, 6)))),
        "linear: rows of width 17 for a weight of shape (12, 16)",
    ),
}


@pytest.mark.parametrize("case", list(WRONG_OPERANDS))
def test_a_wrong_layer_operand_is_a_shape_error_from_its_op(case):
    call, message = WRONG_OPERANDS[case]
    with pytest.raises(ShapeError) as err:
        call(PapNfModel(toy_config(), seed=4))
    assert str(err.value) == message


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
    for t in ablated.backbone.params.values():
        t.data = t.data + 100.0
    _, c2, _ = ablated.condition(w.x_std)
    np.testing.assert_array_equal(c1.data, c2.data)


def test_no_global_context_zeroes_c():
    cfg = ablation_variant(toy_config(), "no_global_context")
    model = PapNfModel(cfg, seed=7)
    _, c, _ = model.condition(toy_window(cfg).x_std)
    np.testing.assert_array_equal(c.data, np.zeros((1, cfg.d_c)))


def test_no_global_context_never_runs_the_backbone(monkeypatch):
    # c is zeros under this arm, so the backbone path would be dead weight,
    # and under grad a subgraph the loss never reaches
    calls = []
    real_forward = TransformerBackbone.forward

    def counting_forward(self, x):
        calls.append(x.shape)
        return real_forward(self, x)

    monkeypatch.setattr(TransformerBackbone, "forward", counting_forward)
    x_std = toy_window(toy_config()).x_std
    u0 = substream(12, "u").standard_normal((2, 5))
    PapNfModel(toy_config(), seed=7).forward_samples(x_std, u0)
    assert len(calls) == 1
    del calls[:]
    cfg = ablation_variant(toy_config(), "no_global_context")
    model = PapNfModel(cfg, seed=7)
    loss = loss_energy(model.forward_samples(x_std, u0), Tensor(np.zeros((1, 16))))
    loss.backward()
    assert model.fusion.W_h.grad is not None
    model.forward_samples(np.stack([x_std, x_std]), np.stack([u0, u0]))
    assert calls == []


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
    for name, t in model.backbone.params.items():
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
    before = model.all_weights()
    weights = PapNfModel(toy_config(), seed=21).all_weights()
    weights["recon.G2"] = weights["recon.G2"].T  # late in the write order
    for missing in ([], ["prefix.P"]):
        for name in missing:
            weights.pop(name)
        with pytest.raises(CheckpointError) as err:
            model.load_weights(weights)
        assert str(err.value) == (
            f"model weights do not match (missing {missing}, unexpected [], wrong shape ['recon.G2'])"
        )
        after = model.all_weights()  # checked before any weight is written
        assert after.keys() == before.keys()
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr, err_msg=name)


def test_stored_weights_bring_their_own_backbone():
    # a load writes the stored backbone weights, so it must not write them into a shared backbone
    model = PapNfModel(toy_config(), seed=22)
    with pytest.raises(ValueError, match="pass backbone or weights"):
        PapNfModel(toy_config(), backbone=model.backbone, weights=model.all_weights())


def test_weight_names_are_pinned():
    # names follow attribute names, so a renamed attribute would rename a checkpoint weight
    layer = ["W1", "W2", "Wk", "Wo", "Wq", "Wv", "ln1_b", "ln1_g", "ln2_b", "ln2_g"]
    flow = [f"flow.{t}.{n}" for t in (0, 1) for n in ("U1", "U2", "c1", "c2")]
    assert sorted(PapNfModel(toy_config(), seed=0).all_weights()) == [
        *(f"backbone.layers.0.{n}" for n in layer),
        "backbone.ln_f_b", "backbone.ln_f_g", "backbone.pos",
        "context.W_c", "context.b_c",
        "encoder.W", "encoder.W_patch", "encoder.b", "encoder.b_patch",
        *flow,
        "fusion.W_h", "fusion.b_h",
        "prefix.P",
        "recon.G1", "recon.G2", "recon.g1", "recon.g2",
        "reprogram.W_p", "reprogram.b_p",
    ]


@pytest.mark.parametrize(
    "cfg, seed, digest",
    [
        (ModelConfig(96, 24, 1), 3,
         "22473a6aa14f69d31174253195f593e63c3d1a79dd929836eab0838ebe205fb3"),
        (ModelConfig(96, 24, 7), 3,
         "85c2cf2afba5419b7a7624fb2ab4ab9ba9b56e413a6658b368b917c050c3ab5d"),
        (ModelConfig(96, 24, 1, k_prefix=0, t_flow=0, backbone=BackboneArch(n_layers=0)), 4,
         "e0e38134eb1209129aca02f7b23c2a1a2103c7691284f7eff4d4869197a1ed02"),
    ],
    ids=["c1", "c7", "bare"],
)
def test_seeded_weights_are_pinned(cfg, seed, digest):
    # every weight's draw keeps its stream, its order and its expression, bit for bit
    h = hashlib.sha256()
    for name, arr in sorted(PapNfModel(cfg, seed=seed).all_weights().items()):
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


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
    # one window's energy loss under the default config: the backbone, each
    # flow layer (hypernet plus planar step) and the recon head are a single
    # node each (the layer-by-layer graph had 46 nodes, the unfused one 248)
    cfg = ModelConfig(lookback=96, horizon=24, channels=1)
    model = PapNfModel(cfg, seed=26)
    rng = substream(27, "window")
    values = rng.normal(size=(cfg.lookback + cfg.horizon, 1))
    w = make_windows(values, cfg.lookback, cfg.horizon)[0]
    u0 = substream(28, "u").standard_normal((8, cfg.d_u))
    loss = loss_energy(model.forward_samples(w.x_std, u0), Tensor(w.y_std.reshape(1, -1)))
    nodes = Tape.from_root(loss).nodes
    kinds = Counter(_kind(node) for node in nodes)
    assert kinds["transformer"] == 1
    assert _kind(_consumer(nodes, model.backbone.params["layers.1.W2"])) == "transformer"
    assert kinds["planar_layer"] == cfg.t_flow
    for layer in model.flow_layers:
        assert _kind(_consumer(nodes, layer.U1)) == "planar_layer"
    # the recon head takes h's term once; the fusion's input is the [z; c]
    # node that takes the global encoding z
    assert kinds["mlp_split"] == 1
    assert _consumer(nodes, model.recon.G1) is _consumer(nodes, model.recon.G2)
    z_c = _consumer(nodes, _consumer(nodes, model.encoder.W))
    assert _consumer(nodes, model.fusion.W_h)._parents[0] is z_c
    assert z_c.shape == (1, cfg.d_n + cfg.d_c)
    assert len(nodes) == 15


def test_an_eight_window_training_batch_is_a_seventeen_node_graph():
    # fit's batch graph: one window's 15 nodes, run over the window axis, plus
    # the in-order sum of the window losses and its 1/B scale
    cfg = ModelConfig(lookback=96, horizon=24, channels=1)
    model = PapNfModel(cfg, seed=26)
    values = substream(27, "batch").normal(size=(cfg.lookback + cfg.horizon + 7, 1))
    windows = make_windows(values, cfg.lookback, cfg.horizon)
    assert len(windows) == 8
    loss = _batch_loss(model, windows, TrainConfig(model=cfg), epoch=0)
    kinds = Counter(_kind(node) for node in Tape.from_root(loss).nodes)
    assert kinds["transformer"] == 1 and kinds["planar_layer"] == cfg.t_flow
    assert sum(kinds.values()) == 17


def _kind(node):
    return node._backward.__qualname__.split(".")[0]


def _consumer(nodes, param):
    """The one graph node that takes ``param`` as an operand."""
    (node,) = [n for n in nodes if any(p is param for p in n._parents)]
    return node
