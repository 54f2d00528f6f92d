"""Frozen transformer backbone: oracle forward, causality, frozen contract."""

import math

import numpy as np
import pytest

from papnf import backbone as bb
from papnf.checkpoint import CheckpointError, read_container, write_container
from papnf.tensor import ShapeError, Tensor


def tiny_arch(n_layers=1, n_heads=1, d=4, ffn=8, max_len=8):
    return bb.BackboneArch(n_layers=n_layers, n_heads=n_heads, d=d, ffn_width=ffn, max_len=max_len)


# -- hand-rolled oracle --------------------------------------------------------


def _ln_oracle(row, g, b, eps=1e-5):
    mu = sum(row) / len(row)
    var = sum((v - mu) ** 2 for v in row) / len(row)
    return [(v - mu) / math.sqrt(var + eps) * gi + bi for v, gi, bi in zip(row, g, b)]


def forward_oracle(backbone, x):
    """Scalar-loop re-derivation of the backbone forward pass."""
    a = backbone.arch
    P = {k: t.data for k, t in backbone.params.items()}
    n, d = x.shape
    h = x + P["pos"][:n]
    d_head = a.d // a.n_heads
    for i in range(a.n_layers):
        xn = np.array([_ln_oracle(r, P[f"layers.{i}.ln1_g"], P[f"layers.{i}.ln1_b"]) for r in h])
        q = xn @ P[f"layers.{i}.Wq"]
        k = xn @ P[f"layers.{i}.Wk"]
        v = xn @ P[f"layers.{i}.Wv"]
        out = np.zeros((n, d))
        for head in range(a.n_heads):
            sl = slice(head * d_head, (head + 1) * d_head)
            qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
            for t in range(n):
                scores = []
                for s in range(n):
                    dot = float(qh[t] @ kh[s]) / math.sqrt(d_head)
                    scores.append(dot if s <= t else dot - 1e9)
                m = max(scores)
                w = [math.exp(s - m) for s in scores]
                z = sum(w)
                w = [wi / z for wi in w]
                for s in range(n):
                    out[t, sl] += w[s] * vh[s]
        h = h + out @ P[f"layers.{i}.Wo"]
        xn2 = np.array([_ln_oracle(r, P[f"layers.{i}.ln2_g"], P[f"layers.{i}.ln2_b"]) for r in h])
        h = h + np.tanh(xn2 @ P[f"layers.{i}.W1"]) @ P[f"layers.{i}.W2"]
    return np.array([_ln_oracle(r, P["ln_f_g"], P["ln_f_b"]) for r in h])


def test_forward_matches_hand_rolled_oracle():
    backbone = bb.TransformerBackbone(tiny_arch(), seed=11)
    x = np.random.default_rng(12).normal(size=(3, 4))
    got = backbone.forward(Tensor(x)).data
    np.testing.assert_allclose(got, forward_oracle(backbone, x), atol=1e-10)


def test_forward_matches_oracle_multi_head_multi_layer():
    backbone = bb.TransformerBackbone(tiny_arch(n_layers=2, n_heads=2, d=8, ffn=16), seed=13)
    x = np.random.default_rng(14).normal(size=(5, 8))
    got = backbone.forward(Tensor(x)).data
    np.testing.assert_allclose(got, forward_oracle(backbone, x), atol=1e-9)


# -- structural contracts -------------------------------------------------------


def test_causality_later_tokens_do_not_leak_backward():
    backbone = bb.TransformerBackbone(tiny_arch(n_layers=2, n_heads=2, d=8), seed=15)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(6, 8))
    base = backbone.forward(Tensor(x)).data
    x2 = x.copy()
    x2[4:] += rng.normal(size=(2, 8))
    pert = backbone.forward(Tensor(x2)).data
    np.testing.assert_allclose(pert[:4], base[:4], atol=1e-12)
    assert np.abs(pert[4:] - base[4:]).max() > 1e-6


def test_permuting_rows_changes_output():
    backbone = bb.TransformerBackbone(tiny_arch(n_layers=1, n_heads=2, d=8), seed=17)
    x = np.random.default_rng(18).normal(size=(4, 8))
    a = backbone.forward(Tensor(x)).data
    b_ = backbone.forward(Tensor(x[::-1].copy())).data
    assert np.abs(a - b_[::-1]).max() > 1e-6  # positions make order matter


def test_zero_layer_stack_is_identity():
    backbone = bb.TransformerBackbone(tiny_arch(n_layers=0), seed=20)
    x = Tensor(np.random.default_rng(21).normal(size=(3, 4)))
    np.testing.assert_array_equal(backbone.forward(x).data, x.data)


def test_sequence_longer_than_max_len_is_error():
    backbone = bb.TransformerBackbone(tiny_arch(max_len=4), seed=22)
    with pytest.raises(ShapeError, match="max_len"):
        backbone.forward(Tensor(np.zeros((5, 4))))


def test_wrong_width_is_error():
    backbone = bb.TransformerBackbone(tiny_arch(), seed=23)
    with pytest.raises(ShapeError):
        backbone.forward(Tensor(np.zeros((3, 6))))


# -- frozen contract -------------------------------------------------------------


def test_frozen_params_receive_no_gradients_but_pass_them_through():
    backbone = bb.TransformerBackbone(tiny_arch(), seed=24)
    assert backbone.frozen
    x = Tensor(np.random.default_rng(25).normal(size=(3, 4)), requires_grad=True)
    backbone.forward(x).sum().backward()
    assert x.grad is not None and np.abs(x.grad).sum() > 0
    for name, t in backbone.params.items():
        assert t.grad is None, name


def test_weight_hash_is_stable_and_distinguishes_weights():
    a = bb.TransformerBackbone(tiny_arch(), seed=26)
    b_ = bb.TransformerBackbone(tiny_arch(), seed=26)
    c = bb.TransformerBackbone(tiny_arch(), seed=27)
    assert a.weight_hash() == b_.weight_hash()
    assert a.weight_hash() != c.weight_hash()


def test_checkpoint_round_trip_bitwise(tmp_path):
    backbone = bb.TransformerBackbone(tiny_arch(n_layers=2, n_heads=2, d=8), seed=28)
    path = str(tmp_path / "bb.ckpt")
    backbone.save(path)
    loaded = bb.load_frozen_checkpoint(path)
    assert loaded.kind == "frozen_checkpoint"
    assert loaded.frozen
    assert loaded.weight_hash() == backbone.weight_hash()
    x = np.random.default_rng(29).normal(size=(4, 8))
    np.testing.assert_array_equal(
        loaded.forward(Tensor(x)).data, backbone.forward(Tensor(x)).data
    )


def test_checkpoint_arch_mismatch_is_descriptive(tmp_path):
    backbone = bb.TransformerBackbone(tiny_arch(n_layers=1), seed=30)
    path = str(tmp_path / "bb.ckpt")
    backbone.save(path)
    with pytest.raises(CheckpointError, match="mismatch"):
        bb.load_frozen_checkpoint(path, expected=tiny_arch(n_layers=3))


def test_checkpoint_crc_detects_corruption(tmp_path):
    backbone = bb.TransformerBackbone(tiny_arch(), seed=31)
    path = str(tmp_path / "bb.ckpt")
    backbone.save(path)
    blob = bytearray(open(path, "rb").read())
    blob[-20] ^= 0xFF  # flip a body byte
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        bb.load_frozen_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    open(path, "wb").write(b"NOTPAPNF" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        bb.load_frozen_checkpoint(path)


@pytest.mark.parametrize(
    "tamper, needle",
    [
        (lambda h: h.pop("arch"), "arch: expected an object, got None"),
        (lambda h: h["arch"].update(d="4"), "arch.d: expected int, got '4'"),
        (lambda h: h["arch"].update(depth=2), "unknown config keys: arch.depth"),
        (lambda h: h["arch"].update(n_heads=3), "arch: d=4 not divisible by n_heads=3"),
    ],
)
def test_checkpoint_bad_arch_header_names_the_field(tmp_path, tamper, needle):
    path = str(tmp_path / "bb.ckpt")
    bb.TransformerBackbone(tiny_arch(), seed=32).save(path)
    header, weights = read_container(path)
    tamper(header)
    write_container(path, header, weights)
    with pytest.raises(CheckpointError, match="bad header") as err:
        bb.load_frozen_checkpoint(path)
    assert needle in str(err.value)


def test_weights_of_the_wrong_shape_are_a_checkpoint_error():
    weights = bb.TransformerBackbone(tiny_arch(), seed=43).weights()
    weights["layers.0.W1"] = weights["layers.0.W1"].T
    with pytest.raises(CheckpointError, match=r"wrong shape \[.layers.0.W1.\]"):
        bb.TransformerBackbone(tiny_arch(), weights=weights)


def test_random_vs_checkpoint_weights_differ(tmp_path):
    pre = bb.TransformerBackbone(tiny_arch(), seed=40)
    path = str(tmp_path / "bb.ckpt")
    pre.save(path)
    rand = bb.build_backbone(tiny_arch(), "frozen_random", seed=41)
    loaded = bb.build_backbone(tiny_arch(), "frozen_checkpoint", checkpoint_path=path)
    x = Tensor(np.random.default_rng(42).normal(size=(3, 4)))
    assert np.abs(rand.forward(x).data - loaded.forward(x).data).max() > 1e-6


# -- context extraction ----------------------------------------------------------


def test_extract_context_is_mean_of_projected_rows():
    rng = np.random.default_rng(43)
    proj = bb.ContextProjector(d=6, d_c=3, rng=rng)
    h = rng.normal(size=(5, 6))
    c = bb.extract_context(Tensor(h), proj).data
    expected = (h @ proj.W_c.data.T + proj.b_c.data).mean(axis=0, keepdims=True)
    np.testing.assert_allclose(c, expected, atol=1e-12)
    assert c.shape == (1, 3)


def test_extract_context_gradients_reach_projector():
    rng = np.random.default_rng(44)
    proj = bb.ContextProjector(d=6, d_c=3, rng=rng)
    h = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    bb.extract_context(h, proj).sum().backward()
    assert proj.W_c.grad is not None and proj.b_c.grad is not None
    assert h.grad is not None


def test_extract_context_sensitive_to_row_permutation_after_backbone():
    backbone = bb.TransformerBackbone(tiny_arch(n_layers=1, n_heads=2, d=8), seed=45)
    rng = np.random.default_rng(46)
    proj = bb.ContextProjector(d=8, d_c=4, rng=rng)
    x = rng.normal(size=(4, 8))
    c1 = bb.extract_context(backbone.forward(Tensor(x)), proj).data
    c2 = bb.extract_context(backbone.forward(Tensor(x[::-1].copy())), proj).data
    assert np.abs(c1 - c2).max() > 1e-6
