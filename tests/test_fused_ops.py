"""Fused layer ops against the unfused compositions of elementary ops they replace.

Each reference below is built only from the elementary ops in ``tensor`` and
is the composition the model used before its layers were fused. Forward
values and the gradients of every operand must agree within 1e-12, and
operands with requires_grad=False must not grow gradient buffers.
"""

import math

import numpy as np
import pytest

from papnf import tensor as tz
from papnf.backbone import BackboneArch, TransformerBackbone
from papnf.flow import _NORM_EPS, PLANAR_MARGIN
from papnf.tensor import Tensor

TOL = 1e-12


# -- unfused references ---------------------------------------------------------------


def linear_ref(x, W, b):
    return tz.add_rowvec(x @ W.T, b)


def linear_split_ref(u, h, W, b):
    return tz.linear(tz.concat_cols([u, tz.repeat_rows(h, u.shape[0])]), W, b)


def layernorm_affine_ref(x, g, b):
    return tz.add_rowvec(tz.mul_rowvec(tz.layernorm_rows(x), g), b)


def attention_ref(x, Wq, Wk, Wv, Wo, n_heads):
    """Per-head loop over column slices of Q, K, V."""
    n, d = x.shape
    d_head = d // n_heads
    q, k, v = x @ Wq, x @ Wk, x @ Wv
    mask = Tensor(np.triu(np.full((n, n), -1e9), k=1))
    heads = []
    for h in range(n_heads):
        c0, c1 = h * d_head, (h + 1) * d_head
        scores = (q[:, c0:c1] @ k[:, c0:c1].T) * (1.0 / math.sqrt(d_head)) + mask
        heads.append(tz.softmax_rows(scores) @ v[:, c0:c1])
    return tz.concat_cols(heads) @ Wo


def planar_ref(u, theta, margin=PLANAR_MARGIN, norm_eps=_NORM_EPS):
    """The planar map as a chain of scalar-sized Tensor ops on sliced a, w, b."""
    d = u.shape[1]
    a, w, b = theta[:, 0:d], theta[:, d : 2 * d], theta[:, 2 * d : 2 * d + 1]
    wa = w @ a.T
    m = wa.softplus() + (margin - 1.0)
    coef = (m - wa) * ((a * a).sum() + norm_eps).reciprocal()
    w_hat = w + coef * a
    gate = (u @ a.T + b).tanh()
    return u + gate @ w_hat


def backbone_ref(bb, x):
    """TransformerBackbone.forward built from the reference compositions."""
    p = bb.params
    n = x.shape[0]
    h = x + p["pos"][0:n, :]
    for i in range(bb.arch.n_layers):
        lp = {name.split(".")[-1]: t for name, t in p.items() if name.startswith(f"layers.{i}.")}
        att_in = layernorm_affine_ref(h, lp["ln1_g"], lp["ln1_b"])
        h = h + attention_ref(att_in, lp["Wq"], lp["Wk"], lp["Wv"], lp["Wo"], bb.arch.n_heads)
        ff_in = layernorm_affine_ref(h, lp["ln2_g"], lp["ln2_b"])
        h = h + (ff_in @ lp["W1"]).tanh() @ lp["W2"]
    return layernorm_affine_ref(h, p["ln_f_g"], p["ln_f_b"])


# -- harness ----------------------------------------------------------------------------


def _run(fn, operands, probe):
    """Forward value and every operand's gradient of sum(fn(*operands) * probe)."""
    for t in operands:
        t.grad = None
    out = fn(*operands)
    tz.tensor_sum(out * Tensor(probe)).backward()
    return out.data.copy(), [None if t.grad is None else t.grad.copy() for t in operands]


def assert_matches_reference(fused, ref, operands, rng):
    out_shape = ref(*operands).shape
    probe = rng.normal(size=out_shape)
    want, want_grads = _run(ref, operands, probe)
    got, got_grads = _run(fused, operands, probe)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    for t, g, w in zip(operands, got_grads, want_grads):
        if t.requires_grad:
            np.testing.assert_allclose(g, w, rtol=0, atol=TOL)
        else:
            assert g is None and w is None


def _tensor(rng, *shape, scale=1.0, grad=True):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=grad)


# -- the ops ------------------------------------------------------------------------------


@pytest.mark.parametrize("frozen", [False, True])
def test_linear_matches_matmul_plus_rowvec(frozen):
    rng = np.random.default_rng(1)
    x = _tensor(rng, 5, 7)
    W = _tensor(rng, 3, 7, grad=not frozen)
    b = _tensor(rng, 3, grad=not frozen)
    assert_matches_reference(tz.linear, linear_ref, [x, W, b], rng)


def test_linear_of_constant_rows_gives_no_input_gradient():
    rng = np.random.default_rng(2)
    x = _tensor(rng, 4, 6, grad=False)
    W = _tensor(rng, 2, 6)
    b = _tensor(rng, 2)
    assert_matches_reference(tz.linear, linear_ref, [x, W, b], rng)


@pytest.mark.parametrize("frozen", ["none", "weights", "inputs"])
def test_linear_split_matches_concat_of_repeated_rows(frozen):
    rng = np.random.default_rng(10)
    u = _tensor(rng, 9, 3, grad=frozen != "inputs")
    h = _tensor(rng, 1, 4, grad=frozen != "inputs")
    W = _tensor(rng, 5, 7, grad=frozen != "weights")
    b = _tensor(rng, 5, grad=frozen != "weights")
    assert_matches_reference(tz.linear_split, linear_split_ref, [u, h, W, b], rng)


def test_linear_split_rejects_bad_shapes():
    rng = np.random.default_rng(11)
    W, b = _tensor(rng, 5, 7), _tensor(rng, 5)
    with pytest.raises(tz.ShapeError, match="single row"):
        tz.linear_split(_tensor(rng, 6, 3), _tensor(rng, 2, 4), W, b)
    with pytest.raises(tz.ShapeError, match="widths"):
        tz.linear_split(_tensor(rng, 6, 3), _tensor(rng, 1, 3), W, b)
    with pytest.raises(tz.ShapeError, match="window axes"):
        tz.linear_split(_tensor(rng, 2, 6, 3), _tensor(rng, 3, 1, 4), W, b)
    with pytest.raises(tz.ShapeError, match="window axes"):
        tz.linear_split(_tensor(rng, 2, 6, 3), _tensor(rng, 1, 4), W, b)


@pytest.mark.parametrize("frozen", [False, True])
def test_layernorm_affine_matches_unfused_layer_norm(frozen):
    rng = np.random.default_rng(3)
    x = _tensor(rng, 6, 8, scale=3.0)
    g = _tensor(rng, 8, grad=not frozen)
    b = _tensor(rng, 8, grad=not frozen)
    assert_matches_reference(tz.layernorm_affine, layernorm_affine_ref, [x, g, b], rng)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("frozen", [False, True])
def test_causal_attention_matches_per_head_loop(n_heads, frozen):
    rng = np.random.default_rng(4 + n_heads)
    d = 8
    x = _tensor(rng, 7, d)
    weights = [_tensor(rng, d, d, scale=1.0 / math.sqrt(d), grad=not frozen) for _ in range(4)]

    def fused(x, *w):
        return tz.causal_attention(x, *w, n_heads)

    def ref(x, *w):
        return attention_ref(x, *w, n_heads)

    assert_matches_reference(fused, ref, [x, *weights], rng)


def test_causal_attention_rejects_bad_shapes():
    rng = np.random.default_rng(5)
    x = _tensor(rng, 3, 6)
    w = [_tensor(rng, 6, 6) for _ in range(4)]
    with pytest.raises(tz.ShapeError, match="heads"):
        tz.causal_attention(x, *w, 4)
    with pytest.raises(tz.ShapeError, match="weight"):
        tz.causal_attention(x, *w[:3], _tensor(rng, 6, 5), 2)


@pytest.mark.parametrize("latent_grad", [False, True])
def test_planar_step_matches_tensor_chain(latent_grad):
    rng = np.random.default_rng(6)
    d = 5
    u = _tensor(rng, 9, d, grad=latent_grad)
    theta = _tensor(rng, 1, 2 * d + 1)

    def fused(u, theta):
        return tz.planar_step(u, theta, PLANAR_MARGIN, _NORM_EPS)

    assert_matches_reference(fused, planar_ref, [u, theta], rng)


def test_planar_step_matches_chain_when_reparameterization_bites():
    # w.a far below -1: the softplus correction does most of the work
    rng = np.random.default_rng(7)
    d = 4
    a = rng.normal(size=d)
    theta = Tensor(np.concatenate([a, -6.0 * a, [0.3]])[None, :], requires_grad=True)
    u = _tensor(rng, 5, d)

    def fused(u, theta):
        return tz.planar_step(u, theta, PLANAR_MARGIN, _NORM_EPS)

    assert_matches_reference(fused, planar_ref, [u, theta], rng)


def test_planar_step_rejects_a_mismatched_parameter_row():
    rng = np.random.default_rng(8)
    with pytest.raises(tz.ShapeError, match="parameter row"):
        tz.planar_step(_tensor(rng, 3, 4), _tensor(rng, 1, 8), PLANAR_MARGIN, _NORM_EPS)


# -- the backbone -----------------------------------------------------------------------


@pytest.mark.parametrize("trainable", [False, True])
def test_backbone_forward_matches_unfused_composition(trainable):
    # pretrain_backbone trains the backbone's own weights through the fused ops
    arch = BackboneArch(n_layers=2, n_heads=2, d=8, ffn_width=12, max_len=8)
    bb = TransformerBackbone(arch, seed=9, trainable=trainable)
    rng = np.random.default_rng(9)
    for t in bb.params.values():  # move gains and biases off their 1 / 0 init
        t.data = t.data + rng.normal(size=t.shape) * 0.1
    x = _tensor(rng, 6, arch.d)
    names = sorted(bb.params)
    operands = [x] + [bb.params[n] for n in names]

    def run(forward):
        return lambda x, *_: forward(x)

    assert_matches_reference(run(bb.forward), run(lambda x: backbone_ref(bb, x)), operands, rng)
    if not trainable:
        assert all(bb.params[n].grad is None for n in names)
