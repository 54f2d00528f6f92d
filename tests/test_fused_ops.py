"""Fused layer ops against the unfused compositions of elementary ops they replace.

Each reference below is built only from the elementary ops in ``tensor`` and
is the composition the model used before its layers were fused. Forward
values and the gradients of every operand must agree within 1e-12, and
operands with requires_grad=False must not grow gradient buffers.

The model's one-node layers (``transformer``, ``planar_layer``,
``mlp_split``) must match the chains of layer ops the model ran before them
bitwise, forward values and every gradient.
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
    loss = tz.tensor_sum(out * Tensor(probe))  # one sum per window for a stack
    (loss if loss.size == 1 else tz.sum_in_order(loss)).backward()
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


# -- the one-node layers against the layer-by-layer chains ------------------------------


def backbone_chain(bb, x):
    """TransformerBackbone.forward as the chain of layer ops it ran before it was one node."""
    p = bb.params
    h = x + p["pos"][0 : x.shape[-2], :]
    for i in range(bb.arch.n_layers):
        lp = {name.split(".")[-1]: t for name, t in p.items() if name.startswith(f"layers.{i}.")}
        att_in = tz.layernorm_affine(h, lp["ln1_g"], lp["ln1_b"])
        h = h + tz.causal_attention(att_in, lp["Wq"], lp["Wk"], lp["Wv"], lp["Wo"], bb.arch.n_heads)
        ff_in = tz.layernorm_affine(h, lp["ln2_g"], lp["ln2_b"])
        h = h + (ff_in @ lp["W1"]).tanh() @ lp["W2"]
    return tz.layernorm_affine(h, p["ln_f_g"], p["ln_f_b"])


def planar_layer_chain(u, h, U1, c1, U2, c2):
    """The hypernet's two linear ops and tanh, then ``planar_step``."""
    theta = tz.linear(tz.linear(h, U1, c1).tanh(), U2, c2)
    return tz.planar_step(u, theta, PLANAR_MARGIN, _NORM_EPS)


def planar_layer_fused(u, h, U1, c1, U2, c2):
    return tz.planar_layer(u, h, U1, c1, U2, c2, PLANAR_MARGIN, _NORM_EPS)


def mlp_split_chain(u, h, W1, b1, W2, b2):
    return tz.linear(tz.linear_split(u, h, W1, b1).tanh(), W2, b2)


def assert_bitwise(fused, chain, operands, rng):
    probe = rng.normal(size=chain(*operands).shape)
    want, want_grads = _run(chain, operands, probe)
    got, got_grads = _run(fused, operands, probe)
    assert got.tobytes() == want.tobytes()
    for t, g, w in zip(operands, got_grads, want_grads):
        assert (g is None) == (w is None) == (not t.requires_grad)
        if g is not None:
            assert g.tobytes() == w.tobytes()


def _backbone_operands(trainable, n_heads, windows, seed):
    arch = BackboneArch(n_layers=2, n_heads=n_heads, d=8, ffn_width=12, max_len=8)
    bb = TransformerBackbone(arch, seed=seed, trainable=trainable)
    rng = np.random.default_rng(seed)
    for t in bb.params.values():  # move gains and biases off their 1 / 0 init
        t.data = t.data + rng.normal(size=t.shape) * 0.1
    x = _tensor(rng, *windows, 6, arch.d)  # 6 of max_len 8 rows: pos's last rows take zeros
    return bb, [x] + [bb.params[n] for n in sorted(bb.params)], rng


@pytest.mark.parametrize("windows", [(), (3,)], ids=["2d", "stack"])
@pytest.mark.parametrize("n_heads", [1, 4])
@pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "pretraining"])
def test_backbone_node_is_bitwise_the_layer_chain(trainable, n_heads, windows):
    # pretraining trains the backbone's weights and pos; the model's frozen
    # backbone passes gradients through to x only
    bb, operands, rng = _backbone_operands(trainable, n_heads, windows, 12 + n_heads)

    def run(forward):
        return lambda x, *_: forward(x)

    assert_bitwise(run(bb.forward), run(lambda x: backbone_chain(bb, x)), operands, rng)
    assert len(tz.Tape.from_root(bb.forward(operands[0]))) == 1


@pytest.mark.parametrize("windows", [(), (3,)], ids=["2d", "stack"])
@pytest.mark.parametrize("latent_grad", [False, True], ids=["first_layer", "later_layer"])
def test_flow_layer_node_is_bitwise_hypernet_then_planar_step(latent_grad, windows):
    rng = np.random.default_rng(14)
    d_u, d_h, hidden = 4, 6, 5
    u = _tensor(rng, *windows, 9, d_u, grad=latent_grad)
    h = _tensor(rng, *windows, 1, d_h)
    weights = [_tensor(rng, hidden, d_h), _tensor(rng, hidden),  # U2, c2 off their zero init
               _tensor(rng, 2 * d_u + 1, hidden, scale=0.7), _tensor(rng, 2 * d_u + 1, scale=0.5)]
    assert_bitwise(planar_layer_fused, planar_layer_chain, [u, h, *weights], rng)


@pytest.mark.parametrize("windows", [(), (3,)], ids=["2d", "stack"])
def test_recon_node_is_bitwise_linear_split_tanh_linear(windows):
    rng = np.random.default_rng(15)
    u = _tensor(rng, *windows, 9, 3)
    h = _tensor(rng, *windows, 1, 4)
    weights = [_tensor(rng, 5, 7), _tensor(rng, 5), _tensor(rng, 6, 5), _tensor(rng, 6)]
    assert_bitwise(tz.mlp_split, mlp_split_chain, [u, h, *weights], rng)


def test_flow_layer_node_rejects_a_summary_of_other_windows():
    rng = np.random.default_rng(16)
    weights = [_tensor(rng, 5, 6), _tensor(rng, 5), _tensor(rng, 9, 5), _tensor(rng, 9)]
    with pytest.raises(tz.ShapeError, match="parameter row"):
        planar_layer_fused(_tensor(rng, 2, 3, 4), _tensor(rng, 1, 6), *weights)
    with pytest.raises(tz.ShapeError, match="window axes"):
        tz.mlp_split(_tensor(rng, 2, 3, 4), _tensor(rng, 1, 6), _tensor(rng, 5, 10),
                     _tensor(rng, 5), _tensor(rng, 2, 5), _tensor(rng, 2))


def _probed(out_shape, fn, seed):
    probe = Tensor(np.random.default_rng(seed).normal(size=out_shape))
    return lambda *args: tz.tensor_sum(fn(*args) * probe)


def test_grad_check_of_each_one_node_layer():
    rng = np.random.default_rng(17)
    arch = BackboneArch(n_layers=1, n_heads=2, d=4, ffn_width=6, max_len=4)
    bb = TransformerBackbone(arch, seed=18, trainable=True)
    for t in bb.params.values():
        t.data = t.data + rng.normal(size=t.shape) * 0.1
    names = sorted(bb.params)
    cases = [
        (_probed((3, 4), lambda x, *_: bb.forward(x), 19),
         [_tensor(rng, 3, 4)] + [bb.params[n] for n in names]),
        (_probed((5, 3), planar_layer_fused, 20),
         [_tensor(rng, 5, 3), _tensor(rng, 1, 4), _tensor(rng, 3, 4), _tensor(rng, 3),
          _tensor(rng, 7, 3), _tensor(rng, 7)]),
        (_probed((5, 2), tz.mlp_split, 21),
         [_tensor(rng, 5, 3), _tensor(rng, 1, 2), _tensor(rng, 4, 5), _tensor(rng, 4),
          _tensor(rng, 2, 4), _tensor(rng, 2)]),
    ]
    for fn, points in cases:
        assert tz.grad_check(fn, points) < 1e-5
