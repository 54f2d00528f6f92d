"""Each fused layer op against an independent reference written in plain numpy.

The references follow the textbook formulas, attention one head and one
query row at a time, and import no ``tensor`` kernel: a fault in a kernel
shows as a mismatch here, where a reference that ran the same kernels would
repeat it. Forward values must agree within 1e-12. Gradients are checked by
``grad_check`` against central differences, with trainable and with frozen
weights, and operands with requires_grad=False must not grow gradient
buffers. ``test_golden_digests.py`` pins the bits; ``test_evaluate.py``
checks that a window stack is bitwise its windows.
"""

import math

import numpy as np
import pytest

from papnf import tensor as tz
from papnf.backbone import BackboneArch, TransformerBackbone
from papnf.tensor import _NORM_EPS, PLANAR_MARGIN, Tensor

TOL = 1e-12


# -- plain-numpy references -------------------------------------------------------------


def linear_ref(x, W, b):
    return x @ W.T + b


def layer_norm_ref(x, g, b):
    """(x - mean) / sqrt(var + 1e-5) * g + b over each row, variance over n."""
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * g + b


def attention_ref(x, Wq, Wk, Wv, Wo, n_heads):
    """Causal multi-head attention, one head and one query row at a time."""
    n, d = x.shape
    d_head = d // n_heads
    q, k, v = x @ Wq, x @ Wk, x @ Wv
    heads = np.zeros((n, d))
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        for i in range(n):
            scores = k[: i + 1, cols] @ q[i, cols] / math.sqrt(d_head)
            weights = np.exp(scores - scores.max())
            heads[i, cols] = weights / weights.sum() @ v[: i + 1, cols]
    return heads @ Wo


def transformer_ref(x, pos, blocks, final, n_heads):
    """Positions, then per block a pre-norm attention and a pre-norm tanh MLP residual."""
    h = x + pos[: len(x)]
    for Wq, Wk, Wv, Wo, g1, b1, g2, b2, W1, W2 in blocks:
        h = h + attention_ref(layer_norm_ref(h, g1, b1), Wq, Wk, Wv, Wo, n_heads)
        h = h + np.tanh(layer_norm_ref(h, g2, b2) @ W1) @ W2
    return layer_norm_ref(h, *final)


def planar_ref(u, theta):
    """u + tanh(u.a + b) w_hat for theta = [a | w | b].

    w_hat = w + (m - w.a) a / (|a|^2 + eps), with m = softplus(w.a) + margin - 1.
    """
    d = u.shape[1]
    a, w, b = theta[0, :d], theta[0, d : 2 * d], theta[0, 2 * d]
    wa = w @ a
    m = np.logaddexp(0.0, wa) + PLANAR_MARGIN - 1.0
    w_hat = w + (m - wa) / (a @ a + _NORM_EPS) * a
    return u + np.tanh(u @ a + b)[:, None] * w_hat


def planar_layer_ref(u, h, U1, c1, U2, c2):
    """The planar map of u under the hypernet row tanh(h U1^T + c1) U2^T + c2."""
    return planar_ref(u, np.tanh(h @ U1.T + c1) @ U2.T + c2)


def mlp_split_ref(u, h, W1, b1, W2, b2):
    """Affine, tanh, affine of the rows [u_i | h]."""
    rows = np.concatenate([u, np.repeat(h, len(u), axis=0)], axis=1)
    return np.tanh(rows @ W1.T + b1) @ W2.T + b2


# -- harness ----------------------------------------------------------------------------


def assert_matches_reference(op, ref, operands):
    """op's value is ref's within TOL, and its gradients pass grad_check.

    The gradients are those of sum(op(*operands) * probe), checked on every
    operand with requires_grad; the others must grow no gradient buffer.
    """
    out = op(*operands)
    np.testing.assert_allclose(out.data, ref(*(t.data for t in operands)), rtol=0, atol=TOL)
    assert len(tz.Tape.from_root(out)) == 1  # one graph node
    probe = Tensor(np.random.default_rng(0).normal(size=out.shape))
    trainable = [t for t in operands if t.requires_grad]
    assert tz.grad_check(lambda *_: tz.tensor_sum(op(*operands) * probe), trainable) < 1e-5
    assert all(t.grad is None for t in operands if not t.requires_grad)


def _tensor(rng, *shape, scale=1.0, grad=True):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=grad)


def _norm(rng, d, grad):
    """A layer norm's (gain, bias), moved off their 1 / 0 init."""
    return [Tensor(1.0 + rng.normal(size=d) * 0.1, requires_grad=grad),
            _tensor(rng, d, scale=0.1, grad=grad)]


def _block(rng, d, width, grad):
    """One transformer block's (Wq, Wk, Wv, Wo, ln1_g, ln1_b, ln2_g, ln2_b, W1, W2)."""
    attention = [_tensor(rng, d, d, scale=1.0 / math.sqrt(d), grad=grad) for _ in range(4)]
    mlp = [_tensor(rng, d, width, scale=1.0 / math.sqrt(d), grad=grad),
           _tensor(rng, width, d, scale=1.0 / math.sqrt(width), grad=grad)]
    return attention + _norm(rng, d, grad) + _norm(rng, d, grad) + mlp


# -- linear -----------------------------------------------------------------------------


@pytest.mark.parametrize("frozen", [False, True])
def test_linear_matches_matmul_plus_rowvec(frozen):
    rng = np.random.default_rng(1)
    x = _tensor(rng, 5, 7)
    W = _tensor(rng, 3, 7, grad=not frozen)
    b = _tensor(rng, 3, grad=not frozen)
    assert_matches_reference(tz.linear, linear_ref, [x, W, b])


def test_linear_of_constant_rows_gives_no_input_gradient():
    rng = np.random.default_rng(2)
    x = _tensor(rng, 4, 6, grad=False)
    W = _tensor(rng, 2, 6)
    b = _tensor(rng, 2)
    assert_matches_reference(tz.linear, linear_ref, [x, W, b])


# -- transformer ------------------------------------------------------------------------


@pytest.mark.parametrize("frozen", [False, True])
def test_final_layer_norm_matches_the_textbook_formula(frozen):
    # no blocks: the positions, then the final affine layer norm alone
    rng = np.random.default_rng(3)
    x = _tensor(rng, 6, 8, scale=3.0)
    pos = _tensor(rng, 7, 8, grad=not frozen)
    g, b = _norm(rng, 8, not frozen)

    def op(x, pos, g, b):
        return tz.transformer(x, pos, [], (g, b), n_heads=1)

    def ref(x, pos, g, b):
        return transformer_ref(x, pos, [], (g, b), n_heads=1)

    assert_matches_reference(op, ref, [x, pos, g, b])


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("frozen", [False, True])
def test_causal_attention_matches_per_head_loop(n_heads, frozen):
    # one block of the transformer, whose attention the reference loops head
    # by head and row by row; frozen is the model's backbone, trainable its
    # pretraining
    rng = np.random.default_rng(4 + n_heads)
    d = 8
    x = _tensor(rng, 7, d)
    pos = _tensor(rng, 8, d, scale=0.5, grad=not frozen)
    block = _block(rng, d, 12, grad=not frozen)
    final = _norm(rng, d, not frozen)

    def op(x, pos, *w):
        return tz.transformer(x, pos, [tuple(w[:10])], tuple(w[10:]), n_heads)

    def ref(x, pos, *w):
        return transformer_ref(x, pos, [w[:10]], w[10:], n_heads)

    assert_matches_reference(op, ref, [x, pos, *block, *final])


@pytest.mark.parametrize("trainable", [False, True])
def test_backbone_forward_matches_unfused_composition(trainable):
    # pretrain_backbone trains the backbone's own weights through the fused op
    arch = BackboneArch(n_layers=2, n_heads=2, d=8, ffn_width=12, max_len=8)
    bb = TransformerBackbone(arch, seed=9, trainable=trainable)
    rng = np.random.default_rng(9)
    for t in bb.params.values():  # move gains and biases off their 1 / 0 init
        t.data = t.data + rng.normal(size=t.shape) * 0.1
    x = _tensor(rng, 6, arch.d)  # 6 of max_len 8 rows: pos's last rows take zeros
    names = sorted(bb.params)

    def ref(x, *_):
        p = {name: t.data for name, t in bb.params.items()}
        blocks = [
            [p[f"layers.{i}.{w}"] for w in
             ("Wq", "Wk", "Wv", "Wo", "ln1_g", "ln1_b", "ln2_g", "ln2_b", "W1", "W2")]
            for i in range(arch.n_layers)
        ]
        return transformer_ref(x, p["pos"], blocks, (p["ln_f_g"], p["ln_f_b"]), arch.n_heads)

    assert_matches_reference(lambda x, *_: bb.forward(x), ref, [x] + [bb.params[n] for n in names])


# -- flow layer -------------------------------------------------------------------------


@pytest.mark.parametrize("latent_grad", [False, True], ids=["first_layer", "later_layer"])
def test_planar_layer_matches_the_planar_map(latent_grad):
    rng = np.random.default_rng(6)
    d_u, d_h, hidden = 5, 6, 4
    u = _tensor(rng, 9, d_u, grad=latent_grad)
    h = _tensor(rng, 1, d_h)
    weights = [_tensor(rng, hidden, d_h), _tensor(rng, hidden),  # U2, c2 off their zero init
               _tensor(rng, 2 * d_u + 1, hidden, scale=0.7), _tensor(rng, 2 * d_u + 1, scale=0.5)]
    assert_matches_reference(tz.planar_layer, planar_layer_ref, [u, h, *weights])


def test_planar_layer_matches_the_planar_map_when_reparameterization_bites():
    # U2 = 0, so theta is c2: w.a far below -1, where the softplus correction
    # does most of the work
    rng = np.random.default_rng(7)
    d = 4
    a = rng.normal(size=d)
    c2 = Tensor(np.concatenate([a, -6.0 * a, [0.3]]), requires_grad=True)
    U1, c1 = _tensor(rng, 3, 2, grad=False), _tensor(rng, 3, grad=False)
    U2 = Tensor(np.zeros((2 * d + 1, 3)))
    operands = [_tensor(rng, 5, d), _tensor(rng, 1, 2, grad=False), U1, c1, U2, c2]
    assert_matches_reference(tz.planar_layer, planar_layer_ref, operands)


def test_planar_step_rejects_a_mismatched_parameter_row():
    # latents of width 3 need a row of 7; the hypernet emits 9
    rng = np.random.default_rng(8)
    weights = [_tensor(rng, 5, 6), _tensor(rng, 5), _tensor(rng, 9, 5), _tensor(rng, 9)]
    with pytest.raises(tz.ShapeError, match="parameter row"):
        tz.planar_layer(_tensor(rng, 3, 3), _tensor(rng, 1, 6), *weights)


def test_flow_layer_node_rejects_a_summary_of_other_windows():
    rng = np.random.default_rng(16)
    weights = [_tensor(rng, 5, 6), _tensor(rng, 5), _tensor(rng, 9, 5), _tensor(rng, 9)]
    with pytest.raises(tz.ShapeError, match="parameter row"):
        tz.planar_layer(_tensor(rng, 2, 3, 4), _tensor(rng, 1, 6), *weights)
    with pytest.raises(tz.ShapeError, match="window axes"):
        tz.mlp_split(_tensor(rng, 2, 3, 4), _tensor(rng, 1, 6), _tensor(rng, 5, 10),
                     _tensor(rng, 5), _tensor(rng, 2, 5), _tensor(rng, 2))


# -- recon head -------------------------------------------------------------------------


@pytest.mark.parametrize("frozen", ["none", "weights", "inputs"])
def test_mlp_split_matches_concat_of_repeated_rows(frozen):
    rng = np.random.default_rng(10)
    u = _tensor(rng, 9, 3, grad=frozen != "inputs")
    h = _tensor(rng, 1, 4, grad=frozen != "inputs")
    train = frozen != "weights"
    weights = [_tensor(rng, 5, 7, grad=train), _tensor(rng, 5, grad=train),
               _tensor(rng, 6, 5, grad=train), _tensor(rng, 6, grad=train)]
    assert_matches_reference(tz.mlp_split, mlp_split_ref, [u, h, *weights])


def test_mlp_split_rejects_bad_shapes():
    rng = np.random.default_rng(11)
    head = [_tensor(rng, 5, 7), _tensor(rng, 5), _tensor(rng, 2, 5), _tensor(rng, 2)]
    with pytest.raises(tz.ShapeError, match="single row"):
        tz.mlp_split(_tensor(rng, 6, 3), _tensor(rng, 2, 4), *head)
    with pytest.raises(tz.ShapeError, match="widths"):
        tz.mlp_split(_tensor(rng, 6, 3), _tensor(rng, 1, 3), *head)
    with pytest.raises(tz.ShapeError, match="window axes"):
        tz.mlp_split(_tensor(rng, 2, 6, 3), _tensor(rng, 3, 1, 4), *head)
