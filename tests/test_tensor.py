"""Tensor core: forward oracles, backward checks, tape behaviour."""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papnf import tensor as tz
from papnf.tensor import ShapeError, Tensor, grad_check


# -- independent oracles ------------------------------------------------------


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product, written without numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an ndarray."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


# -- forward values -----------------------------------------------------------


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = (Tensor(a) @ Tensor(b)).data
    np.testing.assert_allclose(got, matmul_oracle(a, b), atol=1e-12)


def test_matmul_identity_returns_input():
    x = np.arange(6, dtype=float).reshape(2, 3)
    out = Tensor(np.eye(2)) @ Tensor(x)
    np.testing.assert_array_equal(out.data, x)


def test_matmul_frozen_2x2():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_inner_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 2)))


def test_softplus_values_and_stability():
    # the kernel under the flow's reparameterization, m = softplus(w.a) + margin - 1
    y = tz._softplus(np.array([0.0, 50.0, -50.0, 710.0]))
    assert abs(y[0] - np.log(2.0)) < 1e-12
    assert abs(y[1] - 50.0) < 1e-12
    assert 0.0 < y[2] < 1e-20
    assert np.isfinite(y[3]) and abs(y[3] - 710.0) < 1e-9


def test_elementwise_scalar_broadcast():
    x = Tensor(np.ones((2, 2)))
    assert np.all((x + 1.0).data == 2.0)
    assert np.all((3.0 * x).data == 3.0)
    assert np.all((x - Tensor([[2.0]])).data == -1.0)


def test_elementwise_shape_mismatch_is_rejected():
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(2, 3\)"):
        Tensor(np.zeros((2, 2))) + Tensor(np.zeros((2, 3)))


def test_mean_rows_example():
    out = tz.mean_rows(Tensor([[2.0, 4.0], [6.0, 8.0]]))
    np.testing.assert_array_equal(out.data, [[4.0, 6.0]])


def test_concat_and_slice_round_trip():
    a = Tensor(np.arange(4.0).reshape(2, 2))
    b = Tensor(np.arange(4.0, 10.0).reshape(3, 2))
    cat = tz.concat_rows([a, b])
    assert cat.shape == (5, 2)
    np.testing.assert_array_equal(cat[0:2, :].data, a.data)
    np.testing.assert_array_equal(cat[2:5, :].data, b.data)


def test_concat_cols_width_mismatch():
    with pytest.raises(ShapeError):
        tz.concat_rows([Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3)))])


def test_slice_out_of_range_is_an_error():
    t = Tensor(np.zeros((3, 3)))
    with pytest.raises(ShapeError, match="out of range"):
        t[0:4, :]
    with pytest.raises(ShapeError, match="out of range"):
        t[:, 1:5]


# -- backward correctness -----------------------------------------------------


def test_square_gradient():
    x = Tensor([3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_sum_of_squares_gradient_vector():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_composite_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 5))
    x0 = rng.normal(size=(5, 2))

    x = Tensor(x0.copy(), requires_grad=True)
    y = Tensor(w) @ x
    loss = (y * y * y).sum()
    loss.backward()
    num = numeric_grad(lambda arr: ((w @ arr) ** 3).sum(), x0)
    np.testing.assert_allclose(x.grad, num, atol=1e-6)


def test_grad_check_quadratic_is_tiny():
    x = Tensor(np.array([[0.3, -0.7], [1.1, 0.4]]), requires_grad=True)
    err = grad_check(lambda t: (t * t).sum(), x)
    assert err < 1e-7


def test_grad_check_constant_function_is_zero():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    assert grad_check(lambda t: (t * 0.0).sum(), x) == 0.0


def test_grad_check_accepts_exactly_zero_gradients():
    # the outermost samples' accuracy and spread gradients cancel exactly; the
    # central difference there is pure rounding noise
    rng = np.random.default_rng(6)
    pred = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    target = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    tz.energy_score(pred, target).backward()
    assert (pred.grad == 0.0).any()
    assert grad_check(tz.energy_score, [pred, target]) < 1e-6


def _tanh_with_wrong_backward(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = tz._make(y, (x,), lambda: None)
    out._backward = lambda: x.accumulate_grad(1.5 * out.grad * (1.0 - y * y))
    return out


def test_grad_check_still_flags_a_wrong_backward():
    x = Tensor(np.array([[0.3, -0.7, 1.2], [0.05, -1.4, 0.6]]), requires_grad=True)
    assert grad_check(lambda t: _tanh_with_wrong_backward(t).sum(), x) > 0.1


def test_first_gradient_is_an_owned_copy():
    # tensor_sum hands back a read-only broadcast view; the buffer must own
    # its memory so later contributions can be added in place
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    (x.sum() + x.sum()).backward()
    assert x.grad.flags.owndata and x.grad.flags.writeable
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_gradient_of_the_wrong_shape_is_rejected():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match="gradient"):
        x.accumulate_grad(np.ones((3, 2)))


def test_grad_check_nonfinite_raises():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="non-finite"):
        grad_check(lambda t: t.sum() * np.inf, x)


def _squared(t: Tensor) -> Tensor:
    return (t * t).sum()


_OP_BUILDERS = {
    "add": lambda a, b: (a + b).sum(),
    "sub": lambda a, b: (a - b).sum(),
    "mul": lambda a, b: (a * b * a).sum(),
    "matmul": lambda a, b: _squared(a[0:3, 0:3] @ b),
    "slice": lambda a, b: (a[0:2, 1:3] * b[0:2, 1:3]).sum(),
    "concat_rows": lambda a, b: _squared(tz.concat_rows([a, b])),
    "concat_cols": lambda a, b: _squared(tz.concat_cols([a, b])),
    "mean_rows": lambda a, b: (tz.mean_rows(a) * tz.mean_rows(b)).sum(),
    "repeat_rows": lambda a, b: (tz.repeat_rows(a[0:1, :], b.shape[0]) * b).sum(),
    "sum_in_order": lambda a, b: tz.sum_in_order(a * b * a),
}


@pytest.mark.parametrize("op", sorted(_OP_BUILDERS))
def test_every_op_passes_grad_check(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    assert grad_check(_OP_BUILDERS[op], [a, b]) < 1e-5


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    inner=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_matmul_grad_check_property(rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(-1.0, 1.0, size=(rows, inner)), requires_grad=True)
    b = Tensor(rng.uniform(-1.0, 1.0, size=(inner, cols)), requires_grad=True)
    assert grad_check(lambda x, y: _squared(x @ y), [a, b]) < 1e-5


# -- tape semantics -----------------------------------------------------------


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        (x + x).backward()


def test_sum_in_order_adds_first_to_last_like_a_chain_of_adds():
    # eight values where np.sum's pairwise blocks round differently
    values = np.array([1e16, 1.0, -1e16, 1.0, 3.0, 1e-3, 7.0, -2.5])
    assert np.sum(values) != ((((((values[0] + values[1]) + values[2]) + values[3]) + values[4])
                               + values[5]) + values[6]) + values[7]
    leaves = [Tensor(v, requires_grad=True) for v in values]
    chain = leaves[0]
    for t in leaves[1:]:
        chain = chain + t
    x = Tensor(values, requires_grad=True)
    total = tz.sum_in_order(x)
    assert total.shape == () and total.data.tobytes() == chain.data.tobytes()
    (total * 0.25).backward()
    assert np.array_equal(x.grad, np.full(8, 0.25))
    assert tz.sum_in_order(Tensor(np.float64(2.5))).item() == 2.5


def test_gradients_accumulate_across_reuse():
    x = Tensor([2.0], requires_grad=True)
    y = x * x + x * 3.0  # x appears in two terms
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_matmul_computes_no_gradient_for_a_frozen_operand(monkeypatch):
    frozen = Tensor(np.ones((2, 2)))
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    out = x @ frozen
    receivers = []
    original = Tensor.accumulate_grad

    def recording(self, g):
        receivers.append(self)
        original(self, g)

    monkeypatch.setattr(Tensor, "accumulate_grad", recording)
    out.sum().backward()
    assert not any(t is frozen for t in receivers)
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))


def test_frozen_tensors_never_get_grad_buffers():
    w_frozen = Tensor(np.ones((2, 2)), requires_grad=False)
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    _squared(w_frozen @ x).backward()
    assert w_frozen.grad is None
    assert x.grad is not None


def test_gradient_flows_through_frozen_ops():
    # frozen weights sit between the input and the loss; grads pass through
    rng = np.random.default_rng(5)
    frozen = Tensor(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    loss_fn = lambda t: _squared(frozen @ t) * 0.5
    assert grad_check(loss_fn, x) < 1e-5


def test_backward_is_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        h = tz.linear(x, w, Tensor(np.zeros(3)))
        loss = tz.energy_score(h * h, tz.mean_rows(h)) * 0.25
        loss.backward()
        return w.grad.copy(), x.grad.copy()

    g1 = run()
    g2 = run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])


def test_tape_replays_in_reverse_execution_order():
    x = Tensor([1.0], requires_grad=True)
    a = x * 2.0
    b = a * a
    c = b.sum()
    tape = tz.Tape.from_root(c)
    seqs = [t._seq for t in tape.nodes]
    assert seqs == sorted(seqs, reverse=True)


def test_backward_releases_the_graph():
    # every closure holds its own output, so only the release after backward
    # frees the graph while the cyclic collector is off
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
        kept = x * 2.0
        mid = kept * kept
        probe = weakref.ref(mid)
        loss = (mid * mid).sum()
        del mid
        loss.backward()
        del loss
        assert probe() is None
        assert len(tz.Tape.from_root(kept)) == 0
        want = 4.0 * (2.0 * x.data) ** 3 * 2.0
        np.testing.assert_allclose(x.grad, want, atol=1e-12)
    finally:
        if was_enabled:
            gc.enable()


def test_no_graph_recorded_without_requires_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = (a @ b) * 2.0
    assert out._backward is None and out._parents == ()
    assert not out.requires_grad


# -- no_grad -------------------------------------------------------------------------


def _layer_chain(x: Tensor, W: Tensor, b: Tensor, *hypernet: Tensor) -> Tensor:
    h = tz.linear(x, W, b)
    return tz.planar_layer(h, tz.mean_rows(h), *hypernet, 1e-3, 1e-12).sum()


def _chain_operands():
    rng = np.random.default_rng(41)
    shapes = [(4, 3), (2, 3), (2,), (3, 2), (3,), (5, 3), (5,)]  # x, W, b, U1, c1, U2, c2
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def test_no_grad_records_no_graph_and_keeps_values():
    operands = _chain_operands()
    recorded = _layer_chain(*operands)
    with tz.no_grad():
        out = _layer_chain(*operands)
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()
    assert len(tz.Tape.from_root(out)) == 0
    assert out.data.tobytes() == recorded.data.tobytes()
    assert len(tz.Tape.from_root(recorded)) == 4  # recording resumes after the block
    recorded.backward()
    assert all(p.grad is not None for p in operands)


def test_no_grad_nests_and_restores_after_an_exception():
    x = Tensor(np.ones((1, 2)), requires_grad=True)
    with tz.no_grad():
        with tz.no_grad():
            assert not (x * 2.0).requires_grad
        assert not (x * 2.0).requires_grad  # the inner exit keeps the outer block off
    assert (x * 2.0).requires_grad
    with pytest.raises(RuntimeError, match="boom"):
        with tz.no_grad():
            raise RuntimeError("boom")
    assert (x * 2.0).requires_grad


def test_no_grad_forward_leaves_nothing_for_the_cyclic_collector():
    operands = _chain_operands()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with tz.no_grad():
            for _ in range(5):
                _layer_chain(*operands)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# -- gradients of operands shared across windows -----------------------------------

# window gradients whose three summation orders round apart: creation order
# (window 0 first), window B-1 first, and pairwise
ORDER_VALUES = np.array([1e16, 1.0, 5.0, -(2.0**53)])


def _three_sums(stack):
    s = list(stack)
    first_first = ((s[0] + s[1]) + s[2]) + s[3]
    last_first = ((s[3] + s[2]) + s[1]) + s[0]
    pairwise = (s[0] + s[1]) + (s[2] + s[3])
    return first_first, last_first, pairwise


def _order_cases():
    """name -> (op on (x, *shared), x (B, r, n), upstream (B, r', m), shared arrays)."""
    v = ORDER_VALUES[:, None, None]
    b = len(ORDER_VALUES)
    ones = np.ones((b, 1, 3))
    ln_x = np.tile([[1.0, -1.0, 0.5]], (b, 1, 1))
    return {
        "linear_one_row": (
            tz.linear, ones, v * np.ones((b, 1, 2)), [np.zeros((2, 3)), np.zeros(2)]
        ),
        "linear_two_rows": (
            tz.linear,
            np.concatenate([ones, np.zeros((b, 1, 3))], axis=1),
            np.concatenate([v * np.ones((b, 1, 2)), np.zeros((b, 1, 2))], axis=1),
            [np.zeros((2, 3)), np.zeros(2)],
        ),
        "final_layer_norm": (
            lambda x, g, beta: tz.transformer(x, Tensor(np.zeros((1, 3))), [], (g, beta), 1),
            ln_x, v * ln_x, [np.ones(3), np.zeros(3)],
        ),
        "concat_prefix": (lambda x, p: tz.concat_rows([p, x]), np.zeros((b, 2, 3)),
                          v * np.ones((b, 3, 3)), [np.zeros((1, 3))]),
    }


def _rows(*arrays):
    return [np.ascontiguousarray(a.reshape(-1, a.shape[-1])) for a in arrays]


def _in_order(rows):
    """Rows added first to last, one at a time."""
    return functools.reduce(np.add, rows)


@pytest.mark.parametrize("name", sorted(_order_cases()))
def test_shared_operands_take_one_reduction_in_creation_order(name):
    # a weight takes one product, and a bias, gain or prefix one sum, over the
    # windows' gradient rows in creation order: window 0 first
    op, x, upstream, shared = _order_cases()[name]
    per_window = []
    for i in range(len(x)):
        leaves = [Tensor(s, requires_grad=True) for s in shared]
        out = op(Tensor(x[i]), *leaves)
        out.accumulate_grad(upstream[i])
        tz.Tape.from_root(out).replay_backward()
        per_window.append([t.grad for t in leaves])

    leaves = [Tensor(s, requires_grad=True) for s in shared]
    out = op(Tensor(x), *leaves)
    out.accumulate_grad(upstream)
    tz.Tape.from_root(out).replay_backward()
    for k, t in enumerate(leaves):  # a linear's W and b, a layer norm's g and b, the prefix
        if name.startswith("linear") and k == 0:
            g_rows, x_rows = _rows(upstream, x)
            g_back, x_back = _rows(upstream[::-1], x[::-1])
            want = (g_rows.T @ x_rows).tobytes()
            assert (g_back.T @ x_back).tobytes() != want  # the orders are told apart
            assert t.grad.tobytes() == want
            continue
        sums = [s.tobytes() for s in _three_sums([g[k] for g in per_window])]
        assert len(set(sums)) == 3  # the orders are told apart
        assert t.grad.tobytes() == sums[0]


SHARED_KINDS = ("weight", "bias", "prefix")


def _taken_rows(kind, upstream):
    """The gradient rows that a shared bias or prefix takes from upstream (3, 4, 2)."""
    return upstream[:, 0:3, :].reshape(-1, 6) if kind == "prefix" else upstream.reshape(-1, 2)


def _shared_backward(kind, t, x, upstream):
    """Replay one node that hands the shared leaf t every window's gradient rows.

    x is (3, 4, 5) rows and upstream (3, 4, 2); t is linear's W (2, 5) or
    b (2,), or a (3, 2) prefix concatenated above row 3 of its output.
    Returns t's one reduction.
    """
    weight = t if kind == "weight" else Tensor(np.linspace(-1.0, 1.0, 10).reshape(2, 5))
    out = tz.linear(x, weight, t if kind == "bias" else Tensor(np.zeros(2)))
    if kind == "prefix":
        out = tz.concat_rows([t, out[3:4, :]])
    out.accumulate_grad(upstream)
    tz.Tape.from_root(out).replay_backward()
    if kind == "weight":
        g_rows, x_rows = _rows(upstream, x.data)
        return g_rows.T @ x_rows
    return _in_order(_taken_rows(kind, upstream)).reshape(t.shape)


def _shared_leaf(kind, rng):
    shape = {"weight": (2, 5), "bias": (2,), "prefix": (3, 2)}[kind]
    return Tensor(rng.normal(size=shape), requires_grad=True)


@pytest.mark.parametrize("kind", SHARED_KINDS)
def test_a_deferred_gradient_goes_in_after_the_gradient_so_far(kind):
    # two backwards without zero_grad: the second adds its reduction to the first
    rng = np.random.default_rng(5)
    t = _shared_leaf(kind, rng)
    first = _shared_backward(kind, t, Tensor(rng.normal(size=(3, 4, 5))), rng.normal(size=(3, 4, 2)))
    assert t.grad.tobytes() == first.tobytes()
    upstream = rng.normal(size=(3, 4, 2))
    second = _shared_backward(kind, t, Tensor(rng.normal(size=(3, 4, 5))), upstream)
    assert t.grad.tobytes() == (first + second).tobytes()
    if kind != "weight":  # not the gradient so far added as the first row
        rows = _taken_rows(kind, upstream)
        assert _in_order([first.reshape(-1), *rows]).tobytes() != t.grad.tobytes()


@pytest.mark.parametrize("kind", SHARED_KINDS)
def test_a_closure_that_raises_leaves_nothing_deferred(kind):
    rng = np.random.default_rng(6)
    t = _shared_leaf(kind, rng)
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True) * 1.0  # replays after linear

    def boom():
        raise RuntimeError("boom")

    x._backward = boom
    with pytest.raises(RuntimeError, match="boom"):
        _shared_backward(kind, t, x, rng.normal(size=(3, 4, 2)))
    assert tz._deferred is None
    assert t.grad is None  # the recorded rows were dropped, not added
    want = _shared_backward(kind, t, Tensor(rng.normal(size=(3, 4, 5))), rng.normal(size=(3, 4, 2)))
    assert t.grad.tobytes() == want.tobytes()


def test_a_non_leaf_weight_has_its_gradient_before_its_own_node_runs():
    rng = np.random.default_rng(7)
    leaf = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    W = leaf * 1.0
    seen, own = [], W._backward

    def spy():
        seen.append(W.grad)
        own()

    W._backward = spy
    want = _shared_backward("weight", W, Tensor(rng.normal(size=(3, 4, 5))), rng.normal(size=(3, 4, 2)))
    assert len(seen) == 1 and seen[0] is not None
    assert seen[0].tobytes() == want.tobytes()
    assert leaf.grad.tobytes() == want.tobytes()


def test_gradient_rows_reach_the_reduction_in_c_order():
    # mean_rows hands linear a broadcast gradient, which numpy copies in F
    # order; its rows are still summed first to last, not pairwise
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(40, 3)))
    W = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    out = tz.mean_rows(tz.linear(x, W, b))
    upstream = np.array([[1.0, -0.7]])
    out.accumulate_grad(upstream)
    tz.Tape.from_root(out).replay_backward()
    rows = np.ascontiguousarray(np.broadcast_to(upstream / 40, (40, 2)))
    want = _in_order(rows)
    assert np.add.reduce(np.asfortranarray(rows), axis=0).tobytes() != want.tobytes()
    assert b.grad.tobytes() == want.tobytes()
    assert W.grad.tobytes() == (rows.T @ x.data).tobytes()


def test_accumulate_grad_copies_the_array_it_is_given():
    g = np.ones((2, 3))
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    x.accumulate_grad(g)
    x.accumulate_grad(g)
    assert not np.shares_memory(x.grad, g)
    np.testing.assert_array_equal(g, np.ones((2, 3)))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


@pytest.mark.parametrize("windows", [(), (3,)])
def test_no_gradient_aliases_the_upstream_or_another_tensor(windows):
    # identity broadcasts hand parents out.grad itself, or slices of it
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(*windows, 2, 3)), requires_grad=True)
    prefix = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    pos = Tensor(rng.normal(size=(*windows, 3, 3)), requires_grad=True)
    side = Tensor(rng.normal(size=(*windows, 3, 2)), requires_grad=True)
    lead = Tensor(rng.normal(size=(*windows, 3, 5)), requires_grad=True)
    scale = Tensor(rng.normal(size=(*windows, 3, 5)), requires_grad=True)
    joined = tz.concat_cols([tz.concat_rows([prefix, x]) + pos, side])
    out = (lead + joined) - scale
    upstream = rng.normal(size=out.shape)
    out.accumulate_grad(upstream)
    tape = tz.Tape.from_root(out)
    tape.replay_backward()
    tensors = tape.nodes + [x, prefix, pos, side, lead, scale]
    held = [upstream] + [t.data for t in tensors]
    for t in tensors:
        assert t.grad is not None
        assert not any(np.shares_memory(t.grad, a) for a in held)
        assert not any(np.shares_memory(t.grad, o.grad) for o in tensors if o is not t)
