"""Tensor core: forward oracles, backward checks, tape behaviour."""

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


def test_tanh_of_one_matches_reference_value():
    # high-precision reference for tanh(1)
    assert abs(Tensor([1.0]).tanh().data[0] - 0.7615941559557649) < 1e-12


def test_softplus_values_and_stability():
    x = Tensor(np.array([0.0, 50.0, -50.0, 710.0]))
    y = x.softplus().data
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


def test_reshape_size_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))).reshape(4, 2)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    s = tz.softmax_rows(Tensor(rng.normal(size=(5, 7), scale=10)))
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(5), atol=1e-12)
    assert (s.data > 0).all()


def test_layernorm_rows_moments():
    rng = np.random.default_rng(2)
    y = tz.layernorm_rows(Tensor(rng.normal(size=(4, 9), loc=3.0, scale=2.0))).data
    np.testing.assert_allclose(y.mean(axis=1), np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(y.var(axis=1), np.ones(4), atol=1e-4)


# -- backward correctness -----------------------------------------------------


def test_square_gradient():
    x = Tensor([3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_tanh_gradient_at_zero():
    x = Tensor([0.0], requires_grad=True)
    x.tanh().sum().backward()
    np.testing.assert_allclose(x.grad, [1.0])


def test_sum_of_squares_gradient_vector():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_composite_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 5))
    x0 = rng.normal(size=(5, 2))

    x = Tensor(x0.copy(), requires_grad=True)
    loss = (Tensor(w) @ x).tanh().sum()
    loss.backward()
    num = numeric_grad(lambda arr: np.tanh(w @ arr).sum(), x0)
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
        grad_check(lambda t: t.reciprocal().sum() * np.inf, x)


_OP_BUILDERS = {
    "add": lambda a, b: (a + b).sum(),
    "sub": lambda a, b: (a - b).sum(),
    "mul": lambda a, b: (a * b * a).sum(),
    "matmul": lambda a, b: (a @ b.T).tanh().sum(),
    "tanh": lambda a, b: (a.tanh() + b.tanh()).sum(),
    "softplus": lambda a, b: (a.softplus() * b).sum(),
    "abs": lambda a, b: (a.abs() + b.abs()).sum(),
    "reciprocal": lambda a, b: ((a * a + 1.0).reciprocal() * b).sum(),
    "neg": lambda a, b: (-a * b).sum(),
    "transpose": lambda a, b: (a.T @ b).sum(),
    "reshape": lambda a, b: (a.reshape(b.size, 1) * b.reshape(b.size, 1)).sum(),
    "slice": lambda a, b: (a[0:2, 1:3] * b[0:2, 1:3]).sum(),
    "concat_rows": lambda a, b: tz.concat_rows([a, b]).tanh().sum(),
    "concat_cols": lambda a, b: tz.concat_cols([a, b]).tanh().sum(),
    "mean_rows": lambda a, b: (tz.mean_rows(a) @ tz.mean_rows(b).T).sum(),
    "softmax_rows": lambda a, b: (tz.softmax_rows(a) * b).sum(),
    "layernorm_rows": lambda a, b: (tz.layernorm_rows(a) * b).sum(),
    "add_rowvec": lambda a, b: tz.add_rowvec(a, b[0:1, :].reshape(a.shape[1])).tanh().sum(),
    "mul_rowvec": lambda a, b: tz.mul_rowvec(a, b[0:1, :].reshape(a.shape[1])).sum(),
    "repeat_rows": lambda a, b: (tz.repeat_rows(a[0:1, :], b.shape[0]) * b).sum(),
}


@pytest.mark.parametrize("op", sorted(_OP_BUILDERS))
def test_every_op_passes_grad_check(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    a = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    # keep |values| away from abs kinks
    a.data[np.abs(a.data) < 1e-2] = 0.5
    b.data[np.abs(b.data) < 1e-2] = 0.5
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
    # bounded inputs keep |(a@b)| <= inner, so tanh cannot saturate; saturated
    # entries have ~1e-8 true gradients that finite differences cannot resolve
    a = Tensor(rng.uniform(-1.0, 1.0, size=(rows, inner)), requires_grad=True)
    b = Tensor(rng.uniform(-1.0, 1.0, size=(inner, cols)), requires_grad=True)
    assert grad_check(lambda x, y: (x @ y).tanh().sum(), [a, b]) < 1e-5


# -- tape semantics -----------------------------------------------------------


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        (x + x).backward()


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
    ((w_frozen @ x).tanh()).sum().backward()
    assert w_frozen.grad is None
    assert x.grad is not None


def test_gradient_flows_through_frozen_ops():
    # frozen weights sit between the input and the loss; grads pass through
    rng = np.random.default_rng(5)
    frozen = Tensor(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    loss_fn = lambda t: ((frozen @ t).tanh() * 0.5).sum()
    assert grad_check(loss_fn, x) < 1e-5


def test_backward_is_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        h = tz.softmax_rows(w @ x @ x.T)
        loss = (tz.layernorm_rows(h).tanh() * 0.25).sum()
        loss.backward()
        return w.grad.copy(), x.grad.copy()

    g1 = run()
    g2 = run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])


def test_tape_replays_in_reverse_execution_order():
    x = Tensor([1.0], requires_grad=True)
    a = x * 2.0
    b = a.tanh()
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
        mid = kept.tanh()
        probe = weakref.ref(mid)
        loss = (mid * mid).sum()
        del mid
        loss.backward()
        del loss
        assert probe() is None
        assert len(tz.Tape.from_root(kept)) == 0
        want = 2.0 * 2.0 * np.tanh(2.0 * x.data) * (1.0 - np.tanh(2.0 * x.data) ** 2)
        np.testing.assert_allclose(x.grad, want, atol=1e-12)
    finally:
        if was_enabled:
            gc.enable()


def test_no_graph_recorded_without_requires_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = (a @ b).tanh()
    assert out._backward is None and out._parents == ()
    assert not out.requires_grad


# -- no_grad -------------------------------------------------------------------------


def _layer_chain(x: Tensor, W: Tensor, b: Tensor, theta: Tensor) -> Tensor:
    h = tz.linear(x, W, b).tanh()
    return tz.planar_step(h, theta, 1e-3, 1e-12).sum()


def _chain_operands():
    rng = np.random.default_rng(41)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    W = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    theta = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
    return x, W, b, theta


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
