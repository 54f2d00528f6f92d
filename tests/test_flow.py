"""Planar flow decoder: invertibility, identity-at-init, ensembles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papnf import flow as F
from papnf import tensor as tz
from papnf.tensor import Tensor, grad_check


def make_layers(t_flow=3, d_h=6, d_u=4, hidden=5, seed=0, randomize=True):
    rng = np.random.default_rng(seed)
    layers = [F.FlowLayer(t, d_h, d_u, hidden, rng) for t in range(t_flow)]
    if randomize:
        # push the hypernets away from their zero init so steps do something
        for layer in layers:
            layer.U2.data = rng.normal(size=layer.U2.shape) * 0.7
            layer.c2.data = rng.normal(size=layer.c2.shape) * 0.5
    return layers


# -- reparameterization ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 30.0))
def test_reparameterized_dot_product_respects_floor(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=5) * scale
    w = rng.normal(size=5) * scale
    _, wa_hat = F.reparameterize_np(a, w)
    assert wa_hat >= -1.0 + 1e-4


def test_reparameterization_handles_anti_aligned_vectors():
    a = np.array([3.0, 0.0])
    w = -10.0 * a  # w.a = -90, far past where softplus alone underflows 1e-4
    _, wa_hat = F.reparameterize_np(a, w)
    assert wa_hat >= -1.0 + 1e-4


def test_zero_hypernet_output_leaves_latent_unchanged():
    u = np.array([0.3, -1.2, 0.8])
    out = F.planar_step_np(u, np.zeros(3), np.zeros(3), 0.0)
    np.testing.assert_allclose(out, u, atol=1e-12)


# -- identity at init --------------------------------------------------------------


def test_flow_is_exact_identity_with_zeroed_hypernet():
    layers = make_layers(randomize=False)
    for layer in layers:
        layer.c2.data = np.zeros_like(layer.c2.data)
    h = Tensor(np.random.default_rng(1).normal(size=(1, 6)))
    u0 = np.random.default_rng(2).normal(size=(7, 4))
    out = F.flow_forward(Tensor(u0), h, layers)
    np.testing.assert_array_equal(out.data, u0)


def test_freshly_built_flow_is_near_identity():
    # per-step displacement is bounded by ||w_hat||, which the bias init keeps small
    layers = make_layers(t_flow=1, randomize=False)
    h = np.random.default_rng(1).normal(size=(1, 6))
    a, w, b = layers[0].hyper_np(h)
    w_hat, _ = F.reparameterize_np(a, w)
    assert b == 0.0
    assert np.linalg.norm(w_hat) < 1.1
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.normal(size=4)
        out = F.planar_step_np(u, a, w, float(b))
        assert np.linalg.norm(out - u) <= np.linalg.norm(w_hat) + 1e-12


def test_latents_orthogonal_to_gate_direction_pass_through_at_init():
    layers = make_layers(t_flow=1, randomize=False)
    h = np.random.default_rng(3).normal(size=(1, 6))
    a, w, b = layers[0].hyper_np(h)
    u = np.array([1.0, -1.0, 2.0, -2.0])  # a is constant across entries, so a.u = 0
    assert abs(float(a @ u)) < 1e-12
    out = F.planar_step_np(u, a, w, float(b))
    np.testing.assert_allclose(out, u, atol=1e-12)


def test_gradients_reach_every_flow_parameter_at_default_init():
    # a fully zeroed final layer would be a stationary point forever; the
    # bias offset must free U2/c2 on step one, which in turn frees U1/c1
    layers = make_layers(t_flow=2, randomize=False)
    h = Tensor(np.random.default_rng(4).normal(size=(1, 6)), requires_grad=False)

    def run_backward():
        u0 = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
        F.flow_forward(u0, h, layers).abs().sum().backward()

    run_backward()
    for layer in layers:
        for name, p in layer.parameters().items():
            assert p.grad is not None, name
        assert np.abs(layer.U2.grad).max() > 0.0
        assert np.abs(layer.c2.grad).max() > 0.0
    # one gradient step on the final layers unblocks the first layers
    for layer in layers:
        layer.U2.data = layer.U2.data - 0.05 * layer.U2.grad
        layer.c2.data = layer.c2.data - 0.05 * layer.c2.grad
        for p in layer.parameters().values():
            p.zero_grad()
    run_backward()
    for layer in layers:
        assert np.abs(layer.U1.grad).max() > 0.0
        assert np.abs(layer.c1.grad).max() > 0.0


def test_randomized_flow_moves_latents_and_matches_numpy_mirror():
    layers = make_layers(seed=3)
    h_np = np.random.default_rng(4).normal(size=(1, 6))
    u0 = np.random.default_rng(5).normal(size=(3, 4))
    out = F.flow_forward(Tensor(u0), Tensor(h_np), layers).data
    assert np.abs(out - u0).max() > 1e-3
    for s in range(3):
        np.testing.assert_allclose(out[s], F.flow_forward_np(u0[s], h_np, layers), atol=1e-12)


def test_numpy_helpers_run_the_training_op(monkeypatch):
    # hyper_np, planar_step_np and flow_forward_np adapt the Tensor path: the
    # w_hat that reparameterize_np (and so the inversion) sees is the op's own
    layers = make_layers(seed=22)
    h = np.random.default_rng(23).normal(size=(1, 6))
    u = np.random.default_rng(24).normal(size=4)
    steps, kernels = [], []
    op, kernel = tz.planar_step, tz.planar_reparameterize

    def spy_step(*args):
        steps.append(args)
        return op(*args)

    def spy_kernel(*args):
        result = kernel(*args)
        kernels.append(result[-1])  # w_hat
        return result

    monkeypatch.setattr(tz, "planar_step", spy_step)
    monkeypatch.setattr(tz, "planar_reparameterize", spy_kernel)
    with_np = F.flow_forward_np(u, h, layers)
    assert len(steps) == len(layers)
    with_op = F.flow_forward(Tensor(u[None, :]), Tensor(h), layers).data[0]
    assert with_np.tobytes() == with_op.tobytes()

    a, w, b = layers[0].hyper_np(h)
    np.testing.assert_array_equal(
        np.concatenate([a, w, [b]]), layers[0].hyper_row(Tensor(h)).data[0]
    )
    del steps[:], kernels[:]
    F.planar_step_np(u, a, w, b)
    w_hat, _ = F.reparameterize_np(a, w)
    assert len(steps) == 1 and len(kernels) == 2
    assert kernels[0].reshape(-1).tobytes() == w_hat.tobytes()


# -- inversion ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_single_planar_map_inverts_to_1e8(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=4) * rng.uniform(0.1, 3.0)
    w = rng.normal(size=4) * rng.uniform(0.1, 3.0)
    b = float(rng.normal())
    u = rng.normal(size=4)
    u_prime = F.planar_step_np(u, a, w, b)
    back = F.invert_planar_np(u_prime, a, w, b)
    assert np.abs(back - u).max() < 1e-8


def test_inversion_survives_steep_cliff():
    # large positive w_hat.a makes g(s) a near-step cliff between flat
    # shoulders; the root solver must keep halving the bracket there
    rng = np.random.default_rng(42)
    for scale in (10.0, 30.0, 100.0):
        a = rng.normal(size=8) * scale
        w = a / (a @ a) * (scale * np.linalg.norm(a)) + rng.normal(size=8) * 0.1
        b = float(rng.normal() * 10.0)
        u = rng.normal(size=8) * 3.0
        u_prime = F.planar_step_np(u, a, w, b)
        back = F.invert_planar_np(u_prime, a, w, b)
        assert np.abs(back - u).max() < 1e-8


def test_full_flow_round_trip():
    layers = make_layers(t_flow=4, seed=6)
    h = np.random.default_rng(7).normal(size=(1, 6))
    rng = np.random.default_rng(8)
    for _ in range(20):
        u0 = rng.normal(size=4)
        u_final = F.flow_forward_np(u0, h, layers)
        np.testing.assert_allclose(F.flow_invert_np(u_final, h, layers), u0, atol=1e-8)


# -- log-det diagnostic --------------------------------------------------------------


def test_log_det_matches_numerical_jacobian():
    layers = make_layers(t_flow=2, d_u=3, seed=9)
    h = np.random.default_rng(10).normal(size=(1, 6))
    u0 = np.random.default_rng(11).normal(size=3)
    eps = 1e-6
    jac = np.zeros((3, 3))
    for j in range(3):
        up = u0.copy()
        up[j] += eps
        dn = u0.copy()
        dn[j] -= eps
        jac[:, j] = (F.flow_forward_np(up, h, layers) - F.flow_forward_np(dn, h, layers)) / (2 * eps)
    expected = np.log(abs(np.linalg.det(jac)))
    assert abs(F.flow_log_det_np(u0, h, layers) - expected) < 1e-6


def test_log_det_is_zero_when_hypernet_outputs_vanish():
    layers = make_layers(randomize=False)
    for layer in layers:
        layer.c2.data = np.zeros_like(layer.c2.data)
    h = np.zeros((1, 6))
    assert F.flow_log_det_np(np.ones(4), h, layers) == 0.0


# -- hypernet conditioning and gradients ----------------------------------------------


def test_different_h_produce_different_transport():
    layers = make_layers(seed=12)
    u0 = np.random.default_rng(13).normal(size=4)
    h1 = np.random.default_rng(14).normal(size=(1, 6))
    h2 = h1 + 1.0
    out1 = F.flow_forward_np(u0, h1, layers)
    out2 = F.flow_forward_np(u0, h2, layers)
    assert np.abs(out1 - out2).max() > 1e-4


def test_flow_path_grad_check():
    layers = make_layers(t_flow=2, d_h=4, d_u=3, hidden=4, seed=15)
    u0 = np.random.default_rng(16).normal(size=(2, 3))
    h_in = np.random.default_rng(17).normal(size=(1, 4))

    def fn(*params):
        return F.flow_forward(Tensor(u0), Tensor(h_in, requires_grad=True), layers).tanh().sum()

    params = [p for layer in layers for p in layer.parameters().values()]
    assert grad_check(fn, params) < 1e-5


def test_fusion_oracle_and_gradients():
    rng = np.random.default_rng(18)
    fusion = F.FusionLayer(d_n=5, d_c=3, d_h=4, rng=rng)
    z = rng.normal(size=(1, 5))
    c = rng.normal(size=(1, 3))
    h = fusion.fuse(Tensor(z), Tensor(c))
    expected = np.concatenate([z, c], axis=1) @ fusion.W_h.data.T + fusion.b_h.data
    np.testing.assert_allclose(h.data, expected, atol=1e-12)
    h.sum().backward()
    assert fusion.W_h.grad is not None and fusion.b_h.grad is not None


def test_reconstruction_head_shapes_and_grads():
    rng = np.random.default_rng(19)
    head = F.ReconstructionHead(d_u=3, d_h=4, hidden=6, out_dim=10, rng=rng)
    u = Tensor(rng.normal(size=(5, 3)))
    h = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    out = head.reconstruct(u, h)
    assert out.shape == (5, 10)
    out.sum().backward()
    assert head.G1.grad is not None and h.grad is not None


# -- sampling and ensembles -------------------------------------------------------------


def test_sample_base_moments():
    rng = np.random.default_rng(20)
    draws = np.stack([F.sample_base(rng, 8) for _ in range(10_000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.05
    assert np.abs(draws.std(axis=0) - 1.0).max() < 0.05


def test_ensemble_quantiles_are_monotone():
    rng = np.random.default_rng(21)
    ens = F.ForecastEnsemble(0, rng.normal(size=(40, 6, 2)))
    q = [ens.quantile(lvl) for lvl in (0.05, 0.25, 0.5, 0.75, 0.95)]
    for lo, hi in zip(q, q[1:]):
        assert (lo <= hi + 1e-12).all()
    med = ens.quantile(0.5)
    assert (med >= ens.samples.min(axis=0)).all() and (med <= ens.samples.max(axis=0)).all()


def test_ensemble_interval_bounds():
    rng = np.random.default_rng(22)
    ens = F.ForecastEnsemble(0, rng.normal(size=(100, 4, 1)))
    lo, hi = ens.interval(0.9)
    np.testing.assert_allclose(lo, ens.quantile(0.05), atol=0)
    np.testing.assert_allclose(hi, ens.quantile(0.95), atol=0)


def test_ensemble_requires_samples():
    with pytest.raises(ValueError):
        F.ForecastEnsemble(0, np.zeros((0, 4, 1)))
    with pytest.raises(ValueError):
        F.ForecastEnsemble(0, np.zeros((4, 1)))
