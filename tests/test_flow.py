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


def packed(a, w, b):
    """The packed (1, 2d + 1) row [a | w | b] of a planar map."""
    return np.concatenate([np.ravel(a), np.ravel(w), [b]])[None, :]


def step(u, theta):
    """The planar map u + tanh(u.a + b) w_hat on latent rows u (S, d), or (B, S, d).

    w_hat = w + (m - w.a) a / (|a|^2 + eps) with m = softplus(w.a) + margin - 1,
    for theta the packed row [a | w | b], or (B, 1, 2d + 1) rows.
    """
    d = u.shape[-1]
    a, w, b = theta[..., :d], theta[..., d : 2 * d], theta[..., 2 * d :]
    wa = np.sum(w * a, axis=-1, keepdims=True)
    m = np.logaddexp(0.0, wa) + tz.PLANAR_MARGIN - 1.0
    w_hat = w + (m - wa) / (np.sum(a * a, axis=-1, keepdims=True) + tz._NORM_EPS) * a
    return u + np.tanh(np.sum(u * a, axis=-1, keepdims=True) + b) * w_hat


def forward(u, h, layers):
    """``flow_forward`` on numpy latents and h, recording no graph."""
    with tz.no_grad():
        return F.flow_forward(Tensor(u), Tensor(h), layers).data


# -- reparameterization ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 30.0))
def test_reparameterized_dot_product_respects_floor(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=5) * scale
    w = rng.normal(size=5) * scale
    assert tz.planar_unpack(packed(a, w, 0.0)).wa_hat.item() >= -1.0 + 1e-4


def test_reparameterization_handles_anti_aligned_vectors():
    a = np.array([3.0, 0.0])
    w = -10.0 * a  # w.a = -90, far past where softplus alone underflows 1e-4
    assert tz.planar_unpack(packed(a, w, 0.0)).wa_hat.item() >= -1.0 + 1e-4


def test_zero_hypernet_output_leaves_latent_unchanged():
    u = np.array([[0.3, -1.2, 0.8]])
    out = step(u, np.zeros((1, 7)))
    np.testing.assert_allclose(out, u, atol=1e-12)


def test_planar_step_and_both_diagnostics_unpack_through_one_function(monkeypatch):
    layers = make_layers(t_flow=2, seed=22)
    h = np.random.default_rng(23).normal(size=(1, 6))
    u = np.random.default_rng(24).normal(size=(3, 4))
    calls = []
    real_unpack = tz.planar_unpack

    def spy(*args):
        calls.append(args[0].shape)
        return real_unpack(*args)

    monkeypatch.setattr(tz, "planar_unpack", spy)
    u_final = forward(u, h, layers)
    F.flow_invert(u_final, h, layers)
    F.flow_log_det(u, h, layers)
    assert calls == [(1, 9)] * 6


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
    theta = layers[0].theta(np.random.default_rng(1).normal(size=(1, 6)))
    p = tz.planar_unpack(theta)
    assert p.b.item() == 0.0
    w_hat_norm = np.linalg.norm(p.w_hat)
    assert w_hat_norm < 1.1
    u = np.random.default_rng(2).normal(size=(20, 4))
    moved = np.linalg.norm(step(u, theta) - u, axis=1)
    assert (moved <= w_hat_norm + 1e-12).all()


def test_latents_orthogonal_to_gate_direction_pass_through_at_init():
    layers = make_layers(t_flow=1, randomize=False)
    theta = layers[0].theta(np.random.default_rng(3).normal(size=(1, 6)))
    u = np.array([[1.0, -1.0, 2.0, -2.0]])  # a is constant across entries, so a.u = 0
    assert abs((u @ tz.planar_unpack(theta).a.T).item()) < 1e-12
    np.testing.assert_allclose(step(u, theta), u, atol=1e-12)


def test_gradients_reach_every_flow_parameter_at_default_init():
    # a fully zeroed final layer would be a stationary point forever; the
    # bias offset must free U2/c2 on step one, which in turn frees U1/c1
    layers = make_layers(t_flow=2, randomize=False)
    h = Tensor(np.random.default_rng(4).normal(size=(1, 6)), requires_grad=False)

    def run_backward():
        u0 = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
        out = F.flow_forward(u0, h, layers)
        (out * out).sum().backward()

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


# -- inversion ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_single_planar_map_inverts_to_1e8(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=4) * rng.uniform(0.1, 3.0)
    w = rng.normal(size=4) * rng.uniform(0.1, 3.0)
    theta = packed(a, w, float(rng.normal()))
    u = rng.normal(size=(1, 4))
    back = F.invert_planar(step(u, theta), theta)
    assert np.abs(back - u).max() < 1e-8


def test_inversion_survives_steep_cliff():
    # large positive w_hat.a makes g(s) a near-step cliff between flat
    # shoulders; the root solver must keep halving the bracket there
    rng = np.random.default_rng(42)
    for scale in (10.0, 30.0, 100.0):
        a = rng.normal(size=8) * scale
        w = a / (a @ a) * (scale * np.linalg.norm(a)) + rng.normal(size=8) * 0.1
        theta = packed(a, w, float(rng.normal() * 10.0))
        u = rng.normal(size=(1, 8)) * 3.0
        back = F.invert_planar(step(u, theta), theta)
        assert np.abs(back - u).max() < 1e-8


def test_each_row_inverts_bitwise_as_it_would_alone():
    # a row is frozen once its bracket has converged, so rows that need many
    # iterations (steep cliffs) do not move the rows that need few
    rng = np.random.default_rng(43)
    thetas = []
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-1.0, 2.0)
        a = rng.normal(size=8) * scale
        w = a / (a @ a) * (scale * np.linalg.norm(a)) * rng.choice([1.0, -0.5])
        thetas.append(packed(a, w + rng.normal(size=8) * 0.1, float(rng.normal() * 3.0)))
    thetas = np.stack(thetas)  # (200, 1, 17): one map and one row per window
    u = rng.normal(size=(200, 1, 8)) * 3.0
    back = F.invert_planar(step(u, thetas), thetas)
    assert np.abs(back - u).max() < 1e-8
    for i in range(200):
        alone = F.invert_planar(step(u[i], thetas[i]), thetas[i])
        assert back[i].tobytes() == alone.tobytes()


def test_full_flow_round_trip():
    layers = make_layers(t_flow=4, seed=6)
    h = np.random.default_rng(7).normal(size=(1, 6))
    u0 = np.random.default_rng(8).normal(size=(20, 4))
    u_final = forward(u0, h, layers)
    assert np.abs(u_final - u0).max() > 1e-3  # the randomized flow really moves latents
    np.testing.assert_allclose(F.flow_invert(u_final, h, layers), u0, atol=1e-8)
    # with a window axis: (B, S, d_u) latents, one h row per window
    hs = np.random.default_rng(9).normal(size=(5, 1, 6))
    u0 = np.random.default_rng(10).normal(size=(5, 7, 4))
    np.testing.assert_allclose(F.flow_invert(forward(u0, hs, layers), hs, layers), u0, atol=1e-8)


def test_window_axis_diagnostics_are_bitwise_the_per_window_calls():
    layers = make_layers(t_flow=3, seed=25)
    hs = np.random.default_rng(26).normal(size=(4, 1, 6))
    u = np.random.default_rng(27).normal(size=(4, 5, 4))
    inverted = F.flow_invert(u, hs, layers)
    log_det = F.flow_log_det(u, hs, layers)
    assert inverted.shape == u.shape and log_det.shape == (4, 5)
    for i in range(4):
        assert inverted[i].tobytes() == F.flow_invert(u[i], hs[i], layers).tobytes()
        assert log_det[i].tobytes() == F.flow_log_det(u[i], hs[i], layers).tobytes()


# -- log-det diagnostic --------------------------------------------------------------


def test_log_det_matches_numerical_jacobian():
    layers = make_layers(t_flow=2, d_u=3, seed=9)
    h = np.random.default_rng(10).normal(size=(1, 6))
    u0 = np.random.default_rng(11).normal(size=(6, 3))
    eps = 1e-6
    jac = np.zeros((6, 3, 3))
    for j in range(3):
        up = u0.copy()
        up[:, j] += eps
        dn = u0.copy()
        dn[:, j] -= eps
        jac[:, :, j] = (forward(up, h, layers) - forward(dn, h, layers)) / (2 * eps)
    expected = np.log(np.abs(np.linalg.det(jac)))
    log_det = F.flow_log_det(u0, h, layers)
    assert log_det.shape == (6,)
    assert np.abs(log_det - expected).max() < 1e-6


def test_log_det_is_zero_when_hypernet_outputs_vanish():
    layers = make_layers(randomize=False)
    for layer in layers:
        layer.c2.data = np.zeros_like(layer.c2.data)
    h = np.zeros((1, 6))
    u = np.random.default_rng(12).normal(size=(3, 4))
    u[0] = 1.0
    assert (F.flow_log_det(u, h, layers) == 0.0).all()


# -- hypernet conditioning and gradients ----------------------------------------------


def test_different_h_produce_different_transport():
    layers = make_layers(seed=12)
    u0 = np.random.default_rng(13).normal(size=(1, 4))
    h1 = np.random.default_rng(14).normal(size=(1, 6))
    h2 = h1 + 1.0
    out1 = forward(u0, h1, layers)
    out2 = forward(u0, h2, layers)
    assert np.abs(out1 - out2).max() > 1e-4


def test_flow_path_grad_check():
    layers = make_layers(t_flow=2, d_h=4, d_u=3, hidden=4, seed=15)
    u0 = np.random.default_rng(16).normal(size=(2, 3))
    h_in = np.random.default_rng(17).normal(size=(1, 4))

    def fn(*params):
        out = F.flow_forward(Tensor(u0), Tensor(h_in, requires_grad=True), layers)
        return (out * out).sum()

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


def test_ensemble_quantiles_are_monotone():
    rng = np.random.default_rng(21)
    ens = F.ForecastEnsemble(0, rng.normal(size=(40, 6, 2)))
    q = ens.quantiles((0.05, 0.25, 0.5, 0.75, 0.95))
    for lo, hi in zip(q, q[1:]):
        assert (lo <= hi + 1e-12).all()
    med = q[2]
    assert (med >= ens.samples.min(axis=0)).all() and (med <= ens.samples.max(axis=0)).all()


def test_ensemble_interval_bounds():
    rng = np.random.default_rng(22)
    ens = F.ForecastEnsemble(0, rng.normal(size=(100, 4, 1)))
    alpha = (1.0 - 0.9) / 2.0  # the central 90% interval's lower level
    lo, hi = ens.quantiles((alpha, 1.0 - alpha))
    np.testing.assert_allclose(lo, ens.quantiles((0.05,))[0], atol=0)
    np.testing.assert_allclose(hi, ens.quantiles((0.95,))[0], atol=0)


def test_ensemble_requires_samples():
    with pytest.raises(ValueError):
        F.ForecastEnsemble(0, np.zeros((0, 4, 1)))
    with pytest.raises(ValueError):
        F.ForecastEnsemble(0, np.zeros((4, 1)))
