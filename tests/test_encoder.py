"""Encoding, patching, reprogramming and prefix prompting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papnf import encoder as enc
from papnf import tensor as tz
from papnf.tensor import ShapeError, grad_check


def make_parts(lookback=24, channels=2, patch_len=8, d_n=16, d=12, k=3, seed=0):
    rng = np.random.default_rng(seed)
    e = enc.NumericalEncoder(lookback, channels, patch_len, d_n, rng)
    r = enc.Reprogrammer(d_n, d, rng)
    p = enc.PrefixBank(k, d, rng)
    return e, r, p


def test_patch_count_even_division():
    assert enc.PatchConfig(96, 16).n_patches == 6


def test_patch_count_with_ragged_tail():
    assert enc.PatchConfig(100, 16).n_patches == 7


def test_patchify_round_trip():
    rng = np.random.default_rng(1)
    cfg = enc.PatchConfig(100, 16)
    x = rng.normal(size=(100, 3))
    patches = enc.patchify(x, cfg)
    assert patches.shape == (7, 48)
    # tail padding is zeros
    np.testing.assert_array_equal(patches[6, 4 * 3 :], np.zeros(12 * 3))
    np.testing.assert_array_equal(patches.reshape(-1, 3)[:100], x)


def test_patchify_rows_are_time_major():
    cfg = enc.PatchConfig(4, 2)
    x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
    patches = enc.patchify(x, cfg)
    np.testing.assert_array_equal(patches[0], [1, 10, 2, 20])
    np.testing.assert_array_equal(patches[1], [3, 30, 4, 40])


def test_patchify_wrong_length_is_error():
    with pytest.raises(ShapeError):
        enc.patchify(np.zeros((10, 2)), enc.PatchConfig(12, 4))


def test_encode_global_shape_and_affinity():
    e, _, _ = make_parts()
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=(24, 2))
    x2 = rng.normal(size=(24, 2))
    z = lambda x: e.encode_global(x).data
    assert z(x1).shape == (1, 16)
    # affine map: z(x1 + x2) = z(x1) + z(x2) - z(0)
    np.testing.assert_allclose(z(x1 + x2), z(x1) + z(x2) - z(np.zeros((24, 2))), atol=1e-10)


def test_encode_patches_shape():
    e, _, _ = make_parts()
    out = e.encode_patches(np.random.default_rng(3).normal(size=(24, 2)))
    assert out.shape == (3, 16)


def test_reprogram_width():
    e, r, _ = make_parts()
    tokens = r.reprogram(e.encode_patches(np.zeros((24, 2))))
    assert tokens.shape == (3, 12)


def test_build_llm_input_stacks_prefix_first():
    e, r, p = make_parts()
    tokens = r.reprogram(e.encode_patches(np.zeros((24, 2))))
    x_llm = enc.build_llm_input(p, tokens)
    assert x_llm.shape == (3 + 3, 12)
    np.testing.assert_array_equal(x_llm.data[:3], p.P.data)


def test_zero_prefix_passes_tokens_through():
    e, r, p = make_parts(k=0)
    tokens = r.reprogram(e.encode_patches(np.zeros((24, 2))))
    x_llm = enc.build_llm_input(p, tokens)
    assert x_llm is tokens
    assert "prefix.P" not in p.parameters()


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 12), lookback=st.integers(4, 64), patch_len=st.integers(1, 16))
def test_token_count_is_prefix_plus_patches(k, lookback, patch_len):
    if patch_len > lookback:
        patch_len = lookback
    e, r, p = make_parts(lookback=lookback, channels=1, patch_len=patch_len, k=k, d_n=8, d=6)
    tokens = r.reprogram(e.encode_patches(np.zeros((lookback, 1))))
    x_llm = enc.build_llm_input(p, tokens)
    assert x_llm.shape[0] == k + e.patch_cfg.n_patches


def test_gradients_reach_prefix_and_reprogramming():
    e, r, p = make_parts(seed=4)
    x = np.random.default_rng(5).normal(size=(24, 2))
    tokens = enc.build_llm_input(p, r.reprogram(e.encode_patches(x)))
    z = e.encode_global(x)
    loss = (tokens * tokens).sum() + (z * z).sum()
    loss.backward()
    for name, t in {**e.parameters(), **r.parameters(), **p.parameters()}.items():
        assert t.grad is not None, name
    assert np.abs(p.P.grad).sum() > 0


def test_encoder_path_grad_check():
    e, r, p = make_parts(lookback=8, channels=1, patch_len=4, d_n=5, d=4, k=2, seed=6)
    x = np.random.default_rng(7).normal(size=(8, 1))

    def fn(*params):
        tokens = enc.build_llm_input(p, r.reprogram(e.encode_patches(x)))
        return (tokens * tokens).sum()

    params = list({**e.parameters(), **r.parameters(), **p.parameters()}.values())
    assert grad_check(fn, params) < 1e-5
