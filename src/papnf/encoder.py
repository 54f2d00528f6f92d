"""Numerical embedding, reprogramming to backbone width, prefix prompting.

The look-back window is encoded twice: a single global vector from the whole
flattened window (fed to fusion downstream) and a per-patch token sequence
that, after reprogramming into the backbone's hidden width, sits behind K
trainable prefix rows as the backbone input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from papnf import tensor as tz
from papnf.tensor import Layer, ShapeError, Tensor, weight, zeros


@dataclass(frozen=True)
class PatchConfig:
    """Fixed-length patching along time; the ragged tail is zero-padded."""

    lookback: int
    patch_len: int

    def __post_init__(self):
        if self.lookback <= 0 or self.patch_len <= 0:
            raise ValueError("lookback and patch_len must be positive")
        if self.patch_len > self.lookback:
            raise ValueError(
                f"patch_len {self.patch_len} exceeds lookback {self.lookback}"
            )

    @property
    def n_patches(self) -> int:
        return math.ceil(self.lookback / self.patch_len)


def patchify(x_std: np.ndarray, cfg: PatchConfig) -> np.ndarray:
    """Cut a standardized (L, C) window into (M, patch_len*C) rows.

    Patch m covers rows [m*p, (m+1)*p), flattened row-major so channels stay
    interleaved per time step; a short final patch is zero-padded. A stack
    of windows (B, L, C) gives (B, M, patch_len*C).
    """
    x = np.asarray(x_std, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2] != cfg.lookback:
        raise ShapeError(f"expected ({cfg.lookback}, C) window, got {x.shape}")
    *windows, length, c = x.shape
    p, m = cfg.patch_len, cfg.n_patches
    padded = np.zeros((*windows, m * p, c))
    padded[..., :length, :] = x
    return padded.reshape(*windows, m, p * c)


class NumericalEncoder(Layer):
    """Two trainable affine encodings of one window.

    global path:  z = W @ flatten(x) + b              -> (1, d_n)
    patch path:   Z = patches @ W_patch^T + b_patch   -> (M, d_n)

    A stack of windows (B, L, C) gives (B, 1, d_n) and (B, M, d_n).
    """

    name = "encoder"

    def __init__(
        self, lookback: int, channels: int, patch_len: int, d_n: int, rng: np.random.Generator | None
    ):
        self.patch_cfg = PatchConfig(lookback, patch_len)
        self.W = weight(rng, (d_n, lookback * channels))
        self.b = weight(rng, (d_n,), zeros)
        self.W_patch = weight(rng, (d_n, patch_len * channels))
        self.b_patch = weight(rng, (d_n,), zeros)

    def encode_global(self, x_std: np.ndarray) -> Tensor:
        x = np.asarray(x_std, dtype=np.float64)
        flat = x.reshape(*x.shape[:-2], 1, -1)
        return tz.linear(Tensor(flat), self.W, self.b)

    def encode_patches(self, x_std: np.ndarray) -> Tensor:
        patches = patchify(x_std, self.patch_cfg)
        return tz.linear(Tensor(patches), self.W_patch, self.b_patch)


class Reprogrammer(Layer):
    """Affine map from numeric embedding width d_n to backbone width d."""

    name = "reprogram"

    def __init__(self, d_n: int, d: int, rng: np.random.Generator | None):
        self.W_p = weight(rng, (d, d_n))
        self.b_p = weight(rng, (d,), zeros)

    def reprogram(self, z_rows: Tensor) -> Tensor:
        return tz.linear(z_rows, self.W_p, self.b_p)


class PrefixBank(Layer):
    """K trainable rows prepended to the reprogrammed patch tokens; no weight at K=0."""

    name = "prefix"

    def __init__(self, k: int, d: int, rng: np.random.Generator | None):
        self.P = weight(rng, (k, d), lambda rng, shape: rng.normal(size=shape) * 0.02) if k else None


def build_llm_input(prefix: PrefixBank, e_rep: Tensor) -> Tensor:
    """Stack [P; E_rep] into the (K+M, d) backbone input; P broadcasts over windows."""
    if prefix.P is None:
        return e_rep
    return tz.concat_rows([prefix.P, e_rep])
