"""Frozen transformer backbone and the pooled context projection.

A small pre-norm, causal, decoder-style transformer stands in for the large
language model whose token space the numerical tokens are reprogrammed into.
Its parameters never require gradients outside of pretraining; gradients still
flow THROUGH it into the prefix and the reprogramming layer.

The whole stack runs as one graph node, ``tz.transformer``, over each
layer's weights in ``_LAYER_PARAMS`` order, listed once at construction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from papnf import tensor as tz
from papnf.checkpoint import CheckpointError, check_header, load_weights
from papnf.checkpoint import read_container, write_container
from papnf.config import DictConfig
from papnf.seeding import substream
from papnf.tensor import Layer, ShapeError, Tensor, weight, zeros

BACKBONE_KINDS = ("frozen_random", "frozen_checkpoint")
_LAYER_PARAMS = ("Wq", "Wk", "Wv", "Wo", "ln1_g", "ln1_b", "ln2_g", "ln2_b", "W1", "W2")


@dataclass(frozen=True)
class BackboneArch(DictConfig):
    """Architecture of the desk-scale backbone; ``n_layers=0`` is the identity stack."""

    n_layers: int = 2
    n_heads: int = 4
    d: int = 64
    ffn_width: int = 256
    max_len: int = 64

    def __post_init__(self):
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if min(self.n_heads, self.d, self.ffn_width, self.max_len) < 1:
            raise ValueError("n_heads, d, ffn_width and max_len must be >= 1")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")


def _draw(name: str):
    """The draw of one backbone weight; a matrix's fan-in is its first dimension."""
    if name == "pos":
        return lambda rng, shape: rng.normal(size=shape) * 0.02
    if name.endswith("_g"):
        return lambda rng, shape: np.ones(shape)
    if name.endswith("_b"):
        return zeros
    if name.endswith(".W2"):
        return lambda rng, shape: rng.normal(size=shape) / math.sqrt(shape[0])
    return lambda rng, shape: rng.normal(size=shape) * (1.0 / math.sqrt(shape[0]))


class TransformerBackbone:
    """Pre-norm causal transformer with learned absolute positions.

    Construction freezes every parameter unless ``trainable`` is set (used
    only while pretraining); ``freeze`` flips a trainable instance back into
    the frozen contract. ``seed=None`` leaves every weight unset, for the
    load that follows in ``load_frozen_checkpoint`` or ``PapNfModel``.
    """

    def __init__(self, arch: BackboneArch, seed: int | None = 0, trainable: bool = False):
        self.arch = a = arch
        square, vector = (a.d, a.d), (a.d,)
        layer = (square,) * 4 + (vector,) * 4 + ((a.d, a.ffn_width), (a.ffn_width, a.d))
        shapes = {"pos": (a.max_len, a.d), "ln_f_g": vector, "ln_f_b": vector}  # in draw order
        for i in range(a.n_layers):
            shapes.update({f"layers.{i}.{n}": s for n, s in zip(_LAYER_PARAMS, layer)})
        rng = None if seed is None else substream(seed, "backbone")
        self.params = {name: weight(rng, shape, _draw(name)) for name, shape in shapes.items()}
        # a load assigns .data into these same tensors, so the lists stay valid
        self.blocks = [
            tuple(self.params[f"layers.{i}.{n}"] for n in _LAYER_PARAMS) for i in range(a.n_layers)
        ]
        if not trainable:
            self.freeze()

    # -- contract helpers ---------------------------------------------------

    def freeze(self) -> None:
        for t in self.params.values():
            t.requires_grad = False
            t.grad = None

    @property
    def frozen(self) -> bool:
        return not any(t.requires_grad for t in self.params.values())

    def weight_hash(self) -> str:
        """SHA-256 over (name, shape, raw bytes) in sorted name order."""
        h = hashlib.sha256()
        for name in sorted(self.params):
            arr = np.ascontiguousarray(self.params[name].data, dtype="<f8")
            h.update(name.encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    # -- forward ------------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        """(N, d) tokens in, (N, d) hidden states out; causal within N.

        A stack of windows (B, N, d) runs as one pass.
        """
        a = self.arch
        if x.data.ndim not in (2, 3) or x.shape[-1] != a.d:
            raise ShapeError(f"backbone expects (N, {a.d}) input, got {x.shape}")
        n = x.shape[-2]
        if n > a.max_len:
            raise ShapeError(f"sequence length {n} exceeds max_len {a.max_len}")
        if a.n_layers == 0:
            return x
        final = (self.params["ln_f_g"], self.params["ln_f_b"])
        return tz.transformer(x, self.params["pos"], self.blocks, final, a.n_heads)

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        weights = {name: t.data for name, t in self.params.items()}
        write_container(path, _Header(self.arch).to_dict(), weights)


@dataclass(frozen=True)
class _Header(DictConfig):
    """JSON header of a backbone checkpoint, checked field by field on load."""

    arch: BackboneArch
    version: int = 1
    kind: str = "backbone"


def load_frozen_checkpoint(path: str, expected: BackboneArch) -> TransformerBackbone:
    """Load a pretrained backbone and freeze it; its arch header must be ``expected``."""
    header, weights = read_container(path)
    arch = check_header(path, header, _Header).arch
    if arch != expected:
        raise CheckpointError(
            f"{path}: architecture mismatch: checkpoint has {arch.to_dict()}, "
            f"config expects {expected.to_dict()}"
        )
    backbone = TransformerBackbone(arch, seed=None)
    load_weights(backbone.params, weights, f"{path}: backbone weights")
    return backbone


class ContextProjector(Layer):
    """Projects each hidden row to context width and mean-pools over positions."""

    name = "context"

    def __init__(self, d: int, d_c: int, rng: np.random.Generator | None):
        self.W_c = weight(rng, (d_c, d))
        self.b_c = weight(rng, (d_c,), zeros)


def extract_context(h_rows: Tensor, projector: ContextProjector) -> Tensor:
    """c = mean over all N positions of the projected hidden rows: (1, d_c)."""
    return tz.mean_rows(tz.linear(h_rows, projector.W_c, projector.b_c))
