"""Frozen transformer backbone and the pooled context projection.

A small pre-norm, causal, decoder-style transformer stands in for the large
language model whose token space the numerical tokens are reprogrammed into.
Its parameters never require gradients outside of pretraining; gradients still
flow THROUGH it into the prefix and the reprogramming layer.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from papnf import tensor as tz
from papnf.checkpoint import CheckpointError, read_container, write_container
from papnf.config import ConfigError, DictConfig
from papnf.seeding import substream
from papnf.tensor import ShapeError, Tensor

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


class TransformerBackbone:
    """Pre-norm causal transformer with learned absolute positions.

    Construction freezes every parameter unless ``trainable`` is set (used
    only while pretraining); ``freeze`` flips a trainable instance back into
    the frozen contract.
    """

    def __init__(
        self,
        arch: BackboneArch,
        seed: int = 0,
        kind: str = "frozen_random",
        trainable: bool = False,
        weights: dict[str, np.ndarray] | None = None,
    ):
        if kind not in BACKBONE_KINDS:
            raise ValueError(f"unsupported transformer kind {kind!r}")
        self.arch = arch
        self.kind = kind
        self.params: dict[str, Tensor] = {}
        if weights is not None:
            for name, arr in weights.items():
                self.params[name] = Tensor(arr.copy(), requires_grad=trainable)
            self._check_weights()
        else:
            self._init_params(substream(seed, "backbone"), trainable)

    def _expected_shapes(self) -> dict[str, tuple[int, ...]]:
        a = self.arch
        square, vector = (a.d, a.d), (a.d,)
        layer = (square,) * 4 + (vector,) * 4 + ((a.d, a.ffn_width), (a.ffn_width, a.d))
        shapes = {"pos": (a.max_len, a.d), "ln_f_g": vector, "ln_f_b": vector}
        for i in range(a.n_layers):
            shapes.update({f"layers.{i}.{n}": s for n, s in zip(_LAYER_PARAMS, layer)})
        return shapes

    def _check_weights(self):
        expected = self._expected_shapes()
        missing = set(expected) - set(self.params)
        extra = set(self.params) - set(expected)
        shapes = sorted(n for n in expected.keys() - missing if self.params[n].shape != expected[n])
        if missing or extra or shapes:
            raise CheckpointError(
                f"backbone weights do not match architecture (missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}, wrong shape {shapes})"
            )

    def _init_params(self, rng: np.random.Generator, trainable: bool):
        a = self.arch
        scale = 1.0 / math.sqrt(a.d)

        def mk(name, arr):
            self.params[name] = Tensor(arr, requires_grad=trainable)

        mk("pos", rng.normal(size=(a.max_len, a.d)) * 0.02)
        for i in range(a.n_layers):
            for w in ("Wq", "Wk", "Wv", "Wo"):
                mk(f"layers.{i}.{w}", rng.normal(size=(a.d, a.d)) * scale)
            mk(f"layers.{i}.ln1_g", np.ones(a.d))
            mk(f"layers.{i}.ln1_b", np.zeros(a.d))
            mk(f"layers.{i}.ln2_g", np.ones(a.d))
            mk(f"layers.{i}.ln2_b", np.zeros(a.d))
            mk(f"layers.{i}.W1", rng.normal(size=(a.d, a.ffn_width)) * scale)
            mk(f"layers.{i}.W2", rng.normal(size=(a.ffn_width, a.d)) / math.sqrt(a.ffn_width))
        mk("ln_f_g", np.ones(a.d))
        mk("ln_f_b", np.zeros(a.d))

    # -- contract helpers ---------------------------------------------------

    def freeze(self) -> None:
        for t in self.params.values():
            t.requires_grad = False
            t.grad = None

    @property
    def frozen(self) -> bool:
        return not any(t.requires_grad for t in self.params.values())

    def weights(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def tensors(self) -> dict[str, Tensor]:
        return dict(self.params)

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
        """(N, d) tokens in, (N, d) hidden states out; causal within N."""
        a = self.arch
        if x.data.ndim != 2 or x.shape[1] != a.d:
            raise ShapeError(f"backbone expects (N, {a.d}) input, got {x.shape}")
        n = x.shape[0]
        if n > a.max_len:
            raise ShapeError(f"sequence length {n} exceeds max_len {a.max_len}")
        if a.n_layers == 0:
            return x
        p = self.params
        h = x + p["pos"][0:n, :]
        for i in range(a.n_layers):
            layer = {name: p[f"layers.{i}.{name}"] for name in _LAYER_PARAMS}
            att_in = tz.layernorm_affine(h, layer["ln1_g"], layer["ln1_b"])
            h = h + tz.causal_attention(
                att_in, layer["Wq"], layer["Wk"], layer["Wv"], layer["Wo"], a.n_heads
            )
            ff_in = tz.layernorm_affine(h, layer["ln2_g"], layer["ln2_b"])
            h = h + (ff_in @ layer["W1"]).tanh() @ layer["W2"]
        return tz.layernorm_affine(h, p["ln_f_g"], p["ln_f_b"])

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        header = {"kind": "backbone", "version": 1, "arch": self.arch.to_dict()}
        write_container(path, header, self.weights())


def load_frozen_checkpoint(path: str, expected: BackboneArch | None = None) -> TransformerBackbone:
    """Load a pretrained backbone and freeze it; validates the arch header."""
    header, weights = read_container(path)
    if header.get("kind") != "backbone":
        raise CheckpointError(f"{path}: not a backbone checkpoint (kind={header.get('kind')!r})")
    try:
        arch = BackboneArch.from_dict(header.get("arch"), "arch")
    except ConfigError as err:
        raise CheckpointError(f"{path}: bad header: {err}") from None
    if expected is not None and arch != expected:
        raise CheckpointError(
            f"{path}: architecture mismatch: checkpoint has {arch.to_dict()}, "
            f"config expects {expected.to_dict()}"
        )
    return TransformerBackbone(arch, kind="frozen_checkpoint", trainable=False, weights=weights)


def build_backbone(
    arch: BackboneArch,
    kind: str,
    seed: int = 0,
    checkpoint_path: str | None = None,
):
    """Construct the backbone named by ``kind``; TransformerBackbone rejects unknown kinds."""
    if kind == "frozen_checkpoint":
        if not checkpoint_path:
            raise ValueError("frozen_checkpoint backbone needs a checkpoint path")
        return load_frozen_checkpoint(checkpoint_path, expected=arch)
    return TransformerBackbone(arch, seed=seed, kind=kind)


class ContextProjector:
    """Projects each hidden row to context width and mean-pools over positions."""

    def __init__(self, d: int, d_c: int, rng: np.random.Generator):
        self.W_c = Tensor(rng.normal(size=(d_c, d)) / math.sqrt(d), requires_grad=True)
        self.b_c = Tensor(np.zeros(d_c), requires_grad=True)

    def project_rows(self, h_rows: Tensor) -> Tensor:
        if h_rows.shape[1] != self.W_c.shape[1]:
            raise ShapeError(
                f"context projector expects rows of width {self.W_c.shape[1]}, got {h_rows.shape}"
            )
        return tz.linear(h_rows, self.W_c, self.b_c)

    def parameters(self) -> dict[str, Tensor]:
        return {"context.W_c": self.W_c, "context.b_c": self.b_c}


def extract_context(h_rows: Tensor, projector: ContextProjector) -> Tensor:
    """c = mean over all N positions of the projected hidden rows: (1, d_c)."""
    if h_rows.shape[0] < 1:
        raise ShapeError("extract_context needs at least one hidden row")
    return tz.mean_rows(projector.project_rows(h_rows))
