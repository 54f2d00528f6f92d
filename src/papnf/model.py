"""The assembled forecaster: encoder, prefix, frozen backbone, flow decoder."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from papnf.backbone import (
    BACKBONE_KINDS,
    BackboneArch,
    ContextProjector,
    TransformerBackbone,
    extract_context,
    load_frozen_checkpoint,
)
from papnf.checkpoint import load_weights
from papnf.config import DictConfig
from papnf.encoder import NumericalEncoder, PatchConfig, PrefixBank, Reprogrammer, build_llm_input
from papnf.flow import FlowLayer, FusionLayer, ReconstructionHead, flow_forward
from papnf.seeding import derive_seed, substream
from papnf.tensor import ShapeError, Tensor


@dataclass(frozen=True)
class ModelConfig(DictConfig):
    """Dimensions and switches for one forecaster instance."""

    lookback: int
    horizon: int
    channels: int
    patch_len: int = 16
    d_n: int = 128
    d_c: int = 64
    d_h: int = 128
    d_u: int = 32
    t_flow: int = 4
    k_prefix: int = 5
    recon_hidden: int = 256
    hyper_hidden: int = 64
    backbone: BackboneArch = field(default_factory=BackboneArch)
    backbone_kind: str = "frozen_random"
    backbone_checkpoint: str | None = None
    no_global_context: bool = False

    def __post_init__(self):
        if isinstance(self.backbone, dict):
            object.__setattr__(self, "backbone", BackboneArch.from_dict(self.backbone, "backbone"))
        if self.lookback <= 0 or self.horizon <= 0 or self.channels <= 0:
            raise ValueError("lookback, horizon and channels must be positive")
        PatchConfig(self.lookback, self.patch_len)  # patch_len within [1, lookback]
        if min(self.d_n, self.d_c, self.d_h, self.d_u, self.recon_hidden, self.hyper_hidden) < 1:
            raise ValueError("d_n, d_c, d_h, d_u, recon_hidden and hyper_hidden must be >= 1")
        if self.k_prefix < 0:
            raise ValueError("k_prefix must be >= 0")
        if self.t_flow < 0:
            raise ValueError("t_flow must be >= 0")
        if self.backbone_kind not in BACKBONE_KINDS:
            raise ValueError(
                f"unknown backbone kind {self.backbone_kind!r}; choose one of {BACKBONE_KINDS}"
            )
        if self.n_tokens > self.backbone.max_len:
            raise ValueError(
                f"K+M = {self.n_tokens} tokens exceed backbone max_len {self.backbone.max_len}"
            )

    @property
    def n_patches(self) -> int:
        return PatchConfig(self.lookback, self.patch_len).n_patches

    @property
    def n_tokens(self) -> int:
        return self.k_prefix + self.n_patches


class PapNfModel:
    """Prefix-prompted frozen-backbone encoder + conditional flow decoder.

    Per window: the standardized look-back is encoded globally (z) and per
    patch; patch embeddings are reprogrammed to backbone width, prepended
    with K prefix rows, run through the frozen backbone and mean-pooled into
    a context c; h = fuse(z, c) conditions the planar flow and the
    reconstruction head that maps sampled latents to horizon trajectories.

    The forward pass also takes a stack of windows, recording a graph or not:
    look-backs (B, L, C) and latents (B, S, d_u) give (B, S, H*C) rows, each
    window's bitwise those of its own pass, and so are its gradients.

    The weights are drawn from ``seed``, on ``backbone`` or the one ``cfg``
    names, or loaded from a stored set ``weights`` that holds the backbone's
    too: a load draws nothing, reads no backbone file and checks every name.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, backbone=None, weights=None):
        if backbone is not None and weights is not None:
            raise ValueError("stored weights hold the backbone's; pass backbone or weights")
        self.cfg = cfg
        d = cfg.backbone.d

        def init(*label):  # a layer's seeded generator, or None to leave it for the load
            return None if weights is not None else substream(seed, "init", *label)

        self.encoder = NumericalEncoder(
            cfg.lookback, cfg.channels, cfg.patch_len, cfg.d_n, init("encoder")
        )
        self.reprogrammer = Reprogrammer(cfg.d_n, d, init("reprogram"))
        self.prefix = PrefixBank(cfg.k_prefix, d, init("prefix"))
        if weights is not None:
            backbone = TransformerBackbone(cfg.backbone, seed=None)
        elif backbone is None and cfg.backbone_kind == "frozen_checkpoint":
            if not cfg.backbone_checkpoint:
                raise ValueError("frozen_checkpoint backbone needs a checkpoint path")
            backbone = load_frozen_checkpoint(cfg.backbone_checkpoint, expected=cfg.backbone)
        elif backbone is None:
            backbone = TransformerBackbone(cfg.backbone, seed=derive_seed(seed, "backbone"))
        self.backbone = backbone
        self.ctx_proj = ContextProjector(d, cfg.d_c, init("context"))
        self.fusion = FusionLayer(cfg.d_n, cfg.d_c, cfg.d_h, init("fusion"))
        self.flow_layers = [
            FlowLayer(t, cfg.d_h, cfg.d_u, cfg.hyper_hidden, init("flow", t))
            for t in range(cfg.t_flow)
        ]
        self.recon = ReconstructionHead(
            cfg.d_u, cfg.d_h, cfg.recon_hidden, cfg.horizon * cfg.channels, init("recon")
        )
        if weights is not None:
            self.load_weights(weights)

    # -- forward ------------------------------------------------------------

    def condition(self, x_std: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        """Run the conditioning pass once: returns (z, c, h)."""
        z = self.encoder.encode_global(x_std)
        if self.cfg.no_global_context:  # c is zeros; the backbone path would go unused
            c = Tensor(np.zeros((*z.shape[:-1], self.cfg.d_c)))
        else:
            e_rep = self.reprogrammer.reprogram(self.encoder.encode_patches(x_std))
            hidden = self.backbone.forward(build_llm_input(self.prefix, e_rep))
            c = extract_context(hidden, self.ctx_proj)
        h = self.fusion.fuse(z, c)
        return z, c, h

    def decode(self, h: Tensor, u0: np.ndarray) -> Tensor:
        """Transport latents (S, d_u) and reconstruct (S, H*C) rows."""
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.ndim not in (2, 3) or u0.shape[-1] != self.cfg.d_u:
            raise ShapeError(f"latents must be (S, {self.cfg.d_u}), got {u0.shape}")
        u_final = flow_forward(Tensor(u0), h, self.flow_layers)
        return self.recon.reconstruct(u_final, h)

    def forward_samples(self, x_std: np.ndarray, u0: np.ndarray) -> Tensor:
        """Full pass: conditioning plus decoding of the given latents."""
        _, _, h = self.condition(x_std)
        return self.decode(h, u0)

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors only; the frozen backbone never appears here."""
        layers = (self.encoder, self.reprogrammer, self.prefix, self.ctx_proj, self.fusion,
                  *self.flow_layers, self.recon)
        return {name: t for layer in layers for name, t in layer.parameters().items()}

    def census(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape for every trainable parameter."""
        return {name: tuple(t.shape) for name, t in sorted(self.parameters().items())}

    def tensors(self) -> dict[str, Tensor]:
        """Every model tensor by name: the trainable ones, then ``backbone.<name>`` ones."""
        backbone = {f"backbone.{name}": t for name, t in self.backbone.params.items()}
        return {**self.parameters(), **backbone}

    def all_weights(self) -> dict[str, np.ndarray]:
        """A copy of every model tensor's values, by name."""
        return {name: t.data.copy() for name, t in self.tensors().items()}

    def load_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Assign stored values into every model tensor by name, all or none."""
        load_weights(self.tensors(), weights, "model weights")


# The arms ``papnf ablate`` trains, in its table's order.
ABLATION_ARMS = ("full", "no_pap", "random_backbone", "no_global_context")


def ablation_variant(cfg: ModelConfig, arm: str) -> ModelConfig:
    """Derive the config for one ablation arm from the full config."""
    if arm == "full":
        return cfg
    if arm == "no_pap":  # no prefix rows, and the identity stack in place of the backbone
        bare = ablation_variant(cfg, "random_backbone")
        return replace(bare, k_prefix=0, backbone=replace(cfg.backbone, n_layers=0))
    if arm == "random_backbone":
        return replace(cfg, backbone_kind="frozen_random", backbone_checkpoint=None)
    if arm == "no_global_context":
        return replace(cfg, no_global_context=True)
    raise ValueError(f"unknown ablation arm {arm!r}")
