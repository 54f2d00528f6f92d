"""The assembled forecaster: encoder, prefix, frozen backbone, flow decoder."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from papnf.backbone import (
    BACKBONE_KINDS,
    BackboneArch,
    ContextProjector,
    build_backbone,
    extract_context,
)
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
        return -(-self.lookback // self.patch_len)

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
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, backbone=None):
        self.cfg = cfg
        self.seed = seed
        d = cfg.backbone.d
        self.encoder = NumericalEncoder(
            cfg.lookback, cfg.channels, cfg.patch_len, cfg.d_n, substream(seed, "init", "encoder")
        )
        self.reprogrammer = Reprogrammer(cfg.d_n, d, substream(seed, "init", "reprogram"))
        self.prefix = PrefixBank(cfg.k_prefix, d, substream(seed, "init", "prefix"))
        if backbone is not None:
            self.backbone = backbone
        else:
            self.backbone = build_backbone(
                cfg.backbone,
                cfg.backbone_kind,
                seed=derive_seed(seed, "backbone"),
                checkpoint_path=cfg.backbone_checkpoint,
            )
        self.ctx_proj = ContextProjector(d, cfg.d_c, substream(seed, "init", "context"))
        self.fusion = FusionLayer(cfg.d_n, cfg.d_c, cfg.d_h, substream(seed, "init", "fusion"))
        self.flow_layers = [
            FlowLayer(t, cfg.d_h, cfg.d_u, cfg.hyper_hidden, substream(seed, "init", "flow", t))
            for t in range(cfg.t_flow)
        ]
        self.recon = ReconstructionHead(
            cfg.d_u,
            cfg.d_h,
            cfg.recon_hidden,
            cfg.horizon * cfg.channels,
            substream(seed, "init", "recon"),
        )

    # -- forward ------------------------------------------------------------

    def condition(self, x_std: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        """Run the conditioning pass once: returns (z, c, h)."""
        z = self.encoder.encode_global(x_std)
        e_rep = self.reprogrammer.reprogram(self.encoder.encode_patches(x_std))
        hidden = self.backbone.forward(build_llm_input(self.prefix, e_rep))
        c = extract_context(hidden, self.ctx_proj)
        if self.cfg.no_global_context:
            c = Tensor(np.zeros((1, self.cfg.d_c)))
        h = self.fusion.fuse(z, c)
        return z, c, h

    def decode(self, h: Tensor, u0: np.ndarray) -> Tensor:
        """Transport latents (S, d_u) and reconstruct (S, H*C) rows."""
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.ndim != 2 or u0.shape[1] != self.cfg.d_u:
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
        out: dict[str, Tensor] = {}
        out.update(self.encoder.parameters())
        out.update(self.reprogrammer.parameters())
        out.update(self.prefix.parameters())
        out.update(self.ctx_proj.parameters())
        out.update(self.fusion.parameters())
        for layer in self.flow_layers:
            out.update(layer.parameters())
        out.update(self.recon.parameters())
        return out

    def census(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape for every trainable parameter."""
        return {name: tuple(t.shape) for name, t in sorted(self.parameters().items())}

    def all_weights(self) -> dict[str, np.ndarray]:
        """Trainable weights plus inlined backbone weights, by name."""
        out = {name: t.data.copy() for name, t in self.parameters().items()}
        for name, arr in self.backbone.weights().items():
            out[f"backbone.{name}"] = arr
        return out

    def load_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Assign stored values into trainable and backbone tensors by name."""
        params = self.parameters()
        backbone_tensors = {f"backbone.{n}": t for n, t in self.backbone.tensors().items()}
        targets = {**params, **backbone_tensors}
        missing = set(targets) - set(weights)
        extra = set(weights) - set(targets)
        if missing or extra:
            raise ValueError(
                f"weight set mismatch (missing {sorted(missing)[:4]}, unexpected {sorted(extra)[:4]})"
            )
        for name, t in targets.items():
            arr = np.asarray(weights[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"weight {name} has shape {arr.shape}, model expects {t.data.shape}"
                )
            t.data = arr.copy()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters().items()}


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
