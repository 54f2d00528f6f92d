"""Training loop: Adam, reconstruction and energy objectives, checkpoints.

Two objectives are available. "mse" is the plain reconstruction loss with a
single latent draw per window per step; it optimizes the point forecast but
lets the predictive spread collapse, so intervals from an "mse"-trained model
are not calibrated. "energy" (the default) is the sample-based energy score
over a small ensemble per window, which is a proper score: it rewards both
accuracy and honest spread, so coverage checks are only meaningful under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from papnf.backbone import BackboneArch, TransformerBackbone
from papnf.checkpoint import CheckpointError, read_container, write_container
from papnf.config import ConfigError, DictConfig
from papnf.flow import sample_forecasts
from papnf.model import ModelConfig, PapNfModel
from papnf.seeding import derive_seed, substream
from papnf.synthetic import pretrain_sequences
from papnf.tensor import Tensor, energy_score, matmul, repeat_rows

__all__ = [
    "OBJECTIVES",
    "TrainConfig",
    "TrainingDiverged",
    "Adam",
    "loss_reconstruction",
    "loss_energy",
    "validation_mse",
    "fit",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_checkpoint",
    "PretrainConfig",
    "PretrainResult",
    "pretrain_backbone",
]

OBJECTIVES = ("energy", "mse")


class TrainingDiverged(RuntimeError):
    """Raised when a loss or a gradient turns non-finite; carries where and history.

    ``param`` names the first parameter with a non-finite gradient, or is
    None when the loss itself was non-finite.
    """

    def __init__(
        self, epoch: int, batch: int, loss: float, history: list, param: str | None = None
    ):
        if param is None:
            what = f"non-finite loss {loss!r}"
        else:
            what = f"non-finite gradient of {param} (loss {loss!r})"
        super().__init__(
            f"{what} at epoch {epoch}, batch {batch} ({len(history)} completed epochs)"
        )
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        self.history = history
        self.param = param


@dataclass(frozen=True)
class TrainConfig(DictConfig):
    """Optimization hyperparameters wrapped around a model configuration."""

    model: ModelConfig
    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 15
    seed: int = 0
    objective: str = "energy"
    train_samples: int = 8
    val_samples: int = 16

    def __post_init__(self):
        if not 1e-5 <= self.learning_rate <= 1e-3:
            raise ValueError(
                f"learning_rate {self.learning_rate} outside the supported grid [1e-5, 1e-3]"
            )
        if not 1 <= self.batch_size <= 16:
            raise ValueError(f"batch_size {self.batch_size} outside [1, 16]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.objective == "energy" and self.train_samples < 2:
            raise ValueError("the energy objective needs train_samples >= 2")
        if self.val_samples < 2:
            raise ValueError("val_samples must be >= 2")


class Adam:
    """Adam with bias correction; moment buffers only for trainable tensors."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = {name: t for name, t in sorted(params.items()) if t.requires_grad}
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def nonfinite_grad(self) -> str | None:
        """Name of the first parameter whose gradient holds a NaN or an inf, else None."""
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                return name
        return None


def _guarded_step(opt: Adam, loss: Tensor, epoch: int, batch: int, history: list) -> float:
    """Backpropagate ``loss`` and step ``opt``; return the loss value.

    Raises TrainingDiverged on a non-finite loss or gradient, before the
    step, so no parameter is ever written to a non-finite value.
    """
    loss_value = loss.item()
    if not math.isfinite(loss_value):
        raise TrainingDiverged(epoch, batch, loss_value, history)
    opt.zero_grad()
    loss.backward()
    bad = opt.nonfinite_grad()
    if bad is not None:
        raise TrainingDiverged(epoch, batch, loss_value, history, param=bad)
    opt.step()
    return loss_value


# -- objectives -------------------------------------------------------------------


def loss_reconstruction(pred_rows: Tensor, target_row: Tensor) -> Tensor:
    """Mean squared error over all entries of (S, H*C) predictions vs truth."""
    s, n = pred_rows.shape
    if target_row.shape != (1, n):
        raise ValueError(f"target shape {target_row.shape} does not match (1, {n})")
    diff = pred_rows - repeat_rows(target_row, s)
    return (diff * diff).sum() * (1.0 / (s * n))


def loss_energy(pred_rows: Tensor, target_row: Tensor) -> Tensor:
    """Unbiased energy score of an S-row ensemble against one target row.

    mean_s|pred_s - y| - (1/(S(S-1))) sum_{i<j} |pred_i - pred_j|, averaged
    over the H*C points. Proper: minimized only by the true predictive law.
    Built as one sort-based graph node (``tensor.energy_score``).
    """
    return energy_score(pred_rows, target_row)


def _window_loss(model: PapNfModel, window, cfg: TrainConfig, epoch: int) -> Tensor:
    s = cfg.train_samples if cfg.objective == "energy" else 1
    rng = substream(cfg.seed, "noise", epoch, int(window.index))
    u0 = rng.standard_normal((s, cfg.model.d_u))
    pred = model.forward_samples(window.x_std, u0)
    target = Tensor(window.y_std.reshape(1, -1))
    if cfg.objective == "energy":
        return loss_energy(pred, target)
    return loss_reconstruction(pred, target)


def validation_mse(model: PapNfModel, windows, n_samples: int, seed: int) -> float:
    """Ensemble-mean MSE over a split, on the original (destandardized) scale."""
    if not windows:
        raise ValueError("validation over an empty split")
    total = 0.0
    for w in windows:
        ens = sample_forecasts(w, model, n_samples, substream(seed, "val-sample", int(w.index)))
        diff = ens.mean() - w.y
        total += float(np.mean(diff * diff))
    return total / len(windows)


# -- checkpoints ------------------------------------------------------------------

_RNG_SCHEME = "sha256-labeled-substreams"


@dataclass
class Checkpoint:
    """Everything needed to rebuild a trained model and audit its selection."""

    model_config: ModelConfig
    weights: dict[str, np.ndarray]
    rng_state: dict
    val_mse: float
    best_epoch: int
    train_config: TrainConfig | None = None
    history: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class _Header(DictConfig):
    """JSON header of a model checkpoint, checked field by field on load."""

    model: ModelConfig
    train: TrainConfig | None
    rng_state: dict
    val_mse: float
    best_epoch: int
    history: list[dict] = field(default_factory=list)
    version: int = 1
    kind: str = "model"


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    header = _Header(
        model=ckpt.model_config,
        train=ckpt.train_config,
        rng_state=ckpt.rng_state,
        val_mse=ckpt.val_mse,
        best_epoch=ckpt.best_epoch,
        history=ckpt.history,
    )
    write_container(path, header.to_dict(), ckpt.weights)


def load_checkpoint(path: str) -> Checkpoint:
    header, weights = read_container(path)
    if header.get("kind") != "model":
        raise CheckpointError(f"expected a model checkpoint, found kind {header.get('kind')!r}")
    if header.get("version") != 1:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
    # headers written while ModelConfig had a no_pap switch carry "no_pap": false
    train = header.get("train")
    for section in (header.get("model"), train.get("model") if isinstance(train, dict) else None):
        if isinstance(section, dict) and section.get("no_pap") is False:
            del section["no_pap"]
    try:
        h = _Header.from_dict(header)
    except ConfigError as err:
        raise CheckpointError(f"{path}: bad header: {err}") from None
    return Checkpoint(
        model_config=h.model,
        weights=weights,
        rng_state=h.rng_state,
        val_mse=h.val_mse,
        best_epoch=h.best_epoch,
        train_config=h.train,
        history=h.history,
    )


def model_from_checkpoint(ckpt: Checkpoint | str) -> PapNfModel:
    """Rebuild a model from a Checkpoint (or a path to one) with stored weights."""
    if isinstance(ckpt, str):
        ckpt = load_checkpoint(ckpt)
    cfg = ckpt.model_config
    seed = int(ckpt.rng_state.get("root_seed", 0))
    # backbone weights are inlined; the original pretraining file is not needed
    prefix = "backbone."
    weights = {n[len(prefix):]: a for n, a in ckpt.weights.items() if n.startswith(prefix)}
    backbone = TransformerBackbone(cfg.backbone, kind=cfg.backbone_kind, weights=weights)
    model = PapNfModel(cfg, seed=seed, backbone=backbone)
    model.load_weights(ckpt.weights)
    return model


def _make_checkpoint(model, cfg, val, epoch, history, weights) -> Checkpoint:
    return Checkpoint(
        model_config=model.cfg,
        weights=weights,
        rng_state={"root_seed": cfg.seed, "scheme": _RNG_SCHEME},
        val_mse=val,
        best_epoch=epoch,
        train_config=cfg,
        history=history,
    )


def fit(model: PapNfModel, train_windows, val_windows, cfg: TrainConfig) -> Checkpoint:
    """Train for cfg.epochs, keep the lowest-validation-MSE weights.

    The model is left holding the best epoch's weights; the returned
    Checkpoint records them together with the config and loss history.
    Raises TrainingDiverged on a non-finite loss or gradient, before the
    optimizer step, so no parameter is ever written to a non-finite value.
    """
    if not train_windows or not val_windows:
        raise ValueError("fit needs non-empty train and validation splits")
    opt = Adam(model.parameters(), cfg.learning_rate)
    val_seed = derive_seed(cfg.seed, "val")
    history: list[dict] = []
    best_val = math.inf
    best_epoch = -1
    best_weights = model.all_weights()
    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, "shuffle", epoch).permutation(len(train_windows))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            total = None
            for k in batch:
                term = _window_loss(model, train_windows[int(k)], cfg, epoch)
                total = term if total is None else total + term
            loss = total * (1.0 / len(batch))
            epoch_loss += _guarded_step(opt, loss, epoch, n_batches, history)
            n_batches += 1
        val = validation_mse(model, val_windows, cfg.val_samples, val_seed)
        history.append(
            {"epoch": epoch, "train_loss": epoch_loss / n_batches, "val_mse": val}
        )
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best_weights = model.all_weights()
    model.load_weights(best_weights)
    return _make_checkpoint(model, cfg, best_val, best_epoch, history, best_weights)


# -- backbone pretraining ------------------------------------------------------------

@dataclass(frozen=True)
class PretrainConfig(DictConfig):
    """Next-value regression pretraining for the small frozen backbone."""

    arch: BackboneArch = field(default_factory=BackboneArch)
    steps: int = 2000
    batch: int = 8
    seq_len: int = 48
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.seq_len > self.arch.max_len:
            raise ValueError(f"seq_len {self.seq_len} exceeds max_len {self.arch.max_len}")
        if self.seq_len < 2:
            raise ValueError(f"seq_len {self.seq_len} must be >= 2 (next-value targets)")
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be positive")


@dataclass
class PretrainResult:
    path: str
    history: list[float]
    loss_decrease: float  # relative drop from the first to the last history window


def pretrain_backbone(cfg: PretrainConfig, path: str) -> PretrainResult:
    """Train the backbone on synthetic next-value regression, save it frozen.

    The sequence is lifted to token width by a throwaway outer-product
    embedding and read out by a throwaway linear head; only the transformer
    weights are kept. The saved container loads via load_frozen_checkpoint.
    """
    backbone = TransformerBackbone(
        cfg.arch, seed=derive_seed(cfg.seed, "pretrain-init"), kind="frozen_checkpoint",
        trainable=True,
    )
    rng_lift = substream(cfg.seed, "pretrain-lift")
    d = cfg.arch.d
    lift = Tensor(rng_lift.standard_normal((1, d)) / math.sqrt(d), requires_grad=True)
    readout = Tensor(rng_lift.standard_normal((d, 1)) / math.sqrt(d), requires_grad=True)
    params = dict(backbone.tensors())
    params["lift"] = lift
    params["readout"] = readout
    opt = Adam(params, cfg.learning_rate)
    data_rng = substream(cfg.seed, "pretrain-data")
    history: list[float] = []
    n = cfg.seq_len
    for step in range(cfg.steps):
        seqs = pretrain_sequences(data_rng, cfg.batch, n)
        total = None
        for b in range(cfg.batch):
            col = Tensor(seqs[b].reshape(n, 1))
            tokens = matmul(col, lift)
            hidden = backbone.forward(tokens)
            pred = matmul(hidden, readout)[0 : n - 1, :]
            target = Tensor(seqs[b, 1:].reshape(n - 1, 1))
            diff = pred - target
            term = (diff * diff).sum() * (1.0 / (n - 1))
            total = term if total is None else total + term
        loss = total * (1.0 / cfg.batch)
        history.append(_guarded_step(opt, loss, 0, step, history))
    head = max(1, min(20, cfg.steps // 10))
    tail = max(1, min(100, cfg.steps // 4))
    first = float(np.mean(history[:head]))
    last = float(np.mean(history[-tail:]))
    decrease = 0.0 if first == 0.0 else (first - last) / first
    backbone.freeze()
    backbone.save(path)
    return PretrainResult(path=path, history=history, loss_decrease=decrease)
