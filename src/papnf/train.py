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
from papnf.checkpoint import CheckpointError, check_header, read_container, write_container
from papnf.config import DictConfig
from papnf.flow import sample_windows
from papnf.model import ModelConfig, PapNfModel
from papnf.seeding import derive_seed, substream
from papnf.synthetic import pretrain_sequences
from papnf.tensor import Tensor, energy_score, matmul, repeat_rows, sum_in_order

__all__ = [
    "OBJECTIVES",
    "TrainSection",
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
    "PretrainSection",
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
class TrainSection(DictConfig):
    """Optimization hyperparameters: the keys a run config's ``train`` section sets."""

    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 15
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


@dataclass(frozen=True)
class TrainConfig(TrainSection):
    """Optimization hyperparameters wrapped around a model configuration."""

    model: ModelConfig = field(kw_only=True)
    seed: int = field(default=0, kw_only=True)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates, denominator guard


class Adam:
    """Adam with bias correction; moment buffers only for trainable tensors."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = {name: t for name, t in sorted(params.items()) if t.requires_grad}
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def step(self) -> None:
        """One update, m and v in place.

        The products and sums are those of m = b1 m + (1 - b1) g,
        v = b2 v + (1 - b2)(g g) and p - lr (m / bc1) / (sqrt(v / bc2) + eps),
        in that order, so the result is bitwise the out-of-place update's. The
        parameter gets a new array; whoever holds the old one keeps its values.
        """
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            buf = (1.0 - ADAM_BETA1) * g
            m *= ADAM_BETA1
            m += buf
            np.multiply(g, g, out=buf)
            buf *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += buf
            den = v / bc2
            np.sqrt(den, out=den)
            den += ADAM_EPS
            np.divide(m, bc1, out=buf)
            buf *= self.lr
            buf /= den
            p.data = p.data - buf

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
    """Mean squared error over all entries of (S, H*C) predictions vs truth.

    Stacks (B, S, H*C) and (B, 1, H*C) give each window's error, (B,).
    """
    *windows, s, n = pred_rows.shape
    if target_row.shape != (*windows, 1, n):
        raise ValueError(f"target shape {target_row.shape} does not match {(*windows, 1, n)}")
    diff = pred_rows - repeat_rows(target_row, s)
    return (diff * diff).sum() * (1.0 / (s * n))


def loss_energy(pred_rows: Tensor, target_row: Tensor) -> Tensor:
    """Unbiased energy score of an S-row ensemble against one target row.

    mean_s|pred_s - y| - (1/(S(S-1))) sum_{i<j} |pred_i - pred_j|, averaged
    over the H*C points. Proper, but strictly proper only for the marginals:
    each point is scored apart, so an ensemble whose columns are shuffled
    independently gets the same score.
    Built as one sort-based graph node (``tensor.energy_score``); stacks
    (B, S, H*C) and (B, 1, H*C) give each window's score, (B,).
    """
    return energy_score(pred_rows, target_row)


def _batch_loss(model: PapNfModel, windows, cfg: TrainConfig, epoch: int) -> Tensor:
    """Mean loss over a batch of windows, built in one forward pass.

    The windows are a leading axis, a lone window too, as in sampling.
    Window w's latents come from substream(seed, "noise", epoch, w.index),
    and the per-window losses are added first to last and scaled by
    1/len(windows): the loss, and through the op's backward the gradients,
    are bitwise those of a sum of per-window graphs.
    """
    s = cfg.train_samples if cfg.objective == "energy" else 1
    u0 = np.array([
        substream(cfg.seed, "noise", epoch, int(w.index)).standard_normal((s, cfg.model.d_u))
        for w in windows
    ])
    x_std = np.array([w.x_std for w in windows])
    target = np.array([w.y_std.reshape(1, -1) for w in windows])
    pred = model.forward_samples(x_std, u0)
    loss = loss_energy if cfg.objective == "energy" else loss_reconstruction
    return sum_in_order(loss(pred, Tensor(target))) * (1.0 / len(windows))


def validation_mse(model: PapNfModel, windows, n_samples: int, seed: int) -> float:
    """Ensemble-mean MSE over a split, on the original (destandardized) scale."""
    if not windows:
        raise ValueError("validation over an empty split")
    total = 0.0
    for w, ens in zip(windows, sample_windows(windows, model, n_samples, seed, "val-sample")):
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
    # headers written while ModelConfig had a no_pap switch carry "no_pap": false
    train = header.get("train")
    for section in (header.get("model"), train.get("model") if isinstance(train, dict) else None):
        if isinstance(section, dict) and section.get("no_pap") is False:
            del section["no_pap"]
    h = check_header(path, header, _Header)
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
    """The model a Checkpoint (or the file at a path) stores; a weight fault names the path."""
    path = ckpt if isinstance(ckpt, str) else None
    if path is not None:
        ckpt = load_checkpoint(path)
    try:
        return PapNfModel(ckpt.model_config, weights=ckpt.weights)
    except CheckpointError as err:
        raise CheckpointError(f"{path}: {err}" if path else str(err)) from None


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
            batch = [train_windows[int(k)] for k in order[start : start + cfg.batch_size]]
            loss = _batch_loss(model, batch, cfg, epoch)
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
    return Checkpoint(
        model_config=model.cfg,
        weights=best_weights,
        rng_state={"root_seed": cfg.seed, "scheme": _RNG_SCHEME},
        val_mse=best_val,
        best_epoch=best_epoch,
        train_config=cfg,
        history=history,
    )


# -- backbone pretraining ------------------------------------------------------------

@dataclass(frozen=True)
class PretrainSection(DictConfig):
    """Pretraining steps and sizes: the keys a run config's ``pretrain`` section sets."""

    steps: int = 2000
    batch: int = 8
    seq_len: int = 48
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.seq_len < 2:
            raise ValueError(f"seq_len {self.seq_len} must be >= 2 (next-value targets)")
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be positive")


@dataclass(frozen=True)
class PretrainConfig(PretrainSection):
    """Next-value regression pretraining for the small frozen backbone."""

    arch: BackboneArch = field(default_factory=BackboneArch, kw_only=True)
    seed: int = field(default=0, kw_only=True)

    def __post_init__(self):
        if self.seq_len > self.arch.max_len:
            raise ValueError(f"seq_len {self.seq_len} exceeds max_len {self.arch.max_len}")
        super().__post_init__()


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
    Each step's sequences run as one batch with a leading window axis; the
    per-sequence losses are added first to last, as in ``_batch_loss``, so
    losses and weights are bitwise those of one graph per sequence.
    """
    backbone = TransformerBackbone(
        cfg.arch, seed=derive_seed(cfg.seed, "pretrain-init"), trainable=True
    )
    rng_lift = substream(cfg.seed, "pretrain-lift")
    d = cfg.arch.d
    lift = Tensor(rng_lift.standard_normal((1, d)) / math.sqrt(d), requires_grad=True)
    readout = Tensor(rng_lift.standard_normal((d, 1)) / math.sqrt(d), requires_grad=True)
    opt = Adam({**backbone.params, "lift": lift, "readout": readout}, cfg.learning_rate)
    data_rng = substream(cfg.seed, "pretrain-data")
    history: list[float] = []
    n = cfg.seq_len
    for step in range(cfg.steps):
        seqs = pretrain_sequences(data_rng, cfg.batch, n)
        tokens = matmul(Tensor(seqs.reshape(cfg.batch, n, 1)), lift)
        pred = matmul(backbone.forward(tokens), readout)[0 : n - 1, :]
        diff = pred - Tensor(seqs[:, 1:].reshape(cfg.batch, n - 1, 1))
        terms = (diff * diff).sum() * (1.0 / (n - 1))
        loss = sum_in_order(terms) * (1.0 / cfg.batch)
        history.append(_guarded_step(opt, loss, 0, step, history))
    head = max(1, min(20, cfg.steps // 10))
    tail = max(1, min(100, cfg.steps // 4))
    first = float(np.mean(history[:head]))
    last = float(np.mean(history[-tail:]))
    decrease = 0.0 if first == 0.0 else (first - last) / first
    backbone.freeze()
    backbone.save(path)
    return PretrainResult(path=path, history=history, loss_decrease=decrease)
