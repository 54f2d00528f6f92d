"""Command-line harness: train, eval, sample, ablate, sweep-prefix, baseline.

Every command is driven by a JSON config plus a few overriding flags, checked
as one ``RunConfig`` before any work, writes that config with every default
filled in (``resolved_config.json``, which loads back) next to its outputs,
and is deterministic given (config, input files, seed). Exit codes: 0
success, 1 runtime or numeric failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, replace

from papnf.backbone import TransformerBackbone, load_frozen_checkpoint
from papnf.checkpoint import CheckpointError, canonical_json
from papnf.config import ConfigError, DictConfig
from papnf.data import SplitError, SplitSpec, load_csv, make_windows, split_series, windows_digest
from papnf.evaluate import (
    BASELINE_NAMES,
    DEFAULT_LEVELS,
    baseline_report,
    evaluate_split,
    write_ensemble_csv,
    write_fan_chart_svg,
    write_quantiles_csv,
)
from papnf.metrics import coverage_label
from papnf.model import ModelConfig, PapNfModel, ablation_variant
from papnf.seeding import derive_seed
from papnf.train import (
    PretrainConfig,
    PretrainSection,
    TrainConfig,
    TrainingDiverged,
    TrainSection,
    fit,
    model_from_checkpoint,
    pretrain_backbone,
    save_checkpoint,
)

__all__ = ["main", "ConfigError", "RunConfig", "load_config", "resolve_config"]

ABLATION_ARMS = ("full", "no_pap", "random_backbone", "no_global_context")
DEFAULT_K_LIST = (1, 3, 5, 8, 12)


@dataclass(frozen=True)
class DatasetConfig(DictConfig):
    """The input CSV and its seasonal period (the seasonal-naive lag)."""

    path: str
    period: int = 24

    def __post_init__(self):
        if not self.path:
            raise ValueError("path must be a non-empty file path")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")


@dataclass(frozen=True)
class EvalConfig(DictConfig):
    """Sample count and central-interval levels of every scoring run."""

    n_samples: int = 100
    levels: list[float] = field(default_factory=lambda: list(DEFAULT_LEVELS))

    def __post_init__(self):
        if self.n_samples < 2:  # the CRPS needs two
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        labels: dict[str, int] = {}
        for i, level in enumerate(self.levels):
            if not 0.0 < level < 1.0:
                raise ValueError(f"levels[{i}] must lie in (0, 1), got {level}")
            label = coverage_label(level)
            if label in labels:  # the report would keep one coverage value for both
                raise ValueError(
                    f"levels[{i}] repeats the coverage label {label!r} of levels[{labels[label]}]"
                )
            labels[label] = i


@dataclass(frozen=True)
class SweepConfig(DictConfig):
    """The prefix lengths sweep-prefix trains; over-budget ones are its own check."""

    k_list: list[int] = field(default_factory=lambda: list(DEFAULT_K_LIST))

    def __post_init__(self):
        if not self.k_list:
            raise ValueError("k_list must be non-empty")
        for i, k in enumerate(self.k_list):
            if k < 0:
                raise ValueError(f"k_list[{i}] must be >= 0, got {k}")


@dataclass(frozen=True)
class RunConfig(DictConfig):
    """A run config file, the one schema every command checks; ``split: None`` is 60/20/20."""

    dataset: DatasetConfig
    model: ModelConfig
    version: int = 1
    seed: int = 0
    out: str = "papnf_out"
    split: SplitSpec | None = None
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalConfig = field(default_factory=EvalConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    pretrain: PretrainSection = field(default_factory=PretrainSection)

    def __post_init__(self):
        if self.version != 1:
            raise ValueError(f"unsupported config version {self.version!r}")
        if not self.out:
            raise ValueError("out must be a non-empty directory path")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _apply_set(cfg: dict, assignment: str) -> None:
    key_path, eq, raw = assignment.partition("=")
    parts = key_path.split(".")
    if not eq or "" in parts:
        raise ConfigError(f"--set expects key.path=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key_path!r} crosses a non-object value")
    node[parts[-1]] = value


def resolve_config(args):
    """Load, override and check the run configuration; returns it with the dataset's series.

    Unknown keys are rejected first, before the dataset is parsed. Then the
    dataset is read: ``model.channels`` defaults to its channel count, and a
    declared ``int`` count that differs is a config error. Then one
    ``RunConfig.from_checked_dict`` checks the values. Without a usable
    ``dataset.path`` the series is None, and that call names the fault.
    """
    cfg = load_config(args.config)
    for assignment in args.set or []:
        _apply_set(cfg, assignment)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    RunConfig.check_keys(cfg)
    dataset, model, series = cfg.get("dataset"), cfg.get("model"), None
    path = dataset.get("path") if isinstance(dataset, dict) else None
    if isinstance(path, str) and path:
        if not os.path.isfile(path):
            raise ConfigError(f"dataset file not found: {path}")
        series = load_csv(path)
        if isinstance(model, dict):  # a null channels count, like none, is the dataset's
            declared = model.get("channels")
            if type(declared) is int and declared != series.channels:  # other types: the schema's
                raise ConfigError(
                    f"config declares {declared} channels but the dataset has {series.channels}"
                )
            if declared is None:
                model["channels"] = series.channels
    return RunConfig.from_checked_dict(cfg), series


def _pretrain_config(run: RunConfig, model_cfg: ModelConfig) -> PretrainConfig:
    """The pretrain section; a seq_len beyond the backbone's max_len is clamped to it."""
    arch = model_cfg.backbone
    section = run.pretrain.to_dict()
    section["seq_len"] = min(section["seq_len"], arch.max_len)
    seed = derive_seed(run.seed, "pretrain")
    return PretrainConfig.from_dict({**section, "arch": arch, "seed": seed}, "pretrain")


def _ensure_backbone(run: RunConfig, model_cfg: ModelConfig) -> TransformerBackbone | None:
    """The frozen backbone of a ``frozen_checkpoint`` config, pretrained if its file is missing.

    None for ``frozen_random``. The config stays as it is, so checkpoints do not depend on --out.
    """
    if model_cfg.backbone_kind != "frozen_checkpoint":
        return None
    path = model_cfg.backbone_checkpoint
    if not (path and os.path.exists(path)):
        path = path or os.path.join(run.out, "backbone.papnf")
        result = pretrain_backbone(_pretrain_config(run, model_cfg), path)
        print(f"pretrained backbone -> {path} (loss decrease {result.loss_decrease:.1%})")
    return load_frozen_checkpoint(path, expected=model_cfg.backbone)


def _prepare(args):
    """The checked run config and each split's windows, none of them empty; writes nothing."""
    run, series = resolve_config(args)
    lookback, horizon = run.model.lookback, run.model.horizon
    spec = run.split
    try:
        if spec is None:
            train, val = int(series.length * 0.6), int(series.length * 0.2)
            spec = SplitSpec(train, val, series.length - train - val)
        parts = split_series(series, spec)
    except SplitError as err:
        raise ConfigError(f"split: {err}") from None
    splits = {}
    for name, part in zip(("train", "val", "test"), parts):
        splits[name] = make_windows(part, lookback, horizon)
        if not splits[name]:
            raise ConfigError(
                f"split: {name}_len {part.length} holds no window of "
                f"lookback {lookback} + horizon {horizon}"
            )
    return run, splits


def _start(args):
    """The set-up of every command: checked config and splits, then the output directory."""
    run, splits = _prepare(args)
    os.makedirs(run.out, exist_ok=True)
    return run, splits


def _finish(run: RunConfig, summary: str) -> int:
    """Write the resolved config next to the outputs and print the command's summary."""
    _write_json(os.path.join(run.out, "resolved_config.json"), run.to_dict())
    print(summary)
    return 0


def _write_json(path: str, value: dict) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(value) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _checkpoint_model(args) -> PapNfModel:
    """The model saved at --checkpoint."""
    path = args.checkpoint
    if not path:
        raise ConfigError("this command needs --checkpoint")
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    return model_from_checkpoint(path)


def _score(model, windows, run: RunConfig):
    """Sample and score windows with the eval section's sample count and levels."""
    return evaluate_split(
        model,
        windows,
        n_samples=run.eval.n_samples,
        seed=run.seed,
        levels=tuple(run.eval.levels),
    )


def _train_model(run: RunConfig, splits, model_cfg: ModelConfig, backbone):
    """Train one model, on ``backbone`` when the config's kind is ``frozen_checkpoint``."""
    train_cfg = TrainConfig(**run.train.to_dict(), model=model_cfg, seed=run.seed)
    frozen = backbone if model_cfg.backbone_kind == "frozen_checkpoint" else None
    model = PapNfModel(model_cfg, seed=derive_seed(run.seed, "init"), backbone=frozen)
    ckpt = fit(model, splits["train"], splits["val"], train_cfg)
    return model, ckpt


def _train_and_score(run: RunConfig, splits, arms: dict, what: str, backbone) -> dict:
    """Train each arm's model config and score it on the test split.

    An arm whose config equals one already trained (random_backbone on a
    random base) would repeat it bit for bit, so it shares that result.
    """
    trained: dict[ModelConfig, dict] = {}
    for name, model_cfg in arms.items():
        if model_cfg in trained:
            continue
        try:
            model, ckpt = _train_model(run, splits, model_cfg, backbone)
            report, _ = _score(model, splits["test"], run)
        except ConfigError:
            raise
        except (TrainingDiverged, ValueError, FloatingPointError) as err:
            raise RuntimeError(f"{what} {name!r} failed: {err}") from err
        trained[model_cfg] = {
            "mse": report.mse,
            "mae": report.mae,
            "val_mse": ckpt.val_mse,
            "census": {param: list(shape) for param, shape in model.census().items()},
        }
    return {name: trained[model_cfg] for name, model_cfg in arms.items()}


def _window_picks(windows, picks: list[int]) -> list[int]:
    """The --window indices, each checked against the test split."""
    for idx in picks:
        if not 0 <= idx < len(windows):
            raise ConfigError(f"--window {idx} out of range (test split has {len(windows)})")
    return picks


# -- commands ---------------------------------------------------------------------


def cmd_train(args) -> int:
    run, splits = _start(args)
    _, ckpt = _train_model(run, splits, run.model, _ensure_backbone(run, run.model))
    ckpt_path = os.path.join(run.out, "checkpoint.papnf")
    save_checkpoint(ckpt, ckpt_path)
    _write_csv(
        os.path.join(run.out, "training_log.csv"),
        ["epoch", "train_loss", "val_mse"],
        ([row["epoch"], repr(row["train_loss"]), repr(row["val_mse"])] for row in ckpt.history),
    )
    return _finish(
        run, f"wrote {ckpt_path} (best epoch {ckpt.best_epoch}, val_mse {ckpt.val_mse!r})"
    )


def cmd_eval(args) -> int:
    run, splits = _start(args)
    windows = splits["test"]
    picks = _window_picks(windows, args.window or [])
    report, ensembles = _score(_checkpoint_model(args), windows, run)
    _write_json(os.path.join(run.out, "metrics.json"), report.to_dict())
    write_quantiles_csv(os.path.join(run.out, "quantiles.csv"), windows, ensembles)
    for idx in picks:
        if args.svg:
            write_fan_chart_svg(
                os.path.join(run.out, f"fan_window_{idx}.svg"), windows[idx], ensembles[idx]
            )
    return _finish(run, f"wrote metrics.json (mse {report.mse!r}, crps {report.crps_mean!r})")


def cmd_sample(args) -> int:
    run, splits = _start(args)
    windows = splits["test"]
    chosen = [windows[i] for i in _window_picks(windows, args.window or [0])]
    _, ensembles = _score(_checkpoint_model(args), chosen, run)
    write_ensemble_csv(os.path.join(run.out, "ensemble.csv"), chosen, ensembles)
    if args.svg:
        for w, ens in zip(chosen, ensembles):
            write_fan_chart_svg(
                os.path.join(run.out, f"fan_window_{int(w.index)}.svg"), w, ens
            )
    return _finish(run, f"wrote ensemble.csv for {len(chosen)} window(s)")


def cmd_ablate(args) -> int:
    run, splits = _start(args)
    backbone = _ensure_backbone(run, run.model)
    arms = {arm: ablation_variant(run.model, arm) for arm in ABLATION_ARMS}
    results = _train_and_score(run, splits, arms, "ablation arm", backbone)
    full = results["full"]
    rows = []
    for arm, row in results.items():
        d_mse = 100.0 * (full["mse"] - row["mse"]) / row["mse"]
        d_mae = 100.0 * (full["mae"] - row["mae"]) / row["mae"]
        rows.append([arm, repr(row["mse"]), repr(row["mae"]), f"{d_mse:.1f}", f"{d_mae:.1f}"])
    _write_csv(
        os.path.join(run.out, "ablation.csv"),
        ["arm", "mse", "mae", "delta_mse_pct", "delta_mae_pct"],
        rows,
    )
    digest = windows_digest(splits["test"])  # every arm shares these windows
    meta = {
        "windows_digest": digest,
        "arms": {
            arm: {k: v for k, v in row.items() if k != "census"}
            for arm, row in results.items()
        },
        "census": {arm: row["census"] for arm, row in results.items()},
    }
    _write_json(os.path.join(run.out, "ablation.json"), meta)
    return _finish(run, f"wrote ablation.csv ({len(ABLATION_ARMS)} arms, digest {digest[:12]})")


def cmd_sweep_prefix(args) -> int:
    run, splits = _start(args)
    for i, k in enumerate(run.sweep.k_list):  # an over-budget K must not cost a pretraining run
        try:
            replace(run.model, k_prefix=k)
        except ValueError as err:
            raise ConfigError(f"sweep.k_list[{i}]: {err}") from None
    backbone = _ensure_backbone(run, run.model)
    arms = {k: replace(run.model, k_prefix=k) for k in sorted(set(run.sweep.k_list))}
    results = _train_and_score(run, splits, arms, "k_prefix", backbone)
    _write_csv(
        os.path.join(run.out, "prefix_sweep.csv"),
        ["k_prefix", "mse", "mae"],
        ([k, repr(row["mse"]), repr(row["mae"])] for k, row in results.items()),
    )
    return _finish(run, f"wrote prefix_sweep.csv ({len(results)} rows)")


def cmd_baseline(args) -> int:
    run, splits = _start(args)
    windows = splits["test"]
    period = min(run.dataset.period, run.model.lookback)
    model_report = None
    if args.checkpoint:
        model_report, _ = _score(_checkpoint_model(args), windows, run)
    rows = []
    for name in BASELINE_NAMES:
        # at the default levels, which hold the 0.9 coverage this table reports
        rep = baseline_report(
            windows, name, n_samples=run.eval.n_samples, seed=run.seed, period=period
        )
        delta = (
            ""
            if model_report is None
            else f"{100.0 * (model_report.mse - rep.mse) / rep.mse:.1f}"
        )
        rows.append(
            [
                name,
                repr(rep.mse),
                repr(rep.mae),
                repr(rep.crps_mean),
                repr(rep.weighted_crps),
                repr(rep.coverage["0.9"]),
                delta,
            ]
        )
    _write_csv(
        os.path.join(run.out, "baselines.csv"),
        ["baseline", "mse", "mae", "crps_mean", "weighted_crps", "coverage_90",
         "model_delta_mse_pct"],
        rows,
    )
    if model_report is not None:
        _write_json(os.path.join(run.out, "model_metrics.json"), model_report.to_dict())
    return _finish(run, f"wrote baselines.csv ({len(BASELINE_NAMES)} baselines)")


# -- argument plumbing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="papnf",
        description="Probabilistic long-horizon forecasting with a prefix-prompted "
        "frozen backbone and a conditional flow decoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, windows=False):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY.PATH=VALUE",
            help="override one config value (JSON-parsed)",
        )
        if checkpoint:
            p.add_argument("--checkpoint", default=None, help="model checkpoint path")
        if windows:
            p.add_argument(
                "--window", type=int, action="append", help="test window index"
            )
            p.add_argument("--svg", action="store_true", help="write fan-chart SVGs")

    p = sub.add_parser("train", help="train a model and save the best checkpoint")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p, checkpoint=True, windows=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="write sampled trajectories for chosen windows")
    common(p, checkpoint=True, windows=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("ablate", help="train and compare the four ablation arms")
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-prefix", help="train and evaluate across prefix lengths")
    common(p)
    p.set_defaults(func=cmd_sweep_prefix)

    p = sub.add_parser("baseline", help="evaluate reference forecasters on the test split")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return int(exit_err.code or 0)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (TrainingDiverged, CheckpointError, RuntimeError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
