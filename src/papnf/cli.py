"""Command-line harness: train, eval, sample, ablate, sweep-prefix, baseline.

Every command is driven by a JSON config plus a few overriding flags, writes
its fully resolved config next to its outputs, and is deterministic given
(config, input files, seed). Exit codes: 0 success, 1 runtime or numeric
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from papnf.checkpoint import CheckpointError, canonical_json
from papnf.config import ConfigError, check_value, schema
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
from papnf.model import ModelConfig, PapNfModel, ablation_variant
from papnf.seeding import derive_seed
from papnf.train import (
    PretrainConfig,
    TrainConfig,
    TrainingDiverged,
    fit,
    load_checkpoint,
    model_from_checkpoint,
    pretrain_backbone,
    save_checkpoint,
)

__all__ = ["main", "ConfigError", "load_config", "resolve_config"]

ABLATION_ARMS = ("full", "no_pap", "random_backbone", "no_global_context")
DEFAULT_K_LIST = (1, 3, 5, 8, 12)


# Allowed keys, nested; a None value marks a leaf key. The dataclass sections
# leave out the fields the command line fills in itself (model, arch, seed).
_SCHEMA = {
    "version": None,
    "seed": None,
    "out": None,
    "dataset": {"path": None, "period": None},
    "split": schema(SplitSpec),
    "model": schema(ModelConfig),
    "train": schema(TrainConfig, skip=("model", "seed")),
    "eval": {"n_samples": None, "levels": None},
    "sweep": {"k_list": None},
    "pretrain": schema(PretrainConfig, skip=("arch", "seed")),
}


def _unknown_keys(node, schema, prefix="") -> list[str]:
    bad = []
    for key, value in node.items():
        path = f"{prefix}{key}"
        if key not in schema:
            bad.append(path)
        elif isinstance(schema[key], dict):
            if isinstance(value, dict):
                bad += _unknown_keys(value, schema[key], prefix=f"{path}.")
            else:
                bad.append(f"{path} (expected an object)")
    return bad


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
    if "=" not in assignment:
        raise ConfigError(f"--set expects key.path=value, got {assignment!r}")
    key_path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key_path.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key_path!r} crosses a non-object value")
    node[parts[-1]] = value


def resolve_config(args) -> dict:
    """Load, override, and validate the run configuration."""
    cfg = load_config(args.config)
    for assignment in args.set or []:
        _apply_set(cfg, assignment)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    bad = _unknown_keys(cfg, _SCHEMA)
    if bad:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(bad)))
    cfg.setdefault("version", 1)
    if check_value(cfg["version"], int, "version") != 1:
        raise ConfigError(f"unsupported config version {cfg['version']!r}")
    check_value(cfg.setdefault("seed", 0), int, "seed")
    check_value(cfg.setdefault("out", "papnf_out"), str, "out")
    if "dataset" not in cfg or not cfg["dataset"].get("path"):
        raise ConfigError("config needs dataset.path")
    check_value(cfg["dataset"]["path"], str, "dataset.path")
    _at_least(cfg["dataset"].setdefault("period", 24), 1, "dataset.period")
    section = cfg.setdefault("eval", {})
    _at_least(section.setdefault("n_samples", 100), 1, "eval.n_samples")
    levels = section.setdefault("levels", list(DEFAULT_LEVELS))
    for i, level in enumerate(check_value(levels, list[float], "eval.levels")):
        if not 0.0 < level < 1.0:
            raise ConfigError(f"eval.levels[{i}] must lie in (0, 1), got {level}")
    section = cfg.get("sweep") or {}
    if "k_list" in section:
        if not check_value(section["k_list"], list[int], "sweep.k_list"):
            raise ConfigError("sweep.k_list must be non-empty")
        for i, k in enumerate(section["k_list"]):
            _at_least(k, 0, f"sweep.k_list[{i}]")
    return cfg


def _at_least(value, low: int, path: str) -> None:
    if check_value(value, int, path) < low:
        raise ConfigError(f"{path} must be >= {low}, got {value}")


def _split_lengths(cfg: dict, total: int) -> SplitSpec:
    if cfg.get("split"):
        return SplitSpec.from_dict(cfg["split"], "split")
    train = int(total * 0.6)
    val = int(total * 0.2)
    return SplitSpec(train, val, total - train - val)


def _model_config(cfg: dict, channels: int) -> ModelConfig:
    section = dict(cfg.get("model") or {})
    declared = section.get("channels")
    if declared is not None and declared != channels:
        raise ConfigError(
            f"config declares {declared} channels but the dataset has {channels}"
        )
    section["channels"] = channels
    return ModelConfig.from_dict(section, "model")


def _train_config(cfg: dict, model_cfg: ModelConfig) -> TrainConfig:
    section = cfg.get("train") or {}
    return TrainConfig.from_dict({**section, "model": model_cfg, "seed": cfg["seed"]}, "train")


def _pretrain_config(cfg: dict, model_cfg: ModelConfig) -> PretrainConfig:
    """The pretrain section; a seq_len beyond the backbone's max_len is clamped to it."""
    arch = model_cfg.backbone
    seed = derive_seed(cfg["seed"], "pretrain")
    section = {**(cfg.get("pretrain") or {}), "arch": arch, "seed": seed}
    seq_len = check_value(section.get("seq_len", PretrainConfig.seq_len), int, "pretrain.seq_len")
    section["seq_len"] = min(seq_len, arch.max_len)
    return PretrainConfig.from_dict(section, "pretrain")


def _ensure_backbone(cfg: dict, model_cfg: ModelConfig, out_dir: str) -> ModelConfig:
    """Pretrain the backbone when requested but not yet materialized."""
    _train_config(cfg, model_cfg)  # a bad train section must not cost a pretraining run
    if model_cfg.backbone_kind != "frozen_checkpoint":
        return model_cfg
    path = model_cfg.backbone_checkpoint
    if path and os.path.exists(path):
        return model_cfg
    target = path or os.path.join(out_dir, "backbone.papnf")
    result = pretrain_backbone(_pretrain_config(cfg, model_cfg), target)
    print(f"pretrained backbone -> {target} (loss decrease {result.loss_decrease:.1%})")
    return replace(model_cfg, backbone_checkpoint=target)


def _prepare(cfg: dict):
    """The windows of each split and the checked model config."""
    path = cfg["dataset"]["path"]
    if not os.path.exists(path):
        raise ConfigError(f"dataset file not found: {path}")
    series = load_csv(path)
    model_cfg = _model_config(cfg, series.channels)
    try:
        parts = split_series(series, _split_lengths(cfg, series.length))
    except SplitError as err:
        raise ConfigError(f"split: {err}") from None
    splits = {
        name: make_windows(part, model_cfg.lookback, model_cfg.horizon)
        for name, part in zip(("train", "val", "test"), parts)
    }
    return splits, model_cfg


def _write_resolved(cfg: dict, out_dir: str, extra: dict | None = None) -> None:
    resolved = dict(cfg)
    if extra:
        resolved = {**resolved, **extra}
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as fh:
        fh.write(canonical_json(resolved) + "\n")


def _out_dir(cfg: dict) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _train_model(cfg: dict, splits, model_cfg: ModelConfig):
    train_cfg = _train_config(cfg, model_cfg)
    model = PapNfModel(model_cfg, seed=derive_seed(cfg["seed"], "init"))
    ckpt = fit(model, splits["train"], splits["val"], train_cfg)
    return model, ckpt


def _write_training_log(path: str, history: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_mse"])
        for row in history:
            writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["val_mse"])])


# -- commands ---------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    out_dir = _out_dir(cfg)
    splits, model_cfg = _prepare(cfg)
    model_cfg = _ensure_backbone(cfg, model_cfg, out_dir)
    model, ckpt = _train_model(cfg, splits, model_cfg)
    ckpt_path = os.path.join(out_dir, "checkpoint.papnf")
    save_checkpoint(ckpt, ckpt_path)
    _write_training_log(os.path.join(out_dir, "training_log.csv"), ckpt.history)
    _write_resolved(cfg, out_dir, {"resolved_channels": model_cfg.channels})
    print(
        f"wrote {ckpt_path} (best epoch {ckpt.best_epoch}, "
        f"val_mse {ckpt.val_mse!r})"
    )
    return 0


def _require_checkpoint(args) -> str:
    path = args.checkpoint
    if not path:
        raise ConfigError("this command needs --checkpoint")
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    return path


def _window_picks(windows, picks: list[int]) -> list[int]:
    """The --window indices, each checked against the test split."""
    for idx in picks:
        if not 0 <= idx < len(windows):
            raise ConfigError(f"--window {idx} out of range (test split has {len(windows)})")
    return picks


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    out_dir = _out_dir(cfg)
    ckpt_path = _require_checkpoint(args)
    model = model_from_checkpoint(ckpt_path)
    splits, _ = _prepare(cfg)
    windows = splits["test"]
    picks = _window_picks(windows, args.window or [])
    report, ensembles = evaluate_split(
        model,
        windows,
        n_samples=cfg["eval"]["n_samples"],
        seed=cfg["seed"],
        levels=tuple(cfg["eval"]["levels"]),
    )
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        fh.write(report.to_json() + "\n")
    write_quantiles_csv(os.path.join(out_dir, "quantiles.csv"), windows, ensembles)
    for idx in picks:
        if args.svg:
            write_fan_chart_svg(
                os.path.join(out_dir, f"fan_window_{idx}.svg"), windows[idx], ensembles[idx]
            )
    _write_resolved(cfg, out_dir, {"checkpoint": ckpt_path})
    print(f"wrote metrics.json (mse {report.mse!r}, crps {report.crps_mean!r})")
    return 0


def cmd_sample(args) -> int:
    cfg = resolve_config(args)
    out_dir = _out_dir(cfg)
    ckpt_path = _require_checkpoint(args)
    model = model_from_checkpoint(ckpt_path)
    splits, _ = _prepare(cfg)
    windows = splits["test"]
    picks = _window_picks(windows, args.window or [0])
    chosen = [windows[i] for i in picks]
    _, ensembles = evaluate_split(
        model, chosen, n_samples=cfg["eval"]["n_samples"], seed=cfg["seed"]
    )
    write_ensemble_csv(os.path.join(out_dir, "ensemble.csv"), chosen, ensembles)
    if args.svg:
        for w, ens in zip(chosen, ensembles):
            write_fan_chart_svg(
                os.path.join(out_dir, f"fan_window_{int(w.index)}.svg"), w, ens
            )
    _write_resolved(cfg, out_dir, {"checkpoint": ckpt_path})
    print(f"wrote ensemble.csv for {len(chosen)} window(s)")
    return 0


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    out_dir = _out_dir(cfg)
    splits, base_cfg = _prepare(cfg)
    base_cfg = _ensure_backbone(cfg, base_cfg, out_dir)
    digest = windows_digest(splits["test"])  # every arm shares these windows
    results: dict[str, dict] = {}
    for arm in ABLATION_ARMS:
        try:
            arm_cfg = ablation_variant(base_cfg, arm)
            model, ckpt = _train_model(cfg, splits, arm_cfg)
            report, _ = evaluate_split(
                model,
                splits["test"],
                n_samples=cfg["eval"]["n_samples"],
                seed=cfg["seed"],
            )
        except (TrainingDiverged, ValueError, FloatingPointError) as err:
            raise RuntimeError(f"ablation arm {arm!r} failed: {err}") from err
        results[arm] = {
            "mse": report.mse,
            "mae": report.mae,
            "val_mse": ckpt.val_mse,
            "census": {name: list(shape) for name, shape in model.census().items()},
        }
    full = results["full"]
    with open(os.path.join(out_dir, "ablation.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "mse", "mae", "delta_mse_pct", "delta_mae_pct"])
        for arm in ABLATION_ARMS:
            row = results[arm]
            d_mse = 100.0 * (full["mse"] - row["mse"]) / row["mse"]
            d_mae = 100.0 * (full["mae"] - row["mae"]) / row["mae"]
            writer.writerow(
                [arm, repr(row["mse"]), repr(row["mae"]), f"{d_mse:.1f}", f"{d_mae:.1f}"]
            )
    meta = {
        "windows_digest": digest,
        "arms": {
            arm: {k: v for k, v in row.items() if k != "census"}
            for arm, row in results.items()
        },
        "census": {arm: row["census"] for arm, row in results.items()},
    }
    with open(os.path.join(out_dir, "ablation.json"), "w") as fh:
        fh.write(canonical_json(meta) + "\n")
    _write_resolved(cfg, out_dir)
    print(f"wrote ablation.csv ({len(ABLATION_ARMS)} arms, digest {digest[:12]})")
    return 0


def cmd_sweep_prefix(args) -> int:
    cfg = resolve_config(args)
    out_dir = _out_dir(cfg)
    k_list = (cfg.get("sweep") or {}).get("k_list", list(DEFAULT_K_LIST))
    splits, base_cfg = _prepare(cfg)
    _train_config(cfg, base_cfg)  # a bad train section is reported first, as in train and ablate
    for i, k in enumerate(k_list):  # an over-budget K must not cost a pretraining run
        try:
            replace(base_cfg, k_prefix=k)
        except ValueError as err:
            raise ConfigError(f"sweep.k_list[{i}]: {err}") from None
    base_cfg = _ensure_backbone(cfg, base_cfg, out_dir)
    rows = []
    for k in sorted(set(k_list)):
        model, _ = _train_model(cfg, splits, replace(base_cfg, k_prefix=k))
        report, _ = evaluate_split(
            model, splits["test"], n_samples=cfg["eval"]["n_samples"], seed=cfg["seed"]
        )
        rows.append((k, report.mse, report.mae))
    with open(os.path.join(out_dir, "prefix_sweep.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_prefix", "mse", "mae"])
        for k, mse, mae in rows:
            writer.writerow([k, repr(mse), repr(mae)])
    _write_resolved(cfg, out_dir)
    print(f"wrote prefix_sweep.csv ({len(rows)} rows)")
    return 0


def cmd_baseline(args) -> int:
    cfg = resolve_config(args)
    out_dir = _out_dir(cfg)
    splits, model_cfg = _prepare(cfg)
    windows = splits["test"]
    period = min(cfg["dataset"]["period"], model_cfg.lookback)
    model_report = None
    if args.checkpoint:
        model = model_from_checkpoint(_require_checkpoint(args))
        model_report, _ = evaluate_split(
            model, windows, n_samples=cfg["eval"]["n_samples"], seed=cfg["seed"]
        )
    reports = {}
    for name in BASELINE_NAMES:
        reports[name] = baseline_report(
            windows,
            name,
            n_samples=cfg["eval"]["n_samples"],
            seed=cfg["seed"],
            period=period,
        )
    with open(os.path.join(out_dir, "baselines.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["baseline", "mse", "mae", "crps_mean", "weighted_crps", "coverage_90",
             "model_delta_mse_pct"]
        )
        for name in BASELINE_NAMES:
            rep = reports[name]
            delta = (
                ""
                if model_report is None
                else f"{100.0 * (model_report.mse - rep.mse) / rep.mse:.1f}"
            )
            writer.writerow(
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
    if model_report is not None:
        with open(os.path.join(out_dir, "model_metrics.json"), "w") as fh:
            fh.write(model_report.to_json() + "\n")
    _write_resolved(cfg, out_dir)
    print(f"wrote baselines.csv ({len(reports)} baselines)")
    return 0


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
