"""End-to-end tests for the command-line harness, run in-process."""

import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from papnf import cli
from papnf.backbone import TransformerBackbone
from papnf.checkpoint import read_container, write_container
from papnf.cli import main
from papnf.synthetic import ar1_seasonal, write_csv
from papnf.train import load_checkpoint, save_checkpoint

LOOKBACK, HORIZON = 16, 4
TEST_LEN = 26  # -> 26 - 16 - 4 + 1 = 7 test windows
N_TEST_WINDOWS = 7
EVAL_SAMPLES = 4


def run(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    """Workspace with a small dataset and a fast config."""
    root = tmp_path_factory.mktemp("cli_ws")
    data_path = root / "data.csv"
    write_csv(ar1_seasonal(86, period=8, seed=5), str(data_path))
    config = {
        "version": 1,
        "seed": 3,
        "dataset": {"path": str(data_path), "period": 8},
        "split": {"train_len": 36, "val_len": 24, "test_len": TEST_LEN},
        "model": {
            "lookback": LOOKBACK,
            "horizon": HORIZON,
            "patch_len": 8,
            "d_n": 6,
            "d_c": 4,
            "d_h": 8,
            "d_u": 3,
            "t_flow": 2,
            "k_prefix": 2,
            "recon_hidden": 10,
            "hyper_hidden": 6,
            "backbone": {
                "n_layers": 1,
                "n_heads": 2,
                "d": 8,
                "ffn_width": 16,
                "max_len": 8,
            },
        },
        "train": {
            "learning_rate": 1e-3,
            "batch_size": 8,
            "epochs": 1,
            "objective": "energy",
            "train_samples": 2,
            "val_samples": 2,
        },
        "eval": {"n_samples": EVAL_SAMPLES},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return {"root": root, "config": str(cfg_path), "data": str(data_path), "dict": config}


@pytest.fixture(scope="session")
def trained(ws):
    """One trained checkpoint shared by the read-only commands."""
    out = ws["root"] / "train_out"
    assert run("train", "--config", ws["config"], "--out", str(out)) == 0
    ckpt = out / "checkpoint.papnf"
    assert ckpt.exists()
    return {"out": out, "checkpoint": str(ckpt)}


class TestConfigHandling:
    def test_unknown_keys_are_listed_and_exit_2(self, ws, tmp_path, capsys):
        cfg = dict(ws["dict"])
        cfg["modle"] = {}
        cfg["model"] = dict(cfg["model"], loopback=3)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "modle" in err and "model.loopback" in err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("train", "--config", str(path)) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run("train", "--config", str(tmp_path / "nope.json")) == 2

    def test_missing_dataset_path_exits_2(self, ws, tmp_path):
        cfg = {k: v for k, v in ws["dict"].items() if k != "dataset"}
        path = tmp_path / "no_data.json"
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    def test_dataset_file_missing_exits_2(self, ws, tmp_path):
        cfg = dict(ws["dict"], dataset={"path": str(tmp_path / "ghost.csv")})
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    def test_unsupported_version_exits_2(self, ws, tmp_path):
        cfg = dict(ws["dict"], version=99)
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    def test_channel_mismatch_exits_2(self, ws, tmp_path):
        out = tmp_path / "o"
        code = run(
            "train", "--config", ws["config"], "--out", str(out),
            "--set", "model.channels=5",
        )
        assert code == 2

    def test_split_longer_than_series_exits_2(self, ws, tmp_path, capsys):
        data = tmp_path / "rows120.csv"
        write_csv(ar1_seasonal(120, period=8, seed=5), str(data))
        out = tmp_path / "o"
        code = run(
            "train", "--config", ws["config"], "--out", str(out),
            "--set", f"dataset.path={data}", "--set", "split.test_len=400",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: split: split needs 460 rows but the series has 120")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep-prefix"])
    def test_bad_train_section_exits_2_before_pretraining(self, ws, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = run(
            command, "--config", ws["config"], "--out", str(out),
            "--set", 'model.backbone_kind="frozen_checkpoint"', "--set", "pretrain.steps=2",
            "--set", "train.epochs=1.5",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "config error: train.epochs: expected int, got 1.5" in captured.err
        assert "pretrained backbone" not in captured.out
        assert not (out / "backbone.papnf").exists()

    def test_bad_train_section_exits_2_from_ablate(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        code = run("ablate", "--config", ws["config"], "--out", str(out), "--set", "train.epochs=0")
        assert code == 2
        assert "config error: train: epochs must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_token_budget_exits_2_before_pretraining(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(
            "train", "--config", ws["config"], "--out", str(out), "--set", "model.k_prefix=7",
            "--set", 'model.backbone_kind="frozen_checkpoint"', "--set", "pretrain.steps=3",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "config error: model: K+M = 9 tokens exceed backbone max_len 8" in captured.err
        assert "pretrained backbone" not in captured.out
        assert list(out.iterdir()) == []

    def test_seed_flag_lands_in_resolved_config(self, ws, trained, tmp_path):
        out = tmp_path / "seeded"
        code = run(
            "baseline", "--config", ws["config"], "--out", str(out), "--seed", "11"
        )
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 11

    def test_set_overrides_nested_value(self, ws, tmp_path):
        out = tmp_path / "two_epochs"
        code = run(
            "train", "--config", ws["config"], "--out", str(out),
            "--set", "train.epochs=2",
        )
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["train"]["epochs"] == 2
        rows = read_rows(out / "training_log.csv")
        assert len(rows) == 1 + 2


    @pytest.mark.parametrize(
        "command, sets, needle",
        [
            ("train", ["model.d_n=1.5"], "model.d_n: expected int, got 1.5"),
            ("train", ["model.t_flow=1.5"], "model.t_flow: expected int"),
            ("train", ["train.epochs=1.5"], "train.epochs: expected int"),
            ("train", ['split.train_len="x"'], "split.train_len: expected int"),
            ("train", ["model.backbone.n_heads=0"], "model.backbone: n_heads"),
            ("train", ["model.backbone.d=abc"], "model.backbone.d: expected int, got 'abc'"),
            ("train", ["model.backbone.d=7"], "model.backbone: d=7 not divisible"),
            ("train", ["model.patch_len=0"], "model: lookback and patch_len must be positive"),
            ("train", ["model.backbone_kind=bogus"], "model: unknown backbone kind 'bogus'"),
            (
                "train",
                ['model.no_global_context="yes"'],
                "model.no_global_context: expected bool, got 'yes'",
            ),
            (
                "train",
                ['model.backbone_kind="frozen_checkpoint"', 'pretrain.steps="x"'],
                "pretrain.steps: expected int",
            ),
            (
                "train",
                ['model.backbone_kind="frozen_checkpoint"', "pretrain.steps=0"],
                "pretrain: steps and batch must be positive",
            ),
            ("eval", ['eval.n_samples="x"'], "eval.n_samples: expected int"),
            ("eval", ["eval.n_samples=0"], "eval.n_samples must be >= 1"),
            ("eval", ['eval.levels="x"'], "eval.levels: expected a list"),
            ("eval", ["eval.levels=[0.5,1.0]"], "eval.levels[1] must lie in (0, 1)"),
            ("baseline", ['dataset.period="x"'], "dataset.period: expected int"),
            ("baseline", ["dataset.period=0"], "dataset.period must be >= 1"),
            ("baseline", ["seed=1.5"], "seed: expected int"),
        ],
    )
    def test_ill_typed_values_exit_2_naming_the_key(
        self, ws, trained, tmp_path, capsys, command, sets, needle
    ):
        out = tmp_path / "o"
        argv = [command, "--config", ws["config"], "--out", str(out)]
        if command == "eval":
            argv += ["--checkpoint", trained["checkpoint"]]
        for assignment in sets:
            argv += ["--set", assignment]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err
        assert not out.exists() or not any(out.iterdir())  # nothing trained or written


class TestTrain:
    def test_artifacts_exist(self, trained):
        out = trained["out"]
        for name in ("checkpoint.papnf", "training_log.csv", "resolved_config.json"):
            assert (out / name).exists(), name

    def test_training_log_shape(self, trained):
        rows = read_rows(trained["out"] / "training_log.csv")
        assert rows[0] == ["epoch", "train_loss", "val_mse"]
        assert len(rows) == 1 + 1  # header + one epoch
        float(rows[1][1]), float(rows[1][2])  # cells parse as floats

    def test_rerun_is_bitwise_identical(self, ws, trained, tmp_path):
        out = tmp_path / "again"
        assert run("train", "--config", ws["config"], "--out", str(out)) == 0
        first, second = trained["out"], out
        assert (first / "checkpoint.papnf").read_bytes() == (
            second / "checkpoint.papnf"
        ).read_bytes()
        assert (first / "training_log.csv").read_bytes() == (
            second / "training_log.csv"
        ).read_bytes()


class TestEval:
    def test_writes_metrics_and_quantiles(self, ws, trained, tmp_path):
        out = tmp_path / "eval_out"
        code = run(
            "eval", "--config", ws["config"], "--out", str(out),
            "--checkpoint", trained["checkpoint"],
        )
        assert code == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["n_windows"] == N_TEST_WINDOWS
        assert np.isfinite(report["mse"])
        rows = read_rows(out / "quantiles.csv")
        assert len(rows) == 1 + N_TEST_WINDOWS * HORIZON * 1

    def test_window_flag_writes_fan_chart(self, ws, trained, tmp_path):
        out = tmp_path / "eval_svg"
        code = run(
            "eval", "--config", ws["config"], "--out", str(out),
            "--checkpoint", trained["checkpoint"], "--window", "0", "--svg",
        )
        assert code == 0
        svg = (out / "fan_window_0.svg").read_text()
        assert svg.startswith("<svg ")

    def test_window_out_of_range_exits_2(self, ws, trained, tmp_path):
        code = run(
            "eval", "--config", ws["config"], "--out", str(tmp_path / "o"),
            "--checkpoint", trained["checkpoint"], "--window", "99",
        )
        assert code == 2

    def test_window_out_of_range_writes_nothing(self, ws, trained, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(
            "eval", "--config", ws["config"], "--out", str(out),
            "--checkpoint", trained["checkpoint"], "--window", "0", "--window", "99",
        )
        assert code == 2
        assert "--window 99 out of range" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "tamper, needle",
        [
            (lambda h: h.pop("model"), "missing config keys: model"),
            (lambda h: h.pop("train"), "missing config keys: train"),
            (lambda h: h.update(extra=1), "unknown config keys: extra"),
            (lambda h: h["model"].update(d_x=1), "unknown config keys: model.d_x"),
            (lambda h: h["model"].update(d_n="8"), "model.d_n: expected int, got '8'"),
            (lambda h: h["train"]["model"]["backbone"].update(d=8.0), "train.model.backbone.d"),
            (lambda h: h.update(model=[]), "model: expected an object"),
            (lambda h: h.update(val_mse="x"), "val_mse: expected float"),
            (lambda h: h.update(history=[1]), r"history[0]: expected dict"),
        ],
    )
    def test_tampered_header_exits_1_naming_the_field(
        self, ws, trained, tmp_path, capsys, tamper, needle
    ):
        header, weights = read_container(trained["checkpoint"])
        tamper(header)
        bad = tmp_path / "tampered.papnf"
        write_container(str(bad), header, weights)
        code = run(
            "eval", "--config", ws["config"], "--out", str(tmp_path / "o"),
            "--checkpoint", str(bad),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad header" in err and needle in err

    def test_non_object_header_exits_1(self, ws, trained, tmp_path, capsys):
        _, weights = read_container(trained["checkpoint"])
        bad = tmp_path / "list_header.papnf"
        write_container(str(bad), [1, 2], weights)
        code = run(
            "eval", "--config", ws["config"], "--out", str(tmp_path / "o"),
            "--checkpoint", str(bad),
        )
        assert code == 1
        assert "header is not a JSON object" in capsys.readouterr().err

    def test_legacy_no_pap_header(self, ws, trained, tmp_path, capsys):
        # headers written while ModelConfig had a no_pap switch: false loads, true fails
        header, weights = read_container(trained["checkpoint"])
        outputs = []
        for value in (False, True):
            header["model"]["no_pap"] = header["train"]["model"]["no_pap"] = value
            legacy = tmp_path / f"legacy_{value}.papnf"
            write_container(str(legacy), header, weights)
            out = tmp_path / f"o_{value}"
            outputs.append(out)
            code = run(
                "eval", "--config", ws["config"], "--out", str(out), "--checkpoint", str(legacy),
            )
            assert code == (1 if value else 0)
        assert load_checkpoint(str(tmp_path / "legacy_False.papnf")).model_config == (
            load_checkpoint(trained["checkpoint"]).model_config
        )
        assert "unknown config keys: model.no_pap" in capsys.readouterr().err
        assert run(
            "eval", "--config", ws["config"], "--out", str(tmp_path / "o_now"),
            "--checkpoint", trained["checkpoint"],
        ) == 0
        metrics = (tmp_path / "o_now" / "metrics.json").read_bytes()
        assert (outputs[0] / "metrics.json").read_bytes() == metrics

    def test_missing_checkpoint_flag_exits_2(self, ws, tmp_path):
        assert run("eval", "--config", ws["config"], "--out", str(tmp_path / "o")) == 2

    def test_nonfinite_ensemble_exits_1(self, ws, trained, tmp_path, capsys):
        ckpt = load_checkpoint(trained["checkpoint"])
        bad_weights = dict(ckpt.weights)
        bad_weights["recon.g2"] = np.full_like(ckpt.weights["recon.g2"], np.nan)
        bad = tmp_path / "nan.papnf"
        save_checkpoint(replace(ckpt, weights=bad_weights), str(bad))
        code = run(
            "eval", "--config", ws["config"], "--out", str(tmp_path / "o"),
            "--checkpoint", str(bad),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "window 0 " in err and "NaN or inf" in err

    def test_corrupt_checkpoint_exits_1(self, ws, tmp_path):
        bad = tmp_path / "bad.papnf"
        bad.write_bytes(b"PAPNF1\x00garbage")
        code = run(
            "eval", "--config", ws["config"], "--out", str(tmp_path / "o"),
            "--checkpoint", str(bad),
        )
        assert code == 1


class TestSample:
    def test_writes_ensemble_csv(self, ws, trained, tmp_path):
        out = tmp_path / "sample_out"
        code = run(
            "sample", "--config", ws["config"], "--out", str(out),
            "--checkpoint", trained["checkpoint"],
        )
        assert code == 0
        rows = read_rows(out / "ensemble.csv")
        assert rows[0] == ["window_id", "sample_id", "step", "channel", "value"]
        assert len(rows) == 1 + EVAL_SAMPLES * HORIZON * 1

    def test_svg_per_window(self, ws, trained, tmp_path):
        out = tmp_path / "sample_svg"
        code = run(
            "sample", "--config", ws["config"], "--out", str(out),
            "--checkpoint", trained["checkpoint"],
            "--window", "1", "--window", "2", "--svg",
        )
        assert code == 0
        svgs = sorted(p.name for p in out.glob("fan_window_*.svg"))
        assert len(svgs) == 2


class TestAblate:
    def test_four_arms_and_census_diff(self, ws, tmp_path):
        out = tmp_path / "ablate_out"
        assert run("ablate", "--config", ws["config"], "--out", str(out)) == 0
        rows = read_rows(out / "ablation.csv")
        assert rows[0] == ["arm", "mse", "mae", "delta_mse_pct", "delta_mae_pct"]
        arms = [r[0] for r in rows[1:]]
        assert arms == ["full", "no_pap", "random_backbone", "no_global_context"]
        full_row = rows[1]
        assert float(full_row[3]) == 0.0 and float(full_row[4]) == 0.0
        for r in rows[1:]:
            assert np.isfinite(float(r[1])) and np.isfinite(float(r[2]))

        meta = json.loads((out / "ablation.json").read_text())
        assert len(meta["windows_digest"]) == 64
        census = meta["census"]
        diff = set(census["full"]) ^ set(census["no_pap"])
        assert diff == {"prefix.P"}
        assert set(census["full"]) == set(census["random_backbone"])
        assert set(census["full"]) == set(census["no_global_context"])


    def test_splits_built_once_for_all_arms(self, ws, tmp_path, monkeypatch):
        calls = []
        real_prepare = cli._prepare

        def counting_prepare(cfg):
            calls.append(1)
            return real_prepare(cfg)

        monkeypatch.setattr(cli, "_prepare", counting_prepare)
        assert run("ablate", "--config", ws["config"], "--out", str(tmp_path / "a")) == 0
        assert len(calls) == 1


class TestSweepPrefix:
    def test_rows_sorted_ascending(self, ws, tmp_path):
        out = tmp_path / "sweep_out"
        code = run(
            "sweep-prefix", "--config", ws["config"], "--out", str(out),
            "--set", "sweep.k_list=[2,0]",
        )
        assert code == 0
        rows = read_rows(out / "prefix_sweep.csv")
        assert rows[0] == ["k_prefix", "mse", "mae"]
        ks = [int(r[0]) for r in rows[1:]]
        assert ks == [0, 2]

    def test_k0_runs_the_frozen_backbone_without_prefix_rows(self, ws, tmp_path, monkeypatch):
        lengths = []
        real_forward = TransformerBackbone.forward

        def counting_forward(self, x):
            lengths.append(x.shape[0])
            return real_forward(self, x)

        monkeypatch.setattr(TransformerBackbone, "forward", counting_forward)
        code = run(
            "sweep-prefix", "--config", ws["config"], "--out", str(tmp_path / "o"),
            "--set", "sweep.k_list=[0]",
        )
        assert code == 0
        assert lengths and set(lengths) == {LOOKBACK // 8}  # the M patch rows alone

    def test_over_budget_k_exits_2_before_pretraining(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(
            "sweep-prefix", "--config", ws["config"], "--out", str(out),
            "--set", "sweep.k_list=[2,7]", "--set", 'model.backbone_kind="frozen_checkpoint"',
            "--set", "pretrain.steps=3",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "config error: sweep.k_list[1]: K+M = 9 tokens exceed backbone max_len 8" in (
            captured.err
        )
        assert "pretrained backbone" not in captured.out
        assert not (out / "backbone.papnf").exists()

    def test_negative_k_exits_2(self, ws, tmp_path):
        code = run(
            "sweep-prefix", "--config", ws["config"], "--out", str(tmp_path / "o"),
            "--set", "sweep.k_list=[-1,2]",
        )
        assert code == 2


class TestBaseline:
    def test_without_checkpoint_delta_empty(self, ws, tmp_path):
        out = tmp_path / "base_out"
        assert run("baseline", "--config", ws["config"], "--out", str(out)) == 0
        rows = read_rows(out / "baselines.csv")
        names = [r[0] for r in rows[1:]]
        assert names == ["persistence", "seasonal_naive", "gaussian_residual"]
        assert all(r[-1] == "" for r in rows[1:])

    def test_with_checkpoint_delta_filled(self, ws, trained, tmp_path):
        out = tmp_path / "base_model_out"
        code = run(
            "baseline", "--config", ws["config"], "--out", str(out),
            "--checkpoint", trained["checkpoint"],
        )
        assert code == 0
        rows = read_rows(out / "baselines.csv")
        deltas = [float(r[-1]) for r in rows[1:]]
        assert all(np.isfinite(d) for d in deltas)
        assert (out / "model_metrics.json").exists()


class TestUsage:
    def test_no_arguments_exits_2(self):
        assert run() == 2

    def test_unknown_subcommand_exits_2(self):
        assert run("frobnicate") == 2

    def test_missing_required_config_flag_exits_2(self):
        assert run("train") == 2
