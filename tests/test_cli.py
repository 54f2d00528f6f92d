"""End-to-end tests for the command-line harness, run in-process and as a process."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import papnf
from papnf import backbone as bb
from papnf import cli, config
from papnf.backbone import TransformerBackbone
from papnf.checkpoint import read_container, write_container
from papnf.cli import ConfigError, main
from papnf.synthetic import ar1_seasonal, write_csv
from papnf.train import TrainingDiverged, load_checkpoint, save_checkpoint

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

    def test_unknown_keys_exit_2_before_the_dataset_is_read(self, ws, tmp_path, capsys):
        lines = (ws["root"] / "data.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"  # a malformed cell
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = dict(ws["dict"], trian={}, dataset={"path": str(data), "period": 8})
        path = tmp_path / "trian.json"
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "unknown config keys: trian" in capsys.readouterr().err
        assert run("train", "--config", ws["config"], "--set", f'dataset.path="{data}"',
                   "--out", str(tmp_path / "o")) == 1  # the CSV alone is a runtime error

    def test_the_keys_are_walked_once(self, ws, monkeypatch):
        calls = []
        check_keys = config.DictConfig.check_keys.__func__

        def spy(cls, d, path=""):
            calls.append(cls)
            return check_keys(cls, d, path)

        monkeypatch.setattr(config.DictConfig, "check_keys", classmethod(spy))
        args = cli.build_parser().parse_args(["train", "--config", ws["config"]])
        run_cfg, series = cli.resolve_config(args)
        assert calls == [cli.RunConfig]
        assert run_cfg.model.channels == series.channels

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

    def test_channel_mismatch_exits_2(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(
            "train", "--config", ws["config"], "--out", str(out),
            "--set", "model.channels=5",
        )
        assert code == 2
        expected = "config error: config declares 5 channels but the dataset has 1\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

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
        assert not out.exists()

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
        assert not out.exists()

    def test_one_eval_sample_exits_2_before_ablating(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(
            "ablate", "--config", ws["config"], "--out", str(out), "--set", "eval.n_samples=1",
            "--set", 'model.backbone_kind="frozen_checkpoint"', "--set", "pretrain.steps=2",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "config error: eval: n_samples must be >= 2, got 1" in captured.err
        assert "pretrained backbone" not in captured.out
        assert not (out / "ablation.csv").exists()
        assert not (out / "backbone.papnf").exists()

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
        assert not out.exists()

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

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_empty_out_exits_2_writing_nothing(self, ws, tmp_path, monkeypatch, capsys, spelling):
        run_dir = tmp_path / "cwd"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        if spelling == "flag":
            argv = ["--config", ws["config"], "--out", ""]
        else:
            path = tmp_path / "empty_out.json"
            path.write_text(json.dumps(dict(ws["dict"], out="")))
            argv = ["--config", str(path)]
        assert run("train", *argv) == 2
        assert capsys.readouterr().err == "config error: out must be a non-empty directory path\n"
        assert list(run_dir.iterdir()) == []

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
            ("eval", ["eval.n_samples=0"], "eval: n_samples must be >= 2"),
            ("eval", ['eval.levels="x"'], "eval.levels: expected a list"),
            ("eval", ["eval.levels=[0.5,1.0]"], "eval: levels[1] must lie in (0, 1)"),
            ("baseline", ['dataset.period="x"'], "dataset.period: expected int"),
            ("baseline", ["dataset.period=0"], "dataset: period must be >= 1"),
            ("baseline", ["seed=1.5"], "seed: expected int"),
            (
                "eval",
                ["eval.levels=[0.9000001,0.9000002]"],
                "eval: levels[1] repeats the coverage label '0.9' of levels[0]",
            ),
            ("eval", ["train.epochs=1.5"], "train.epochs: expected int, got 1.5"),
            ("sample", ["train.batch_size=0"], "train: batch_size 0 outside [1, 16]"),
            ("baseline", ["train.learning_rate=5"], "train: learning_rate 5 outside"),
            ("baseline", ["pretrain.seq_len=1"], "pretrain: seq_len 1 must be >= 2"),
            ("eval", ["split={}"], "missing config keys: split.train_len, split.val_len"),
            ("sample", ["sweep.k_list=[]"], "sweep: k_list must be non-empty"),
            ("train", ["model.channels=true"], "model.channels: expected int, got True"),
            ("train", ["model.channels=1.0"], "model.channels: expected int, got 1.0"),
            ("train", ['model.channels="1"'], "model.channels: expected int, got '1'"),
        ],
    )
    def test_ill_typed_values_exit_2_naming_the_key(
        self, ws, trained, tmp_path, capsys, command, sets, needle
    ):
        out = tmp_path / "o"
        argv = [command, "--config", ws["config"], "--out", str(out)]
        if command in ("eval", "sample"):
            argv += ["--checkpoint", trained["checkpoint"]]
        for assignment in sets:
            argv += ["--set", assignment]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err
        assert not out.exists()  # nothing trained or written


    @pytest.mark.parametrize("assignment", ["=3", "model..d=1", "model.=1", ".seed=1"])
    def test_set_with_an_empty_key_segment_exits_2(self, ws, tmp_path, capsys, assignment):
        out = tmp_path / "o"
        code = run("train", "--config", ws["config"], "--out", str(out), "--set", assignment)
        assert code == 2
        expected = f"config error: --set expects key.path=value, got {assignment!r}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, sets, needle",
        [
            (
                "train",
                ["split.val_len=10", "split.train_len=50",
                 'model.backbone_kind="frozen_checkpoint"', "pretrain.steps=2"],
                "split: val_len 10 holds no window of lookback 16 + horizon 4",
            ),
            ("eval", ["split.test_len=10"], "split: test_len 10 holds no window"),
            ("baseline", ["split=null"], "split: val_len 17 holds no window"),  # 86 rows: 51/17/18
        ],
    )
    def test_a_segment_without_a_window_exits_2_writing_nothing(
        self, ws, trained, tmp_path, capsys, command, sets, needle
    ):
        out = tmp_path / "o"
        argv = [command, "--config", ws["config"], "--out", str(out)]
        if command == "eval":
            argv += ["--checkpoint", trained["checkpoint"]]
        for assignment in sets:
            argv += ["--set", assignment]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {needle}")
        assert "pretrained backbone" not in captured.out
        assert not out.exists()

    def test_a_null_split_is_the_default_split(self, ws, tmp_path):
        data = tmp_path / "rows200.csv"
        write_csv(ar1_seasonal(200, period=8, seed=5), str(data))
        out = tmp_path / "o"
        code = run(
            "baseline", "--config", ws["config"], "--out", str(out),
            "--set", f"dataset.path={data}", "--set", "split=null",
        )
        assert code == 0
        assert json.loads((out / "resolved_config.json").read_text())["split"] is None
        assert len(read_rows(out / "baselines.csv")) == 1 + 3

    def test_readme_minimal_config_resolves(self, tmp_path):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            readme = fh.read()
        block = readme.split("Minimal config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        path = tmp_path / "minimal.json"
        path.write_text(block)
        data = tmp_path / "data.csv"
        write_csv(ar1_seasonal(3000, period=24, seed=7), str(data))
        args = cli.build_parser().parse_args(
            ["train", "--config", str(path), "--set", f"dataset.path={data}"]
        )
        resolved, splits = cli._prepare(args)
        assert resolved.model.channels == 1
        assert resolved.to_dict() == cli.RunConfig.from_dict(resolved.to_dict()).to_dict()
        assert {name: len(w) for name, w in splits.items()} == {
            "train": 1800 - 96 - 24 + 1, "val": 600 - 96 - 24 + 1, "test": 600 - 96 - 24 + 1,
        }


class TestResolvedConfig:
    """resolved_config.json is the whole checked config, and a rerun from it repeats the run."""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("train", []),
            ("eval", ["--window", "0", "--window", "3", "--svg"]),
            ("sample", ["--window", "1", "--window", "2", "--svg"]),
            ("ablate", []),
            ("ablate", ["--set", 'model.backbone_kind="frozen_checkpoint"',
                        "--set", "pretrain.steps=2"]),
            ("sweep-prefix", ["--set", "sweep.k_list=[0,2]"]),
            ("baseline", []),
        ],
    )
    def test_a_rerun_from_it_is_bitwise_identical(self, ws, trained, tmp_path, command, extra):
        if command in ("eval", "sample", "baseline"):
            extra = [*extra, "--checkpoint", trained["checkpoint"]]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(command, "--config", ws["config"], "--out", str(first), *extra) == 0
        resolved = first / "resolved_config.json"
        assert run(command, "--config", str(resolved), "--out", str(second), *extra) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            if name != "resolved_config.json":
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
        again = json.loads((second / "resolved_config.json").read_text())
        assert json.loads(resolved.read_text()) == {**again, "out": str(first)}

    def test_it_holds_every_default(self, trained):
        resolved = json.loads((trained["out"] / "resolved_config.json").read_text())
        assert resolved == cli.RunConfig.from_dict(resolved).to_dict()
        assert resolved["model"]["channels"] == 1
        assert resolved["train"] == {
            "learning_rate": 1e-3, "batch_size": 8, "epochs": 1, "objective": "energy",
            "train_samples": 2, "val_samples": 2,
        }
        assert resolved["sweep"] == {"k_list": [1, 3, 5, 8, 12]}
        assert resolved["pretrain"] == {
            "steps": 2000, "batch": 8, "seq_len": 48, "learning_rate": 1e-3,
        }
        assert "resolved_channels" not in resolved and "checkpoint" not in resolved


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

    def test_a_checkpoint_on_a_pretrained_backbone_does_not_depend_on_out(self, ws, tmp_path):
        sets = ["--set", 'model.backbone_kind="frozen_checkpoint"', "--set", "pretrain.steps=2"]
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run("train", "--config", ws["config"], "--out", str(out), *sets) == 0
        for name in ("backbone.papnf", "checkpoint.papnf", "training_log.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        header = load_checkpoint(str(first / "checkpoint.papnf"))
        assert header.model_config.backbone_checkpoint is None


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

    def test_config_error_is_reported_before_the_checkpoint_is_read(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.papnf"
        bad.write_bytes(b"PAPNF1\x00garbage")
        code = run(
            "eval", "--config", ws["config"], "--out", str(tmp_path / "o"),
            "--checkpoint", str(bad), "--set", "train.epochs=1.5",
        )
        assert code == 2
        assert "config error: train.epochs: expected int" in capsys.readouterr().err

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

    def test_a_frozen_checkpoint_backbone_is_read_once(self, ws, tmp_path, monkeypatch):
        paths = []
        real_load = bb.load_frozen_checkpoint

        def counting_load(path, expected):
            paths.append(path)
            return real_load(path, expected)

        monkeypatch.setattr(bb, "load_frozen_checkpoint", counting_load)
        monkeypatch.setattr(cli, "load_frozen_checkpoint", counting_load, raising=False)
        out = tmp_path / "a"
        sets = ["--set", 'model.backbone_kind="frozen_checkpoint"', "--set", "pretrain.steps=2"]
        assert run("ablate", "--config", ws["config"], "--out", str(out), *sets) == 0
        assert paths == [str(out / "backbone.papnf")]  # not once per arm on it

    def test_splits_built_once_for_all_arms(self, ws, tmp_path, monkeypatch):
        calls = []
        real_prepare = cli._prepare

        def counting_prepare(cfg):
            calls.append(1)
            return real_prepare(cfg)

        monkeypatch.setattr(cli, "_prepare", counting_prepare)
        assert run("ablate", "--config", ws["config"], "--out", str(tmp_path / "a")) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "settings, trainings",
        [([], 3), (['model.backbone_kind="frozen_checkpoint"', "pretrain.steps=2"], 4)],
    )
    def test_an_arm_equal_to_a_trained_one_is_not_trained_again(
        self, ws, tmp_path, monkeypatch, settings, trainings
    ):
        configs = []
        real_train = cli._train_model

        def counting_train(cfg, splits, model_cfg, backbone):
            configs.append(model_cfg)
            return real_train(cfg, splits, model_cfg, backbone)

        monkeypatch.setattr(cli, "_train_model", counting_train)
        sets = [arg for setting in settings for arg in ("--set", setting)]
        out = tmp_path / "a"
        assert run("ablate", "--config", ws["config"], "--out", str(out), *sets) == 0
        assert len(configs) == trainings
        assert len(set(configs)) == trainings
        rows = {r[0]: r[1:] for r in read_rows(out / "ablation.csv")[1:]}
        assert len(rows) == 4
        if trainings == 3:  # on a random base, random_backbone is the full model
            assert rows["random_backbone"] == rows["full"]


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
            lengths.append(x.shape[-2])  # rows per window; sampling stacks windows
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

    @pytest.mark.parametrize(
        "error, code, message",
        [
            (TrainingDiverged(1, 0, float("nan"), []), 1, "error: k_prefix 0 failed: "),
            (ConfigError("train: boom"), 2, "config error: train: boom"),
        ],
    )
    def test_a_failing_k_is_named(self, ws, tmp_path, monkeypatch, capsys, error, code, message):
        def failing_train(cfg, splits, model_cfg, backbone):
            raise error

        monkeypatch.setattr(cli, "_train_model", failing_train)
        out = str(tmp_path / "o")
        argv = ["--config", ws["config"], "--out", out, "--set", "sweep.k_list=[2,0]"]
        assert run("sweep-prefix", *argv) == code
        assert capsys.readouterr().err.startswith(message)

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

    def test_model_metrics_use_the_eval_levels(self, ws, trained, tmp_path):
        common = ["--config", ws["config"], "--checkpoint", trained["checkpoint"],
                  "--set", "eval.levels=[0.5,0.9]"]
        assert run("eval", "--out", str(tmp_path / "e"), *common) == 0
        assert run("baseline", "--out", str(tmp_path / "b"), *common) == 0
        metrics = (tmp_path / "e" / "metrics.json").read_bytes()
        assert json.loads(metrics)["coverage"].keys() == {"0.5", "0.9"}
        assert (tmp_path / "b" / "model_metrics.json").read_bytes() == metrics
        rows = read_rows(tmp_path / "b" / "baselines.csv")  # coverage_90 still filled
        assert all(np.isfinite(float(r[5])) for r in rows[1:])


class TestOneTrainAndScorePath:
    def test_commands_report_the_same_point_metrics(self, ws, trained, tmp_path):
        """eval, baseline, ablate's full arm and sweep-prefix at the config's K agree bitwise."""
        ckpt = ["--checkpoint", trained["checkpoint"]]
        for command, extra in [
            ("eval", ckpt),
            ("baseline", ckpt),
            ("ablate", []),
            ("sweep-prefix", ["--set", "sweep.k_list=[0,2]"]),
        ]:
            out = str(tmp_path / command)
            assert run(command, "--config", ws["config"], "--out", out, *extra) == 0
        k_prefix = ws["dict"]["model"]["k_prefix"]
        found = []
        for name in ("eval/metrics.json", "baseline/model_metrics.json"):
            report = json.loads((tmp_path / name).read_text())
            found.append((report["mse"], report["mae"]))
        ablation = {r[0]: r for r in read_rows(tmp_path / "ablate" / "ablation.csv")[1:]}
        found.append((float(ablation["full"][1]), float(ablation["full"][2])))
        sweep_rows = read_rows(tmp_path / "sweep-prefix" / "prefix_sweep.csv")[1:]
        sweep = {int(r[0]): r for r in sweep_rows}
        found.append((float(sweep[k_prefix][1]), float(sweep[k_prefix][2])))
        assert len(set(found)) == 1, found


class TestUsage:
    def test_no_arguments_exits_2(self):
        assert run() == 2

    def test_unknown_subcommand_exits_2(self):
        assert run("frobnicate") == 2

    def test_missing_required_config_flag_exits_2(self):
        assert run("train") == 2

    def test_exit_codes_of_the_module_entry_point(self, ws, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(papnf.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def python_m(*argv):
            return subprocess.run(
                [sys.executable, "-m", "papnf.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )

        done = python_m()
        assert done.returncode == 2 and "usage: papnf" in done.stderr
        out = str(tmp_path / "o")
        done = python_m("train", "--config", ws["config"], "--out", out, "--set", "train.epochs=0")
        assert done.returncode == 2
        assert done.stderr.startswith("config error: train: epochs must be >= 1")
        bad = tmp_path / "bad.papnf"
        bad.write_bytes(b"PAPNF1\x00garbage")
        done = python_m("eval", "--config", ws["config"], "--out", out, "--checkpoint", str(bad))
        assert done.returncode == 1 and done.stderr.startswith("error: ")
