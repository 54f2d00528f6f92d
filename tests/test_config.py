"""Config dataclasses: one checked dict conversion, the run-config schema, --set fuzz."""

import argparse
import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papnf import cli, config
from papnf.backbone import BackboneArch
from papnf.config import ConfigError, check_value
from papnf.data import SplitSpec
from papnf.model import ModelConfig
from papnf.synthetic import ar1_seasonal, write_csv
from papnf.train import PretrainConfig, TrainConfig


class TestCheckValue:
    @pytest.mark.parametrize("value", [3, -2, 0, 10**30])
    def test_int_accepts_ints(self, value):
        assert check_value(value, int, "k") == value

    @pytest.mark.parametrize("value", [True, False, 1.0, 1.5, "1", None, [1], {}])
    def test_int_rejects_everything_else(self, value):
        with pytest.raises(ConfigError, match="^a.b: expected int"):
            check_value(value, int, "a.b")

    @pytest.mark.parametrize("value", [1, 0.5, float("inf")])
    def test_float_accepts_ints_and_floats(self, value):
        assert check_value(value, float, "k") == value

    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_float_rejects_bools_strings_and_none(self, value):
        with pytest.raises(ConfigError, match="expected float"):
            check_value(value, float, "k")

    @pytest.mark.parametrize("value", ["yes", 1, 0, None])
    def test_bool_must_be_a_bool(self, value):
        with pytest.raises(ConfigError, match="expected bool"):
            check_value(value, bool, "k")

    def test_optional_allows_none_and_checks_the_rest(self):
        assert check_value(None, str | None, "k") is None
        assert check_value("p", str | None, "k") == "p"
        with pytest.raises(ConfigError, match="expected str"):
            check_value(3, str | None, "k")

    def test_list_items_are_checked_with_their_index(self):
        assert check_value([0.1, 1], list[float], "levels") == [0.1, 1]
        with pytest.raises(ConfigError, match=r"^levels\[1\]: expected float"):
            check_value([0.1, "x"], list[float], "levels")
        with pytest.raises(ConfigError, match="expected a list"):
            check_value("x", list[float], "levels")

    def test_nested_config_accepts_an_instance_or_a_dict(self):
        arch = BackboneArch(n_layers=1)
        assert check_value(arch, BackboneArch, "arch") is arch
        assert check_value({"n_layers": 1}, BackboneArch, "arch") == arch


class TestFromDict:
    @pytest.mark.parametrize(
        "cfg",
        [
            BackboneArch(n_layers=0, n_heads=2, d=6),
            ModelConfig(lookback=24, horizon=4, channels=2, backbone_checkpoint="bb.papnf"),
            TrainConfig(model=ModelConfig(lookback=16, horizon=4, channels=1), epochs=3),
            PretrainConfig(arch=BackboneArch(max_len=16), seq_len=12, learning_rate=5e-4),
            SplitSpec(5, 6, 7),
        ],
    )
    def test_round_trip(self, cfg):
        d = cfg.to_dict()
        assert d == dataclasses.asdict(cfg)
        assert type(cfg).from_dict(d) == cfg

    def test_unknown_keys_are_named_with_their_path(self):
        with pytest.raises(ConfigError, match="unknown config keys: model.backbone.dd, model.backbone.e"):
            ModelConfig.from_dict(
                {"lookback": 8, "horizon": 2, "channels": 1, "backbone": {"dd": 1, "e": 2}},
                "model",
            )

    def test_missing_required_keys_are_named(self):
        with pytest.raises(ConfigError, match="missing config keys: split.val_len, split.test_len"):
            SplitSpec.from_dict({"train_len": 3}, "split")

    def test_ill_typed_nested_value_names_the_full_path(self):
        with pytest.raises(ConfigError, match=r"^model\.backbone\.d: expected int, got 'abc'"):
            ModelConfig.from_dict(
                {"lookback": 8, "horizon": 2, "channels": 1, "patch_len": 4, "backbone": {"d": "abc"}},
                "model",
            )

    def test_constructor_errors_name_the_object(self):
        with pytest.raises(ConfigError, match=r"^model\.backbone: d=7 not divisible by n_heads=4"):
            ModelConfig.from_dict(
                {"lookback": 8, "horizon": 2, "channels": 1, "patch_len": 4, "backbone": {"d": 7}},
                "model",
            )

    def test_non_object_is_rejected(self):
        with pytest.raises(ConfigError, match="^arch: expected an object"):
            BackboneArch.from_dict([1, 2], "arch")

    def test_values_are_not_coerced(self):
        with pytest.raises(ConfigError, match="n_layers: expected int, got 2.0"):
            BackboneArch.from_dict({"n_layers": 2.0})
        with pytest.raises(ConfigError, match="d: expected int, got '64'"):
            BackboneArch.from_dict({"d": "64"})

    def test_unknown_keys_are_looked_for_once_per_section(self, monkeypatch):
        walked = []
        real = config._unknown_keys

        def counting(cls, d, path):
            walked.append(path)
            return real(cls, d, path)

        monkeypatch.setattr(config, "_unknown_keys", counting)
        cfg = TrainConfig(model=ModelConfig(lookback=16, horizon=4, channels=1), epochs=3)
        assert TrainConfig.from_dict(cfg.to_dict(), "train") == cfg
        assert walked == ["train", "train.model", "train.model.backbone"]

    def test_type_hints_are_resolved_once_per_class(self):
        config._hints.cache_clear()
        for _ in range(3):
            SplitSpec.from_dict({"train_len": 1, "val_len": 2, "test_len": 3})
        info = config._hints.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestModelConfigChecks:
    @pytest.mark.parametrize("patch_len", [0, -1, 17])
    def test_patch_len_within_lookback(self, patch_len):
        with pytest.raises(ValueError, match="patch_len"):
            ModelConfig(lookback=16, horizon=4, channels=1, patch_len=patch_len)

    def test_patch_len_equal_to_lookback_is_allowed(self):
        assert ModelConfig(lookback=16, horizon=4, channels=1, patch_len=16).n_patches == 1

    @pytest.mark.parametrize("kind", ["identity", "bogus"])
    def test_backbone_kind_must_be_known(self, kind):
        with pytest.raises(ValueError, match="unknown backbone kind"):
            ModelConfig(lookback=16, horizon=4, channels=1, backbone_kind=kind)

    @pytest.mark.parametrize("field", ["d_n", "d_c", "d_h", "d_u", "recon_hidden", "hyper_hidden"])
    def test_widths_are_positive(self, field):
        with pytest.raises(ValueError, match=">= 1"):
            ModelConfig(lookback=16, horizon=4, channels=1, **{field: 0})

    @pytest.mark.parametrize("field", ["n_heads", "d", "ffn_width", "max_len"])
    def test_backbone_sizes_are_positive(self, field):
        with pytest.raises(ValueError, match=">= 1"):
            BackboneArch(**{field: 0})

    def test_pretrain_seq_len_needs_a_target(self):
        with pytest.raises(ValueError, match="seq_len"):
            PretrainConfig(seq_len=1)


# -- the run-config schema and the --set fuzz -----------------------------------------


def _leaves(cls, prefix=""):
    """Every key path a run config may set, derived from the dataclass tree."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        sub = [t for t in (hints[f.name], *typing.get_args(hints[f.name])) if config._is_config(t)]
        if sub:
            yield from _leaves(sub[0], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}"


LEAVES = sorted(_leaves(cli.RunConfig))
SERIES_LEN = 120


def test_the_run_config_has_the_41_documented_keys():
    sections = {"dataset": 2, "split": 3, "model": 20, "train": 6, "eval": 2, "sweep": 1,
                "pretrain": 4}
    assert len(LEAVES) == 41
    assert {"version", "seed", "out"} <= set(LEAVES)
    for name, count in sections.items():
        assert sum(leaf.split(".")[0] == name for leaf in LEAVES) == count, name
    assert not {"train.model", "train.seed", "pretrain.arch", "pretrain.seed"} & set(LEAVES)


@pytest.fixture(scope="module")
def base_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_csv(ar1_seasonal(SERIES_LEN, period=8, seed=5), str(root / "data.csv"))
    cfg = {
        "version": 1,
        "seed": 3,
        "out": str(root / "out"),
        "dataset": {"path": str(root / "data.csv"), "period": 8},
        "split": {"train_len": 50, "val_len": 30, "test_len": 40},
        "model": {
            "lookback": 16,
            "horizon": 4,
            "patch_len": 8,
            "backbone": {"n_layers": 1, "n_heads": 2, "d": 8, "ffn_width": 16, "max_len": 8},
        },
        "train": {"epochs": 1, "train_samples": 2, "val_samples": 2},
        "eval": {"n_samples": 4, "levels": [0.5, 0.9]},
        "sweep": {"k_list": [0, 2]},
        "pretrain": {"steps": 3, "batch": 2, "seq_len": 48},
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _build_all(config_path, sets):
    """The whole command set-up bar the output directory, plus the pretraining config."""
    args = argparse.Namespace(config=config_path, set=sets, seed=None, out=None)
    run, _ = cli._prepare(args)
    cli._pretrain_config(run, run.model)


def test_base_config_builds(base_config):
    _build_all(base_config, [])


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=5,
)


@pytest.mark.parametrize("path", LEAVES)
@settings(max_examples=40, deadline=None)
@given(value=json_values)
def test_any_set_value_builds_or_is_a_config_error(base_config, path, value):
    try:
        _build_all(base_config, [f"{path}={json.dumps(value)}"])
    except ConfigError:
        pass
