"""Golden digests: sha256 literals of the bits the program trains, samples and writes.

"Reruns are bitwise deterministic" holds between two runs of one tree; these
literals hold it across trees. A change that claims byte identity with its
parent passes this module with the literals unchanged. Pinned here:

* ``fit`` weights and history, 2 epochs of 64 ``ett_like`` windows, at
  ``ModelConfig(96, 24, 1)`` (the OT channel) and ``ModelConfig(96, 24, 7)``;
* ``evaluate_split`` on 16 test windows at S=100: the ensembles and the
  report JSON;
* a 12-step ``pretrain_backbone`` file and its loss history;
* the CLI ``train`` and ``eval --window 0 --svg`` artifacts of one small
  config, each file whose bytes embed no path;
* the flow diagnostics ``flow_invert`` and ``flow_log_det`` on (4, 50, d_u)
  latents, one h row per window, through hypernets moved off their
  near-identity init.

The digests hold for one numpy and OpenBLAS build on one CPU kernel. A
dependency change re-pins them in a commit of its own that names the new
build; a failure message names the build the digests were computed on. The
work runs in a subprocess at ``OPENBLAS_NUM_THREADS=1``, so the bits do not
rest on the test run's thread count.

``python tests/test_golden_digests.py DIR`` writes the current digests, and
the build, to ``DIR/digests.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from papnf.backbone import BackboneArch
from papnf.cli import main
from papnf.data import make_windows
from papnf.evaluate import evaluate_split
from papnf.flow import flow_invert, flow_log_det
from papnf.model import ModelConfig, PapNfModel
from papnf.seeding import derive_seed, substream
from papnf.synthetic import ar1_seasonal, ett_like, write_csv
from papnf.train import PretrainConfig, TrainConfig, fit, pretrain_backbone

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
LOOKBACK, HORIZON = 96, 24
WINDOWS = (64, 8, 16)  # train, validation, test

# numpy 2.4.6, scipy-openblas 0.3.31.188.0 (DYNAMIC_ARCH, Haswell kernel)
GOLDEN = {
    "fit_c1_weights": "685a2303e58ba17fe967e582046c1a7ef727372e05da28aa5fd0f6b809400f1e",
    "fit_c1_history": "e1d77f54ab7ead90b5de9d075d4f66f67dd5dd4e938d7b4529db650b2a886afc",
    "eval_c1_ensembles": "42519aafa50e6af64916eb6ec8d6014288549ebee1685df297d1809c34a517f7",
    "eval_c1_report": "ecd3a15fffee6602a68f36e194e6c5ccae7bb4f9cdf9debe2751a0b445bfc802",
    "fit_c7_weights": "6172dd8a0a06c68d5a18e7445d06058b34e8dfab59f3c90308824885550f3729",
    "fit_c7_history": "bc7dd7290412239c6361b86f9b3652656ec5d3211e74caf178d1d00571bb17cd",
    "eval_c7_ensembles": "a5b143120a03b439de656e66908ca3cae23bf6d7cc031bb707a16be65f3c8dad",
    "eval_c7_report": "6c5208ed75bbc254f56bf2fac0ece6d6bbe1d54a3ff55399b462839b0e080fe0",
    "pretrain_file": "f9a37bedef364782d986f37f230ede28e5ddb6c33f5e7ed751c05e2695398ce5",
    "pretrain_history": "c7bd09d12b3a77142295d0b6a19af8aca029a15717fc93ce4782f91e08004910",
    "cli_train/checkpoint.papnf": "1d87ce16d1160e1cd0b397f6211cef95ca87f350585c3da23240a5b8b53de7df",
    "cli_train/training_log.csv": "8a0ed22e40e5992e628b5f51685a1d48a175b13f871ef1d28f550f7a2a2ec29d",
    "cli_eval/metrics.json": "9b32a2c1023a2e2d878d2563c118f9ced98fd6d8e63920d78c7d0a4d40e4ea8b",
    "cli_eval/quantiles.csv": "1544f09a6080b5cf4912d6dbd5656afbff0a978ada8c76698ee11b6a22473b7f",
    "cli_eval/fan_window_0.svg": "2f016e0a388b8b24b47a0454aa18fb0dd9e750f84ee959fad7dfa0c638ece5cc",
    "flow_invert": "b045306485ad5d5fba02d277b366f0795c528f865be0901535a4fbc446b28768",
    "flow_log_det": "526494cdf07121d4bf572906ac87304951a4a218ad89dcaaac9127e837b7299b",
}


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _json_sha(value) -> str:
    """Floats as their shortest repr, so the digest holds every bit."""
    return _sha(json.dumps(value, sort_keys=True).encode())


def _arrays_sha(arrays) -> str:
    return _sha(*(f"{a.shape}".encode() + np.ascontiguousarray(a).tobytes() for a in arrays))


def _model_digests(values, channels: int) -> dict:
    bounds = [0]
    for n in WINDOWS:
        bounds.append(bounds[-1] + LOOKBACK + HORIZON - 1 + n)
    train_w, val_w, test_w = (
        make_windows(values[a:b], LOOKBACK, HORIZON) for a, b in zip(bounds, bounds[1:])
    )
    cfg = ModelConfig(LOOKBACK, HORIZON, channels)
    model = PapNfModel(cfg, seed=derive_seed(0, "init"))
    ckpt = fit(model, train_w, val_w, TrainConfig(model=cfg, epochs=2, seed=0))
    report, ensembles = evaluate_split(model, test_w, n_samples=100, seed=0)
    names = sorted(ckpt.weights)
    tag = f"c{channels}"
    return {
        f"fit_{tag}_weights": _sha(
            json.dumps(names).encode(), _arrays_sha(ckpt.weights[n] for n in names).encode()
        ),
        f"fit_{tag}_history": _json_sha(
            {"history": ckpt.history, "val_mse": ckpt.val_mse, "best_epoch": ckpt.best_epoch}
        ),
        f"eval_{tag}_ensembles": _arrays_sha(e.samples for e in ensembles),
        f"eval_{tag}_report": _sha(report.to_json().encode()),
    }


def _pretrain_digests(out: str) -> dict:
    arch = BackboneArch(n_layers=2, n_heads=4, d=8, ffn_width=12, max_len=8)
    path = os.path.join(out, "pretrained.papnf")
    result = pretrain_backbone(PretrainConfig(steps=12, batch=3, seq_len=8, arch=arch), path)
    with open(path, "rb") as fh:
        return {"pretrain_file": _sha(fh.read()), "pretrain_history": _json_sha(result.history)}


def _cli_digests(out: str) -> dict:
    data = os.path.join(out, "data.csv")
    write_csv(ar1_seasonal(86, period=8, seed=5), data)
    config = {
        "version": 1,
        "seed": 3,
        "dataset": {"path": data, "period": 8},
        "split": {"train_len": 36, "val_len": 24, "test_len": 26},
        "model": {
            "lookback": 16, "horizon": 4, "patch_len": 8, "d_n": 6, "d_c": 4, "d_h": 8,
            "d_u": 3, "t_flow": 2, "k_prefix": 2, "recon_hidden": 10, "hyper_hidden": 6,
            "backbone": {"n_layers": 1, "n_heads": 2, "d": 8, "ffn_width": 16, "max_len": 8},
        },
        "train": {"epochs": 2, "train_samples": 4, "val_samples": 4},
        "eval": {"n_samples": 16},
    }
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    train_out, eval_out = os.path.join(out, "cli_train"), os.path.join(out, "cli_eval")
    ckpt = os.path.join(train_out, "checkpoint.papnf")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", cfg_path, "--out", train_out]) == 0
        assert main(["eval", "--config", cfg_path, "--out", eval_out, "--checkpoint", ckpt,
                     "--window", "0", "--svg"]) == 0
    digests = {}
    for name in GOLDEN:
        if name.startswith("cli_"):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = _sha(fh.read())
    return digests


def _flow_digests() -> dict:
    cfg = ModelConfig(LOOKBACK, HORIZON, 1)
    layers = PapNfModel(cfg, seed=derive_seed(0, "init")).flow_layers
    rng = substream(0, "golden", "flow")
    for layer in layers:  # final hypernet layers that make every step move its latents
        layer.U2.data = rng.normal(size=layer.U2.shape) * 0.5
        layer.c2.data = rng.normal(size=layer.c2.shape) * 0.5
    h = rng.normal(size=(4, 1, cfg.d_h))
    u = rng.normal(size=(4, 50, cfg.d_u))
    return {
        "flow_invert": _arrays_sha([flow_invert(u, h, layers)]),
        "flow_log_det": _arrays_sha([flow_log_det(u, h, layers)]),
    }


def compute(out: str) -> dict:
    """Every digest, and the numpy and BLAS build that computed them."""
    values = ett_like(3 * (LOOKBACK + HORIZON - 1) + sum(WINDOWS), seed=11).values
    digests = {
        **_model_digests(values[:, -1:], 1),
        **_model_digests(values, 7),
        **_pretrain_digests(out),
        **_cli_digests(out),
        **_flow_digests(),
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    build = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']} ({config})"}
    return {"digests": digests, "build": build}


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out / "digests.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_the_program_bits_match_their_golden_digest(computed, name):
    build = computed["build"]
    assert computed["digests"][name] == GOLDEN[name], (
        f"{name} moved, computed on numpy {build['numpy']} with BLAS {build['blas']}: "
        "a program change must keep every bit, and a dependency change re-pins the "
        "digests in a commit of its own"
    )


if __name__ == "__main__":
    target = sys.argv[1]
    result = compute(target)
    with open(os.path.join(target, "digests.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
