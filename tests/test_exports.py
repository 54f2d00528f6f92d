"""Every name that a papnf module lists in ``__all__``, or that the benchmark traces, resolves;
every name a papnf module imports is used; every weight of a model is named by exactly one
layer."""

import ast
import importlib
import os
import pkgutil

import pytest

import papnf
from papnf.backbone import BackboneArch
from papnf.model import ModelConfig, PapNfModel
from papnf.tensor import Layer, Tensor

MODULES = ["papnf"] + [f"papnf.{info.name}" for info in pkgutil.iter_modules(papnf.__path__)]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def _traced_names():
    """The LAYERS tuple of ``perfbench/spans.py``, read from its source: perfbench is no package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "spans.py")) as fh:
        tree = ast.parse(fh.read())
    (layers,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    ]
    return ast.literal_eval(layers)


def test_the_package_modules_declare_exports():
    assert {"papnf", "papnf.metrics", "papnf.tensor", "papnf.evaluate"} <= set(EXPORTING)


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import_resolves_every_listed_name(module):
    exec(f"from {module} import *", {})  # AttributeError on a stale entry


@pytest.mark.parametrize("module, attr", [(module, attr) for _, module, attr in _traced_names()])
def test_every_traced_name_resolves(module, attr):
    # a traced run fails on a missing name only inside a benchmark subprocess
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))  # Tracer.install reads the class's __dict__
    else:
        assert callable(getattr(mod, attr, None))


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used_or_exported(module):
    # no linter runs here, so an import a deletion leaves behind is caught by this scan
    path = importlib.import_module(module).__file__
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(module), "__all__", ()))
    assert sorted(imported - used - exported) == []


def test_every_weight_holder_of_the_model_is_a_layer():
    # parameters() and checkpoints name the weights through Layer.parameters: a weight held
    # elsewhere would go unsaved, and two layers of one name would overwrite each other's
    arch = BackboneArch(n_layers=1, n_heads=1, d=4, ffn_width=8, max_len=8)
    cfg = ModelConfig(lookback=8, horizon=2, channels=2, patch_len=4, d_n=3, d_c=3, d_h=3,
                      d_u=2, t_flow=2, k_prefix=1, recon_hidden=3, hyper_hidden=3, backbone=arch)
    model = PapNfModel(cfg, seed=0)
    layers = []
    for attr, value in vars(model).items():
        for obj in value if isinstance(value, list) else [value]:
            held = [obj] if isinstance(obj, Tensor) else list(getattr(obj, "__dict__", {}).values())
            if attr != "backbone" and any(isinstance(v, Tensor) for v in held):
                assert isinstance(obj, Layer), attr
                layers.append(obj)
    assert len({layer.name for layer in layers}) == len(layers)
    assert len(model.parameters()) == sum(len(layer.parameters()) for layer in layers)
