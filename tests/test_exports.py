"""Every name that a papnf module lists in ``__all__``, or that the benchmark traces, resolves."""

import ast
import importlib
import os
import pkgutil

import pytest

import papnf

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
