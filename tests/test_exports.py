"""Every name that a papnf module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import papnf

MODULES = ["papnf"] + [f"papnf.{info.name}" for info in pkgutil.iter_modules(papnf.__path__)]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_package_modules_declare_exports():
    assert {"papnf", "papnf.metrics", "papnf.tensor", "papnf.evaluate"} <= set(EXPORTING)


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import_resolves_every_listed_name(module):
    exec(f"from {module} import *", {})  # AttributeError on a stale entry
