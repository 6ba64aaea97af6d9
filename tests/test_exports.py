"""Every module's __all__ names only what the module defines."""

import importlib
import pkgutil

import pytest

import weierdyn

MODULES = ["weierdyn"] + [f"weierdyn.{m.name}" for m in pkgutil.iter_modules(weierdyn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
