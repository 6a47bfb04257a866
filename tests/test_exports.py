"""Every name a torusdpa module exports is defined there, so that
``from torusdpa.<module> import *`` works after a deletion."""

import importlib
import pkgutil

import pytest

import torusdpa

MODULES = ["torusdpa"] + [f"torusdpa.{m.name}" for m in pkgutil.iter_modules(torusdpa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
