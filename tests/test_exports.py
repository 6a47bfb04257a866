"""Every name a torusdpa module exports is defined there, so that
``from torusdpa.<module> import *`` works after a deletion."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import torusdpa
from torusdpa.particles import ParticleState

MODULES = ["torusdpa"] + [f"torusdpa.{m.name}" for m in pkgutil.iter_modules(torusdpa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_kernel_set_is_the_only_schedule_source():
    # the engines read the parameters from the kernel set they are given, so
    # no public callable takes a schedule beside it and particles carry none
    takers = []
    for name in ("particles", "fields", "pde_nonlocal", "harness"):
        module = importlib.import_module(f"torusdpa.{name}")
        for public in module.__all__:
            obj = getattr(module, public)
            members = [(public, obj)]
            if inspect.isclass(obj):
                members += [(f"{public}.{k}", v) for k, v in vars(obj).items()
                            if callable(v) and not k.startswith("_")]
            takers += [f"{name}.{label}" for label, fn in members if callable(fn)
                       and "schedule" in inspect.signature(fn).parameters]
    assert takers == []
    assert [f.name for f in dataclasses.fields(ParticleState)] == ["positions", "time"]
