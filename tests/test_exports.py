"""Every name a torusdpa module exports is defined there, so that
``from torusdpa.<module> import *`` works after a deletion."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import torusdpa
from torusdpa.kernels import KernelSet
from torusdpa.particles import ParticleState

MODULES = ["torusdpa"] + [f"torusdpa.{m.name}" for m in pkgutil.iter_modules(torusdpa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def _public_callables(names):
    """(label, callable) for each public callable of the torusdpa modules
    named, and each public method of their public classes."""
    out = []
    for name in names:
        module = importlib.import_module(f"torusdpa.{name}")
        for public in module.__all__:
            obj = getattr(module, public)
            members = [(public, obj)]
            if inspect.isclass(obj):
                members += [(f"{public}.{k}", v) for k, v in vars(obj).items()
                            if callable(v) and not k.startswith("_")]
            out += [(f"{name}.{label}", fn) for label, fn in members if callable(fn)]
    return out


ENGINES = ("particles", "fields", "pde_nonlocal", "harness")


def test_kernel_set_is_the_only_schedule_source():
    # the engines read the parameters from the kernel set they are given, so
    # no public callable takes a schedule beside it and particles carry none
    takers = [label for label, fn in _public_callables(ENGINES)
              if "schedule" in inspect.signature(fn).parameters]
    assert takers == []
    assert [f.name for f in dataclasses.fields(ParticleState)] == ["positions", "time"]


def test_kernel_set_is_the_only_appendix_a_source():
    # build_kernel_set fixes appendix-A mode in the set: no engine callable
    # takes the flag but compute_forces, whose keyword only checks the set's
    # (a benchmark check passes it), and no set method takes a viscosity flag
    takers = [label for label, fn in _public_callables(ENGINES)
              if {"appendix_a", "include_viscosity"} & set(inspect.signature(fn).parameters)]
    assert takers == ["particles.compute_forces"]
    methods = [k for k, v in vars(KernelSet).items() if inspect.isfunction(v)
               and "include_viscosity" in inspect.signature(v).parameters]
    assert methods == []
    # no init=False field: a replace copy is a whole set, with empty caches
    assert all(f.init for f in dataclasses.fields(KernelSet))
    assert "appendix_a" in {f.name for f in dataclasses.fields(KernelSet)}
