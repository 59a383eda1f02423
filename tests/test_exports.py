"""Every name a module lists in __all__ exists in that module.

A deleted or renamed function can leave its name behind in __all__,
where only a star import would notice.  The modules are discovered, so
a new module is covered too.  The exported callables' defaulted
parameters, the knobs a caller can leave alone, do not grow.
"""

import importlib
import inspect
import pkgutil

import pytest

import twoscale

MODULES = sorted(info.name for info in pkgutil.iter_modules(twoscale.__path__))


def test_every_module_is_found():
    assert {"averaging", "cli", "harness", "seeker", "so3", "system"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"twoscale.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def defaulted_parameters():
    """CHANGES.md's counting rule: every defaulted parameter of every
    callable these modules export (tools/bench_record.py counts the same)."""
    defaulted = []
    for name in ("numkit", "so3", "system", "averaging", "seeker", "harness", "benchmarks"):
        module = importlib.import_module(f"twoscale.{name}")
        for n in module.__all__:
            obj = getattr(module, n)
            if callable(obj):
                defaulted += [f"{name}.{n}({p.name})"
                              for p in inspect.signature(obj).parameters.values()
                              if p.default is not inspect.Parameter.empty]
    return defaulted


def test_no_new_defaulted_parameters():
    # a change that adds one raises the bound here
    defaulted = defaulted_parameters()
    assert len(defaulted) <= 26, "\n".join(defaulted)
