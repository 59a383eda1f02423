"""Every name a module lists in __all__ exists in that module.

A deleted or renamed function can leave its name behind in __all__,
where only a star import would notice.  The modules are discovered, so
a new module is covered too.
"""

import importlib
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
