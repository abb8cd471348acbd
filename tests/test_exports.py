"""Export lists: every name in a submodule's ``__all__`` and every name the
package re-exports resolves to the object its source module defines."""

import importlib
import pkgutil
import types

import pytest

import adjcone

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(adjcone.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"adjcone.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate name in __all__"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"adjcone.{name}.__all__ names unknown {missing}"
    namespace = {}
    exec(f"from adjcone.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_come_from_submodule_exports():
    reexports = {name: value for name, value in vars(adjcone).items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType)}
    assert reexports
    for name, value in reexports.items():
        source = importlib.import_module(value.__module__)
        assert value.__name__ in source.__all__, name
        assert getattr(source, value.__name__) is value, name
