import importlib
import pkgutil

import pytest

import nvortex

MODULES = sorted(info.name for info in pkgutil.iter_modules(nvortex.__path__) if info.name != "__main__")


@pytest.mark.parametrize("module", ["nvortex"] + [f"nvortex.{name}" for name in MODULES])
def test_every_exported_name_resolves(module):
    # Tracers patch the package through the modules' __all__ lists, so a
    # stale entry breaks them as well as star imports.
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("name", ["integrate_radial", "BracketError"])
def test_removed_radial_names_are_gone(name):
    assert not hasattr(nvortex, name)
    assert not hasattr(nvortex.shooting, name)
    assert name not in nvortex.__all__
