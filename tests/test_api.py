import importlib
import inspect
import pkgutil

import pytest

import nvortex
from nvortex import cli, config, moduli, shooting, verification

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


def test_default_radial_steps_have_one_source(monkeypatch):
    # Resizing shooting.DEFAULT_STEPS must be a single edit: the config,
    # verify and the metric pipeline read it.
    disk, vortices = nvortex.ConformalDisk.flat(3.0), nvortex.VortexConfiguration.centered(1)
    assert config.RunConfig(disk, vortices).radial_steps == shooting.DEFAULT_STEPS
    doc = {"radius": 3.0, "interior": [{"x": 0.0, "y": 0.0, "n": 1}]}
    assert config.parse_run_config(doc).radial_steps == shooting.DEFAULT_STEPS
    for function, name in (
        (verification.run_acceptance, "radial_steps"),
        (moduli.metric_coefficient, "radial_steps"),
        (shooting.shoot, "steps"),
    ):
        assert inspect.signature(function).parameters[name].default == shooting.DEFAULT_STEPS
    seen = []
    monkeypatch.setattr(cli, "run_acceptance", lambda **kw: seen.append(kw["radial_steps"]) or [])
    assert cli.main(["verify", "--nr", "32"]) == 0
    assert seen == [shooting.DEFAULT_STEPS]
