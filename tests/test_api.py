import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import nvortex
from nvortex import cli, config, geometry, moduli, shooting, solver2d, verification

MODULES = sorted(info.name for info in pkgutil.iter_modules(nvortex.__path__) if info.name != "__main__")
SOURCES = sorted(Path(nvortex.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", ["nvortex"] + [f"nvortex.{name}" for name in MODULES])
def test_every_exported_name_resolves(module):
    # Tracers patch the package through the modules' __all__ lists, so a
    # stale entry breaks them as well as star imports.
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize(
    "name", ["integrate_radial", "BracketError", "taylor_seed", "ZONE_RADIUS", "ZONE_SHARE", "COARSE_MAX_STEP"]
)
def test_removed_radial_names_are_gone(name):
    assert not hasattr(nvortex, name)
    assert not hasattr(nvortex.shooting, name)
    assert name not in nvortex.__all__


@pytest.mark.parametrize(
    "owner, name",
    [
        (moduli, "boundary_metric_term"),
        (moduli, "FitError"),
        (moduli, "solve_linear_bvp"),
        (shooting.RadialProfile, "stalled"),
        (geometry.VortexConfiguration, "rotated"),
    ],
    ids=["boundary_metric_term", "FitError", "solve_linear_bvp", "RadialProfile.stalled",
         "VortexConfiguration.rotated"],
)
def test_removed_names_are_gone(owner, name):
    # Only tests reached these; the product reads boundary_term off
    # MetricReport and termination off RadialProfile, and solves the
    # linearised problem, the vacuum's too, on a shoot's nodes.
    assert not hasattr(owner, name)
    assert not hasattr(nvortex, name)
    assert name not in nvortex.__all__ and name not in getattr(owner, "__all__", ())


def test_moduli_leaves_the_shooting_system_to_shooting():
    # One multiple-shooting system: moduli sweeps and solves it only through
    # shooting._solve_linear, on the nodes a shoot placed: node placement
    # stays with shooting, and no second linearised solve places its own.
    names = _names(Path(moduli.__file__))
    assert "_solve_linear" in names
    assert not names & {"_sweep", "_sweep_system", "_solve_joints", "_nodes", "_mesh", "solve_linear_bvp"}


def test_linear_bvp_takes_no_breakpoints():
    # The linearised solve steps on its profile's nodes, which carry the
    # disk's breakpoints: it takes no mesh, step count or breakpoints of its own.
    assert list(inspect.signature(moduli.solve_linearized).parameters) == ["radial"]


def test_default_radial_steps_have_one_source(monkeypatch, capsys):
    # Resizing shooting.DEFAULT_STEPS must be a single edit: the config,
    # verify, the metric pipeline and the shoot read it.
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
    monkeypatch.setattr(cli, "run_acceptance", lambda **kw: seen.append(kw) or [])
    assert cli.main(["verify", "--nr", "32"]) == 0
    assert [kw["radial_steps"] for kw in seen] == [shooting.DEFAULT_STEPS]

    # The other defaults and bounds have one spelling each too.  RunConfig's
    # field defaults fill every absent field:
    fields = {"nr": 40, "ntheta": 48, "tol": 1e-5, "max_iter": 7, "out_dir": "elsewhere",
              "formats": ("json",), "radial_steps": 3_000}
    for name, value in fields.items():
        monkeypatch.setattr(config.RunConfig, name, value)
    parsed = config.parse_run_config(doc)
    assert {name: getattr(parsed, name) for name in fields} == fields
    defaults = {f.name: f.default for f in dataclasses.fields(config.RunConfig)}
    assert (defaults["tol"], defaults["max_iter"]) == (solver2d.DEFAULT_TOL, solver2d.DEFAULT_MAX_ITER)
    # verify without --config runs verification's reference document, whose
    # grid is BASE_NR; its tolerance and steps are RunConfig's:
    assert verification.REFERENCE_CONFIG["grid"] == {"nr": verification.BASE_NR}
    monkeypatch.setitem(verification.REFERENCE_CONFIG, "grid", {"nr": 40})
    seen.clear()
    assert cli.main(["verify"]) == 0
    assert [(kw["nr"], kw["tol"], kw["radial_steps"]) for kw in seen] == [(40, 1e-5, 3_000)]
    # and the least grid and step counts are geometry's and shooting's:
    assert config.MIN_GRID_POINTS == verification.MIN_GRID_POINTS == geometry.MIN_GRID_POINTS
    assert config.COARSE_STEPS == shooting.COARSE_STEPS
    for module in (config, verification):
        monkeypatch.setattr(module, "MIN_GRID_POINTS", 41)
    monkeypatch.setattr(config, "COARSE_STEPS", 3_001)
    for section, values, message in (
        ("grid", {"nr": 40, "ntheta": 41}, "grid.nr must be >= 41"),
        ("grid", {"nr": 41, "ntheta": 40}, "grid.ntheta must be >= 41"),
        ("radial", {"steps": 3_000}, "radial.steps must be >= 3001"),
    ):
        with pytest.raises(config.ConfigError, match=message):
            config.parse_run_config({**doc, "grid": {"nr": 41, "ntheta": 41}, section: values})
    # A command-line grid is checked by the same rule.
    capsys.readouterr()
    assert cli.main(["verify", "--nr", "40"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: grid.nr must be >= 41, got 40\n"


def _unused_imports(path: Path) -> list[str]:
    """Names bound by ``path``'s module-level imports that it never reads or lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _handler_sites(path: Path, name: str) -> set[str]:
    """The module-level functions of ``path`` holding an ``except`` clause that names ``name``."""
    sites = set()
    for function in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(function):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                named |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
                if name in named:
                    sites.add(f"{path.stem}.{getattr(function, 'name', '<module>')}")
    return sites


def test_linear_solve_errors_have_one_channel():
    # A failed Newton-step linear solve becomes the termination "linear_solve"
    # in solver2d._solve, and a failed tangent solve a failed verify row;
    # any other handler would be a second way for a solve to stop.
    sites = set().union(*(_handler_sites(path, "LinearSolveError") for path in SOURCES))
    assert sites == {"solver2d._solve", "verification.run_acceptance"}
    cli_source = Path(cli.__file__).read_text(encoding="utf-8")
    assert "LinearSolveError" not in cli_source


def _imported_modules(path: Path) -> set[str]:
    """Every module that ``path`` imports; ``from m import n`` counts as ``m.n``."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_no_module_imports_scipy_sparse():
    # The Laplacian is applied from its couplings and every linear solve is
    # the library's own CG or a LAPACK routine, so no sparse matrix is built.
    sparse = [
        (path.name, module)
        for path in SOURCES
        for module in sorted(_imported_modules(path))
        if module == "scipy.sparse" or module.startswith("scipy.sparse.")
    ]
    assert sparse == []


def _names(path: Path) -> set[str]:
    """Every name that ``path`` imports, defines, reads or calls, attribute names included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_banded_joint_solve_calls_lapack_directly():
    # solve_banded checks, copies and batches its arguments on every call;
    # shooting._solve_joints hands LAPACK's band to gbsv itself.
    assert [path.name for path in SOURCES if "solve_banded" in _names(path)] == []
    assert [path.name for path in SOURCES if "dgbsv" in _names(path)] == ["shooting.py"]
