"""JSON run-configuration parsing with strict validation."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .geometry import MIN_GRID_POINTS, ConformalDisk, VortexConfiguration
from .shooting import COARSE_STEPS, DEFAULT_STEPS, SEED_RADIUS
from .solver2d import DEFAULT_MAX_ITER, DEFAULT_TOL

__all__ = ["ConfigError", "RunConfig", "parse_run_config", "load_run_config"]


class ConfigError(Exception):
    """A configuration document is malformed or inconsistent."""


_TOP_KEYS = {"radius", "omega", "interior", "boundary", "grid", "solver", "outputs", "radial"}
_GRID_KEYS = {"nr", "ntheta"}
_SOLVER_KEYS = {"tol", "max_iter"}
_OUTPUT_KEYS = {"dir", "formats"}
_RADIAL_KEYS = {"steps"}
_INTERIOR_KEYS = {"x", "y", "n"}
_BOUNDARY_KEYS = {"theta", "m"}
#: JSON type of each optional section: an object of fields or a list of entries.
_SECTION_TYPES = {
    "grid": dict, "solver": dict, "outputs": dict, "radial": dict,
    "interior": list, "boundary": list,
}


@dataclass
class RunConfig:
    """Validated run parameters shared by the CLI commands."""

    disk: ConformalDisk
    vortices: VortexConfiguration
    nr: int = 256
    ntheta: int = 256
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
    radial_steps: int = DEFAULT_STEPS


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")


def _finite(value, label: str):
    """``value`` if it is a finite JSON number (not a string, not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    # Exact comparison also rejects NaN and integers beyond the float range.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{label} must be finite, got {value!r}")
    return value


def _number(section: dict, key: str, default, where: str, *, minimum=None, integer=False):
    value = section.get(key, default)
    _finite(value, f"{where}.{key}")
    if integer and int(value) != value:
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {value!r}")
    return int(value) if integer else float(value)


def _set_fields(doc, fields: dict):
    """A copy of ``doc`` with each ``"section.key": value`` of ``fields`` set."""
    if not isinstance(doc, dict):  # left for parse_run_config to reject, as is a bad section
        return doc
    doc = dict(doc)
    for path, value in fields.items():
        section, key = path.split(".")
        if isinstance(doc.get(section, {}), dict):
            doc[section] = {**doc.get(section, {}), key: value}
    return doc


def parse_run_config(doc: dict, fields: dict | None = None) -> RunConfig:
    """Build a ``RunConfig`` from a parsed JSON document, rejecting unknown fields.

    ``fields`` (``"section.key": value``) are set in the document first, so
    the document's rules check them.  Absent fields take ``RunConfig``'s defaults.
    """
    doc = _set_fields(doc, fields or {})
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "configuration")
    for key, kind in _SECTION_TYPES.items():
        if key in doc and not isinstance(doc[key], kind):
            expected = "an object" if kind is dict else "a list"
            raise ConfigError(f"configuration.{key} must be {expected}, got {doc[key]!r}")
    if "radius" not in doc:
        raise ConfigError("configuration is missing the required field 'radius'")
    radius = _number(doc, "radius", None, "configuration")
    if not radius > SEED_RADIUS:  # where the radial shoot starts
        raise ConfigError(
            f"configuration.radius must exceed the radial seed radius {SEED_RADIUS}, got {radius!r}"
        )

    omega = doc.get("omega", "euclidean")
    try:
        if omega == "euclidean":
            disk = ConformalDisk.flat(radius)
        elif isinstance(omega, list) and all(isinstance(p, list) and len(p) == 2 for p in omega):
            pairs = [tuple(float(_finite(v, f"omega[{k}][{i}]")) for i, v in enumerate(p))
                     for k, p in enumerate(omega)]
            disk = ConformalDisk.from_samples(
                radius, [p[0] for p in pairs], [p[1] for p in pairs]
            )
        else:
            raise ConfigError("omega must be \"euclidean\" or a list of [r, value] pairs")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid omega specification: {exc}") from exc
    if not math.isfinite(disk.area):
        raise ConfigError(f"configuration.radius must give a finite disk area, got {radius:.6g}")

    interior = []
    for k, entry in enumerate(doc.get("interior", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"interior[{k}] must be an object with x, y, n")
        _reject_unknown(entry, _INTERIOR_KEYS, f"interior[{k}]")
        x = _number(entry, "x", 0.0, f"interior[{k}]")
        y = _number(entry, "y", 0.0, f"interior[{k}]")
        n = _number(entry, "n", 1, f"interior[{k}]", minimum=1, integer=True)
        interior.append((complex(x, y), n))
    boundary = []
    for k, entry in enumerate(doc.get("boundary", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"boundary[{k}] must be an object with theta, m")
        _reject_unknown(entry, _BOUNDARY_KEYS, f"boundary[{k}]")
        theta = _number(entry, "theta", 0.0, f"boundary[{k}]")
        m = _number(entry, "m", 1, f"boundary[{k}]", minimum=1, integer=True)
        boundary.append((theta, m))
    try:
        vortices = VortexConfiguration(interior=tuple(interior), boundary=tuple(boundary))
        vortices.validate_inside(disk)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    grid = doc.get("grid", {})
    _reject_unknown(grid, _GRID_KEYS, "grid")
    solver = doc.get("solver", {})
    _reject_unknown(solver, _SOLVER_KEYS, "solver")
    outputs = doc.get("outputs", {})
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs")
    radial = doc.get("radial", {})
    _reject_unknown(radial, _RADIAL_KEYS, "radial")

    formats = outputs.get("formats", list(RunConfig.formats))
    if not isinstance(formats, list) or not all(f in ("csv", "json") for f in formats):
        raise ConfigError("outputs.formats must be a list drawn from ['csv', 'json']")
    out_dir = outputs.get("dir", RunConfig.out_dir)
    if not isinstance(out_dir, str) or not out_dir.strip():
        raise ConfigError("outputs.dir must be a non-empty string")

    return RunConfig(
        disk=disk,
        vortices=vortices,
        nr=_number(grid, "nr", RunConfig.nr, "grid", minimum=MIN_GRID_POINTS, integer=True),
        ntheta=_number(grid, "ntheta", RunConfig.ntheta, "grid", minimum=MIN_GRID_POINTS, integer=True),
        tol=_number(solver, "tol", RunConfig.tol, "solver", minimum=0.0),
        max_iter=_number(solver, "max_iter", RunConfig.max_iter, "solver", minimum=1, integer=True),
        out_dir=out_dir,
        formats=tuple(formats),
        radial_steps=_number(
            radial, "steps", RunConfig.radial_steps, "radial", minimum=COARSE_STEPS, integer=True
        ),
    )


def load_run_config(path: str, fields: dict | None = None) -> RunConfig:
    """Read and validate a JSON configuration file, with ``fields`` set as in ``parse_run_config``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration file {path} is not valid JSON: {exc}") from exc
    return parse_run_config(doc, fields)
