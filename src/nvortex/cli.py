"""Command-line front end: check | solve-radial | solve-2d | metric | verify.

Exit codes are a stable contract: 0 ok, 1 configuration or usage error, 2
existence bound violated, 3 radial shoot did not converge, 4 Newton
stopped without converging (``SolveReport.termination`` says why), 5 metric
pipeline failure, 6 verification failure.
Outputs land under ``--out`` with fixed filenames (profile.csv, field.csv,
report.json, metric.json); identical configurations produce bit-identical
reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .config import ConfigError, RunConfig, load_run_config, parse_run_config
from .geometry import BradlowViolation, bradlow_margin, build_grid, check_bradlow
from .moduli import metric_coefficient
from .observables import (
    SCHEMA_VERSION,
    compute_observables,
    export_field_csv,
    export_json,
    export_profile_csv,
    solution_summary,
)
from .shooting import shoot
from .solver2d import solve_taubes_2d
from .verification import REFERENCE_CONFIG, run_acceptance

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BRADLOW = 2
EXIT_SHOOT = 3
EXIT_NEWTON = 4
EXIT_METRIC = 5
EXIT_VERIFY = 6


#: The configuration field each override sets, and its type; each command
#: registers the overrides it honours.
_OVERRIDES = {
    "--nr": ("grid.nr", int),
    "--ntheta": ("grid.ntheta", int),
    "--tol": ("solver.tol", float),
    "--out": ("outputs.dir", str),
}


def _load(args) -> RunConfig:
    """The configuration, with the overrides given set as fields of its document.

    ``verify`` without ``--config`` runs ``verification.REFERENCE_CONFIG``.
    """
    given = {field: getattr(args, option[2:], None) for option, (field, _) in _OVERRIDES.items()}
    fields = {field: value for field, value in given.items() if value is not None}
    if args.config is None:
        return parse_run_config(REFERENCE_CONFIG, fields)
    return load_run_config(args.config, fields)


def _outputs(cfg: RunConfig, files: dict) -> dict:
    """The paths of the files that ``cfg.formats`` selects from ``files``.

    ``files`` maps a format to a file name.  Commands call this after their
    existence gate and before their solve, so a refused configuration leaves
    no directory, and an unusable one is a configuration error, not a
    traceback after the work.  The directory is made only if a file will go
    into it.
    """
    paths = {fmt: os.path.join(cfg.out_dir, name) for fmt, name in files.items() if fmt in cfg.formats}
    if paths:
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"outputs.dir {cfg.out_dir!r} is not a usable directory: {exc.strerror}") from exc
    return paths


def _export(paths: dict, fmt: str, export, *args) -> None:
    """``export(paths[fmt], *args)`` if ``paths`` selects ``fmt``; a file that cannot be written is a configuration error."""
    if fmt in paths:
        try:
            export(paths[fmt], *args)
        except OSError as exc:
            raise ConfigError(f"cannot write {paths[fmt]}: {exc.strerror}") from exc


def _cmd_check(args) -> int:
    cfg = _load(args)
    margin = bradlow_margin(cfg.vortices, cfg.disk)
    document = {
        "margin": margin,
        "passed": margin > 0.0,
        "N": cfg.vortices.N,
        "M": cfg.vortices.M,
        "area": cfg.disk.area,
    }
    print(json.dumps(document, sort_keys=True))
    return EXIT_OK if margin > 0.0 else EXIT_BRADLOW


def _require_centered(cfg: RunConfig, command: str) -> int:
    if cfg.vortices.boundary or any(pos != 0 for pos, _ in cfg.vortices.interior):
        raise ConfigError(
            f"{command} needs a purely interior configuration centred at the origin"
        )
    return cfg.vortices.N


def _cmd_solve_radial(args) -> int:
    cfg = _load(args)
    n = _require_centered(cfg, "solve-radial")
    check_bradlow(cfg.vortices, cfg.disk)
    paths = _outputs(cfg, {"csv": "profile.csv", "json": "report.json"})
    profile = shoot(cfg.disk, n=n, steps=cfg.radial_steps)
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": profile.n,
        "converged": profile.converged,
        "steps": cfg.radial_steps,
    }
    # JSON has no NaN or Infinity (RFC 8259): a value a failed shoot left non-finite is null.
    for key, value in (("h0", profile.h0), ("residual", profile.residual), ("boundary_slope", profile.dhtilde[-1])):
        report[key] = float(value) if math.isfinite(value) else None
    _export(paths, "csv", export_profile_csv, profile)
    _export(paths, "json", export_json, report)
    print(json.dumps(report, sort_keys=True))
    if not profile.converged:
        print(profile.failure_reason(), file=sys.stderr)
        return EXIT_SHOOT
    return EXIT_OK


def _cmd_solve_2d(args) -> int:
    cfg = _load(args)
    grid = build_grid(cfg.disk, cfg.nr, cfg.ntheta)
    check_bradlow(cfg.vortices, cfg.disk)
    paths = _outputs(cfg, {"csv": "field.csv", "json": "report.json"})
    field, report = solve_taubes_2d(
        cfg.disk, cfg.vortices, grid, tol=cfg.tol, max_iter=cfg.max_iter
    )
    observables = compute_observables(field, report)
    summary = solution_summary(observables, report)
    _export(paths, "csv", export_field_csv, field, observables)
    _export(paths, "json", export_json, summary)
    print(json.dumps(summary, sort_keys=True))
    if not report.converged:
        print(
            f"Newton solve stopped without converging: {report.termination} "
            f"after {report.iterations} iterations (residual {report.residual_history[-1]:.3g})"
            + (f": {report.detail}" if report.detail else ""),
            file=sys.stderr,
        )
        return EXIT_NEWTON
    return EXIT_OK


def _cmd_metric(args) -> int:
    cfg = _load(args)
    n = _require_centered(cfg, "metric")
    if n != 1:
        raise ConfigError(f"metric needs one unit vortex at the origin, got N={n}")
    check_bradlow(cfg.vortices, cfg.disk)
    paths = _outputs(cfg, {"json": "metric.json"})
    try:
        report = metric_coefficient(cfg.disk, radial_steps=cfg.radial_steps)
    except RuntimeError as exc:  # a shoot that did not converge, or a ConditioningError
        print(f"metric pipeline failed: {exc}", file=sys.stderr)
        return EXIT_METRIC
    document = report.to_dict()
    _export(paths, "json", export_json, document)
    print(json.dumps(document, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _load(args)
    results = run_acceptance(nr=cfg.nr, tol=cfg.tol, radial_steps=cfg.radial_steps, log=print)
    print()
    print(f"{'criterion':>9}  {'status':6}  check")
    for rec in results:
        print(rec.line())
    failed = [rec for rec in results if not rec.passed]
    print()
    print(f"{len(results) - len(failed)}/{len(results)} checks passed at {cfg.nr}x{cfg.nr}")
    return EXIT_OK if not failed else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit 1, not argparse's 2 (the existence-bound code).

    Subparsers inherit the class.
    """

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    Parsing leaves the parser as it was, so ``main`` may run any number of
    times in one process.  Each handler looks up the solvers it calls when
    it runs, so a module function patched between calls is the one used.
    """
    parser = _Parser(
        prog="nvortex",
        description=(
            "Critically coupled Ginzburg-Landau vortices on a conformal disk "
            "with Neumann boundary conditions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "check": ("evaluate the existence bound for a configuration", _cmd_check, ()),
        "solve-radial": ("shoot the centered-vortex radial profile", _cmd_solve_radial, ("--out",)),
        "solve-2d": (
            "solve the full field equation on the disk",
            _cmd_solve_2d,
            ("--nr", "--ntheta", "--tol", "--out"),
        ),
        "metric": ("compute the one-vortex moduli-metric report", _cmd_metric, ("--out",)),
        # verify writes no files; it takes --out because perfbench/jobs.py
        # passes --config and --out to each command it runs.
        "verify": ("run the acceptance verification suite", _cmd_verify, ("--nr", "--tol", "--out")),
    }
    for name, (help_text, handler, overrides) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=name != "verify", help="path to a JSON configuration")
        for option in overrides:
            field, kind = _OVERRIDES[option]
            p.add_argument(option, type=kind, help=f"set {field}")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"configuration error: input too large to allocate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BradlowViolation as exc:
        print(exc, file=sys.stderr)
        return EXIT_BRADLOW


def run() -> None:
    """Console entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
