"""Command-line front end: check | solve-radial | solve-2d | metric | verify.

Exit codes are a stable contract: 0 ok, 1 configuration or usage error, 2
existence bound violated, 3 radial shoot did not converge, 4 Newton
non-convergence or a failed inner linear solve, 5 metric pipeline failure, 6
verification failure.
Outputs land under ``--out`` with fixed filenames (profile.csv, field.csv,
report.json, metric.json); identical configurations produce bit-identical
reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .config import ConfigError, RunConfig, load_run_config
from .geometry import BradlowViolation, VortexConfiguration, bradlow_margin, build_grid, check_bradlow
from .moduli import metric_coefficient
from .observables import (
    compute_observables,
    export_field_csv,
    export_json,
    export_profile_csv,
    solution_summary,
)
from .shooting import DEFAULT_STEPS, shoot
from .solver2d import LinearSolveError, solve_taubes_2d
from .verification import run_acceptance

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BRADLOW = 2
EXIT_SHOOT = 3
EXIT_NEWTON = 4
EXIT_METRIC = 5
EXIT_VERIFY = 6


#: The overrides of configuration values; each command registers those it honours.
_OVERRIDES = {
    "--nr": {"type": int, "help": "override radial resolution"},
    "--ntheta": {"type": int, "help": "override angular resolution"},
    "--tol": {"type": float, "help": "override solver tolerance"},
    "--out": {"help": "override output directory"},
}


def _check_overrides(args) -> None:
    """Apply the configuration rules to the command-line overrides."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"--tol must be finite and >= 0, got {tol}")
    if any(v is not None and v < 8 for v in (getattr(args, "nr", None), getattr(args, "ntheta", None))):
        raise ConfigError("grid overrides must keep nr, ntheta >= 8")


def _load(args) -> RunConfig:
    """The configuration with the overrides that the command takes applied."""
    cfg = load_run_config(args.config)
    for option, field in (("nr", "nr"), ("ntheta", "ntheta"), ("tol", "tol"), ("out", "out_dir")):
        if getattr(args, option, None) is not None:
            setattr(cfg, field, getattr(args, option))
    return cfg


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


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
    profile = shoot(
        cfg.disk, n=n, tol=cfg.radial_tol, eps=cfg.radial_eps, steps=cfg.radial_steps
    )
    report = {
        "schema_version": 1,
        "h0": profile.h0,
        "n": profile.n,
        "residual": profile.residual,
        "converged": profile.converged,
        "steps": profile.steps,
        "boundary_slope": float(profile.dhtilde[-1]),
    }
    if "csv" in cfg.formats:
        export_profile_csv(_out_path(cfg, "profile.csv"), profile, cfg.disk)
    if "json" in cfg.formats:
        export_json(_out_path(cfg, "report.json"), report)
    print(json.dumps(report, sort_keys=True))
    if not profile.converged:
        print(profile.failure_reason(cfg.radial_tol), file=sys.stderr)
        return EXIT_SHOOT
    return EXIT_OK


def _cmd_solve_2d(args) -> int:
    cfg = _load(args)
    grid = build_grid(cfg.disk, cfg.nr, cfg.ntheta)
    margin = check_bradlow(cfg.vortices, cfg.disk)
    field, report = solve_taubes_2d(
        cfg.disk, cfg.vortices, grid, tol=cfg.tol, max_iter=cfg.max_iter
    )
    observables = compute_observables(field, report)
    summary = solution_summary(observables, report, margin)
    if "csv" in cfg.formats:
        export_field_csv(_out_path(cfg, "field.csv"), field, observables)
    if "json" in cfg.formats:
        export_json(_out_path(cfg, "report.json"), summary)
    print(json.dumps(summary, sort_keys=True))
    if not report.converged:
        print(
            f"Newton solve stopped without converging: {report.termination} "
            f"after {report.iterations} iterations (residual {report.residual_history[-1]:.3g})",
            file=sys.stderr,
        )
        return EXIT_NEWTON
    return EXIT_OK


def _cmd_metric(args) -> int:
    cfg = _load(args)
    n = _require_centered(cfg, "metric")
    if n != 1:
        raise ConfigError(f"metric needs one unit vortex at the origin, got N={n}")
    try:
        report = metric_coefficient(
            cfg.disk,
            radial_steps=cfg.radial_steps,
            radial_eps=cfg.radial_eps,
            radial_tol=cfg.radial_tol,
        )
    except BradlowViolation:
        raise
    except Exception as exc:
        print(f"metric pipeline failed: {exc}", file=sys.stderr)
        return EXIT_METRIC
    document = report.to_dict()
    if "json" in cfg.formats:
        export_json(_out_path(cfg, "metric.json"), document)
    print(json.dumps(document, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    nr = args.nr if args.nr is not None else 256
    tol = args.tol if args.tol is not None else 1e-8
    radial_steps = DEFAULT_STEPS
    gate_note = None
    if args.config:
        cfg = _load(args)
        nr, tol = cfg.nr, cfg.tol
        radial_steps = cfg.radial_steps
        margin = bradlow_margin(cfg.vortices, cfg.disk)
        if margin <= 0.0:
            gate_note = (
                f"configured domain violates the existence bound (margin {margin:.4f}); "
                "gate behaviour verified, domain solves skipped"
            )
    if nr < 32:  # the refinement study also solves at nr/4, which needs >= 8
        raise ConfigError(f"verify needs nr >= 32 (it also solves at nr/4), got {nr}")
    results = run_acceptance(nr=nr, tol=tol, radial_steps=radial_steps, log=print)
    print()
    print(f"{'criterion':>9}  {'status':6}  check")
    for rec in results:
        status = "PASS" if rec.passed else "FAIL"
        print(f"{rec.criterion:>9}  {status:6}  {rec.name} ({rec.detail})")
    if gate_note:
        print(f"{'gate':>9}  PASS    {gate_note}")
    failed = [rec for rec in results if not rec.passed]
    print()
    print(f"{len(results) - len(failed)}/{len(results)} checks passed at {nr}x{nr}")
    return EXIT_OK if not failed else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit 1, not argparse's 2 (the existence-bound code).

    Subparsers inherit the class.
    """

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
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
            p.add_argument(option, **_OVERRIDES[option])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_overrides(args)
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BradlowViolation as exc:
        print(f"existence bound violated: {exc} (margin {exc.margin:.6g})", file=sys.stderr)
        return EXIT_BRADLOW
    except LinearSolveError as exc:
        print(f"linear solve failed: {exc}", file=sys.stderr)
        return EXIT_NEWTON


def run() -> None:
    """Console entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
