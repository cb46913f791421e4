"""Running one benchmark job through the public entry points and checking its output.

CLI jobs call ``nvortex.cli.main`` in-process with a per-job output
directory; Green jobs call the public routines of ``nvortex.singular``.  A
job fails on a nonzero exit code, on an exception that escapes the entry
point, or on a failed output check; the failure is recorded with the command
and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import time
import traceback
from dataclasses import dataclass

import numpy as np

import nvortex.cli
import nvortex.singular
from nvortex.geometry import ConformalDisk, build_grid
from nvortex.observables import FIELD_CSV_HEADER
from nvortex.verification import (
    BASE_NR,
    TOL_ENERGY_BOUNDARY,
    TOL_ENERGY_INTERIOR,
    TOL_FLUX_BOUNDARY,
    TOL_FLUX_INTERIOR,
)

from workloads import RADIUS, Job


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


@dataclass
class JobResult:
    job: Job
    seconds: float
    error: str | None = None
    quant_err: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


class JobRunner:
    """Runs jobs of one workload; holds the prepared configs and Green grids."""

    def __init__(self, jobs: list[Job], workdir: str):
        self.jobs = jobs
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.config_paths = {}
        for k, job in enumerate(jobs):
            if job.config is not None:
                path = os.path.join(workdir, f"config{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(job.config, fh)
                self.config_paths[k] = path
        self.disk = ConformalDisk.flat(RADIUS)
        self.grids = {job.nr: build_grid(self.disk, job.nr, job.nr) for job in jobs if job.is_green}

    def argv(self, k: int, out: str) -> list[str]:
        job = self.jobs[k]
        argv = [job.command, "--config", self.config_paths[k], "--out", out]
        if job.command == "verify":
            argv += ["--nr", str(job.nr)]
        return argv

    def run(self, k: int, out: str) -> JobResult:
        """Run job ``k`` writing under ``out``; time only the entry-point call."""
        job = self.jobs[k]
        stdout = io.StringIO()
        command = f"green {job.node}" if job.is_green else "nvortex " + " ".join(self.argv(k, out))
        start = time.perf_counter()
        try:
            if job.is_green:
                value = self._green(job)
            else:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                    value = nvortex.cli.main(self.argv(k, out))
            seconds = time.perf_counter() - start
        except (Exception, SystemExit):
            seconds = time.perf_counter() - start
            return JobResult(job, seconds, f"{command}: escaped exception\n{traceback.format_exc()}")
        try:
            quant_err = self._check(job, value, out, stdout.getvalue())
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            return JobResult(job, seconds, f"{command}: {type(exc).__name__}: {exc}")
        return JobResult(job, seconds, quant_err=quant_err)

    def _green(self, job: Job):
        grid = self.grids[job.nr]
        if job.command == "green":
            return nvortex.singular.neumann_green(self.disk, grid, job.node)
        return nvortex.singular.boundary_neumann_green(self.disk, grid, float(grid.theta[job.node[1]]))

    def _check(self, job: Job, value, out: str, printed: str):
        if job.is_green:
            _check_green(self.grids[job.nr], self.disk, value, job.node)
            return None
        if value != 0:
            raise CheckFailed(f"exit code {value}; output tail: {printed[-400:]!r}")
        if job.command == "solve-2d":
            return _check_solve(job, out)
        if job.command == "metric":
            _check_metric(out)
        elif job.command == "verify":
            _check_verify(printed)
        return None


def quantization_tolerances(config: dict) -> tuple[float, float]:
    """Flux and energy tolerances pinned in ``nvortex.verification`` for this job.

    Boundary vortices take the boundary tolerances.  Below the reference
    resolution they are relaxed by the verification suite's convergence
    model, ``(BASE_NR / nr) ** 1.5``.
    """
    nr = config["grid"]["nr"]
    scale = (BASE_NR / nr) ** 1.5 if nr < BASE_NR else 1.0
    if config.get("boundary"):
        return TOL_FLUX_BOUNDARY * scale, TOL_ENERGY_BOUNDARY * scale
    return TOL_FLUX_INTERIOR * scale, TOL_ENERGY_INTERIOR * scale


def _check_solve(job: Job, out: str) -> float:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if report["converged"] is not True:
        raise CheckFailed("report.json says converged=false")
    flux_err = abs(report["flux"] / report["expected_flux"] - 1.0)
    energy_err = abs(report["energy"] / report["expected_energy"] - 1.0)
    flux_tol, energy_tol = quantization_tolerances(job.config)
    if not (flux_err <= flux_tol and energy_err <= energy_tol):
        raise CheckFailed(
            f"quantization defect flux {flux_err:.3e} (tol {flux_tol:.3e}), "
            f"energy {energy_err:.3e} (tol {energy_tol:.3e})"
        )
    nr = job.config["grid"]["nr"]
    with open(os.path.join(out, "field.csv"), "rb") as fh:
        data = fh.read()
    if not data.startswith(FIELD_CSV_HEADER.encode() + b"\n") or data.count(b"\n") != nr * nr + 1:
        raise CheckFailed("field.csv has the wrong header or row count")
    return max(flux_err, energy_err)


def _check_metric(out: str) -> None:
    with open(os.path.join(out, "metric.json"), encoding="utf-8") as fh:
        document = json.load(fh)
    if document["nonlocal_boundary_term"] is not True:
        raise CheckFailed("metric.json: nonlocal_boundary_term is not true")
    for key, value in document.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise CheckFailed(f"metric.json: {key} = {value}")


def _check_verify(printed: str) -> None:
    match = re.search(r"^(\d+)/(\d+) checks passed", printed, re.MULTILINE)
    if match is None or match.group(1) != match.group(2):
        raise CheckFailed(f"verify summary: {match.group(0) if match else 'missing'}")


def _check_green(grid, disk: ConformalDisk, field, node: tuple) -> None:
    """Finite, zero curved-volume mean, and peaked at the source node."""
    values = field.values
    if not np.all(np.isfinite(values)):
        raise CheckFailed("Green function has non-finite values")
    weights = grid.curved_weights(disk).reshape(grid.shape)
    mean = float(np.sum(weights * values)) / float(np.sum(weights))
    if abs(mean) > 1e-9 * float(np.max(np.abs(values))):
        raise CheckFailed(f"Green function mean {mean:.3e} is not zero")
    peak = np.unravel_index(int(np.argmax(values)), grid.shape)
    if tuple(int(p) for p in peak) != tuple(node):
        raise CheckFailed(f"Green function peaks at {peak}, source at {node}")
