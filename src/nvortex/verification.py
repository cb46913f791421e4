"""Acceptance verification: quantization laws, cross-solver and symmetry checks.

Every check pins its tolerance here.  The reference resolution is 256x256;
running coarser relaxes the discretisation-limited tolerances by the observed
convergence model: quadrature-type checks scale with ``(256/nr)^1.5`` and the
cross-solver field comparison with ``(256/nr)^2`` (second-order scheme).
Exact-arithmetic and solver-tolerance checks never scale.  The Green-function
and loop-integral checks run on fixed auxiliary grids chosen for their own
resolution needs, independent of ``nr``.

The checks read inputs: 2-D solves, radial shoots, the vacuum, linearised
and tangent solves, and four Green functions.  The vacuum and the
linearised solve step on the nodes of the shoot at ``radial_steps``, so the
vacuum's closed form checks the very nodes and code the nonlocality witness
and the loop integral read.  Each input is made once, when a check first
needs it, and logged as ``<input> ... <seconds> s``.  A check fails, naming
the input and why, when an input it reads, or one that input is made from,
did not converge (a 2-D solve's ``termination``, a shoot's
``failure_reason()``) or raised in the tangent solve.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from functools import cache

import numpy as np

from .geometry import (
    MIN_GRID_POINTS,
    BradlowViolation,
    ConformalDisk,
    VortexConfiguration,
    bradlow_margin,
    build_grid,
)
from .moduli import (
    _fit_b,
    _solve_on,
    boundary_ring_position_derivatives,
    ring_metric_integral,
    solve_linearized,
)
from .observables import compute_observables
from .operators import LinearSolveError
from .shooting import DEFAULT_STEPS, _segments, shoot
from .singular import boundary_neumann_green, neumann_green
from .solver2d import DEFAULT_TOL, solve_taubes_2d

__all__ = ["CheckResult", "run_acceptance", "BASE_NR", "REFERENCE_CONFIG"]

BASE_NR = 256
#: The configuration document ``verify`` runs without one: one unit vortex at
#: the centre of the flat disk the checks solve on, at the reference grid.
REFERENCE_CONFIG = {"radius": 3.0, "interior": [{"x": 0.0, "y": 0.0, "n": 1}], "grid": {"nr": BASE_NR}}

# Criterion tolerances at the reference resolution.
TOL_FLUX_INTERIOR = 0.01
TOL_FLUX_BOUNDARY = 0.015
TOL_ENERGY_INTERIOR = 0.02
TOL_ENERGY_BOUNDARY = 0.025
TOL_BOGOMOLNY = 0.01
RUNTIME_LIMIT = 60.0
TOL_GATE_MARGIN = 1e-9
TOL_CROSS_FIELD = 5e-3
MIN_CONV_ORDER = 1.8
TOL_SHOOT_SLOPE = 1e-6
TOL_H0_STABILITY = 1e-8
MIN_BOUNDARY_VALUE = 1e-2
TOL_VACUUM_ORACLE = 1e-8
TOL_LOOP_INTEGRAL = 0.05
TOL_B_ORIGIN = 1e-6
TOL_ROTATIONAL = 1e-9
TOL_REFLECTION = 1e-9
TOL_GREEN_SYMMETRY = 1e-10
TOL_GREEN_INTERIOR_SLOPE = 0.05
TOL_GREEN_BOUNDARY_SLOPE = 0.10

LOOP_CHECK_NR = 128
GREEN_SYMMETRY_NR = 48
GREEN_INTERIOR_NR = 96
GREEN_BOUNDARY_NR = 64
GREEN_BOUNDARY_NTHETA = 402


@dataclass
class CheckResult:
    """One verified statement of the acceptance suite."""

    criterion: int
    name: str
    passed: bool
    detail: str
    #: Seconds of the check call, not of making the inputs it reads (0 when one
    #: failed); the first check to read a solve's observables computes them.
    seconds: float = 0.0

    def line(self) -> str:
        """The record's row of ``verify``'s table."""
        status = "PASS" if self.passed else "FAIL"
        return f"{self.criterion:>9}  {status:6}  {self.name} ({self.detail}) {self.seconds:.6f} s"


_Solved = namedtuple("_Solved", "field report obs")  # a 2-D solve input's value; obs() is computed once


def _quantized(kind: str, value: float, target: float, tol: float):
    """``(passed, detail)`` of a quantized ``value``: within relative ``tol`` of ``target``."""
    err = abs(value - target) / abs(target)
    return err <= tol, f"{kind}={value:.6f} rel_err={err:.2e} tol={tol:.2e}"


def _at_most(value: float, tol: float, detail: str):
    """``(passed, detail)`` of the check ``value <= tol``; ``detail`` formats ``value`` and ``tol``."""
    return value <= tol, detail.format(value, tol)


def _read(inputs, made: dict, say):
    """The values of ``inputs``, each made once into ``made``, and the first failure among them, or ``None``."""
    values = []
    for label, make, *sources in inputs:
        args, failure = _read(sources, made, say)
        if failure is None and label not in made:
            t0 = time.perf_counter()
            value, reason = make(*args)
            made[label] = value, None if reason is None else f"{label}: {reason}", time.perf_counter() - t0
            say(f"{label} ... {made[label][2]:.2f} s")
        value, failure, _ = made[label] if failure is None else (None, failure, None)
        if failure is not None:
            return values, failure
        values.append(value)
    return values, None


def run_acceptance(
    nr: int = BASE_NR,
    tol: float = DEFAULT_TOL,
    radial_steps: int = DEFAULT_STEPS,
    log=None,
) -> list[CheckResult]:
    """Run all acceptance checks at resolution ``nr``; ``log`` gets a line per input made."""
    if nr < 4 * MIN_GRID_POINTS:  # the refinement study also solves at nr/4
        raise ValueError(f"verify needs nr >= {4 * MIN_GRID_POINTS} (it also solves at nr/4), got {nr}")
    say = log if log is not None else (lambda _msg: None)
    results: list[CheckResult] = []
    made = {}  # label -> (value, failure, seconds)

    def add(criterion, name, check, *inputs):
        """Record ``check``'s ``(passed, detail)`` and seconds on the values of ``inputs``, or a failure."""
        values, failure = _read(inputs, made, say)
        if failure is not None:
            results.append(CheckResult(criterion, name, False, failure))
            return
        t0 = time.perf_counter()
        passed, detail = check(*values)
        results.append(CheckResult(criterion, name, bool(passed), detail, time.perf_counter() - t0))

    scale = (BASE_NR / nr) ** 1.5 if nr < BASE_NR else 1.0
    cross_scale = (BASE_NR / nr) ** 2.0 if nr < BASE_NR else 1.0
    disk = ConformalDisk.flat(REFERENCE_CONFIG["radius"])

    # An input is (label, make, *sources): ``make(*values of sources)`` gives (value, failure or None).
    def solved(n, config=VortexConfiguration.centered(1), name="centred vortex"):
        def make():
            field, report = solve_taubes_2d(disk, config, build_grid(disk, n, n), tol=tol)
            failure = None if report.converged else f"solve not converged ({report.termination})"
            return _Solved(field, report, cache(lambda: compute_observables(field, report))), failure
        return f"{name} at {n}x{n}", make

    def shot(steps):
        def make():
            profile = shoot(disk, n=1, steps=steps)
            return profile, None if profile.converged else profile.failure_reason()
        return f"radial shoot at {steps} steps", make

    def green(n, nt, source, make=neumann_green, name="Green function at node"):
        return f"{name} {source} on {n}x{nt}", lambda: (make(disk, build_grid(disk, n, nt), source), None)

    centred = solved(nr)
    boundary = solved(nr, VortexConfiguration.boundary_point(0.0, 1), "boundary vortex")
    # An even grid has no node at radius 1/2: (i + 1/2) * 3/n = 1/2 needs n = 6i + 3.
    n2_cfg = VortexConfiguration(interior=((0.5 + 0j, 1), (-0.5 + 0j, 1)))
    n2 = solved(min(nr, 128) // 2 * 2, n2_cfg, "N=2 configuration")
    profile, profile_fine = shot(radial_steps), shot(2 * radial_steps)
    linearised = "linearized solve", lambda p: (solve_linearized(p), None), profile

    def runtime(label, *_):  # of an input that a row before has read
        seconds = made[label][2]
        return seconds < RUNTIME_LIMIT, f"{seconds:.1f}s < {RUNTIME_LIMIT:.0f}s"

    # --- 1. flux quantization, interior vortex -----------------------------
    add(1, "interior flux = 2*pi",
        lambda s: _quantized("flux", s.obs().flux, 2.0 * math.pi, TOL_FLUX_INTERIOR * scale), centred)
    add(1, "interior solve runtime", lambda: runtime(*centred))

    # --- 2. flux quantization, boundary half-vortex ------------------------
    add(2, "boundary flux = pi",
        lambda s: _quantized("flux", s.obs().flux, math.pi, TOL_FLUX_BOUNDARY * scale), boundary)
    add(2, "boundary solve runtime", lambda: runtime(*boundary))

    # --- 3. energy quantization and the flux identity ----------------------
    add(3, "interior energy = pi",
        lambda s: _quantized("energy", s.obs().energy, math.pi, TOL_ENERGY_INTERIOR * scale), centred)
    add(3, "boundary energy = pi/2",
        lambda s: _quantized("energy", s.obs().energy, 0.5 * math.pi, TOL_ENERGY_BOUNDARY * scale), boundary)
    for label, solve in (("interior", centred), ("boundary", boundary)):
        add(3, f"energy = flux/2 ({label})",
            lambda s: _at_most(abs(s.obs().energy - 0.5 * s.obs().flux) / s.obs().flux, TOL_BOGOMOLNY * scale,
                               "|E - Phi/2|/Phi = {:.2e} tol={:.2e}"), solve)

    # --- 4. existence gate equivalence --------------------------------------
    margin3 = bradlow_margin(VortexConfiguration.centered(3), disk)
    add(4, "gate rejects N=3 at R=3",
        lambda: (abs(margin3 + 0.75) <= TOL_GATE_MARGIN, f"margin={margin3:.12f} (expected -0.75)"))
    disk1 = ConformalDisk.flat(1.0)
    margin_r1 = bradlow_margin(VortexConfiguration.centered(1), disk1)
    add(4, "gate rejects N=1 at R=1", lambda: (margin_r1 <= 0.0, f"margin={margin_r1:.12f} <= 0"))

    def refused(bad_disk, n):
        try:
            solve_taubes_2d(bad_disk, VortexConfiguration.centered(n), build_grid(bad_disk, 16, 16))
        except BradlowViolation:
            return True, "gate raised before iterating"
        return False, "gate raised before iterating"
    add(4, "solver refuses N=3, R=3", lambda: refused(disk, 3))
    add(4, "solver refuses N=1, R=1", lambda: refused(disk1, 1))
    add(4, "solver converges N=1 at R=3", lambda s: (True, f"{s.report.iterations} Newton iterations"), centred)
    add(4, "solver converges N=2 at R=3", lambda s: (
        True, f"{s.report.iterations} Newton iterations (margin {bradlow_margin(n2_cfg, disk):.2f})"), n2)

    # --- 5. cross-solver agreement and grid convergence --------------------
    levels = [solved(level) for level in (nr // 4, nr // 2, nr)]

    def field_errors(p, *solves):  # max |2-D field - radial profile p| on each grid
        return [float(np.max(np.abs(s.field.values - p.htilde_at(s.field.grid.r)[:, None]))) for s in solves]

    def orders(*values):
        e_coarse, e_mid, e_fine = field_errors(*values)
        p1 = math.log2(e_coarse / e_mid)
        p2 = math.log2(e_mid / e_fine)
        return min(p1, p2) >= MIN_CONV_ORDER, f"orders {p1:.2f}, {p2:.2f} >= {MIN_CONV_ORDER}"
    add(5, "2d field matches radial profile",
        lambda *values: _at_most(field_errors(*values)[-1], TOL_CROSS_FIELD * cross_scale,
                                 "max_err={:.2e} tol={:.2e}"), profile, *levels)
    add(5, "observed convergence order", orders, profile, *levels)

    # --- 6. shooting reproduces the radial setup ---------------------------
    add(6, "boundary slope -2/3 met",
        lambda p: _at_most(p.residual, TOL_SHOOT_SLOPE, "|slope + 2/3| = {:.2e} <= {:.0e}"), profile)

    def h0_stable(coarse, fine):
        shift = abs(coarse.h0 - fine.h0)
        return shift < TOL_H0_STABILITY, (f"|h0({radial_steps}) - h0({2 * radial_steps})| = {shift:.2e} "
                                          f"< {TOL_H0_STABILITY:.0e}")
    add(6, "h0 stable under step halving", h0_stable, profile, profile_fine)

    # --- 7. moduli nonlocality witness --------------------------------------
    add(7, "vacuum closed form a = -2r/R^2",
        lambda vac: _at_most(float(np.max(np.abs(vac.a + 2.0 * vac.r / disk.radius**2))), TOL_VACUUM_ORACLE,
                             "max_err={:.2e} <= {:.0e}"),
        ("vacuum solve", lambda p: (_solve_on(0.0, disk.radius, *_segments(p.r)), None), profile))
    add(7, "nonlocality witness |d_X h(R;0)| > 1e-2",
        lambda lin: (abs(lin.boundary_value) > MIN_BOUNDARY_VALUE, f"d_X h(R;0) = {lin.boundary_value:.6f}"),
        linearised)
    loop_nr = min(LOOP_CHECK_NR, nr)

    def ring_derivatives(solve):  # of the rim ring, from the tangent solve; it fails if that raises
        try:
            return boundary_ring_position_derivatives(solve.field, solve.report), None
        except (ValueError, LinearSolveError) as exc:
            return None, str(exc)

    def loop_integral(lin, ring):
        loop_tol = TOL_LOOP_INTEGRAL * ((LOOP_CHECK_NR / loop_nr) ** 1.5)
        rho, _, dxh, dyh = ring
        direct = ring_metric_integral(dxh, dyh)
        closed = math.pi * (lin.a_at(rho) - 2.0 / rho) ** 2
        loop_err = abs(direct - closed) / abs(closed)
        return loop_err <= loop_tol, (f"direct={direct:.6f} closed={closed:.6f} rel_err={loop_err:.2e} "
                                      f"tol={loop_tol:.2e}")
    add(7, "loop integral matches closed form", loop_integral,
        linearised, (f"tangent solve at {loop_nr}x{loop_nr}", ring_derivatives, solved(loop_nr)))

    # --- 8. symmetry suite ---------------------------------------------------
    add(8, "core coefficient b(0) = 0",
        lambda s: _at_most(abs(_fit_b(s.field, 0j)), TOL_B_ORIGIN, "|b(0)| = {:.2e}"), centred)
    add(8, "rotational symmetry of centered solve",
        lambda s: _at_most(float(np.max(np.ptp(s.field.values, axis=1))), TOL_ROTATIONAL,
                           "max angular spread = {:.2e}"), centred)

    def reflection(s):  # theta -> -theta takes node j to node -j mod ntheta
        flipped = s.field.values[:, (-np.arange(s.field.grid.ntheta)) % s.field.grid.ntheta]
        asymmetry = float(np.max(np.abs(s.field.values - flipped)))
        return asymmetry <= TOL_REFLECTION, f"max asymmetry = {asymmetry:.2e}"
    add(8, "reflection symmetry of boundary solve", reflection, boundary)

    # --- 9. boundary-vortex energy peaks inside ----------------------------
    def peak_inside(s):
        grid = s.field.grid
        i_max, _ = np.unravel_index(np.argmax(s.obs().energy_density.values), grid.shape)
        return i_max < grid.nr - 1, f"argmax radius {grid.r[i_max]:.4f} < R - dr = {disk.radius - grid.dr:.4f}"
    add(9, "energy maximum strictly inside the disk", peak_inside, boundary)

    # --- 10. Green-function suite -------------------------------------------
    def log_slope(distances, values, k, tol):  # the slope against log(distances) is +-1/k
        slope, _ = np.abs(np.polyfit(np.log(distances), values, 1))
        rel_err = abs(slope - 1.0 / k) * k
        return rel_err <= tol, f"|slope|={slope:.5f} vs {1 / k:.5f} rel_err={rel_err:.2e}"

    qa, qb = (10, 7), (30, 29)
    add(10, "Green symmetry G_Q(Q') = G_Q'(Q)",
        lambda ga, gb: _at_most(abs(ga.values[qb] - gb.values[qa]), TOL_GREEN_SYMMETRY,
                                "|diff| = {:.2e} <= {:.0e}"),
        green(GREEN_SYMMETRY_NR, GREEN_SYMMETRY_NR, qa), green(GREEN_SYMMETRY_NR, GREEN_SYMMETRY_NR, qb))
    i_fit = np.arange(4, 9)
    add(10, "interior Green log slope 1/(2*pi)",
        lambda g: log_slope(i_fit * g.grid.dr, g.values[i_fit, 0], 2.0 * math.pi, TOL_GREEN_INTERIOR_SLOPE),
        green(GREEN_INTERIOR_NR, GREEN_INTERIOR_NR, (0, 0)))

    def boundary_slope(h):
        spacing = max(h.grid.dr, disk.radius * h.grid.dtheta)
        depth = disk.radius - h.grid.r
        sel = np.where((depth >= 4.0 * spacing) & (depth <= 8.0 * spacing))[0]
        return log_slope(depth[sel], h.values[sel, 0], math.pi, TOL_GREEN_BOUNDARY_SLOPE)
    add(10, "boundary Green log slope 1/pi", boundary_slope,
        green(GREEN_BOUNDARY_NR, GREEN_BOUNDARY_NTHETA, 0.0, boundary_neumann_green,
              "boundary Green function at angle"))

    return results
