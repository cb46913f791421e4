"""Acceptance verification: quantization laws, cross-solver and symmetry checks.

Every check pins its tolerance here.  The reference resolution is 256x256;
running coarser relaxes the discretisation-limited tolerances by the observed
convergence model: quadrature-type checks scale with ``(256/nr)^1.5`` and the
cross-solver field comparison with ``(256/nr)^2`` (second-order scheme).
Exact-arithmetic and solver-tolerance checks never scale.  The Green-function
and loop-integral checks run on fixed auxiliary grids chosen for their own
resolution needs, independent of ``nr``.  The centred unit vortex is solved
once per grid size; the refinement study and the loop-integral check reuse
those solves.  The loop-integral check takes the vortex-position derivative
of the centred field from the tangent-linear solve at it
(``moduli.boundary_ring_position_derivatives``); when that field solve does
not converge, the check is recorded as failed with the reason.  So are the
checks that need a converged radial shoot when it does not converge.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import (
    BradlowViolation,
    ConformalDisk,
    VortexConfiguration,
    bradlow_margin,
    build_grid,
)
from .moduli import (
    _fit_b,
    boundary_ring_position_derivatives,
    ring_metric_integral,
    solve_linear_bvp,
    solve_linearized,
)
from .observables import compute_observables
from .shooting import DEFAULT_STEPS, shoot
from .singular import boundary_neumann_green, neumann_green
from .solver2d import solve_taubes_2d

__all__ = ["CheckResult", "run_acceptance", "BASE_NR"]

BASE_NR = 256

# Criterion tolerances at the reference resolution.
TOL_FLUX_INTERIOR = 0.01
TOL_FLUX_BOUNDARY = 0.015
TOL_ENERGY_INTERIOR = 0.02
TOL_ENERGY_BOUNDARY = 0.025
TOL_BOGOMOLNY = 0.01
RUNTIME_LIMIT = 60.0
TOL_GATE_MARGIN = 1e-9
MAX_NEWTON_ITER = 50
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

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion:2d}  {self.name}: {self.detail}"


def _rel(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def _unconverged(report) -> str:
    """Detail suffix naming why a solve stopped, empty once it converged."""
    return "" if report.converged else f"; solve not converged ({report.termination})"


@contextmanager
def _stage(say, label):
    """Run the block, then log ``label ... <elapsed> s``; the yielded record gets ``seconds``."""
    stage = SimpleNamespace()
    t0 = time.perf_counter()
    yield stage
    stage.seconds = time.perf_counter() - t0
    say(f"{label} ... {stage.seconds:.2f} s")


def _log_slope(distances, values):
    slope, _ = np.polyfit(np.log(distances), values, 1)
    return float(slope)


def run_acceptance(
    nr: int = BASE_NR,
    tol: float = 1e-8,
    radial_steps: int = DEFAULT_STEPS,
    log=None,
) -> list[CheckResult]:
    """Run all acceptance checks at resolution ``nr`` and return their records."""
    say = log if log is not None else (lambda _msg: None)
    results: list[CheckResult] = []

    def add(criterion, name, passed, detail):
        record = CheckResult(criterion, name, bool(passed), detail)
        results.append(record)
        say(record.line())

    scale = (BASE_NR / nr) ** 1.5 if nr < BASE_NR else 1.0
    cross_scale = (BASE_NR / nr) ** 2.0 if nr < BASE_NR else 1.0

    disk = ConformalDisk.flat(3.0)
    centred = {}

    def centred_solve(level):
        """``(field, report)`` of the centred unit vortex on ``level x level``, solved once."""
        if level not in centred:
            centred[level] = solve_taubes_2d(
                disk, VortexConfiguration.centered(1), build_grid(disk, level, level),
                tol=tol, max_iter=MAX_NEWTON_ITER,
            )
        return centred[level]

    # --- shared solves -----------------------------------------------------
    with _stage(say, f"solving centered vortex at {nr}x{nr}") as centered_stage:
        centered, centered_report = centred_solve(nr)
    grid = centered.grid

    with _stage(say, f"solving boundary vortex at {nr}x{nr}") as boundary_stage:
        boundary_field, boundary_report = solve_taubes_2d(
            disk, VortexConfiguration.boundary_point(0.0, 1), grid, tol=tol, max_iter=MAX_NEWTON_ITER
        )

    with _stage(say, f"radial shoot at {radial_steps} and {2 * radial_steps} steps"):
        profile = shoot(disk, n=1, tol=TOL_SHOOT_SLOPE, steps=radial_steps)
        profile_fine = shoot(disk, n=1, tol=TOL_SHOOT_SLOPE, steps=2 * radial_steps)

    centered_obs = compute_observables(centered, centered_report)
    boundary_obs = compute_observables(boundary_field, boundary_report)

    # --- 1. flux quantization, interior vortex -----------------------------
    err = _rel(centered_obs.flux, 2.0 * math.pi)
    add(1, "interior flux = 2*pi",
        centered_report.converged and err <= TOL_FLUX_INTERIOR * scale,
        f"flux={centered_obs.flux:.6f} rel_err={err:.2e} tol={TOL_FLUX_INTERIOR * scale:.2e}"
        + _unconverged(centered_report))
    add(1, "interior solve runtime", centered_stage.seconds < RUNTIME_LIMIT,
        f"{centered_stage.seconds:.1f}s < {RUNTIME_LIMIT:.0f}s")

    # --- 2. flux quantization, boundary half-vortex ------------------------
    err = _rel(boundary_obs.flux, math.pi)
    add(2, "boundary flux = pi",
        boundary_report.converged and err <= TOL_FLUX_BOUNDARY * scale,
        f"flux={boundary_obs.flux:.6f} rel_err={err:.2e} tol={TOL_FLUX_BOUNDARY * scale:.2e}"
        + _unconverged(boundary_report))
    add(2, "boundary solve runtime", boundary_stage.seconds < RUNTIME_LIMIT,
        f"{boundary_stage.seconds:.1f}s < {RUNTIME_LIMIT:.0f}s")

    # --- 3. energy quantization and the flux identity ----------------------
    err = _rel(centered_obs.energy, math.pi)
    add(3, "interior energy = pi", err <= TOL_ENERGY_INTERIOR * scale,
        f"energy={centered_obs.energy:.6f} rel_err={err:.2e} tol={TOL_ENERGY_INTERIOR * scale:.2e}")
    err = _rel(boundary_obs.energy, 0.5 * math.pi)
    add(3, "boundary energy = pi/2", err <= TOL_ENERGY_BOUNDARY * scale,
        f"energy={boundary_obs.energy:.6f} rel_err={err:.2e} tol={TOL_ENERGY_BOUNDARY * scale:.2e}")
    for label, obs in (("interior", centered_obs), ("boundary", boundary_obs)):
        defect = abs(obs.energy - 0.5 * obs.flux) / obs.flux
        add(3, f"energy = flux/2 ({label})", defect <= TOL_BOGOMOLNY * scale,
            f"|E - Phi/2|/Phi = {defect:.2e} tol={TOL_BOGOMOLNY * scale:.2e}")

    # --- 4. existence gate equivalence --------------------------------------
    margin3 = bradlow_margin(VortexConfiguration.centered(3), disk)
    add(4, "gate rejects N=3 at R=3", abs(margin3 + 0.75) <= TOL_GATE_MARGIN,
        f"margin={margin3:.12f} (expected -0.75)")
    disk1 = ConformalDisk.flat(1.0)
    margin_r1 = bradlow_margin(VortexConfiguration.centered(1), disk1)
    add(4, "gate rejects N=1 at R=1", margin_r1 <= 0.0, f"margin={margin_r1:.12f} <= 0")
    for bad_cfg, bad_disk, lbl in (
        (VortexConfiguration.centered(3), disk, "N=3, R=3"),
        (VortexConfiguration.centered(1), disk1, "N=1, R=1"),
    ):
        try:
            solve_taubes_2d(bad_disk, bad_cfg, build_grid(bad_disk, 16, 16))
            refused = False
        except BradlowViolation:
            refused = True
        add(4, f"solver refuses {lbl}", refused, "gate raised before iterating")
    add(4, "solver converges N=1 at R=3",
        centered_report.converged and centered_report.iterations <= MAX_NEWTON_ITER,
        f"{centered_report.iterations} Newton iterations")
    with _stage(say, "solving N=2 configuration"):
        # An even grid has no node at radius 1/2: (i + 1/2) * 3/n = 1/2 needs n = 6i + 3.
        n2_nr = min(nr, 128) // 2 * 2
        n2_cfg = VortexConfiguration(interior=((0.5 + 0j, 1), (-0.5 + 0j, 1)))
        _, n2_report = solve_taubes_2d(
            disk, n2_cfg, build_grid(disk, n2_nr, n2_nr), tol=tol, max_iter=MAX_NEWTON_ITER
        )
    add(4, "solver converges N=2 at R=3",
        n2_report.converged and n2_report.iterations <= MAX_NEWTON_ITER,
        f"{n2_report.iterations} Newton iterations (margin {bradlow_margin(n2_cfg, disk):.2f})")

    # --- 5. cross-solver agreement and grid convergence --------------------
    errors = {}
    with _stage(say, "grid refinement study"):
        for level in (nr // 4, nr // 2, nr):
            fld, _ = centred_solve(level)
            oracle = profile.htilde_at(fld.grid.r)
            errors[level] = float(np.max(np.abs(fld.values - oracle[:, None])))
    e_coarse, e_mid, e_fine = (errors[k] for k in (nr // 4, nr // 2, nr))
    add(5, "2d field matches radial profile", e_fine <= TOL_CROSS_FIELD * cross_scale,
        f"max_err={e_fine:.2e} tol={TOL_CROSS_FIELD * cross_scale:.2e}")
    p1 = math.log2(e_coarse / e_mid)
    p2 = math.log2(e_mid / e_fine)
    add(5, "observed convergence order", min(p1, p2) >= MIN_CONV_ORDER,
        f"orders {p1:.2f}, {p2:.2f} >= {MIN_CONV_ORDER}")

    # --- 6. shooting reproduces the radial setup ---------------------------
    shoot_failure = None if profile.converged else profile.failure_reason(TOL_SHOOT_SLOPE)
    fine_failure = shoot_failure or (
        None if profile_fine.converged else profile_fine.failure_reason(TOL_SHOOT_SLOPE))
    add(6, "boundary slope -2/3 met", shoot_failure is None and profile.residual <= TOL_SHOOT_SLOPE,
        shoot_failure or f"|slope + 2/3| = {profile.residual:.2e} <= {TOL_SHOOT_SLOPE:.0e}")
    h0_shift = abs(profile.h0 - profile_fine.h0)
    add(6, "h0 stable under step halving", fine_failure is None and h0_shift < TOL_H0_STABILITY,
        fine_failure or f"|h0({radial_steps}) - h0({2 * radial_steps})| = {h0_shift:.2e} "
                        f"< {TOL_H0_STABILITY:.0e}")

    # --- 7. moduli nonlocality witness --------------------------------------
    loop_nr = min(LOOP_CHECK_NR, nr)
    loop_failure = shoot_failure
    with _stage(say, "linearized solve and loop-integral check"):
        vacuum = solve_linear_bvp(lambda r: np.zeros_like(r), disk.radius)
        if shoot_failure is None:
            lin = solve_linearized(disk, profile)
            loop_field, loop_report = centred_solve(loop_nr)
            try:
                rho, _, dxh, dyh = boundary_ring_position_derivatives(loop_field, loop_report)
            except ValueError as exc:
                loop_failure = str(exc)
    vac_err = float(np.max(np.abs(vacuum.a + 2.0 * vacuum.r / disk.radius**2)))
    add(7, "vacuum closed form a = -2r/R^2", vac_err <= TOL_VACUUM_ORACLE,
        f"max_err={vac_err:.2e} <= {TOL_VACUUM_ORACLE:.0e}")
    add(7, "nonlocality witness |d_X h(R;0)| > 1e-2",
        shoot_failure is None and abs(lin.boundary_value) > MIN_BOUNDARY_VALUE,
        shoot_failure or f"d_X h(R;0) = {lin.boundary_value:.6f}")
    if loop_failure is not None:
        add(7, "loop integral matches closed form", False, loop_failure)
    else:
        loop_tol = TOL_LOOP_INTEGRAL * ((LOOP_CHECK_NR / loop_nr) ** 1.5)
        direct = ring_metric_integral(dxh, dyh)
        closed = math.pi * (lin.a_at(rho) - 2.0 / rho) ** 2
        loop_err = abs(direct - closed) / abs(closed)
        add(7, "loop integral matches closed form", loop_err <= loop_tol,
            f"direct={direct:.6f} closed={closed:.6f} rel_err={loop_err:.2e} tol={loop_tol:.2e}")

    # --- 8. symmetry suite ---------------------------------------------------
    b0 = _fit_b(centered, 0j)
    add(8, "core coefficient b(0) = 0", abs(b0) <= TOL_B_ORIGIN, f"|b(0)| = {abs(b0):.2e}")
    variance = float(np.max(np.ptp(centered.values, axis=1)))
    add(8, "rotational symmetry of centered solve", variance <= TOL_ROTATIONAL,
        f"max angular spread = {variance:.2e}")
    flipped = boundary_field.values[:, (-np.arange(grid.ntheta)) % grid.ntheta]
    refl = float(np.max(np.abs(boundary_field.values - flipped)))
    add(8, "reflection symmetry of boundary solve", refl <= TOL_REFLECTION,
        f"max asymmetry = {refl:.2e}")

    # --- 9. boundary-vortex energy peaks inside ----------------------------
    i_max, _ = np.unravel_index(np.argmax(boundary_obs.energy_density.values), grid.shape)
    add(9, "energy maximum strictly inside the disk", i_max < grid.nr - 1,
        f"argmax radius {grid.r[i_max]:.4f} < R - dr = {disk.radius - grid.dr:.4f}")

    # --- 10. Green-function suite -------------------------------------------
    qa, qb = (10, 7), (30, 29)
    with _stage(say, "Green-function checks"):
        sym_grid = build_grid(disk, GREEN_SYMMETRY_NR, GREEN_SYMMETRY_NR)
        ga = neumann_green(disk, sym_grid, qa)
        gb = neumann_green(disk, sym_grid, qb)
        gi_grid = build_grid(disk, GREEN_INTERIOR_NR, GREEN_INTERIOR_NR)
        gq = neumann_green(disk, gi_grid, (0, 0))
        gb_grid = build_grid(disk, GREEN_BOUNDARY_NR, GREEN_BOUNDARY_NTHETA)
        hq = boundary_neumann_green(disk, gb_grid, 0.0)
    sym_err = abs(ga.values[qb] - gb.values[qa])
    add(10, "Green symmetry G_Q(Q') = G_Q'(Q)", sym_err <= TOL_GREEN_SYMMETRY,
        f"|diff| = {sym_err:.2e} <= {TOL_GREEN_SYMMETRY:.0e}")

    i_fit = np.arange(4, 9)
    slope = _log_slope(i_fit * gi_grid.dr, gq.values[i_fit, 0])
    rel_err = abs(abs(slope) - 1.0 / (2.0 * math.pi)) * 2.0 * math.pi
    add(10, "interior Green log slope 1/(2*pi)", rel_err <= TOL_GREEN_INTERIOR_SLOPE,
        f"|slope|={abs(slope):.5f} vs {1/(2*math.pi):.5f} rel_err={rel_err:.2e}")

    spacing = max(gb_grid.dr, disk.radius * gb_grid.dtheta)
    depth = disk.radius - gb_grid.r
    sel = np.where((depth >= 4.0 * spacing) & (depth <= 8.0 * spacing))[0]
    slope = _log_slope(depth[sel], hq.values[sel, 0])
    rel_err = abs(abs(slope) - 1.0 / math.pi) * math.pi
    add(10, "boundary Green log slope 1/pi", rel_err <= TOL_GREEN_BOUNDARY_SLOPE,
        f"|slope|={abs(slope):.5f} vs {1/math.pi:.5f} rel_err={rel_err:.2e}")

    return results
