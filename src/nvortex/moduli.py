"""Moduli-space metric data for one vortex on a rotationally symmetric disk.

For a unit vortex at the origin the position derivative of the field splits as

    d_X h = (-2/r + a(r)) * cos(theta),

where the radial factor ``a`` solves the linear two-point problem

    a'' + a'/r - a/r^2 = f(r) * (a - 2/r),   f = Omega * exp(h),

regular at the origin with ``a'(R) = -2/R^2``; ``solve_linear_bvp`` solves
it by multiple shooting with the radial shoot's segments, RK4 sweep and
banded joint solve (``shooting._segments``, ``_sweep``, ``_solve_joints``).
The kinetic-energy coefficient of a moving vortex combines a boundary term,
``(1/2) * pi * (d_X h(R; 0))^2`` with ``d_X h(R; 0) = a(R) - 2/R``, and the
local term ``pi * (Omega(0) + 2 db/dZ)`` built from the core coefficient
``b(Z) = d_zbar (h - log|z - Z|^2)`` at ``z = Z`` (Samols, "Vortex
scattering", CMP 145, 1992).  A nonzero boundary term is the witness that the
metric is not a purely local function of vortex position.

Convention: the smooth part of the position derivative is
``d_X htilde = a(r) cos(theta)``, so near the core ``d_Z htilde = a'(0) zbar / 2``
and, with ``d_z d_zbar htilde = -Omega(0)/4`` at the core,
``db/dZ = a'(0)/2 - Omega(0)/4``: real, and read off the radial solve with no
2-D solve and no differencing in the vortex position.  The local term is then
``pi * (Omega(0)/2 + a'(0))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConformalDisk,
    ScalarField,
    VortexConfiguration,
)
from .operators import assemble_neumann_laplacian
from .shooting import (
    DEFAULT_EPS,
    DEFAULT_STEPS,
    RadialProfile,
    _hermite,
    _segments,
    _solve_joints,
    _sweep,
    shoot,
)
from .solver2d import CG_RTOL, SolveReport, _solve_spd

__all__ = [
    "LinearizedProfile",
    "MetricReport",
    "ConditioningError",
    "FitError",
    "solve_linear_bvp",
    "solve_linearized",
    "boundary_metric_term",
    "boundary_ring_position_derivatives",
    "ring_metric_integral",
    "metric_coefficient",
]

#: Sized like ``shooting.DEFAULT_STEPS``.  Driven by a 1M-step shoot,
#: ``boundary_value`` on the flat R = 25 disk is off by 1.1e-11 at 6,500
#: steps and by 8.0e-12 at 7,000; the other disks are within 1e-11 from 6,000.
DEFAULT_LIN_STEPS = 7_000
#: Inner start of the linearized integration, as a fraction of the radius;
#: the regular branch ``a ~ c r`` is imposed there (the 1/r branch is excluded
#: by smoothness of the position derivative at the origin).
EPS_FRACTION = 1e-6


class ConditioningError(RuntimeError):
    """The block system for the linearized profile overflowed or is singular."""


class FitError(RuntimeError):
    """The core-coefficient fit has too few usable nodes (grid too coarse)."""


@dataclass
class LinearizedProfile:
    """Radial factor of the position derivative and its boundary data."""

    r: np.ndarray
    a: np.ndarray
    da: np.ndarray  # a'(r) at the nodes, from the sweep's q = r a'
    aR: float
    slope0: float  # a'(0), the coefficient of the regular branch a ~ c r
    boundary_value: float  # d_X h(R; 0) = a(R) - 2/R
    bc_defect: float  # |a'(R) + 2/R^2|, zero up to roundoff by construction

    def a_at(self, r) -> np.ndarray:
        """Cubic Hermite interpolation of ``a`` and ``da`` onto radii ``r``.

        Outside ``[r[0], r[-1]]`` it holds the end values.
        """
        return _hermite(np.asarray(r, dtype=float), self.r, self.a, self.da)


def solve_linear_bvp(
    f_of_r,
    radius: float,
    steps: int = DEFAULT_LIN_STEPS,
    *,
    breakpoints=(),
) -> LinearizedProfile:
    """Solve ``a'' + a'/r - a/r^2 = f(r)(a - 2/r)`` by multiple shooting.

    Integrates in ``t = log r`` (keeping the Euler-type coefficients bounded
    near the core) with ``steps`` classical RK4 steps from
    ``eps = EPS_FRACTION * radius``; ``f_of_r`` is evaluated once, at the
    ``2 * steps + 1`` half-node radii.  The steps are cut into segments as
    for ``shoot`` (``_segments``), with a node on each of the increasing
    radii ``breakpoints`` where ``f`` has a kink (``ConformalDisk.breakpoints``;
    uniform steps without), and one ``_sweep`` steps every segment
    from a zero start with an identity variational matrix.  The system is
    linear, so that sweep's rows after each step are exactly the affine map
    of the segment so far: ``a = y0 + x00 a_b + x01 q_b`` from the segment's
    start state ``(a_b, q_b)``.  One banded solve (``_solve_joints``) gives
    ``a'(0)`` (``slope0``; the regular branch is seeded as
    ``a = slope0 * r``) and every segment-start state from continuity at the
    joints and ``a'(R) = -2/R^2``.  Short segments keep it well conditioned
    on large disks, where both solutions of the equation grow like ``e^r``.
    The vacuum case ``f == 0`` has the closed form ``a = -2 r / R^2``.

    Raises ``ValueError`` unless ``steps`` is a positive integer, ``radius``
    is positive and finite and ``f_of_r`` returns finite values
    broadcastable to the half-node radii; ``ConditioningError`` if the
    sweep overflows or the banded factor is singular.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    eps = EPS_FRACTION * radius
    breaks = [math.log(b) for b in breakpoints if b > 0.0]
    r_half, index, dt = _segments(math.log(eps), math.log(radius), steps, breaks)
    np.exp(r_half, out=r_half)  # the half-node radii, from their values of t = log r
    f_half = np.asarray(f_of_r(r_half), dtype=float)
    try:
        f_half = np.broadcast_to(f_half, r_half.shape)
    except ValueError:
        raise ValueError(
            f"f_of_r must return values broadcastable to the half-node radii, shape "
            f"{r_half.shape}; got shape {f_half.shape}"
        ) from None
    bad = np.count_nonzero(~np.isfinite(f_half))
    if bad:
        raise ValueError(f"coefficient f is not finite at {bad} of {f_half.size} half-node radii")
    # In t the system reads a_t = q, q_t = P(t) a + s(t).
    p = (1.0 + r_half**2 * f_half)[index]
    s = (-2.0 * r_half * f_half)[index]

    def rhs(j, y):
        k = np.empty_like(y)
        k[::2] = y[1::2]
        k[1] = p[j] * y[0] + s[j]
        k[3::2] = p[j] * y[2::2]
        return k

    y, ys = _sweep(rhs, dt, np.zeros((2, index.shape[1])))
    overflow = ConditioningError("linearized integration overflowed before the boundary")
    if not np.isfinite(y).all():
        raise overflow
    d0, d1, x00, x10, x01, x11 = y
    # Continuity X_b s_b + d_b = s_{b+1} at each joint, then the outer
    # condition q(T) = R a'(R) = -2/R; the seed is (a, q) = slope0 * (eps, eps).
    rhs_joints = np.empty(2 * d0.size - 1)
    rhs_joints[0:-1:2], rhs_joints[1:-1:2] = -d0[:-1], -d1[:-1]
    rhs_joints[-1] = -2.0 / radius - d1[-1]
    lead = ((x00[0] + x01[0]) * eps, (x10[0] + x11[0]) * eps)
    try:
        x = _solve_joints(lead, (x00, x01, x10, x11), rhs_joints)
    except np.linalg.LinAlgError:
        raise ConditioningError("the banded block system for the linearized profile is singular") from None
    slope0 = float(x[0])
    start_a = np.concatenate(([slope0 * eps], x[1::2]))
    start_q = np.concatenate(([slope0 * eps], x[2::2]))
    a, q = np.empty(steps + 1), np.empty(steps + 1)
    a[0] = q[0] = slope0 * eps
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.array([(state[0] + state[2] * start_a + state[4] * start_q,
                          state[1] + state[3] * start_a + state[5] * start_q) for state in ys])
    a[1:] = rows[:, 0].T.ravel()[:steps]
    q[1:] = rows[:, 1].T.ravel()[:steps]
    if not np.isfinite(a).all():
        raise overflow
    a_end = float(a[-1])
    q_end = x10[-1] * start_a[-1] + x11[-1] * start_q[-1] + d1[-1]
    bc_defect = abs(q_end / radius + 2.0 / radius**2)
    r = r_half[::2].copy()
    return LinearizedProfile(
        r=r,
        a=a,
        da=q / r,
        aR=a_end,
        slope0=slope0,
        boundary_value=a_end - 2.0 / radius,
        bc_defect=bc_defect,
    )


def solve_linearized(
    disk: ConformalDisk,
    radial: RadialProfile,
    steps: int = DEFAULT_LIN_STEPS,
) -> LinearizedProfile:
    """Linearized profile driven by a converged unit-vortex radial solution.

    The coefficient reads ``htilde`` off ``radial`` by cubic Hermite
    interpolation at the half-node radii, and the steps fall on the disk's
    breakpoints, so the solve stays fourth order in both step counts.
    """
    if radial.n != 1:
        raise ValueError("the linearized problem is defined for a unit vortex")
    if not radial.converged:
        raise ValueError("radial profile must be converged")

    def f_of_r(r):
        return disk.omega_at(r) * r**2 * np.exp(radial.htilde_at(r))

    return solve_linear_bvp(f_of_r, disk.radius, steps=steps, breakpoints=disk.breakpoints)


def boundary_metric_term(lin: LinearizedProfile) -> float:
    """Boundary contribution ``(1/2) * pi * (d_X h(R; 0))^2`` (never negative)."""
    return 0.5 * math.pi * lin.boundary_value**2


def _fit_b(htilde: ScalarField, z_core: complex) -> complex:
    """Core coefficient from a local polynomial fit of ``htilde`` at ``z_core``.

    For a single vortex at ``Z`` the regular part ``h - log|z - Z|^2`` equals
    ``htilde``, so ``b(Z) = d_zbar htilde|_Z = (d_x + i d_y) htilde / 2``,
    read off the linear coefficients of a least-squares fit on the annulus
    ``2 dr <= |z - Z| <= 6 dr`` (inside the core's analytic neighbourhood,
    outside the worst discretisation error).  The design includes the full
    quadratic so the field curvature is absorbed by nuisance coefficients;
    with a purely linear design the curvature aliases into the gradient as
    nodes enter and leave the annulus when the fit point moves.
    """
    grid = htilde.grid
    d = grid.nodes_complex - z_core
    dist = np.abs(d)
    mask = (dist >= 2.0 * grid.dr) & (dist <= 6.0 * grid.dr)
    count = int(np.count_nonzero(mask))
    if count < 12:
        raise FitError(f"only {count} nodes in the fit annulus; refine the grid")
    dx, dy = d.real[mask], d.imag[mask]
    design = np.column_stack([np.ones(count), dx, dy, dx * dx, dx * dy, dy * dy])
    coeffs, *_ = np.linalg.lstsq(design, htilde.values[mask], rcond=None)
    return 0.5 * (coeffs[1] + 1j * coeffs[2])


def _position_tangents(field: ScalarField, report: SolveReport):
    """``d_X htilde`` and ``d_Y htilde`` at a centred unit vortex, each ``(nr, ntheta)``.

    ``(field, report)`` is what ``solve_taubes_2d`` returned for
    ``VortexConfiguration.centered(1)``; the grid, the disk and ``v0`` come
    from it, and no field is solved here.  The tangent equation of the
    discrete field equation at that field,
    ``(L - diag(s)) u = s d_X v0 - b(d_X g)`` with ``s = w Omega e^h``,
    ``d_X v0 = -2 cos(theta)/r`` and ``d_X g = -2 cos(theta)/R^2`` (``sin`` for
    ``d_Y``).  The shift ``s`` is ring-constant, so PCG stops after one
    iteration.  Raises ``ValueError`` for another configuration, or naming
    the termination of an unconverged solve.
    """
    singular = report.singular
    if singular.config != VortexConfiguration.centered(1):
        raise ValueError(f"position tangents need one unit vortex at the origin, got {singular.config}")
    if not report.converged:
        raise ValueError(f"centred field solve did not converge ({report.termination})")
    disk, grid = singular.disk, field.grid
    lap = assemble_neumann_laplacian(grid, disk)
    h = field.values + singular.v0.values
    shift = lap.weights * (disk.omega_at(grid.r)[:, None] * np.exp(h)).ravel()
    tangents = []
    for trig in (np.cos(grid.theta), np.sin(grid.theta)):
        d_v0 = -2.0 * (trig / grid.r[:, None]).ravel()
        rhs = shift * d_v0 - lap.boundary_flux_vector(-2.0 * trig / disk.radius**2)
        tangents.append(_solve_spd(lap, shift, rhs, CG_RTOL)[0].reshape(grid.shape))
    return tangents


def boundary_ring_position_derivatives(field: ScalarField, report: SolveReport):
    """``d_X h`` and ``d_Y h`` on the outermost node ring for a vortex at 0.

    The 2-D witness for the radial factor ``a``: the smooth part from
    ``_position_tangents(field, report)`` plus the core logarithm's
    ``-2 cos(theta)/rho`` (``sin`` for ``d_Y h``).  Returns
    ``(rho, theta, dxh, dyh)``.
    """
    rho, theta = field.grid.r[-1], field.grid.theta
    ux, uy = _position_tangents(field, report)
    return rho, theta, ux[-1] - 2.0 * np.cos(theta) / rho, uy[-1] - 2.0 * np.sin(theta) / rho


def ring_metric_integral(dxh: np.ndarray, dyh: np.ndarray) -> float:
    """Loop integral of ``d_X h``  against ``d(d_Y h)`` over a node ring.

    Periodic second-order quadrature: ``sum_j f_j (g_{j+1} - g_{j-1}) / 2``.
    For a vortex at the centre of a rotationally symmetric disk it equals
    ``pi * (d_X h(rho; 0))^2`` on every concentric ring.
    """
    return float(np.sum(dxh * (np.roll(dyh, -1) - np.roll(dyh, 1))) / 2.0)


@dataclass
class MetricReport:
    """Assembled kinetic-energy coefficient of one vortex through the origin.

    ``total_coefficient = boundary_term + local_term`` multiplies the squared
    modulus of the vortex velocity.  ``db_dZ = a'(0)/2 - Omega(0)/4`` comes
    from the radial linearized solve (see the module docstring), so it is
    real.  ``to_dict`` keeps the schema's keys of the finite-difference
    pipeline this replaced: ``samols_b_*``, the core coefficient ``b(0)``, is
    exactly zero by rotational symmetry, ``db_dZ_coarse_*`` repeats ``db_dZ``
    and ``delta`` is ``R/100``, with which nothing is differenced.
    """

    boundary_value: float
    boundary_term: float
    db_dZ: complex
    local_term: float
    total_coefficient: float
    delta: float
    nonlocal_boundary_term: bool

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "boundary_value": self.boundary_value,
            "boundary_term": self.boundary_term,
            "samols_b_re": 0.0,
            "samols_b_im": 0.0,
            "db_dZ_re": self.db_dZ.real,
            "db_dZ_im": self.db_dZ.imag,
            "db_dZ_coarse_re": self.db_dZ.real,
            "db_dZ_coarse_im": self.db_dZ.imag,
            "local_term": self.local_term,
            "total_coefficient": self.total_coefficient,
            "delta": self.delta,
            "nonlocal_boundary_term": self.nonlocal_boundary_term,
        }


def metric_coefficient(
    disk: ConformalDisk,
    *,
    radial_steps: int = DEFAULT_STEPS,
    radial_eps: float = DEFAULT_EPS,
    radial_tol: float = 1e-6,
) -> MetricReport:
    """Full metric pipeline for a unit vortex at the origin.

    Runs the radial shoot (``radial_steps``, ``radial_eps`` and ``radial_tol``
    are ``shoot``'s ``steps``, ``eps`` and ``tol``) and the linearized
    boundary-value solve, which gives both the boundary term and ``a'(0)``
    for the local term; no 2-D field is solved.  Raises ``RuntimeError`` if
    the shoot does not converge.
    """
    radial = shoot(disk, n=1, tol=radial_tol, eps=radial_eps, steps=radial_steps)
    if not radial.converged:
        raise RuntimeError(radial.failure_reason(radial_tol))
    lin = solve_linearized(disk, radial)
    bterm = boundary_metric_term(lin)
    omega0 = float(disk.omega_at(0.0))
    db = complex(0.5 * lin.slope0 - 0.25 * omega0, 0.0)
    local = math.pi * (0.5 * omega0 + lin.slope0)
    return MetricReport(
        boundary_value=lin.boundary_value,
        boundary_term=bterm,
        db_dZ=db,
        local_term=local,
        total_coefficient=bterm + local,
        delta=disk.radius / 100.0,
        nonlocal_boundary_term=bterm > 0.0,
    )
