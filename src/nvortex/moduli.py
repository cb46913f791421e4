"""Moduli-space metric data for one vortex on a rotationally symmetric disk.

For a unit vortex at the origin the position derivative of the field splits as

    d_X h = (-2/r + a(r)) * cos(theta),

where the radial factor ``a`` solves the linear two-point problem

    a'' + a'/r - a/r^2 = f(r) * (a - 2/r),   f = Omega * exp(h),

regular at the origin with ``a'(R) = -2/R^2``; ``solve_linearized`` solves
it on the radial shoot's own nodes (``RadialProfile.r``, cut by
``shooting._segments``) as one Newton correction of the shoot's one
multiple-shooting system, read off that correction's sweep
(``shooting._solve_linear``).  This module places no nodes: its one body,
``_solve_on``, serves ``solve_linearized`` and, with ``f = 0``, ``verify``'s
vacuum oracle ``a = -2r/R^2`` on a shoot's nodes.
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
from .observables import SCHEMA_VERSION
from .operators import assemble_neumann_laplacian
from .shooting import (
    DEFAULT_STEPS,
    SEED_RADIUS,
    RadialProfile,
    _hermite,
    _segments,
    _solve_linear,
    shoot,
)
from .solver2d import CG_RTOL, SolveReport, _solve_spd

__all__ = [
    "LinearizedProfile",
    "MetricReport",
    "ConditioningError",
    "solve_linearized",
    "boundary_ring_position_derivatives",
    "ring_metric_integral",
    "metric_coefficient",
]

class ConditioningError(RuntimeError):
    """The block system for the linearized profile overflowed or is singular."""


@dataclass
class LinearizedProfile:
    """Radial factor of the position derivative and its boundary data."""

    r: np.ndarray
    a: np.ndarray
    da: np.ndarray  # a'(r) at the nodes, from the sweep
    slope0: float  # a'(0), the coefficient of the regular branch a ~ c r
    boundary_value: float  # d_X h(R; 0) = a(R) - 2/R
    bc_defect: float  # |a'(R) + 2/R^2|, measured on the nodes read off the sweep

    def a_at(self, r) -> np.ndarray:
        """Cubic Hermite interpolation of ``a`` and ``da`` onto radii ``r``.

        Outside ``[r[0], r[-1]]`` it holds the end values.
        """
        return _hermite(np.asarray(r, dtype=float), self.r, self.a, self.da)


def _solve_on(f, radius, r_half, index, dr) -> LinearizedProfile:
    """Solve ``a'' + a'/r - a/r^2 = f(r)(a - 2/r)`` on ``shooting._segments``' cut of a shoot's nodes.

    ``(r_half, index, dr)`` is ``_segments`` of nodes from ``SEED_RADIUS``
    to ``radius``; ``f`` holds the coefficient at the half-node radii
    ``r_half``, and the scalar 0 is the vacuum, ``a = -2 r / R^2``.  It is
    the shoot's multiple-shooting system with the seed ``(a, a') = slope0 *
    (SEED_RADIUS, 1)`` and the outer slope ``-2/R^2``; being linear, one
    Newton correction from zero starts gives ``a'(0)`` (``slope0``) and
    every segment start, and ``a`` is read off that correction's sweep
    (``shooting._solve_linear``).  Short segments keep it well conditioned
    where both solutions grow like ``e^r``.  Raises ``ConditioningError`` if
    the sweep overflows or the banded factor is singular.
    """
    # a'' = p(r) a + w(r) a' + s(r), w = -1/r
    w = -1.0 / r_half
    p, s, w = (w * w + f)[index], (2.0 * w * f)[index], w[index]
    pa = np.empty((3, index.shape[1]))

    def rhs(j, y, k):
        k[::2] = y[1::2]
        np.multiply(w[j], y[1::2], out=k[1::2])
        k[1::2] += np.multiply(p[j], y[::2], out=pa[:y.shape[0] // 2])
        k[1] += s[j]

    try:
        slope0, (a, da), mismatch = _solve_linear(rhs, dr, r_half.size // 2, (SEED_RADIUS, 1.0), -2.0 / radius**2)
    except FloatingPointError:
        raise ConditioningError("linearized integration overflowed before the boundary") from None
    except np.linalg.LinAlgError:
        raise ConditioningError("the banded block system for the linearized profile is singular") from None
    return LinearizedProfile(
        r=r_half[::2].copy(),
        a=a,
        da=da,
        slope0=slope0,
        boundary_value=float(a[-1]) - 2.0 / radius,
        bc_defect=abs(mismatch),
    )


def solve_linearized(radial: RadialProfile) -> LinearizedProfile:
    """Linearized profile driven by a converged unit-vortex radial solution.

    Steps on the nodes the profile was shot on (``radial.r``, cut by
    ``shooting._segments``), so ``f = Omega r^2 e^htilde`` reads the recorded
    ``htilde`` at the nodes and, at each midpoint, the cubic Hermite value
    ``(h_i + h_{i+1})/2 + d_i (h'_i - h'_{i+1})/8`` (``d_i`` the step).
    """
    if radial.n != 1:
        raise ValueError("the linearized problem is defined for a unit vortex")
    if not radial.converged:
        raise ValueError("radial profile must be converged")
    segments, h, dh = _segments(radial.r), radial.htilde, radial.dhtilde
    r_half = segments[0]
    h_half = np.empty(r_half.shape)
    h_half[::2], h_half[1::2] = h, 0.5 * (h[:-1] + h[1:]) + 0.125 * np.diff(radial.r) * (dh[:-1] - dh[1:])
    f = radial.disk.omega_at(r_half) * r_half**2 * np.exp(h_half)
    return _solve_on(f, radial.disk.radius, *segments)


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
            "schema_version": SCHEMA_VERSION,
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
) -> MetricReport:
    """Full metric pipeline for a unit vortex at the origin.

    Runs the radial shoot at ``radial_steps`` steps and the linearized
    boundary-value solve, which gives both the boundary term and ``a'(0)``
    for the local term; no 2-D field is solved.  Raises ``RuntimeError`` if
    the shoot does not converge, and ``ConditioningError`` if the boundary
    term overflows.
    """
    radial = shoot(disk, n=1, steps=radial_steps)
    if not radial.converged:
        raise RuntimeError(radial.failure_reason())
    lin = solve_linearized(radial)
    try:
        bterm = 0.5 * math.pi * lin.boundary_value**2  # (1/2) pi (d_X h(R; 0))^2
    except OverflowError:
        raise ConditioningError(
            f"boundary term overflows: the linearized boundary value is {lin.boundary_value:.3g}"
        ) from None
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
