"""Moduli-space metric data for one vortex on a rotationally symmetric disk.

For a unit vortex at the origin the position derivative of the field splits as

    d_X h = (-2/r + a(r)) * cos(theta),

where the radial factor ``a`` solves the linear two-point problem

    a'' + a'/r - a/r^2 = f(r) * (a - 2/r),   f = Omega * exp(h),

regular at the origin with ``a'(R) = -2/R^2``.  The kinetic-energy
coefficient of a moving vortex combines a boundary term,
``(1/2) * pi * (d_X h(R; 0))^2`` with ``d_X h(R; 0) = a(R) - 2/R``, and the
local term ``pi * (Omega(0) + 2 db/dZ)`` built from the core coefficient
``b(Z) = d_zbar (h - log|z - Z|^2)`` at ``z = Z``.  A nonzero boundary term is
the witness that the metric is not a purely local function of vortex position.

Convention: the assembled coefficient uses the real part of ``db/dZ`` (the
complex value, real up to differencing noise on a symmetric disk, is reported
alongside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConformalDisk,
    PolarGrid,
    ScalarField,
    VortexConfiguration,
)
from .shooting import DEFAULT_EPS, RadialProfile, shoot
from .solver2d import solve_taubes_2d

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

DEFAULT_LIN_STEPS = 100_000
#: Inner start of the linearized integration, as a fraction of the radius;
#: the regular branch ``a ~ c r`` is imposed there (the 1/r branch is excluded
#: by smoothness of the position derivative at the origin).
EPS_FRACTION = 1e-6


class ConditioningError(RuntimeError):
    """The superposition for the linearized profile is numerically singular."""


class FitError(RuntimeError):
    """The core-coefficient fit has too few usable nodes (grid too coarse)."""


@dataclass
class LinearizedProfile:
    """Radial factor of the position derivative and its boundary data."""

    r: np.ndarray
    a: np.ndarray
    aR: float
    boundary_value: float  # d_X h(R; 0) = a(R) - 2/R
    bc_defect: float  # |a'(R) + 2/R^2|, zero up to roundoff by construction

    def a_at(self, r) -> np.ndarray:
        return np.interp(np.asarray(r, dtype=float), self.r, self.a)


def _rk4_maps(p, s, h):
    """One classical RK4 step of ``a_t = q, q_t = P a + s`` as an affine map.

    The system is linear, so the step from half-node ``2k`` to ``2k + 2`` is
    exactly ``y -> M y + c`` with entries polynomial in ``h`` and in ``P``,
    ``s`` at half-nodes ``2k, 2k + 1, 2k + 2``.  ``p`` and ``s`` hold those
    values at all ``2 * steps + 1`` half-nodes; returns the per-step arrays
    ``(m00, m01, m10, m11, c0, c1)``.
    """
    p0, p1, p2 = p[:-2:2], p[1::2], p[2::2]
    s0, s1, s2 = s[:-2:2], s[1::2], s[2::2]
    h2 = h * h
    p01 = p0 * p1 * h2
    p12 = p1 * p2 * h2
    ps0 = p1 * s0 * h2
    return (
        1.0 + h2 * (p01 + 4.0 * p0 + 8.0 * p1) / 24.0,
        h * (p1 * h2 + 6.0) / 6.0,
        h * (p01 + 2.0 * p0 + p12 + 8.0 * p1 + 2.0 * p2) / 12.0,
        1.0 + h2 * (p12 + 8.0 * p1 + 4.0 * p2) / 24.0,
        h2 * (ps0 + 4.0 * s0 + 8.0 * s1) / 24.0,
        h * (ps0 + p2 * s1 * h2 + 2.0 * s0 + 8.0 * s1 + 2.0 * s2) / 12.0,
    )


def _block_prefixes(maps, steps):
    """Within-block prefix compositions of the step maps, for a blocked scan.

    The steps are cut into ``nb`` blocks of ``size`` (both about
    ``sqrt(steps)``; the last block is padded with identity maps).  One loop
    over block positions, vectorised across blocks, composes each block's
    maps up to every position.  Returns ``(rows, ends)``: ``rows`` holds the
    first row of each prefix matrix and its offset, ``(x00, x01, d0)`` with
    shape ``(nb, size)``, so that ``a`` after position ``i`` of block ``b`` is
    ``x00 a_b + x01 q_b + d0`` from the block's start state ``(a_b, q_b)``;
    ``ends`` holds the whole-block maps ``(x00, x01, x10, x11, d0, d1)``.
    Elementwise operations only, so no BLAS thread count can change a sum.
    """
    size = math.isqrt(steps - 1) + 1
    nb = -(-steps // size)
    padded = []
    for entry, pad in zip(maps, (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)):
        block = np.full(nb * size, pad)
        block[:steps] = entry
        padded.append(block.reshape(nb, size))
    rows = tuple(np.empty((nb, size)) for _ in range(3))
    x00, x01, x10, x11, d0, d1 = (col[:, 0] for col in padded)
    for i in range(size):
        if i:
            m00, m01, m10, m11, c0, c1 = (col[:, i] for col in padded)
            x00, x01, x10, x11, d0, d1 = (
                m00 * x00 + m01 * x10,
                m00 * x01 + m01 * x11,
                m10 * x00 + m11 * x10,
                m10 * x01 + m11 * x11,
                m00 * d0 + m01 * d1 + c0,
                m10 * d0 + m11 * d1 + c1,
            )
        rows[0][:, i], rows[1][:, i], rows[2][:, i] = x00, x01, d0
    return rows, (x00, x01, x10, x11, d0, d1)


def _block_starts(ends, a, q):
    """States ``(a, q)`` at every block start, and after the last block.

    Applies the whole-block affine maps ``ends`` in turn from ``(a, q)``, one
    scalar step per block.
    """
    starts_a, starts_q = [], []
    for x00, x01, x10, x11, d0, d1 in zip(*(e.tolist() for e in ends)):
        starts_a.append(a)
        starts_q.append(q)
        a, q = x00 * a + x01 * q + d0, x10 * a + x11 * q + d1
    return np.array(starts_a), np.array(starts_q), a, q


def solve_linear_bvp(
    f_of_r,
    radius: float,
    eps: float | None = None,
    steps: int = DEFAULT_LIN_STEPS,
) -> LinearizedProfile:
    """Solve ``a'' + a'/r - a/r^2 = f(r)(a - 2/r)`` by superposition.

    Integrates in ``t = log r`` (keeping the Euler-type coefficients bounded
    near the core) the regular homogeneous solution and one particular
    solution from ``eps``, then combines them to meet ``a'(R) = -2/R^2``.
    Each is ``steps`` classical RK4 steps, applied as composed affine maps
    (``_rk4_maps``) by a blocked scan in which both solutions share the
    within-block compositions; ``f_of_r`` is evaluated once, at the
    ``2 * steps + 1`` half-node radii.  The vacuum case ``f == 0`` has the
    closed form ``a = -2 r / R^2``.

    Raises ``ValueError`` unless ``steps`` is a positive integer, ``eps``
    lies in ``(0, radius)`` and ``f_of_r`` returns finite values
    broadcastable to the half-node radii; ``ConditioningError`` if the
    integration overflows or the homogeneous solution's outer slope vanishes.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if eps is None:
        eps = EPS_FRACTION * radius
    if not 0.0 < eps < radius:
        raise ValueError(f"eps must lie in (0, radius), got {eps}")
    t0, t1 = math.log(eps), math.log(radius)
    dt = (t1 - t0) / steps
    r_half = np.exp(t0 + 0.5 * dt * np.arange(2 * steps + 1))
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
    overflow = ConditioningError("linearized integration overflowed before the boundary")
    with np.errstate(over="ignore", invalid="ignore"):
        rows, ends = _block_prefixes(
            _rk4_maps(1.0 + r_half**2 * f_half, -2.0 * r_half * f_half, dt), steps
        )
        # The homogeneous solution has no source: the same matrices, zero
        # offsets.  Regular branch a ~ r, so q = r a' = eps at the seed.
        zero = np.zeros_like(ends[4])
        reg_a, reg_q, _, q1 = _block_starts(ends[:4] + (zero, zero), eps, eps)
        par_a, par_q, _, q2 = _block_starts(ends, 0.0, 0.0)
        if not (math.isfinite(q1) and math.isfinite(q2)):
            raise overflow

        # Outer condition q(T) = R a'(R) = -2/R.
        target = -2.0 / radius
        if abs(q1) < 1e-12 * (abs(q2) + abs(target) + 1.0):
            raise ConditioningError("homogeneous solution has vanishing outer slope")
        coeff = (target - q2) / q1
        start_a = (par_a + coeff * reg_a)[:, None]
        start_q = (par_q + coeff * reg_q)[:, None]
        a = np.empty(steps + 1)
        a[0] = coeff * eps
        a[1:] = (rows[0] * start_a + rows[1] * start_q + rows[2]).ravel()[:steps]
    if not np.isfinite(a).all():
        raise overflow
    a_end = float(a[-1])
    q_end = q2 + coeff * q1
    bc_defect = abs(q_end / radius + 2.0 / radius**2)
    return LinearizedProfile(
        r=r_half[::2].copy(),
        a=a,
        aR=a_end,
        boundary_value=a_end - 2.0 / radius,
        bc_defect=bc_defect,
    )


def solve_linearized(
    disk: ConformalDisk,
    radial: RadialProfile,
    steps: int = DEFAULT_LIN_STEPS,
) -> LinearizedProfile:
    """Linearized profile driven by a converged unit-vortex radial solution."""
    if radial.n != 1:
        raise ValueError("the linearized problem is defined for a unit vortex")
    if not radial.converged:
        raise ValueError("radial profile must be converged")

    def f_of_r(r):
        return disk.omega_at(r) * r**2 * np.exp(radial.htilde_at(r))

    return solve_linear_bvp(f_of_r, disk.radius, steps=steps)


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
    nodes enter and leave the annulus, which wrecks differencing of ``b``
    with respect to the vortex position.
    """
    grid = htilde.grid
    d = grid.nodes_complex - z_core
    dist = np.abs(d)
    mask = (dist >= 2.0 * grid.dr) & (dist <= 6.0 * grid.dr)
    count = int(np.count_nonzero(mask))
    if count < 12:
        raise FitError(f"only {count} nodes in the fit annulus; refine the grid")
    dx = d.real[mask]
    dy = d.imag[mask]
    design = np.column_stack(
        [np.ones(count), dx, dy, dx * dx, dx * dy, dy * dy]
    )
    coeffs, *_ = np.linalg.lstsq(design, htilde.values[mask], rcond=None)
    return 0.5 * (coeffs[1] + 1j * coeffs[2])


def _solve_set(disk, grid, positions, tol, max_iter):
    """Fields for a unit vortex at each position, in the order given."""
    fields = []
    for z in positions:
        config = VortexConfiguration(interior=((z, 1),))
        field, report = solve_taubes_2d(disk, config, grid, tol=tol, max_iter=max_iter)
        if not report.converged:
            raise RuntimeError(f"field solve for vortex at {z} did not converge ({report.termination})")
        fields.append(field)
    return fields


def _stencil(z_core: complex, delta: float, radius: float) -> list[complex]:
    """Central-difference offsets ``Z + delta, Z - delta, Z + i delta, Z - i delta``.

    Raises ``ValueError`` unless ``delta > 0`` and ``|Z| + delta < radius``.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if abs(z_core) + delta >= radius:
        raise ValueError("offset stencil leaves the disk; reduce |Z| or delta")
    return [z_core + delta, z_core - delta, z_core + 1j * delta, z_core - 1j * delta]


def _central_difference(values, delta: float):
    """``(d_X, d_Y)`` from values at the ``_stencil`` offsets, in its order."""
    f_px, f_mx, f_py, f_my = values
    return (f_px - f_mx) / (2.0 * delta), (f_py - f_my) / (2.0 * delta)


def boundary_ring_position_derivatives(
    disk: ConformalDisk,
    grid: PolarGrid,
    delta: float,
    tol: float = 1e-8,
    max_iter: int = 50,
):
    """``d_X h`` and ``d_Y h`` on the outermost node ring for a vortex at 0.

    Central differences in the vortex position (four solves) give the smooth
    part; the core logarithm contributes ``-2 cos(theta)/rho`` and
    ``-2 sin(theta)/rho`` analytically.  Returns ``(rho, theta, dxh, dyh)``.
    """
    offsets = _stencil(0j, delta, disk.radius)
    fields = _solve_set(disk, grid, offsets, tol, max_iter)
    dxh_tilde, dyh_tilde = _central_difference([f.values[-1] for f in fields], delta)
    rho = grid.r[-1]
    theta = grid.theta
    dxh = dxh_tilde - 2.0 * np.cos(theta) / rho
    dyh = dyh_tilde - 2.0 * np.sin(theta) / rho
    return rho, theta, dxh, dyh


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
    modulus of the vortex velocity.  ``db_dZ`` is the refined (half-step)
    central difference; ``db_dZ_coarse`` exposes the truncation level.
    """

    boundary_value: float
    boundary_term: float
    samols_b: complex
    db_dZ: complex
    db_dZ_coarse: complex
    local_term: float
    total_coefficient: float
    delta: float
    nonlocal_boundary_term: bool

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "boundary_value": self.boundary_value,
            "boundary_term": self.boundary_term,
            "samols_b_re": self.samols_b.real,
            "samols_b_im": self.samols_b.imag,
            "db_dZ_re": self.db_dZ.real,
            "db_dZ_im": self.db_dZ.imag,
            "db_dZ_coarse_re": self.db_dZ_coarse.real,
            "db_dZ_coarse_im": self.db_dZ_coarse.imag,
            "local_term": self.local_term,
            "total_coefficient": self.total_coefficient,
            "delta": self.delta,
            "nonlocal_boundary_term": self.nonlocal_boundary_term,
        }


def metric_coefficient(
    disk: ConformalDisk,
    grid: PolarGrid,
    delta: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 50,
    radial_steps: int = 100_000,
    radial_eps: float = DEFAULT_EPS,
    radial_tol: float = 1e-6,
) -> MetricReport:
    """Full metric pipeline for a unit vortex at the origin.

    Runs the radial shoot (``radial_steps``, ``radial_eps`` and ``radial_tol``
    are ``shoot``'s ``steps``, ``eps`` and ``tol``), the linearized
    boundary-value solve, the core coefficient at the origin and its position
    derivative at steps ``delta`` and ``delta/2`` (Richardson pair), one field
    solve after another.  An invalid ``delta`` raises ``ValueError`` before
    the shoot.
    """
    if delta is None:
        delta = disk.radius / 100.0
    half = 0.5 * delta
    coarse = _stencil(0j, delta, disk.radius)
    fine = _stencil(0j, half, disk.radius)
    radial = shoot(disk, n=1, tol=radial_tol, eps=radial_eps, steps=radial_steps)
    if not radial.converged:
        raise RuntimeError("radial shoot did not converge")
    lin = solve_linearized(disk, radial)
    bterm = boundary_metric_term(lin)

    offsets = [0j, *coarse, *fine]
    fields = _solve_set(disk, grid, offsets, tol, max_iter)
    fits = [_fit_b(field, z) for field, z in zip(fields, offsets)]
    b0 = fits[0]
    d_x, d_y = _central_difference(fits[1:5], delta)
    db_coarse = 0.5 * (d_x - 1j * d_y)
    d_x, d_y = _central_difference(fits[5:], half)
    db_fine = 0.5 * (d_x - 1j * d_y)
    local = math.pi * (float(disk.omega_at(0.0)) + 2.0 * db_fine.real)
    return MetricReport(
        boundary_value=lin.boundary_value,
        boundary_term=bterm,
        samols_b=b0,
        db_dZ=db_fine,
        db_dZ_coarse=db_coarse,
        local_term=local,
        total_coefficient=bterm + local,
        delta=delta,
        nonlocal_boundary_term=bterm > 0.0,
    )
