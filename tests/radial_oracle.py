"""Test oracle for the radial shoot: one scalar RK4 march and a false-position search.

``shoot`` solves the radial problem by multiple-shooting Newton on short
segments.  This module keeps the slow path it replaced as the reference:
one fixed-step classical RK4 march of ``(htilde, htilde')`` from ``eps``
to ``R`` (``integrate_radial``), its outer-slope mismatch, and Illinois
false position on that mismatch over ``[SCAN_LOW, SCAN_HIGH]``
(``single_stage_h0``), every pass at the full step count.  The march
steps on ``shoot``'s own nodes (``shooting._mesh``: the map graded
through the ``n``-vortex core, a node on each of the disk's breakpoints), so
both discretise the same problem.

It also keeps the library call that the joint solve replaced:
``scipy.linalg.solve_banded`` (``banded_joints``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

from nvortex.geometry import ConformalDisk
from nvortex.shooting import (
    DEFAULT_STEPS,
    SCAN_HIGH,
    SCAN_LOW,
    SEED_RADIUS,
    SLOPE_TOL,
    RadialProfile,
    _mesh,
    _segments,
)

#: Treat the trajectory as blown up once htilde exceeds this value.
DIVERGENCE_CAP = 500.0
#: False position stops once the bracket on ``h0`` is this narrow, so the
#: oracle's ``h0`` is pinned by the integrator and its step count.
H0_BRACKET_WIDTH = 1e-12


def _integrate(h0, disk, n, eps, steps, record):
    """One fixed-step classical RK4 pass of ``(htilde, htilde')`` from ``eps``.

    Coefficients are tabulated once at the ``2 * steps + 1`` half-nodes, as
    plain Python floats: they keep the step loop an order of magnitude faster
    than numpy scalars.  With ``record`` both components are stored at every
    node reached.  The pass stops, flagged diverged, once htilde exceeds
    ``DIVERGENCE_CAP`` or is not finite, or on ``OverflowError``.  Returns
    ``(r_half, hs, ps, p_end, diverged)``: the half-node radii, the recorded
    histories (None unless ``record``), the outer slope and the blow-up flag.
    """
    if steps < 1_000:
        raise ValueError(f"steps must be at least 1000, got {steps}")
    if n < 1:
        raise ValueError(f"multiplicity must be >= 1, got {n}")
    if not 0.0 < eps < disk.radius:
        raise ValueError(f"eps must lie in (0, radius={disk.radius}), got {eps}")
    r_half, _, dr = _segments(_mesh(disk.radius, steps, disk.breakpoints, n, eps))
    dr = dr.T.ravel()[:steps].tolist()
    r = r_half.tolist()
    r_2n = (r_half ** (2 * n)).tolist()
    w = disk.omega_at(r_half).tolist()
    exp = math.exp
    omega0 = float(disk.omega_at(0.0))
    h, p = h0 - 0.25 * omega0 * eps * eps, -0.5 * omega0 * eps  # the regular series' leading term
    hs = np.full(steps + 1, h) if record else None
    ps = np.full(steps + 1, p) if record else None
    cap = DIVERGENCE_CAP  # a local: the step loop reads it every step
    diverged = False
    k = 0
    try:
        for k in range(steps):
            j = 2 * k
            step = dr[k]
            half, sixth = 0.5 * step, step / 6.0
            b1 = w[j] * (r_2n[j] * exp(h) - 1.0) - p / r[j]
            h2, p2 = h + half * p, p + half * b1
            b2 = w[j + 1] * (r_2n[j + 1] * exp(h2) - 1.0) - p2 / r[j + 1]
            h3, p3 = h + half * p2, p + half * b2
            b3 = w[j + 1] * (r_2n[j + 1] * exp(h3) - 1.0) - p3 / r[j + 1]
            h4, p4 = h + step * p3, p + step * b3
            b4 = w[j + 2] * (r_2n[j + 2] * exp(h4) - 1.0) - p4 / r[j + 2]
            h += sixth * (p + 2.0 * (p2 + p3) + p4)
            p += sixth * (b1 + 2.0 * (b2 + b3) + b4)
            if h > cap or not math.isfinite(h):
                diverged = True
                break
            if record:
                hs[k + 1] = h
                ps[k + 1] = p
    except OverflowError:
        diverged = True
    if record:
        kept = k + 1 if diverged else k + 2
        hs, ps = hs[:kept], ps[:kept]
    return r_half, hs, ps, p, diverged


def integrate_radial(
    h0: float,
    disk: ConformalDisk,
    n: int = 1,
    eps: float = SEED_RADIUS,
    steps: int = DEFAULT_STEPS,
) -> RadialProfile:
    """Integrate the radial equation outward from ``eps`` for core value ``h0``.

    The residual reported is ``|htilde'(R) + 2n/R|``.  If ``exp(htilde)``
    blows up before reaching the boundary the profile stops there and its
    residual is infinite.  Raises ``ValueError`` as ``shoot`` does.
    """
    n = int(n)
    r_half, hs, ps, p_end, diverged = _integrate(h0, disk, n, eps, steps, True)
    residual = math.inf if diverged else abs(p_end + 2.0 * n / disk.radius)
    return RadialProfile(
        r=r_half[::2][: len(hs)].copy(),
        htilde=hs,
        dhtilde=ps,
        h0=h0,
        n=n,
        residual=residual,
        termination="non_finite" if diverged else "converged" if residual <= SLOPE_TOL else "slope_residual",
        disk=disk,
        steps=steps,
    )


def _mismatch(h0, disk, n, eps, steps) -> float:
    """Boundary-slope mismatch ``htilde'(R) + 2n/R``; +inf on blow-up."""
    *_, p_end, diverged = _integrate(h0, disk, n, eps, steps, False)
    return math.inf if diverged else p_end + 2.0 * n / disk.radius


def _illinois(f, lo, hi, f_lo, f_hi, width) -> float:
    """Illinois false position on ``f`` from ``f(lo) < 0 <= f(hi)`` to a bracket below ``width``.

    Takes the midpoint while ``f_hi`` is +inf or the secant point is not
    strictly inside, and halves the kept end's value when the same end moves
    twice running (Dowell & Jarratt, BIT 11, 1971).  Returns the midpoint of
    the final bracket.
    """
    last = 0  # +1 if hi moved last, -1 if lo did
    while hi - lo > width:
        x = 0.5 * (lo + hi)
        if f_hi < math.inf:
            secant = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo < secant < hi:
                x = secant
        f_x = f(x)
        if f_x >= 0.0:
            if last > 0:
                f_lo *= 0.5
            hi, f_hi, last = x, f_x, 1
        else:
            if last < 0:
                f_hi *= 0.5
            lo, f_lo, last = x, f_x, -1
    return 0.5 * (lo + hi)


def single_stage_h0(disk, n, steps, eps=SEED_RADIUS):
    """Core value from one Illinois search at full resolution over the scan range.

    Every pass is one march from ``eps`` at ``steps`` steps; the slope
    mismatch changes sign on ``[SCAN_LOW, SCAN_HIGH]``.
    """
    def mismatch(h0):
        return _mismatch(h0, disk, n, eps, steps)

    f_lo, f_hi = mismatch(SCAN_LOW), mismatch(SCAN_HIGH)
    assert f_lo < 0.0 <= f_hi
    return _illinois(mismatch, SCAN_LOW, SCAN_HIGH, f_lo, f_hi, H0_BRACKET_WIDTH)


def banded_joints(y, defect):
    """``shooting._solve_joints`` through ``solve_banded((2, 1), ...)`` on the unpadded ``(4, n)`` band."""
    x00, x10, x01, x11 = y[2:]
    ab = np.zeros((4, defect.size))
    ab[0, 1:] = -1.0
    ab[1, 0], ab[2, 0] = x00[0], x10[0]
    if defect.size == 1:
        ab[1, 0] = x10[0]
    else:
        ab[2, 1::2], ab[1, 2::2] = x00[1:], x01[1:]
        ab[3, 1:-3:2], ab[2, 2:-1:2] = x10[1:-1], x11[1:-1]
        ab[2, -2], ab[1, -1] = x10[-1], x11[-1]
    x = solve_banded((2, 1), ab, -defect)
    return float(x[0]), np.vstack((x[1::2], x[2::2]))

