"""Shooting solver for the rotationally symmetric centered-vortex profile.

A vortex of multiplicity ``n`` at the origin reduces the field equation to the
radial two-point boundary value problem

    htilde'' + htilde'/r = Omega(r) * (r^{2n} exp(htilde) - 1),
    htilde'(0) = 0,   htilde'(R) = -2n/R,

which is solved by shooting on the core value ``h0 = htilde(0)``: integrate
from a seed point ``eps`` with a fixed-step classical 4th-order method and
bisect ``h0`` until the outer slope matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConformalDisk, VortexConfiguration, check_bradlow

__all__ = [
    "RadialProfile",
    "BracketError",
    "taylor_seed",
    "integrate_radial",
    "shoot",
]

DEFAULT_EPS = 1e-8
DEFAULT_STEPS = 100_000
SCAN_LOW = -50.0
SCAN_HIGH = 5.0
SCAN_POINTS = 20
#: Bisection stops once the bracket is this narrow, so ``h0`` is pinned by the
#: integrator (and its step count) rather than by the slope tolerance.
H0_BRACKET_WIDTH = 1e-12
#: Treat the trajectory as blown up once htilde exceeds this value.
DIVERGENCE_CAP = 500.0


class BracketError(Exception):
    """The scan over h0 found no sign change of the boundary-slope mismatch.

    With the existence gate satisfied this signals an integrator
    misconfiguration (e.g. a scan range that misses the solution).
    """


@dataclass
class RadialProfile:
    """Radial solution: nodes, htilde, its derivative and the shooting data."""

    r: np.ndarray
    htilde: np.ndarray
    dhtilde: np.ndarray
    h0: float
    n: int
    residual: float
    converged: bool
    diverged: bool = False
    steps: int = DEFAULT_STEPS

    def htilde_at(self, r) -> np.ndarray:
        """Linear interpolation of htilde onto radii ``r``."""
        return np.interp(np.asarray(r, dtype=float), self.r, self.htilde)


def taylor_seed(h0: float, eps: float, n: int, omega0: float) -> tuple[float, float]:
    """Series values ``(htilde(eps), htilde'(eps))`` seeding the integration.

    For the unit-multiplicity flat case the quartic term is kept,

        htilde = h0 - eps^2/4 + exp(h0) * eps^4/16,

    otherwise only the universal leading term ``h0 - Omega(0) * eps^2 / 4``
    (the higher correction is below double precision at the default ``eps``).
    """
    if eps <= 0:
        raise ValueError(f"seed radius must be positive, got {eps}")
    if n == 1 and omega0 == 1.0:
        e = math.exp(h0)
        return (h0 - 0.25 * eps * eps + e * eps**4 / 16.0,
                -0.5 * eps + 0.25 * e * eps**3)
    return (h0 - 0.25 * omega0 * eps * eps, -0.5 * omega0 * eps)


def _omega_tables(disk: ConformalDisk, eps: float, steps: int):
    """Conformal factor at the integration nodes and midpoints, as float lists.

    Plain Python floats keep the integration loop an order of magnitude
    faster than numpy scalars.
    """
    dr = (disk.radius - eps) / steps
    nodes = eps + dr * np.arange(steps + 1)
    if disk.euclidean:
        ones_n = [1.0] * (steps + 1)
        return dr, nodes, ones_n, ones_n
    w_node = disk.omega_at(nodes).tolist()
    w_mid = disk.omega_at(nodes[:-1] + 0.5 * dr).tolist()
    return dr, nodes, w_node, w_mid


def _rk4(h0, disk, n, eps, steps, record):
    """Fixed-step RK4 core; returns (r, h, dh arrays or None, h_end, p_end, diverged)."""
    dr, nodes, w_node, w_mid = _omega_tables(disk, eps, steps)
    node_list = nodes.tolist()
    two_n = 2 * n
    h, p = taylor_seed(h0, eps, n, float(disk.omega_at(0.0)))
    if record:
        hs = np.empty(steps + 1)
        ps = np.empty(steps + 1)
        hs[0] = h
        ps[0] = p
    diverged = False
    exp = math.exp
    half = 0.5 * dr
    sixth = dr / 6.0
    k = 0
    try:
        for k in range(steps):
            r0 = node_list[k]
            w0 = w_node[k]
            wm = w_mid[k]
            w1 = w_node[k + 1]
            rm = r0 + half
            r1 = r0 + dr
            k1h = p
            k1p = w0 * (r0**two_n * exp(h) - 1.0) - p / r0
            h2 = h + half * k1h
            p2 = p + half * k1p
            k2h = p2
            k2p = wm * (rm**two_n * exp(h2) - 1.0) - p2 / rm
            h3 = h + half * k2h
            p3 = p + half * k2p
            k3h = p3
            k3p = wm * (rm**two_n * exp(h3) - 1.0) - p3 / rm
            h4 = h + dr * k3h
            p4 = p + dr * k3p
            k4h = p4
            k4p = w1 * (r1**two_n * exp(h4) - 1.0) - p4 / r1
            h += sixth * (k1h + 2.0 * (k2h + k3h) + k4h)
            p += sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
            if h > DIVERGENCE_CAP or not math.isfinite(h):
                diverged = True
                break
            if record:
                hs[k + 1] = h
                ps[k + 1] = p
    except OverflowError:
        diverged = True
    if record:
        end = k + 1 if not diverged else k
        return nodes[: end + 1], hs[: end + 1], ps[: end + 1], h, p, diverged
    return None, None, None, h, p, diverged


def integrate_radial(
    h0: float,
    disk: ConformalDisk,
    n: int = 1,
    eps: float = DEFAULT_EPS,
    steps: int = DEFAULT_STEPS,
) -> RadialProfile:
    """Integrate the radial equation outward from ``eps`` for core value ``h0``.

    The residual reported is ``|htilde'(R) + 2n/R|``.  If ``exp(htilde)``
    blows up before reaching the boundary the profile is flagged diverged.
    """
    if steps < 1_000:
        raise ValueError(f"steps must be at least 1000, got {steps}")
    n = int(n)
    if n < 1:
        raise ValueError(f"multiplicity must be >= 1, got {n}")
    r, hs, ps, h_end, p_end, diverged = _rk4(h0, disk, n, eps, steps, record=True)
    residual = math.inf if diverged else abs(p_end + 2.0 * n / disk.radius)
    return RadialProfile(
        r=r,
        htilde=hs,
        dhtilde=ps,
        h0=h0,
        n=n,
        residual=residual,
        converged=False,
        diverged=diverged,
        steps=steps,
    )


def _mismatch(h0, disk, n, eps, steps) -> float:
    """Boundary-slope mismatch ``htilde'(R) + 2n/R``; +inf on blow-up."""
    _, _, _, _, p_end, diverged = _rk4(h0, disk, n, eps, steps, record=False)
    if diverged:
        return math.inf
    return p_end + 2.0 * n / disk.radius


def shoot(
    disk: ConformalDisk,
    n: int = 1,
    tol: float = 1e-6,
    eps: float = DEFAULT_EPS,
    steps: int = DEFAULT_STEPS,
) -> RadialProfile:
    """Find the core value ``h0`` meeting the outer Neumann slope ``-2n/R``.

    A coarse scan of ``h0`` over ``[-50, 5]`` locates a sign change of the
    slope mismatch, which bisection then narrows below ``H0_BRACKET_WIDTH``
    (the mismatch is monotone in ``h0``, so bisection is safe).  The existence
    gate is checked first and raises ``BradlowViolation`` when it fails.

    Raises
    ------
    BradlowViolation
        If ``(N=n, M=0)`` violates the area bound on ``disk``.
    BracketError
        If the scan finds no sign change despite the gate passing.
    """
    check_bradlow(VortexConfiguration.centered(n), disk)
    scan = np.linspace(SCAN_LOW, SCAN_HIGH, SCAN_POINTS)
    values = [_mismatch(h0, disk, n, eps, steps) for h0 in scan]
    lo = hi = None
    for k in range(SCAN_POINTS - 1):
        if values[k] < 0.0 <= values[k + 1]:
            lo, hi = scan[k], scan[k + 1]
            break
    if lo is None:
        raise BracketError(
            f"no sign change of the slope mismatch for h0 in [{SCAN_LOW}, {SCAN_HIGH}]"
        )
    while hi - lo > H0_BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        fm = _mismatch(mid, disk, n, eps, steps)
        if fm >= 0.0:
            hi = mid
        else:
            lo = mid
    h0 = 0.5 * (lo + hi)
    profile = integrate_radial(h0, disk, n, eps, steps)
    profile.converged = (not profile.diverged) and profile.residual <= tol
    return profile
