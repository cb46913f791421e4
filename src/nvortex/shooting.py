"""Shooting solver for the rotationally symmetric centered-vortex profile.

A vortex of multiplicity ``n`` at the origin reduces the field equation to the
radial two-point boundary value problem

    htilde'' + htilde'/r = Omega(r) * (r^{2n} exp(htilde) - 1),
    htilde'(0) = 0,   htilde'(R) = -2n/R,

which is solved by shooting on the core value ``h0 = htilde(0)``: integrate
from a seed point ``eps`` with a fixed-step classical 4th-order method and
narrow ``h0`` by false position until the outer slope matches: first with
coarse passes, then from a narrow bracket at the requested step count.
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
#: False position stops once the bracket on ``h0`` is this narrow, so ``h0`` is
#: pinned by the integrator (and its step count) rather than by the slope
#: tolerance.
H0_BRACKET_WIDTH = 1e-12
#: Steps of the coarse search stage (the ``_integrate`` minimum), which
#: narrows ``h0`` to ``COARSE_BRACKET_WIDTH`` before any full-resolution pass.
COARSE_STEPS = 1_000
COARSE_BRACKET_WIDTH = 1e-9
#: Half-width of the first full-resolution bracket around the coarse ``h0``,
#: and the factor it widens by when the mismatch does not change sign on it.
FINE_HALF_WIDTH = 1e-6
FINE_WIDEN = 100.0
#: Treat the trajectory as blown up once htilde exceeds this value.
DIVERGENCE_CAP = 500.0


class BracketError(Exception):
    """The boundary-slope mismatch has no sign change on ``[SCAN_LOW, SCAN_HIGH]``.

    With the existence gate satisfied this signals an integrator
    misconfiguration (e.g. a bracket that misses the solution).
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
    #: Mismatch passes of ``shoot``'s coarse and full-resolution stages.
    passes: tuple[int, int] = (0, 0)

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


def _rk4(rhs, y0, y1, dx, steps, record):
    """Fixed-step classical RK4 for the 2-vector ``(y0, y1)`` of the radial shoot.

    ``rhs(j, y0, y1)`` returns ``(y0', y1')`` at half-node ``j`` (node ``k`` is
    ``j = 2k``), so the caller tabulates coefficients once at ``2 * steps + 1``
    half-nodes.  With ``record`` both components are stored at every node
    reached.  Integration stops, flagged diverged, once ``y0`` exceeds
    ``DIVERGENCE_CAP`` or is not finite, or on ``OverflowError``.  Returns
    ``(ys0, ys1, y0, y1, diverged)``, with None for histories not recorded.
    """
    ys0 = np.full(steps + 1, y0) if record else None
    ys1 = np.full(steps + 1, y1) if record else None
    half = 0.5 * dx
    sixth = dx / 6.0
    cap = DIVERGENCE_CAP  # a local: the step loop reads it every step
    diverged = False
    k = 0
    try:
        for k in range(steps):
            j = 2 * k
            k1a, k1b = rhs(j, y0, y1)
            k2a, k2b = rhs(j + 1, y0 + half * k1a, y1 + half * k1b)
            k3a, k3b = rhs(j + 1, y0 + half * k2a, y1 + half * k2b)
            k4a, k4b = rhs(j + 2, y0 + dx * k3a, y1 + dx * k3b)
            y0 += sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
            y1 += sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
            if y0 > cap or not math.isfinite(y0):
                diverged = True
                break
            if record:
                ys0[k + 1] = y0
                ys1[k + 1] = y1
    except OverflowError:
        diverged = True
    if record:
        kept = k + 1 if diverged else k + 2
        ys0, ys1 = ys0[:kept], ys1[:kept]
    return ys0, ys1, y0, y1, diverged


def _integrate(h0, disk, n, eps, steps, record):
    """One ``_rk4`` pass of ``(htilde, htilde')`` from ``eps`` for core value ``h0``.

    Returns ``(r_half, hs, ps, p_end, diverged)``: the half-node radii, the
    recorded histories, the outer slope and the blow-up flag.
    """
    if steps < 1_000:
        raise ValueError(f"steps must be at least 1000, got {steps}")
    if n < 1:
        raise ValueError(f"multiplicity must be >= 1, got {n}")
    if not 0.0 < eps < disk.radius:
        raise ValueError(f"eps must lie in (0, radius={disk.radius}), got {eps}")
    dr = (disk.radius - eps) / steps
    r_half = eps + 0.5 * dr * np.arange(2 * steps + 1)
    # Plain Python floats keep the step loop an order of magnitude faster
    # than numpy scalars.
    r = r_half.tolist()
    r_2n = (r_half ** (2 * n)).tolist()
    w = [1.0] * len(r) if disk.euclidean else disk.omega_at(r_half).tolist()
    exp = math.exp

    def rhs(j, h, p):
        return p, w[j] * (r_2n[j] * exp(h) - 1.0) - p / r[j]

    h, p = taylor_seed(h0, eps, n, float(disk.omega_at(0.0)))
    hs, ps, _, p_end, diverged = _rk4(rhs, h, p, dr, steps, record)
    return r_half, hs, ps, p_end, diverged


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
    Raises ``ValueError`` as ``shoot`` does.
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
        converged=False,
        diverged=diverged,
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


def shoot(
    disk: ConformalDisk,
    n: int = 1,
    tol: float = 1e-6,
    eps: float = DEFAULT_EPS,
    steps: int = DEFAULT_STEPS,
) -> RadialProfile:
    """Find the core value ``h0`` meeting the outer Neumann slope ``-2n/R``.

    The slope mismatch is nondecreasing in ``h0`` (+inf on blow-up), so a
    sign change between ``SCAN_LOW`` and ``SCAN_HIGH`` brackets the root.
    Illinois false position narrows it to ``COARSE_BRACKET_WIDTH`` with
    ``COARSE_STEPS``-step passes.  The full-resolution root is then bracketed
    at ``FINE_HALF_WIDTH`` around that value (widened by ``FINE_WIDEN`` on a
    miss, clipped to the scan bracket) and narrowed below
    ``H0_BRACKET_WIDTH`` with ``steps``-step passes; ``passes`` on the result
    counts both stages.

    Raises
    ------
    BradlowViolation
        If ``(N=n, M=0)`` violates the area bound on ``disk`` (checked first).
    BracketError
        If the mismatch has no sign change on the scan bracket, at either
        step count.
    ValueError
        For ``steps < 1000``, ``n < 1`` or ``eps`` outside ``(0, radius)``.
    """
    check_bradlow(VortexConfiguration.centered(n), disk)
    passes = [0, 0]

    def coarse(h0):
        passes[0] += 1
        return _mismatch(h0, disk, n, eps, COARSE_STEPS)

    def full(h0):
        passes[1] += 1
        return _mismatch(h0, disk, n, eps, steps)

    f_lo, f_hi = coarse(SCAN_LOW), coarse(SCAN_HIGH)
    if not f_lo < 0.0 <= f_hi:
        raise BracketError(
            f"no sign change of the slope mismatch at {COARSE_STEPS} steps for h0 in "
            f"[{SCAN_LOW}, {SCAN_HIGH}]"
        )
    guess = _illinois(coarse, SCAN_LOW, SCAN_HIGH, f_lo, f_hi, COARSE_BRACKET_WIDTH)
    half = FINE_HALF_WIDTH
    while True:
        lo, hi = max(guess - half, SCAN_LOW), min(guess + half, SCAN_HIGH)
        f_lo, f_hi = full(lo), full(hi)
        if f_lo < 0.0 <= f_hi:
            break
        if lo == SCAN_LOW and hi == SCAN_HIGH:
            raise BracketError(
                f"no sign change of the slope mismatch at {steps} steps for h0 in "
                f"[{SCAN_LOW}, {SCAN_HIGH}]"
            )
        half *= FINE_WIDEN
    h0 = _illinois(full, lo, hi, f_lo, f_hi, H0_BRACKET_WIDTH)
    profile = integrate_radial(h0, disk, n, eps, steps)
    profile.converged = (not profile.diverged) and profile.residual <= tol
    profile.passes = tuple(passes)
    return profile
