"""Shooting solver for the rotationally symmetric centered-vortex profile.

A vortex of multiplicity ``n`` at the origin reduces the field equation to the
radial two-point boundary value problem

    htilde'' + htilde'/r = Omega(r) * (r^{2n} exp(htilde) - 1),
    htilde'(0) = 0,   htilde'(R) = -2n/R,

which is solved by shooting on the core value ``h0 = htilde(0)`` from a seed
point ``eps`` with a fixed-step classical 4th-order method.  False position
on coarse passes narrows ``h0``; multiple shooting then solves the problem at
the requested step count.  The steps are cut into about ``4 sqrt(steps)``
segments whose start states are unknowns beside ``h0``; one vectorised sweep
steps every segment and its 2x2 variational matrix, and Newton on continuity
at the joints plus the outer slope is one banded solve per sweep (Keller,
"Numerical Methods for Two-Point Boundary-Value Problems", 1968; Ascher,
Mattheij & Russell, SIAM 1995, ch. 4).  Short segments keep the solve well
conditioned where one march across ``[eps, R]`` amplifies errors like e^R.
The segmentation (``_segments``), the sweep (``_sweep``) and the banded
solve (``_solve_joints``) also serve the linearised radial problem of
``moduli.solve_linear_bvp``; the scalar march ``_integrate`` serves the
coarse passes and ``integrate_radial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

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
#: Steps of the coarse search stage (the ``_integrate`` minimum), which
#: narrows ``h0`` to ``COARSE_BRACKET_WIDTH`` and starts the Newton sweeps.
COARSE_STEPS = 1_000
COARSE_BRACKET_WIDTH = 1e-9
#: Cap on the multiple-shooting Newton sweeps of ``shoot``.
MAX_SWEEPS = 10
#: Newton stops at the sweep after a correction no larger than this in every
#: unknown: convergence is quadratic, so that sweep is off by about its square.
SETTLED_STEP = 1e-8
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
    #: ``shoot``'s coarse passes (the false-position search and the recorded
    #: start) and its multiple-shooting Newton sweeps.
    passes: tuple[int, int] = (0, 0)
    #: Largest state mismatch at a segment joint in the recorded sweep.
    joint_defect: float = 0.0
    #: The Newton sweeps hit ``MAX_SWEEPS``, a non-finite state, a singular
    #: band or a step out of the scan bracket before settling.
    stalled: bool = False

    def htilde_at(self, r) -> np.ndarray:
        """Linear interpolation of htilde onto radii ``r``."""
        return np.interp(np.asarray(r, dtype=float), self.r, self.htilde)

    def failure_reason(self, tol: float) -> str:
        """Why a shoot to ``tol`` did not converge, for error messages."""
        if self.diverged:
            how = "diverged"
        elif self.stalled:
            how = (f"Newton stalled after {self.passes[1]} sweeps "
                   f"(largest joint defect {self.joint_defect:.3g})")
        else:
            how = f"boundary-slope residual {self.residual:.3g} > tol {tol:.3g}"
        return f"radial shoot did not converge: {how} at {self.steps} steps, h0 = {self.h0!r}"


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
    dr = (disk.radius - eps) / steps
    r_half = eps + 0.5 * dr * np.arange(2 * steps + 1)
    r = r_half.tolist()
    r_2n = (r_half ** (2 * n)).tolist()
    w = [1.0] * len(r) if disk.euclidean else disk.omega_at(r_half).tolist()
    exp = math.exp
    h, p = taylor_seed(h0, eps, n, float(disk.omega_at(0.0)))
    hs = np.full(steps + 1, h) if record else None
    ps = np.full(steps + 1, p) if record else None
    half, sixth = 0.5 * dr, dr / 6.0
    cap = DIVERGENCE_CAP  # a local: the step loop reads it every step
    diverged = False
    k = 0
    try:
        for k in range(steps):
            j = 2 * k
            b1 = w[j] * (r_2n[j] * exp(h) - 1.0) - p / r[j]
            h2, p2 = h + half * p, p + half * b1
            b2 = w[j + 1] * (r_2n[j + 1] * exp(h2) - 1.0) - p2 / r[j + 1]
            h3, p3 = h + half * p2, p + half * b2
            b3 = w[j + 1] * (r_2n[j + 1] * exp(h3) - 1.0) - p3 / r[j + 1]
            h4, p4 = h + dr * p3, p + dr * b3
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


def _solve_joints(lead, maps, rhs) -> np.ndarray:
    """Banded solve of a multiple-shooting system with one scalar seed parameter.

    Unknowns: the parameter, then each later block's start state.  Block
    ``k`` maps its start by ``maps = (x00, x01, x10, x11)`` (arrays over
    blocks); ``lead`` is the first block's end per unit parameter.  Equations
    (``rhs``): continuity at each joint, then the second component of the
    last block's end.  Two sub- and one superdiagonal, solved by LAPACK
    ``gbsv``, which raises ``numpy.linalg.LinAlgError`` on a singular factor.
    """
    x00, x01, x10, x11 = maps
    ab = np.zeros((4, rhs.size))
    ab[0, 1:] = -1.0  # minus the next block's start
    ab[1, 0], ab[2, 0] = lead
    if rhs.size == 1:  # one block: its end's second component is the only equation
        ab[1, 0] = lead[1]
    else:
        ab[2, 1::2], ab[1, 2::2] = x00[1:], x01[1:]
        ab[3, 1:-3:2], ab[2, 2:-1:2] = x10[1:-1], x11[1:-1]
        ab[2, -2], ab[1, -1] = x10[-1], x11[-1]
    return solve_banded((2, 1), ab, rhs)


def _segments(x0, x1, steps):
    """``steps`` RK4 steps from ``x0`` to ``x1`` cut into segments, for ``_sweep``.

    Returns ``(x_half, index, dx)``: the ``2 * steps + 1`` half-node
    coordinates; per segment (columns) the indices of its half-nodes, with
    shape ``(2 * size + 1, segments)``, at which a caller gathers its
    coefficients; and the step sizes, shape ``(size, segments)``, zero on the
    padding after the last node (an identity step).  ``_sweep`` pays numpy's
    per-call cost once per position in a segment, so segments are short:
    about ``sqrt(steps) / 4`` steps (on a 2-vCPU VM a 10k-step sweep takes
    2.6 ms in 400 segments of 25 steps, 10.9 ms in 100 of 100).
    """
    size = math.isqrt(steps - 1) // 4 + 1
    count = -(-steps // size)
    step = (x1 - x0) / steps
    x_half = x0 + 0.5 * step * np.arange(2 * steps + 1)
    index = np.minimum(2 * size * np.arange(count) + np.arange(2 * size + 1)[:, None], 2 * steps)
    dx = np.full(count * size, step)
    dx[steps:] = 0.0
    return x_half, index, dx.reshape(count, size).T


def _sweep(rhs, dx, starts):
    """RK4 across every segment from ``starts`` (shape ``(2, segments)``).

    Vectorised over segments, it steps a 2-component state and the 2x2
    matrix of its derivatives by the start state, rows
    ``(y0, y1, x00, x10, x01, x11)``, with the same stages; ``rhs(j, y)``
    gives their derivatives at half-node row ``j`` of ``_segments``' index
    table.  The matrix is then the exact Jacobian of the discrete segment
    map.  Returns ``(y, ys)``: the six rows at the segment ends, and the list
    of the six rows after each step (one array per step keeps every block
    small).  Overflow shows as non-finite values.
    """
    y = np.zeros((6, starts.shape[1]))
    y[:2] = starts
    y[2] = y[5] = 1.0
    ys = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, h in enumerate(dx):
            k1 = rhs(2 * i, y)
            k2 = rhs(2 * i + 1, y + 0.5 * h * k1)
            k3 = rhs(2 * i + 1, y + 0.5 * h * k2)
            k4 = rhs(2 * i + 2, y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            ys.append(y)
    return y, ys


def _hermite(x, xs, ys, dys):
    """Cubic Hermite interpolation of values ``ys`` and slopes ``dys`` at ``xs``."""
    j = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    d = xs[j + 1] - xs[j]
    t = (x - xs[j]) / d
    return (ys[j] + t * d * dys[j] + t * t * (3.0 * (ys[j + 1] - ys[j]) - d * (2.0 * dys[j] + dys[j + 1]))
            + t**3 * (2.0 * (ys[j] - ys[j + 1]) + d * (dys[j] + dys[j + 1])))


def _coarse_starts(h0, disk, n, eps, r_starts):
    """Segment start states from one recorded ``COARSE_STEPS`` pass at ``h0``.

    The pass is interpolated (slopes from the equation) up to where it leaves
    the solution: ``h0`` is known to ``COARSE_BRACKET_WIDTH``, and on large
    disks the pass turns away, once ``|phi|^2 = r^{2n} e^htilde`` is near 1,
    by rising above 1 or falling.  From there on it is the vacuum,
    ``htilde = -2n log r``.
    """
    coarse = integrate_radial(h0, disk, n, eps, COARSE_STEPS)
    r, h, p = coarse.r, coarse.htilde, coarse.dhtilde
    phi2 = r ** (2 * n) * np.exp(h)
    off = (phi2 > 1.0) | (np.diff(phi2, prepend=0.0) < 0.0)
    kept = max(int(np.argmax(off)) if off.any() else len(r), 2)
    r, h, p, phi2 = r[:kept], h[:kept], p[:kept], phi2[:kept]
    dp = disk.omega_at(r) * (phi2 - 1.0) - p / r
    starts = np.array([_hermite(r_starts, r, h, p), _hermite(r_starts, r, p, dp)])
    vacuum = r_starts >= r[-1]
    starts[:, vacuum] = -2.0 * n * np.log(r_starts[vacuum]), -2.0 * n / r_starts[vacuum]
    return starts


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
    ``COARSE_STEPS``-step passes, and one more coarse pass at that value gives
    the start states (``_coarse_starts``).  Newton on the multiple-shooting
    system at ``steps`` steps (``_sweep``, ``_solve_joints``) then runs until
    the sweep after a correction below ``SETTLED_STEP``, at most
    ``MAX_SWEEPS`` sweeps; that sweep records the profile.  ``passes`` counts
    the coarse passes and the sweeps.  The result is converged when Newton
    settled and the outer slope is within ``tol``; a Newton that stalls (the
    cap, a non-finite sweep, a singular band or a step out of the scan
    bracket) is flagged ``stalled``.

    Raises
    ------
    BradlowViolation
        If ``(N=n, M=0)`` violates the area bound on ``disk`` (checked first).
    BracketError
        If the coarse mismatch has no sign change on the scan bracket.
    ValueError
        For ``tol`` not finite and ``>= 0``, ``steps < 1000``, ``n < 1`` or
        ``eps`` outside ``(0, radius)``.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if steps < COARSE_STEPS:
        raise ValueError(f"steps must be at least {COARSE_STEPS}, got {steps}")
    check_bradlow(VortexConfiguration.centered(n), disk)
    coarse_passes = 0

    def coarse(h0):
        nonlocal coarse_passes
        coarse_passes += 1
        return _mismatch(h0, disk, n, eps, COARSE_STEPS)

    f_lo, f_hi = coarse(SCAN_LOW), coarse(SCAN_HIGH)
    if not f_lo < 0.0 <= f_hi:
        raise BracketError(
            f"no sign change of the slope mismatch at {COARSE_STEPS} steps for h0 in "
            f"[{SCAN_LOW}, {SCAN_HIGH}]"
        )
    h0 = _illinois(coarse, SCAN_LOW, SCAN_HIGH, f_lo, f_hi, COARSE_BRACKET_WIDTH)
    n = int(n)
    r_half, index, dx = _segments(eps, disk.radius, steps)
    r = r_half[index]
    r_2n, w = r ** (2 * n), disk.omega_at(r)

    def rhs(j, y):
        t = r_2n[j] * np.exp(y[0])
        k = np.empty_like(y)
        k[::2] = y[1::2]
        k[1] = w[j] * (t - 1.0) - y[1] / r[j]
        k[3::2] = (w[j] * t) * y[2::2] - y[3::2] / r[j]
        return k

    starts = _coarse_starts(h0, disk, n, eps, r[0, 1:])
    coarse_passes += 1
    omega0 = float(disk.omega_at(0.0))
    quartic = n == 1 and omega0 == 1.0
    settled = False
    for sweeps in range(1, MAX_SWEEPS + 1):
        seed = taylor_seed(h0, eps, n, omega0)
        y, ys = _sweep(rhs, dx, np.column_stack((seed, starts)))
        defect = np.empty(2 * y.shape[1] - 1)
        defect[0:-1:2] = y[0, :-1] - starts[0]
        defect[1:-1:2] = y[1, :-1] - starts[1]
        defect[-1] = y[1, -1] + 2.0 * n / disk.radius
        if settled or sweeps == MAX_SWEEPS or not np.isfinite(y).all():
            break
        # The first segment's end per unit h0, through d(seed)/d(h0), which
        # is exact for both branches of ``taylor_seed``.
        e4 = 0.0625 * math.exp(h0) * eps**4 if quartic else 0.0
        lead = y[2:4, 0] * (1.0 + e4) + y[4:6, 0] * (4.0 * e4 / eps)
        try:
            step = _solve_joints(lead, (y[2], y[4], y[3], y[5]), -defect)
        except np.linalg.LinAlgError:
            break
        if not SCAN_LOW <= h0 + step[0] <= SCAN_HIGH:
            break  # diverging: the root is inside the scan bracket
        h0 += float(step[0])
        starts = starts + np.vstack((step[1::2], step[2::2]))
        settled = bool(np.max(np.abs(step)) <= SETTLED_STEP)
    defect = np.abs(defect)
    defect[~np.isfinite(defect)] = math.inf
    joint = float(defect[:-1].max(initial=0.0))
    residual = float(defect[-1])
    stalled = not settled or joint == math.inf or residual == math.inf
    return RadialProfile(
        r=r_half[::2].copy(),
        htilde=np.concatenate(([seed[0]], np.array([state[0] for state in ys]).T.ravel()[:steps])),
        dhtilde=np.concatenate(([seed[1]], np.array([state[1] for state in ys]).T.ravel()[:steps])),
        h0=h0,
        n=n,
        residual=residual,
        converged=not stalled and residual <= tol,
        steps=steps,
        passes=(coarse_passes, sweeps),
        joint_defect=joint,
        stalled=stalled,
    )
