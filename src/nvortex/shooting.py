"""Shooting solver for the rotationally symmetric centered-vortex profile.

A vortex of multiplicity ``n`` at the origin reduces the field equation to the
radial two-point boundary value problem

    htilde'' + htilde'/r = Omega(r) * (r^{2n} exp(htilde) - 1),
    htilde'(0) = 0,   htilde'(R) = -2n/R,

which is solved by multiple shooting on the core value ``h0 = htilde(0)``
from the fixed seed radius ``SEED_RADIUS`` with a fixed-step classical
4th-order method.  The mesh (``_mesh``) is one closed-form map, its steps
growing from the centre through the vortex core and uniform in the tail;
``_segments`` cuts any such node array into about ``16 sqrt(steps)``
segments whose start states are unknowns beside ``h0``; one vectorised
sweep steps every segment and its 2x2 variational matrix, and Newton on
continuity at the joints plus the outer slope is one banded solve per sweep
(Keller, "Numerical Methods for Two-Point Boundary-Value Problems", 1968;
Ascher, Mattheij & Russell, SIAM 1995, ch. 4); the profile is read off the
sweep whose correction settled.  A step moves ``h0`` by at most
``MAX_H0_STEP``; a diverging Newton stops on an overflowing sweep, a
singular band or its sweep cap.  The banded solve hands LAPACK's band to
``dgbsv`` itself.  Short segments keep the solve well conditioned where one
march across ``[SEED_RADIUS, R]`` amplifies errors like e^R.  The same
Newton runs on a coarse mesh from a closed-form guess (on the nodes placed
to measure RK4's reach, ``_reach_steps``, where they are within it), then at
the requested step count from the coarse solution, interpolated to the
segment starts by cubic Hermite (``_hermite``, each query's interval found
by ``np.searchsorted``).  This module owns the one multiple-shooting
system: its start rows and mismatch (``_sweep_system``), its banded joint
solve (``_solve_joints``) and its node read-out (``_read_out``).  The
linearised radial problem of ``moduli`` is that system with a linear
right-hand side, solved by one Newton correction from zero starts and read
off that correction's sweep (``_solve_linear``), on ``_segments`` of the
very nodes a profile was shot on (``RadialProfile.r``).
Both solves stay fourth order end to end: the map's quadratic centre holds
the order against the ``1/r`` coefficients, and a node sits on every kink of
a sampled Omega (``ConformalDisk.breakpoints``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv

from .geometry import ConformalDisk, VortexConfiguration, bradlow_margin, check_bradlow

__all__ = [
    "RadialProfile",
    "shoot",
]

#: Radius where the integration starts from the regular series at the
#: centre.  The terms the series leaves out are below double precision here.
SEED_RADIUS = 1e-8
#: Default step count of the shoot, and so of the linearised solve on its
#: nodes.  Against 224k-step solves on flat disks of radius 3, 12, 25, 300
#: and 2000 and a sampled and a smooth Omega on radius 3, ``h0``,
#: ``slope0`` and ``boundary_value`` are within 4.2e-12 at 6,000 steps and
#: 1e-11 from 5,000; 6,000 also keeps the flat R = 1500 and 2000 boundary
#: values (true values below 1e-18) within 1e-12.
DEFAULT_STEPS = 6_000
#: Least steps of the coarse Newton stage, which starts the one at
#: ``steps``; also the least step count ``shoot`` accepts.
COARSE_STEPS = 1_000
#: RK4's real stability interval is ``[-RK4_REACH, 0]``: the nonzero real root of
#: ``1 + z + z^2/2 + z^3/6 + z^4/24 = 1``.
RK4_REACH = 2.785
#: Core value of the coarse stage's closed-form start, unless the bag
#: estimate of ``_core_start`` is lower.
START_H0 = -1.0
#: Largest change of ``h0`` in one Newton step; a longer step is scaled
#: down whole.  A full step can overshoot to a core value whose next sweep
#: overflows: on constant Omega = 1000 with n = 1 the first one goes from
#: ``START_H0`` to 39.8 (the root is 5.897).  Without the cap, 86 of 1,218
#: shoots that converge (flat, sampled and constant-Omega disks, n = 1-30,
#: 1k-10k steps) end ``non_finite``, every constant Omega >= 100 among them.
MAX_H0_STEP = 3.0
#: Cap on the multiple-shooting Newton sweeps of each stage of ``shoot``.
MAX_SWEEPS = 20
#: A shoot whose Newton settled has converged if its read-out's outer slope
#: is within this of ``-2n/R``.  A safety check only: every settled Newton
#: measured (flat and sampled disks, n = 1-3, 1k-16k steps) met it to 2.2e-16.
SLOPE_TOL = 1e-6
#: Newton stops at a sweep whose correction is at most this in every unknown and
#: reads the profile off it: convergence is quadratic, so it is off by about its square.
SETTLED_STEP = 1e-8


@dataclass
class RadialProfile:
    """Radial solution: nodes, htilde, its derivative, the disk shot on and the shooting data."""

    r: np.ndarray
    htilde: np.ndarray
    dhtilde: np.ndarray
    h0: float
    n: int
    #: ``|htilde'(R) + 2n/R|`` at the recorded last node.
    residual: float
    #: ``converged``; a Newton stalled on ``max_sweeps``, ``non_finite`` or
    #: ``singular_band`` (see ``_newton``); or
    #: ``slope_residual``, settled but off the outer slope by over ``SLOPE_TOL``.
    termination: str
    disk: ConformalDisk
    #: ``shoot``'s Newton sweeps on the coarse mesh and at ``steps``, the nodes read off the last.
    passes: tuple[int, int] = (0, 0)
    #: Largest state mismatch at a segment joint of the recorded nodes.
    joint_defect: float = 0.0

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    @property
    def steps(self) -> int:
        return self.r.size - 1

    def htilde_at(self, r) -> np.ndarray:
        """Cubic Hermite interpolation of ``htilde`` and ``dhtilde`` onto radii ``r``.

        Fourth order between the nodes, like the RK4 steps that made them;
        outside ``[r[0], r[-1]]`` it holds the end values.
        """
        return _hermite(np.asarray(r, dtype=float), self.r, self.htilde, self.dhtilde)

    def failure_reason(self) -> str:
        """Why the shoot did not converge, led by its ``termination``, for error messages.

        A stalled Newton on steps too long for RK4's real stability
        interval (``_reach_steps``) also names the least step count inside
        it, and every stalled Newton ends with the disk's existence margin
        (``bradlow_margin``): close to the bound the core value sinks toward
        minus infinity.
        """
        tail = ""
        if self.termination == "slope_residual":
            how = f"boundary-slope residual {self.residual:.3g} > tol {SLOPE_TOL:.3g}"
        else:  # a stalled Newton; a profile without fine sweeps stopped on the coarse mesh
            stage, sweeps = ("Newton", self.passes[1]) if self.passes[1] else ("coarse Newton", self.passes[0])
            how = f"{stage} stalled after {sweeps} sweeps (largest joint defect {self.joint_defect:.3g})"
            reach = _reach_steps(self.disk, self.r)
            if reach > self.steps:
                tail = f"; its steps leave RK4's stability interval, which takes at least {reach} steps"
            margin = bradlow_margin(VortexConfiguration.centered(self.n), self.disk)
            tail += f"; existence margin A/(4*pi) - n = {margin:.3g}"
        return (f"radial shoot did not converge ({self.termination}): {how} at {self.steps} steps, "
                f"h0 = {self.h0!r}{tail}")


def _mesh(x1, steps, breaks=(), n=1, x0=SEED_RADIUS):
    """The ``steps + 1`` nodes of ``steps`` RK4 steps from ``x0``, by default the seed radius, to ``x1``.

    The nodes are ``x(t) = x0 + L log(1 + (rho / L) sinh^2(a t / 2))`` at
    ``t`` uniform on ``[0, 1]``, ``a`` set by ``x(1) = x1``.  Below the core
    scale ``rho = min(sqrt(n), span)``, the ``n``-vortex core on ``Omega = 1``
    (its edge grows like ``sqrt(2n)``; Bolognesi, Nucl. Phys. B 730, 2005),
    the map is quadratic and steps grow like ``sqrt(r)``: uniform steps lose
    an order of RK4 against the ``y'/r`` terms where the solution has an
    ``r^3`` term (de Hoog & Weiss, SIAM J. Numer. Anal. 15, 1978).  Then each
    step is ``e^{a / steps}`` times the last up to ``L = span / (2
    asinh(sqrt(span / rho)))``, and the steps are uniform after it.  ``L`` is
    where the two halves of the equidistributing map ``t = asinh(sqrt(r /
    rho)) / (2 asinh(sqrt(span / rho))) + r / (2 span)`` (de Boor, 1973) have
    equal density: this is that mesh in closed form.  ``Omega(0)`` is left
    out of ``rho``: ``sqrt(n / Omega(0))`` moved no ``h0`` error above 1e-13
    at 3k-7k steps by more than a factor 1.6 on disks with ``Omega(0)`` from
    0.25 to 100.  A node falls on each of the increasing ``breaks`` where
    the coefficients have a kink (Hairer, Norsett & Wanner, "Solving ODEs
    I", II.6): breakpoint ``b`` takes node ``round(t(b) steps)``, the nodes
    between two such marks uniform in ``t``.  A breakpoint nearest ``x0``,
    ``x1`` or the node of the one before gets no node.
    """
    span = x1 - x0
    rho = min(math.sqrt(n), span)
    tail = span / (2.0 * math.asinh(math.sqrt(span / rho)))

    def u_of(x):  # a t(x), the map's inverse
        return 2.0 * math.asinh(math.sqrt(tail / rho * math.expm1((x - x0) / tail)))

    rate = u_of(x1)
    marks = {0: (0.0, x0), steps: (1.0, x1)}  # node index: (t, coordinate)
    for b in breaks:
        if x0 < b < x1:
            t = u_of(b) / rate
            marks.setdefault(round(t * steps), (t, b))
    ends = sorted(marks.items())
    t = np.ones(steps + 1)
    for (ka, (ta, _)), (kb, (tb, _)) in zip(ends, ends[1:]):
        t[ka:kb] = ta + (tb - ta) / (kb - ka) * np.arange(kb - ka)
    nodes = x0 + tail * np.log1p(rho / tail * np.sinh(0.5 * rate * t) ** 2)
    for k, (_, x) in ends:
        nodes[k] = x
    return nodes


def _segments(nodes):
    """The RK4 steps between increasing ``nodes`` cut into segments, for ``_sweep``.

    Returns ``(x_half, index, dx)``: the ``2 * steps + 1`` half-node
    coordinates, each odd one halfway between its nodes; per segment
    (columns) the indices of its half-nodes, shape ``(2 * size + 1, segments)``,
    at which a caller gathers its coefficients; and the step sizes, shape
    ``(size, segments)``, zero on the padding after the last node (an
    identity step).  ``size`` is ``isqrt(steps - 1) // 16 + 1`` (6 at 7k
    steps): of ``// 4``, ``// 8``, ``// 16`` and ``// 32``, the CPU time of a
    flat R = 3 ``shoot`` is least or within 2% of it from 1k to 100k steps
    (``BENCH_radial_segments.json``).
    """
    steps = nodes.size - 1
    size = math.isqrt(steps - 1) // 16 + 1
    count = -(-steps // size)
    dx = np.zeros(count * size)
    np.subtract(nodes[1:], nodes[:-1], out=dx[:steps])
    x_half = np.empty(2 * steps + 1)
    x_half[::2], x_half[1::2] = nodes, nodes[:-1] + 0.5 * dx[:steps]
    index = np.minimum(2 * size * np.arange(count) + np.arange(2 * size + 1)[:, None], 2 * steps)
    return x_half, index, dx.reshape(count, size).T


def _reach_steps(disk, nodes):
    """The least step count whose mesh keeps a step times ``sqrt(Omega)`` within ``RK4_REACH``.

    Measured on ``nodes``, each step at its midpoint: the mapped steps
    scale like one over the step count.  A step past that leaves RK4's real
    stability interval on the tail's ``e^{-sqrt(Omega) r}`` mode.
    """
    dr = np.diff(nodes)
    reach = (nodes.size - 1) * np.max(dr * np.sqrt(disk.omega_at(nodes[:-1] + 0.5 * dr)))
    return math.ceil(reach / RK4_REACH)


def _sweep(rhs, dx, y):
    """RK4 across every segment from the start rows ``y`` (shape ``(rows, segments)``).

    Vectorised over segments, it steps the rows it is given, with the same
    stages: a 2-component state ``(y0, y1)``, in every solve followed by the
    2x2 matrix of its derivatives by the start state, rows
    ``(x00, x10, x01, x11)``; started at the identity, that matrix is the
    exact Jacobian of the discrete segment map.  ``rhs(j, y, k)``
    writes the derivatives of the rows ``y`` at half-node row ``j`` of
    ``_segments``' index table into ``k``.  Returns ``(y, ys)``: the rows at
    the segment ends, and the list of the rows after each step (one array per
    step keeps every block small).  Overflow shows as non-finite values.
    """
    half, sixth = 0.5 * dx, dx / 6.0
    k1, k2, k3, k4, z = (np.empty_like(y) for _ in range(5))
    ys = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, h in enumerate(dx):
            rhs(2 * i, y, k1)
            np.multiply(half[i], k1, out=z)
            z += y
            rhs(2 * i + 1, z, k2)
            np.multiply(half[i], k2, out=z)
            z += y
            rhs(2 * i + 1, z, k3)
            np.multiply(h, k3, out=z)
            z += y
            rhs(2 * i + 2, z, k4)
            # In place, rounded as y + h/6 (k1 + 2 (k2 + k3) + k4).
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= sixth[i]
            y = y + k2
            ys.append(y)
    return y, ys


def _hermite(x, xs, ys, dys):
    """Cubic Hermite interpolation of values ``ys`` and slopes ``dys`` at ``xs``.

    Outside ``[xs[0], xs[-1]]`` it holds the end values, as ``np.interp`` does;
    NaN queries give NaN.
    """
    x = np.clip(x, xs[0], xs[-1])
    j = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    x0, y0, y1, s0, s1 = xs[j], ys[j], ys[j + 1], dys[j], dys[j + 1]
    d = xs[j + 1] - x0
    t = (x - x0) / d
    return (y0 + t * d * s0 + t * t * (3.0 * (y1 - y0) - d * (2.0 * s0 + s1))
            + t**3 * (2.0 * (y0 - y1) + d * (s0 + s1)))


def _sweep_system(rhs, dx, seed, starts, slope, lead):
    """One sweep of the multiple-shooting system, with its mismatch.

    The first segment starts at ``seed``, each later one at its column of
    ``starts`` (shape ``(2, segments - 1)``).  The state steps with its
    variational matrix (``_sweep``'s rows 2-5), started at the identity but
    for the first segment's first column, ``lead``, the seed's derivative by
    the system's scalar parameter.  Returns ``(y, ys, defect)``: ``_sweep``'s
    segment ends and steps, and their ``_defect``.
    """
    y = np.zeros((6, starts.shape[1] + 1))
    y[:2, 0], y[:2, 1:] = seed, starts
    y[2::3], y[2:4, 0] = 1.0, lead
    y, ys = _sweep(rhs, dx, y)
    return y, ys, _defect(y, starts, slope)


def _defect(y, starts, slope):
    """Each joint's state in the segment ends ``y`` minus the next start, then the outer slope minus ``slope``."""
    defect = np.full(2 * y.shape[1] - 1, y[1, -1] - slope)
    np.subtract(y[:2, :-1], starts, out=defect[:-1].reshape(-1, 2).T)
    return defect


def _solve_joints(y, defect):
    """Newton correction of the multiple-shooting system from a variational sweep.

    ``y`` holds the segment ends of ``_sweep_system`` with ``lead``: block
    ``k`` maps its start by its rows ``(x00, x10, x01, x11) = y[2:, k]``,
    and the first block's first column is its end per unit parameter.
    Solves the linearised ``defect = 0``, continuity at each joint and then
    the outer slope, for the correction ``(parameter, starts)``, ``starts``
    shaped like ``_sweep_system``'s.  A system has at least two blocks: a
    shoot's nodes cut 500 or more.  Two sub- and one superdiagonal, stored
    as LAPACK's band with two rows for the fill-in above it and solved by
    ``dgbsv`` itself; a singular factor raises ``numpy.linalg.LinAlgError``.
    """
    x00, x10, x01, x11 = y[2:]
    ab = np.zeros((6, defect.size))
    ab[2, 1:] = -1.0  # minus the next block's start
    ab[3, 0], ab[4, 0] = x00[0], x10[0]
    ab[4, 1::2], ab[3, 2::2] = x00[1:], x01[1:]
    ab[5, 1:-3:2], ab[4, 2:-1:2] = x10[1:-1], x11[1:-1]
    ab[4, -2], ab[3, -1] = x10[-1], x11[-1]
    _, _, x, info = dgbsv(2, 1, ab, -defect, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"the banded factor is singular at row {info}")
    return float(x[0]), np.vstack((x[1::2], x[2::2]))


def _nodes(seed, states, steps):
    """The state at every node, shape ``(2, steps + 1)``: ``seed``, then each step's 2-row ``states``."""
    nodes = np.empty((2, steps + 1))
    nodes[:, 0] = seed
    nodes[:, 1:] = np.array(states).transpose(1, 2, 0).reshape(2, -1)[:, :steps]
    return nodes


def _read_out(ys, parameter, starts):
    """Each state of ``_sweep_system``'s steps ``ys`` plus its variational matrix times the correction."""
    c = np.hstack(([[parameter], [0.0]], starts))
    return [step[:2] + step[2:4] * c[0] + step[4:6] * c[1] for step in ys]


def _solve_linear(rhs, dx, steps, lead, slope):
    """The multiple-shooting system of a linear ``rhs``, seeded at the parameter times ``lead``.

    Affine in the parameter and the starts, it is solved by one correction
    (``_solve_joints``) from zero starts, and its nodes are read off that
    correction's sweep (``_read_out``).  Returns ``(parameter, nodes,
    mismatch)``, the last the read-out's outer slope minus ``slope``.  Raises
    ``FloatingPointError`` on overflow and ``numpy.linalg.LinAlgError`` on a
    singular band.
    """
    y, ys, defect = _sweep_system(rhs, dx, (0.0, 0.0), np.zeros((2, dx.shape[1] - 1)), slope, lead)
    if not np.isfinite(y).all():
        raise FloatingPointError("the variational sweep overflowed")
    parameter, starts = _solve_joints(y, defect)
    nodes = _nodes((parameter * lead[0], parameter * lead[1]), _read_out(ys, parameter, starts), steps)
    if not np.isfinite(nodes).all():
        raise FloatingPointError("the read-out overflowed")
    return parameter, nodes, float(nodes[1, -1] - slope)


def _core_start(n, omega0):
    """Core value Newton starts from: ``START_H0``, or the bag estimate where that is lower.

    In the bag picture of the ``n``-vortex (Bolognesi, Nucl. Phys. B 730,
    2005) ``htilde = h0 - Omega(0) r^2 / 4`` inside the core and the field is
    vacuum from its edge ``r^2 = 2n / Omega(0)`` on, so ``h0 = n/2 - n
    log(2n) + n log Omega(0)``: -25.0 at n = 10 and -107.8 at n = 30 on a
    flat disk, against the solved -27.8 and -114.6.  A unit vortex on
    ``Omega(0) >= 1`` starts from ``START_H0``.
    """
    return min(START_H0, n / 2 - n * math.log(2 * n) + n * math.log(omega0))


def _newton(disk, n, nodes, h0, starts):
    """Newton on the multiple-shooting system on ``nodes`` (``_mesh``) from core value ``h0``.

    ``starts(r)`` gives the first guess of ``(htilde, htilde')`` at the
    segment-start radii ``r``, shape ``(2, len(r))``.  Each sweep
    (``_sweep_system``) and banded solve (``_solve_joints``) corrects ``h0``
    and the starts, a step moving ``h0`` by over ``MAX_H0_STEP`` scaled down.
    A correction below ``SETTLED_STEP`` converges it: ``h0`` takes it, and
    the nodes are that sweep's ``_read_out``, the mismatch taken against the
    corrected starts.  It stalls, diverging or not, on ``MAX_SWEEPS`` sweeps
    (``max_sweeps``), a non-finite sweep (``non_finite``) or a singular band
    (``singular_band``), keeping the last sweep's states, ``h0`` and
    mismatch; ``passes`` is ``(0, sweeps)``.
    """
    r_half, index, dx = _segments(nodes)
    r = r_half[index]
    log_r2n, w = 2 * n * np.log(r), disk.omega_at(r)

    def rhs(j, y, k):
        t = np.exp(y[0] + log_r2n[j])  # r^{2n} e^y: r^{2n} alone overflows at large n
        k[::2] = y[1::2]
        np.divide(y[1::2], r[j], out=k[1::2])  # the -y'/r terms, subtracted next
        np.subtract(w[j] * (t - 1.0), k[1], out=k[1])
        np.subtract((w[j] * t) * y[2::2], k[3::2], out=k[3::2])

    starts = starts(r[0, 1:])
    omega0 = float(disk.omega_at(0.0))
    # The seed, the regular series h0 - Omega(0) r^2 / 4 at the centre (its next terms,
    # of order Omega'(0) r^3 and r^4, are below double precision), has derivative (1, 0) by h0.
    drop, seed_slope = 0.25 * omega0 * SEED_RADIUS * SEED_RADIUS, -0.5 * omega0 * SEED_RADIUS
    slope, termination = -2.0 * n / disk.radius, "max_sweeps"
    for sweeps in range(1, MAX_SWEEPS + 1):
        y, ys, defect = _sweep_system(rhs, dx, (h0 - drop, seed_slope), starts, slope, (1.0, 0.0))
        if not np.isfinite(y).all():
            termination = "non_finite"
            break
        try:
            dh0, dstarts = _solve_joints(y, defect)
        except np.linalg.LinAlgError:
            termination = "singular_band"
            break
        if abs(dh0) > MAX_H0_STEP:
            scale = MAX_H0_STEP / abs(dh0)
            dh0, dstarts = dh0 * scale, dstarts * scale
        if np.max(np.abs(dstarts), initial=abs(dh0)) <= SETTLED_STEP:
            termination, h0, ys = "converged", h0 + dh0, _read_out(ys, dh0, dstarts)
            defect = _defect(ys[-1], starts + dstarts, slope)
            break
        if sweeps < MAX_SWEEPS:  # a stalled stage keeps its last sweep uncorrected
            h0, starts = h0 + dh0, starts + dstarts
    defect = np.abs(defect)
    defect[~np.isfinite(defect)] = math.inf
    states = _nodes((h0 - drop, seed_slope), [step[:2] for step in ys], nodes.size - 1)
    return RadialProfile(r=nodes, htilde=states[0], dhtilde=states[1], h0=h0, n=n,
                         residual=float(defect[-1]), termination=termination, disk=disk,
                         passes=(0, sweeps), joint_defect=float(defect[:-1].max(initial=0.0)))


def shoot(
    disk: ConformalDisk,
    n: int = 1,
    steps: int = DEFAULT_STEPS,
) -> RadialProfile:
    """Find the core value ``h0`` meeting the outer Neumann slope ``-2n/R``.

    Newton on the multiple-shooting system (``_newton``) starts from ``h0 =
    _core_start(n, Omega(0))`` and the closed-form guess ``|phi|^2 = r^{2n}
    / (r^{2n} + exp(-h0))``, which has that core value and the vacuum's
    slope far out, on a coarse mesh; then it runs at ``steps`` steps from
    the coarse solution, cubic-Hermite interpolated to the segment starts
    (slopes from the equation).  The coarse mesh takes ``COARSE_STEPS``
    steps, more where a step times ``sqrt(Omega)`` would leave RK4's real
    stability interval (``_reach_steps``); when it takes no more, Newton
    sweeps the very nodes it was measured on.  Where it is not fewer than
    ``steps``, one Newton at ``steps`` starts from the closed form.
    ``passes`` counts the sweeps of both stages.  A coarse stage that ends
    ``non_finite`` has no finite start to hand on: its own profile is
    returned, with ``passes = (sweeps, 0)``.  The result is converged when
    the last Newton settled and the outer slope is within ``SLOPE_TOL``;
    otherwise ``termination`` names the cause.

    Raises
    ------
    BradlowViolation
        If ``(N=n, M=0)`` violates the area bound on ``disk`` (checked after
        the arguments, before any sweep).
    ValueError
        For ``steps`` not an integer of at least ``COARSE_STEPS``, ``n < 1``
        or a disk no wider than ``SEED_RADIUS``.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < COARSE_STEPS:
        raise ValueError(f"steps must be an integer of at least {COARSE_STEPS}, got {steps!r}")
    if n < 1:
        raise ValueError(f"multiplicity must be >= 1, got {n}")
    if not SEED_RADIUS < disk.radius:
        raise ValueError(f"radius must exceed the seed radius {SEED_RADIUS}, got {disk.radius}")
    check_bradlow(VortexConfiguration.centered(n), disk)
    n, steps = int(n), int(steps)
    h_start = _core_start(n, float(disk.omega_at(0.0)))

    def closed_form(r):
        log_r2n = 2 * n * np.log(r)
        log_t = np.logaddexp(log_r2n, -h_start)  # log(r^{2n} + exp(-h_start)), free of overflow
        return np.array([-log_t, -2.0 * n / r * np.exp(log_r2n - log_t)])

    nodes = _mesh(disk.radius, COARSE_STEPS, disk.breakpoints, n)
    reach = _reach_steps(disk, nodes)
    nodes = nodes if reach <= COARSE_STEPS else _mesh(disk.radius, min(reach, steps), disk.breakpoints, n)
    coarse = profile = _newton(disk, n, nodes, h_start, closed_form)
    if nodes.size - 1 < steps:  # that was the coarse stage: start the one at ``steps`` from it
        if coarse.termination == "non_finite":  # nothing finite to hand to the fine mesh
            coarse.passes = (coarse.passes[1], 0)
            return coarse
        r, h, p = coarse.r, coarse.htilde, coarse.dhtilde
        with np.errstate(over="ignore", invalid="ignore"):  # a stalled coarse stage leaves h huge
            dp = disk.omega_at(r) * np.expm1(h + 2 * n * np.log(r)) - p / r

        def interpolated(r_starts):
            return np.array([_hermite(r_starts, r, h, p), _hermite(r_starts, r, p, dp)])

        profile = _newton(disk, n, _mesh(disk.radius, steps, disk.breakpoints, n), coarse.h0, interpolated)
        profile.passes = (coarse.passes[1], profile.passes[1])
    if profile.converged and profile.residual > SLOPE_TOL:
        profile.termination = "slope_residual"
    return profile
