"""Damped Newton solver for the regularised vortex field equation on the disk.

After splitting off the singular part the unknown ``htilde`` satisfies

    lap_e htilde = Omega(r) * (exp(htilde + v0) - 1),
    d_r htilde(R, theta) = g(theta),

with ``g`` the smooth Neumann data induced by the cores.  The discrete system
uses the flux-form Laplacian, applied from its couplings with no matrix
(``operators.NeumannLaplacian.apply``).  Its Jacobian
``lap_e - Omega exp(htilde + v0)`` is symmetric negative definite in the
volume-weighted form (the nonpositive diagonal shift removes the constant
kernel wherever ``exp(v0) > 0``), so each Newton step is a symmetric
positive-definite solve with the negated Jacobian: a short conjugate-gradient
loop preconditioned by the separable polar solver
(``operators.PolarModeSolver``) with the Jacobian's shift
``w * Omega * exp(h)`` replaced by its mean on each ring; a centred vortex
makes the shift ring-constant and CG converges in one or two iterations.
The steps are inexact Newton steps whose forcing reads only the current
residual ``|F_k|`` (``_forcing``): while it is at least
``FORCING_EXACT_BELOW``, CG stops at a relative residual of ``FORCING_MAX``;
below it, at the floor ``FORCING_TOL_SHARE * tol / |F_k|`` for the grid's
own ``tol``, clipped to ``[CG_RTOL, FORCING_MAX]`` (Kelley, "Iterative
Methods for Linear and Nonlinear Equations", SIAM 1995, 6.3).  So the half
grids of a nested solve, solved to looser tolerances, stop CG early.  The
CG inner products are ``operators.inner``, not threaded BLAS, so the result
does not depend on the BLAS thread count.  This is the only
linear-solver path; the tests keep a SuperLU Newton step as the oracle it is
checked against.

Newton's first iterate is a product of single-vortex profiles
(``_product_start``; Jaffe & Taubes, "Vortices and Monopoles", 1980):
``exp(h) = prod (|z - X|^2 / (|z - X|^2 + a^2))^n`` with ``a^2 = ANSATZ_A2``,
which lies in [0, 1] and is vacuum away from the cores (``exp(v0)`` alone
grows like ``|z|^(2N)``).  On grids that
halve to at least ``NESTED_MIN_POINTS`` per direction the same solve on the
half grid, prolonged (trigonometric in theta, cubic in r), starts Newton
instead whenever that half-grid solve converged, and one fine step then
usually meets the tolerance (nested iteration; Allgower, Boehmer, Potra &
Rheinboldt, "A mesh-independence principle for operator equations and their
discretizations", SIAM J. Numer. Anal. 23, 1986, which assumes the coarse
iterate solves the coarse problem).  Each half grid is solved
only to ``HALF_GRID_TOL_RATIO`` times the tolerance of the grid above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import (
    ConformalDisk,
    PolarGrid,
    ScalarField,
    VortexConfiguration,
    check_bradlow,
)
from .operators import LinearSolveError, NeumannLaplacian, PolarModeSolver, assemble_neumann_laplacian, inner
from .singular import SingularPart, build_singular_part, vortex_cores

__all__ = ["SolveReport", "solve_taubes_2d"]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50
MAX_HALVINGS = 30
#: Relative residual at which the preconditioned CG of a Newton step stops.
CG_RTOL = 1e-12
#: Relative CG tolerance of a Newton step from a residual norm of at least
#: ``FORCING_EXACT_BELOW``, and the loosest of any step.
FORCING_MAX = 1e-3
#: Below this Newton residual norm a step is solved to its floor (``_forcing``).
FORCING_EXACT_BELOW = 1e-2
#: A Newton step's CG stops no earlier than at this share of the grid's
#: ``tol`` over the Newton residual: CG measures a weighted 2-norm while
#: Newton stops on the scaled infinity norm, so the share leaves a margin.
FORCING_TOL_SHARE = 1e-2
#: CG iterations allowed per Newton step before it counts as a failed solve.
CG_MAX_ITER = 500
#: Least ``nr`` and ``ntheta`` of a half grid that starts the Newton of a
#: finer one (see ``_solve``); smaller grids take the product-ansatz start.
NESTED_MIN_POINTS = 64
#: Each half grid of a nested start is solved to this many times the
#: tolerance of the grid above it: its prolongation leaves a fine-grid
#: residual of 1.7e-4 to 4.6e-3 (128^2 and 256^2) however far it is solved.
#: At 100 the energy of a half grid stays within 5e-8 relative of the same
#: grid solved to ``tol``, far below its discretisation error.
HALF_GRID_TOL_RATIO = 100.0
#: Core constant ``a**2`` of the product-ansatz start (``_product_start``).
#: It stands for ``exp(-h0)``, the core coefficient of the unit vortex
#: (3.03 on the flat disk of radius 3, 2.75 from radius 6 on, 2.50 on a
#: table disk with Omega from 1 to 1.5); Newton's step count is flat for
#: ``a**2`` from 2 to 4, so the round value is kept.
ANSATZ_A2 = 2.0


@dataclass
class SolveReport:
    """Newton convergence record for one field solve.

    ``termination`` says why the iteration stopped: ``"converged"``,
    ``"max_iter"`` (iteration budget spent), ``"line_search"`` (no step
    length down to ``2**-MAX_HALVINGS`` reduced the residual) or
    ``"linear_solve"`` (the linear solve of a Newton step failed; ``detail``
    holds its message).  ``converged`` and ``iterations`` (accepted Newton
    steps) are read off ``termination`` and ``residual_history``.
    ``linear_iterations`` holds the CG iteration count of each Newton step
    and ``forcing`` the relative CG tolerance it was solved to:
    ``FORCING_MAX`` from a residual of at least ``FORCING_EXACT_BELOW``, the
    grid's ``tol`` floor (at least ``CG_RTOL``) below it.
    ``singular`` is the singular part the solve split off; it holds the core
    logarithms ``v0``, the configuration and the disk, so the field and this
    report are all that ``compute_observables`` and the position tangents of
    ``moduli`` take.  ``coarse`` holds one
    ``(nr, ntheta, newton_steps, cg_iterations)`` per half-grid level of the
    nested start, coarsest first; the other fields describe this grid only.
    ``start`` names this grid's first Newton iterate: ``"half grid"`` (the
    prolonged half-grid solution) or ``"product ansatz"`` (``_product_start``).
    """

    residual_history: list = dataclass_field(default_factory=list)
    bc_residual: float = 0.0
    damping_events: int = 0
    termination: str = ""
    detail: str = ""
    linear_iterations: list = dataclass_field(default_factory=list)
    forcing: list = dataclass_field(default_factory=list)
    singular: SingularPart | None = None
    coarse: list = dataclass_field(default_factory=list)
    start: str = ""

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1


def _solve_spd(lap: NeumannLaplacian, shift: np.ndarray, rhs: np.ndarray, rtol: float):
    """Solve the Newton system ``lap.apply(x) - shift * x = rhs`` by preconditioned CG.

    ``shift`` (``w * Omega * exp(h)``, nonnegative, one per node) makes the
    system negative definite.  CG stops once its residual is ``rtol`` times
    that of ``x = 0`` (the Newton step's forcing term, see ``_forcing``).
    Returns ``(x, cg_iterations)``; raises ``LinearSolveError`` when CG does
    not converge or the preconditioner is singular.
    """
    # Preconditioned CG on the positive-definite mirror -J x = -rhs, from
    # x = 0; the preconditioner is the separable solve with the ring-mean shift.
    modes = PolarModeSolver(lap, shift.reshape(lap.grid.shape).mean(axis=1))
    x = np.zeros_like(rhs)
    r = -rhs
    rhs_norm = math.sqrt(inner(r, r))
    p, rho_prev = None, 1.0
    for iteration in range(CG_MAX_ITER):
        if math.sqrt(inner(r, r)) <= rtol * rhs_norm:
            return x, iteration
        z = -modes.solve(r)
        rho = inner(r, z)
        p = z if p is None else z + (rho / rho_prev) * p
        q = shift * p - lap.apply(p)
        alpha = rho / inner(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise LinearSolveError(f"conjugate gradient did not converge in {CG_MAX_ITER} iterations")


def _forcing(norm: float, tol: float) -> float:
    """Relative CG tolerance of the Newton step from residual norm ``norm`` on a grid solved to ``tol``.

    ``FORCING_MAX`` while ``norm`` is at least ``FORCING_EXACT_BELOW``;
    below it the floor ``FORCING_TOL_SHARE * tol / norm``, clipped to
    ``[CG_RTOL, FORCING_MAX]``, which stops CG once the step's linear
    residual is a small share of what Newton must still remove.  ``tol = 0``
    leaves the floor at ``CG_RTOL``.
    """
    if norm >= FORCING_EXACT_BELOW:
        return FORCING_MAX
    return max(CG_RTOL, min(FORCING_MAX, FORCING_TOL_SHARE * tol / norm))


def _product_start(singular: SingularPart) -> np.ndarray:
    """Product-ansatz first iterate of Newton, flattened.

    ``htilde0 = -sum_k n_k log(|z - X_k|^2 + a^2) - sum_j m_j log(|z - W_j|^2 + a^2)``
    with ``a^2 = ANSATZ_A2``, so that ``exp(htilde0 + v0)`` is the product of
    ``(|z - X|^2 / (|z - X|^2 + a^2))^n`` over the cores (Jaffe & Taubes,
    "Vortices and Monopoles", 1980): it lies in [0, 1], vanishes at each core
    like ``|z - X|^2 / a^2`` and is vacuum far from the cores.
    """
    grid = singular.v0.grid
    z = grid.nodes_complex.reshape(grid.size)
    start = np.zeros(grid.size)
    for pos, n in vortex_cores(singular.config, singular.disk.radius):
        start -= n * np.log(np.abs(z - pos) ** 2 + ANSATZ_A2)
    return start


def _prolong(coarse: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """Values on ``grid`` of a field given on its half grid, flattened.

    In theta by trigonometric interpolation: the coarse spectrum zero-padded,
    its Nyquist term (even coarse ``ntheta``) split between the modes
    ``+-ntheta/4`` of ``grid``.  In r by the cubic through four coarse rings: fine ring
    ``2i`` sits a quarter coarse spacing inside coarse ring ``i`` and ring
    ``2i + 1`` a quarter outside, weights ``(-5, 35, 105, -7) / 128`` and
    ``(-7, 105, 35, -5) / 128``.  The two ghost rings past the pole are
    rings 1 and 0 turned by pi; the two past the rim extend the cubic
    through the last four rings.
    """
    nrc, ntc = coarse.shape
    spectrum = np.fft.rfft(coarse, axis=1)
    if ntc % 2 == 0:
        spectrum[:, -1] *= 0.5
    padded = np.zeros((nrc, grid.ntheta // 2 + 1), dtype=complex)
    padded[:, : spectrum.shape[1]] = spectrum
    rings = np.fft.irfft(padded, n=grid.ntheta, axis=1) * (grid.ntheta / ntc)

    ext = np.empty((nrc + 4, grid.ntheta))
    ext[0:2] = np.roll(rings[1::-1], grid.ntheta // 2, axis=1)
    ext[2:-2] = rings
    for k in (-2, -1):
        ext[k] = 4.0 * ext[k - 1] - 6.0 * ext[k - 2] + 4.0 * ext[k - 3] - ext[k - 4]

    def shifted(k):  # coarse ring i + k for i = 0 .. nrc - 1
        return ext[2 + k : 2 + k + nrc]

    fine = np.empty(grid.shape)
    fine[0::2] = (-5.0 * shifted(-2) + 35.0 * shifted(-1) + 105.0 * shifted(0) - 7.0 * shifted(1)) / 128.0
    fine[1::2] = (-7.0 * shifted(-1) + 105.0 * shifted(0) + 35.0 * shifted(1) - 5.0 * shifted(2)) / 128.0
    return fine.reshape(grid.size)


def solve_taubes_2d(
    disk: ConformalDisk,
    config: VortexConfiguration,
    grid: PolarGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    linear_solver: str = "cg",
) -> tuple[ScalarField, SolveReport]:
    """Solve for ``htilde`` on ``grid`` by damped Newton iteration.

    Where ``nr`` and ``ntheta`` are even and their halves at least
    ``NESTED_MIN_POINTS``, Newton starts from the same problem solved on the
    half grid (recursively, each level to ``HALF_GRID_TOL_RATIO`` times the
    tolerance of the level above) and prolonged, provided that half-grid
    solve converged; otherwise from the product of single-vortex profiles
    (see the module docstring).  ``report.start`` says which.

    Parameters
    ----------
    disk, config, grid
        Domain, vortex data and discretisation.  The existence gate is
        checked first and raises ``BradlowViolation`` on failure.
    tol
        Convergence threshold on the infinity norm of the nonlinear residual.
    max_iter
        Maximum Newton iterations.
    linear_solver
        Only ``"cg"``: conjugate gradients with the separable polar
        preconditioner, the one linear-solver path.

    Returns
    -------
    (ScalarField, SolveReport)
        The field ``htilde`` and the convergence record.  Every stop of
        Newton, converged or not, returns the last accepted iterate, and
        ``report.termination`` says which stop it was.  ``bc_residual`` is
        the discrete flux-balance defect
        ``|sum Omega (exp(htilde+v0) - 1) r dr dtheta - R * sum g dtheta|``.

    Raises
    ------
    ValueError
        For a ``linear_solver`` other than ``"cg"``, a ``tol`` not finite
        and ``>= 0`` or a vortex on a node of ``grid`` (a node of a half
        grid only drops the half-grid start).

    Notes
    -----
    ``residual_history`` records the infinity norm of the cell residual in
    mean-cell units, i.e. the pointwise residual scaled by ``2 r_i / R``
    (the local-to-mean cell volume ratio, equal to one at mid-radius).  The
    plain pointwise residual is not float64-attainable below roughly
    ``eps_machine / (r_0 * dtheta)^2`` at the innermost ring: one ulp of the
    iterate there moves the stencil by more than 1e-8 on fine grids, so a
    pointwise infinity-norm tolerance would stall at the pole ring while the
    field is already at its discretisation optimum everywhere.
    """
    # The keyword stays only because perfbench's warm-up passes linear_solver="cg".
    if linear_solver != "cg":
        raise ValueError(f"unknown linear_solver {linear_solver!r}")
    return _solve(disk, config, grid, tol, max_iter)


def _solve(disk, config, grid, tol, max_iter):
    """``solve_taubes_2d`` on ``grid`` to ``tol``.

    Where ``grid`` halves to at least ``NESTED_MIN_POINTS`` per direction,
    this same function first solves the half grid to
    ``HALF_GRID_TOL_RATIO * tol``.  Newton starts from that solution,
    prolonged, if it converged, and from ``_product_start`` otherwise.  A
    ``LinearSolveError`` of a Newton step ends the loop as the termination
    ``"linear_solve"``.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    check_bradlow(config, disk)
    lap = assemble_neumann_laplacian(grid, disk)
    singular = build_singular_part(config, disk, grid)

    w = lap.weights
    b = lap.boundary_flux_vector(singular.neumann_data)
    omega = np.repeat(disk.omega_at(grid.r), grid.ntheta)
    v0 = singular.v0.values.reshape(grid.size)

    # Residual norm in mean-cell units (see Notes of ``solve_taubes_2d``).
    norm_scale = np.repeat(2.0 * grid.r / grid.radius, grid.ntheta)

    def residual(hvec):
        with np.errstate(over="ignore"):
            e = np.exp(hvec + v0)
            F = (lap.apply(hvec) + b) / w - omega * (e - 1.0)
            return F, e, float(np.max(np.abs(F * norm_scale)))

    h, start, coarse = None, "product ansatz", []
    half = (grid.nr // 2, grid.ntheta // 2)
    if grid.nr % 2 == grid.ntheta % 2 == 0 and min(half) >= NESTED_MIN_POINTS:
        try:
            coarse_field, coarse_report = _solve(
                disk, config, PolarGrid(grid.radius, *half), HALF_GRID_TOL_RATIO * tol, max_iter
            )
        except ValueError:
            pass  # a vortex on a half-grid node
        else:
            levels = coarse_report.iterations, sum(coarse_report.linear_iterations)
            coarse = coarse_report.coarse + [(*half, *levels)]
            if coarse_report.converged:
                h, start = _prolong(coarse_field.values, grid), "half grid"
    if h is None:
        h = _product_start(singular)
    F, e_h, norm = residual(h)
    report = SolveReport(
        residual_history=[norm], termination="max_iter", singular=singular, coarse=coarse, start=start
    )

    while norm > tol and report.iterations < max_iter:
        rtol = _forcing(norm, tol)
        try:
            delta, cg_iterations = _solve_spd(lap, w * omega * e_h, -(w * F), rtol)
        except LinearSolveError as exc:
            report.termination, report.detail = "linear_solve", str(exc)
            break
        report.linear_iterations.append(cg_iterations)
        report.forcing.append(rtol)
        lam = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            trial = h + lam * delta
            F_new, e_new, norm_new = residual(trial)
            if np.isfinite(norm_new) and norm_new < norm:
                accepted = True
                break
            lam *= 0.5
            report.damping_events += 1
        if not accepted:
            report.termination = "line_search"
            break
        h, F, e_h, norm = trial, F_new, e_new, norm_new
        report.residual_history.append(norm)

    if norm <= tol:
        report.termination = "converged"
    flux_in = float(np.sum(w * omega * (e_h - 1.0)))
    flux_bc = float(grid.radius * grid.dtheta * np.sum(singular.neumann_data))
    report.bc_residual = abs(flux_in - flux_bc)
    return ScalarField(grid, h.reshape(grid.shape)), report

