"""Flux-form finite-difference Laplacian on the polar grid with Neumann faces.

The same operator backs the nonlinear field solver and the discrete
Green-function solves, so all modules discretise the Laplacian identically.
No matrix is built: the operator is its face couplings, and
``NeumannLaplacian.apply`` differences the face fluxes they give.
The couplings depend on the radius only, so a discrete Fourier transform in
theta splits it into independent tridiagonal systems in r, one per angular
mode; ``PolarModeSolver`` solves the operator (with a ring-constant diagonal
shift) that way (Concus & Golub 1973, Swarztrauber 1974).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .geometry import ConformalDisk, PolarGrid

__all__ = [
    "LinearSolveError",
    "NeumannLaplacian",
    "PolarModeSolver",
    "assemble_neumann_laplacian",
]

#: A Thomas pivot at or below this fraction of its diagonal entry means the
#: mode system is singular to working precision.
PIVOT_RTOL = 1e-13


class LinearSolveError(RuntimeError):
    """An inner linear solve failed (singular system or CG stagnation)."""


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two flat arrays, the same bits whatever the BLAS thread count.

    ``np.dot`` goes to BLAS ``ddot``, which splits long sums across threads;
    ``einsum`` sums in numpy's own single-threaded loop.
    """
    return float(np.einsum("i,i->", a, b))


@dataclass(frozen=True)
class NeumannLaplacian:
    """Volume-weighted flat Laplacian with zero-flux pole and Neumann outer face.

    ``apply(u)`` is ``W * lap_e u`` with ``W = diag(r_i * dr * dtheta)``,
    formed from the couplings with no matrix; it is symmetric with exactly
    vanishing row sums (flux form).  A prescribed outer Neumann flux
    ``d_r u(R, theta_j) = g_j`` enters as the separate vector
    ``boundary_flux_vector(g)``, so that the weighted operator value is
    ``apply(u) + boundary_flux_vector(g)``.
    """

    grid: PolarGrid
    weights: np.ndarray  # flat cell measures r*dr*dtheta, shape (size,)
    c_rad: np.ndarray  # radial coupling across the face r = (i+1) dr, shape (nr - 1,)
    c_ang: np.ndarray  # angular coupling on ring i, shape (nr,)

    def apply(self, u) -> np.ndarray:
        """``W * lap_e u`` with zero outer flux, for ``size`` or ``(nr, ntheta)`` values, flattened."""
        # Each face's flux enters its two nodes with opposite signs: symmetric, zero row sums.
        # Angular faces lie between nodes j and j + 1 of a ring, the last wrapping to node 0.
        u = np.reshape(u, self.grid.shape)
        flux = self.c_ang[:, None] * (np.roll(u, -1, axis=1) - u)
        out = flux - np.roll(flux, 1, axis=1)
        flux = self.c_rad[:, None] * (u[1:] - u[:-1])  # radial faces between rings i and i + 1
        out[:-1] += flux
        out[1:] -= flux
        return out.reshape(self.grid.size)

    def boundary_flux_vector(self, g) -> np.ndarray:
        """Weighted source carrying the outer fluxes ``R * dtheta * g_j``."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.grid.ntheta,):
            raise ValueError(f"expected {self.grid.ntheta} boundary values, got {g.shape}")
        b = np.zeros(self.grid.size)
        b[(self.grid.nr - 1) * self.grid.ntheta :] = self.grid.radius * self.grid.dtheta * g
        return b


def assemble_neumann_laplacian(grid: PolarGrid, disk: ConformalDisk) -> NeumannLaplacian:
    """The 5-point flux-form Laplacian on ``grid``: its couplings and cell weights.

    At node ``(i, j)`` the operator is

        [r_{i+1/2}(u_{i+1,j} - u_{i,j}) - r_{i-1/2}(u_{i,j} - u_{i-1,j})] / (r_i dr^2)
        + (u_{i,j+1} - 2 u_{i,j} + u_{i,j-1}) / (r_i^2 dtheta^2)

    with the inner face of the first ring at ``r = 0`` (zero flux, no pole
    special case) and the outer face carrying the prescribed Neumann flux.
    In the volume-weighted form ``c_rad[i] = r_{i+1/2} dtheta / dr`` couples
    rings ``i`` and ``i + 1`` across the face at radius ``(i + 1) dr``, and
    ``c_ang[i] = dr / (r_i dtheta)`` couples neighbouring nodes on ring
    ``i``.  They depend on the radius only, which is all the separable
    solve needs.  Every array is read-only.
    """
    if abs(grid.radius - disk.radius) > 1e-12 * disk.radius:
        raise ValueError("grid radius does not match disk radius")
    lap = NeumannLaplacian(
        grid=grid,
        weights=grid.flat_weights(),
        c_rad=grid.r_faces[1 : grid.nr] * grid.dtheta / grid.dr,
        c_ang=grid.dr / (grid.r * grid.dtheta),
    )
    for values in (lap.weights, lap.c_rad, lap.c_ang):
        values.setflags(write=False)
    return lap


class PolarModeSolver:
    """Exact solve of ``lap.apply(x) - shift * x = b`` for a ring-constant shift.

    ``shift`` has one value per ring, shape ``(nr,)``, shared by the ring's
    nodes.  Only the couplings ``c_rad`` and ``c_ang`` of ``lap`` are read.
    An rfft along theta turns the system into one tridiagonal system in r per
    angular mode ``k``, with off-diagonals ``c_rad`` and diagonal

        -(c_rad[i-1] + c_rad[i]) - c_ang[i] * (2 - 2 cos(k dtheta)) - shift[i].

    The negated mode systems are positive definite; they are stacked into one
    block-diagonal tridiagonal system and factored once here by LAPACK's
    ``dpttrf`` (the Thomas recurrence), so every ``solve`` is one ``dpttrs``
    sweep over all modes.

    ``shift=None`` is the bare Neumann Laplacian, whose kernel is the
    constants: mode 0 is then integrated by its cumulative flux (the
    right-hand side must sum to zero) and carries zero mean on the first
    ring, and modes ``k >= 1`` are swept unshifted.  Raises
    ``LinearSolveError`` when a pivot is non-finite or vanishes to working
    precision (for example a shift that underflows to zero, which leaves
    mode 0 singular).
    """

    def __init__(self, lap: NeumannLaplacian, shift=None):
        grid, c_rad = lap.grid, lap.c_rad
        self.shape = grid.shape
        self.c_rad = c_rad
        #: Modes below ``first`` are solved by the flux formula, not swept.
        self.first = 1 if shift is None else 0
        k = np.arange(self.first, grid.ntheta // 2 + 1)
        radial = np.concatenate([c_rad, [0.0]]) + np.concatenate([[0.0], c_rad])
        diag = radial + (2.0 - 2.0 * np.cos(k * grid.dtheta))[:, None] * lap.c_ang
        if shift is not None:
            diag = diag + np.asarray(shift, dtype=float)
        diag = diag.ravel()
        off = np.tile(np.append(-c_rad, 0.0), len(k))[:-1]
        self.pivot, self.off, _ = lapack.dpttrf(diag, off)
        singular = ~(self.pivot > PIVOT_RTOL * diag)
        if np.any(singular):
            m, i = divmod(int(np.argmax(singular)), grid.nr)
            raise LinearSolveError(
                f"polar mode {m + self.first} is singular at ring {i} "
                f"(|pivot| {abs(self.pivot[m * grid.nr + i]):.3g})"
            )

    def solve(self, rhs) -> np.ndarray:
        """Solution for a right-hand side of ``size`` or ``(nr, ntheta)`` values, flattened."""
        nr, nt = self.shape
        bhat = np.fft.rfft(np.reshape(rhs, self.shape), axis=1)
        xhat = np.empty_like(bhat)
        if self.first:
            xhat[0, 0] = 0.0
            xhat[1:, 0] = np.cumsum(np.cumsum(bhat[:-1, 0].real) / self.c_rad)
        swept = bhat[:, self.first :].T
        parts = np.empty((2,) + swept.shape)
        np.negative(swept.real, out=parts[0])
        np.negative(swept.imag, out=parts[1])
        x, _ = lapack.dpttrs(self.pivot, self.off, parts.reshape(2, -1).T, overwrite_b=True)
        xhat[:, self.first :] = (x[:, 0] + 1j * x[:, 1]).reshape(swept.shape).T
        return np.fft.irfft(xhat, n=nt, axis=1).reshape(nr * nt)
