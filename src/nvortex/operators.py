"""Flux-form finite-difference Laplacian on the polar grid with Neumann faces.

The same operator backs the nonlinear field solver and the discrete
Green-function solves, so all modules discretise the Laplacian identically.
The field solver uses it assembled, as a CSR matrix written row by row,
five entries a row; the Green functions need only its couplings.
Its couplings depend on the radius only, so a discrete Fourier transform in
theta splits it into independent tridiagonal systems in r, one per angular
mode; ``PolarModeSolver`` solves the operator (with a ring-constant diagonal
shift) that way (Concus & Golub 1973, Swarztrauber 1974).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .geometry import ConformalDisk, PolarGrid

__all__ = [
    "LinearSolveError",
    "NeumannLaplacian",
    "PolarModeSolver",
    "assemble_neumann_laplacian",
    "polar_couplings",
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

    ``matrix`` stores ``W * lap_e`` where ``W = diag(r_i * dr * dtheta)``; it is
    symmetric with exactly vanishing row sums (flux form).  A prescribed outer
    Neumann flux ``d_r u(R, theta_j) = g_j`` enters as the separate vector
    ``boundary_flux_vector(g)``, so that the weighted operator value is
    ``matrix @ u + boundary_flux_vector(g)``.
    """

    grid: PolarGrid
    matrix: sp.csr_matrix
    weights: np.ndarray  # flat cell measures r*dr*dtheta, shape (size,)
    c_rad: np.ndarray  # radial coupling across the face r = (i+1) dr, shape (nr - 1,)
    c_ang: np.ndarray  # angular coupling on ring i, shape (nr,)

    def boundary_flux_vector(self, g) -> np.ndarray:
        """Weighted source carrying the outer fluxes ``R * dtheta * g_j``."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.grid.ntheta,):
            raise ValueError(f"expected {self.grid.ntheta} boundary values, got {g.shape}")
        b = np.zeros(self.grid.size)
        b[(self.grid.nr - 1) * self.grid.ntheta :] = self.grid.radius * self.grid.dtheta * g
        return b


def polar_couplings(grid: PolarGrid, disk: ConformalDisk) -> tuple[np.ndarray, np.ndarray]:
    """Couplings of the weighted flux-form Laplacian, read-only.

    ``c_rad[i] = r_{i+1/2} dtheta / dr`` couples rings ``i`` and ``i + 1``
    across the face at radius ``(i + 1) dr``, shape ``(nr - 1,)``;
    ``c_ang[i] = dr / (r_i dtheta)`` couples neighbouring nodes on ring ``i``,
    shape ``(nr,)``.  They depend on the radius only, which is all the
    separable solve needs.
    """
    if abs(grid.radius - disk.radius) > 1e-12 * disk.radius:
        raise ValueError("grid radius does not match disk radius")
    c_rad = grid.r_faces[1 : grid.nr] * grid.dtheta / grid.dr
    c_ang = grid.dr / (grid.r * grid.dtheta)
    c_rad.setflags(write=False)
    c_ang.setflags(write=False)
    return c_rad, c_ang


def assemble_neumann_laplacian(grid: PolarGrid, disk: ConformalDisk) -> NeumannLaplacian:
    """Assemble the 5-point flux-form Laplacian for ``grid``.

    At node ``(i, j)`` the operator is

        [r_{i+1/2}(u_{i+1,j} - u_{i,j}) - r_{i-1/2}(u_{i,j} - u_{i-1,j})] / (r_i dr^2)
        + (u_{i,j+1} - 2 u_{i,j} + u_{i,j-1}) / (r_i^2 dtheta^2)

    with the inner face of the first ring at ``r = 0`` (zero flux, no pole
    special case) and the outer face carrying the prescribed Neumann flux.
    The matrix is assembled in the volume-weighted symmetric form, directly
    as CSR rows of five entries in ascending column order: the south
    neighbour (``i >= 1``), the three nodes ``j - 1, j, j + 1`` of the ring
    (``0, 1, nt - 1`` at ``j = 0`` and ``0, nt - 2, nt - 1`` at
    ``j = nt - 1``) and the north neighbour (``i <= nr - 2``).  Each
    diagonal entry is minus its row's off-diagonal sum, so row sums vanish.
    """
    c_rad, c_ang = polar_couplings(grid, disk)
    nr, nt = grid.nr, grid.ntheta
    south = np.concatenate([[0.0], c_rad])
    north = np.concatenate([c_rad, [0.0]])
    # Per ring: the south, angular, diagonal and north entries of its rows.
    entries = np.column_stack([south, c_ang, -(2.0 * c_ang + (north + south)), north])
    # Per node j of a ring, the five columns of its row relative to the
    # ring's first node, and which entry each takes.
    columns = np.arange(nt, dtype=np.int32)[:, None] + np.array([-nt, -1, 0, 1, nt], dtype=np.int32)
    columns[0, 1:4] = 0, 1, nt - 1
    columns[-1, 1:4] = 0, nt - 2, nt - 1
    kinds = np.tile([0, 1, 2, 1, 3], (nt, 1))
    kinds[0, 1:4] = 2, 1, 1
    kinds[-1, 1:4] = 1, 1, 2
    # The first ring has no south neighbour and the last no north one, so
    # the rows come in up to three blocks of rings with equal row lengths.
    edges = sorted({0, 1, nr - 1, nr})
    widths = 3 + (np.arange(nr) >= 1) + (np.arange(nr) <= nr - 2)
    indptr = np.zeros(grid.size + 1, dtype=np.int32)
    np.cumsum(np.repeat(widths, nt), out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = slice(indptr[lo * nt], indptr[hi * nt])
        slots = slice(int(lo == 0), 4 + int(hi < nr))
        shape = (hi - lo, nt, widths[lo])
        first_nodes = np.arange(lo * nt, hi * nt, nt, dtype=np.int32)[:, None, None]
        np.add(first_nodes, columns[:, slots], out=indices[rows].reshape(shape))
        data[rows].reshape(shape)[...] = entries[lo:hi, kinds[:, slots]]
    matrix = sp.csr_matrix((data, indices, indptr), shape=(grid.size, grid.size))
    weights = grid.flat_weights()
    weights.setflags(write=False)
    return NeumannLaplacian(grid=grid, matrix=matrix, weights=weights, c_rad=c_rad, c_ang=c_ang)


class PolarModeSolver:
    """Exact solve of ``(lap.matrix - diag(shift)) x = b`` for a ring-constant shift.

    ``c_rad`` and ``c_ang`` are the operator's couplings (``polar_couplings``);
    the assembled matrix is not needed.  ``shift`` has one value per ring,
    shape ``(nr,)``.  An rfft along theta
    turns the system into one tridiagonal system in r per angular mode ``k``,
    with off-diagonals ``c_rad`` and diagonal

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

    def __init__(self, grid: PolarGrid, c_rad: np.ndarray, c_ang: np.ndarray, shift=None):
        self.shape = grid.shape
        self.c_rad = c_rad
        #: Modes below ``first`` are solved by the flux formula, not swept.
        self.first = 1 if shift is None else 0
        k = np.arange(self.first, grid.ntheta // 2 + 1)
        radial = np.concatenate([c_rad, [0.0]]) + np.concatenate([[0.0], c_rad])
        diag = radial + (2.0 - 2.0 * np.cos(k * grid.dtheta))[:, None] * c_ang
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
