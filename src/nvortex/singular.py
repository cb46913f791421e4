"""Vortex singular part and discrete Neumann Green functions.

The field ``h = log |phi|^2`` is split as ``h = htilde + v0`` where

    v0(z) = sum_k n_k log|z - X_k|^2 + sum_j m_j log|z - W_j|^2

carries the core logarithms.  Subtracting ``v0`` removes every interior delta
from the field equation and converts the boundary deltas into smooth inward
Neumann data for ``htilde``: each boundary vortex contributes the constant
``-m_j / R`` and each interior vortex the trace of ``-d_r log|z - X_k|^2``.

The Green functions solve the bare flux-form Laplacian exactly with the
separable polar solver: Fourier modes ``k >= 1`` by a tridiagonal sweep in r,
mode 0 by integrating its radial flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConformalDisk, PolarGrid, ScalarField, VortexConfiguration
from .operators import PolarModeSolver, assemble_neumann_laplacian, inner

__all__ = [
    "SingularPart",
    "build_singular_part",
    "neumann_green",
    "boundary_neumann_green",
]


def vortex_cores(config: VortexConfiguration, radius: float) -> list[tuple[complex, int]]:
    """Every core as ``(position, multiplicity)``, the interior vortices first.

    Boundary vortices sit at ``radius * exp(i theta)`` on the circle.
    """
    return [*config.interior, *((radius * np.exp(1j * theta), m) for theta, m in config.boundary)]


@dataclass(frozen=True)
class SingularPart:
    """Core logarithms ``v0`` on the grid plus the outer Neumann data they induce.

    ``neumann_data[j]`` is ``-d_r v0`` at ``(R, theta_j)``, smooth part only:
    boundary vortices enter through the constant ``-m_j / R`` (the continuous
    extension of the radial derivative of their logarithm on the circle).
    """

    v0: ScalarField
    neumann_data: np.ndarray
    config: VortexConfiguration
    disk: ConformalDisk

    def gradient_polar(self) -> tuple[np.ndarray, np.ndarray]:
        """Analytic flat gradient of ``v0`` at the nodes: (radial, tangential).

        Each core contributes ``2 n (z - X) / |z - X|^2``; evaluating the sum
        exactly avoids the dominant near-core differencing error.
        """
        grid = self.v0.grid
        z = grid.nodes_complex
        gc = np.zeros(grid.shape, dtype=complex)
        for pos, n in vortex_cores(self.config, self.disk.radius):
            d = z - pos
            gc += (2.0 * n) * d / np.abs(d) ** 2
        phase = np.exp(-1j * grid.theta)[None, :]
        local = phase * gc
        return local.real.copy(), local.imag.copy()


def build_singular_part(
    config: VortexConfiguration, disk: ConformalDisk, grid: PolarGrid
) -> SingularPart:
    """Evaluate ``v0`` at the grid nodes and its smooth outer Neumann trace.

    Raises ``ValueError`` if a vortex position coincides exactly with a grid
    node (the logarithm would be -inf there; perturb the position or the grid).
    """
    config.validate_inside(disk)
    z = grid.nodes_complex
    v0 = np.zeros(grid.shape)
    radius = disk.radius
    theta = grid.theta

    for pos, n in vortex_cores(config, radius):
        d2 = np.abs(z - pos) ** 2
        if np.any(d2 == 0.0):
            raise ValueError(f"vortex at {pos} coincides with a grid node")
        v0 += n * np.log(d2)

    g = np.zeros(grid.ntheta)
    for pos, n in config.interior:
        rho = abs(pos)
        alpha = np.angle(pos) if rho > 0 else 0.0
        boundary_d2 = radius * radius - 2.0 * radius * rho * np.cos(theta - alpha) + rho * rho
        g -= n * (2.0 * radius - 2.0 * rho * np.cos(theta - alpha)) / boundary_d2
    for _, m in config.boundary:
        g -= m / radius

    return SingularPart(
        v0=ScalarField(grid, v0), neumann_data=g, config=config, disk=disk
    )


def _green_for_source(disk: ConformalDisk, grid: PolarGrid, source: int) -> ScalarField:
    """Zero-mean solution of the weighted system ``lap.apply(G) = w_g / A - e_source``.

    ``source`` is the flat node index and ``A`` the discrete curved area, which
    makes the singular Neumann system exactly compatible.  The kernel of the
    flux-form operator is the constants: the separable solve fixes the
    constant by a zero mean on the first ring, and the result is then shifted
    to zero curved-volume mean.
    """
    lap = assemble_neumann_laplacian(grid, disk)
    w_g = grid.curved_weights(disk)
    area = float(np.sum(w_g))
    rhs = w_g / area
    rhs[source] -= 1.0
    x = PolarModeSolver(lap).solve(rhs)
    x -= inner(x, w_g) / area
    return ScalarField(grid, x.reshape(grid.shape))


def neumann_green(disk: ConformalDisk, grid: PolarGrid, q: tuple[int, int]) -> ScalarField:
    """Discrete interior Neumann Green function for source node ``q = (i, j)``.

    Solves ``-lap_g G = delta_q - 1/A`` with zero outer flux, where the delta
    is ``1/cellvolume`` at ``q`` and ``A`` is the discrete curved area.  The
    result has zero curved-volume mean; near the source
    ``G ~ -(1/2 pi) log(distance)``.
    """
    i, j = q
    if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in (i, j)):
        raise ValueError(f"source index {q} must be a pair of integers")
    if not (0 <= i < grid.nr and 0 <= j < grid.ntheta):
        raise ValueError(f"source index {q} outside grid {grid.shape}")
    return _green_for_source(disk, grid, i * grid.ntheta + j)


def boundary_neumann_green(disk: ConformalDisk, grid: PolarGrid, theta_q: float) -> ScalarField:
    """Discrete boundary Neumann Green function for a source angle on a node.

    Solves ``lap_g H = 1/A`` with outer flux data a unit boundary delta: the
    delta enters as a single outer-face flux of magnitude ``1/(R dtheta)``
    over one face, so the discrete boundary flux integral equals one.  The
    result has zero curved-volume mean; near the source
    ``H ~ -(1/pi) log(distance)`` (half-space behaviour).
    """
    if not math.isfinite(theta_q):
        raise ValueError(f"theta_q must be finite, got {theta_q}")
    theta = float(theta_q) % math.tau
    # The nearest node, counted up to ntheta so that an angle just below 2*pi
    # is measured against 2*pi, which is node 0.
    j = round(theta / grid.dtheta)
    if abs(theta - j * grid.dtheta) > 1e-10:
        raise ValueError(f"theta_q={theta_q} does not coincide with an angular node")
    return _green_for_source(disk, grid, (grid.nr - 1) * grid.ntheta + j % grid.ntheta)
