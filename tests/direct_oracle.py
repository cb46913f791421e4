"""Test oracle for the 2-D Newton's linear solves: one SuperLU solve per step.

``solve_taubes_2d`` solves each Newton step by preconditioned CG
(``solver2d._solve_spd``), stopped at an inexact-Newton forcing tolerance.
This module keeps the direct path that CG is checked against: the Newton
system ``(A - diag(shift)) x = rhs`` factored and solved exactly by SuperLU
(``superlu_step``), and the library's own Newton loop run with that step in
place of CG (``solve_direct``), so the tests hold no second copy of the
Newton iteration.  ``A`` is the Laplacian's matrix built band by band
(``band_laplacian``), which is also the oracle of the library's matrix-free
``NeumannLaplacian.apply``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nvortex import solver2d


def band_laplacian(lap):
    """The matrix of ``lap.apply``, built band by band from its couplings with ``sp.diags``.

    Seven diagonals, offsets 0, +-1, +-(ntheta-1) and +-ntheta; each
    diagonal entry is minus its row's off-diagonal sum.
    """
    grid, c_rad, c_ang = lap.grid, lap.c_rad, lap.c_ang
    nt = grid.ntheta
    ring = np.repeat(c_ang, nt)
    first = np.arange(grid.size) % nt == 0
    # Diagonal k (offset > 0) holds row k's coupling to node k + offset; the
    # matrix is symmetric, so offset -k holds the same values.  Angular
    # neighbours j + 1 sit at offset 1 (none from the last node of a ring)
    # and the periodic wrap from j = 0 to j = nt - 1 at offset nt - 1.
    east = np.where(first[1:], 0.0, ring[:-1])
    wrap = np.where(first[: 1 - nt], ring[: 1 - nt], 0.0)
    north = np.repeat(c_rad, nt)
    radial = np.concatenate([c_rad, [0.0]]) + np.concatenate([[0.0], c_rad])
    diagonal = -np.repeat(2.0 * c_ang + radial, nt)
    return sp.diags(
        [diagonal, east, east, wrap, wrap, north, north],
        [0, 1, -1, nt - 1, 1 - nt, nt, -nt],
        shape=(grid.size, grid.size),
        format="csr",
    )


def superlu_step(lap, shift, rhs, rtol=0.0):
    """Stand-in for ``solver2d._solve_spd``: the exact solve by SuperLU.

    ``shift`` holds one value per node.  ``rtol`` is ignored; the CG
    iteration count returned is 0.
    """
    return spla.splu((band_laplacian(lap) - sp.diags(shift)).tocsc()).solve(rhs), 0


def solve_direct(disk, config, grid, **kwargs):
    """``solve_taubes_2d`` with every Newton step, half grids included, solved by SuperLU."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver2d, "_solve_spd", superlu_step)
        return solver2d.solve_taubes_2d(disk, config, grid, **kwargs)
