"""Test oracle for the 2-D Newton's linear solves: one SuperLU solve per step.

``solve_taubes_2d`` solves each Newton step by preconditioned CG
(``solver2d._solve_spd``), stopped at an inexact-Newton forcing tolerance.
This module keeps the direct path that CG is checked against: the Newton
system ``(lap.matrix - diag(shift)) x = rhs`` factored and solved exactly by
SuperLU (``superlu_step``), and the library's own Newton loop run with that
step in place of CG (``solve_direct``), so the tests hold no second copy of
the Newton iteration.
"""

from __future__ import annotations

import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nvortex import solver2d


def superlu_step(lap, shift, rhs, rtol=0.0):
    """Stand-in for ``solver2d._solve_spd``: the exact solve by SuperLU.

    ``shift`` holds one value per node.  ``rtol`` is ignored; the CG
    iteration count returned is 0.
    """
    return spla.splu((lap.matrix - sp.diags(shift)).tocsc()).solve(rhs), 0


def solve_direct(disk, config, grid, **kwargs):
    """``solve_taubes_2d`` with every Newton step, half grids included, solved by SuperLU."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver2d, "_solve_spd", superlu_step)
        return solver2d.solve_taubes_2d(disk, config, grid, **kwargs)
