import math

import numpy as np
import pytest
import scipy.sparse as sp

from nvortex import ConformalDisk, build_grid
from nvortex.operators import LinearSolveError, PolarModeSolver, assemble_neumann_laplacian, polar_couplings

from direct_oracle import band_laplacian, superlu_step


@pytest.fixture(scope="module")
def lap64(disk3):
    grid = build_grid(disk3, 64, 64)
    return grid, assemble_neumann_laplacian(grid, disk3)


def _apply(lap, values, g):
    """Unweighted discrete Laplacian of a ``(nr, ntheta)`` array with outer Neumann data ``g``."""
    out = lap.matrix @ values.reshape(lap.grid.size) + lap.boundary_flux_vector(g)
    return (out / lap.weights).reshape(lap.grid.shape)


def test_constants_are_annihilated(lap64):
    # exact in exact arithmetic; float64 leaves pole-amplified cancellation
    # noise of order eps / (r_0 * dtheta)^2
    grid, lap = lap64
    out = _apply(lap, np.full(grid.shape, 3.7), np.zeros(grid.ntheta))
    assert np.max(np.abs(out)) < 1e-9


def test_row_sums_vanish(lap64):
    _, lap = lap64
    row_sums = np.asarray(abs(lap.matrix).sum(axis=1)).ravel()
    residual = np.asarray(lap.matrix.sum(axis=1)).ravel()
    assert np.max(np.abs(residual)) < 1e-12 * np.max(row_sums)


def test_matrix_is_symmetric(lap64):
    _, lap = lap64
    asym = (lap.matrix - lap.matrix.T).tocoo()
    max_asym = np.max(np.abs(asym.data)) if asym.nnz else 0.0
    assert max_asym < 1e-14


def test_harmonic_linear_function_second_order_away_from_pole(disk3):
    # u = x is harmonic with d_r u(R) = cos(theta); at fixed radius the
    # truncation error is O(dr^2 + dtheta^2) while the innermost ring
    # carries the usual 1/r amplification of the angular term.
    errors = []
    for n in (16, 32, 64):
        grid = build_grid(disk3, n, n)
        lap = assemble_neumann_laplacian(grid, disk3)
        out = _apply(lap, grid.nodes_complex.real, np.cos(grid.theta))
        errors.append(np.max(np.abs(out[n // 2 :, :])))
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert min(order1, order2) > 1.8


def test_boundary_flux_vector_shape_and_placement(lap64):
    grid, lap = lap64
    g = np.arange(grid.ntheta, dtype=float)
    b = lap.boundary_flux_vector(g)
    assert b.shape == (grid.size,)
    assert np.all(b[: (grid.nr - 1) * grid.ntheta] == 0.0)
    expected = grid.radius * grid.dtheta * g
    assert np.allclose(b[(grid.nr - 1) * grid.ntheta :], expected)
    with pytest.raises(ValueError):
        lap.boundary_flux_vector(np.zeros(3))


def _coo_laplacian(grid, disk):
    """Oracle: the weighted Laplacian summed entry by entry from its face couplings."""
    c_rad, c_ang = polar_couplings(grid, disk)
    nr, nt = grid.nr, grid.ntheta
    jj = np.arange(nt)
    lo = (np.arange(nr - 1)[:, None] * nt + jj).ravel()
    hi = lo + nt
    a1 = (np.arange(nr)[:, None] * nt + jj).ravel()
    a2 = (np.arange(nr)[:, None] * nt + (jj + 1) % nt).ravel()
    rows = np.concatenate([lo, hi, lo, hi, a1, a2, a1, a2])
    cols = np.concatenate([lo, hi, hi, lo, a1, a2, a2, a1])
    cr, ca = np.repeat(c_rad, nt), np.repeat(c_ang, nt)
    vals = np.concatenate([-cr, -cr, cr, cr, -ca, -ca, ca, ca])
    return sp.coo_matrix((vals, (rows, cols)), shape=(grid.size, grid.size)).tocsr()


@pytest.mark.parametrize("shape", [(8, 8), (24, 31), (64, 64), (256, 256)])
def test_band_assembly_matches_coo_reference(disk3, shape):
    grid = build_grid(disk3, *shape)
    matrix = assemble_neumann_laplacian(grid, disk3).matrix
    reference = _coo_laplacian(grid, disk3)
    assert matrix.format == "csr" and matrix.nnz == reference.nnz
    assert abs(matrix - reference).max() <= 1e-14 * abs(reference).max()


@pytest.mark.parametrize("shape", [(8, 8), (9, 8), (33, 47), (64, 64), (256, 256), (320, 320)])
def test_csr_rows_are_the_band_build_bit_for_bit(disk3, shape):
    # Same entries in the same order, so every CSR matvec gives the same bits.
    grid = build_grid(disk3, *shape)
    matrix = assemble_neumann_laplacian(grid, disk3).matrix
    reference = band_laplacian(grid, disk3)
    for name in ("indptr", "indices", "data"):
        got, expected = getattr(matrix, name), getattr(reference, name)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def test_radius_mismatch_rejected(disk3):
    grid = build_grid(ConformalDisk.flat(2.0), 16, 16)
    with pytest.raises(ValueError):
        assemble_neumann_laplacian(grid, disk3)


class TestPolarModeSolver:
    @pytest.mark.parametrize("shape", [(24, 32), (17, 21)])
    def test_shifted_solve_matches_lu(self, disk3, shape):
        grid = build_grid(disk3, *shape)
        lap = assemble_neumann_laplacian(grid, disk3)
        rng = np.random.default_rng(3)
        shift = rng.uniform(0.0, 0.2, grid.nr)
        rhs = rng.normal(size=grid.size)
        x = PolarModeSolver(grid, lap.c_rad, lap.c_ang, shift).solve(rhs)
        ref, _ = superlu_step(lap, np.repeat(shift, grid.ntheta), rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_bare_laplacian_solves_compatible_system(self, disk3):
        grid = build_grid(disk3, 24, 31)
        lap = assemble_neumann_laplacian(grid, disk3)
        rhs = np.random.default_rng(4).normal(size=grid.size)
        rhs -= rhs.mean()
        x = PolarModeSolver(grid, lap.c_rad, lap.c_ang).solve(rhs)
        assert np.max(np.abs(lap.matrix @ x - rhs)) < 1e-12 * np.max(np.abs(rhs))
        assert abs(x[: grid.ntheta].sum()) < 1e-12  # the constant is fixed on ring 0

    @pytest.mark.parametrize("value", [0.0, 1e-320, np.nan, np.inf])
    def test_unusable_shift_raises(self, lap64, value):
        grid, lap = lap64
        with pytest.raises(LinearSolveError, match="mode 0"):
            PolarModeSolver(grid, lap.c_rad, lap.c_ang, np.full(grid.nr, value))
