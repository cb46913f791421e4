import math

import numpy as np
import pytest
import scipy.sparse as sp

from nvortex import ConformalDisk, build_grid
from nvortex.operators import LinearSolveError, PolarModeSolver, assemble_neumann_laplacian

from direct_oracle import band_laplacian, superlu_step


@pytest.fixture(scope="module")
def lap64(disk3):
    grid = build_grid(disk3, 64, 64)
    return grid, assemble_neumann_laplacian(grid, disk3)


def _apply(lap, values, g):
    """Unweighted discrete Laplacian of a ``(nr, ntheta)`` array with outer Neumann data ``g``."""
    out = lap.apply(values) + lap.boundary_flux_vector(g)
    return (out / lap.weights).reshape(lap.grid.shape)


def test_constants_are_annihilated(lap64):
    # exact in exact arithmetic; float64 leaves pole-amplified cancellation
    # noise of order eps / (r_0 * dtheta)^2
    grid, lap = lap64
    out = _apply(lap, np.full(grid.shape, 3.7), np.zeros(grid.ntheta))
    assert np.max(np.abs(out)) < 1e-9


def test_row_sums_vanish(lap64):
    # sum(A u) = 0 for every u says the column sums vanish, and with the
    # symmetry below the row sums too.
    grid, lap = lap64
    magnitude = abs(band_laplacian(lap))
    for u in np.random.default_rng(5).normal(size=(4, grid.size)):
        assert abs(np.sum(lap.apply(u))) <= 1e-14 * np.sum(magnitude @ np.abs(u))


def test_matrix_is_symmetric(lap64):
    # <u, A v> = <A u, v> on random vectors, the operator never built as a matrix.
    grid, lap = lap64
    u, v = np.random.default_rng(6).normal(size=(2, grid.size))
    lhs, rhs = np.dot(u, lap.apply(v)), np.dot(lap.apply(u), v)
    assert abs(lhs - rhs) <= 1e-14 * np.dot(np.abs(u), np.abs(band_laplacian(lap)) @ np.abs(v))


def test_apply_takes_flat_or_grid_values_and_leaves_them(lap64):
    grid, lap = lap64
    u = np.random.default_rng(7).normal(size=grid.shape)
    before = u.copy()
    flat = lap.apply(u.ravel())
    assert flat.shape == (grid.size,)
    assert np.array_equal(lap.apply(u), flat)
    assert np.array_equal(u, before)


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


def _coo_laplacian(lap):
    """Oracle: the weighted Laplacian summed entry by entry from its face couplings."""
    grid = lap.grid
    nr, nt = grid.nr, grid.ntheta
    jj = np.arange(nt)
    lo = (np.arange(nr - 1)[:, None] * nt + jj).ravel()
    hi = lo + nt
    a1 = (np.arange(nr)[:, None] * nt + jj).ravel()
    a2 = (np.arange(nr)[:, None] * nt + (jj + 1) % nt).ravel()
    rows = np.concatenate([lo, hi, lo, hi, a1, a2, a1, a2])
    cols = np.concatenate([lo, hi, hi, lo, a1, a2, a2, a1])
    cr, ca = np.repeat(lap.c_rad, nt), np.repeat(lap.c_ang, nt)
    vals = np.concatenate([-cr, -cr, cr, cr, -ca, -ca, ca, ca])
    return sp.coo_matrix((vals, (rows, cols)), shape=(grid.size, grid.size)).tocsr()


@pytest.mark.parametrize("shape", [(8, 8), (24, 31), (64, 64), (256, 256)])
def test_band_assembly_matches_coo_reference(disk3, shape):
    # The band build is the oracle of ``apply`` and of the SuperLU step.
    grid = build_grid(disk3, *shape)
    lap = assemble_neumann_laplacian(grid, disk3)
    matrix, reference = band_laplacian(lap), _coo_laplacian(lap)
    assert matrix.nnz == reference.nnz
    assert abs(matrix - reference).max() <= 1e-14 * abs(reference).max()


@pytest.mark.parametrize(
    "shape",
    [(8, 8), (9, 8), (24, 31), (33, 47), (64, 64), (256, 256), (320, 320)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_apply_matches_band_build(disk3, shape):
    # Within rounding of each row's absolute sum: the stencil sums the same
    # five terms in another order.
    grid = build_grid(disk3, *shape)
    lap = assemble_neumann_laplacian(grid, disk3)
    matrix = band_laplacian(lap)
    u = np.random.default_rng(8).normal(size=grid.size)
    scale = np.max(abs(matrix) @ np.abs(u))
    assert np.max(np.abs(lap.apply(u) - matrix @ u)) <= 1e-15 * scale


def test_couplings_and_weights_are_read_only(lap64):
    _, lap = lap64
    for values in (lap.weights, lap.c_rad, lap.c_ang):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


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
        x = PolarModeSolver(lap, shift).solve(rhs)
        ref, _ = superlu_step(lap, np.repeat(shift, grid.ntheta), rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_bare_laplacian_solves_compatible_system(self, disk3):
        grid = build_grid(disk3, 24, 31)
        lap = assemble_neumann_laplacian(grid, disk3)
        rhs = np.random.default_rng(4).normal(size=grid.size)
        rhs -= rhs.mean()
        x = PolarModeSolver(lap).solve(rhs)
        assert np.max(np.abs(lap.apply(x) - rhs)) < 1e-12 * np.max(np.abs(rhs))
        assert abs(x[: grid.ntheta].sum()) < 1e-12  # the constant is fixed on ring 0

    @pytest.mark.parametrize("value", [0.0, 1e-320, np.nan, np.inf])
    def test_unusable_shift_raises(self, lap64, value):
        grid, lap = lap64
        with pytest.raises(LinearSolveError, match="mode 0"):
            PolarModeSolver(lap, np.full(grid.nr, value))
