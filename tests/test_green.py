import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from nvortex import (
    ConformalDisk,
    boundary_neumann_green,
    build_grid,
    neumann_green,
)
from nvortex.operators import assemble_neumann_laplacian

from direct_oracle import band_laplacian


@pytest.fixture(scope="module")
def grid48(disk3):
    return build_grid(disk3, 48, 48)


class TestInteriorGreen:
    def test_mean_zero(self, disk3, grid48):
        g = neumann_green(disk3, grid48, (10, 7))
        w = grid48.curved_weights(disk3)
        assert abs(np.dot(g.values.ravel(), w)) < 1e-12

    def test_symmetry(self, disk3, grid48):
        qa, qb = (10, 7), (30, 29)
        ga = neumann_green(disk3, grid48, qa)
        gb = neumann_green(disk3, grid48, qb)
        assert abs(ga.values[qb] - gb.values[qa]) < 1e-10

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(nodes=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), min_size=2, max_size=2, unique=True),
           curved=st.booleans())
    def test_symmetry_for_random_source_pairs(self, nodes, curved):
        disk = ConformalDisk.from_samples(3.0, (0.0, 1.5, 3.0), (1.0, 1.4, 0.7)) if curved else ConformalDisk.flat(3.0)
        grid = build_grid(disk, 24, 24)
        qa, qb = nodes
        ga = neumann_green(disk, grid, qa)
        gb = neumann_green(disk, grid, qb)
        assert abs(ga.values[qb] - gb.values[qa]) <= 1e-12

    def test_log_slope_near_source(self, disk3):
        grid = build_grid(disk3, 96, 96)
        g = neumann_green(disk3, grid, (0, 0))
        idx = np.arange(4, 9)  # geodesic distance in [4 dr, 8 dr] along the ray
        slope = np.polyfit(np.log(idx * grid.dr), g.values[idx, 0], 1)[0]
        assert abs(slope) == pytest.approx(1.0 / (2.0 * math.pi), rel=0.05)

    def test_solves_weighted_system(self, disk3, grid48):
        q = (5, 11)
        g = neumann_green(disk3, grid48, q)
        lap = assemble_neumann_laplacian(grid48, disk3)
        w_g = grid48.curved_weights(disk3)
        rhs = w_g / w_g.sum()
        rhs[q[0] * grid48.ntheta + q[1]] -= 1.0
        defect = lap.apply(g.values) - rhs
        assert np.max(np.abs(defect)) < 1e-10

    def test_source_index_validated(self, disk3, grid48):
        with pytest.raises(ValueError):
            neumann_green(disk3, grid48, (48, 0))

    @pytest.mark.parametrize("q", [(1.0, 2), (1, 2.0), (True, 2)])
    def test_source_index_must_be_integers(self, disk3, grid48, q):
        with pytest.raises(ValueError, match="must be a pair of integers"):
            neumann_green(disk3, grid48, q)

    def test_symmetry_on_curved_disk(self):
        r = np.linspace(0.0, 3.0, 31)
        disk = ConformalDisk.from_samples(3.0, r, 1.0 + 0.2 * r)
        grid = build_grid(disk, 32, 32)
        ga = neumann_green(disk, grid, (5, 3))
        gb = neumann_green(disk, grid, (20, 17))
        assert abs(ga.values[20, 17] - gb.values[5, 3]) < 1e-10


def closed_form_deviation(disk, nr, q):
    """Largest gap between ``neumann_green`` and the flat disk's closed form.

    ``G = -(log|z - q| + log|R^2 - z conj(q)|) / (2 pi) + |z|^2 / (4 pi R^2)``
    solves ``-lap G = delta_q - 1/A`` with zero outer flux.  The two are
    matched up to a constant (their volume-weighted mean gap) on the nodes at
    least 0.5 from the source.
    """
    grid = build_grid(disk, nr, nr)
    green = neumann_green(disk, grid, q).values
    z = grid.nodes_complex
    zq = z[q]
    far = np.abs(z - zq) >= 0.5
    z = z[far]
    radius = disk.radius
    closed = (
        -(np.log(np.abs(z - zq)) + np.log(np.abs(radius**2 - z * np.conj(zq)))) / (2.0 * math.pi)
        + np.abs(z) ** 2 / (4.0 * math.pi * radius**2)
    )
    gap = green[far] - closed
    gap -= np.average(gap, weights=grid.flat_weights().reshape(grid.shape)[far])
    return float(np.max(np.abs(gap)))


class TestClosedFormGreen:
    @pytest.mark.parametrize(
        "where, bound", [((0.3, 0.1), 4.5e-4), ((0.7, 0.6), 2.8e-3)], ids=["inner", "outer"]
    )
    def test_second_order_on_flat_disk(self, disk3, where, bound):
        # Measured: 1.65e-3, 3.98e-4, 1.05e-4 (inner) and 1.01e-2, 2.52e-3,
        # 5.41e-4 (outer) at 48, 96 and 192 nodes a side.
        errors = [
            closed_form_deviation(disk3, nr, (int(where[0] * nr), int(where[1] * nr)))
            for nr in (48, 96, 192)
        ]
        assert errors[1] <= bound
        assert errors[0] >= 3.5 * errors[1]
        assert errors[1] >= 3.5 * errors[2]


class TestBoundaryGreen:
    def test_mean_zero_and_system(self, disk3, grid48):
        h = boundary_neumann_green(disk3, grid48, 0.0)
        w_g = grid48.curved_weights(disk3)
        assert abs(np.dot(h.values.ravel(), w_g)) < 1e-12
        lap = assemble_neumann_laplacian(grid48, disk3)
        # weighted system: A H + (unit flux at the source face) = w_g / A
        rhs = w_g / w_g.sum()
        rhs[(grid48.nr - 1) * grid48.ntheta] -= 1.0
        defect = lap.apply(h.values) - rhs
        assert np.max(np.abs(defect)) < 1e-10

    def test_angle_must_sit_on_a_node(self, disk3, grid48):
        with pytest.raises(ValueError):
            boundary_neumann_green(disk3, grid48, 0.5 * grid48.dtheta)
        # Node 0 is measured on the circle: from below 2*pi as well as from above 0.
        node0 = boundary_neumann_green(disk3, grid48, 0.0).values
        for theta in (-1e-13, 2.0 * math.pi - 1e-12, 2.0 * math.pi):
            assert np.array_equal(boundary_neumann_green(disk3, grid48, theta).values, node0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_angle_must_be_finite(self, disk3, grid48, theta):
        with pytest.raises(ValueError, match=f"theta_q must be finite, got {theta}"):
            boundary_neumann_green(disk3, grid48, theta)

    def test_log_slope_near_boundary_source(self, disk3):
        grid = build_grid(disk3, 64, 402)
        h = boundary_neumann_green(disk3, grid, 0.0)
        spacing = max(grid.dr, disk3.radius * grid.dtheta)
        depth = disk3.radius - grid.r
        sel = np.where((depth >= 4.0 * spacing) & (depth <= 8.0 * spacing))[0]
        slope = np.polyfit(np.log(depth[sel]), h.values[sel, 0], 1)[0]
        assert abs(slope) == pytest.approx(1.0 / math.pi, rel=0.10)


def _pinned_lu_green(disk, grid, source):
    """Oracle: node 0 pinned, ``A[1:, 1:]`` factored by SuperLU, zero curved mean."""
    lap = assemble_neumann_laplacian(grid, disk)
    w_g = grid.curved_weights(disk)
    rhs = w_g / w_g.sum()
    rhs[source] -= 1.0
    x = np.zeros(grid.size)
    x[1:] = spla.splu(band_laplacian(lap)[1:, 1:].tocsc()).solve(rhs[1:])
    x -= np.dot(x, w_g) / w_g.sum()
    return x.reshape(grid.shape)


class TestAgainstPinnedLU:
    @pytest.fixture(
        scope="class",
        params=["flat", "table"],
    )
    def disk(self, request):
        if request.param == "flat":
            return ConformalDisk.flat(3.0)
        r = np.linspace(0.0, 3.0, 5)
        return ConformalDisk.from_samples(3.0, r, [1.0, 1.3, 0.8, 1.1, 1.5])

    @pytest.mark.parametrize("shape", [(48, 48), (40, 37)])
    @pytest.mark.parametrize("where", ["interior", "pole-ring", "boundary"])
    def test_matches_oracle(self, disk, shape, where):
        grid = build_grid(disk, *shape)
        nr, nt = shape
        if where == "boundary":
            j = 5
            green = boundary_neumann_green(disk, grid, j * grid.dtheta)
            source = (nr - 1) * nt + j
        else:
            q = (nr // 3, 11) if where == "interior" else (0, 3)
            green = neumann_green(disk, grid, q)
            source = q[0] * nt + q[1]
        assert np.max(np.abs(green.values - _pinned_lu_green(disk, grid, source))) <= 1e-12


def test_green_function_independent_of_blas_threads(run_python):
    # 65,536 nodes: long enough that a threaded BLAS reduction would split it.
    code = (
        "import hashlib\n"
        "from nvortex import ConformalDisk, build_grid, neumann_green\n"
        "disk = ConformalDisk.flat(3.0)\n"
        "g = neumann_green(disk, build_grid(disk, 256, 256), (100, 37))\n"
        "print(hashlib.sha256(g.values.tobytes()).hexdigest())\n"
    )
    one, two = (run_python("-c", code, threads=n).stdout for n in (1, 2))
    assert one == two
