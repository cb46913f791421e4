import math

import numpy as np
import pytest

from nvortex import (
    ConformalDisk,
    boundary_metric_term,
    build_grid,
    metric_coefficient,
    shoot,
    solve_linear_bvp,
    solve_linearized,
)
from nvortex.moduli import (
    _fit_b,
    boundary_ring_position_derivatives,
    ring_metric_integral,
)
from nvortex.solver2d import solve_taubes_2d
from nvortex.geometry import VortexConfiguration

#: d_X h(R; 0) on the radius-3 flat disk, regression-locked after the
#: loop-integral cross-check against the 2d solver.
BOUNDARY_VALUE_R3 = -0.3720465637437932


@pytest.fixture(scope="module")
def lin_r3(disk3, radial_r3):
    return solve_linearized(disk3, radial_r3)


class TestLinearizedSolve:
    def test_vacuum_closed_form(self):
        lin = solve_linear_bvp(lambda r: np.zeros_like(r), 3.0)
        assert np.max(np.abs(lin.a + 2.0 * lin.r / 9.0)) < 1e-8
        assert lin.boundary_value == pytest.approx(-4.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize("steps", [0, -5])
    def test_step_count_validated(self, steps):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            solve_linear_bvp(lambda r: np.zeros_like(r), 3.0, steps=steps)

    def test_regular_at_origin(self, lin_r3):
        assert abs(lin_r3.a[0]) < 1e-4

    def test_outer_neumann_condition_met(self, lin_r3):
        assert lin_r3.bc_defect < 1e-12

    def test_boundary_value_regression(self, lin_r3):
        assert lin_r3.boundary_value == pytest.approx(BOUNDARY_VALUE_R3, abs=1e-8)
        assert abs(lin_r3.boundary_value) > 1e-2  # nonlocality witness

    def test_requires_converged_unit_vortex(self, disk3, radial_r3):
        double = shoot(disk3, n=2, steps=20_000)
        with pytest.raises(ValueError):
            solve_linearized(disk3, double)

    def test_vortex_decouples_on_large_disk(self, disk3, lin_r3):
        disk12 = ConformalDisk.flat(12.0)
        profile12 = shoot(disk12, n=1, steps=20_000)
        lin12 = solve_linearized(disk12, profile12)
        assert abs(lin12.boundary_value) < abs(lin_r3.boundary_value)


class TestBoundaryTerm:
    def test_values(self, lin_r3):
        assert boundary_metric_term(lin_r3) == pytest.approx(
            0.5 * math.pi * lin_r3.boundary_value**2
        )
        assert boundary_metric_term(lin_r3) > 0.0

    def test_loop_integral_matches_closed_form(self, disk3, lin_r3):
        grid = build_grid(disk3, 96, 96)
        rho, _, dxh, dyh = boundary_ring_position_derivatives(
            disk3, grid, delta=disk3.radius / 100.0
        )
        direct = ring_metric_integral(dxh, dyh)
        closed = math.pi * (lin_r3.a_at(rho) - 2.0 / rho) ** 2
        assert direct == pytest.approx(closed, rel=0.05)


class TestCoreCoefficient:
    def test_vanishes_at_origin(self, disk3):
        grid = build_grid(disk3, 96, 96)
        field, _ = solve_taubes_2d(disk3, VortexConfiguration.centered(1), grid)
        assert abs(_fit_b(field, 0j)) < 1e-6

    def test_real_offset_gives_real_coefficient(self, disk3):
        grid = build_grid(disk3, 96, 96)
        z = 0.3 + 0j
        field, _ = solve_taubes_2d(disk3, VortexConfiguration(interior=((z, 1),)), grid)
        b = _fit_b(field, z)
        assert abs(b.imag) <= 1e-3 * abs(b)

    def test_reflection_conjugates(self, disk3):
        grid = build_grid(disk3, 96, 96)
        z = 0.4 + 0.3j
        f1, _ = solve_taubes_2d(disk3, VortexConfiguration(interior=((z, 1),)), grid)
        f2, _ = solve_taubes_2d(
            disk3, VortexConfiguration(interior=((z.conjugate(), 1),)), grid
        )
        b1 = _fit_b(f1, z)
        b2 = _fit_b(f2, z.conjugate())
        assert abs(b2 - b1.conjugate()) < 1e-8

    def test_offset_stencil_validated(self, disk3, monkeypatch):
        grid = build_grid(disk3, 32, 32)
        for delta in (0.0, -0.1, disk3.radius, 5.0):
            with pytest.raises(ValueError):
                boundary_ring_position_derivatives(disk3, grid, delta=delta)

        def no_shoot(*args, **kwargs):
            raise AssertionError("the stencil must be checked before the shoot")

        monkeypatch.setattr("nvortex.moduli.shoot", no_shoot)
        for delta in (0.0, -0.1, disk3.radius, 5.0):
            with pytest.raises(ValueError):
                metric_coefficient(disk3, grid, delta=delta)


class TestMetricReport:
    def test_assembly_and_flags(self, disk3):
        grid = build_grid(disk3, 96, 96)
        report = metric_coefficient(disk3, grid, radial_steps=20_000)
        assert report.nonlocal_boundary_term
        assert report.boundary_term > 0.0
        expected_local = math.pi * (1.0 + 2.0 * report.db_dZ.real)
        assert report.local_term == pytest.approx(expected_local)
        assert report.total_coefficient == pytest.approx(
            report.boundary_term + report.local_term
        )
        assert abs(report.samols_b) < 1e-6
        assert abs(report.db_dZ.imag) < 1e-3  # real for the symmetric disk
        # the Richardson pair exposes the differencing error, which is small
        assert abs(report.db_dZ - report.db_dZ_coarse) < 5e-3
        doc = report.to_dict()
        assert doc["schema_version"] == 1
        assert doc["total_coefficient"] == report.total_coefficient
