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
    EPS_FRACTION,
    ConditioningError,
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


@pytest.fixture(scope="module")
def radial_r12():
    disk12 = ConformalDisk.flat(12.0)
    return disk12, shoot(disk12, n=1, steps=20_000)


@pytest.fixture(scope="module")
def radial_table():
    """A table-Omega disk, Omega increasing in [1, 1.5] on r = 0, 0.75, .., 3."""
    disk = ConformalDisk.from_samples(3.0, [0.0, 0.75, 1.5, 2.25, 3.0], [1.0, 1.1, 1.2, 1.35, 1.5])
    return disk, shoot(disk, n=1, steps=10_000)


def coefficient(disk, radial):
    """``f = Omega r^2 exp(htilde)``, as ``solve_linearized`` builds it."""
    return lambda r: disk.omega_at(r) * r**2 * np.exp(radial.htilde_at(r))


def two_pass_bvp(f_of_r, radius, steps):
    """Oracle: the superposition of two pure-Python RK4 passes.

    This is how ``solve_linear_bvp`` integrated before its steps became one
    composed affine propagator: the same half-nodes, seeds and step
    arithmetic, one sequential pass each for the regular homogeneous and the
    particular solution.  Returns ``(a, boundary_value, terms)``, ``terms``
    the larger sup norm of the two superposed solutions.
    """
    eps = EPS_FRACTION * radius
    t0 = math.log(eps)
    dt = (math.log(radius) - t0) / steps
    r_half = np.exp(t0 + 0.5 * dt * np.arange(2 * steps + 1))
    f_half = np.asarray(f_of_r(r_half), dtype=float)
    p_half = (1.0 + r_half**2 * f_half).tolist()
    s_half = (-2.0 * r_half * f_half).tolist()

    def rk4(rhs, y0, y1):
        ys0 = np.full(steps + 1, y0)
        half, sixth = 0.5 * dt, dt / 6.0
        for k in range(steps):
            j = 2 * k
            k1a, k1b = rhs(j, y0, y1)
            k2a, k2b = rhs(j + 1, y0 + half * k1a, y1 + half * k1b)
            k3a, k3b = rhs(j + 1, y0 + half * k2a, y1 + half * k2b)
            k4a, k4b = rhs(j + 2, y0 + dt * k3a, y1 + dt * k3b)
            y0 += sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
            y1 += sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
            ys0[k + 1] = y0
        return ys0, y1

    a_reg, q1 = rk4(lambda j, a, q: (q, p_half[j] * a), eps, eps)
    a_par, q2 = rk4(lambda j, a, q: (q, p_half[j] * a + s_half[j]), 0.0, 0.0)
    coeff = (-2.0 / radius - q2) / q1
    a = a_par + coeff * a_reg
    terms = max(np.max(np.abs(a_par)), np.max(np.abs(coeff * a_reg)))
    return a, float(a[-1]) - 2.0 / radius, terms


ORACLE_STEPS = [1, 3, 1_000, 99_991]  # 99,991 is prime: a ragged last block


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

    def test_vortex_decouples_on_large_disk(self, lin_r3, radial_r12):
        lin12 = solve_linearized(*radial_r12)
        assert abs(lin12.boundary_value) < abs(lin_r3.boundary_value)

    @pytest.mark.parametrize("steps", ORACLE_STEPS)
    @pytest.mark.parametrize("case", ["flat", "table"])
    def test_matches_two_pass_oracle(self, disk3, radial_r3, radial_table, case, steps):
        disk, radial = (disk3, radial_r3) if case == "flat" else radial_table
        lin = solve_linearized(disk, radial, steps=steps)
        a, boundary_value, _ = two_pass_bvp(coefficient(disk, radial), disk.radius, steps)
        assert np.max(np.abs(lin.a - a)) <= 1e-13 * max(1.0, np.max(np.abs(a)))
        assert abs(lin.boundary_value - boundary_value) <= 1e-13

    @pytest.mark.parametrize("steps", ORACLE_STEPS)
    def test_matches_two_pass_oracle_on_large_disk(self, radial_r12, steps):
        # On R = 12 both solutions grow like exp(r): from 1,000 steps on, the
        # superposition cancels terms of size 1.1e4 down to |a| <= 0.57, so
        # rounding in the oracle itself reaches 2.6e-11 (against the same
        # RK4 steps in 80-bit arithmetic; the propagator is off by 3.0e-12).
        # Agreement is asked relative to the size of the superposed terms.
        disk, radial = radial_r12
        lin = solve_linearized(disk, radial, steps=steps)
        a, boundary_value, terms = two_pass_bvp(coefficient(disk, radial), disk.radius, steps)
        tol = 1e-13 * max(1.0, np.max(np.abs(a)), terms)
        assert np.max(np.abs(lin.a - a)) <= tol
        assert abs(lin.boundary_value - boundary_value) <= tol

    def test_coefficient_of_wrong_shape_named(self):
        message = r"broadcastable to the half-node radii, shape \(4001,\); got shape \(5,\)"
        with pytest.raises(ValueError, match=message):
            solve_linear_bvp(lambda r: np.ones(5), 3.0, steps=2_000)

    def test_scalar_coefficient_broadcasts(self):
        lin = solve_linear_bvp(lambda r: 0.0, 3.0, steps=2_000)
        assert np.max(np.abs(lin.a + 2.0 * lin.r / 9.0)) < 1e-8

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_named(self, bad):
        with pytest.raises(ValueError, match="coefficient f is not finite at 4001 of 4001"):
            solve_linear_bvp(lambda r: np.full_like(r, bad), 3.0, steps=2_000)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_conditioning_error(self):
        with pytest.raises(ConditioningError, match="overflowed before the boundary"):
            solve_linear_bvp(lambda r: np.full_like(r, 1e200), 3.0, steps=2_000)


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
