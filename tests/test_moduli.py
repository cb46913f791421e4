import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvortex import (
    ConformalDisk,
    boundary_metric_term,
    build_grid,
    metric_coefficient,
    shoot,
    solve_linear_bvp,
    solve_linearized,
)
from nvortex import moduli, solver2d
from nvortex.moduli import (
    DEFAULT_LIN_STEPS,
    EPS_FRACTION,
    ConditioningError,
    _fit_b,
    _position_tangents,
    boundary_ring_position_derivatives,
    ring_metric_integral,
)
from nvortex.solver2d import solve_taubes_2d
from nvortex.geometry import VortexConfiguration
from radial_oracle import aligned_nodes, integrate_radial, single_stage_h0

#: d_X h(R; 0) on the radius-3 flat disk, regression-locked after the
#: loop-integral cross-check against the 2d solver.
BOUNDARY_VALUE_R3 = -0.3720465637437932


@pytest.fixture(scope="module")
def lin_r3(disk3, radial_r3):
    return solve_linearized(disk3, radial_r3)


def centred_solve(disk, nr, **kwargs):
    """``(field, report)`` of the centred unit vortex on ``nr x nr``."""
    return solve_taubes_2d(disk, VortexConfiguration.centered(1), build_grid(disk, nr, nr), **kwargs)


@pytest.fixture(scope="module")
def centred64(disk3):
    return centred_solve(disk3, 64)


@pytest.fixture(scope="module")
def radial_r12():
    disk12 = ConformalDisk.flat(12.0)
    return disk12, shoot(disk12, n=1, steps=20_000)


@pytest.fixture(scope="module", params=[(20.0, 40_000), (25.0, 50_000)], ids=["R20", "R25"])
def radial_large(request):
    radius, steps = request.param
    disk = ConformalDisk.flat(radius)
    radial = shoot(disk, n=1, steps=steps)
    assert radial.converged
    return disk, radial


@pytest.fixture(scope="module")
def radial_table():
    """A table-Omega disk, Omega increasing in [1, 1.5] on r = 0, 0.75, .., 3."""
    disk = ConformalDisk.from_samples(3.0, [0.0, 0.75, 1.5, 2.25, 3.0], [1.0, 1.1, 1.2, 1.35, 1.5])
    return disk, shoot(disk, n=1, steps=10_000)


@pytest.fixture(scope="module")
def metric_r3(disk3):
    return metric_coefficient(disk3, radial_steps=20_000)


def coefficient(disk, radial):
    """``f = Omega r^2 exp(htilde)``, as ``solve_linearized`` builds it."""
    return lambda r: disk.omega_at(r) * r**2 * np.exp(radial.htilde_at(r))


def two_pass_bvp(f_of_r, radius, steps, breakpoints=()):
    """Oracle: the superposition of two pure-Python RK4 passes.

    This is how ``solve_linear_bvp`` integrated before it became a
    multiple-shooting sweep: the same half-nodes (a node on each of
    ``breakpoints``, by ``aligned_nodes`` in ``t = log r``), seeds and step
    arithmetic, one sequential pass each for the regular homogeneous and the
    particular solution.  Returns ``(a, boundary_value, terms)``, ``terms``
    the larger sup norm of the two superposed solutions.
    """
    eps = EPS_FRACTION * radius
    t_half, dts = aligned_nodes(
        math.log(eps), math.log(radius), steps, [math.log(b) for b in breakpoints]
    )
    r_half, dts = np.exp(t_half), dts.tolist()
    f_half = np.asarray(f_of_r(r_half), dtype=float)
    p_half = (1.0 + r_half**2 * f_half).tolist()
    s_half = (-2.0 * r_half * f_half).tolist()

    def rk4(rhs, y0, y1):
        ys0 = np.full(steps + 1, y0)
        for k in range(steps):
            j = 2 * k
            dt = dts[k]
            half, sixth = 0.5 * dt, dt / 6.0
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


def offset_fields(disk, grid, delta):
    """Field solves with the vortex at ``+delta``, ``-delta``, ``+i delta``, ``-i delta``.

    The stencil of the finite-difference oracles below: central differences
    over these four solves are how position derivatives were formed before
    the radial linearized solve and the tangent-linear solve replaced them.
    Returns ``[(Z, htilde), ...]`` in that order.
    """
    fields = []
    for z in (complex(delta), complex(-delta), complex(0.0, delta), complex(0.0, -delta)):
        field, report = solve_taubes_2d(disk, VortexConfiguration(interior=((z, 1),)), grid)
        assert report.converged
        fields.append((z, field))
    return fields


def finite_difference_db_dz(disk, nr):
    """Oracle: ``db/dZ`` at the origin from 2-D field solves.

    This is how ``metric_coefficient`` formed it before reading ``a'(0)`` off
    the radial solve: the core coefficient ``b`` fitted at each offset field
    (``delta = R/100``) and central differences ``db/dZ = (d_X b - i d_Y b) / 2``.
    """
    delta = disk.radius / 100.0
    fits = [_fit_b(field, z) for z, field in offset_fields(disk, build_grid(disk, nr, nr), delta)]
    d_x = (fits[0] - fits[1]) / (2.0 * delta)
    d_y = (fits[2] - fits[3]) / (2.0 * delta)
    return 0.5 * (d_x - 1j * d_y)


def finite_difference_ring(disk, grid, delta):
    """Oracle: ``(d_X htilde, d_Y htilde)`` on the outer ring by central differences.

    This is how ``boundary_ring_position_derivatives`` formed them before the
    tangent-linear solve.
    """
    ring = [field.values[-1] for _, field in offset_fields(disk, grid, delta)]
    return (ring[0] - ring[1]) / (2.0 * delta), (ring[2] - ring[3]) / (2.0 * delta)


class TestLinearizedSolve:
    def test_vacuum_closed_form(self):
        lin = solve_linear_bvp(lambda r: np.zeros_like(r), 3.0)
        assert np.max(np.abs(lin.a + 2.0 * lin.r / 9.0)) < 1e-8
        assert lin.boundary_value == pytest.approx(-4.0 / 3.0, abs=1e-10)
        assert lin.slope0 == pytest.approx(-2.0 / 9.0, abs=1e-10)

    @pytest.mark.parametrize("steps", [0, -5])
    def test_step_count_validated(self, steps):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            solve_linear_bvp(lambda r: np.zeros_like(r), 3.0, steps=steps)

    @pytest.mark.parametrize("radius", [0.0, -3.0, math.inf, math.nan])
    def test_radius_validated(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            solve_linear_bvp(lambda r: np.zeros_like(r), radius)

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

    @pytest.mark.parametrize("steps", ORACLE_STEPS + [DEFAULT_LIN_STEPS, 100_000])
    @pytest.mark.parametrize("case", ["flat", "table"])
    def test_matches_two_pass_oracle(self, disk3, radial_r3, radial_table, case, steps):
        disk, radial = (disk3, radial_r3) if case == "flat" else radial_table
        lin = solve_linearized(disk, radial, steps=steps)
        a, boundary_value, _ = two_pass_bvp(coefficient(disk, radial), disk.radius, steps, disk.breakpoints)
        assert np.max(np.abs(lin.a - a)) <= 1e-13 * max(1.0, np.max(np.abs(a)))
        assert abs(lin.boundary_value - boundary_value) <= 1e-13
        # The oracle seeds the regular branch as a = coefficient * r.
        assert abs(lin.slope0 - a[0] / (EPS_FRACTION * disk.radius)) <= 1e-12

    @pytest.mark.parametrize("steps", ORACLE_STEPS)
    def test_matches_two_pass_oracle_on_large_disk(self, radial_r12, steps):
        # On R = 12 both solutions grow like exp(r): from 1,000 steps on, the
        # superposition cancels terms of size 1.1e4 down to |a| <= 0.57, so
        # rounding in the oracle itself reaches 2.6e-11 (against the same
        # RK4 steps in 80-bit arithmetic; the sweep is off by 8.4e-15 at
        # 99,991 steps).
        # Agreement is asked relative to the size of the superposed terms.
        disk, radial = radial_r12
        lin = solve_linearized(disk, radial, steps=steps)
        a, boundary_value, terms = two_pass_bvp(coefficient(disk, radial), disk.radius, steps)
        tol = 1e-13 * max(1.0, np.max(np.abs(a)), terms)
        assert np.max(np.abs(lin.a - a)) <= tol
        assert abs(lin.boundary_value - boundary_value) <= tol

    def test_boundary_value_converges_on_large_disk(self, radial_large):
        # A superposition of two solutions growing like exp(r) loses
        # boundary_value (about -4.1e-9 at R = 20, -2.5e-11 at R = 25) to
        # rounding; the banded block solve keeps it.
        coarse, fine = (solve_linearized(*radial_large, steps=steps) for steps in (100_000, 400_000))
        assert fine.boundary_value == pytest.approx(coarse.boundary_value, rel=1e-3)
        assert fine.bc_defect < 1e-12

    def test_slope_tends_to_plane_value(self):
        # a'(0) -> 1/2 on the plane, so the local term tends to pi.
        disk = ConformalDisk.flat(25.0)
        lin = solve_linearized(disk, shoot(disk, n=1, steps=50_000))
        assert lin.slope0 == pytest.approx(0.5, abs=1e-8)

    def test_singular_band_is_conditioning_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr("nvortex.moduli._solve_joints", singular)
        with pytest.raises(ConditioningError, match="singular"):
            solve_linear_bvp(lambda r: np.zeros_like(r), 3.0, steps=2_000)

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

    def test_overflow_is_conditioning_error(self):
        with pytest.raises(ConditioningError, match="overflowed before the boundary"):
            solve_linear_bvp(lambda r: np.full_like(r, 1e200), 3.0, steps=2_000)


#: Disks of the order study: flat, a smooth conformal factor, and the table
#: of the benchmark's ``metric`` workload (kinks at r = 0.75, 1.5, 2.25).
ORDER_DISKS = {
    "flat": lambda: ConformalDisk.flat(3.0),
    "smooth": lambda: ConformalDisk(3.0, omega=lambda r: 1.0 + 0.1 * np.asarray(r) ** 2),
    "table": lambda: ConformalDisk.from_samples(
        3.0, (0.0, 0.75, 1.5, 2.25, 3.0), (1.0, 1.1, 1.25, 1.35, 1.5)
    ),
}
REFINEMENT_STEPS = (1_000, 2_000, 4_000)


def observed_order(values):
    """Order of convergence from values at three step counts, each twice the last."""
    d1, d2 = np.diff(values)
    return math.log2(abs(d1 / d2))


@pytest.fixture(scope="module", params=list(ORDER_DISKS))
def refinement(request):
    """``(name, values)``: ``h0``, ``slope0``, ``boundary_value`` at 1k, 2k and 4k steps of both solves."""
    disk = ORDER_DISKS[request.param]()
    values = []
    for steps in REFINEMENT_STEPS:
        radial = shoot(disk, n=1, steps=steps)
        lin = solve_linearized(disk, radial, steps=steps)
        values.append((radial.h0, lin.slope0, lin.boundary_value))
    return request.param, np.array(values)


class TestFourthOrder:
    @pytest.mark.parametrize("column, quantity", enumerate(["h0", "slope0", "boundary_value"]))
    def test_observed_order(self, refinement, column, quantity):
        # Measured: 3.86-4.00 on the flat and smooth disks, and 3.98 for
        # slope0 and boundary_value on the table.  The table's h0 converges
        # at third order (2.98, the same with and without aligned kinks):
        # its Omega'(0) is not zero, so htilde has an r^3 term, and the RK4
        # stages lose an order against the htilde'/r coefficient at the
        # centre.  Kinks with Omega flat at the centre keep fourth order
        # (the next test).
        name, values = refinement
        order = observed_order(values[:, column])
        expected = 2.8 if (name, quantity) == ("table", "h0") else 3.5
        assert order >= expected, f"{name} {quantity}: observed order {order:.2f}"

    def test_kinks_off_the_uniform_mesh_keep_h0_fourth_order(self):
        # Kinks at 0.7, 1.3 and 2.2 fall inside uniform steps; Omega is flat
        # at the centre.  Measured 3.85.
        disk = ConformalDisk.from_samples(3.0, (0.0, 0.7, 1.3, 2.2, 3.0), (1.1, 1.1, 1.25, 1.35, 1.5))
        order = observed_order([shoot(disk, n=1, steps=s).h0 for s in REFINEMENT_STEPS])
        assert order >= 3.5

    def test_linearized_interpolation_is_fourth_order(self, disk3, radial_r3):
        # a_at between the nodes of a 2k-step solve against the nodes of a
        # 4k-step one: the Hermite interpolant is as accurate as the steps.
        coarse, fine = (solve_linearized(disk3, radial_r3, steps=s) for s in (2_000, 4_000))
        assert np.max(np.abs(coarse.a_at(fine.r) - fine.a)) <= 1e-9
        assert np.max(np.abs(np.interp(fine.r, coarse.r, coarse.a) - fine.a)) >= 1e-7


@st.composite
def table_disks(draw):
    """A disk with Omega increasing in [1, 1.5] on knots at 0, three random radii and R."""
    radius = draw(st.floats(2.5, 6.0))
    inner = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3, unique=True)))
    knots = [0.0] + [radius * x for x in inner] + [radius]
    values = sorted(draw(st.lists(st.floats(1.0, 1.5), min_size=5, max_size=5)))
    steps = draw(st.integers(2_000, 5_000))
    return ConformalDisk.from_samples(radius, knots, values), steps


class TestAlignedStepsAgainstOracle:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(table_disks())
    def test_hermite_hand_off_and_aligned_steps(self, problem):
        disk, steps = problem
        profile = shoot(disk, n=1, steps=steps)
        assert profile.converged
        assert profile.h0 == pytest.approx(single_stage_h0(disk, 1, steps), abs=1e-12)
        # The hand-off between the nodes against the oracle's march at twice
        # the steps from the same core value: measured 1.4e-11 to 1.2e-10,
        # against 7e-8 to 3e-7 for linear interpolation.
        fine = integrate_radial(profile.h0, disk, 1, steps=2 * steps)
        assert np.max(np.abs(profile.htilde_at(fine.r) - fine.htilde)) <= 5e-10
        # The linearised solve on the same aligned steps as the two-pass oracle.
        lin = solve_linearized(disk, profile, steps=steps)
        a, boundary_value, _ = two_pass_bvp(coefficient(disk, profile), disk.radius, steps, disk.breakpoints)
        assert np.max(np.abs(lin.a - a)) <= 1e-13 * max(1.0, np.max(np.abs(a)))
        assert abs(lin.boundary_value - boundary_value) <= 1e-13
        assert abs(lin.slope0 - a[0] / (EPS_FRACTION * disk.radius)) <= 1e-12


class TestBoundaryTerm:
    def test_values(self, lin_r3):
        assert boundary_metric_term(lin_r3) == pytest.approx(
            0.5 * math.pi * lin_r3.boundary_value**2
        )
        assert boundary_metric_term(lin_r3) > 0.0

    def test_loop_integral_matches_closed_form(self, disk3, lin_r3):
        rho, _, dxh, dyh = boundary_ring_position_derivatives(*centred_solve(disk3, 96))
        direct = ring_metric_integral(dxh, dyh)
        closed = math.pi * (lin_r3.a_at(rho) - 2.0 / rho) ** 2
        assert direct == pytest.approx(closed, rel=0.05)


class TestPositionTangents:
    def test_matches_finite_difference_oracle(self, disk3, centred64):
        # The oracle's delta^2 error: measured 7.7e-5 at delta = R/100, then
        # 1.93e-5 at R/200.
        grid = centred64[0].grid
        rho, theta, dxh, dyh = boundary_ring_position_derivatives(*centred64)
        tangent = (dxh + 2.0 * np.cos(theta) / rho, dyh + 2.0 * np.sin(theta) / rho)
        gaps = []
        for delta in (disk3.radius / 100.0, disk3.radius / 200.0):
            oracle = finite_difference_ring(disk3, grid, delta)
            gaps.append(max(np.max(np.abs(t - o)) for t, o in zip(tangent, oracle)))
        assert gaps[0] <= 1e-4
        assert gaps[0] >= 3.5 * gaps[1]

    @pytest.mark.parametrize("case", ["flat", "table"])
    def test_whole_disk_matches_radial_factor(self, disk3, lin_r3, radial_table, case):
        # max |u_X - a(r) cos(theta)| is second order: measured 1.64e-4 then
        # 4.09e-5 (flat) and 1.90e-4 then 4.74e-5 (table) at 64 and 128.
        if case == "flat":
            disk, lin = disk3, lin_r3
        else:
            disk, lin = radial_table[0], solve_linearized(*radial_table)
        errors = []
        for nr in (64, 128):
            field, report = centred_solve(disk, nr)
            grid = field.grid
            u_x, _ = _position_tangents(field, report)
            errors.append(np.max(np.abs(u_x - lin.a_at(grid.r)[:, None] * np.cos(grid.theta))))
        assert errors[1] <= 6e-5
        assert errors[0] >= 3.5 * errors[1]

    def test_quarter_turn_equivariance(self, centred64):
        grid = centred64[0].grid
        u_x, u_y = _position_tangents(*centred64)
        assert np.max(np.abs(u_y - np.roll(u_x, grid.ntheta // 4, axis=1))) <= 1e-12

    def test_no_field_solve_and_one_iteration_each(self, centred64, monkeypatch):
        iterations = []
        real_spd = moduli._solve_spd

        def no_solve(*args, **kwargs):
            raise AssertionError("the position tangents must not solve the field")

        def counting_spd(*args):
            x, count = real_spd(*args)
            iterations.append(count)
            return x, count

        monkeypatch.setattr(solver2d, "_solve", no_solve)
        monkeypatch.setattr(moduli, "_solve_spd", counting_spd)
        _position_tangents(*centred64)
        assert iterations == [1, 1]

    def test_unconverged_field_solve_names_termination(self, disk3):
        field, report = centred_solve(disk3, 32, tol=0.0)
        with pytest.raises(ValueError, match=r"did not converge \(line_search\)"):
            _position_tangents(field, report)

    @pytest.mark.parametrize(
        "cfg",
        [
            VortexConfiguration(interior=((0.3 + 0j, 1),)),
            VortexConfiguration.centered(2),
            VortexConfiguration.boundary_point(0.0),
        ],
        ids=["off-centre", "N=2", "boundary"],
    )
    def test_other_configuration_rejected(self, disk3, cfg):
        field, report = solve_taubes_2d(disk3, cfg, build_grid(disk3, 32, 32))
        assert report.converged
        with pytest.raises(ValueError, match="one unit vortex at the origin"):
            _position_tangents(field, report)


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


class TestMetricReport:
    def test_assembly_and_flags(self, disk3, metric_r3):
        report = metric_r3
        assert report.nonlocal_boundary_term
        assert report.boundary_term > 0.0
        expected_local = math.pi * (1.0 + 2.0 * report.db_dZ.real)
        assert report.local_term == pytest.approx(expected_local)
        assert report.total_coefficient == pytest.approx(
            report.boundary_term + report.local_term
        )
        assert abs(report.db_dZ.imag) < 1e-3  # real for the symmetric disk
        slope0 = solve_linearized(disk3, shoot(disk3, n=1, steps=20_000)).slope0
        assert report.local_term == math.pi * (0.5 + slope0)
        assert report.db_dZ == complex(0.5 * slope0 - 0.25, 0.0)
        doc = report.to_dict()
        assert doc["schema_version"] == 1
        assert doc["total_coefficient"] == report.total_coefficient
        assert doc["delta"] == disk3.radius / 100.0
        # b(0) = 0 by symmetry and db/dZ has no coarse estimate of its own
        assert (doc["samols_b_re"], doc["samols_b_im"]) == (0.0, 0.0)
        assert (doc["db_dZ_coarse_re"], doc["db_dZ_coarse_im"]) == (doc["db_dZ_re"], doc["db_dZ_im"])

    def test_no_field_solve(self, disk3, metric_r3, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("metric_coefficient must not solve the 2-D field")

        monkeypatch.setattr(solver2d, "_solve", no_solve)
        assert metric_coefficient(disk3, radial_steps=20_000) == metric_r3

    def test_matches_finite_difference_oracle_on_flat_disk(self, disk3, metric_r3):
        assert abs(finite_difference_db_dz(disk3, 128) - metric_r3.db_dZ) < 1e-4

    def test_finite_difference_oracle_converges_on_table_disk(self, radial_table):
        # With Omega'(0) != 0 the 2-D differences converge at first order only.
        disk, _ = radial_table
        db = metric_coefficient(disk, radial_steps=10_000).db_dZ
        coarse, fine = (finite_difference_db_dz(disk, nr) - db for nr in (64, 128))
        assert abs(fine) <= 0.6 * abs(coarse)
        assert np.sign(fine.real) == np.sign(coarse.real)
