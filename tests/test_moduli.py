import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvortex import (
    ConformalDisk,
    build_grid,
    metric_coefficient,
    shoot,
    solve_linearized,
)
from nvortex import moduli, shooting, solver2d
from nvortex.moduli import (
    ConditioningError,
    _fit_b,
    _position_tangents,
    boundary_ring_position_derivatives,
    ring_metric_integral,
)
from nvortex.shooting import DEFAULT_STEPS, SEED_RADIUS
from nvortex.solver2d import solve_taubes_2d
from nvortex.geometry import VortexConfiguration
from radial_oracle import integrate_radial, single_stage_h0

#: d_X h(R; 0) on the radius-3 flat disk, regression-locked after the
#: loop-integral cross-check against the 2d solver.
BOUNDARY_VALUE_R3 = -0.3720465637437932


@pytest.fixture(scope="module")
def lin_r3(disk3, radial_r3):
    return solve_linearized(radial_r3)


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
    """``f = Omega r^2 exp(htilde)``, with ``htilde`` read off ``radial`` by its searched Hermite hand-off."""
    return lambda r: disk.omega_at(r) * r**2 * np.exp(radial.htilde_at(r))


def half_nodes(radius, steps, breakpoints=()):
    """The ``2 * steps + 1`` half-node radii of both radial solves."""
    return shooting._segments(shooting._mesh(radius, steps, breakpoints))[0]


def linear_bvp(f, radius, steps):
    """The linearised solve's one body on the unit-vortex shoot's nodes of a flat disk, ``f`` at its half-nodes."""
    return moduli._solve_on(f, radius, *shooting._segments(shooting._mesh(radius, steps)))


def two_pass_bvp(f_half, radius, steps, breakpoints=(), dtype=float):
    """Oracle: the superposition of two pure-Python RK4 passes.

    This is how the linearised solve integrated before it became a
    multiple-shooting sweep: the same half-nodes (``shooting._mesh`` from
    ``SEED_RADIUS``, a node on each of ``breakpoints``), coefficient
    values ``f_half``, seeds and step formula, one sequential pass each in
    ``r`` for the regular homogeneous and the particular solution of
    ``a'' = w a' + (w^2 + f) a + 2 w f``, ``w = -1/r``, in ``dtype`` arithmetic.
    Returns ``(a, boundary_value, terms)`` as doubles, ``terms`` the larger
    sup norm of the two superposed solutions.
    """
    num = dtype
    r_half, _, drs = shooting._segments(shooting._mesh(radius, steps, breakpoints))
    f_half = np.broadcast_to(np.asarray(f_half, dtype=float), r_half.shape).astype(num)
    r_half = r_half.astype(num)
    # Python floats step an order of magnitude faster than numpy scalars.
    cast = (lambda x: x.tolist()) if num is float else list
    drs = cast(drs.T.ravel()[:steps].astype(num))
    w = -1 / r_half
    p_half, s_half, w = cast(w * w + f_half), cast(2 * w * f_half), cast(w)

    def rk4(rhs, y0, y1):
        ys0 = [y0]
        for k in range(steps):
            j = 2 * k
            dr = drs[k]
            half, sixth = dr / 2, dr / 6
            k1a, k1b = rhs(j, y0, y1)
            k2a, k2b = rhs(j + 1, y0 + half * k1a, y1 + half * k1b)
            k3a, k3b = rhs(j + 1, y0 + half * k2a, y1 + half * k2b)
            k4a, k4b = rhs(j + 2, y0 + dr * k3a, y1 + dr * k3b)
            y0 += sixth * (k1a + 2 * (k2a + k3a) + k4a)
            y1 += sixth * (k1b + 2 * (k2b + k3b) + k4b)
            ys0.append(y0)
        return np.array(ys0, dtype=num), y1

    a_reg, q1 = rk4(lambda j, a, q: (q, w[j] * q + p_half[j] * a), num(SEED_RADIUS), num(1))
    a_par, q2 = rk4(lambda j, a, q: (q, w[j] * q + p_half[j] * a + s_half[j]), num(0), num(0))
    coeff = (-2 / num(radius) ** 2 - q2) / q1
    a = a_par + coeff * a_reg
    terms = max(np.max(np.abs(a_par)), np.max(np.abs(coeff * a_reg)))
    return a.astype(float), float(a[-1] - 2 / num(radius)), float(terms)


#: 3 steps cut into 3 one-step blocks, the smallest system tested; 99,991 is
#: prime: a ragged last block.
ORACLE_STEPS = [3, 1_000, 99_991]


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
        lin = linear_bvp(np.zeros(2 * DEFAULT_STEPS + 1), 3.0, DEFAULT_STEPS)
        assert np.max(np.abs(lin.a + 2.0 * lin.r / 9.0)) < 1e-8
        assert lin.boundary_value == pytest.approx(-4.0 / 3.0, abs=1e-10)
        assert lin.slope0 == pytest.approx(-2.0 / 9.0, abs=1e-10)

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
            solve_linearized(double)

    def test_reads_the_disk_it_was_shot_on(self):
        # A profile carries its disk, so no other disk can be paired with it.
        disk4 = ConformalDisk.flat(4.0)
        profile = shoot(disk4, n=1, steps=2_000)
        assert profile.disk is disk4
        lin = solve_linearized(profile)
        assert lin.r[-1] == 4.0
        assert lin.bc_defect < 1e-12  # a'(R) = -2/R^2 at R = 4

    def test_vortex_decouples_on_large_disk(self, lin_r3, radial_r12):
        lin12 = solve_linearized(radial_r12[1])
        assert abs(lin12.boundary_value) < abs(lin_r3.boundary_value)

    @pytest.mark.parametrize("steps", ORACLE_STEPS + [DEFAULT_STEPS, 100_000])
    @pytest.mark.parametrize("case", ["flat", "table"])
    def test_matches_two_pass_oracle(self, disk3, radial_r3, radial_table, case, steps):
        disk, radial = (disk3, radial_r3) if case == "flat" else radial_table
        r_half = half_nodes(disk.radius, steps, disk.breakpoints)
        if case == "flat":
            f = coefficient(disk, radial)(r_half)
            lin = linear_bvp(f, disk.radius, steps)
        else:
            # The table disk's nodes sit on its breakpoints, which only a
            # profile carries: the 20k-step profile, moved onto the nodes of
            # the ``steps``-step mesh, is what the linearised solve steps on.
            nodes = r_half[::2]
            moved = dataclasses.replace(radial, r=nodes, htilde=radial.htilde_at(nodes),
                                        dhtilde=np.interp(nodes, radial.r, radial.dhtilde))
            f = coefficient(disk, moved)(r_half)
            lin = solve_linearized(moved)
        a, boundary_value, _ = two_pass_bvp(f, disk.radius, steps, disk.breakpoints)
        assert np.max(np.abs(lin.a - a)) <= 1e-13 * max(1.0, np.max(np.abs(a)))
        assert abs(lin.boundary_value - boundary_value) <= 1e-13
        # The oracle seeds the regular branch as a = coefficient * r.
        assert abs(lin.slope0 - a[0] / SEED_RADIUS) <= 1e-12

    @pytest.mark.parametrize("steps", ORACLE_STEPS)
    def test_matches_two_pass_oracle_on_large_disk(self, radial_r12, steps):
        # On R = 12 both solutions grow like exp(r): from 1,000 steps on, the
        # superposition cancels terms of size 1.1e4 down to |a| <= 0.57, so
        # rounding in the oracle itself reaches 3.5e-11 (against the same
        # RK4 steps in 80-bit arithmetic; the sweep is off by 1.8e-14 at
        # 99,991 steps).
        # Agreement is asked relative to the size of the superposed terms.
        disk, radial = radial_r12
        f = coefficient(disk, radial)(half_nodes(disk.radius, steps))
        lin = linear_bvp(f, disk.radius, steps)
        a, boundary_value, terms = two_pass_bvp(f, disk.radius, steps)
        tol = 1e-13 * max(1.0, np.max(np.abs(a)), terms)
        assert np.max(np.abs(lin.a - a)) <= tol
        assert abs(lin.boundary_value - boundary_value) <= tol

    def test_bc_defect_measures_the_read_out(self, monkeypatch):
        # Not an identity of the solve: a last start off the solution shows in
        # the outer slope read off the nodes (2.8e-17 unperturbed, 1.0e-6 here).
        assert linear_bvp(1.0, 3.0, 2_000).bc_defect < 1e-12
        real = shooting._solve_joints

        def off_by_a_little(y, defect):
            parameter, starts = real(y, defect)
            starts[:, -1] += 1e-6
            return parameter, starts

        monkeypatch.setattr(shooting, "_solve_joints", off_by_a_little)
        assert linear_bvp(1.0, 3.0, 2_000).bc_defect > 1e-10

    def test_boundary_value_converges_on_large_disk(self, radial_large):
        # A superposition of two solutions growing like exp(r) loses
        # boundary_value (about -4.1e-9 at R = 20, -2.5e-11 at R = 25) to
        # rounding; the banded block solve keeps it.
        disk, radial = radial_large
        coarse = solve_linearized(shoot(disk, n=1, steps=radial.steps // 4))
        fine = solve_linearized(radial)
        assert fine.boundary_value == pytest.approx(coarse.boundary_value, rel=1e-3)
        assert fine.bc_defect < 1e-12

    def test_slope_tends_to_plane_value(self):
        # a'(0) -> 1/2 on the plane, so the local term tends to pi.  On a flat
        # disk a = -htilde' by translation invariance, so a'(0) is 1/2 up to
        # e^(-2R).  Measured 1.4e-13 at R = 25 and 6.3e-13 at R = 50; a seed
        # a = a'(0) r at 1e-6 R missed it by 1.1e-10 and 4.5e-10 at any step count.
        for radius in (25.0, 50.0):
            disk = ConformalDisk.flat(radius)
            lin = solve_linearized(shoot(disk, n=1))
            assert abs(lin.slope0 - 0.5) <= 1e-11, radius

    def test_singular_band_is_conditioning_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(shooting, "_solve_joints", singular)
        with pytest.raises(ConditioningError, match="singular"):
            linear_bvp(0.0, 3.0, 2_000)

    def test_scalar_coefficient_broadcasts(self):
        lin = linear_bvp(0.0, 3.0, 2_000)
        assert np.max(np.abs(lin.a + 2.0 * lin.r / 9.0)) < 1e-8

    def test_overflow_is_conditioning_error(self):
        with pytest.raises(ConditioningError, match="overflowed before the boundary"):
            linear_bvp(1e200, 3.0, 2_000)

    def test_steps_are_read_off_the_nodes(self):
        # A profile carries no step count of its own: moved onto other
        # nodes, it counts their steps, and the solve on it steps on them.
        profile = shoot(ConformalDisk.flat(3.0), 1, 2_000)
        nodes = shooting._mesh(3.0, 3_000)
        moved = dataclasses.replace(profile, r=nodes, htilde=profile.htilde_at(nodes),
                                    dhtilde=np.interp(nodes, profile.r, profile.dhtilde))
        lin = solve_linearized(moved)
        assert moved.steps == 3_000 and lin.a.size == nodes.size
        assert lin.r.tobytes() == nodes.tobytes()


#: Disks of the order study: flat, a smooth conformal factor, the table of
#: the benchmark's ``metric`` workload (kinks at r = 0.75, 1.5, 2.25) and a
#: linear one.  The last two have Omega'(0) != 0, so htilde has an r^3 term.
ORDER_DISKS = {
    "flat": lambda: ConformalDisk.flat(3.0),
    "smooth": lambda: ConformalDisk(3.0, omega=lambda r: 1.0 + 0.1 * np.asarray(r) ** 2),
    "table": lambda: ConformalDisk.from_samples(
        3.0, (0.0, 0.75, 1.5, 2.25, 3.0), (1.0, 1.1, 1.25, 1.35, 1.5)
    ),
    "linear": lambda: ConformalDisk(3.0, omega=lambda r: 1.0 + 0.5 * np.asarray(r)),
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
        lin = solve_linearized(radial)
        values.append((radial.h0, lin.slope0, lin.boundary_value))
    return request.param, np.array(values)


class TestFourthOrder:
    @pytest.mark.parametrize("column, quantity", enumerate(["h0", "slope0", "boundary_value"]))
    def test_observed_order(self, refinement, column, quantity):
        # Uniform steps from the centre gave h0 only third order (2.98) where
        # Omega'(0) != 0: RK4's stages lose an order against the htilde'/r
        # coefficient.  The mesh's quadratic centre, steps growing like
        # sqrt(r), keeps every case fourth order.
        name, values = refinement
        order = observed_order(values[:, column])
        assert order >= 3.5, f"{name} {quantity}: observed order {order:.2f}"

    def test_kinks_off_the_uniform_mesh_keep_h0_fourth_order(self):
        # Kinks at 0.7, 1.3 and 2.2 fall between the plain mesh's nodes; Omega is flat
        # at the centre.  Measured 3.99.
        disk = ConformalDisk.from_samples(3.0, (0.0, 0.7, 1.3, 2.2, 3.0), (1.1, 1.1, 1.25, 1.35, 1.5))
        order = observed_order([shoot(disk, n=1, steps=s).h0 for s in REFINEMENT_STEPS])
        assert order >= 3.5

    def test_linearized_interpolation_is_fourth_order(self, disk3, radial_r3):
        # a_at between the nodes of a 2k-step solve against the nodes of a
        # 4k-step one: the Hermite interpolant is as accurate as the steps.
        coarse, fine = (solve_linearized(shoot(disk3, n=1, steps=s)) for s in (2_000, 4_000))
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
        # the steps from the same core value: measured 2e-13 to 4e-12 on such
        # draws, against 2e-7 to 7e-7 for linear interpolation.
        fine = integrate_radial(profile.h0, disk, 1, steps=2 * steps)
        assert np.max(np.abs(profile.htilde_at(fine.r) - fine.htilde)) <= 5e-10
        # The linearised solve on the shoot's steps, its closed-form midpoint
        # values against the two-pass oracle fed by the searched hand-off.
        # Both oracle solutions grow like e^r and their superposition
        # cancels: in double its own rounding reached 1.7e-13 on an R = 6
        # disk at 2,000 steps, where the sweep is within 1.5e-15 of the
        # long-double march.
        lin = solve_linearized(profile)
        f = coefficient(disk, profile)(half_nodes(disk.radius, steps, disk.breakpoints))
        a, boundary_value, _ = two_pass_bvp(f, disk.radius, steps, disk.breakpoints, np.longdouble)
        assert np.max(np.abs(lin.a - a)) <= 1e-13 * max(1.0, np.max(np.abs(a)))
        assert abs(lin.boundary_value - boundary_value) <= 1e-13
        assert abs(lin.slope0 - a[0] / SEED_RADIUS) <= 1e-12


#: ``(h0, slope0, boundary_value, local_term)`` of 224k-step solves, the
#: references of ``shooting.DEFAULT_STEPS``.  On flat R = 300 and 2000 a
#: unit vortex is the plane's: ``h0 = -1.01072165075583`` and ``a'(0) = 1/2``.
DEFAULT_STEPS_REFERENCES = {
    "R3": (-1.110153320255244, 0.42247612346546465, -0.3720465637413851, 2.8980442125910946),
    "R12": (-1.0107216518472577, 0.49999999923164984, -1.6324107454196435e-05, 3.1415926511759498),
    "R25": (-1.010721650755858, 0.4999999999999945, -2.462538506442513e-11, 3.141592653589776),
    "R300": (-1.0107216507558308, 0.5000000000000004, -6.071532165918825e-18, 3.1415926535897944),
    "R2000": (-1.0107216507558419, 0.5000000000000178, 4.336808689942018e-19, 3.141592653589849),
    "table": (-0.9191193130892793, 0.5470662279621543, -0.23385426728268777, 3.2894555695878798),
    "quadratic": (-0.9290290929195164, 0.5481883021508485, -0.2000911072741502, 3.2929806696158637),
}


class TestDefaultSteps:
    @pytest.mark.parametrize("case", list(DEFAULT_STEPS_REFERENCES))
    def test_within_1e_11_of_the_references(self, case):
        # The mesh's core scale keeps the wide disks' cores resolved: on the
        # earlier mesh, graded only on [0, 1], local_term at 7,000 steps was
        # off by 3.0e-9 on R = 300 and 2.6e-6 on R = 2000.
        disk = {
            "table": ConformalDisk.from_samples(3.0, (0.0, 0.75, 1.5, 2.25, 3.0), (1.0, 1.1, 1.25, 1.35, 1.5)),
            "quadratic": ConformalDisk(3.0, omega=lambda r: 1.0 + 0.1 * np.asarray(r) ** 2),
        }.get(case) or ConformalDisk.flat(float(case[1:]))
        radial = shoot(disk, n=1)
        assert radial.steps == DEFAULT_STEPS
        lin = solve_linearized(radial)
        report = metric_coefficient(disk)
        got = (radial.h0, lin.slope0, report.boundary_value, report.local_term)
        assert lin.boundary_value == report.boundary_value
        assert np.max(np.abs(np.subtract(got, DEFAULT_STEPS_REFERENCES[case]))) <= 1e-11


class TestBoundaryTerm:
    def test_values(self, metric_r3):
        assert metric_r3.boundary_term == 0.5 * math.pi * metric_r3.boundary_value**2
        assert metric_r3.boundary_term > 0.0

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
            disk, lin = radial_table[0], solve_linearized(radial_table[1])
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
        slope0 = solve_linearized(shoot(disk3, n=1, steps=20_000)).slope0
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
