import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nvortex import (
    BradlowViolation,
    ConformalDisk,
    moduli,
    shoot,
    shooting,
)
from nvortex.geometry import VortexConfiguration, bradlow_margin
from radial_oracle import (
    _mismatch,
    banded_joints,
    integrate_radial,
    single_stage_h0,
)

#: Core value of the radius-3 unit vortex at 1e5 integration steps,
#: regression-locked after the cross-check against the 2d solver.
H0_R3 = -1.1101533202553604
#: Core value of the unit vortex on the plane, the large-disk limit.
H0_PLANE = -1.01072165075583


def table_disk():
    return ConformalDisk.from_samples(3.0, (0.0, 0.75, 1.5, 2.25, 3.0), (1.0, 1.1, 1.25, 1.35, 1.5))


class TestTaylorSeed:
    """The regular series ``h0 - Omega(0) r^2 / 4`` seeding both radial marches at the first node."""

    def test_zero_core_value(self, disk3):
        # The oracle's march from h0 = 0 starts from its own seed.
        profile = integrate_radial(0.0, disk3, eps=1e-8, steps=1_000)
        assert profile.r[0] == 1e-8
        assert profile.htilde[0] == pytest.approx(-2.5e-17, rel=1e-6)
        assert profile.dhtilde[0] == pytest.approx(-5e-9, rel=1e-6)

    def test_flat_disk_first_node(self, radial_r3):
        eps = shooting.SEED_RADIUS
        assert radial_r3.r[0] == eps
        assert radial_r3.htilde[0] == radial_r3.h0 - 0.25 * eps * eps
        assert radial_r3.dhtilde[0] == -0.5 * eps

    def test_limit_recovers_core_value(self, radial_r3):
        assert radial_r3.htilde[0] == pytest.approx(radial_r3.h0, abs=1e-15)
        assert radial_r3.dhtilde[0] == pytest.approx(0.0, abs=1e-8)

    def test_general_multiplicity_keeps_leading_term(self):
        # The seed is the same for every multiplicity: only Omega(0) enters.
        profile = shoot(ConformalDisk.from_samples(3.0, (0.0, 3.0), (2.0, 2.0)), n=2, steps=2_000)
        assert profile.converged
        eps = shooting.SEED_RADIUS
        assert profile.r[0] == eps
        assert profile.htilde[0] == profile.h0 - 0.25 * 2.0 * eps * eps
        assert profile.dhtilde[0] == -eps


class TestIntegrateRadial:
    def test_deeply_screened_slope(self, disk3):
        # with exp(htilde) ~ 0 the equation is htilde'' + htilde'/r = -1
        profile = integrate_radial(-50.0, disk3, n=1)
        assert profile.dhtilde[-1] == pytest.approx(-1.5, abs=1e-8)

    def test_large_core_value_gives_opposite_bracket(self, disk3):
        assert _mismatch(5.0, disk3, 1, 1e-8, 20_000) > 0.0
        profile = integrate_radial(5.0, disk3, n=1)
        assert profile.residual == math.inf or profile.dhtilde[-1] > -2.0 / 3.0

    def test_step_minimum_enforced(self, disk3):
        with pytest.raises(ValueError):
            integrate_radial(0.0, disk3, steps=500)
        for steps in (500, 2000.0, 5000.5, True, "2000", None):
            with pytest.raises(ValueError, match="steps must be an integer of at least 1000"):
                shoot(disk3, steps=steps)
        with pytest.raises(ValueError, match="steps must be an integer of at least 1000"):
            moduli.metric_coefficient(disk3, radial_steps=5000.5)
        assert shoot(disk3, steps=np.int64(2_000)).converged

    def test_multiplicity_validated(self, disk3):
        with pytest.raises(ValueError):
            integrate_radial(0.0, disk3, n=0)
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"multiplicity must be >= 1, got {n}"):
                shoot(disk3, n=n, steps=2_000)

    def test_bool_multiplicity_refused(self, disk3):
        # True would run as n = 1, as steps=True would as 1 step.
        with pytest.raises(ValueError, match="multiplicity must be an integer >= 1, got True"):
            shoot(disk3, n=True, steps=2_000)

    @pytest.mark.parametrize("eps", [0.0, 3.0, 5.0, -1e-8, math.nan])
    def test_seed_radius_inside_disk(self, disk3, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            integrate_radial(0.0, disk3, eps=eps, steps=2_000)

    def test_disk_wider_than_the_seed_radius(self):
        # Omega = 1e20 on a radius of 1e-9 passes the existence bound (area
        # 314 > 4 pi), but the integration cannot start at SEED_RADIUS.
        disk = ConformalDisk.from_samples(1e-9, (0.0, 1e-9), (1e20, 1e20))
        assert bradlow_margin(VortexConfiguration.centered(1), disk) > 0.0
        with pytest.raises(ValueError, match="radius must exceed the seed radius"):
            shoot(disk, steps=2_000)


class TestShoot:
    def test_golden_core_value(self, radial_r3):
        assert radial_r3.h0 == pytest.approx(H0_R3, abs=1e-9)
        assert radial_r3.residual <= 1e-6
        assert radial_r3.dhtilde[-1] == pytest.approx(-2.0 / 3.0, abs=1e-6)

    def test_profile_monotone_decreasing(self, radial_r3):
        assert np.all(np.diff(radial_r3.htilde) <= 1e-14)

    def test_field_modulus_bounded_by_one(self, radial_r3):
        phi_sq = radial_r3.r**2 * np.exp(radial_r3.htilde)
        assert np.max(phi_sq) <= 1.0 + 1e-6
        assert 0.0 < phi_sq[-1] < 1.0

    def test_mismatch_nondecreasing_with_single_sign_change(self, disk3):
        scan = np.linspace(-50.0, 5.0, 20)
        values = np.array([_mismatch(h0, disk3, 1, 1e-8, 20_000) for h0 in scan])
        finite = values[np.isfinite(values)]
        assert np.all(np.diff(finite) >= -1e-12)
        signs = np.sign(finite)
        assert np.count_nonzero(np.diff(signs)) == 1

    def test_double_vortex_profile(self, disk3):
        profile = shoot(disk3, n=2, steps=20_000)
        assert profile.converged
        assert profile.dhtilde[-1] == pytest.approx(-4.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize(
        "disk, n, steps",
        [
            (ConformalDisk.flat(3.0), 1, 8_000),
            (ConformalDisk.flat(3.0), 1, 10_000),
            (ConformalDisk.flat(3.0), 1, 16_000),
            (ConformalDisk.flat(3.0), 2, 20_000),
            (ConformalDisk.flat(12.0), 1, 20_000),
            (table_disk(), 1, 10_000),
        ],
        ids=["R3-8k", "R3-10k", "R3-16k", "R3-n2-20k", "R12-20k", "table-10k"],
    )
    def test_two_stage_matches_single_stage_oracle(self, disk, n, steps):
        profile = shoot(disk, n=n, steps=steps)
        assert profile.converged
        assert profile.h0 == pytest.approx(single_stage_h0(disk, n, steps), abs=1e-12)

    @pytest.mark.parametrize("radius", [3.0, 12.0], ids=["R3", "R12"])
    def test_false_position_pass_count(self, radius):
        # Sweeps of the two Newton stages: 5 on the coarse mesh from the
        # closed-form start, then 2 at 20k steps.
        profile = shoot(ConformalDisk.flat(radius), n=1, steps=20_000)
        assert profile.converged
        n_coarse, n_fine = profile.passes
        assert n_coarse <= 8
        assert 2 <= n_fine <= 3

    def test_stalled_newton_says_why(self, disk3, monkeypatch):
        real_sweep = shooting._sweep
        calls = []

        def flickering(rhs, dx, y):
            # Every other sweep ends each segment 1e-3 too high: no Newton
            # step can settle that.
            y, ys = real_sweep(rhs, dx, y)
            calls.append(None)
            y[0] += 1e-3 * (len(calls) % 2)
            return y, ys

        monkeypatch.setattr(shooting, "_sweep", flickering)
        profile = shoot(disk3, steps=8_000)
        assert not profile.converged
        assert profile.termination == "max_sweeps"
        assert profile.passes[1] == shooting.MAX_SWEEPS
        reason = profile.failure_reason()
        assert reason.startswith("radial shoot did not converge (max_sweeps): ")
        assert f"(max_sweeps): Newton stalled after {shooting.MAX_SWEEPS} sweeps (" in reason
        assert f"largest joint defect {profile.joint_defect:.3g}" in reason
        assert profile.joint_defect > 1e-4

    @pytest.mark.parametrize("failure", ["singular", "diverging"])
    def test_failed_newton_step_stalls(self, disk3, monkeypatch, failure):
        def failed_step(y, defect):
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return 1e3, np.full((2, y.shape[1] - 1), 1e3)  # leaves the scan bracket

        monkeypatch.setattr(shooting, "_solve_joints", failed_step)
        profile = shoot(disk3, steps=8_000)
        assert not profile.converged
        assert profile.passes[1] == 1
        cause = {"singular": "singular_band", "diverging": "h0_range"}[failure]
        assert profile.termination == cause
        assert f"({cause}): Newton stalled after 1 sweeps (" in profile.failure_reason()

    def test_overflowing_sweep_stalls(self, disk3, monkeypatch):
        real_sweep = shooting._sweep

        def overflowing(rhs, dx, y):
            y, ys = real_sweep(rhs, dx, y)
            y = y.copy()  # the recorded states stay finite
            y[0, -1] = math.inf
            return y, ys

        monkeypatch.setattr(shooting, "_sweep", overflowing)
        profile = shoot(disk3, steps=8_000)
        # The coarse stage stops at its first sweep and the fine mesh is never swept.
        assert not profile.converged
        assert profile.termination == "non_finite" and profile.passes == (1, 0)
        assert profile.steps == shooting.COARSE_STEPS
        assert "(non_finite): coarse Newton stalled after 1 sweeps (" in profile.failure_reason()

    def test_settled_newton_off_the_outer_slope(self, disk3, monkeypatch):
        # The recording sweep, which steps the state rows alone, ends 1e-3
        # off the outer slope: Newton settled, the slope check fails.
        real_sweep = shooting._sweep

        def tilted(rhs, dx, y):
            y, ys = real_sweep(rhs, dx, y)
            if y.shape[0] == 2:
                y[1, -1] += 1e-3
            return y, ys

        monkeypatch.setattr(shooting, "_sweep", tilted)
        profile = shoot(disk3, steps=8_000)
        assert not profile.converged
        assert profile.termination == "slope_residual"
        assert profile.residual == pytest.approx(1e-3, rel=1e-6)
        reason = profile.failure_reason()
        assert reason.startswith("radial shoot did not converge (slope_residual): boundary-slope residual 0.001")

    def test_stalled_coarse_stage_hands_off_without_warnings(self):
        # Area 1e-8 above the existence bound, where the core value sinks
        # toward -inf: the coarse Newton spends all its sweeps and hands its
        # profile on to the fine mesh, which converges from it; the suite
        # turns warnings into errors.
        profile = shoot(ConformalDisk.flat(2.0 * math.sqrt(1.0 + 1e-8)), n=1)
        assert profile.passes[0] == shooting.MAX_SWEEPS and profile.passes[1] > 0
        assert profile.converged and profile.steps == shooting.DEFAULT_STEPS

    @pytest.mark.parametrize(
        "radius, n, steps, meshes",
        [(800.0, 25, 1_000, [1_000]), (2000.0, 1, 1_000, [1_000]), (2000.0, 1, 7_000, [1_261, 7_000])],
        ids=["R800-n25-1k", "R2000-1k", "R2000-7k"],
    )
    def test_coarse_stage_never_outsteps_the_fine_one(self, monkeypatch, radius, n, steps, meshes):
        # The coarse mesh keeps its largest step inside RK4's real stability
        # interval, 1,261 steps on R = 2000; at 1,000 requested steps it would
        # not be coarser, so one Newton runs at 1,000 from the closed form.
        real_newton = shooting._newton
        seen = []

        def spy(disk, n, nodes, h0, starts):
            seen.append(nodes.size - 1)
            return real_newton(disk, n, nodes, h0, starts)

        monkeypatch.setattr(shooting, "_newton", spy)
        profile = shoot(ConformalDisk.flat(radius), n=n, steps=steps)
        assert seen == meshes and profile.steps == steps
        if len(meshes) == 2:
            assert profile.converged
        else:  # one stage: no coarse sweeps
            assert profile.passes[0] == 0

    def test_no_power_overflows_at_large_multiplicity(self):
        # r^{2n} reaches 1e460 at n = 100 on R = 200: the right-hand side and
        # the closed-form start take it as exp(2n log r), so nothing warns
        # (the suite turns warnings into errors).  h0 is about -500.
        profile = shoot(ConformalDisk.flat(200.0), n=100)
        assert profile.converged and profile.h0 < 10 * shooting.SCAN_LOW
        assert np.isfinite(profile.htilde).all()

    def test_steps_past_rk4_reach_are_named(self):
        # Flat R = 2000 at 1,000 steps: the tail's steps of 3.5 leave RK4's
        # stability interval and the one Newton overflows; the reason names
        # the least step count inside it, where the shoot converges.
        profile = shoot(ConformalDisk.flat(2000.0), n=1, steps=1_000)
        assert profile.termination == "non_finite"
        assert profile.failure_reason().endswith(
            "; its steps leave RK4's stability interval, which takes at least 1261 steps")
        assert shoot(ConformalDisk.flat(2000.0), n=1, steps=1_261).converged
        # A stall inside the interval says nothing of it.
        near_bound = shoot(ConformalDisk.flat(2.0 * math.sqrt(1.0 + 1e-8)), n=1, steps=1_000)
        assert near_bound.termination == "max_sweeps"
        assert "RK4" not in near_bound.failure_reason()

    def test_every_multiplicity_up_to_30_converges(self):
        # Flat R = 3 sqrt(n) + 6 from the bag-model start: h0 falls below
        # SCAN_LOW from n = 16 on, and the coarse Newton takes 5-9 sweeps.
        for n in range(1, 31):
            disk = ConformalDisk.flat(3.0 * math.sqrt(n) + 6.0)
            profile, fine = shoot(disk, n=n, steps=6_000), shoot(disk, n=n, steps=12_000)
            assert profile.converged and fine.converged, n
            assert profile.passes[0] < shooting.MAX_SWEEPS, n
            assert abs(profile.h0 - fine.h0) < 1e-8, n

    @pytest.mark.parametrize("n, htilde_2d", [(10, -27.766), (15, -47.315), (16, -51.445), (20, -68.554),
                                              (30, -114.554)])
    def test_large_multiplicity_meets_the_2d_centre_value(self, n, htilde_2d):
        # The 2-D solver's htilde at ring 0 at 256^2 on flat R = 3 sqrt(n) + 6,
        # to the three decimals it was recorded with.
        profile = shoot(ConformalDisk.flat(3.0 * math.sqrt(n) + 6.0), n=n)
        assert profile.converged
        assert profile.h0 == pytest.approx(htilde_2d, abs=5e-4)

    def test_unit_vortex_starts_from_start_h0(self):
        # The bag estimate n/2 - n log(2n) + n log Omega(0) is above -1 for a
        # unit vortex on Omega(0) >= 1, so its start and bytes are unchanged.
        for omega0 in (1.0, 1.5, 1e3):
            assert shooting._core_start(1, omega0) == shooting.START_H0
        assert shooting._core_start(20, 1.0) == pytest.approx(10.0 - 20.0 * math.log(40.0))

    def test_one_node_map_per_stage(self, monkeypatch):
        # The coarse stage sweeps the very nodes its step count was measured
        # on, and the linearised solve steps on the shoot's nodes: a shoot
        # places nodes twice (1,000 and 10,000 steps), and so does a metric.
        real_mesh = shooting._mesh
        placed = []

        def spy(x1, steps, breaks=(), n=1, x0=shooting.SEED_RADIUS):
            placed.append(steps)
            return real_mesh(x1, steps, breaks, n, x0)

        monkeypatch.setattr(shooting, "_mesh", spy)
        disk = ConformalDisk.flat(3.0)
        assert shoot(disk, steps=10_000).converged
        assert placed == [1_000, 10_000]
        placed.clear()
        moduli.metric_coefficient(disk, radial_steps=10_000)
        assert placed == [1_000, 10_000]

    @pytest.mark.parametrize("disk", [ConformalDisk.flat(3.0), table_disk()], ids=["R3", "table"])
    def test_segmenting_a_shoot_is_segmenting_its_map(self, disk):
        # The linearised solve cuts the profile's nodes: the same half-nodes,
        # segment table and steps as the map's own nodes, bit for bit.
        profile = shoot(disk, n=1)
        mapped = segments(shooting.SEED_RADIUS, disk.radius, profile.steps, disk.breakpoints)
        for got, want in zip(shooting._segments(profile.r), mapped):
            assert same_bits(got, want)

    def test_overflowing_coarse_stage_sweeps_no_fine_mesh(self, monkeypatch):
        # Omega(0) = 1e6: the coarse Newton overflows.  Its NaN starts must
        # not reach the fine mesh, where the Hermite hand-off warned on them.
        disk = ConformalDisk.from_samples(3.0, (0.0, 3.0), (1e6, 1.0))
        real_newton = shooting._newton
        meshes = []

        def spy(disk, n, nodes, h0, starts):
            meshes.append(nodes.size - 1)
            return real_newton(disk, n, nodes, h0, starts)

        monkeypatch.setattr(shooting, "_newton", spy)
        profile = shoot(disk, n=1)
        assert len(meshes) == 1 and meshes[0] < shooting.DEFAULT_STEPS
        assert not profile.converged and profile.termination == "non_finite"
        assert profile.passes == (5, 0) and profile.steps == meshes[0]
        assert profile.failure_reason().startswith(
            "radial shoot did not converge (non_finite): coarse Newton stalled after 5 sweeps (")

    @pytest.mark.parametrize(
        "radius, steps", [(25.0, 50_000), (30.0, 100_000), (60.0, 100_000)], ids=["R25", "R30", "R60"]
    )
    def test_large_disk_converges_to_plane_core_value(self, radius, steps):
        # One march across [eps, R] amplifies errors like e^R; the segments
        # keep Newton well conditioned.
        profile = shoot(ConformalDisk.flat(radius), n=1, steps=steps)
        assert profile.converged
        assert profile.h0 == pytest.approx(H0_PLANE, abs=1e-9)
        assert profile.dhtilde[-1] == pytest.approx(-2.0 / radius, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_converges_near_the_existence_bound(self, n):
        # Bradlow margin 1e-3: |phi|^2 is small everywhere and the coarse
        # Newton takes 12-15 sweeps from the closed-form start.  The slope
        # mismatch barely moves with h0 there, so the oracle's own root is
        # known to a few 1e-12 only.
        disk = ConformalDisk.flat(2.0 * math.sqrt(n + 1e-3))
        assert bradlow_margin(VortexConfiguration.centered(n), disk) == pytest.approx(1e-3, abs=1e-12)
        profile = shoot(disk, n=n, steps=5_000)
        assert profile.converged
        assert profile.passes[1] == 2
        assert profile.h0 == pytest.approx(single_stage_h0(disk, n, 5_000), abs=5e-12)

    @pytest.mark.parametrize(
        "disk, n",
        [
            (ConformalDisk.from_samples(7.0, (0.0, 3.5, 7.0), (70.0, 0.1, 30.0)), 1),
            (ConformalDisk.flat(100.0), 6),
            (ConformalDisk.flat(120.0), 6),
        ],
        ids=["steep-Omega", "n6-R100", "n6-R120"],
    )
    def test_far_from_the_closed_form_start(self, disk, n):
        # h0 is 3.2 on the steep table: a full first Newton step from -1
        # leaves the scan range, so steps are capped at MAX_H0_STEP.  For
        # n = 6 at R >= 100 the closed-form start is far from the flow; the
        # mapped coarse mesh of 1,000 steps still converges there.
        profile = shoot(disk, n=n, steps=5_000)
        assert profile.converged
        assert profile.h0 == pytest.approx(single_stage_h0(disk, n, 5_000), abs=1e-12)

    def test_core_value_past_scan_high_on_large_conformal_factor(self):
        # h0 is about h0_plane + n log Omega(0) = 5.9 at Omega = 1000, above
        # SCAN_HIGH; the guard on Newton's h0 grows with log Omega(0).  The
        # RK4 error at 20k steps is about 3e-13.
        disk = ConformalDisk.from_samples(3.0, (0.0, 3.0), (1000.0, 1000.0))
        profile = shoot(disk, n=1, steps=20_000)
        assert profile.converged
        assert profile.h0 > shooting.SCAN_HIGH
        assert profile.h0 == pytest.approx(shoot(disk, n=1, steps=40_000).h0, abs=1e-10)

    @pytest.mark.parametrize(
        "disk, n",
        [
            (ConformalDisk.flat(3.0), 1),
            (ConformalDisk.flat(3.0), 2),
            (ConformalDisk.flat(12.0), 1),
            (ConformalDisk.flat(12.0), 2),
            (ConformalDisk.flat(25.0), 1),
            (ConformalDisk.flat(25.0), 2),
            (table_disk(), 1),
        ],
        ids=["R3", "R3-n2", "R12", "R12-n2", "R25", "R25-n2", "table"],
    )
    def test_settled_shoot_meets_the_slope_to_roundoff(self, disk, n):
        # Why shoot takes no slope tolerance: a Newton that settles meets
        # -2n/R to roundoff, so SLOPE_TOL only guards a settled Newton.
        profile = shoot(disk, n=n)
        assert profile.converged and profile.termination == "converged"
        assert profile.residual <= 1e-15

    def test_bradlow_violation_raised_before_scan(self):
        with pytest.raises(BradlowViolation):
            shoot(ConformalDisk.flat(1.0), n=1)

    def test_interpolation_matches_nodes(self, radial_r3):
        sample = radial_r3.r[::5000]
        assert np.allclose(radial_r3.htilde_at(sample), radial_r3.htilde[::5000])

    def test_interpolation_holds_end_values_outside_the_nodes(self, radial_r3):
        assert radial_r3.r[0] == shooting.SEED_RADIUS
        ends = radial_r3.htilde_at([0.0, 0.5 * shooting.SEED_RADIUS, 3.0, 3.5])
        assert np.max(np.abs(ends - radial_r3.htilde[[0, 0, -1, -1]])) <= 1e-14


def random_joint_system(rng, blocks):
    """``(y, defect)`` of a random multiple-shooting system with ``blocks`` blocks."""
    return rng.normal(size=(6, blocks)), rng.normal(size=2 * blocks - 1)


def same_bits(a, b):
    return np.asarray(a).dtype == np.asarray(b).dtype and np.asarray(a).tobytes() == np.asarray(b).tobytes()


NODE_SETS = ["shoot", "linear", "two", "ragged"]


class TestHermite:
    """``shooting._hermite`` on the shoot's, the linear solve's and two other node sets."""

    @pytest.fixture(scope="class")
    def node_sets(self):
        return {
            "shoot": shoot(table_disk(), steps=2_000).r,  # with nodes on the breakpoints
            "linear": shooting._mesh(3.0, 1_000),  # graded through the core, then uniform
            "two": np.array([-1.0, 2.0]),
            "ragged": np.cumsum(np.random.default_rng(1).exponential(size=300)),
        }

    def queries(self, xs):
        rng = np.random.default_rng(xs.size)
        inside = rng.uniform(xs[0], xs[-1], size=2_000)
        near = np.concatenate((np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf)))
        out = np.array([xs[0] - 1.0, xs[-1] + 1.0, -np.inf, np.inf, np.nan, xs[0], xs[-1]])
        hits = rng.permutation(np.concatenate((inside, near, out)))  # unsorted
        return {"inside": np.sort(inside), "near nodes": near, "ends and outside": out, "unsorted": hits,
                "scalar": np.float64(xs[len(xs) // 2]), "nan": np.full(3, np.nan)}

    @staticmethod
    def random_data(xs):
        rng = np.random.default_rng(7)
        ys, dys = rng.normal(size=xs.size), rng.normal(size=xs.size)
        # Rounding is relative to the values and to each interval's slope terms.
        scale = np.max(np.abs(ys)) + np.max(np.diff(xs)) * np.max(np.abs(dys))
        return ys, dys, scale

    @pytest.mark.parametrize("nodes", NODE_SETS)
    def test_reproduces_a_cubic_with_exact_slopes(self, node_sets, nodes):
        xs = node_sets[nodes]
        mid, half = 0.5 * (xs[0] + xs[-1]), 0.5 * (xs[-1] - xs[0])

        def cubic(x):
            u = (x - mid) / half
            return 0.3 - 1.1 * u + 0.7 * u**2 + 1.3 * u**3

        def slope(x):
            u = (x - mid) / half
            return (-1.1 + 1.4 * u + 3.9 * u**2) / half

        ys, dys = cubic(xs), slope(xs)
        for kind, x in self.queries(xs).items():
            x = np.atleast_1d(x)
            x = x[(x >= xs[0]) & (x <= xs[-1])]
            y = shooting._hermite(x, xs, ys, dys)
            # 3.4, the sum of the coefficients' magnitudes, bounds |cubic| on the nodes.
            assert np.max(np.abs(y - cubic(x)), initial=0.0) <= 16 * np.finfo(float).eps * 3.4, kind

    @pytest.mark.parametrize("nodes", NODE_SETS)
    def test_takes_each_query_on_its_own_interval(self, node_sets, nodes):
        # Random values and slopes: at a node the interpolant is that node's
        # value and at a midpoint the closed form of its own interval's
        # cubic, which a neighbouring interval's cubic misses.
        xs = node_sets[nodes]
        ys, dys, scale = self.random_data(xs)
        eps = np.finfo(float).eps
        d = np.diff(xs)
        mids = xs[:-1] + 0.5 * d
        at_mids = 0.5 * (ys[:-1] + ys[1:]) + 0.125 * d * (dys[:-1] - dys[1:])
        # A rounded midpoint is off by up to eps |x|, which moves the value by
        # that times the interval's largest slope.
        slope = np.abs(np.diff(ys)) / d + np.abs(dys[:-1]) + np.abs(dys[1:])
        assert np.max(np.abs(shooting._hermite(xs, xs, ys, dys) - ys)) <= 16 * eps * scale
        err = np.abs(shooting._hermite(mids, xs, ys, dys) - at_mids)
        assert np.all(err <= 16 * eps * (scale + np.abs(mids) * slope))
        rng = np.random.default_rng(3)
        order = rng.permutation(mids.size)  # unsorted queries find the same intervals
        assert same_bits(shooting._hermite(mids[order], xs, ys, dys), shooting._hermite(mids, xs, ys, dys)[order])

    @pytest.mark.parametrize("nodes", NODE_SETS)
    def test_holds_the_end_values_outside_the_nodes(self, node_sets, nodes):
        xs = node_sets[nodes]
        ys, dys, scale = self.random_data(xs)
        for kind, x in self.queries(xs).items():
            x = np.atleast_1d(x)
            below, above = x[x < xs[0]], x[x > xs[-1]]
            assert same_bits(shooting._hermite(below, xs, ys, dys), np.full(below.size, ys[0])), kind
            ends = shooting._hermite(above, xs, ys, dys)
            assert np.max(np.abs(ends - ys[-1]), initial=0.0) <= 16 * np.finfo(float).eps * scale, kind

    @pytest.mark.parametrize("nodes", NODE_SETS)
    def test_nan_queries_give_nan(self, node_sets, nodes):
        xs = node_sets[nodes]
        ys, dys, _ = self.random_data(xs)
        for kind, x in self.queries(xs).items():
            y = shooting._hermite(x, xs, ys, dys)
            assert np.array_equal(np.isnan(y), np.isnan(x)), kind
            assert np.isfinite(y[~np.isnan(x)]).all(), kind

    @pytest.mark.parametrize("nodes", NODE_SETS)
    def test_scalar_query_gives_a_scalar(self, node_sets, nodes):
        xs = node_sets[nodes]
        ys, dys, _ = self.random_data(xs)
        x = self.queries(xs)["scalar"]
        y = shooting._hermite(x, xs, ys, dys)
        assert np.ndim(y) == 0
        assert same_bits(np.atleast_1d(y), shooting._hermite(np.atleast_1d(x), xs, ys, dys))


class TestKernelsAgainstOracles:
    """The joint solve and the state-only sweep give the replaced paths' bits."""

    @pytest.mark.parametrize("blocks", [1, 2, 3, 17, 1_000])
    def test_joint_solve_is_solve_banded(self, blocks):
        rng = np.random.default_rng(blocks)
        for _ in range(20):
            y, defect = random_joint_system(rng, blocks)
            parameter, starts = shooting._solve_joints(y, defect)
            want_parameter, want_starts = banded_joints(y, defect)
            assert same_bits(parameter, want_parameter) and same_bits(starts, want_starts)
            assert starts.shape == (2, blocks - 1)

    @pytest.mark.parametrize("steps", [1, 2, 2_000])
    def test_linear_bvp_is_solve_banded(self, monkeypatch, steps):
        # steps=1 is one block: the one-equation system a'(R) = -2/R^2.
        r_half, index, dx = segments(shooting.SEED_RADIUS, 3.0, steps)

        def solve():
            return moduli._solve_on(1.0 + 0.1 * r_half, 3.0, r_half, index, dx)

        lin = solve()
        monkeypatch.setattr(shooting, "_solve_joints", banded_joints)
        oracle = solve()
        for name in ("r", "a", "da", "slope0", "boundary_value", "bc_defect"):
            assert same_bits(getattr(lin, name), getattr(oracle, name)), name

    def test_shoot_is_solve_banded(self, monkeypatch):
        profile = shoot(table_disk(), steps=2_000)
        monkeypatch.setattr(shooting, "_solve_joints", banded_joints)
        oracle = shoot(table_disk(), steps=2_000)
        for name in ("r", "htilde", "dhtilde", "h0", "residual", "joint_defect", "passes"):
            assert same_bits(getattr(profile, name), getattr(oracle, name)), name

    @pytest.mark.parametrize("blocks", [1, 4])
    def test_singular_band_raises(self, blocks):
        # The first block does not depend on the parameter: the first column is zero.
        y, defect = random_joint_system(np.random.default_rng(0), blocks)
        y[2:4, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            shooting._solve_joints(y, defect)

    def test_recording_sweep_steps_the_state_rows_only(self, monkeypatch):
        real_sweep = shooting._sweep
        calls = []

        def recording(rhs, dx, y):
            calls.append((rhs, dx, y.copy()))
            return real_sweep(rhs, dx, y)

        monkeypatch.setattr(shooting, "_sweep", recording)
        profile = shoot(table_disk(), steps=2_000)
        assert profile.converged
        n_coarse, n_fine = profile.passes
        rows = [y.shape[0] for _, _, y in calls]
        assert rows == [6] * (n_coarse - 1) + [2] + [6] * (n_fine - 1) + [2]
        # The linearised solve is one correction, its nodes read off that sweep.
        moduli.solve_linearized(profile)
        assert [y.shape[0] for _, _, y in calls[len(rows):]] == [6]
        # Each Newton sweep's state rows, stepped alone, are the full sweep's bit for bit.
        for rhs, dx, y in calls:
            if y.shape[0] == 6:
                full_end, full_steps = real_sweep(rhs, dx, y)
                end, states = real_sweep(rhs, dx, y[:2])
                assert same_bits(end, full_end[:2])
                assert all(same_bits(s, f[:2]) for s, f in zip(states, full_steps))


def segments(x0, x1, steps, breaks=(), n=1):
    """``_segments`` of ``_mesh``'s nodes: the cut both radial solves step on."""
    return shooting._segments(shooting._mesh(x1, steps, breaks, n, x0))


def cut(x_half, step_sizes, size):
    """``_segments``' output for the half-nodes ``x_half`` in segments of ``size`` steps."""
    steps = step_sizes.size
    count = -(-steps // size)
    index = np.minimum(2 * size * np.arange(count) + np.arange(2 * size + 1)[:, None], 2 * steps)
    dx = np.zeros(count * size)
    dx[:steps] = step_sizes
    return x_half, index, dx.reshape(count, size).T


def map_scales(x0, x1, n=1):
    """``(rho, L, a)`` of ``_segments``' map ``x(t) = x0 + L log(1 + (rho / L) sinh^2(a t / 2))``."""
    span = x1 - x0
    rho = min(math.sqrt(n), span)
    tail = span / (2.0 * math.asinh(math.sqrt(span / rho)))
    return rho, tail, 2.0 * math.asinh(math.sqrt(tail / rho * math.expm1(span / tail)))


def mapped_layout(x0, x1, steps, n=1):
    """``_segments``' nodes without breakpoints, as plain floats: ``x(k / steps)`` for ``k = 0, ..., steps``."""
    rho, tail, rate = map_scales(x0, x1, n)
    inner = [x0 + tail * math.log1p(rho / tail * math.sinh(0.5 * rate * k / steps) ** 2) for k in range(steps)]
    return np.array(inner + [x1])


def t_of(x, x0, x1, n=1):
    """The inverse of ``_segments``' map: the ``t`` in ``[0, 1]`` of coordinate ``x``."""
    rho, tail, rate = map_scales(x0, x1, n)
    return 2.0 * math.asinh(math.sqrt(tail / rho * math.expm1((x - x0) / tail))) / rate


class TestSegments:
    @pytest.mark.parametrize(
        "x0, x1, steps",
        [(1e-8, 3.0, 7_000), (1e-8, 25.0, 1_000), (0.0, 1.0, 1), (0.0, 1.0, 99_991), (1e-8, 2000.0, 5_000)],
    )
    def test_no_breakpoints_keep_the_uniform_layout_bit_for_bit(self, x0, x1, steps):
        # Uniform in t, the nodes are the map at k / steps; the half-nodes,
        # steps and segment cut follow from the nodes bit for bit.
        x_half, index, dx = segments(x0, x1, steps)
        nodes = x_half[::2]
        assert np.allclose(nodes, mapped_layout(x0, x1, steps), rtol=1e-13, atol=0.0)
        assert (nodes[0], nodes[-1]) == (x0, x1)
        want = cut(x_half, np.diff(nodes), math.isqrt(steps - 1) // 16 + 1)
        for got, want in zip((x_half, index, dx), want):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(x_half[1::2], nodes[:-1] + 0.5 * np.diff(nodes))

    @pytest.mark.parametrize("steps", [1, 3, 4, 5, 1_000])
    def test_zone_takes_its_share_of_the_steps(self, steps):
        # The unit-vortex core [SEED_RADIUS, 1] takes the share t(1) = 0.38
        # of the steps on R = 3; the steps never shrink outward, and one
        # step spans the disk.
        x_half, _, dx = segments(shooting.SEED_RADIUS, 3.0, steps)
        nodes, steps_of = x_half[::2], dx.T.ravel()[:steps]
        assert nodes.size == steps + 1 and nodes[0] == shooting.SEED_RADIUS and nodes[-1] == 3.0
        assert np.count_nonzero(nodes[1:] <= 1.0) == math.floor(t_of(1.0, shooting.SEED_RADIUS, 3.0) * steps)
        assert np.all(steps_of > 0.0)
        assert np.all(np.diff(steps_of) >= -1e-12 * steps_of[1:])

    def test_quadratic_then_geometric_then_uniform(self):
        # Flat R = 2000: x ~ rho (a t / 2)^2 at the centre, a constant step
        # ratio e^{a / steps} through the core, and uniform steps a L / steps
        # in the tail.
        steps, radius = 5_000, 2000.0
        x_half, _, dx = segments(0.0, radius, steps)
        nodes, steps_of = x_half[::2], dx.T.ravel()[:steps]
        k = np.arange(1, 6)
        assert np.allclose(nodes[k] / nodes[1], k**2, rtol=1e-4, atol=0.0)
        _, tail, rate = map_scales(0.0, radius)
        core = (nodes[1:] > 3.0) & (nodes[1:] < 20.0)  # between rho = 1 and L = 223
        assert np.count_nonzero(core) > 500
        assert np.allclose(steps_of[core][1:] / steps_of[core][:-1], math.exp(rate / steps), rtol=1e-3, atol=0.0)
        assert steps_of[-1] == pytest.approx(rate * tail / steps, rel=1e-3)
        assert np.ptp(steps_of[nodes[1:] > 0.5 * radius]) <= 0.02 * steps_of[-1]

    @pytest.mark.parametrize("n", [1, 4, 25])
    def test_core_scale_follows_the_multiplicity(self, n):
        # rho = sqrt(n), the n-vortex core: the core [0, sqrt(n)] of flat
        # R = 300 takes t(sqrt(n)) of the steps, 14% for n = 1, 19% for n = 25.
        nodes = shooting._mesh(300.0, 1_000, (), n, 0.0)
        assert np.allclose(nodes, mapped_layout(0.0, 300.0, 1_000, n), rtol=1e-13, atol=0.0)
        share = t_of(math.sqrt(n), 0.0, 300.0, n)
        assert 0.14 < share < 0.2
        assert np.count_nonzero(nodes[1:] <= math.sqrt(n)) == math.floor(share * 1_000)

    @pytest.mark.parametrize("steps", [1_000, 7_000, 12_345])
    @pytest.mark.parametrize("breaks", [(0.75, 1.5, 2.25), (0.7, 1.3, 2.2), (0.0101, 1.0, 1.0004, 2.9995)])
    def test_a_node_on_every_breakpoint(self, steps, breaks):
        eps, radius = 1e-8, 3.0
        x_half, index, dx = segments(eps, radius, steps, breaks)
        nodes = x_half[::2]
        steps_of = dx.T.ravel()[:steps]
        assert x_half.shape == (2 * steps + 1,) and nodes[0] == eps
        assert np.all(dx.T.ravel()[steps:] == 0.0)
        # Each node is the last one plus its step, each half-node halfway.
        assert np.allclose(np.diff(nodes), steps_of, rtol=1e-9, atol=0.0)
        assert np.allclose(x_half[1::2], nodes[:-1] + 0.5 * steps_of, rtol=1e-12, atol=0.0)
        assert nodes[-1] == radius
        # Breakpoint b takes node round(t(b) steps) unless that is an end or
        # the node of the last one taken: at 1k steps 1.0004 shares 1.0's
        # node and 2.9995 is nearest the rim.
        taken = {0, steps}
        expected = []
        for b in breaks:
            k = round(t_of(b, eps, radius) * steps)
            if k not in taken:
                expected.append(b)
                taken.add(k)
        kept = [b for b in breaks if b in nodes]
        assert kept == expected
        if breaks[0] > 0.1:
            assert kept == list(breaks)
        # Between taken nodes the steps are uniform in t, and each breakpoint
        # moved its node by at most half a step in t.
        t = np.array([t_of(x, eps, radius) for x in nodes])
        knots = sorted([eps, radius] + kept)
        for a, b in zip(knots, knots[1:]):
            inside = (nodes[:-1] >= a) & (nodes[:-1] < b)
            dt = np.diff(t)[inside]
            assert np.ptp(dt) <= 1e-9 / steps
            assert dt.size / steps == pytest.approx(t_of(b, eps, radius) - t_of(a, eps, radius), abs=1.0 / steps)

    def test_breakpoints_nearest_an_end_get_no_node(self):
        # On [0, 1] in 10 steps, only x(0.5) takes a node: -0.5 and 1.5 lie
        # outside, x(0.04) and x(0.98) are nearest an end, and x(0.52) is
        # nearest x(0.5)'s node.  That is the plain mapped mesh.
        plain = mapped_layout(0.0, 1.0, 100)
        breaks = (-0.5, plain[4], plain[50], plain[52], plain[98], 1.5)
        x_half, _, dx = segments(0.0, 1.0, 10, breaks)
        assert x_half[10] == plain[50] and x_half[0] == 0.0
        assert np.allclose(x_half[::2], plain[::10], rtol=1e-13, atol=0.0)
        assert np.allclose(dx.T.ravel()[:10], np.diff(plain[::10]), rtol=1e-12, atol=0.0)

    def test_disk_breakpoints(self):
        assert ConformalDisk.flat(3.0).breakpoints == ()
        assert ConformalDisk(3.0, omega=lambda r: 1.0 + np.asarray(r)).breakpoints == ()
        assert table_disk().breakpoints == (0.75, 1.5, 2.25)
        wide = ConformalDisk.from_samples(3.0, (-1.0, 0.0, 1.0, 3.0, 4.0), (1.0, 1.0, 2.0, 1.0, 1.0))
        assert wide.breakpoints == (1.0,)

    def test_both_radial_solves_step_onto_the_breakpoints(self):
        disk = ConformalDisk.from_samples(3.0, (0.0, 0.7, 1.3, 2.2, 3.0), (1.0, 1.1, 1.25, 1.35, 1.5))
        profile = shoot(disk, n=1, steps=2_000)
        assert all(b in profile.r for b in disk.breakpoints)
        lin = moduli.solve_linearized(profile)
        assert np.array_equal(lin.r, profile.r)

    @pytest.mark.parametrize(
        "disk, n",
        [(ConformalDisk.flat(3.0), 1), (ConformalDisk.flat(3.0), 2), (table_disk(), 1), (ConformalDisk.flat(25.0), 1)],
        ids=["R3", "R3-n2", "table", "R25"],
    )
    def test_segment_length_is_a_solver_detail(self, monkeypatch, disk, n):
        # Multiple shooting solves the same discrete RK4 equations whatever
        # the segments: the same nodes cut into the earlier, about four times
        # longer segments give the same solution up to rounding.
        short = shoot(disk, n=n)
        real_segments = shooting._segments
        cuts = []

        def long_segments(nodes):
            x_half, index, dx = real_segments(nodes)
            steps = nodes.size - 1
            size = math.isqrt(steps - 1) // 4 + 1
            cuts.append((index.shape[1], -(-steps // size)))
            return cut(x_half, dx.T.ravel()[:steps], size)

        monkeypatch.setattr(shooting, "_segments", long_segments)
        monkeypatch.setattr(moduli, "_segments", long_segments)
        long = shoot(disk, n=n)
        assert cuts and all(segments > 3 * fewer for segments, fewer in cuts)
        assert long.converged and short.converged
        assert long.passes == short.passes
        assert long.h0 == pytest.approx(short.h0, abs=1e-12)
        if n == 1:
            lin_long = moduli.solve_linearized(long)
            monkeypatch.setattr(moduli, "_segments", real_segments)
            lin_short = moduli.solve_linearized(short)
            assert lin_long.slope0 == pytest.approx(lin_short.slope0, abs=1e-12)
            assert lin_long.boundary_value == pytest.approx(lin_short.boundary_value, abs=1e-12)


@st.composite
def radial_problems(draw):
    """A disk with an increasing Omega table in [1, 1.5], n and a step count."""
    radius = draw(st.floats(2.5, 8.0))
    knots = np.linspace(0.0, radius, 5)
    values = sorted(draw(st.lists(st.floats(1.0, 1.5), min_size=5, max_size=5)))
    disk = ConformalDisk.from_samples(radius, knots, values)
    n = draw(st.sampled_from([1, 2]))
    steps = draw(st.integers(2_000, 6_000))
    return disk, n, steps


class TestShootProperties:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(radial_problems())
    def test_matches_oracle_and_single_march(self, problem):
        disk, n, steps = problem
        assume(bradlow_margin(VortexConfiguration.centered(n), disk) > 0.0)
        profile = shoot(disk, n=n, steps=steps)
        assert profile.converged
        assert profile.h0 == pytest.approx(single_stage_h0(disk, n, steps), abs=1e-12)
        # The joints are continuous: one march from the same h0 retraces it.
        march = integrate_radial(profile.h0, disk, n, steps=steps)
        assert np.max(np.abs(profile.htilde - march.htilde)) <= 1e-9
        assert np.max(np.abs(profile.dhtilde - march.dhtilde)) <= 1e-9
