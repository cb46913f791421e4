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
    taylor_seed,
)
from nvortex.geometry import VortexConfiguration, bradlow_margin
from radial_oracle import _mismatch, integrate_radial, single_stage_h0

#: Core value of the radius-3 unit vortex at 1e5 integration steps,
#: regression-locked after the cross-check against the 2d solver.
H0_R3 = -1.1101533202553604
#: Core value of the unit vortex on the plane, the large-disk limit.
H0_PLANE = -1.01072165075583


def table_disk():
    return ConformalDisk.from_samples(3.0, (0.0, 0.75, 1.5, 2.25, 3.0), (1.0, 1.1, 1.25, 1.35, 1.5))


class TestTaylorSeed:
    def test_zero_core_value(self):
        h, dh = taylor_seed(0.0, 1e-8, 1, 1.0)
        assert h == pytest.approx(-2.5e-17, rel=1e-6)
        assert dh == pytest.approx(-5e-9, rel=1e-6)

    def test_limit_recovers_core_value(self):
        h, dh = taylor_seed(-3.7, 1e-14, 1, 1.0)
        assert h == pytest.approx(-3.7, abs=1e-12)
        assert dh == pytest.approx(0.0, abs=1e-12)

    def test_quartic_derivative_term(self):
        _, dh = taylor_seed(-1.0, 1e-2, 1, 1.0)
        assert dh == pytest.approx(-0.004999908030139707, abs=1e-15)

    def test_general_multiplicity_keeps_leading_term(self):
        h, dh = taylor_seed(-1.0, 1e-2, 2, 2.0)
        assert h == pytest.approx(-1.0 - 2.0 * 1e-4 / 4.0, abs=1e-15)
        assert dh == pytest.approx(-1e-2, abs=1e-15)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            taylor_seed(0.0, 0.0, 1, 1.0)


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

    @pytest.mark.parametrize("eps", [0.0, 3.0, 5.0, -1e-8, math.nan])
    def test_seed_radius_inside_disk(self, disk3, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            integrate_radial(0.0, disk3, eps=eps, steps=2_000)
        with pytest.raises(ValueError, match="eps must lie in"):
            shoot(disk3, eps=eps, steps=2_000)


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

        def flickering(rhs, dx, starts):
            # Every other sweep ends each segment 1e-3 too high: no Newton
            # step can settle that.
            y, ys = real_sweep(rhs, dx, starts)
            calls.append(None)
            y[0] += 1e-3 * (len(calls) % 2)
            return y, ys

        monkeypatch.setattr(shooting, "_sweep", flickering)
        profile = shoot(disk3, steps=8_000)
        assert not profile.converged
        assert profile.stalled
        assert profile.passes[1] == shooting.MAX_SWEEPS
        reason = profile.failure_reason(1e-6)
        assert f"Newton stalled after {shooting.MAX_SWEEPS} sweeps" in reason
        assert f"largest joint defect {profile.joint_defect:.3g}" in reason
        assert profile.joint_defect > 1e-4

    @pytest.mark.parametrize("failure", ["singular", "diverging"])
    def test_failed_newton_step_stalls(self, disk3, monkeypatch, failure):
        def failed_step(lead, maps, rhs):
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return np.full(rhs.size, 1e3)  # leaves the scan bracket

        monkeypatch.setattr(shooting, "_solve_joints", failed_step)
        profile = shoot(disk3, steps=8_000)
        assert not profile.converged and profile.stalled
        assert profile.passes[1] == 1
        assert "Newton stalled after 1 sweeps" in profile.failure_reason(1e-6)

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
        # n = 6 at R >= 100 a 1,000-step coarse sweep from the closed form
        # overflows, so the coarse mesh step is capped at COARSE_MAX_STEP.
        profile = shoot(disk, n=n, steps=5_000)
        assert profile.converged
        assert profile.h0 == pytest.approx(single_stage_h0(disk, n, 5_000), abs=1e-12)

    def test_core_value_past_scan_high_on_large_conformal_factor(self):
        # h0 is about h0_plane + n log Omega(0) = 5.9 at Omega = 1000, above
        # SCAN_HIGH; the guard on Newton's h0 grows with log Omega(0).  The
        # RK4 error at 20k steps is about 2e-11.
        disk = ConformalDisk.from_samples(3.0, (0.0, 3.0), (1000.0, 1000.0))
        profile = shoot(disk, n=1, steps=20_000)
        assert profile.converged
        assert profile.h0 > shooting.SCAN_HIGH
        assert profile.h0 == pytest.approx(shoot(disk, n=1, steps=40_000).h0, abs=1e-10)

    @pytest.mark.parametrize("eps", [1e-12, 1e-4, 1.0])
    def test_any_seed_radius_converges(self, disk3, eps):
        profile = shoot(disk3, eps=eps, steps=5_000)
        assert profile.converged
        assert profile.r[0] == eps
        assert profile.h0 == pytest.approx(single_stage_h0(disk3, 1, 5_000, eps=eps), abs=1e-12)

    @pytest.mark.parametrize("tol", [math.nan, -1e-6, math.inf])
    def test_unusable_tol_rejected_before_scan(self, disk3, monkeypatch, tol):
        def no_pass(*args):
            raise AssertionError("tol must be checked before any integration")

        monkeypatch.setattr(shooting, "_sweep", no_pass)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            shoot(disk3, n=1, tol=tol)

    def test_bradlow_violation_raised_before_scan(self):
        with pytest.raises(BradlowViolation):
            shoot(ConformalDisk.flat(1.0), n=1)

    def test_interpolation_matches_nodes(self, radial_r3):
        sample = radial_r3.r[::5000]
        assert np.allclose(radial_r3.htilde_at(sample), radial_r3.htilde[::5000])


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
