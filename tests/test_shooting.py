import math

import numpy as np
import pytest

from nvortex import (
    BracketError,
    BradlowViolation,
    ConformalDisk,
    integrate_radial,
    shoot,
    shooting,
    taylor_seed,
)
from nvortex.shooting import _mismatch

#: Core value of the radius-3 unit vortex at 1e5 integration steps,
#: regression-locked after the cross-check against the 2d solver.
H0_R3 = -1.1101533202553604


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
        assert profile.diverged or profile.dhtilde[-1] > -2.0 / 3.0

    def test_step_minimum_enforced(self, disk3):
        with pytest.raises(ValueError):
            integrate_radial(0.0, disk3, steps=500)

    def test_multiplicity_validated(self, disk3):
        with pytest.raises(ValueError):
            integrate_radial(0.0, disk3, n=0)

    @pytest.mark.parametrize("eps", [0.0, 3.0, 5.0])
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

    @pytest.mark.parametrize("value", [-1.0, 1.0, math.nan])
    def test_no_sign_change_raises_bracket_error(self, disk3, monkeypatch, value):
        monkeypatch.setattr(shooting, "_mismatch", lambda *args: value)
        with pytest.raises(BracketError):
            shoot(disk3, steps=2_000)

    @pytest.mark.parametrize("radius", [3.0, 12.0], ids=["R3", "R12"])
    def test_false_position_pass_count(self, monkeypatch, radius):
        values = []

        def recorded(*args):
            values.append(_mismatch(*args))
            return values[-1]

        monkeypatch.setattr(shooting, "_mismatch", recorded)
        profile = shoot(ConformalDisk.flat(radius), n=1, steps=20_000)
        assert profile.converged
        # f(SCAN_LOW), then f(SCAN_HIGH) = +inf (blow-up), so the loop starts
        # by bisecting; on R=12 most early midpoints blow up as well.
        assert values[1] == math.inf
        assert len(values) <= 30  # a 20-point scan plus bisection took 62

    def test_bradlow_violation_raised_before_scan(self):
        with pytest.raises(BradlowViolation):
            shoot(ConformalDisk.flat(1.0), n=1)

    def test_interpolation_matches_nodes(self, radial_r3):
        sample = radial_r3.r[::5000]
        assert np.allclose(radial_r3.htilde_at(sample), radial_r3.htilde[::5000])
