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


def single_stage_h0(disk, n, steps, eps=shooting.DEFAULT_EPS):
    """Core value from one Illinois search at full resolution over the scan bracket.

    The oracle for the two-stage ``shoot``: it runs every pass at ``steps``.
    """
    lo, hi = shooting.SCAN_LOW, shooting.SCAN_HIGH
    f_lo = _mismatch(lo, disk, n, eps, steps)
    f_hi = _mismatch(hi, disk, n, eps, steps)
    assert f_lo < 0.0 <= f_hi
    last = 0
    while hi - lo > shooting.H0_BRACKET_WIDTH:
        x = 0.5 * (lo + hi)
        if f_hi < math.inf:
            secant = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo < secant < hi:
                x = secant
        f_x = _mismatch(x, disk, n, eps, steps)
        if f_x >= 0.0:
            if last > 0:
                f_lo *= 0.5
            hi, f_hi, last = x, f_x, 1
        else:
            if last < 0:
                f_hi *= 0.5
            lo, f_lo, last = x, f_x, -1
    return 0.5 * (lo + hi)


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
    def test_false_position_pass_count(self, monkeypatch, radius):
        coarse = []

        def recorded(h0, disk, n, eps, steps):
            value = _mismatch(h0, disk, n, eps, steps)
            if steps == shooting.COARSE_STEPS:
                coarse.append(value)
            return value

        monkeypatch.setattr(shooting, "_mismatch", recorded)
        profile = shoot(ConformalDisk.flat(radius), n=1, steps=20_000)
        assert profile.converged
        # f(SCAN_LOW), then f(SCAN_HIGH) = +inf (blow-up), so the coarse loop
        # starts by bisecting; on R=12 most early midpoints blow up as well.
        assert coarse[1] == math.inf
        n_coarse, n_full = profile.passes
        assert n_coarse == len(coarse) <= 30
        # one Illinois search at 20,000 steps takes 19-27 passes
        assert n_full <= 8

    def test_fine_stage_miss_widens_bracket(self, disk3, monkeypatch):
        # Move the full-resolution root 3e-5 above the coarse one: outside
        # the first +-1e-6 bracket, inside the widened +-1e-4 one.
        shift = 3e-5
        full = []

        def shifted(h0, disk, n, eps, steps):
            if steps == shooting.COARSE_STEPS:
                return _mismatch(h0, disk, n, eps, steps)
            full.append(h0)
            return _mismatch(h0 - shift, disk, n, eps, steps)

        expected = shoot(disk3, steps=8_000).h0 + shift
        monkeypatch.setattr(shooting, "_mismatch", shifted)
        profile = shoot(disk3, steps=8_000)
        guess = 0.5 * (full[0] + full[1])
        assert full[1] - full[0] == pytest.approx(2 * shooting.FINE_HALF_WIDTH, rel=1e-6)
        assert full[2:4] == pytest.approx([guess - 1e-4, guess + 1e-4], abs=1e-12)
        assert profile.passes[1] == len(full)
        assert profile.h0 == pytest.approx(expected, abs=2e-12)

    def test_fine_stage_miss_over_scan_bracket_raises(self, disk3, monkeypatch):
        full = []

        def no_full_resolution_root(h0, disk, n, eps, steps):
            if steps == shooting.COARSE_STEPS:
                return _mismatch(h0, disk, n, eps, steps)
            full.append(h0)
            return -1.0

        monkeypatch.setattr(shooting, "_mismatch", no_full_resolution_root)
        with pytest.raises(BracketError, match="at 8000 steps"):
            shoot(disk3, steps=8_000)
        # +-1e-6, +-1e-4, +-1e-2, +-1, then +-100 clipped to the scan bracket
        assert len(full) == 10
        assert full[-2:] == [shooting.SCAN_LOW, shooting.SCAN_HIGH]

    @pytest.mark.parametrize("tol", [math.nan, -1e-6, math.inf])
    def test_unusable_tol_rejected_before_scan(self, disk3, monkeypatch, tol):
        def no_pass(*args):
            raise AssertionError("tol must be checked before any integration")

        monkeypatch.setattr(shooting, "_mismatch", no_pass)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            shoot(disk3, n=1, tol=tol)

    def test_bradlow_violation_raised_before_scan(self):
        with pytest.raises(BradlowViolation):
            shoot(ConformalDisk.flat(1.0), n=1)

    def test_interpolation_matches_nodes(self, radial_r3):
        sample = radial_r3.r[::5000]
        assert np.allclose(radial_r3.htilde_at(sample), radial_r3.htilde[::5000])
