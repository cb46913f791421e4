import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from nvortex import (
    BradlowViolation,
    ConformalDisk,
    VortexConfiguration,
    bradlow_margin,
    build_grid,
    check_bradlow,
)
from nvortex.geometry import PolarGrid


def exact_moment(radius, r, w):
    """``int_0^radius Omega s ds`` of the piecewise-linear ``Omega`` through ``(r, w)``, in rationals."""
    r, w, radius = [Fraction(x) for x in r], [Fraction(x) for x in w], Fraction(radius)
    total = Fraction(0)
    for r0, r1, w0, w1 in zip(r, r[1:], w, w[1:]):
        b = (w1 - w0) / (r1 - r0)
        a = w0 - b * r0
        lo, hi = max(r0, Fraction(0)), min(r1, radius)
        if lo < hi:
            total += a * (hi**2 - lo**2) / 2 + b * (hi**3 - lo**3) / 3
    return total


class TestConformalDisk:
    def test_flat_area_is_pi_r_squared(self):
        disk = ConformalDisk.flat(3.0)
        assert disk.area == pytest.approx(9.0 * math.pi, abs=1e-8)

    def test_sampled_factor_area_matches_closed_form(self):
        # Omega = 1 + r^2/4 sampled densely: A = 2*pi*(R^2/2 + R^4/16)
        r = np.linspace(0.0, 2.0, 4001)
        disk = ConformalDisk.from_samples(2.0, r, 1.0 + r**2 / 4.0)
        assert disk.area == pytest.approx(2.0 * math.pi * (2.0 + 1.0), rel=1e-6)

    def test_sampled_factor_area_is_exact(self):
        # Omega r is quadratic between samples, so the area is a sum of exact
        # piece integrals: against the same sum in rational arithmetic it is
        # off by rounding only.  A midpoint sum was off by up to 1e-9 relative.
        rng = random.Random(17)
        for _ in range(200):
            radius = rng.uniform(0.5, 50.0)
            inner = sorted(rng.uniform(0.0, radius) for _ in range(rng.randint(0, 6)))
            r = [-rng.random() * radius if rng.random() < 0.3 else 0.0, *inner,
                 radius * (1.0 + rng.random() if rng.random() < 0.3 else 1.0)]
            w = [math.exp(rng.uniform(-5.0, 8.0)) for _ in r]
            disk = ConformalDisk.from_samples(radius, r, w)
            assert disk.area == pytest.approx(2.0 * math.pi * float(exact_moment(radius, r, w)), rel=1e-15)

    def test_rejects_nonpositive_radius(self):
        # Every radial solve takes its radius from a disk, so a disk refuses
        # a radius no solve can step to.
        for radius in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="disk radius must be positive"):
                ConformalDisk.flat(radius)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            ConformalDisk(radius=1.0, omega=lambda r: np.asarray(r) - 0.5)

    def test_sampled_factor_must_be_positive_at_each_knot(self):
        # Omega is linear between 0, the sample radii inside the disk and R,
        # so it is checked there: each table is positive at every midpoint.
        message = re.escape("conformal factor must be finite and positive on [0, R]")
        for radii, values in (([0.0, 3.0], [0.0, 1.0]), ([0.0, 1.5, 3.0], [1.0, 0.0, 1.0]),
                              ([0.0, 3.0], [1.0, 0.0]), ([-3.0, 3.0], [-1.0, 1.0]), ([0.0, 2.0, 4.0], [1.0, 1.0, -2.0])):
            with pytest.raises(ValueError, match=message):
                ConformalDisk.from_samples(3.0, radii, values)
        # Samples outside [0, R] are not on the disk.
        disk = ConformalDisk.from_samples(3.0, [-1.0, 0.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.0])
        assert disk.area == pytest.approx(9.0 * math.pi, rel=1e-15)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            ConformalDisk.from_samples(2.0, [0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            ConformalDisk.from_samples(2.0, [0.0, 1.5], [1.0, 1.0])  # short coverage
        # A non-finite radius or value is refused, not read as a kink at infinity.
        for radii, values in (([0.0, 1.0, math.inf], [1.0, 2.0, 1.0]), ([0.0, math.nan, 3.0], [1.0, 2.0, 1.0]),
                              ([0.0, 1.0, 3.0], [1.0, math.inf, 1.0]), ([0.0, 1.0, 3.0], [1.0, 2.0, math.nan])):
            with pytest.raises(ValueError, match="sample radii and values must be finite"):
                ConformalDisk.from_samples(3.0, radii, values)


class TestVortexConfiguration:
    def test_coincident_positions_merge(self):
        cfg = VortexConfiguration(interior=((1.0 + 0j, 1), (1.0 + 0j, 2)))
        assert cfg.interior == ((1.0 + 0j, 3),)
        assert cfg.N == 3

    def test_boundary_angles_normalised(self):
        cfg = VortexConfiguration(boundary=((2.0 * math.pi + 0.5, 1),))
        assert cfg.boundary[0][0] == pytest.approx(0.5)
        # -1e-17 rounds to 2*pi under %; it is angle 0, inside [0, 2*pi).
        assert VortexConfiguration(boundary=((0.0, 1), (-1e-17, 1))).boundary == ((0.0, 2),)

    def test_totals(self):
        cfg = VortexConfiguration(
            interior=((0j, 2), (1.0 + 0j, 1)), boundary=((0.0, 1), (1.0, 2))
        )
        assert (cfg.N, cfg.M) == (3, 3)

    def test_empty_configuration_rejected(self):
        with pytest.raises(ValueError):
            VortexConfiguration()

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_multiplicity_validation(self, bad):
        with pytest.raises(ValueError):
            VortexConfiguration(interior=((0j, bad),))

    @pytest.mark.parametrize("bad", [True, False, np.True_, "2", "1", b"2"])
    def test_multiplicity_must_be_a_number(self, bad):
        # float() reads these as 1, 0 or 2; a bool or a string is no multiplicity.
        message = re.escape(f"multiplicity must be an integer >= 1, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            VortexConfiguration(interior=((0j, bad),))
        with pytest.raises(ValueError, match=message):
            VortexConfiguration(boundary=((0.0, bad),))

    def test_centered_refuses_a_bool(self):
        with pytest.raises(ValueError, match="multiplicity must be an integer >= 1, got True"):
            VortexConfiguration.centered(True)

    @pytest.mark.parametrize("n", [2.0, np.float64(2.0), np.int64(2)])
    def test_integer_valued_numbers_kept(self, n):
        cfg = VortexConfiguration(interior=((0j, n),))
        assert cfg.interior == ((0j, 2),) and type(cfg.interior[0][1]) is int

    def test_position_outside_disk_rejected(self, disk3):
        cfg = VortexConfiguration(interior=((3.5 + 0j, 1),))
        with pytest.raises(ValueError):
            cfg.validate_inside(disk3)


class TestBradlowGate:
    def test_margin_examples(self, disk3):
        assert bradlow_margin(VortexConfiguration.centered(1), disk3) == pytest.approx(1.25, abs=1e-9)
        assert bradlow_margin(VortexConfiguration.boundary_point(0.0), disk3) == pytest.approx(1.75, abs=1e-9)
        mixed = VortexConfiguration(interior=((0j, 2),), boundary=((0.0, 1),))
        assert bradlow_margin(mixed, disk3) == pytest.approx(-0.25, abs=1e-9)

    def test_margin_additivity(self, disk3):
        base = bradlow_margin(VortexConfiguration.centered(1), disk3)
        plus_interior = bradlow_margin(
            VortexConfiguration(interior=((0j, 1), (1.0 + 0j, 1))), disk3
        )
        plus_boundary = bradlow_margin(
            VortexConfiguration(interior=((0j, 1),), boundary=((0.0, 1),)), disk3
        )
        assert plus_interior == pytest.approx(base - 1.0, abs=1e-12)
        assert plus_boundary == pytest.approx(base - 0.5, abs=1e-12)

    def test_gate_passes_and_returns_margin(self, disk3):
        assert check_bradlow(VortexConfiguration.centered(2), disk3) == pytest.approx(0.25, abs=1e-9)

    def test_gate_violation_carries_margin(self, disk3):
        with pytest.raises(BradlowViolation) as err:
            check_bradlow(VortexConfiguration.centered(3), disk3)
        assert err.value.margin == pytest.approx(-0.75, abs=1e-9)

    def test_rim_falling_table_is_rejected(self):
        # Omega = s on [0, 2.9], then linear to s/100 at R = 3: the exact
        # margin for one vortex is -3.0e-8 (a midpoint-sum area made it +4.7e-9).
        s = 0.4594374050974581
        disk = ConformalDisk.from_samples(3.0, (0.0, 2.9, 3.0), (s, s, s / 100.0))
        exact = exact_moment(3.0, (0.0, 2.9, 3.0), (s, s, s / 100.0)) / 2 - 1
        with pytest.raises(BradlowViolation) as info:
            check_bradlow(VortexConfiguration.centered(1), disk)
        assert info.value.margin == pytest.approx(float(exact), rel=1e-6)
        assert float(exact) == pytest.approx(-3.0e-8, rel=1e-3)

    def test_small_disk_rejects_single_vortex(self):
        disk = ConformalDisk.flat(1.0)
        with pytest.raises(BradlowViolation):
            check_bradlow(VortexConfiguration.centered(1), disk)


class TestPolarGrid:
    def test_first_node_at_half_spacing(self, disk3):
        grid = build_grid(disk3, 8, 8)
        assert grid.r[0] == pytest.approx(3.0 / 16.0)
        assert grid.r_faces[0] == 0.0

    def test_node_count(self, disk3):
        grid = build_grid(disk3, 256, 256)
        assert grid.size == 65536

    def test_minimum_resolution_enforced(self):
        disk = ConformalDisk.flat(1.0)
        with pytest.raises(ValueError):
            build_grid(disk, 4, 8)
        with pytest.raises(ValueError):
            build_grid(disk, 8, 7)

    @pytest.mark.parametrize("bad", [64.9, 64.5, math.inf, math.nan, True, np.True_, "64", b"64"])
    def test_size_must_be_an_integer(self, disk3, bad):
        # int() would read 64.9 as 64 and "64" as 64.
        for nr, ntheta in ((bad, 64), (64, bad)):
            name = "nr" if nr is bad else "ntheta"
            with pytest.raises(ValueError, match=f"grid {name} must be an integer >= 8, got "):
                build_grid(disk3, nr, ntheta)
            with pytest.raises(ValueError, match=f"grid {name} must be an integer >= 8, got "):
                PolarGrid(3.0, nr, ntheta)

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -3.0, math.inf, -math.inf])
    def test_radius_must_be_positive_and_finite(self, radius):
        # A NaN radius made dr NaN, and the solve ended on non-finite field values.
        with pytest.raises(ValueError, match="grid radius must be positive and finite, got "):
            PolarGrid(radius, 16, 16)

    @pytest.mark.parametrize("size", [64, 64.0, np.float64(64.0), np.int64(64), np.int32(64)])
    def test_integer_valued_sizes_kept(self, disk3, size):
        for grid in (build_grid(disk3, size, size), PolarGrid(3.0, size, size)):
            assert type(grid.nr) is int and type(grid.ntheta) is int
            assert grid.shape == (64, 64) and grid.r.size == 64
            assert grid == build_grid(disk3, 64, 64)

    def test_refinement_halves_spacings_exactly(self, disk3):
        coarse = build_grid(disk3, 32, 64)
        fine = build_grid(disk3, 64, 128)
        assert fine.dr == 0.5 * coarse.dr
        assert fine.dtheta == 0.5 * coarse.dtheta

    def test_flat_weights_sum_to_disk_area(self, disk3):
        grid = build_grid(disk3, 64, 64)
        assert grid.flat_weights().sum() == pytest.approx(9.0 * math.pi, rel=1e-12)
