import math
import re

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


class TestConformalDisk:
    def test_flat_area_is_pi_r_squared(self):
        disk = ConformalDisk.flat(3.0)
        assert disk.area == pytest.approx(9.0 * math.pi, abs=1e-8)

    def test_sampled_factor_area_matches_closed_form(self):
        # Omega = 1 + r^2/4 sampled densely: A = 2*pi*(R^2/2 + R^4/16)
        r = np.linspace(0.0, 2.0, 4001)
        disk = ConformalDisk.from_samples(2.0, r, 1.0 + r**2 / 4.0)
        assert disk.area == pytest.approx(2.0 * math.pi * (2.0 + 1.0), rel=1e-6)

    def test_rejects_nonpositive_radius(self):
        # Every radial solve takes its radius from a disk, so a disk refuses
        # a radius no solve can step to.
        for radius in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="disk radius must be positive"):
                ConformalDisk.flat(radius)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            ConformalDisk(radius=1.0, omega=lambda r: np.asarray(r) - 0.5)

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
