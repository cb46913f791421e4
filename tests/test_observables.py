import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nvortex import (
    ConformalDisk,
    ScalarField,
    VortexConfiguration,
    bradlow_margin,
    build_grid,
    compute_observables,
    magnetic_field,
    solve_taubes_2d,
)
from nvortex import observables
from nvortex.observables import (
    FIELD_CSV_HEADER,
    PROFILE_CSV_HEADER,
    _density_from_parts,
    _g17_cells,
    _g17_tables,
    export_field_csv,
    export_json,
    export_profile_csv,
    radial_observables,
    solution_summary,
)
from nvortex.shooting import RadialProfile, shoot

#: Values whose ``%.17g`` spelling is easy to get wrong: signed zero, the
#: smallest subnormal, exponent switch-overs and near-overflow magnitudes.
_SPECIAL_FINITE = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, 1e16, 1e17, 1e300, -1e300, 1.0 / 3.0]
_finite = st.one_of(st.sampled_from(_SPECIAL_FINITE), st.floats(allow_nan=False, allow_infinity=False))
_any_float = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), _finite)


def _savetxt_field_csv(path, grid, htilde, h, B, density):
    """Oracle: the node table as one column stack written by ``np.savetxt``."""
    z = grid.nodes_complex
    with np.errstate(over="ignore"):
        e_h = np.exp(h.values)
    cols = np.column_stack(
        [
            np.repeat(grid.r, grid.ntheta),
            np.tile(grid.theta, grid.nr),
            z.real.ravel(),
            z.imag.ravel(),
            htilde.values.ravel(),
            h.values.ravel(),
            e_h.ravel(),
            B.values.ravel(),
            density.values.ravel(),
        ]
    )
    np.savetxt(path, cols, fmt="%.17g", delimiter=",", header=FIELD_CSV_HEADER, comments="")


def _savetxt_profile_csv(path, profile):
    """Oracle: the radial table as one column stack written by ``np.savetxt``."""
    obs = radial_observables(profile)
    cols = np.column_stack(
        [profile.r, profile.htilde, profile.dhtilde, obs["phi_sq"], obs["B"], obs["energy_density"]]
    )
    np.savetxt(path, cols, fmt="%.17g", delimiter=",", header=PROFILE_CSV_HEADER, comments="")


@st.composite
def _field_tables(draw):
    nr, ntheta = draw(
        st.tuples(st.integers(8, 11), st.integers(8, 11)).filter(lambda s: s[0] != s[1])
    )
    grid = build_grid(ConformalDisk.flat(draw(st.sampled_from([1.0, 3.0, 7.25]))), nr, ntheta)
    fields = [
        ScalarField(grid, draw(arrays(float, grid.shape, elements=_finite))) for _ in range(4)
    ]
    return grid, fields


def _observables(h, B, density):
    """An ``ObservableSet`` holding the given fields, for the CSV writer."""
    return observables.ObservableSet(h=h, B=B, energy_density=density, flux=0.0, energy=0.0)


@st.composite
def _profiles(draw):
    n_rows = draw(st.integers(1, 12))
    column = arrays(float, n_rows, elements=_any_float)
    return RadialProfile(
        r=draw(column),
        htilde=draw(column),
        dhtilde=draw(column),
        h0=0.0,
        n=draw(st.integers(0, 2)),
        residual=0.0,
        termination="converged",
        disk=ConformalDisk.flat(3.0),
    )


@pytest.fixture(scope="module")
def solved96(disk3):
    grid = build_grid(disk3, 96, 96)
    out = {}
    for key, cfg in (
        ("centered", VortexConfiguration.centered(1)),
        ("boundary", VortexConfiguration.boundary_point(0.0)),
        ("mixed", VortexConfiguration(interior=((0.9 + 0.5j, 1),), boundary=((2.0, 1),))),
    ):
        field, report = solve_taubes_2d(disk3, cfg, grid)
        out[key] = (cfg, field, report, compute_observables(field, report))
    return grid, out


class TestMagneticField:
    def test_pointwise_formula(self, disk3):
        grid = build_grid(disk3, 8, 8)
        h = ScalarField(grid, np.zeros(grid.shape))
        assert np.all(magnetic_field(h).values == 0.0)
        h = ScalarField(grid, np.full(grid.shape, math.log(0.5)))
        assert np.allclose(magnetic_field(h).values, 0.25)
        h = ScalarField(grid, np.full(grid.shape, -1e3))  # deep core: exp underflows
        assert np.allclose(magnetic_field(h).values, 0.5)

    def test_bounds_on_solutions(self, solved96):
        _, out = solved96
        for _, _, _, obs in out.values():
            assert obs.B.values.min() >= 0.0
            assert obs.B.values.max() <= 0.5 + 1e-6


class TestEnergyDensity:
    def test_vacuum_density_vanishes(self):
        e_h = np.ones((4, 4))
        zeros = np.zeros((4, 4))
        assert np.all(_density_from_parts(e_h, zeros, zeros, np.ones((4, 1))) == 0.0)

    def test_unit_multiplicity_core_limit(self, radial_r3):
        # on-shell core density is B^2 + exp(h0): the gradient term survives
        # for a single zero because exp(h) |grad h|^2 -> 4 exp(h0)
        obs = radial_observables(radial_r3)
        expected = 0.25 + math.exp(radial_r3.h0)
        assert obs["energy_density"][0] == pytest.approx(expected, rel=1e-4)

    def test_double_vortex_core_density_is_b_squared(self, disk3):
        grid = build_grid(disk3, 48, 48)
        cfg = VortexConfiguration.centered(2)
        obs = compute_observables(*solve_taubes_2d(disk3, cfg, grid))
        assert obs.energy_density.values[0, 0] == pytest.approx(0.25, abs=5e-3)

    def test_centered_density_peaks_at_core(self, radial_r3):
        obs = radial_observables(radial_r3)
        assert np.argmax(obs["energy_density"]) == 0


class TestQuantization:
    def test_interior_flux_and_energy(self, solved96):
        _, out = solved96
        _, _, _, obs = out["centered"]
        assert obs.flux == pytest.approx(2.0 * math.pi, rel=1e-3)
        assert obs.energy == pytest.approx(math.pi, rel=1e-3)

    def test_boundary_half_vortex(self, solved96):
        _, out = solved96
        _, _, _, obs = out["boundary"]
        assert obs.flux == pytest.approx(math.pi, rel=1e-3)
        assert obs.energy == pytest.approx(0.5 * math.pi, rel=2e-3)

    def test_h_and_bc_residual_come_from_the_solve(self, solved96):
        grid, out = solved96
        for _, field, report, obs in out.values():
            assert obs.h.grid is grid
            assert np.array_equal(obs.h.values, field.values + report.singular.v0.values)
            summary = solution_summary(obs, report)
            assert summary["bc_residual"] == report.bc_residual
            assert summary["bradlow_margin"] == bradlow_margin(report.singular.config, report.singular.disk)

    def test_energy_is_half_flux(self, solved96):
        _, out = solved96
        for _, _, _, obs in out.values():
            assert abs(obs.energy - 0.5 * obs.flux) / obs.flux < 1e-3

    def test_boundary_energy_peaks_inside(self, solved96):
        grid, out = solved96
        _, _, _, obs = out["boundary"]
        i_max, _ = np.unravel_index(np.argmax(obs.energy_density.values), grid.shape)
        assert i_max < grid.nr - 1

    def test_energy_error_refines_with_order_above_1p5(self, disk3, solved96):
        # the flux integral is conserved by the flux-form scheme down to the
        # solver floor, so the measurable refinement order lives in the energy
        _, out = solved96
        cfg, _, _, obs96 = out["centered"]
        grid48 = build_grid(disk3, 48, 48)
        obs48 = compute_observables(*solve_taubes_2d(disk3, cfg, grid48))
        err48 = abs(obs48.energy - math.pi)
        err96 = abs(obs96.energy - math.pi)
        assert math.log2(err48 / err96) / math.log2(96 / 48) >= 1.5
        assert abs(obs96.flux - 2.0 * math.pi) < 1e-7  # conservation floor


def _g17_text(values, seps):
    return _g17_cells(values, seps).tobytes().translate(None, observables._PAD)


def _percent_text(values, seps):
    return b"".join(b"%.17g" % v + bytes([s]) for v, s in zip(values.tolist(), seps.tolist()))


#: The special values above, both sides of every power of ten
#: (``floor(log10)`` can be off by one there), three-digit exponents and the
#: ends of the float64 range.
_POWERS = 10.0 ** np.arange(-30, 31)
_PINNED = np.concatenate(
    [
        _SPECIAL_FINITE,
        np.nextafter(_POWERS, 0.0),
        _POWERS,
        np.nextafter(_POWERS, math.inf),
        [1e-100, 1e100, 1e-308, 1e308, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-320],
        [math.nan, -math.nan, math.inf, -math.inf],
    ]
)


#: Cases of the fixed layout: the point among the digits, mid-range exact ties
#: and 1 to 16 trailing zeros (``1 + 2**-j`` has ``j + 1`` significant digits).
_SPELLED = {
    12.5: b"12.5",
    123456.78901234567: b"123456.78901234567",
    9999999999999998.0: b"9999999999999998",
    100000000000000.125: b"100000000000000.12",
    1000000000000000.75: b"1000000000000000.8",
    0.5: b"0.5",
    3e20: b"3e+20",
    5e-05: b"5.0000000000000002e-05",
    0.000125: b"0.000125",
    -1.2345678901234567e123: b"-1.2345678901234567e+123",
    -1.6021766339999999e-119: b"-1.6021766339999999e-119",
}
_LAYOUT = np.concatenate(
    [
        list(_SPELLED),
        [1.5e-7, 1e16 + 2.0, 12345678901234568.0, 10.0, 99.5],
        1.0 + 2.0 ** -np.arange(17),
        (1.0 + 2.0 ** -np.arange(17)) * 2.0 ** np.arange(-20, 57, 8)[:, None],
    ],
    axis=None,
)


def _record_exact_values(monkeypatch) -> list:
    """A list to which ``_g17_cells`` then appends each array of values it formats by ``%``."""
    sent = []
    exact_text = observables._exact_text

    def spy(values):
        sent.append(values.copy())
        return exact_text(values)

    monkeypatch.setattr(observables, "_exact_text", spy)
    return sent


class TestG17Formatter:
    """``_g17_cells`` spells every float64 as ``b"%.17g" % v`` does."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
        newline=st.lists(st.booleans(), min_size=64, max_size=64),
    )
    def test_raw_bit_patterns(self, bits, newline):
        # raw patterns cover subnormals, nan payloads, negative nan, +-inf and +-0
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        seps = np.where(newline[: len(bits)], ord("\n"), ord(",")).astype(np.uint8)
        assert _g17_text(values, seps) == _percent_text(values, seps)

    def test_random_bit_patterns_in_blocks(self):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 2**64, size=(50, 7), dtype=np.uint64, endpoint=False).view(np.float64)
        seps = np.frombuffer(b",,,,,,\n", dtype=np.uint8)
        assert _g17_text(values, seps) == _percent_text(values.ravel(), np.tile(seps, 50))

    def test_pinned_values(self):
        values = np.concatenate([_PINNED, -_PINNED])
        seps = np.full(values.shape, ord(","), dtype=np.uint8)
        assert _g17_text(values, seps) == _percent_text(values, seps)

    def test_half_even_ties(self):
        # both are exact binary ties at the 17th digit; %g rounds half to even
        values = np.array([1000000000000000.25, 1000000000000000.75])
        assert _g17_text(values, ord(",")) == b"1000000000000000.2,1000000000000000.8,"

    def test_special_values_raise_no_floating_point_error(self):
        values = np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324])
        with np.errstate(all="raise"):
            assert _g17_text(values, ord(",")) == b"nan,nan,inf,-inf,0,-0,4.9406564584124654e-324,"

    @pytest.mark.parametrize("values", [_LAYOUT, -_LAYOUT], ids=["positive", "negative"])
    def test_fixed_layout_cases(self, values):
        seps = np.full(values.shape, ord(","), dtype=np.uint8)
        with np.errstate(all="raise"):
            assert _g17_text(values, seps) == _percent_text(values, seps)

    def test_fixed_layout_spellings(self):
        # the point among the digits, a mid-range exact tie and trailing zeros
        values = np.array(list(_SPELLED))
        assert _g17_text(values, ord(",")) == b"".join(text + b"," for text in _SPELLED.values())

    def test_range_limits(self, monkeypatch):
        limit = observables._LIMIT
        edges = [limit, 1e-290]  # 1/limit rounds to just below 1e-290
        beyond = [np.nextafter(limit, math.inf), np.nextafter(1.0 / limit, 0.0)]
        # just below a power of ten ``floor(log10)`` rounds up, so ``%`` formats these too
        below_power = [np.nextafter(limit, 0.0), 1.0 / limit]
        values = np.array(edges + beyond + below_power)
        values = np.concatenate([values, -values])
        sent = _record_exact_values(monkeypatch)
        seps = np.full(values.shape, ord(","), dtype=np.uint8)
        with np.errstate(all="raise"):
            assert _g17_text(values, seps) == _percent_text(values, seps)
        assert sorted(np.abs(np.concatenate(sent)).tolist()) == sorted(2 * (beyond + below_power))

    def test_exact_path_alone_gives_the_same_bytes(self, monkeypatch):
        # no fraction lies farther than 1/2 from one half, so ``%`` formats every value
        rng = np.random.default_rng(3)
        values = np.concatenate([_PINNED, rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)])
        seps = np.full(values.shape, ord(","), dtype=np.uint8)
        expected = _g17_text(values, seps)
        monkeypatch.setattr(observables, "_TIE_MARGIN", 0.5)
        cells = _g17_cells(values, seps)
        # every cell holds the text that ``%`` padded with spaces
        assert [c[:-1].tobytes().rstrip(b" ") for c in cells] == [b"%.17g" % v for v in values.tolist()]
        assert cells.tobytes().translate(None, observables._PAD) == expected == _percent_text(values, seps)

    def test_scaling_table_is_exact_to_2_pow_104(self):
        # the error bound in ``_scaled`` takes hi + lo within 2**-104 of the power,
        # and Veltkamp's halves of hi of at most 26 significant bits
        t = _g17_tables()
        rows = zip(range(observables._KMIN, observables._KMAX + 1), t.hi, t.lo, t.hi_h, t.hi_l)
        for k, hi, lo, hi_h, hi_l in rows:
            exact = Fraction(10) ** (16 - k)
            assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**104
            assert hi_h + hi_l == hi
            for half in (hi_h, hi_l):
                assert math.ldexp(math.frexp(half)[0], 26).is_integer()

    def test_scaling_error_within_the_bound(self):
        # values are certified only where the margin exceeds the scaling error
        bound = Fraction(1, 2**47)
        assert observables._TIE_MARGIN > bound
        rng = np.random.default_rng(5)
        ax = np.ldexp(rng.random(3000) + 0.5, rng.integers(-960, 960, 3000))
        ax = ax[(ax >= 1.0 / observables._LIMIT) & (ax <= observables._LIMIT)]
        k = np.floor(np.log10(ax)).astype(np.intp)
        whole, frac = observables._scaled(ax, k - observables._KMIN, _g17_tables())
        for a, p, w, f in zip(ax.tolist(), (16 - k).tolist(), whole.tolist(), frac.tolist()):
            y = Fraction(a) * Fraction(10) ** p
            assert y >= 10**17 or abs(w + Fraction(f) - y) <= bound

    def test_few_values_reach_percent(self, monkeypatch, tmp_path, solved96):
        # zeros (theta = 0, and y on that ray) are spelled by ``%``; of the other values
        # only those within the certification margin of a tie are
        grid, out = solved96
        _, field, _, obs = out["mixed"]
        sent = _record_exact_values(monkeypatch)
        export_field_csv(tmp_path / "field.csv", field, obs)
        assert np.count_nonzero(np.concatenate(sent)) <= 1e-3 * 9 * grid.size


class TestExport:
    def test_field_csv_schema(self, tmp_path, solved96):
        grid, out = solved96
        _, field, _, obs = out["centered"]
        path = export_field_csv(tmp_path / "field.csv", field, obs)
        with open(path) as fh:
            header = fh.readline().strip()
            first = fh.readline().strip().split(",")
        assert header == FIELD_CSV_HEADER
        assert len(first) == 9
        with open(path) as fh:
            assert sum(1 for _ in fh) == grid.size + 1

    def test_field_shape_must_match_grid(self, tmp_path, disk3):
        grid = build_grid(disk3, 16, 24)
        good = ScalarField(grid, np.zeros(grid.shape))
        for other in (
            build_grid(disk3, 24, 16), build_grid(disk3, 20, 24), build_grid(ConformalDisk.flat(2.0), 16, 24)
        ):
            bad = ScalarField(other, np.zeros(other.shape))
            for k in range(3):
                fields = [good] * 3
                fields[k] = bad
                with pytest.raises(ValueError, match="not on the grid of htilde"):
                    export_field_csv(tmp_path / "field.csv", good, _observables(*fields))
            with pytest.raises(ValueError, match="not on the grid of htilde"):
                export_field_csv(tmp_path / "field.csv", bad, _observables(good, good, good))
        assert not (tmp_path / "field.csv").exists()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(table=_field_tables())
    def test_field_csv_bytes_match_savetxt(self, tmp_path_factory, table):
        grid, (htilde, h, B, density) = table
        tmp = tmp_path_factory.mktemp("field")
        _savetxt_field_csv(tmp / "oracle.csv", grid, htilde, h, B, density)
        export_field_csv(tmp / "field.csv", htilde, _observables(h, B, density))
        assert (tmp / "field.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(profile=_profiles())
    def test_profile_csv_bytes_match_savetxt(self, tmp_path_factory, profile):
        tmp = tmp_path_factory.mktemp("profile")
        with np.errstate(all="ignore"):
            _savetxt_profile_csv(tmp / "oracle.csv", profile)
            export_profile_csv(tmp / "profile.csv", profile)
        assert (tmp / "profile.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()

    def test_long_profile_bytes_match_savetxt(self, tmp_path, disk3):
        # 5,001 rows: three whole blocks of 1,365 rows and a partial one of 906
        profile = shoot(disk3, n=1, steps=5_000)
        rows = observables._BLOCK_VALUES // 6
        assert len(profile.r) > 2 * rows and len(profile.r) % rows
        _savetxt_profile_csv(tmp_path / "oracle.csv", profile)
        export_profile_csv(tmp_path / "profile.csv", profile)
        assert (tmp_path / "profile.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_profile_csv_schema(self, tmp_path, radial_r3):
        path = export_profile_csv(tmp_path / "profile.csv", radial_r3)
        with open(path) as fh:
            assert fh.readline().strip() == PROFILE_CSV_HEADER

    def test_empty_path_rejected_before_writing(self, radial_r3):
        with pytest.raises(ValueError):
            export_profile_csv("", radial_r3)
        with pytest.raises(ValueError):
            export_json("  ", {})

    def test_json_export_is_deterministic(self, tmp_path, solved96):
        _, out = solved96
        _, _, report, obs = out["centered"]
        doc = solution_summary(obs, report)
        p1 = export_json(tmp_path / "a.json", doc)
        p2 = export_json(tmp_path / "b.json", doc)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
        with open(p1) as fh:
            loaded = json.load(fh)
        assert loaded["schema_version"] == 1
        assert loaded["expected_flux"] == pytest.approx(2.0 * math.pi)
        assert loaded["expected_energy"] == pytest.approx(math.pi)
