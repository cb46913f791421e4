import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nvortex import (
    BradlowViolation,
    ConformalDisk,
    VortexConfiguration,
    build_grid,
    build_singular_part,
    compute_observables,
    solve_taubes_2d,
    solver2d,
)
from nvortex.operators import LinearSolveError

from direct_oracle import solve_direct


@pytest.fixture(scope="module")
def centered64(disk3):
    grid = build_grid(disk3, 64, 64)
    field, report = solve_taubes_2d(disk3, VortexConfiguration.centered(1), grid)
    return grid, field, report


class TestNewtonSolve:
    def test_converges_with_decreasing_residuals(self, centered64):
        _, _, report = centered64
        assert report.converged
        assert report.iterations <= 50
        history = report.residual_history
        assert all(b < a for a, b in zip(history, history[1:]))
        assert report.termination == "converged"
        assert len(report.linear_iterations) == report.iterations

    def test_matches_radial_oracle(self, centered64, radial_r3):
        grid, field, _ = centered64
        err = np.max(np.abs(field.values - radial_r3.htilde_at(grid.r)[:, None]))
        assert err < 2e-3  # discretisation error at 64x64, second order

    def test_rotational_symmetry_of_centered_solve(self, centered64):
        _, field, _ = centered64
        assert np.max(np.ptp(field.values, axis=1)) < 1e-9

    def test_discrete_flux_balance(self, disk3):
        grid = build_grid(disk3, 96, 96)
        _, report = solve_taubes_2d(
            disk3, VortexConfiguration.centered(1), grid, tol=1e-10
        )
        assert report.converged
        assert report.bc_residual < 1e-8

    def test_gate_refuses_overfilled_disk(self, disk3):
        grid = build_grid(disk3, 16, 16)
        with pytest.raises(BradlowViolation):
            solve_taubes_2d(disk3, VortexConfiguration.centered(3), grid)

    def test_max_iter_exhaustion_reports_not_converged(self, disk3):
        grid = build_grid(disk3, 16, 16)
        _, report = solve_taubes_2d(
            disk3, VortexConfiguration.centered(1), grid, max_iter=1
        )
        assert not report.converged
        assert report.iterations == 1
        assert report.termination == "max_iter"
        assert len(report.linear_iterations) == 1 and report.linear_iterations[0] >= 1

    def test_failed_line_search_is_reported(self, disk3, monkeypatch):
        # A zero step never lowers the residual, so every halving is rejected.
        grid = build_grid(disk3, 16, 16)
        monkeypatch.setattr(solver2d, "_solve_spd", lambda lap, shift, rhs, rtol: (0.0 * rhs, 7))
        _, report = solve_taubes_2d(disk3, VortexConfiguration.centered(1), grid)
        assert not report.converged
        assert report.termination == "line_search"
        assert report.iterations == 0
        assert report.linear_iterations == [7]
        assert report.damping_events == solver2d.MAX_HALVINGS + 1

    def test_overflowing_trial_is_rejected(self, disk3, monkeypatch):
        # A first step to h + v0 = 709.5 at one rim node: exp is finite there
        # (1.6e308), its residual in mean-cell units is not.  No other node
        # moves, so no step length lowers the residual.
        grid = build_grid(disk3, 32, 32)
        node = grid.size - 1

        def spike(lap, shift, rhs, rtol):
            delta = np.zeros_like(rhs)
            delta[node] = 709.5 - math.log(shift[node] / lap.weights[node])
            return delta, 0

        monkeypatch.setattr(solver2d, "_solve_spd", spike)
        _, report = solve_taubes_2d(disk3, VortexConfiguration.centered(1), grid)
        assert report.termination == "line_search" and report.iterations == 0
        assert report.damping_events == solver2d.MAX_HALVINGS + 1

    def test_unknown_linear_solver_rejected(self, disk3):
        grid = build_grid(disk3, 16, 16)
        for linear_solver in ("lu", "direct"):
            with pytest.raises(ValueError, match="unknown linear_solver"):
                solve_taubes_2d(disk3, VortexConfiguration.centered(1), grid, linear_solver=linear_solver)

    @pytest.mark.parametrize("tol", [math.nan, -1e-8, math.inf])
    def test_unusable_tol_rejected(self, disk3, tol):
        grid = build_grid(disk3, 16, 16)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            solve_taubes_2d(disk3, VortexConfiguration.centered(1), grid, tol=tol)

    def test_cg_path_matches_direct(self, disk3):
        grid = build_grid(disk3, 32, 32)
        cfg = VortexConfiguration(interior=((0.4 + 0.1j, 1),))
        f_cg, rep_cg = solve_taubes_2d(disk3, cfg, grid, linear_solver="cg")
        f_direct, _ = solve_direct(disk3, cfg, grid)
        assert rep_cg.converged
        assert np.max(np.abs(f_cg.values - f_direct.values)) < 1e-8


#: Interior position inside radius 2.2 of the radius-3 disk, as polar (rho, angle).
_interior = st.tuples(st.floats(0.0, 2.2), st.floats(0.0, 2.0 * math.pi)).map(
    lambda p: p[0] * complex(math.cos(p[1]), math.sin(p[1]))
)


@st.composite
def _configurations(draw):
    """One or two interior vortices and at most one boundary vortex, N + M/2 <= 2."""
    interior = draw(st.lists(_interior, min_size=0, max_size=2))
    boundary = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=0, max_size=1 if len(interior) < 2 else 0))
    if not interior and not boundary:
        interior = [draw(_interior)]
    return VortexConfiguration(
        interior=tuple((z, 1) for z in interior), boundary=tuple((t, 1) for t in boundary)
    )


class TestFastPathAgainstDirect:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(cfg=_configurations())
    def test_random_configurations_match_direct(self, cfg):
        disk = ConformalDisk.flat(3.0)
        grid = build_grid(disk, 32, 32)
        f_cg, rep_cg = solve_taubes_2d(disk, cfg, grid)
        f_direct, rep_direct = solve_direct(disk, cfg, grid)
        assert rep_cg.converged and rep_direct.converged
        assert rep_cg.iterations == rep_direct.iterations
        assert np.max(np.abs(f_cg.values - f_direct.values)) <= 1e-10

    def test_centred_solve_takes_few_cg_iterations(self, disk3):
        # The ring-mean shift is exact for a rotationally symmetric iterate.
        grid = build_grid(disk3, 128, 128)
        _, report = solve_taubes_2d(disk3, VortexConfiguration.centered(1), grid)
        assert report.converged
        assert 1 <= max(report.linear_iterations) <= 3

    def test_cg_stagnation_ends_newton(self, disk3, monkeypatch):
        monkeypatch.setattr(solver2d, "CG_MAX_ITER", 1)
        grid = build_grid(disk3, 32, 32)
        _, report = solve_taubes_2d(disk3, VortexConfiguration.boundary_point(0.3), grid)
        assert not report.converged
        assert report.termination == "linear_solve"
        assert "conjugate gradient" in report.detail


_CASES = {
    "centred": VortexConfiguration.centered(1),
    "boundary": VortexConfiguration.boundary_point(0.3),
    "N=1+M=1": VortexConfiguration(interior=((0.8 - 0.5j, 1),), boundary=((2.0, 1),)),
}


_NESTED_CASES = {**_CASES, "off-centre N=2": VortexConfiguration(interior=((1.1 + 0.4j, 1), (-0.7 - 1.2j, 1)))}
#: Each case at 64^2 (its half grid is below ``NESTED_MIN_POINTS``) and one
#: on an odd grid.
_FORCING_RUNS = [(name, 64) for name in _NESTED_CASES] + [("N=1+M=1", 63)]


class TestForcing:
    @pytest.mark.parametrize("cfg", _CASES.values(), ids=_CASES.keys())
    def test_forcing_bounded_and_final_step_at_tol_floor(self, disk3, cfg):
        grid = build_grid(disk3, 64, 64)
        _, report = solve_taubes_2d(disk3, cfg, grid)
        assert report.converged
        assert len(report.forcing) == len(report.linear_iterations) == report.iterations
        assert all(solver2d.CG_RTOL <= eta <= solver2d.FORCING_MAX for eta in report.forcing)
        assert report.forcing[0] == solver2d.FORCING_MAX
        share = solver2d.FORCING_TOL_SHARE * solver2d.DEFAULT_TOL / report.residual_history[-2]
        assert report.forcing[-1] == max(solver2d.CG_RTOL, min(solver2d.FORCING_MAX, share))

    @pytest.mark.parametrize("name, nr", _FORCING_RUNS, ids=[f"{name} {nr}^2" for name, nr in _FORCING_RUNS])
    def test_forcing_saves_cg_iterations_not_newton_steps(self, disk3, monkeypatch, name, nr):
        grid = build_grid(disk3, nr, nr)  # too small or odd for a half-grid start
        cfg = _NESTED_CASES[name]
        _, inexact = solve_taubes_2d(disk3, cfg, grid)
        monkeypatch.setattr(solver2d, "FORCING_MAX", solver2d.CG_RTOL)
        _, exact = solve_taubes_2d(disk3, cfg, grid)
        assert inexact.converged and exact.converged
        assert inexact.start == exact.start == "product ansatz"
        assert set(exact.forcing) == {solver2d.CG_RTOL}
        assert inexact.iterations == exact.iterations
        if name == "centred":
            assert sum(inexact.linear_iterations) == sum(exact.linear_iterations)
        else:
            assert sum(inexact.linear_iterations) < sum(exact.linear_iterations)

    @given(
        norm=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        tol=st.floats(min_value=0.0, allow_infinity=False),
    )
    @example(norm=solver2d.FORCING_EXACT_BELOW, tol=1.0)
    @example(norm=math.nextafter(solver2d.FORCING_EXACT_BELOW, 0.0), tol=0.0)
    @example(norm=5e-324, tol=1e300)
    def test_forcing_reads_only_the_current_residual(self, norm, tol):
        eta = solver2d._forcing(norm, tol)
        if norm >= solver2d.FORCING_EXACT_BELOW:
            assert eta == solver2d.FORCING_MAX
        else:
            floor = solver2d.FORCING_TOL_SHARE * tol / norm
            assert eta == max(solver2d.CG_RTOL, min(solver2d.FORCING_MAX, floor))
        assert solver2d.CG_RTOL <= eta <= solver2d.FORCING_MAX


def _without_half_grid_start(disk, cfg, grid):
    """Oracle: the same Newton on ``grid`` alone, started from the product ansatz."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver2d, "NESTED_MIN_POINTS", max(grid.shape) + 1)
        return solve_taubes_2d(disk, cfg, grid)


def _record_levels(calls):
    """A stand-in for ``solver2d._solve`` that appends ``(nr, tol, field, report)`` to ``calls`` per grid solved."""
    solve = solver2d._solve

    def record(disk, config, grid, tol, max_iter):
        result = solve(disk, config, grid, tol, max_iter)
        calls.append((grid.nr, tol, *result))
        return result

    return record


def _refuse(*args):
    raise AssertionError("no half-grid start expected")


#: On the flat disk of radius 3 its 64^2 solve ends in line_search: the
#: Neumann data's boundary peak is narrower than the angular spacing.
_NEAR_RIM = VortexConfiguration(interior=((2.99 + 0.0123j, 1),))


@pytest.fixture(scope="module")
def nested256(disk3):
    """Each ``_NESTED_CASES`` solve at 256^2 as ``(nr, tol, field, report)`` per level, coarsest first."""
    levels = {}
    for name, cfg in _NESTED_CASES.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver2d, "_solve", _record_levels(levels.setdefault(name, [])))
            solve_taubes_2d(disk3, cfg, build_grid(disk3, 256, 256))
    return levels


class TestNestedStart:
    @pytest.mark.parametrize("name", _NESTED_CASES)
    def test_one_newton_step_above_the_coarsest_level(self, nested256, name):
        levels = nested256[name]
        assert [(nr, tol) for nr, tol, _, _ in levels] == [
            (64, pytest.approx(1e-4)), (128, pytest.approx(1e-6)), (256, solver2d.DEFAULT_TOL)
        ]
        *_, report = levels[-1]
        assert report.converged and report.start == "half grid"
        assert [steps for _, _, steps, _ in report.coarse[1:]] + [report.iterations] == [1, 1]

    @pytest.mark.parametrize("name", _NESTED_CASES)
    def test_tol_floor_keeps_newton_steps_and_saves_cg(self, disk3, nested256, name):
        # The same nested solve with every step below FORCING_EXACT_BELOW
        # solved to CG_RTOL, whatever its grid's tol.
        levels = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver2d, "FORCING_TOL_SHARE", 0.0)
            patch.setattr(solver2d, "_solve", _record_levels(levels))
            solve_taubes_2d(disk3, _NESTED_CASES[name], build_grid(disk3, 256, 256))
        floored = nested256[name]
        assert [(nr, report.iterations) for nr, _, _, report in floored] == [
            (nr, report.iterations) for nr, _, _, report in levels
        ]
        assert all(report.converged for *_, report in floored)
        assert np.max(np.abs(floored[-1][2].values - levels[-1][2].values)) <= 1e-10
        cg = [sum(sum(report.linear_iterations) for *_, report in run) for run in (floored, levels)]
        assert cg[0] <= cg[1]
        if name != "centred":
            assert cg[0] < cg[1]

    @pytest.mark.parametrize("name", _NESTED_CASES)
    def test_half_grid_energy_as_if_solved_to_tol(self, disk3, nested256, name):
        # The 128^2 level, solved to 100 tol, keeps the energy of 128^2 solved
        # to tol far below its discretisation error (1.6e-6 at the least), so
        # a Richardson estimate from the two grids stays valid.
        nr, _, field, report = nested256[name][1]
        assert nr == 128 and report.converged
        reference = solve_taubes_2d(disk3, _NESTED_CASES[name], build_grid(disk3, 128, 128))
        energy = compute_observables(field, report).energy
        assert energy == pytest.approx(compute_observables(*reference).energy, rel=5e-8)

    @pytest.mark.parametrize("nr", [128, 256])
    @pytest.mark.parametrize("cfg", _NESTED_CASES.values(), ids=_NESTED_CASES.keys())
    def test_matches_zero_start_oracle(self, disk3, cfg, nr):
        grid = build_grid(disk3, nr, nr)
        field, report = solve_taubes_2d(disk3, cfg, grid)
        oracle, oracle_report = _without_half_grid_start(disk3, cfg, grid)
        assert report.converged and oracle_report.converged
        assert np.max(np.abs(field.values - oracle.values)) <= 1e-8
        assert [level[:2] for level in report.coarse] == [(64, 64), (128, 128)][: nr // 128]
        assert report.iterations < oracle_report.iterations
        assert report.start == "half grid" and oracle_report.start == "product ansatz"
        assert len(report.residual_history) == report.iterations + 1
        # Both stop at residual tol; their quantization agrees far below
        # its own discretisation error (about 1e-4 here).
        obs = compute_observables(field, report)
        ref = compute_observables(oracle, oracle_report)
        assert obs.flux == pytest.approx(ref.flux, rel=1e-8)
        assert obs.energy == pytest.approx(ref.energy, rel=1e-8)

    def test_vortex_on_a_half_grid_node_only(self, disk3):
        # x = dr of 128^2 is the first ring of 64^2 (theta = 0), not a 128^2 node.
        grid = build_grid(disk3, 128, 128)
        cfg = VortexConfiguration(interior=((grid.dr, 1),))
        with pytest.raises(ValueError, match="coincides with a grid node"):
            build_singular_part(cfg, disk3, build_grid(disk3, 64, 64))
        field, report = solve_taubes_2d(disk3, cfg, grid)
        oracle, _ = _without_half_grid_start(disk3, cfg, grid)
        assert report.converged and report.coarse == []
        assert report.start == "product ansatz"
        assert np.array_equal(field.values, oracle.values)

    def test_half_grid_linear_failure_solves_without_a_half_grid_start(self, disk3, monkeypatch):
        grid = build_grid(disk3, 128, 128)
        cfg = _CASES["N=1+M=1"]
        oracle, oracle_report = _without_half_grid_start(disk3, cfg, grid)
        spd = solver2d._solve_spd

        def fail_on_half_grid(lap, shift, rhs, rtol):
            if lap.grid.nr < grid.nr:
                raise LinearSolveError("injected")
            return spd(lap, shift, rhs, rtol)

        monkeypatch.setattr(solver2d, "_solve_spd", fail_on_half_grid)
        field, report = solve_taubes_2d(disk3, cfg, grid)
        assert report.converged and report.coarse == [(64, 64, 0, 0)]
        assert report.start == "product ansatz"
        assert report.iterations == oracle_report.iterations
        assert np.array_equal(field.values, oracle.values)

    def test_unconverged_half_grid_is_not_prolonged(self, disk3, monkeypatch):
        grid = build_grid(disk3, 128, 128)
        cfg = _CASES["N=1+M=1"]
        oracle, oracle_report = _without_half_grid_start(disk3, cfg, grid)
        solve = solver2d._solve

        def one_step_on_half_grid(disk, config, g, tol, max_iter):
            return solve(disk, config, g, tol, 1 if g.nr < grid.nr else max_iter)

        monkeypatch.setattr(solver2d, "_solve", one_step_on_half_grid)
        monkeypatch.setattr(solver2d, "_prolong", _refuse)
        field, report = solve_taubes_2d(disk3, cfg, grid)
        assert [level[:3] for level in report.coarse] == [(64, 64, 1)]
        assert report.converged and report.start == "product ansatz"
        assert report.residual_history == oracle_report.residual_history
        assert np.array_equal(field.values, oracle.values)

    def test_near_rim_vortex_whose_half_grid_fails(self, disk3, monkeypatch):
        # The 64^2 level fails, stubbed to step uphill, so 128^2 starts from
        # the product ansatz and 256^2 from the converged 128^2.  The near-rim
        # flux is off by the sampled Neumann data's boundary defect, so it is
        # not asserted here.
        spd = solver2d._solve_spd

        def uphill_on_64(lap, shift, rhs, rtol):
            delta, cg_iterations = spd(lap, shift, rhs, rtol)
            return (-delta if lap.grid.nr == 64 else delta), cg_iterations

        monkeypatch.setattr(solver2d, "_solve_spd", uphill_on_64)
        levels = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver2d, "_solve", _record_levels(levels))
            solve_taubes_2d(disk3, _NEAR_RIM, build_grid(disk3, 256, 256))
        assert [(nr, report.termination) for nr, _, _, report in levels] == [
            (64, "line_search"), (128, "converged"), (256, "converged")
        ]
        assert [report.start for *_, report in levels[1:]] == ["product ansatz", "half grid"]

        grid = build_grid(disk3, 128, 128)
        field, report = solve_taubes_2d(disk3, _NEAR_RIM, grid)
        oracle, _ = _without_half_grid_start(disk3, _NEAR_RIM, grid)
        assert report.converged and report.start == "product ansatz"
        assert np.array_equal(field.values, oracle.values)

    def test_existence_gate_checked_once_per_solve(self, disk3, monkeypatch):
        # The half grids solve the same configuration on the same disk: a
        # 256^2 solve runs three levels and checks the gate once.
        real, gates, levels = solver2d.check_bradlow, [], []

        def counted(config, disk):
            gates.append((config, disk))
            return real(config, disk)

        monkeypatch.setattr(solver2d, "check_bradlow", counted)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver2d, "_solve", _record_levels(levels))
            _, report = solve_taubes_2d(disk3, _CASES["centred"], build_grid(disk3, 256, 256))
        assert report.converged and [nr for nr, *_ in levels] == [64, 128, 256]
        assert gates == [(_CASES["centred"], disk3)]

    def test_fine_grid_validated_before_half_grid(self, disk3, monkeypatch):
        grid = build_grid(disk3, 128, 128)
        built = []

        def refuse_after_recording(cfg, disk, g):
            built.append(g)
            _refuse()

        monkeypatch.setattr(solver2d, "build_singular_part", refuse_after_recording)
        with pytest.raises(AssertionError, match="no half-grid start"):
            solve_taubes_2d(disk3, _CASES["centred"], grid)
        assert built == [grid]

    @pytest.mark.parametrize("shape", [(64, 64), (126, 126), (128, 127)])
    def test_small_or_odd_grids_solve_without_a_half_grid_start(self, disk3, monkeypatch, shape):
        grid = build_grid(disk3, *shape)
        cfg = _CASES["N=1+M=1"]
        oracle, oracle_report = _without_half_grid_start(disk3, cfg, grid)
        monkeypatch.setattr(solver2d, "_prolong", _refuse)
        field, report = solve_taubes_2d(disk3, cfg, grid)
        assert report.coarse == []
        assert report.residual_history == oracle_report.residual_history
        assert np.array_equal(field.values, oracle.values)

    def test_prolongation_exact_for_cartesian_cubics(self, disk3):
        # Along every line through the pole a cubic in x, y is a cubic in r,
        # and on every ring a trigonometric polynomial of degree 3.
        def cubic(g):
            x, y = g.nodes_complex.real, g.nodes_complex.imag
            return x**3 - 2.0 * x * y + 0.5 * y**2 - x + 1.0

        coarse, fine = build_grid(disk3, 32, 20), build_grid(disk3, 64, 40)
        err = np.max(np.abs(solver2d._prolong(cubic(coarse), fine) - cubic(fine).ravel()))
        assert err <= 1e-12


def _from_zero(disk, cfg, grid):
    """Oracle: ``_without_half_grid_start`` with Newton started from ``htilde = 0``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver2d, "_product_start", lambda singular: np.zeros(singular.v0.grid.size))
        return _without_half_grid_start(disk, cfg, grid)


def _outcome(solve, disk, cfg, grid):
    """``(exit code, (field, report) or None)``: 0 converged, else the CLI's code."""
    try:
        field, report = solve(disk, cfg, grid)
    except BradlowViolation:
        return 2, None
    except ValueError:  # a vortex on a grid node
        return 1, None
    return (0 if report.converged else 4), (field, report)


_START_DISKS = (
    ConformalDisk.flat(3.0),
    ConformalDisk.flat(12.0),
    ConformalDisk.from_samples(3.0, (0.0, 0.75, 1.5, 2.25, 3.0), (1.0, 1.1, 1.25, 1.4, 1.5)),
)


@st.composite
def _start_problems(draw, sizes=st.integers(32, 48)):
    """A disk, a grid of ``sizes``, 1-3 interior vortices (n = 1, 2; some within 3% of the rim), 0-2 boundary ones."""
    disk = draw(st.sampled_from(_START_DISKS))
    angle = st.floats(0.0, 2.0 * math.pi)
    fraction = st.one_of(st.floats(0.0, 0.97), st.floats(0.97, 0.999))
    interior = draw(st.lists(st.tuples(fraction, angle, st.sampled_from((1, 2))), min_size=1, max_size=3))
    boundary = draw(st.lists(angle, max_size=2))
    cfg = VortexConfiguration(
        interior=tuple((disk.radius * rho * complex(math.cos(phi), math.sin(phi)), n) for rho, phi, n in interior),
        boundary=tuple((t, 1) for t in boundary),
    )
    return disk, cfg, build_grid(disk, draw(sizes), draw(sizes))


class TestProductStart:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problem=_start_problems())
    def test_product_start_against_zero_start(self, problem):
        # Both starts end the same way; the product start takes no more Newton
        # steps and, converged, the same quantization to far below its
        # discretisation error.
        code, solved = _outcome(solve_taubes_2d, *problem)
        oracle_code, oracle = _outcome(_from_zero, *problem)
        assert code == oracle_code
        if code == 0:
            (field, report), (oracle_field, oracle_report) = solved, oracle
            assert report.start == "product ansatz"
            assert report.iterations <= oracle_report.iterations
            obs, ref = compute_observables(field, report), compute_observables(oracle_field, oracle_report)
            assert obs.flux == pytest.approx(ref.flux, rel=1e-7)
            assert obs.energy == pytest.approx(ref.energy, rel=1e-7)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(problem=_start_problems(sizes=st.just(128)))
    @example(problem=(_START_DISKS[0], _NEAR_RIM, build_grid(_START_DISKS[0], 128, 128)))
    def test_half_grid_start_exactly_when_half_grid_converged(self, problem):
        *_, grid = problem
        levels = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver2d, "_solve", _record_levels(levels))
            _, solved = _outcome(solve_taubes_2d, *problem)
        half = [report.converged for nr, *_, report in levels if nr < grid.nr]
        if solved is not None:
            _, report = solved
            assert len(report.coarse) == len(half)
            assert (report.start == "half grid") == (half == [True])


class TestFluxBalance:
    @pytest.mark.parametrize("nr", [32, 64])
    @pytest.mark.parametrize("solve", [solve_taubes_2d, solve_direct], ids=["cg", "direct"])
    @pytest.mark.parametrize("cfg", _CASES.values(), ids=_CASES.keys())
    def test_bc_residual_small(self, disk3, cfg, solve, nr):
        grid = build_grid(disk3, nr, nr)
        _, report = solve(disk3, cfg, grid)
        assert report.converged
        assert report.bc_residual < 1e-7


def rotated_config(cfg, angle):
    """``cfg`` with every vortex position rotated by ``angle``."""
    phase = complex(math.cos(angle), math.sin(angle))
    return VortexConfiguration(
        interior=tuple((z * phase, n) for z, n in cfg.interior),
        boundary=tuple((t + angle, m) for t, m in cfg.boundary),
    )


class TestSymmetries:
    def test_rotational_equivariance(self, disk3):
        grid = build_grid(disk3, 48, 48)
        cfg = VortexConfiguration(interior=((0.9 + 0j, 1),))
        base, _ = solve_taubes_2d(disk3, cfg, grid)
        k = 7
        rotated, _ = solve_taubes_2d(disk3, rotated_config(cfg, k * grid.dtheta), grid)
        err = np.max(np.abs(np.roll(base.values, k, axis=1) - rotated.values))
        assert err < 1e-9

    def test_reflection_symmetry(self, disk3):
        grid = build_grid(disk3, 48, 48)
        field, _ = solve_taubes_2d(disk3, VortexConfiguration.boundary_point(0.0), grid)
        flipped = field.values[:, (-np.arange(grid.ntheta)) % grid.ntheta]
        assert np.max(np.abs(field.values - flipped)) < 1e-9

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(cfg=_configurations(), k=st.integers(1, 31))
    def test_random_configurations_equivariant(self, cfg, k):
        # Rotating the vortices by k angular cells rolls the solution by k
        # columns; reflecting them in the real axis reflects it.
        disk = ConformalDisk.flat(3.0)
        grid = build_grid(disk, 32, 32)
        mirror = VortexConfiguration(
            interior=tuple((z.conjugate(), n) for z, n in cfg.interior),
            boundary=tuple((-t, m) for t, m in cfg.boundary),
        )
        base, report = solve_taubes_2d(disk, cfg, grid)
        rotated, rotated_report = solve_taubes_2d(disk, rotated_config(cfg, k * grid.dtheta), grid)
        reflected, reflected_report = solve_taubes_2d(disk, mirror, grid)
        assert report.converged and rotated_report.converged and reflected_report.converged
        flip = (-np.arange(grid.ntheta)) % grid.ntheta
        assert np.max(np.abs(np.roll(base.values, k, axis=1) - rotated.values)) <= 1e-11
        assert np.max(np.abs(base.values[:, flip] - reflected.values)) <= 1e-11


class TestReconstruction:
    def test_field_modulus_below_one(self, centered64):
        _, field, report = centered64
        h = compute_observables(field, report).h
        assert np.max(h.values) <= 1e-6

    def test_core_suppression(self, centered64):
        _, field, report = centered64
        h = compute_observables(field, report).h
        assert np.all(np.exp(h.values[0]) < 1e-2)  # nodes adjacent to the core

    def test_far_field_approaches_vacuum_on_large_disk(self):
        disk = ConformalDisk.flat(12.0)
        grid = build_grid(disk, 96, 96)
        field, report = solve_taubes_2d(disk, VortexConfiguration.centered(1), grid)
        assert report.converged
        h = compute_observables(field, report).h
        mid = grid.nr // 2
        assert np.exp(h.values[mid, 0]) > 0.9

    def test_solve_on_curved_disk_converges(self):
        r = np.linspace(0.0, 3.0, 61)
        disk = ConformalDisk.from_samples(3.0, r, 1.0 + 0.2 * r)
        grid = build_grid(disk, 32, 32)
        field, report = solve_taubes_2d(disk, VortexConfiguration.centered(1), grid)
        assert report.converged
        assert report.bc_residual < 1e-7
