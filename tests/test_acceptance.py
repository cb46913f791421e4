"""Acceptance suite: every criterion at its stated tolerance, one line each.

Runs the full verification suite once at the reference 256x256 resolution and
asserts each criterion's records.  Check lines are printed so the run log
carries one pass/fail line per verified statement.
"""

import re
from collections import Counter

import pytest

from nvortex import VortexConfiguration, run_acceptance, solver2d, verification


@pytest.fixture(scope="module")
def log():
    """Every line the suite logs while ``records`` runs it."""
    return []


@pytest.fixture(scope="module")
def records(log):
    return run_acceptance(nr=256, log=log.append)


def _criterion(records, k):
    recs = [r for r in records if r.criterion == k]
    assert recs, f"no records for criterion {k}"
    for rec in recs:
        print(rec.line())
    return recs


def _assert_all(recs):
    failed = [r for r in recs if not r.passed]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_criterion_01_interior_flux_quantization(records):
    _assert_all(_criterion(records, 1))


def test_criterion_02_boundary_flux_quantization(records):
    _assert_all(_criterion(records, 2))


def test_criterion_03_energy_quantization(records):
    _assert_all(_criterion(records, 3))


def test_criterion_04_existence_gate_equivalence(records):
    _assert_all(_criterion(records, 4))


def test_criterion_05_cross_solver_agreement(records):
    _assert_all(_criterion(records, 5))


def test_criterion_06_shooting_setup(records):
    _assert_all(_criterion(records, 6))


def test_criterion_07_moduli_nonlocality(records):
    _assert_all(_criterion(records, 7))


def test_criterion_08_symmetry_suite(records):
    _assert_all(_criterion(records, 8))


def test_criterion_09_boundary_energy_peak_inside(records):
    _assert_all(_criterion(records, 9))


def test_criterion_10_green_function_suite(records):
    _assert_all(_criterion(records, 10))


def test_summary_all_criteria_pass(records):
    failed = [r for r in records if not r.passed]
    print(f"{len(records) - len(failed)}/{len(records)} acceptance checks passed")
    assert not failed


def test_progress_lines_carry_stage_seconds(records, log):
    # The log carries one line per input, each label once; the records are returned.
    labels = []
    for line in log:
        match = re.fullmatch(r"(.+) \.\.\. \d+\.\d\d s", line)
        assert match, line
        labels.append(match.group(1))
    assert len(set(labels)) == len(labels) == 14


def test_each_centred_grid_solved_once(monkeypatch):
    # Every input is made once: the refinement study and the loop-integral
    # check reuse the centred solves by grid size (at nr = 64 the loop grid
    # is the run's own), and each shoot, tangent solve and Green function is
    # made once.
    made = {}

    def count(module, name, key):
        real = getattr(module, name)
        calls = made.setdefault(name, Counter())

        def counting(*args, **kwargs):
            calls[key(*args, **kwargs)] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(solver2d, "_solve", lambda disk, config, grid, *args, **kwargs: (config, grid.radius, grid.nr))
    count(verification, "shoot", lambda disk, n, steps: steps)
    count(verification, "_solve_on", lambda f, radius, r_half, index, dx: (f, radius, r_half.size // 2))
    count(verification, "solve_linearized", lambda profile: profile.steps)
    count(verification, "boundary_ring_position_derivatives", lambda field, report: field.grid.nr)
    count(verification, "neumann_green", lambda disk, grid, node: (grid.nr, node))
    count(verification, "boundary_neumann_green", lambda disk, grid, theta: (grid.nr, grid.ntheta, theta))
    run_acceptance(nr=64, radial_steps=2000)
    centred, boundary = VortexConfiguration.centered(1), VortexConfiguration.boundary_point(0.0, 1)
    pair = VortexConfiguration(interior=((0.5 + 0j, 1), (-0.5 + 0j, 1)))
    # On R = 3; the gate check's N = 3 solve is refused before any grid is solved.
    solves = {(config, nr): n for (config, radius, nr), n in made.pop("_solve").items() if radius == 3.0}
    assert solves == {(centred, 64): 1, (centred, 32): 1, (centred, 16): 1, (boundary, 64): 1, (pair, 64): 1}
    assert made == {
        "shoot": {2000: 1, 4000: 1},
        "_solve_on": {(0.0, 3.0, 2000): 1},  # the vacuum, on the shoot's nodes
        "solve_linearized": {2000: 1},
        "boundary_ring_position_derivatives": {64: 1},
        "neumann_green": {(48, (10, 7)): 1, (48, (30, 29)): 1, (96, (0, 0)): 1},
        "boundary_neumann_green": {(64, 402, 0.0): 1},
    }
