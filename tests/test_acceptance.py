"""Acceptance suite: every criterion at its stated tolerance, one line each.

Runs the full verification suite once at the reference 256x256 resolution and
asserts each criterion's records.  Check lines are printed so the run log
carries one pass/fail line per verified statement.
"""

import re
from collections import Counter

import pytest

from nvortex import VortexConfiguration, run_acceptance, solver2d


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
    # The log carries the timed stages only; the records are returned.
    assert len(log) == 7
    for line in log:
        assert re.fullmatch(r".+ \.\.\. \d+\.\d\d s", line), line


def test_each_centred_grid_solved_once(monkeypatch):
    # The refinement study and the loop-integral check reuse the centred
    # solves by grid size; at nr = 64 the loop grid is the run's own.
    solves = Counter()
    real_solve = solver2d._solve

    def counting(disk, config, grid, *args, **kwargs):
        solves[config, grid] += 1
        return real_solve(disk, config, grid, *args, **kwargs)

    monkeypatch.setattr(solver2d, "_solve", counting)
    run_acceptance(nr=64)
    centred = VortexConfiguration.centered(1)
    counts = {grid.nr: n for (config, grid), n in solves.items() if config == centred and grid.radius == 3.0}
    assert counts == {64: 1, 32: 1, 16: 1}
