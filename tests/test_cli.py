import dataclasses
import json
import math
import os
import re
import time

import numpy as np
import pytest

from nvortex import build_grid, cli, compute_observables, moduli, solver2d, verification
from nvortex.config import load_run_config
from nvortex.observables import FIELD_CSV_HEADER
from nvortex.operators import LinearSolveError
from nvortex.verification import CheckResult
from radial_oracle import integrate_radial


#: A flat disk of area 4 pi (1 + 1e-8), just above a unit vortex's existence bound.
NEAR_BOUND_RADIUS = 2.0 * math.sqrt(1.0 + 1e-8)


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(**overrides):
    doc = {
        "radius": 3.0,
        "interior": [{"x": 0.0, "y": 0.0, "n": 1}],
        "grid": {"nr": 32, "ntheta": 32},
        "radial": {"steps": 2000},
    }
    doc.update(overrides)
    return doc


def _unconverged_shoot(disk, *, n, steps):
    """A real profile at ``h0 = -1``, off the root, so its outer slope misses ``SLOPE_TOL``."""
    return integrate_radial(-1.0, disk, n, steps=steps)


def _failed_linear_solve(*args, **kwargs):
    """A stand-in for ``_solve_spd`` whose every solve fails."""
    raise LinearSolveError("injected failure")


def _assert_shoot_reason(err):
    match = re.search(r"radial shoot did not converge \(slope_residual\): boundary-slope residual (\S+) "
                      r"> tol (\S+) at (\d+) steps, h0 = (\S+)", err)
    assert match, err
    assert float(match.group(1)) > 1e-6
    assert float(match.group(2)) == 1e-6
    assert match.group(3) == "2000"
    assert float(match.group(4)) == -1.0


class TestCheck:
    def test_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        assert cli.main(["check", "--config", cfg]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["margin"] == pytest.approx(1.25, abs=1e-9)
        assert doc["passed"] is True

    def test_violation_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(interior=[{"x": 0, "y": 0, "n": 3}]))
        assert cli.main(["check", "--config", cfg]) == cli.EXIT_BRADLOW
        doc = json.loads(capsys.readouterr().out)
        assert doc["margin"] == pytest.approx(-0.75, abs=1e-9)

    def test_malformed_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"interior": [{"x": 0, "y": 0}]})
        assert cli.main(["check", "--config", cfg]) == cli.EXIT_CONFIG
        assert "radius" in capsys.readouterr().err


    def test_section_of_wrong_type_is_config_error(self, tmp_path, run_python):
        cfg = write_config(tmp_path, {"radius": 3, "interior": 5})
        done = run_python("-m", "nvortex", "check", "--config", cfg, returncode=cli.EXIT_CONFIG)
        assert "configuration error" in done.stderr
        assert "configuration.interior must be a list" in done.stderr
        assert "Traceback" not in done.stderr

class TestSolveRadial:
    def test_writes_profile_and_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(outputs={"dir": str(out)}))
        assert cli.main(["solve-radial", "--config", cfg]) == cli.EXIT_OK
        assert (out / "profile.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert abs(report["boundary_slope"] + 2.0 / 3.0) < 1e-6

    def test_bradlow_violation_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(radius=1.0))
        assert cli.main(["solve-radial", "--config", cfg]) == cli.EXIT_BRADLOW

    def test_noncentered_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(interior=[{"x": 0.5, "y": 0, "n": 1}]))
        assert cli.main(["solve-radial", "--config", cfg]) == cli.EXIT_CONFIG

    def test_profile_independent_of_blas_threads(self, tmp_path, run_python):
        # 100k steps: the Newton sweeps' banded LAPACK solve has 633 unknowns.
        cfg = write_config(tmp_path, base_doc(radial={"steps": 100000}))
        for threads in (1, 2):
            out = str(tmp_path / f"t{threads}")
            run_python("-m", "nvortex", "solve-radial", "--config", cfg, "--out", out, threads=threads)
        for name in ("report.json", "profile.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    def test_unconverged_shoot_says_why(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "shoot", _unconverged_shoot)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(outputs={"dir": str(out)}))
        assert cli.main(["solve-radial", "--config", cfg]) == cli.EXIT_SHOOT
        captured = capsys.readouterr()
        assert json.loads(captured.out)["converged"] is False
        _assert_shoot_reason(captured.err)


    def test_twenty_vortices_converge(self, tmp_path, capsys):
        # The n = 20 core value, -68.55, lies below SCAN_LOW; Newton starts
        # from the bag estimate and its low bound follows that start.
        doc = base_doc(radius=19.42, interior=[{"x": 0, "y": 0, "n": 20}], radial={"steps": 6000})
        assert cli.main(["solve-radial", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True and report["h0"] == pytest.approx(-68.55, abs=0.01)

    def test_stalled_shoot_exits_without_warnings(self, tmp_path, capsys):
        # At 1,000 steps there is no coarser mesh: 1e-8 above the existence
        # bound the one Newton spends all its sweeps on a core value sinking
        # toward -inf, and the profile's observables are written; the suite
        # turns warnings into errors.
        out = tmp_path / "out"
        doc = base_doc(radius=NEAR_BOUND_RADIUS, radial={"steps": 1000})
        assert cli.main(["solve-radial", "--config", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_SHOOT
        err = capsys.readouterr().err
        assert err.startswith("radial shoot did not converge (max_sweeps): Newton stalled after 20 sweeps ")
        assert (out / "profile.csv").exists()

    @pytest.mark.parametrize(
        "overrides, finite",
        [
            ({"radius": NEAR_BOUND_RADIUS, "radial": {"steps": 1000}}, True),
            ({"omega": [[0.0, 1e6], [3.0, 1.0]], "radial": {"steps": 7000}}, True),
            ({"radius": 2000.0, "radial": {"steps": 1000}}, False),
        ],
        ids=["near-bound-1k", "steep-Omega", "R2000-1k"],
    )
    def test_failed_shoot_writes_strict_json(self, tmp_path, capsys, overrides, finite):
        # JSON has no NaN or Infinity: a value the failed shoot left non-finite
        # (flat R = 2000 at 1,000 steps overflows) is null, and "steps" is the
        # requested count, not the coarse mesh's.
        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(**overrides))
        assert cli.main(["solve-radial", "--config", cfg, "--out", str(out)]) == cli.EXIT_SHOOT
        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert report == json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["converged"] is False and report["steps"] == overrides["radial"]["steps"]
        values = [report[key] for key in ("h0", "residual", "boundary_slope")]
        assert all(isinstance(v, float) for v in values) if finite else values[1:] == [None, None]

    def test_overflowing_coarse_stage_exits_cleanly(self, tmp_path, run_python):
        # Omega(0) = 1e6 overflows the coarse Newton; no fine sweep runs on
        # its NaN starts, so nothing warns even with warnings as errors.
        doc = base_doc(omega=[[0.0, 1e6], [3.0, 1.0]], radial={"steps": 7000})
        cfg = write_config(tmp_path, doc)
        reason = "radial shoot did not converge (non_finite): coarse Newton stalled after 5 sweeps ("
        for command, code, prefix in (("solve-radial", cli.EXIT_SHOOT, ""),
                                      ("metric", cli.EXIT_METRIC, "metric pipeline failed: ")):
            done = run_python("-W", "error::RuntimeWarning", "-m", "nvortex", command, "--config", cfg,
                              "--out", str(tmp_path / command), returncode=code)
            assert done.stderr.startswith(prefix + reason), done.stderr
            assert done.stderr.count("\n") == 1, done.stderr


class TestSolve2d:
    def test_writes_field_and_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(outputs={"dir": str(out)}))
        assert cli.main(["solve-2d", "--config", cfg]) == cli.EXIT_OK
        assert (out / "field.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["flux"] == pytest.approx(report["expected_flux"], rel=0.05)

    def test_deterministic_reports(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path, base_doc())
        assert cli.main(["solve-2d", "--config", cfg, "--out", str(out_a)]) == cli.EXIT_OK
        assert cli.main(["solve-2d", "--config", cfg, "--out", str(out_b)]) == cli.EXIT_OK
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "field.csv").read_bytes() == (out_b / "field.csv").read_bytes()

    def test_field_csv_matches_savetxt_oracle(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, base_doc(grid={"nr": 16, "ntheta": 24}))
        assert cli.main(["solve-2d", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_OK
        cfg = load_run_config(cfg_path)
        grid = build_grid(cfg.disk, 16, 24)
        field, report = solver2d.solve_taubes_2d(
            cfg.disk, cfg.vortices, grid, tol=cfg.tol, max_iter=cfg.max_iter
        )
        obs = compute_observables(field, report)
        h = field.values + report.singular.v0.values
        z = grid.nodes_complex
        cols = np.column_stack(
            [
                np.repeat(grid.r, grid.ntheta),
                np.tile(grid.theta, grid.nr),
                z.real.ravel(),
                z.imag.ravel(),
                field.values.ravel(),
                h.ravel(),
                np.exp(h).ravel(),
                obs.B.values.ravel(),
                obs.energy_density.values.ravel(),
            ]
        )
        oracle = tmp_path / "oracle.csv"
        np.savetxt(oracle, cols, fmt="%.17g", delimiter=",", header=FIELD_CSV_HEADER, comments="")
        assert (out / "field.csv").read_bytes() == oracle.read_bytes()

    def test_newton_exhaustion_exit(self, tmp_path, capsys):
        doc = base_doc(solver={"tol": 1e-8, "max_iter": 1})
        cfg = write_config(tmp_path, doc)
        assert cli.main(["solve-2d", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_NEWTON

    def test_newton_stop_reason_on_stderr(self, tmp_path, capsys):
        doc = base_doc(solver={"tol": 1e-8, "max_iter": 1})
        cfg = write_config(tmp_path, doc)
        assert cli.main(["solve-2d", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_NEWTON
        assert "max_iter after 1 iterations" in capsys.readouterr().err

    def test_gate_violation_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(interior=[{"x": 0, "y": 0, "n": 3}]))
        assert cli.main(["solve-2d", "--config", cfg]) == cli.EXIT_BRADLOW

    def test_linear_solve_failure_exit(self, tmp_path, capsys, monkeypatch):
        # A failed linear solve is a Newton stop like the others: the files
        # are written and the exit code is 4.
        monkeypatch.setattr(solver2d, "_solve_spd", _failed_linear_solve)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(grid={"nr": 16, "ntheta": 16}))
        assert cli.main(["solve-2d", "--config", cfg, "--out", str(out)]) == cli.EXIT_NEWTON
        err = capsys.readouterr().err
        assert "linear_solve" in err and "injected failure" in err
        assert json.loads((out / "report.json").read_text())["converged"] is False
        assert (out / "field.csv").exists()

    def test_linear_solve_failure_names_newton_step(self, tmp_path, capsys):
        # 0.01 from the boundary at dr ~ 0.047: exp(h) collapses over the
        # Newton steps until mode 0 of the preconditioner is singular.
        doc = base_doc(interior=[{"x": 2.99, "y": 1e-4, "n": 1}], grid={"nr": 64, "ntheta": 64})
        cfg = write_config(tmp_path, doc)
        assert cli.main(["solve-2d", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_NEWTON
        err = capsys.readouterr().err
        assert re.search(r"linear_solve after \d+ iterations \(residual [^)]+\): polar mode 0 is singular", err)

    def test_reports_independent_of_blas_threads(self, tmp_path, run_python):
        # At 128^2 (16,384 nodes) OpenBLAS splits a ddot across threads; at
        # 64^2 it does not, so a smaller grid would not test anything.
        doc = base_doc(
            interior=[{"x": 0.7, "y": 0.3, "n": 1}, {"x": -0.5, "y": -0.8, "n": 1}],
            grid={"nr": 128, "ntheta": 128},
        )
        cfg = write_config(tmp_path, doc)
        for threads in (1, 2):
            out = str(tmp_path / f"t{threads}")
            run_python("-m", "nvortex", "solve-2d", "--config", cfg, "--out", out, threads=threads)
        for name in ("report.json", "field.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    def test_grid_override(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(outputs={"dir": str(out)}))
        assert cli.main(["solve-2d", "--config", cfg, "--nr", "16", "--ntheta", "16"]) == cli.EXIT_OK
        with open(out / "field.csv") as fh:
            assert sum(1 for _ in fh) == 16 * 16 + 1


class TestMetric:
    def test_writes_metric_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_doc(grid={"nr": 48, "ntheta": 48}, radial={"steps": 20000},
                       outputs={"dir": str(out)})
        cfg = write_config(tmp_path, doc)
        assert cli.main(["metric", "--config", cfg]) == cli.EXIT_OK
        doc = json.loads((out / "metric.json").read_text())
        assert doc["nonlocal_boundary_term"] is True
        assert doc["boundary_term"] > 0.0
        assert doc["total_coefficient"] == pytest.approx(
            doc["boundary_term"] + doc["local_term"]
        )

    def test_large_disk(self, tmp_path, capsys):
        # One march across [eps, 25] cannot meet the outer slope; multiple
        # shooting can, and the metric nears pi, its value on the plane.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(radius=25.0, radial={"steps": 50000}))
        assert cli.main(["metric", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / "metric.json").read_text())
        assert doc["total_coefficient"] == pytest.approx(math.pi, abs=1e-7)

    def test_metric_json_keys(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc())
        assert cli.main(["metric", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / "metric.json").read_text())
        assert set(doc) == {
            "schema_version", "boundary_value", "boundary_term", "samols_b_re", "samols_b_im",
            "db_dZ_re", "db_dZ_im", "db_dZ_coarse_re", "db_dZ_coarse_im", "local_term",
            "total_coefficient", "delta", "nonlocal_boundary_term",
        }
        assert doc["delta"] == 0.03  # R/100; nothing is differenced with it
        assert json.loads(capsys.readouterr().out) == doc

    def test_formats_without_json_write_no_metric_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(outputs={"dir": str(out), "formats": ["csv"]}))
        assert cli.main(["metric", "--config", cfg]) == cli.EXIT_OK
        assert not out.exists()
        assert json.loads(capsys.readouterr().out)["nonlocal_boundary_term"] is True

    def test_metric_independent_of_blas_threads(self, tmp_path, run_python):
        cfg = write_config(tmp_path, base_doc())
        for threads in (1, 2):
            out = str(tmp_path / f"t{threads}")
            run_python("-m", "nvortex", "metric", "--config", cfg, "--out", out, threads=threads)
        one, two = ((tmp_path / f"t{threads}" / "metric.json").read_bytes() for threads in (1, 2))
        assert one == two

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"solver": {"tol": float("nan")}}, "solver.tol must be finite"),
            ({"radius": float("inf")}, "configuration.radius must be finite"),
            # a metric section is not part of the schema, whatever its delta
            ({"metric": {"delta": 0.0}}, "unknown field(s) ['metric'] in configuration"),
            ({"metric": {"delta": 5.0}}, "unknown field(s) ['metric'] in configuration"),
            # nor are a seed radius and a slope tolerance for the shoot
            ({"radial": {"eps": 5.0}}, "unknown field(s) ['eps'] in radial"),
            ({"radial": {"tol": 1e-6}}, "unknown field(s) ['tol'] in radial"),
        ],
        ids=["tol-nan", "radius-inf", "delta-zero", "delta-outside-disk", "eps-outside-disk", "radial-tol"],
    )
    def test_unusable_number_is_config_error(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(**overrides))
        assert cli.main(["metric", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "metric.json").exists()


    @pytest.mark.parametrize(
        "vortices, message",
        [
            ({"interior": [{"x": 1.5, "y": 0.0, "n": 1}]}, "metric needs a purely interior"),
            ({"interior": [{"x": 0.0, "y": 0.0, "n": 2}]}, "metric needs one unit vortex"),
            ({"interior": [{"x": 1.5, "y": 0.0, "n": 2}], "boundary": [{"theta": 0.0, "m": 1}]},
             "metric needs a purely interior"),
            ({"interior": [], "boundary": [{"theta": 0.0, "m": 1}]}, "metric needs a purely interior"),
            ({"interior": []}, "at least one vortex"),
        ],
        ids=["off-centre", "N=2", "N=2-plus-boundary", "boundary-only", "no-vortex"],
    )
    def test_rejects_other_than_one_centred_vortex(self, tmp_path, capsys, monkeypatch, vortices, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("the configuration must be rejected before any solve")

        monkeypatch.setattr(cli, "metric_coefficient", no_solve)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(**vortices))
        assert cli.main(["metric", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not (out / "metric.json").exists()

    def test_unconverged_shoot_says_why(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(moduli, "shoot", _unconverged_shoot)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc())
        assert cli.main(["metric", "--config", cfg, "--out", str(out)]) == cli.EXIT_METRIC
        err = capsys.readouterr().err
        assert "metric pipeline failed" in err
        _assert_shoot_reason(err)
        assert not (out / "metric.json").exists()

    def test_overflowing_boundary_term_is_a_metric_failure(self, tmp_path, capsys, monkeypatch):
        # No disk is known to overflow the linearised boundary value (flat
        # R = 3000 gives 1.6e-13), so a patched solve returns 1e200, whose
        # square overflows.
        real_solve = moduli.solve_linearized
        monkeypatch.setattr(moduli, "solve_linearized",
                            lambda *args: dataclasses.replace(real_solve(*args), boundary_value=1e200))
        out = tmp_path / "out"
        doc = base_doc()
        assert cli.main(["metric", "--config", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_METRIC
        err = capsys.readouterr().err
        assert err == "metric pipeline failed: boundary term overflows: the linearized boundary value is 1e+200\n"
        assert not (out / "metric.json").exists()

    @pytest.mark.parametrize("radius", [1500.0, 2000.0])
    def test_very_large_flat_disks(self, tmp_path, capsys, radius):
        # RK4 in log r at 7,000 steps was unstable here (boundary values
        # 1.8e-6 and 1.66e51); the shoot's mesh in r is not.
        out = tmp_path / "out"
        doc = {"radius": radius, "interior": [{"x": 0.0, "y": 0.0, "n": 1}]}
        assert cli.main(["metric", "--config", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_OK
        report = json.loads((out / "metric.json").read_text())
        assert abs(report["boundary_value"]) < 1e-12

    def test_radial_steps_reach_the_shoot(self, tmp_path, capsys, monkeypatch):
        seen = []
        real_shoot = moduli.shoot

        def recorded(*args, **kwargs):
            seen.append(kwargs)
            return real_shoot(*args, **kwargs)

        monkeypatch.setattr(moduli, "shoot", recorded)
        cfg = write_config(tmp_path, base_doc())
        assert cli.main(["metric", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert seen == [{"n": 1, "steps": 2000}]


class TestExistenceBound:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("solve-2d", base_doc(interior=[{"x": 0, "y": 0, "n": 3}])),
            ("solve-radial", base_doc(interior=[{"x": 0, "y": 0, "n": 3}])),
            ("metric", base_doc(radius=1.0)),
        ],
        ids=["solve-2d", "solve-radial", "metric"],
    )
    def test_violation_message_printed_once(self, tmp_path, capsys, command, doc):
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_BRADLOW
        assert capsys.readouterr().err == "existence bound violated: margin A/(4*pi) - N - M/2 = -0.75 <= 0\n"


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["nvortex", "nvortex.cli"])
    def test_python_m_runs_the_cli(self, tmp_path, run_python, module):
        cfg = write_config(tmp_path, base_doc())
        done = run_python("-m", module, "check", "--config", cfg)
        doc = json.loads(done.stdout)
        assert doc["margin"] == pytest.approx(1.25, abs=1e-9)
        assert doc["passed"] is True

    def test_import_leaves_sparse_linalg_unloaded(self, run_python):
        # Every linear solve is the library's own PCG or a LAPACK routine, and
        # the Laplacian is applied from its couplings with no sparse matrix.
        code = "import sys, nvortex.cli; print('scipy.sparse.linalg' in sys.modules, 'scipy.sparse' in sys.modules)"
        assert run_python("-c", code).stdout.strip() == "False False"


#: The options each command takes; every other option is a usage error.
HONOURED = {
    "check": {"--config"},
    "solve-radial": {"--config", "--out"},
    "solve-2d": {"--config", "--nr", "--ntheta", "--tol", "--out"},
    "metric": {"--config", "--out"},
    "verify": {"--config", "--nr", "--tol", "--out"},
}
UNHONOURED = [
    (command, option)
    for command, honoured in HONOURED.items()
    for option in ("--nr", "--ntheta", "--tol", "--out")
    if option not in honoured
]


#: ``nvortex *sys.argv[1:]`` with the address space capped at 1 TiB.
CAPPED_CLI = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1 << 40 if hard == resource.RLIM_INFINITY else min(1 << 40, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from nvortex.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestUsageErrors:
    # argparse would exit with 2, the code of a violated existence bound.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve-2d"], "nvortex solve-2d: the following arguments are required: --config"),
            (["verify", "--nr", "abc"], "nvortex verify: argument --nr: invalid int value: 'abc'"),
            (["metric", "--config", "c.json", "--bogus", "1"], "nvortex: unrecognized arguments: --bogus 1"),
        ],
        ids=["missing-config", "non-integer-nr", "unknown-option"],
    )
    def test_usage_error_is_config_error(self, capsys, argv, message):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", UNHONOURED, ids=[f"{c}-{o[2:]}" for c, o in UNHONOURED])
    def test_option_a_command_ignores_is_unrecognised(self, tmp_path, capsys, monkeypatch, command, option):
        def no_solve(*args, **kwargs):
            raise AssertionError("the option must be refused before any solve")

        for name in ("shoot", "solve_taubes_2d", "metric_coefficient", "run_acceptance", "bradlow_margin"):
            monkeypatch.setattr(cli, name, no_solve)
        value = str(tmp_path / "out") if option == "--out" else "16"
        argv = [command, "--config", write_config(tmp_path, base_doc()), option, value]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: nvortex: unrecognized arguments: {option} {value}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-2d", "--config", "c.json", "--out", "o"],
            ["solve-2d", "--config", "c.json", "--nr", "24", "--ntheta", "24", "--out", "o"],
            ["metric", "--config", "c.json", "--out", "o"],
            ["verify", "--config", "c.json", "--out", "o", "--nr", "64"],
        ],
        ids=["solve-2d", "solve-2d-grid", "metric", "verify"],
    )
    def test_benchmark_argv_is_accepted(self, argv):
        # perfbench/jobs.py passes --config and --out to each command it runs.
        args = cli._build_parser().parse_args(argv)
        assert args.config == "c.json" and args.out == "o"

    @pytest.mark.parametrize("argv", [["--help"], ["metric", "--help"]], ids=["top", "subcommand"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 0
        assert "usage: nvortex" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, document",
        [
            # 7.28 TiB for PolarGrid.r_faces
            (["solve-2d"], base_doc(grid={"nr": 1e12})),
            # 14.2 PiB for the half-node radii of shooting._segments
            (["solve-radial"], base_doc(radial={"steps": 1e15})),
            # the same for the shoot of the metric pipeline
            (["metric"], base_doc(radial={"steps": 1e15})),
            # 7.28 TiB for the grid of the first solve
            (["verify", "--nr", "1000000000000"], None),
        ],
        ids=["solve-2d-nr", "solve-radial-steps", "metric-steps", "verify-nr"],
    )
    def test_oversized_input_is_config_error(self, tmp_path, run_python, argv, document):
        # The address space is capped at 1 TiB, so the allocation fails at
        # once even where the kernel would overcommit it.
        if document is not None:
            argv = argv + ["--config", write_config(tmp_path, document), "--out", str(tmp_path / "out")]
        done = run_python("-c", CAPPED_CLI, *argv, returncode=cli.EXIT_CONFIG)
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("configuration error: input too large to allocate: Unable to allocate")
        assert done.stderr.count("\n") == 1


class TestOverrides:
    # Each override is a field of the document, checked by the parser's rule.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve-2d", "--tol", "nan"], "solver.tol must be finite, got nan"),
            (["solve-2d", "--tol", "-1"], "solver.tol must be >= 0.0, got -1.0"),
            (["solve-2d", "--nr", "4"], "grid.nr must be >= 8, got 4"),
            (["verify", "--nr", "0"], "grid.nr must be >= 8, got 0"),
            (["verify", "--nr", "8"], "verify needs nr >= 32 (it also solves at nr/4), got 8"),
            (["verify", "--tol", "inf"], "solver.tol must be finite, got inf"),
            (["solve-radial", "--out", ""], "outputs.dir must be a non-empty string"),
            (["solve-2d", "--out", ""], "outputs.dir must be a non-empty string"),
            (["metric", "--out", ""], "outputs.dir must be a non-empty string"),
        ],
        ids=["tol-nan", "tol-negative", "nr-4", "verify-nr-0", "verify-nr-8", "verify-tol-inf",
             "solve-radial-out-empty", "solve-2d-out-empty", "metric-out-empty"],
    )
    def test_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, argv, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("overrides must be checked before any solve")

        for name in ("shoot", "solve_taubes_2d", "metric_coefficient"):
            monkeypatch.setattr(cli, name, no_solve)
        # verify's own bound on nr is run_acceptance's, so patch what it solves with
        for name in ("shoot", "solve_taubes_2d", "solve_linearized",
                     "boundary_ring_position_derivatives", "neumann_green", "boundary_neumann_green"):
            monkeypatch.setattr(verification, name, no_solve)
        monkeypatch.chdir(tmp_path)  # where the default output directory would go
        if argv[0] != "verify":
            argv = [*argv, "--config", write_config(tmp_path, base_doc())]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == ([] if argv[0] == "verify" else ["run.json"])

    @pytest.mark.parametrize("command", ["solve-2d", "solve-radial", "metric"])
    @pytest.mark.parametrize(
        "out, reason",
        [("afile", "File exists"), ("afile/sub", "Not a directory"), ("/proc/nope", "No such file or directory")],
        ids=["existing-file", "under-a-file", "proc"],
    )
    def test_unusable_output_dir_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, command, out, reason):
        def no_solve(*args, **kwargs):
            raise AssertionError("the output directory must be checked before any solve")

        for name in ("shoot", "solve_taubes_2d", "metric_coefficient"):
            monkeypatch.setattr(cli, name, no_solve)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        argv = [command, "--config", write_config(tmp_path, base_doc()), "--out", out]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: outputs.dir {out!r} is not a usable directory: {reason}\n"

    @pytest.mark.parametrize(
        "command, name",
        [("solve-2d", "field.csv"), ("solve-2d", "report.json"), ("metric", "metric.json"),
         ("solve-radial", "profile.csv"), ("solve-radial", "report.json")],
    )
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys, command, name):
        out = str(tmp_path / "o")
        os.makedirs(os.path.join(out, name))
        argv = [command, "--config", write_config(tmp_path, base_doc()), "--out", out]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: cannot write {os.path.join(out, name)}: Is a directory\n"

    def test_output_dir_unused_when_no_file_goes_there(self, tmp_path, capsys, monkeypatch):
        # metric writes only JSON: with CSV alone it writes nothing, so its solve runs
        def failing_metric(*args, **kwargs):
            raise RuntimeError("stub")

        monkeypatch.setattr(cli, "metric_coefficient", failing_metric)
        (tmp_path / "afile").write_text("")
        doc = base_doc(outputs={"formats": ["csv"]})
        argv = ["metric", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "afile")]
        assert cli.main(argv) == cli.EXIT_METRIC
        assert capsys.readouterr().err == "metric pipeline failed: stub\n"

    @pytest.mark.parametrize(
        "document, message",
        [
            ([1, 2], "configuration document must be a JSON object"),
            ({"radius": 3.0, "grid": 5}, "configuration.grid must be an object, got 5"),
        ],
        ids=["top-level-list", "grid-number"],
    )
    def test_malformed_document_stays_a_config_error(self, tmp_path, capsys, document, message):
        cfg = write_config(tmp_path, document)
        for command in ("solve-2d", "verify"):
            assert cli.main([command, "--config", cfg, "--nr", "32"]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == f"configuration error: {message}\n"


#: The checks of ``verify`` that read a 2-D solve (the centred one, the
#: boundary one, the N = 2 one and the refinement levels), each with the
#: first solve it reads at ``--nr 64``.
ROWS_READING_A_SOLVE = {
    **dict.fromkeys(("interior flux = 2*pi", "interior energy = pi", "energy = flux/2 (interior)",
                     "solver converges N=1 at R=3", "core coefficient b(0) = 0",
                     "rotational symmetry of centered solve", "loop integral matches closed form"),
                    "centred vortex at 64x64"),
    **dict.fromkeys(("boundary flux = pi", "boundary energy = pi/2", "energy = flux/2 (boundary)",
                     "reflection symmetry of boundary solve", "energy maximum strictly inside the disk"),
                    "boundary vortex at 64x64"),
    "solver converges N=2 at R=3": "N=2 configuration at 64x64",
    **dict.fromkeys(("2d field matches radial profile", "observed convergence order"), "centred vortex at 16x16"),
}


class TestVerify:
    def _stub(self, passed):
        return [
            CheckResult(1, "flux", passed, "detail"),
            CheckResult(2, "energy", True, "detail"),
        ]

    def test_all_pass_exit_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_acceptance", lambda **kw: self._stub(True))
        assert cli.main(["verify", "--nr", "64"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "2/2 checks passed" in out

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_acceptance", lambda **kw: self._stub(False))
        assert cli.main(["verify", "--nr", "64"]) == cli.EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out

    def test_gate_note_for_violating_domain(self, tmp_path, capsys):
        # verify reads grid.nr, solver.tol and radial.steps only: a configured
        # domain that violates the existence bound changes no row and adds none.
        def rows(argv):
            assert cli.main(argv) == cli.EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            assert not any(line.lstrip().startswith("gate") for line in lines)
            # each row without the seconds of its check
            return [line.rsplit(") ", 1)[0] for line in lines if re.match(r" +\d+  (PASS|FAIL)  ", line)]

        # The reference document's radial steps and tol (their defaults), on an overfilled disk.
        cfg = write_config(tmp_path, {"radius": 3.0, "interior": [{"x": 0, "y": 0, "n": 3}]})
        assert cli.main(["check", "--config", cfg]) == cli.EXIT_BRADLOW
        capsys.readouterr()
        reference = rows(["verify", "--nr", "32"])
        assert len(reference) == 28
        assert rows(["verify", "--config", cfg, "--nr", "32"]) == reference

    def test_each_check_printed_once(self, capsys, monkeypatch):
        records = []
        real = cli.run_acceptance
        monkeypatch.setattr(cli, "run_acceptance", lambda **kw: records.extend(real(**kw)) or records)
        assert cli.main(["verify", "--nr", "32"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(records) == 28
        for rec in records:
            assert [line for line in lines if f"  {rec.name} (" in line] == [rec.line()]
        # one line per input, each label once, then the table with its header, and the summary
        inputs = [line for line in lines if re.fullmatch(r".+ \.\.\. \d+\.\d\d s", line)]
        labels = [line.rsplit(" ... ", 1)[0] for line in inputs]
        assert len(set(labels)) == len(labels) == 14 and lines[: len(inputs)] == inputs
        assert lines[len(inputs):] == ["", "criterion  status  check", *(r.line() for r in records),
                                       "", "28/28 checks passed at 32x32"]
        assert verification.REFERENCE_CONFIG["grid"] == {"nr": verification.BASE_NR}  # not overwritten

    @pytest.mark.parametrize("nr", [64, 256])
    def test_every_row_carries_its_check_seconds(self, capsys, nr):
        assert cli.main(["verify", "--nr", str(nr)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines if re.match(r" +\d+  (PASS|FAIL)  ", line)]
        assert len(rows) == 28 and all(re.search(r"\) \d+\.\d{6} s$", row) for row in rows)
        assert lines[-1] == f"28/28 checks passed at {nr}x{nr}"

    def test_row_seconds_leave_out_the_inputs(self, capsys, monkeypatch):
        # Each shoot takes at least 0.2 s more; the input lines carry that,
        # the rows that read the shoots do not.
        real_shoot = verification.shoot

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return real_shoot(*args, **kwargs)

        monkeypatch.setattr(verification, "shoot", slow)
        records = verification.run_acceptance(nr=32, radial_steps=2000, log=print)
        out = capsys.readouterr().out
        for steps in (2000, 4000):
            seconds = float(re.search(rf"^radial shoot at {steps} steps \.\.\. (\S+) s$", out, re.M).group(1))
            assert seconds >= 0.2
        rows = {rec.name: rec for rec in records}
        for name in ("boundary slope -2/3 met", "h0 stable under step halving"):
            assert rows[name].passed and 0.0 < rows[name].seconds < 0.1
        assert all(rec.line().endswith(f" {rec.seconds:.6f} s") for rec in records)

    def test_odd_grid_passes(self, capsys):
        # The 33^2 grid has nodes at radius 1/2, where the N=2 check puts its
        # vortices; that check solves on the even grid below.
        assert cli.main(["verify", "--nr", "33"]) == cli.EXIT_OK
        assert "28/28 checks passed at 33x33" in capsys.readouterr().out

    def test_unconverged_loop_check_is_a_failure(self, capsys):
        # tol = 0 cannot be met: the loop-integral check names the solve it
        # reads and why, and the run ends as a verification failure, not a
        # traceback.
        assert cli.main(["verify", "--nr", "32", "--tol", "0"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert (
            "FAIL    loop integral matches closed form "
            "(centred vortex at 32x32: solve not converged (line_search))" in out
        )
        # The flux errors are within tolerance; the rows fail on the solve they read.
        for name, solve in (("interior flux = 2*pi", "centred"), ("boundary flux = pi", "boundary")):
            (line,) = [line for line in out.splitlines() if f"FAIL    {name} (" in line]
            # A row whose input failed runs no check, so it takes no time.
            assert line.endswith(f"({solve} vortex at 32x32: solve not converged (line_search)) 0.000000 s")

    def test_unconverged_shoot_is_a_failure(self, tmp_path, capsys, monkeypatch):
        # The checks that read the radial profile, or the vacuum or the
        # linearised solve made on its nodes, name the shoot and say why it is
        # unusable, and the run ends as a verification failure, not a
        # configuration error from the linearised solve.
        real_shoot = verification.shoot

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real_shoot(*args, **kwargs), termination="slope_residual")

        monkeypatch.setattr(verification, "shoot", unconverged)
        cfg = write_config(tmp_path, base_doc())
        assert cli.main(["verify", "--config", cfg]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        reason = "(radial shoot at 2000 steps: radial shoot did not converge (slope_residual): boundary-slope residual "
        for name in ("2d field matches radial profile", "observed convergence order",
                     "boundary slope -2/3 met", "h0 stable under step halving", "vacuum closed form a = -2r/R^2",
                     "nonlocality witness |d_X h(R;0)| > 1e-2", "loop integral matches closed form"):
            (line,) = [line for line in out.splitlines() if f"FAIL    {name} (" in line]
            assert f"FAIL    {name} {reason}" in line and "at 2000 steps, h0 = " in line

    def test_failed_newton_linear_solves_fail_the_rows_that_read_them(self, capsys, monkeypatch):
        # Every 2-D solve stops at its first Newton step with linear_solve;
        # its field, the product-ansatz start, passes some checks by itself.
        monkeypatch.setattr(solver2d, "_solve_spd", _failed_linear_solve)
        assert cli.main(["verify", "--nr", "64"]) == cli.EXIT_VERIFY
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if re.match(r" +\d+  (PASS|FAIL)  ", line)]) == 28
        failed = [line for line in lines if re.match(r" +\d+  FAIL  ", line)]
        assert len(failed) == len(ROWS_READING_A_SOLVE)
        for name, solve in ROWS_READING_A_SOLVE.items():
            (line,) = [line for line in failed if f"FAIL    {name} (" in line]
            assert line.endswith(f"({solve}: solve not converged (linear_solve)) 0.000000 s")
        assert lines[-1] == "13/28 checks passed at 64x64"

    def test_failed_tangent_solve_fails_the_loop_integral_only(self, capsys, monkeypatch):
        monkeypatch.setattr(moduli, "_solve_spd", _failed_linear_solve)
        assert cli.main(["verify", "--nr", "64"]) == cli.EXIT_VERIFY
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if re.match(r" +\d+  FAIL  ", line)]
        detail = "tangent solve at 64x64: injected failure"
        assert failed == [CheckResult(7, "loop integral matches closed form", False, detail).line()]
        assert lines[-1] == "27/28 checks passed at 64x64"
