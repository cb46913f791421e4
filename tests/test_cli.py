import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from nvortex import build_grid, cli, compute_observables, moduli, solver2d, verification
from nvortex.config import load_run_config
from nvortex.observables import FIELD_CSV_HEADER
from nvortex.verification import CheckResult
from radial_oracle import integrate_radial


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


def _unconverged_shoot(disk, *, n, tol, eps, steps):
    """A real profile at ``h0 = -1``, off the root, so its outer slope misses ``tol``."""
    return integrate_radial(-1.0, disk, n, eps, steps)


def _assert_shoot_reason(err):
    match = re.search(r"radial shoot did not converge: boundary-slope residual (\S+) > tol (\S+) "
                      r"at (\d+) steps, h0 = (\S+)", err)
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
        def fail(*args, **kwargs):
            raise solver2d.LinearSolveError("injected failure")

        monkeypatch.setattr(solver2d, "_solve_spd", fail)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(grid={"nr": 16, "ntheta": 16}))
        assert cli.main(["solve-2d", "--config", cfg, "--out", str(out)]) == cli.EXIT_NEWTON
        assert "injected failure" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_linear_solve_failure_names_newton_step(self, tmp_path, capsys):
        # 0.01 from the boundary at dr ~ 0.047: exp(h) collapses over the
        # Newton steps until mode 0 of the preconditioner is singular.
        doc = base_doc(interior=[{"x": 2.99, "y": 1e-4, "n": 1}], grid={"nr": 64, "ntheta": 64})
        cfg = write_config(tmp_path, doc)
        assert cli.main(["solve-2d", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_NEWTON
        err = capsys.readouterr().err
        assert re.search(r"linear solve failed: Newton step \d+ \(residual [^)]+\): polar mode 0 is singular", err)

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
            ({"radial": {"eps": 5.0}}, "radial.eps must lie in"),
        ],
        ids=["tol-nan", "radius-inf", "delta-zero", "delta-outside-disk", "eps-outside-disk"],
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

    def test_radial_eps_and_tol_reach_the_shoot(self, tmp_path, capsys, monkeypatch):
        seen = []
        real_shoot = moduli.shoot

        def recorded(*args, **kwargs):
            seen.append(kwargs)
            return real_shoot(*args, **kwargs)

        monkeypatch.setattr(moduli, "shoot", recorded)
        doc = base_doc(radial={"steps": 2000, "eps": 1e-6, "tol": 1e-5})
        cfg = write_config(tmp_path, doc)
        assert cli.main(["metric", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert seen == [{"n": 1, "tol": 1e-5, "eps": 1e-6, "steps": 2000}]


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["nvortex", "nvortex.cli"])
    def test_python_m_runs_the_cli(self, tmp_path, run_python, module):
        cfg = write_config(tmp_path, base_doc())
        done = run_python("-m", module, "check", "--config", cfg)
        doc = json.loads(done.stdout)
        assert doc["margin"] == pytest.approx(1.25, abs=1e-9)
        assert doc["passed"] is True

    def test_import_leaves_sparse_linalg_unloaded(self, run_python):
        # Every linear solve is the library's own PCG or a LAPACK routine.
        done = run_python("-c", "import sys, nvortex.cli; print('scipy.sparse.linalg' in sys.modules)")
        assert done.stdout.strip() == "False"


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


class TestOverrides:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve-2d", "--tol", "nan"], "--tol must be finite"),
            (["solve-2d", "--tol", "-1"], "--tol must be finite and >= 0"),
            (["solve-2d", "--nr", "4"], "nr, ntheta >= 8"),
            (["verify", "--nr", "0"], "nr, ntheta >= 8"),
            (["verify", "--nr", "8"], "verify needs nr >= 32"),
            (["verify", "--tol", "inf"], "--tol must be finite"),
        ],
        ids=["tol-nan", "tol-negative", "nr-4", "verify-nr-0", "verify-nr-8", "verify-tol-inf"],
    )
    def test_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, argv, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("overrides must be checked before any solve")

        monkeypatch.setattr(cli, "solve_taubes_2d", no_solve)
        monkeypatch.setattr(cli, "run_acceptance", no_solve)
        if argv[0] != "verify":
            argv = [*argv, "--config", write_config(tmp_path, base_doc())]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err


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

    def test_gate_note_for_violating_domain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_acceptance", lambda **kw: self._stub(True))
        cfg = write_config(tmp_path, base_doc(interior=[{"x": 0, "y": 0, "n": 3}]))
        assert cli.main(["verify", "--config", cfg]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "violates the existence bound" in out
        assert "domain solves skipped" in out

    def test_odd_grid_passes(self, capsys):
        # The 33^2 grid has nodes at radius 1/2, where the N=2 check puts its
        # vortices; that check solves on the even grid below.
        assert cli.main(["verify", "--nr", "33"]) == cli.EXIT_OK
        assert "28/28 checks passed at 33x33" in capsys.readouterr().out

    def test_unconverged_loop_check_is_a_failure(self, capsys):
        # tol = 0 cannot be met: the loop-integral check records why and
        # the run ends as a verification failure, not a traceback.
        assert cli.main(["verify", "--nr", "32", "--tol", "0"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert (
            "FAIL    loop integral matches closed form "
            "(centred field solve did not converge (line_search))" in out
        )
        # The flux errors are within tolerance; the lines say why they fail.
        for name in ("interior flux = 2*pi", "boundary flux = pi"):
            (line,) = [line for line in out.splitlines() if f"FAIL    {name} (" in line]
            assert line.endswith("; solve not converged (line_search))")

    def test_unconverged_shoot_is_a_failure(self, tmp_path, capsys, monkeypatch):
        # The checks that need the radial profile say why it is unusable,
        # and the run ends as a verification failure, not a configuration
        # error from the linearised solve.
        real_shoot = verification.shoot

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real_shoot(*args, **kwargs), converged=False)

        monkeypatch.setattr(verification, "shoot", unconverged)
        cfg = write_config(tmp_path, base_doc())
        assert cli.main(["verify", "--config", cfg]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        reason = "radial shoot did not converge: boundary-slope residual "
        for name in ("boundary slope -2/3 met", "h0 stable under step halving",
                     "nonlocality witness |d_X h(R;0)| > 1e-2", "loop integral matches closed form"):
            (line,) = [line for line in out.splitlines() if f"FAIL    {name} (" in line]
            assert reason in line and "at 2000 steps" in line
        assert "PASS    vacuum closed form a = -2r/R^2" in out
