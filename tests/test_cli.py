import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from orthocal import ESTIMATORS, ConvergenceError
from orthocal.cli import build_parser, main

from conftest import REFERENCE_OFFSETS, TABLE4

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
NOT_A_DIR = os.path.join(os.path.abspath(__file__), "x.json")  # under a file: cannot be written


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    if rc == 0:  # successful output is strict JSON: no NaN or Infinity
        json.loads(captured.out, parse_constant=_reject_constant)
    return rc, captured.out, captured.err


class TestCalibrate:
    def test_experiment2_nonlinear6(self, capsys):
        rc, out, _ = run_cli(capsys, "calibrate", "experiment2", "--method", "nonlinear6")
        assert rc == 0
        doc = json.loads(out)
        offsets = [doc["offsets"][k] for k in ("d_rho_x", "d_rho_y", "d_rho_z")]
        np.testing.assert_allclose(offsets, REFERENCE_OFFSETS[2], atol=0.03)
        assert doc["residual_rms"] == pytest.approx(0.20, abs=0.01)
        assert doc["converged"] is True
        assert doc["schema_version"] == 1
        assert len(doc["input_digest"]) == 64

    def test_experiment1_linear6(self, capsys):
        rc, out, _ = run_cli(capsys, "calibrate", "experiment1", "--method", "linear6")
        assert rc == 0
        doc = json.loads(out)
        offsets = [doc["offsets"][k] for k in ("d_rho_x", "d_rho_y", "d_rho_z")]
        np.testing.assert_allclose(offsets, [2.27, 1.66, -1.40], atol=0.02)

    def test_experiment3_regression(self, capsys):
        rc, out, _ = run_cli(capsys, "calibrate", "experiment3", "--method", "linear6")
        assert rc == 0
        doc = json.loads(out)
        offsets = [doc["offsets"][k] for k in ("d_rho_x", "d_rho_y", "d_rho_z")]
        np.testing.assert_allclose(offsets, REFERENCE_OFFSETS[3], atol=0.02)
        assert doc["residual_rms"] == pytest.approx(0.20, abs=0.01)

    def test_report_survives_round_trip(self, capsys):
        from orthocal import CalibrationReport

        rc, out, _ = run_cli(capsys, "calibrate", "experiment3", "--method", "linear6")
        assert rc == 0
        rep = CalibrationReport.from_dict(json.loads(out))
        assert rep.to_dict() == json.loads(out)

    def test_residuals_keyed_by_column(self, capsys):
        rc, out, _ = run_cli(capsys, "calibrate", "experiment2", "--method", "linear6")
        doc = json.loads(out)
        assert tuple(doc["residuals"]) == ("dx_y", "dx_z", "dy_x", "dy_z", "dz_x", "dz_y")

    def test_missing_key_exit_1(self, capsys, tmp_path):
        doc = {
            "schema_version": 1,
            "units": "mm",
            "method": "double-reduced",
            "values": {k: v for k, v in TABLE4[2].items() if k != "dz_y"},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, _, err = run_cli(capsys, "calibrate", str(path), "--method", "linear6")
        assert rc == 1
        assert "dz_y" in err

    @pytest.mark.parametrize(
        "overrides, geometry",
        [
            ({"values": [1, 2]}, None),
            ({"repetitions": [1]}, None),
            ({"geometry": 5}, None),
            ({"method": ["x"]}, None),
            ({"values": {**TABLE4[2], "dx_y": True}}, None),
            ({}, 5),
            ({}, {"L": float("inf"), "rho_min": -100.0, "rho_max": 60.0}),
        ],
        ids=["values-list", "repetitions-list", "geometry-number", "method-list", "values-bool",
             "geometry-file-number", "geometry-file-infinite-L"],
    )
    def test_malformed_file_exit_1(self, capsys, tmp_path, overrides, geometry):
        doc = {"schema_version": 1, "units": "mm", "method": "double-reduced",
               "values": dict(TABLE4[2]), **overrides}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["calibrate", str(path), "--method", "linear6"]
        if geometry is not None:
            geo = tmp_path / "g.json"
            geo.write_text(json.dumps(geometry), encoding="utf-8")
            argv += ["--geometry", str(geo)]
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_directory_exit_1(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "calibrate", str(tmp_path), "--method", "linear6")
        assert rc == 1
        assert err.startswith("error: cannot read")

    def test_shape_mismatch_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "calibrate", "experiment2", "--method", "closed-form")
        assert rc == 1
        assert "single-posture" in err

    def test_unknown_file_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "calibrate", "no-such-thing.json", "--method", "linear6")
        assert rc == 1
        assert "no-such-thing" in err

    def test_solver_failure_exit_2(self, capsys, monkeypatch):
        import orthocal.cli as cli_mod

        def boom(*args, **kwargs):
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(cli_mod, "identify", boom)
        rc, _, err = run_cli(capsys, "calibrate", "experiment2", "--method", "nonlinear6")
        assert rc == 2
        assert "converge" in err
        # true offsets inside L/10 = 31.02 mm, Gauss-Newton iterates beyond it
        rc, _, err = run_cli(
            capsys, "montecarlo", "--offsets", "30,30,30", "--sigma", "0.5", "--runs", "2000",
            "--replications", "1",
        )
        assert rc == 2
        assert "iterate out of domain" in err and "validity bound L/10 = 31.02 mm" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc, out, _ = run_cli(
            capsys, "calibrate", "experiment2", "--method", "linear6", "--out", str(out_path)
        )
        assert rc == 0
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_full_to_reduced_auto_reduction(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "simulate", "--offsets", "0.5,0.5,0.5", "--sigma", "0",
            "--method", "double-full",
        )
        path = tmp_path / "full.json"
        path.write_text(out, encoding="utf-8")
        rc, out, _ = run_cli(capsys, "calibrate", str(path), "--method", "nonlinear6")
        assert rc == 0
        doc = json.loads(out)
        np.testing.assert_allclose(
            [doc["offsets"][k] for k in ("d_rho_x", "d_rho_y", "d_rho_z")],
            [0.5, 0.5, 0.5],
            atol=1e-6,
        )

    def test_closed_form_sigma_rho(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        rc, _, _ = run_cli(
            capsys, "simulate", "--offsets", "0.3,-0.2,0.5", "--sigma", "0.01",
            "--method", "single-posture", "--out", str(path),
        )
        assert rc == 0
        rc, out, _ = run_cli(capsys, "calibrate", str(path), "--method", "closed-form")
        assert rc == 0
        doc = json.loads(out)
        # the sequential solution's own factor, not the pseudoinverse's 2.988
        assert doc["sigma_rho"] == pytest.approx(3.0853223 * doc["sigma_hat"], rel=1e-7)


class TestSimulate:
    def test_zero_case(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--offsets", "0,0,0", "--sigma", "0")
        assert rc == 0
        doc = json.loads(out)
        assert doc["method"] == "double-reduced"
        assert all(abs(v) <= 1e-12 for v in doc["values"].values())

    def test_byte_identical_under_seed(self, capsys):
        args = ("simulate", "--offsets", "1,2,-1", "--sigma", "0.05", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        _, out3, _ = run_cli(capsys, *args[:-1], "12")
        assert out1 != out3

    def test_round_trip_with_calibrate(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        rc, _, _ = run_cli(
            capsys, "simulate", "--offsets", "1,1,1", "--sigma", "0",
            "--method", "double-reduced", "--out", str(path),
        )
        assert rc == 0
        rc, out, _ = run_cli(capsys, "calibrate", str(path), "--method", "nonlinear6")
        assert rc == 0
        doc = json.loads(out)
        np.testing.assert_allclose(
            [doc["offsets"][k] for k in ("d_rho_x", "d_rho_y", "d_rho_z")],
            [1, 1, 1],
            atol=1e-6,
        )

    def test_single_posture_shape(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--offsets", "0.5,0,0", "--method", "single-posture"
        )
        assert rc == 0
        doc = json.loads(out)
        assert set(doc["values"]) == {
            "dz_x0", "dz_y0", "dz_x_plus", "dz_x_minus", "dz_y_plus", "dz_y_minus"
        }

    def test_quantization(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--offsets", "1,1,1", "--sigma", "0.03",
            "--seed", "3", "--quantize", "0.01",
        )
        assert rc == 0
        doc = json.loads(out)
        for v in doc["values"].values():
            assert round(v * 100) == pytest.approx(v * 100, abs=1e-9)

    def test_simulation_metadata(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--offsets", "1,0,0", "--sigma", "0.01", "--seed", "5"
        )
        doc = json.loads(out)
        sim = doc["simulation"]
        assert sim["offsets"] == [1.0, 0.0, 0.0]
        assert sim["seed"] == 5
        assert sim["algorithm"] == "pcg64"

    def test_bad_offsets_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "simulate", "--offsets", "1,2")
        assert rc == 1
        rc, _, err = run_cli(capsys, "simulate", "--offsets", "a,b,c")
        assert rc == 1

    def test_unreachable_offsets_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "simulate", "--offsets", "40,0,0")
        assert rc == 1


class TestAccuracy:
    def test_factors(self, capsys):
        rc, out, _ = run_cli(capsys, "accuracy", "--sigma", "1")
        assert rc == 0
        doc = json.loads(out)
        assert doc["six_equation"]["sigma_rho"] == pytest.approx(1.98, abs=0.01)
        assert doc["twelve_equation"]["sigma_rho"] == pytest.approx(2.06, abs=0.01)

    def test_scaling(self, capsys):
        _, out, _ = run_cli(capsys, "accuracy", "--sigma", "0.28")
        doc = json.loads(out)
        assert doc["six_equation"]["sigma_rho"] == pytest.approx(0.28 * 1.9843155, rel=1e-6)
        assert doc["six_equation"]["factor"] == pytest.approx(1.9843155, rel=1e-6)


class TestMonteCarlo:
    def test_small_run(self, capsys):
        rc, out, _ = run_cli(
            capsys, "montecarlo", "--offsets", "0.1,0.1,0.1", "--sigma", "0.01",
            "--runs", "400", "--replications", "2", "--method", "six", "--seed", "9",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["runs"] == 400 and doc["replications"] == 2
        assert doc["pooled_std"] == pytest.approx(0.0198, rel=0.2)
        assert doc["failed_runs"] == 0

    def test_closed_form(self, capsys):
        rc, out, _ = run_cli(
            capsys, "montecarlo", "--offsets", "0.1,0.1,0.1", "--sigma", "0.01",
            "--runs", "400", "--replications", "2", "--method", "closed-form",
        )
        assert rc == 0
        assert json.loads(out)["pooled_std"] == pytest.approx(0.0309, rel=0.2)

    def test_method_choices_are_the_estimators(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

        def choices(command):
            return next(a.choices for a in sub.choices[command]._actions if a.dest == "method")

        assert set(choices("calibrate")) == {e.cli for e in ESTIMATORS.values()}
        assert list(choices("montecarlo")) == list(ESTIMATORS)

    def test_zero_runs_exit_1(self, capsys):
        rc, _, _ = run_cli(capsys, "montecarlo", "--runs", "0")
        assert rc == 1

    def test_reproduce_preset_small(self, capsys):
        rc, out, _ = run_cli(
            capsys, "montecarlo", "--reproduce", "table3",
            "--runs", "300", "--replications", "2", "--seed", "1",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["preset"] == "table3"
        assert [row["method"] for row in doc["rows"]] == ["nonlinear-six", "nonlinear-twelve"]
        for row in doc["rows"]:
            for key in ("offset_0.1_mm", "offset_1.0_mm"):
                assert row[key]["pooled_std"] == pytest.approx(0.02, rel=0.35)


class TestSensitivity:
    def test_unit_offsets(self, capsys):
        rc, out, _ = run_cli(capsys, "sensitivity", "--offsets", "1,1,1")
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 12
        iso = [r for r in doc["rows"] if r["posture"] == "isotropic"]
        assert all(r["at_max"] == 1.0 and r["at_min"] == 1.0 for r in iso)
        minx = [
            r for r in doc["rows"]
            if r["posture"] == "max/min X-displacement" and r["plane"] == "XY"
        ]
        assert minx[0]["at_min"] == pytest.approx(0.66, abs=0.005)

    def test_zero_offsets(self, capsys):
        rc, out, _ = run_cli(capsys, "sensitivity", "--offsets", "0,0,0")
        doc = json.loads(out)
        assert all(r["at_max"] == 0 and r["at_min"] == 0 for r in doc["rows"])

    def test_symmetric_custom_geometry(self, capsys, tmp_path):
        geo = tmp_path / "geo.json"
        geo.write_text(
            json.dumps({"L": 310.25, "rho_min": -60.0, "rho_max": 60.0}), encoding="utf-8"
        )
        rc, out, _ = run_cli(
            capsys, "sensitivity", "--offsets", "1,1,1", "--geometry", str(geo)
        )
        assert rc == 0
        doc = json.loads(out)
        for r in doc["rows"]:
            if r["posture"] != "isotropic":
                assert r["at_max"] - 1.0 == pytest.approx(-(r["at_min"] - 1.0), rel=1e-12)


class TestParsingAndProcess:
    def test_usage_error_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "calibrate", "experiment2", "--method", "bogus")
        assert rc == 1
        assert "bogus" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("accuracy", "--sigma", "nan"), "--sigma"),
            (("simulate", "--offsets", "0,0,0", "--quantize", "nan"), "--quantize"),
            (("montecarlo", "--sigma", "nan"), "--sigma"),
            (("accuracy", "--sigma", "inf"), "--sigma"),
            (("simulate", "--offsets", "0,0,0", "--sigma", "inf"), "--sigma"),
            (("simulate", "--offsets", "0,0,0", "--quantize", "inf"), "--quantize"),
            (("montecarlo", "--sigma", "inf"), "--sigma"),
            (("montecarlo", "--sigma", "-inf"), "--sigma"),
            (("accuracy", "--sigma", "1e154"), "sigma"),
            (("accuracy", "--sigma", "1e200"), "sigma"),
            (("montecarlo", "--sigma", "1e200", "--runs", "10", "--method", "six"), "sigma"),
            (("montecarlo", "--sigma", "1e200", "--runs", "10", "--method", "nonlinear-six"),
             "sigma"),
            (("montecarlo", "--sigma", "1e152", "--runs", "10000", "--method", "six"), "sigma"),
            (("accuracy", "--sigma", "0.01", "--out", NOT_A_DIR), f"cannot write {NOT_A_DIR}"),
            (("accuracy", "--sigma", "0.01", "--geometry", TESTS_DIR), TESTS_DIR),
            (("montecarlo", "--replications", "0"), "--replications"),
            (("simulate", "--offsets", "0,0,0", "--repetitions", "0"), "--repetitions"),
            (("sensitivity", "--offsets", "nan,0,0"), "offsets"),
            # the bound's message reads "offset magnitude exceeds ..."
            (("sensitivity", "--offsets", "1e9,0,0"), "offset"),
        ],
        ids=[
            "accuracy-sigma", "simulate-quantize", "montecarlo-sigma", "accuracy-sigma-inf",
            "simulate-sigma-inf", "simulate-quantize-inf", "montecarlo-sigma-inf",
            "montecarlo-sigma-minus-inf", "accuracy-sigma-1e154", "accuracy-sigma-1e200",
            "montecarlo-six-sigma-1e200", "montecarlo-nonlinear-six-sigma-1e200",
            "montecarlo-six-sigma-1e152-runs-10000", "out-not-writable", "geometry-directory",
            "montecarlo-replications-0", "simulate-repetitions-0", "sensitivity-offsets-nan",
            "sensitivity-offsets-1e9",
        ],
    )
    def test_nan_option_exit_1(self, capsys, argv, option):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and option in err

    @pytest.mark.parametrize(
        "argv, summary",
        [
            (("calibrate", "experiment2", "--method", "linear6"), "offsets (mm)"),
            (("sensitivity", "--offsets", "1,1,1"), "isotropic"),
        ],
        ids=["calibrate", "sensitivity"],
    )
    def test_verbose_summary_on_stderr(self, capsys, argv, summary):
        rc, out, err = run_cli(capsys, *argv, "--verbose")
        assert rc == 0
        assert summary in err
        json.loads(out)  # stdout stays pure JSON

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orthocal", "accuracy", "--sigma", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["six_equation"]["factor"] == pytest.approx(1.9843, abs=1e-3)
