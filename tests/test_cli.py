import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orthocal
from orthocal import (
    ESTIMATORS, FIXTURE_NAMES, ConvergenceError, DomainError, InputError, RankError, SingularError,
    cli, fixture_path,
)
from orthocal.cli import MAX_RUNS, build_parser, main
from orthocal.geometry import _L_MAX

from conftest import REFERENCE_OFFSETS, TABLE4, unparsable_json

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

    def test_input_digest_pinned(self, capsys):
        # the SHA-256 of the bundled experiment1 file
        rc, out, _ = run_cli(capsys, "calibrate", "experiment1", "--method", "linear6")
        assert rc == 0
        assert json.loads(out)["input_digest"] == (
            "85a0b91f4b0871cbd8d9e9e4e562d80f37b74c3e239326acb832dbc750b061b1"
        )

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

    @pytest.mark.parametrize(
        "overrides, geometry, key",
        [
            ({"values": {**TABLE4[2], "dx_y": 10**400}}, None, "'dx_y'"),
            ({"repetitions": {"dx_y": [1, 10**400]}}, None, "'dx_y'"),
            ({"repetitions": {"dx_y": [1e308, 1e308]}}, None, "'dx_y'"),
            # a geometry integer beyond the float range reads as infinite, as 1e400 does
            ({"geometry": {"L": 10**400, "rho_min": -100, "rho_max": 60}}, None, "L=inf"),
            ({}, {"L": 310.25, "rho_min": -100, "rho_max": 60, "d": -(10**400)}, "d=-inf"),
        ],
        ids=["value", "repetition", "repetition-mean", "geometry-key", "geometry-file-key"],
    )
    def test_out_of_float_range_exit_1(self, capsys, tmp_path, overrides, geometry, key):
        # an integer beyond the float range, or a mean that overflows: one
        # error line naming the key, and neither a traceback nor a warning
        values = dict(TABLE4[2])
        if "repetitions" in overrides:
            del values["dx_y"]
        doc = {"schema_version": 1, "units": "mm", "method": "double-reduced",
               "values": values, **overrides}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["calibrate", str(path), "--method", "linear6"]
        if geometry is not None:
            geo = tmp_path / "g.json"
            geo.write_text(json.dumps(geometry), encoding="utf-8")
            argv += ["--geometry", str(geo)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run_cli(capsys, *argv)
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"values": {**TABLE4[2], "dx_y": 10**400}}, "value 'dx_y' is not finite"),
            ({"values": {**TABLE4[2], "dx_y": -(10**400)}}, "value 'dx_y' is not finite"),
            ({"repetitions": {"dx_y": [1, 10**400]}}, "value 'dx_y' is not finite"),
            ({"comment": {"a": [1, 2]}}, "comment must be a string"),
            ({"simulation": 5}, "simulation must be a JSON object"),
            ({"comment": "ok", "simulation": [1]}, "simulation must be a JSON object"),
        ],
        ids=["huge-value", "huge-negative-value", "huge-repetition", "comment-object",
             "simulation-number", "simulation-list"],
    )
    def test_bad_number_or_metadata_exit_1(self, capsys, tmp_path, overrides, message):
        # an integer beyond the float range reads as 1e400 does, not finite;
        # the metadata keys have a type too: one error line naming the key
        values = dict(TABLE4[2])
        if "repetitions" in overrides:
            del values["dx_y"]
        doc = {"schema_version": 1, "units": "mm", "method": "double-reduced",
               "values": values, **overrides}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run_cli(capsys, "calibrate", str(path), "--method", "linear6")
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, geometry, message",
        [
            ({"values": {**TABLE4[2], "dz_y": "1_0"}}, None, "value 'dz_y' is not a number"),
            ({"values": {**TABLE4[2], "dz_y": " 2.37 "}}, None, "value 'dz_y' is not a number"),
            ({"repetitions": {"dz_y": [0.1, "0.2"]}}, None, "entry 'dz_y' holds a non-number"),
            ({"geometry": {"L": "310.25", "rho_min": -100, "rho_max": 60}}, None,
             "L: '310.25' is not a number"),
            ({}, {"L": 310.25, "rho_min": "-100", "rho_max": 60}, "rho_min: '-100' is not a number"),
        ],
        ids=["value-underscore", "value-padded", "repetition", "geometry-key", "geometry-file-key"],
    )
    def test_string_number_exit_1(self, capsys, tmp_path, overrides, geometry, message):
        # the schema's numbers are JSON numbers: a string that float() would
        # parse is rejected with one error line naming the key
        values = dict(TABLE4[2])
        if "repetitions" in overrides:
            del values["dz_y"]
        doc = {"schema_version": 1, "units": "mm", "method": "double-reduced",
               "values": values, **overrides}
        path = tmp_path / "str.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["calibrate", str(path), "--method", "linear6"]
        if geometry is not None:
            geo = tmp_path / "g.json"
            geo.write_text(json.dumps(geometry), encoding="utf-8")
            argv += ["--geometry", str(geo)]
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and message in err

    def test_json_list_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([dict(TABLE4[2])]), encoding="utf-8")
        rc, _, err = run_cli(capsys, "calibrate", str(path), "--method", "linear6")
        assert rc == 1
        assert err == f"error: {path}: measurement file must contain a JSON object\n"

    def test_misspelt_top_level_key_exit_1(self, capsys, tmp_path):
        # a geometry under a misspelt key would calibrate on the prototype
        doc = json.loads(fixture_path("experiment1").read_text())
        doc["geomtery"] = {"L": 300.0, "rho_min": -100, "rho_max": 60}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(capsys, "calibrate", str(path), "--method", "linear6")
        assert rc == 1 and out == ""
        assert err == f"error: {path}: unknown top-level keys: 'geomtery'\n"

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
        # with every top-level key simulate writes, which calibrate reads back
        geo, path = tmp_path / "g.json", tmp_path / "sim.json"
        geo.write_text(json.dumps({"L": 300.0, "rho_min": -100, "rho_max": 60}))
        rc, _, _ = run_cli(
            capsys, "simulate", "--offsets", "1,1,1", "--sigma", "0",
            "--method", "double-reduced", "--comment", "round trip", "--geometry", str(geo),
            "--out", str(path),
        )
        assert rc == 0
        assert sorted(json.loads(path.read_text())) == [
            "comment", "geometry", "method", "schema_version", "simulation", "units", "values"
        ]
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


class TestGeometryFile:
    L_MAX = 1e6  # the longest leg a Geometry takes, mm

    def _geometry(self, tmp_path, **values):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("key", ["r", "d"])
    def test_nan_metadata_exit_1(self, capsys, tmp_path, key):
        geo = self._geometry(tmp_path, L=310.25, rho_min=-100, rho_max=60, **{key: float("nan")})
        rc, _, err = run_cli(capsys, "simulate", "--offsets", "0,0,0", "--geometry", geo)
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and f"{key}=nan" in err

    @pytest.mark.parametrize("key", ["r", "d"])
    def test_negative_metadata_exit_1(self, capsys, tmp_path, key):
        geo = self._geometry(tmp_path, L=310.25, rho_min=-100, rho_max=60, **{key: -5})
        rc, _, err = run_cli(capsys, "simulate", "--offsets", "0,0,0", "--geometry", geo)
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and f"{key} must be finite and non-negative" in err

    def test_unknown_key_exit_1(self, capsys, tmp_path):
        geo = self._geometry(tmp_path, L=310.25, rho_min=-100, rho_max=60, rho_mid=0)
        rc, out, err = run_cli(capsys, "simulate", "--offsets", "0,0,0", "--geometry", geo)
        assert rc == 1 and out == ""
        assert err == f"error: {geo}: unknown geometry keys: 'rho_mid'\n"

    @pytest.mark.parametrize(
        "command",
        [("accuracy",), ("montecarlo", "--method", "six", "--runs", "10", "--replications", "1")],
        ids=["accuracy", "montecarlo"],
    )
    def test_joint_limits_that_overflow_the_covariance_exit_1(self, capsys, tmp_path, command):
        # the error blames the joint limits, not the --sigma the command was given
        geo = self._geometry(tmp_path, L=310.25, rho_min=-1e-300, rho_max=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, *command, "--sigma", "0.01", "--geometry", geo)
        assert rc == 1 and out == ""
        assert err == ("error: joint limits rho_min=-1e-300, rho_max=1e-300 "
                       "overflow the six offset covariance\n")

    @pytest.mark.parametrize("method", ["linear6", "nonlinear6"])
    def test_estimate_beyond_the_validity_bound_exit_2(self, capsys, tmp_path, method):
        # near-zero joint limits send the linear estimate, and so the first
        # Gauss-Newton iterate, far beyond L/10: a numerical error
        geo = self._geometry(tmp_path, L=310.25, rho_min=-1e-100, rho_max=1e-100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "calibrate", "experiment1", "--method", method,
                                   "--geometry", geo)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "validity bound L/10 = 31.02 mm" in err

    @pytest.mark.parametrize("role", ["geometry", "measurement"])
    def test_non_utf8_file_named(self, capsys, tmp_path, role):
        # a geometry file and a measurement file go through one reader
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff{}")
        file, geometry = ("experiment1", str(path)) if role == "geometry" else (str(path), None)
        argv = ["calibrate", file, "--method", "linear6"]
        rc, out, err = run_cli(capsys, *argv, *(["--geometry", geometry] if geometry else []))
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot parse {path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("role", ["geometry", "measurement"])
    @pytest.mark.parametrize("kind", ["deep-array", "long-integer"])
    def test_unparsable_file_named(self, capsys, tmp_path, kind, role):
        # a nesting past the stack and an integer past the digit limit fail as
        # bytes that are not UTF-8 do (above): one line naming the file, no
        # traceback
        path = tmp_path / "bad.json"
        path.write_bytes(unparsable_json(kind, role))
        geometry = ["--geometry", str(path)] if role == "geometry" else []
        file = "experiment1" if geometry else str(path)
        rc, out, err = run_cli(capsys, "calibrate", file, "--method", "linear6", *geometry)
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot parse {path}: ")

    @pytest.mark.parametrize(
        "command",
        [
            ("simulate", "--sigma", "0.01", "--method", "double-full"),
            ("montecarlo", "--runs", "50", "--replications", "2", "--method", "six"),
            ("montecarlo", "--runs", "50", "--replications", "2"),
        ],
        ids=["simulate", "montecarlo-six", "montecarlo-nonlinear-six"],
    )
    def test_longest_leg_runs_clean(self, capsys, tmp_path, command):
        L = self.L_MAX
        geo = self._geometry(tmp_path, L=L, rho_min=-L / 4, rho_max=L / 5)
        offsets = f"{L / 20},{-L / 30},{L / 40}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, *command, "--offsets", offsets, "--geometry", geo)
        assert rc == 0 and err == ""

    @pytest.mark.parametrize("L", [1.000001e6, 1e26])
    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_longer_leg_exit_1(self, capsys, tmp_path, L, command):
        # at L = 1e26 the posture solve overflowed: warnings, then exit 1 or 2
        geo = self._geometry(tmp_path, L=L, rho_min=-L / 4, rho_max=L / 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run_cli(capsys, command, "--offsets", "0,0,0", "--geometry", geo)
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "L=" in err


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

    @pytest.mark.parametrize("preset", [[], ["--reproduce", "table3"]], ids=["method", "table3"])
    def test_runs_beyond_bound_exit_1(self, capsys, preset):
        # rejected before a replication is drawn: one past the bound, never at it
        rc, out, err = run_cli(capsys, "montecarlo", "--runs", str(MAX_RUNS + 1), *preset)
        assert rc == 1 and out == ""
        assert err == f"error: --runs must be in [1, {MAX_RUNS}], got {MAX_RUNS + 1}\n"

    @pytest.mark.parametrize("replications", [MAX_RUNS + 1, 10**12])
    def test_replications_beyond_bound_exit_1(self, capsys, replications):
        # rejected before anything is allocated: the statistics of 10**12
        # replications do not fit in memory
        rc, out, err = run_cli(capsys, "montecarlo", "--runs", "1",
                               "--replications", str(replications))
        assert rc == 1 and out == ""
        assert err == f"error: --replications must be at most {MAX_RUNS}, got {replications}\n"

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
            (("simulate", "--offsets", "0,0,0", "--seed", "-1"), "seed"),
            (("montecarlo", "--seed", "-1"), "seed"),
        ],
        ids=[
            "accuracy-sigma", "simulate-quantize", "montecarlo-sigma", "accuracy-sigma-inf",
            "simulate-sigma-inf", "simulate-quantize-inf", "montecarlo-sigma-inf",
            "montecarlo-sigma-minus-inf", "accuracy-sigma-1e154", "accuracy-sigma-1e200",
            "montecarlo-six-sigma-1e200", "montecarlo-nonlinear-six-sigma-1e200",
            "montecarlo-six-sigma-1e152-runs-10000", "out-not-writable", "geometry-directory",
            "montecarlo-replications-0", "simulate-repetitions-0", "sensitivity-offsets-nan",
            "sensitivity-offsets-1e9", "simulate-seed-minus-1", "montecarlo-seed-minus-1",
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

    def test_import_leaves_hashlib_out(self):
        # only calibrate digests its input; the other commands do not load
        # hashlib, and only assigning to a record loads dataclasses. calibrate
        # digests with the built-in SHA-256 where there is one, so that a
        # process never loads OpenSSL's _hashlib
        code = (
            "import contextlib, io, sys, orthocal.cli\n"
            "print(sorted({'hashlib', '_hashlib', 'dataclasses'} & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = orthocal.cli.main(['calibrate', 'experiment1', '--method', 'linear6'])\n"
            "print(rc, '_hashlib' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        imported, calibrated = proc.stdout.splitlines()
        assert imported == "[]"
        assert calibrated.startswith("0 ")
        if importlib.util.find_spec("_sha256") is not None:
            assert calibrated == "0 False"

    def test_import_leaves_resource_loading_out(self):
        # the fixtures are package data read by their path: importing the CLI
        # on top of numpy loads neither importlib.resources nor pathlib, also
        # without the site module, which may load them for other packages
        paths = [os.path.dirname(os.path.dirname(m.__file__)) for m in (orthocal, np)]
        code = (
            "import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import orthocal.cli\n"
            "print(sorted({'importlib.resources', 'pathlib'} & (set(sys.modules) - before)))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv",
        [("calibrate", "experiment1", "--method", "nonlinear6"), ("accuracy", "--sigma", "0.01")],
        ids=["calibrate", "accuracy"],
    )
    def test_module_entry_point(self, capsys, tmp_path, argv):
        # python -m orthocal, which freezes the import heap before main, writes
        # the bytes main writes in-process
        proc = subprocess.run(
            [sys.executable, "-m", "orthocal", *argv, "--out", str(tmp_path / "process.json")],
            capture_output=True,
        )
        rc, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "in-process.json"))
        assert proc.returncode == rc == 0
        assert proc.stdout == out.encode()
        assert (tmp_path / "process.json").read_bytes() == (tmp_path / "in-process.json").read_bytes()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("sensitivity", "--offsets", "40,0,0"), 1),
            # iterates that leave the model's validity bound: one run suffices
            (("montecarlo", "--offsets", "30,30,30", "--sigma", "0.5", "--runs", "1",
              "--replications", "1"), 2),
        ],
        ids=["input", "numerical"],
    )
    def test_module_exit_codes(self, argv, code):
        proc = subprocess.run([sys.executable, "-m", "orthocal", *argv], capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_main_freezes_nothing(self, capsys):
        # only the process entry point freezes: in-process callers keep
        # their collections as they were
        before = gc.get_freeze_count()
        assert run_cli(capsys, "accuracy", "--sigma", "1")[0] == 0
        assert gc.get_freeze_count() == before


# values that a JSON document may hold where a fixture holds another: wrong
# types, huge integers, number-like strings and nested containers
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5", "", "mm", "double-full"]),
    st.text(max_size=4),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 2**1024, 2**63, -(2**63) - 1]),
    st.floats(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["dx_y", "L", "x"]), st.integers(-3, 3), max_size=2),
)
# a geometry override near the prototype's, any of whose values may be junk
_GEOMETRY = st.fixed_dictionaries(
    {key: st.one_of(st.just(v), st.floats(-400.0, 400.0), _JUNK)
     for key, v in (("L", 310.25), ("rho_min", -100.0), ("rho_max", 60.0))},
    optional={"r": _JUNK, "d": _JUNK},
)
# (where, key): a top-level key, or a key of "values" or "repetitions"
_PLACES = st.tuples(
    st.sampled_from([None, "values", "repetitions"]),
    st.sampled_from(["schema_version", "units", "method", "values", "repetitions", "comment",
                     "simulation", "geometry", "dx_y", "dz_y", "extra", "dx_y\nextra"]),
)
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _PLACES, _JUNK),
        st.tuples(st.just("set"), st.just((None, "geometry")), _GEOMETRY),
        st.tuples(st.just("delete"), _PLACES, st.none()),
        st.tuples(st.just("nest"), _PLACES, st.sampled_from([lambda v: [v], lambda v: {"v": v}])),
    ),
    min_size=1,
    max_size=3,
)


def _mutated(doc: dict, mutations) -> dict:
    doc = json.loads(json.dumps(doc))
    for op, (where, key), arg in mutations:
        part = doc if where is None else doc.setdefault(where, {})
        if not isinstance(part, dict):
            continue
        if op == "set":
            part[key] = arg
        elif op == "delete":
            part.pop(key, None)
        elif key in part:
            part[key] = arg(part[key])
    return doc


class TestFuzzedDocuments:
    DOCS = {name: json.loads(fixture_path(name).read_text()) for name in FIXTURE_NAMES}

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(FIXTURE_NAMES),
        method=st.sampled_from(["linear6", "nonlinear6"]),
        mutations=_MUTATIONS,
    )
    # a finite reading whose square overflows the residual sum of squares
    @example(name="experiment1", method="linear6",
             mutations=[("set", ("values", "dx_y"), 1.8961503816218355e154)])
    def test_calibrate_exits_0_1_or_2_with_one_message(self, tmp_path_factory, name, method,
                                                       mutations):
        # a document mutated from a fixture ends in JSON on stdout or in one
        # error line on stderr: never a traceback or a warning
        path = tmp_path_factory.getbasetemp() / "fuzzed-document.json"
        path.write_text(json.dumps(_mutated(self.DOCS[name], mutations)))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["calibrate", str(path), "--method", method])
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2)
        if rc == 0:
            assert err == ""
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# geometry overrides at the edges of the domain Geometry takes: L at its
# bound _L_MAX or one ulp either side, joint limits within 1e-9 mm of zero
_NEAR_ZERO = st.floats(-1e-9, 1e-9)
_EDGE_GEOMETRY = st.fixed_dictionaries({
    "L": st.sampled_from([_L_MAX, math.nextafter(_L_MAX, 0.0), math.nextafter(_L_MAX, math.inf),
                          310.25]),
    "rho_min": st.one_of(_NEAR_ZERO, st.just(-100.0)),
    "rho_max": st.one_of(_NEAR_ZERO, st.just(60.0)),
})


class TestFuzzedGeometryEdges:
    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(FIXTURE_NAMES),
        method=st.sampled_from(["linear6", "nonlinear6"]),
        geometry=_EDGE_GEOMETRY,
    )
    def test_calibrate_exits_0_1_or_2_with_one_message(self, tmp_path_factory, name, method,
                                                       geometry):
        # finite JSON on stdout, or one error line on stderr, never a
        # traceback or a warning; an input error names the key it rejects
        path = tmp_path_factory.getbasetemp() / "edge-geometry.json"
        path.write_text(json.dumps(geometry))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["calibrate", name, "--method", method, "--geometry", str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2)
        if rc == 0:
            assert err == ""
            json.loads(out, parse_constant=_reject_constant)
            return
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        if rc == 1:
            assert any(f"{key}=" in err for key in geometry)


# option values as a user may mistype them: number-like strings, nan and
# inf, values beyond the float range, empty strings and wrong comma counts
_NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.01", "-0", "1e-320", "1e154", "1e308", "1e400",
                     "-1e400", str(10**400), "nan", "-nan", "inf", "-inf", "NaN", "Infinity",
                     "", " ", "0x10", "1_0", " 2 ", "1e", "mm", "\n", "2**9"]),
    st.integers().map(str),
    st.floats().map(repr),
)
_OFFSETS_TEXT = st.one_of(
    st.lists(st.one_of(st.floats(-40.0, 40.0).map(repr), _NUMBER_TEXT), min_size=3,
             max_size=3).map(",".join),
    st.lists(_NUMBER_TEXT, max_size=5).map(",".join),
    st.sampled_from(["1,,1", ",,", "1,1,1,", "1;1;1"]),
)
# option -> (valid values, junk values) per command
_ARGV_OPTIONS = {
    "accuracy": {"--sigma": (st.sampled_from(["0", "0.01", "2"]), _NUMBER_TEXT)},
    "sensitivity": {
        "--offsets": (st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3)
                      .map(lambda v: ",".join(map(repr, v))), _OFFSETS_TEXT),
    },
    "simulate": {
        "--offsets": (st.sampled_from(["0,0,0", "1,-1,0.5"]), _OFFSETS_TEXT),
        "--sigma": (st.sampled_from(["0", "0.01", "1e-320"]), _NUMBER_TEXT),
        "--seed": (st.sampled_from(["0", "7", str(2**64)]), _NUMBER_TEXT),
        "--repetitions": (st.sampled_from(["1", "4"]), _NUMBER_TEXT),
        "--quantize": (st.sampled_from(["0.001", "0.01"]), _NUMBER_TEXT),
        "--method": (st.sampled_from(["double-full", "single-posture"]),
                     st.sampled_from(["reduced", "", "double_full"])),
        "--comment": (st.text(max_size=4), st.text(max_size=4)),
    },
}


@st.composite
def _junk_argv(draw):
    """(argv, options given) for one command: each option of the command
    given or left out, a required one always given, with a valid or a junk
    value, passed as ``--option value`` or ``--option=value``."""
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    argv, given = [command], []
    for option, (valid, junk) in _ARGV_OPTIONS[command].items():
        if option in ("--sigma", "--offsets") or draw(st.booleans()):
            value = draw(junk if draw(st.booleans()) else valid)
            argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
            given.append(option)
    return argv, given


class TestFuzzedArgv:
    @settings(max_examples=150, deadline=None)
    @given(case=_junk_argv())
    # what the property found: messages that named the library's argument,
    # not the option, and readings that overflowed to inf with warnings
    @example(case=(["accuracy", "--sigma", "1e154"], ["--sigma"]))
    @example(case=(["simulate", "--offsets", "0,0,0", "--sigma", "1e308"],
                   ["--offsets", "--sigma"]))
    @example(case=(["simulate", "--offsets", "0,0,0", "--sigma", "1", "--seed=-1"],
                   ["--offsets", "--sigma", "--seed"]))
    @example(case=(["sensitivity", "--offsets", "nan,0,0"], ["--offsets"]))
    @example(case=(["sensitivity", "--offsets", "40,0,0"], ["--offsets"]))
    def test_exits_0_1_or_2_with_one_message(self, case):
        # junk option values end in finite JSON on stdout or in one error line
        # on stderr that names an option given, never a traceback or a warning
        argv, options = case
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2)
        if rc == 0:
            assert err == ""
            json.loads(out, parse_constant=_reject_constant)
            return
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert any(option in err for option in options)


# count options as a user may mistype them: zero, negative, fractional, past
# their bound, beyond any integer type, or not numbers; valid runs stay small
_COUNT_JUNK = st.sampled_from(["0", "-1", "2.5", "1e3", str(MAX_RUNS + 1), str(10**12), str(10**30),
                               str(10**400), "x", "", "nan"])
_MONTECARLO_OPTIONS = {
    "--runs": (st.sampled_from(["1", "2", "50", "1000"]), _COUNT_JUNK),
    "--replications": (st.sampled_from(["1", "2"]), _COUNT_JUNK),
    "--sigma": (st.sampled_from(["0", "0.01", "0.5"]), _NUMBER_TEXT),
    "--offsets": (st.lists(st.floats(-31.0, 31.0), min_size=3, max_size=3)
                  .map(lambda v: ",".join(map(repr, v))), _OFFSETS_TEXT),
    "--method": (st.sampled_from(sorted(ESTIMATORS)),
                 st.sampled_from(["linear6", "", "nonlinear_six", "six "])),
    "--seed": (st.sampled_from(["0", "7", str(2**64)]), _NUMBER_TEXT),
    "--reproduce": (st.just("table3"), st.sampled_from(["table4", ""])),
}
# geometry files: the prototype's, joint limits near zero, the longest leg,
# and junk near the prototype's (an unknown key, wrong types)
_GEOMETRY_FILES = st.one_of(
    st.sampled_from([
        {"L": 310.25, "rho_min": -100.0, "rho_max": 60.0},
        {"L": 310.25, "rho_min": -1e-100, "rho_max": 1e-100},
        {"L": _L_MAX, "rho_min": -_L_MAX / 4, "rho_max": _L_MAX / 5},
        {"L": 310.25, "rho_min": -100.0, "rho_max": 60.0, "rho_mid": 0.0},
    ]),
    _GEOMETRY,
)
_CALIBRATE_METHODS = st.one_of(
    st.sampled_from(sorted(ESTIMATORS[name].cli for name in ESTIMATORS)),
    st.sampled_from(["six", "linear", "", "LINEAR6"]),
)


@pytest.fixture(scope="module")
def measurement_files(tmp_path_factory):
    """Paths ``calibrate`` takes: the fixture names, simulated files of each
    scheme at the paper scale and near the validity bound, and junk."""
    root = tmp_path_factory.mktemp("argv")
    files = list(FIXTURE_NAMES) + [str(root / "missing.json"), str(root)]
    (root / "text.json").write_text("offsets: 1, 2, 3")
    files.append(str(root / "text.json"))
    for method in ("single-posture", "double-full", "double-reduced"):
        for offsets in ("0.5,-0.3,0.2", "29,-30,28"):
            path = root / f"{method}-{offsets}.json"
            assert main(["simulate", "--offsets", offsets, "--sigma", "0.01", "--method", method,
                         "--out", str(path)]) == 0
            files.append(str(path))
    return files


@st.composite
def _calibrate_or_montecarlo_argv(draw, files):
    """A ``calibrate`` argv (file, method, geometry file or none) or a
    ``montecarlo`` argv (each option left out or given a valid or a junk
    value), and the geometry document to write, or None."""
    if draw(st.booleans()):
        argv = ["calibrate", draw(st.sampled_from(files)), "--method", draw(_CALIBRATE_METHODS)]
        return argv, draw(st.one_of(st.none(), _GEOMETRY_FILES))
    argv = ["montecarlo"]
    for option, (valid, junk) in _MONTECARLO_OPTIONS.items():
        if draw(st.booleans()):
            argv += [option, draw(junk if draw(st.booleans()) else valid)]
    for option, small in (("--runs", "50"), ("--replications", "1")):
        if option not in argv:  # not the defaults, 10000 runs x 20 replications
            argv += [option, small]
    return argv, None


class TestFuzzedCalibrateAndMonteCarloArgv:
    NUMERICAL = (DomainError, SingularError, RankError, ConvergenceError)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_exit_code_matches_the_error_class(self, measurement_files, tmp_path_factory, data):
        # exit 0 with finite JSON; or one error line and exit 1 for an input
        # error (InputError, ValueError) or 2 for a numerical one; never a
        # traceback or a warning
        argv, geometry = data.draw(_calibrate_or_montecarlo_argv(measurement_files))
        if geometry is not None:
            path = tmp_path_factory.getbasetemp() / "argv-geometry.json"
            path.write_text(json.dumps(geometry))
            argv += ["--geometry", str(path)]
        raised = []

        def recording(command):
            def run(args):
                try:
                    return command(args)
                except Exception as exc:
                    raised.append(exc)
                    raise
            return run

        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), \
                mock.patch.object(cli, "cmd_calibrate", recording(cli.cmd_calibrate)), \
                mock.patch.object(cli, "cmd_montecarlo", recording(cli.cmd_montecarlo)):
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        out, err = out.getvalue(), err.getvalue()
        if rc == 0:
            assert err == "" and not raised
            json.loads(out, parse_constant=_reject_constant)
            return
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        exc = raised[0] if raised else InputError("argv")  # the parser raises InputError
        if rc == 1:
            assert isinstance(exc, (InputError, ValueError)), exc
        else:
            assert rc == 2 and isinstance(exc, self.NUMERICAL), exc
