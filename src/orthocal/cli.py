"""Batch command-line front end.

Subcommands: ``calibrate``, ``simulate``, ``accuracy``, ``montecarlo``,
``sensitivity``.  Structured JSON goes to stdout (and to ``--out`` when
given); a human-readable summary goes to stderr under ``--verbose``.  Exit
codes: 0 success, 1 input error, 2 numerical or convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .accuracy import _offset_covariance, monte_carlo
from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    OrthoglideError,
    RankError,
    SingularError,
)
from .fileio import (
    FIXTURE_NAMES,
    CalibrationReport,
    geometry_from_dict,
    load_fixture,
    load_measurement_file,
    measurement_to_dict,
)
from .geometry import Geometry
from .identification import ESTIMATORS, _linear_result, build_system, nonlinear_identify
from .kinematics import sensitivity_table
from .measurement import (
    GENERATOR_ALGORITHM,
    SCHEMES,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    NoiseModel,
    add_noise,
    reduce as reduce_measurements,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        raise _UsageError(message)


def _parse_offsets(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"--offsets expects three comma-separated values, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise InputError(f"--offsets values must be numbers, got {text!r}") from None


def _check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InputError("--sigma must be finite and non-negative")


def _load_geometry(path: str | None) -> Geometry | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read geometry file {path}: {exc}") from None
    return geometry_from_dict(doc)


def _emit(args, doc: dict) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _note(args, message: str) -> None:
    if getattr(args, "verbose", False):
        print(message, file=sys.stderr)


# calibrate --method name -> estimator name
CALIBRATE_METHODS = {e.cli: name for name, e in ESTIMATORS.items()}


def cmd_calibrate(args) -> int:
    if os.path.exists(args.file):
        mf, digest = load_measurement_file(args.file)
    elif args.file in FIXTURE_NAMES:
        mf, digest = load_fixture(args.file)
    else:
        raise InputError(f"no such file or fixture: {args.file}")
    geom = _load_geometry(args.geometry) or mf.geometry or Geometry.prototype()
    name = CALIBRATE_METHODS[args.method]
    est = ESTIMATORS[name]
    scheme = est.scheme
    m = mf.measurement()
    if mf.method == SYSTEM_TWELVE and scheme.label == SYSTEM_SIX:
        _note(args, "reducing double-full measurements to max-minus-min differences")
        m = reduce_measurements(m)
    elif mf.method != scheme.label:
        raise InputError(
            f"method {args.method} requires {scheme.label} measurements, file has {mf.method}"
        )
    if est.nonlinear:
        result = nonlinear_identify(m, geom)
    else:
        system = build_system(scheme.label, geom).with_measurements(m)
        result = _linear_result(system, est.gain(geom), name)
    residuals = dict(zip(scheme.row_keys, result.residuals.tolist()))
    report = CalibrationReport(
        input_digest=digest,
        method=args.method,
        offsets={
            "d_rho_x": float(result.offsets[0]),
            "d_rho_y": float(result.offsets[1]),
            "d_rho_z": float(result.offsets[2]),
        },
        residuals={k: residuals[k] for k in scheme.wire_keys},
        residual_rms=result.residual_rms,
        sigma_hat=result.sigma_hat,
        sigma_rho=_offset_covariance(name, geom, result.sigma_hat).sigma_rho,
        iterations=result.iterations,
        converged=result.converged,
        gradient_norm=result.gradient_norm,
    )
    _emit(args, report.to_dict())
    _note(
        args,
        "offsets (mm): x=%+.4f y=%+.4f z=%+.4f | residual rms %.4f mm, "
        "sigma_hat %.4f mm, %d iterations"
        % (
            result.offsets[0],
            result.offsets[1],
            result.offsets[2],
            result.residual_rms,
            result.sigma_hat,
            result.iterations,
        ),
    )
    return 0


def cmd_simulate(args) -> int:
    offsets = _parse_offsets(args.offsets)
    geom = _load_geometry(args.geometry) or Geometry.prototype()
    _check_sigma(args.sigma)
    if args.repetitions < 1:
        raise InputError("--repetitions must be >= 1")
    scheme = SCHEMES[args.method]
    m = scheme.measurement.from_array(scheme.predict(offsets, geom))
    m = add_noise(m, NoiseModel(sigma=args.sigma, seed=args.seed), args.repetitions)
    if args.quantize is not None:
        if not (math.isfinite(args.quantize) and args.quantize > 0):
            raise InputError("--quantize must be finite and positive")
        q = args.quantize
        vals = np.round(m.as_array() / q) * q
        m = type(m).from_array(vals)
    doc = measurement_to_dict(
        m,
        geometry=geom if args.geometry else None,
        comment=args.comment,
        simulation={
            "offsets": offsets.tolist(),
            "sigma": args.sigma,
            "seed": args.seed,
            "repetitions": args.repetitions,
            "quantize": args.quantize,
            "algorithm": GENERATOR_ALGORITHM,
        },
    )
    _emit(args, doc)
    _note(args, f"simulated {args.method} measurements for offsets {offsets.tolist()}")
    return 0


def cmd_accuracy(args) -> int:
    _check_sigma(args.sigma)
    geom = _load_geometry(args.geometry) or Geometry.prototype()
    six = _offset_covariance("six", geom, args.sigma)
    twelve = _offset_covariance("twelve", geom, args.sigma)
    unit_six = _offset_covariance("six", geom, 1.0).sigma_rho
    unit_twelve = _offset_covariance("twelve", geom, 1.0).sigma_rho
    doc = {
        "sigma": args.sigma,
        "six_equation": {"sigma_rho": six.sigma_rho, "factor": unit_six},
        "twelve_equation": {"sigma_rho": twelve.sigma_rho, "factor": unit_twelve},
    }
    _emit(args, doc)
    _note(
        args,
        f"sigma_rho: six-equation {six.sigma_rho:.4f} mm ({unit_six:.2f}*sigma), "
        f"twelve-equation {twelve.sigma_rho:.4f} mm ({unit_twelve:.2f}*sigma)",
    )
    return 0


def _mc_row(report) -> dict:
    return {
        "pooled_std": report.pooled_std,
        "std_of_std": report.std_of_std,
        "per_axis_mean": report.per_axis_mean.tolist(),
        "per_axis_std": report.per_axis_std.tolist(),
        "failed_runs": report.failed_runs,
    }


def cmd_montecarlo(args) -> int:
    if args.runs < 1:
        raise InputError("--runs must be >= 1")
    if args.replications < 1:
        raise InputError("--replications must be >= 1")
    _check_sigma(args.sigma)
    geom = _load_geometry(args.geometry) or Geometry.prototype()
    if args.reproduce == "table3":
        rows = []
        for method in ("nonlinear-six", "nonlinear-twelve"):
            row = {"method": method}
            for off in (0.1, 1.0):
                rep = monte_carlo(
                    [off] * 3, 0.01, args.runs, args.replications, method, args.seed, geom
                )
                row[f"offset_{off}_mm"] = _mc_row(rep)
                _note(
                    args,
                    f"{method}, offset {off} mm: pooled std {rep.pooled_std:.4f} mm "
                    f"(spread {rep.std_of_std if rep.std_of_std is None else round(rep.std_of_std, 5)})",
                )
            rows.append(row)
        _emit(
            args,
            {
                "preset": "table3",
                "sigma": 0.01,
                "runs": args.runs,
                "replications": args.replications,
                "seed": args.seed,
                "rows": rows,
            },
        )
        return 0
    offsets = _parse_offsets(args.offsets)
    report = monte_carlo(
        offsets, args.sigma, args.runs, args.replications, args.method, args.seed, geom
    )
    doc = {
        "method": report.method,
        "sigma": report.sigma,
        "runs": report.runs,
        "replications": report.replications,
        "seed": report.seed,
        "true_offsets": report.true_offsets.tolist(),
        **_mc_row(report),
    }
    _emit(args, doc)
    _note(
        args,
        f"{report.method}: pooled std {report.pooled_std:.5f} mm over "
        f"{report.replications} x {report.runs} runs",
    )
    return 0


def cmd_sensitivity(args) -> int:
    offsets = _parse_offsets(args.offsets)
    geom = _load_geometry(args.geometry) or Geometry.prototype()
    rows = sensitivity_table(geom, offsets)
    doc = {
        "offsets": offsets.tolist(),
        "rows": [
            {
                "posture": r.posture,
                "leg": r.leg.name,
                "plane": r.plane,
                "at_max": r.at_max,
                "at_min": r.at_min,
            }
            for r in rows
        ],
    }
    _emit(args, doc)
    if getattr(args, "verbose", False):
        print(f"{'posture':<26} {'leg':<4} {'plane':<6} {'at max':>9} {'at min':>9}", file=sys.stderr)
        for r in rows:
            print(
                f"{r.posture:<26} {r.leg.name:<4} {r.plane:<6} {r.at_max:>9.4f} {r.at_min:>9.4f}",
                file=sys.stderr,
            )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="orthocal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"orthocal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="identify joint offsets from a measurement file")
    p.add_argument("file", help="measurement file path or bundled fixture name")
    p.add_argument("--method", required=True, choices=sorted(CALIBRATE_METHODS))
    p.add_argument("--geometry", help="JSON geometry override file")
    p.add_argument("--out", help="also write the report to this path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="generate a measurement file for known offsets")
    p.add_argument("--offsets", required=True, help="true offsets, mm: x,y,z")
    p.add_argument("--sigma", type=float, default=0.0, help="gauge noise std, mm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method",
        default=SYSTEM_SIX,
        choices=list(SCHEMES),
        help="measurement shape to simulate",
    )
    p.add_argument("--repetitions", type=int, default=1, help="readings averaged per gauge")
    p.add_argument("--quantize", type=float, help="round values to this indicator resolution, mm")
    p.add_argument("--comment", help="free-text comment stored in the file")
    p.add_argument("--geometry", help="JSON geometry override file")
    p.add_argument("--out", help="also write the file to this path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("accuracy", help="analytic noise-propagation factors")
    p.add_argument("--sigma", type=float, required=True, help="gauge noise std, mm")
    p.add_argument("--geometry", help="JSON geometry override file")
    p.add_argument("--out", help="also write the report to this path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_accuracy)

    p = sub.add_parser("montecarlo", help="empirical estimator accuracy under noise")
    p.add_argument("--offsets", default="0,0,0", help="true offsets, mm: x,y,z")
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--replications", type=int, default=20)
    p.add_argument("--method", default="nonlinear-six", choices=list(ESTIMATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reproduce", choices=["table3"], help="run the standard benchmark preset")
    p.add_argument("--geometry", help="JSON geometry override file")
    p.add_argument("--out", help="also write the report to this path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("sensitivity", help="posture sensitivity table for given offsets")
    p.add_argument("--offsets", required=True, help="offsets, mm: x,y,z")
    p.add_argument("--geometry", help="JSON geometry override file")
    p.add_argument("--out", help="also write the table to this path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, DomainError, SingularError, RankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrthoglideError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
