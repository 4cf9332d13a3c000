"""Batch command-line front end.

Subcommands: ``calibrate``, ``simulate``, ``accuracy``, ``montecarlo``,
``sensitivity``.  Structured JSON goes to stdout (and to ``--out`` when
given); a human-readable summary goes to stderr under ``--verbose``.  Exit
codes: 0 success, 1 input error, 2 numerical or convergence failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .accuracy import monte_carlo, offset_covariance
from .errors import InputError, OrthoglideError
from .fileio import (
    FIXTURE_NAMES,
    CalibrationReport,
    _read_json,
    geometry_from_dict,
    load_fixture,
    load_measurement_file,
    measurement_to_dict,
)
from .geometry import Geometry, _check_count, _check_level, _noise_of_mean, check_offsets
from .identification import ESTIMATORS, identify
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        raise InputError(message)


def _parse_offsets(text: str, geom: Geometry) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"--offsets expects three comma-separated values, got {text!r}")
    try:
        return check_offsets([float(p) for p in parts], geom)
    except ValueError as exc:  # not a number, not finite or beyond the model's bound
        raise InputError(f"--offsets: {exc}, got {text!r}") from None


@contextlib.contextmanager
def _sigma_overflow():
    """A ValueError inside whose message starts with ``sigma``, which the
    library raises for a sigma that overflows its sums, as an InputError that
    names ``--sigma``; any other ValueError, such as the one for joint limits
    that overflow the covariance, passes unchanged."""
    try:
        yield
    except ValueError as exc:
        if not str(exc).startswith("sigma "):
            raise
        raise InputError(f"--sigma: {exc}") from None


def _load_geometry(path: str | None) -> Geometry | None:
    return None if path is None else geometry_from_dict(_read_json(path)[0])


def _emit(args, doc: dict) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    print(text)


def _note(args, message: str) -> None:
    if args.verbose:
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
    scheme = ESTIMATORS[name].scheme
    m = mf.measurement()
    if mf.method == SYSTEM_TWELVE and scheme.label == SYSTEM_SIX:
        _note(args, "reducing double-full measurements to max-minus-min differences")
        m = reduce_measurements(m)
    elif mf.method != scheme.label:
        raise InputError(
            f"method {args.method} requires {scheme.label} measurements, file has {mf.method}"
        )
    # readings near the float range overflow the residual sums; the
    # non-finite sigma_hat that results is rejected below, with one message
    with np.errstate(over="ignore", invalid="ignore"):
        result = identify(name, m, geom)
    residuals = dict(zip(scheme.row_keys, result.residuals.tolist()))
    report = CalibrationReport(
        input_digest=digest,
        method=args.method,
        offsets=dict(zip(("d_rho_x", "d_rho_y", "d_rho_z"), result.offsets.tolist())),
        residuals={k: residuals[k] for k in scheme.wire_keys},
        residual_rms=result.residual_rms,
        sigma_hat=result.sigma_hat,
        sigma_rho=offset_covariance(name, geom, result.sigma_hat).sigma_rho,
        iterations=result.iterations,
        converged=result.converged,
        gradient_norm=result.gradient_norm,
    )
    _emit(args, report.to_dict())
    _note(
        args,
        "offsets (mm): x=%+.4f y=%+.4f z=%+.4f | residual rms %.4f mm, "
        "sigma_hat %.4f mm, %d iterations"
        % (*result.offsets, result.residual_rms, result.sigma_hat, result.iterations),
    )
    return 0


def cmd_simulate(args) -> int:
    geom = _load_geometry(args.geometry) or Geometry.prototype()
    offsets = _parse_offsets(args.offsets, geom)
    _check_level(args.sigma, "--sigma")
    _check_count(args.seed, "--seed")  # NoiseModel and add_noise name no option
    _noise_of_mean(args.sigma, args.repetitions, "--repetitions")
    scheme = SCHEMES[args.method]
    m = scheme.measurement.from_array(scheme.predict(offsets, geom))
    with _sigma_overflow():
        m = add_noise(m, NoiseModel(sigma=args.sigma, seed=args.seed), args.repetitions)
    if args.quantize is not None:
        q = args.quantize
        with np.errstate(all="ignore"):  # a quantum this rule rejects may warn
            steps = m.as_array() / q
        if not (math.isfinite(q) and q > 0 and np.isfinite(steps).all()):
            raise InputError(f"--quantize must be finite and positive, readings / q finite, got {q!r}")
        m = type(m).from_array(np.round(steps) * q)
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
    _check_level(args.sigma, "--sigma")
    geom = _load_geometry(args.geometry) or Geometry.prototype()
    with _sigma_overflow():
        six = offset_covariance("six", geom, args.sigma)
        twelve = offset_covariance("twelve", geom, args.sigma)
    unit_six = offset_covariance("six", geom, 1.0).sigma_rho
    unit_twelve = offset_covariance("twelve", geom, 1.0).sigma_rho
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


# Most runs a montecarlo replication takes.  A replication is one batch of
# --runs rows, and its peak RSS grows by about 1.15 KB a run (table3 preset,
# 37 MB at one run, 152 MB at 1e5 runs), so the largest allowed run stays
# near 0.6 GB.
MAX_RUNS = 500_000


def cmd_montecarlo(args) -> int:
    if not 1 <= args.runs <= MAX_RUNS:
        raise InputError(f"--runs must be in [1, {MAX_RUNS}], got {args.runs}")
    _check_count(args.replications, "--replications", 1)
    _check_count(args.seed, "--seed")
    _check_level(args.sigma, "--sigma")
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
    offsets = _parse_offsets(args.offsets, geom)
    with _sigma_overflow():
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
    geom = _load_geometry(args.geometry) or Geometry.prototype()
    offsets = _parse_offsets(args.offsets, geom)
    rows = sensitivity_table(geom, offsets)
    # a row's fields in declaration order, the leg by name
    doc = {"offsets": offsets.tolist(), "rows": [{**vars(r), "leg": r.leg.name} for r in rows]}
    _emit(args, doc)
    if args.verbose:
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
    common = argparse.ArgumentParser(add_help=False)  # the options every subcommand takes
    common.add_argument("--geometry", help="JSON geometry override file")
    common.add_argument("--out", help="also write the JSON output to this path")
    common.add_argument("--verbose", action="store_true")

    def command(name: str, func, help: str) -> _Parser:
        p = sub.add_parser(name, help=help, parents=[common])
        p.set_defaults(func=func)
        return p

    p = command("calibrate", cmd_calibrate, "identify joint offsets from a measurement file")
    p.add_argument("file", help="measurement file path or bundled fixture name")
    p.add_argument("--method", required=True, choices=sorted(CALIBRATE_METHODS))

    p = command("simulate", cmd_simulate, "generate a measurement file for known offsets")
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

    p = command("accuracy", cmd_accuracy, "analytic noise-propagation factors")
    p.add_argument("--sigma", type=float, required=True, help="gauge noise std, mm")

    p = command("montecarlo", cmd_montecarlo, "empirical estimator accuracy under noise")
    p.add_argument("--offsets", default="0,0,0", help="true offsets, mm: x,y,z")
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument(
        "--runs", type=int, default=10000, help=f"runs per replication, at most {MAX_RUNS}"
    )
    p.add_argument("--replications", type=int, default=20)
    p.add_argument("--method", default="nonlinear-six", choices=list(ESTIMATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reproduce", choices=["table3"], help="run the standard benchmark preset")

    p = command("sensitivity", cmd_sensitivity, "posture sensitivity table for given offsets")
    p.add_argument("--offsets", required=True, help="offsets, mm: x,y,z")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OrthoglideError as exc:  # numerical: domain, singular, rank, convergence
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """The console script and ``python -m orthocal``: :func:`main` in a
    process of its own."""
    # what the imports built lives until the process exits: in the permanent
    # generation, the collections of interpreter exit neither walk nor tear it
    # down. Streams are still flushed and atexit handlers still run
    gc.freeze()
    raise SystemExit(main())
