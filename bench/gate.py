"""Correctness gate run once in every benchmark run, traced or not.

It compares the table3 pass at the reference seed, the bundled-fixture
calibrations (through the command-line front end) and the analytic accuracy
factors with the stored reference values at float tolerance, and the table3
pass with the paper's factors at statistical tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import orthocal as oc
import orthocal.cli
from reference import (
    FACTORS,
    FIXTURE_OFFSETS,
    PAPER_FACTORS,
    REFERENCE_SEED,
    TABLE3_POOLED_STD,
)
from workloads import check_table3, table3

RTOL = 1e-9


def calibrate_in_process(name: str, method: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = orthocal.cli.main(["calibrate", name, "--method", method])
    if code != 0:
        raise RuntimeError(f"calibrate {name} --method {method} exited with {code}")
    return json.loads(buf.getvalue())


def run_gate() -> list[str]:
    """Problems found; empty when every check passes."""
    try:
        return _checks()
    except Exception as exc:  # a gate that cannot run is a failed gate
        return [f"gate raised {type(exc).__name__}: {exc}"]


def _checks() -> list[str]:
    problems = []
    geom = oc.Geometry.prototype()
    factors = {
        "six": oc.offset_covariance_six(geom, 1.0).sigma_rho,
        "twelve": oc.offset_covariance_twelve(geom, 1.0).sigma_rho,
    }
    for scheme, value in factors.items():
        if not math.isclose(value, FACTORS[scheme], rel_tol=RTOL):
            problems.append(f"{scheme}-equation factor {value} != stored {FACTORS[scheme]}")
        if abs(value - PAPER_FACTORS[scheme]) > 0.01:
            problems.append(f"{scheme}-equation factor {value} != paper {PAPER_FACTORS[scheme]}")

    rows = table3(oc, geom, REFERENCE_SEED)
    for (method, off, pooled, _), (_, _, stored) in zip(rows, TABLE3_POOLED_STD):
        if not math.isclose(pooled, stored, rel_tol=RTOL):
            problems.append(f"table3 {method} at {off} mm: pooled std {pooled!r} != stored {stored!r}")
    problem = check_table3(rows)
    if problem:
        problems.append("table3: " + problem)

    for name, methods in FIXTURE_OFFSETS.items():
        for method, (offsets, sigma_rho) in methods.items():
            doc = calibrate_in_process(name, method)
            got = [doc["offsets"][k] for k in ("d_rho_x", "d_rho_y", "d_rho_z")]
            if not np.allclose(got, offsets, rtol=RTOL, atol=1e-12):
                problems.append(f"{name} {method}: offsets {got} != stored {list(offsets)}")
            if not math.isclose(doc["sigma_rho"], sigma_rho, rel_tol=RTOL):
                problems.append(f"{name} {method}: sigma_rho {doc['sigma_rho']} != stored {sigma_rho}")
    return problems
