"""Noise propagation into the identified offsets, analytic and Monte-Carlo.

The linear estimators admit a closed-form variance-covariance matrix: with a
design ``J`` and measurement-error covariance ``S``, the estimate covariance
is the sandwich ``(J'J)^-1 J' S J (J'J)^-1``.  The reduced six-equation
system has independent errors of variance ``2 sigma^2``; the twelve-equation
system inherits a block correlation from the shared isotropic readings.  The
Monte-Carlo harness validates these factors empirically and covers the
nonlinear estimators, for which no closed form exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, RankError
from .geometry import Geometry, check_offsets
from .identification import _gauss_newton, _step_map, solve_single_posture_closed_form
from .measurement import (
    GAUGE_CORRELATION_BLOCK,
    SCHEMES,
    SYSTEM_SINGLE,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    SinglePostureMeasurements,
    _geometry_constant,
    _noise_double,
)

__all__ = [
    "CovarianceStructure",
    "NoiseCovariance",
    "GAUGE_CORRELATION_BLOCK",
    "noise_covariance_six",
    "noise_covariance_twelve",
    "propagate_covariance",
    "OffsetCovariance",
    "offset_covariance_six",
    "offset_covariance_twelve",
    "offset_covariance_closed_form",
    "MonteCarloReport",
    "MC_METHODS",
    "monte_carlo",
]


class CovarianceStructure(Enum):
    SCALED_IDENTITY = "scaled-identity"
    BLOCK_G = "block-g"


@dataclass(frozen=True, eq=False)
class NoiseCovariance:
    """Covariance of the measurement-error vector (mm^2)."""

    matrix: np.ndarray
    structure: CovarianceStructure


def noise_covariance_six(sigma: float) -> NoiseCovariance:
    """Reduced-system error covariance ``2 sigma^2 I``: each difference of
    two independent raw readings, independent across channels."""
    return NoiseCovariance(
        sigma**2 * SCHEMES[SYSTEM_SIX].noise_covariance, CovarianceStructure.SCALED_IDENTITY
    )


def noise_covariance_twelve(sigma: float) -> NoiseCovariance:
    """Full-system error covariance ``sigma^2 G`` with one correlation block
    per plane-pair group of four deviations."""
    return NoiseCovariance(
        sigma**2 * SCHEMES[SYSTEM_TWELVE].noise_covariance, CovarianceStructure.BLOCK_G
    )


def _normal_maps(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(J'J)^-1`` and ``(J'J)^-1 J'`` of a full-rank design ``J``."""
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise RankError("design matrix is rank deficient")
    JtJ_inv = np.linalg.inv(design.T @ design)
    return JtJ_inv, JtJ_inv @ design.T


def propagate_covariance(design: np.ndarray, noise_matrix: np.ndarray) -> np.ndarray:
    """Covariance of the least-squares estimate for a given error covariance."""
    design = np.asarray(design, dtype=float)
    JtJ_inv, pinv = _normal_maps(design)
    return pinv @ np.asarray(noise_matrix) @ design @ JtJ_inv


@_geometry_constant
def _scheme_normal_maps(label: str, geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_normal_maps` of scheme ``label``'s design."""
    return _normal_maps(SCHEMES[label].design(geom))


@dataclass(frozen=True, eq=False)
class OffsetCovariance:
    """3x3 covariance of the identified offsets and its scalar summary
    ``sigma_rho = sqrt(trace(V)/3)``."""

    V: np.ndarray
    sigma_rho: float
    method: str


def _offset_covariance(
    label: str, geom: Geometry, sigma: float, method: str, gain=None
) -> OffsetCovariance:
    """Offset covariance of a linear estimator on the readings of scheme
    ``label``: ``gain`` maps the readings to the offsets, least squares on
    the scheme's design when None."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and non-negative")
    scheme = SCHEMES[label]
    noise = sigma**2 * scheme.noise_covariance
    if gain is None:
        # propagate_covariance with the design's maps computed once
        JtJ_inv, pinv = _scheme_normal_maps(label, geom)
        V = pinv @ noise @ scheme.design(geom) @ JtJ_inv
    else:
        V = gain @ noise @ gain.T
    return OffsetCovariance(V=V, sigma_rho=float(np.sqrt(np.trace(V) / 3.0)), method=method)


def offset_covariance_six(geom: Geometry, sigma: float) -> OffsetCovariance:
    """Analytic offset covariance of the six-equation estimator,
    ``V = 2 (J'J)^-1 sigma^2``."""
    return _offset_covariance(SYSTEM_SIX, geom, sigma, "six")


def offset_covariance_twelve(geom: Geometry, sigma: float) -> OffsetCovariance:
    """Analytic offset covariance of the twelve-equation estimator with the
    block-correlated error covariance."""
    return _offset_covariance(SYSTEM_TWELVE, geom, sigma, "twelve")


@_geometry_constant
def _closed_form_gain(geom: Geometry) -> np.ndarray:
    """The sequential single-posture solution's own 3x6 map of the readings."""
    # the solution is linear in the readings: column j solves reading e_j
    return np.column_stack([
        solve_single_posture_closed_form(SinglePostureMeasurements.from_array(e), geom).offsets
        for e in np.eye(6)
    ])


def offset_covariance_closed_form(geom: Geometry, sigma: float) -> OffsetCovariance:
    """Analytic offset covariance of the sequential single-posture solution,
    ``V = 2 sigma^2 K K'`` with ``K`` its own 3x6 map (not the pseudoinverse)."""
    return _offset_covariance(SYSTEM_SINGLE, geom, sigma, "closed-form", _closed_form_gain(geom))


MC_METHODS = ("six", "twelve", "nonlinear-six", "nonlinear-twelve")
_MC_SCHEMES = {"six": SYSTEM_SIX, "twelve": SYSTEM_TWELVE}


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Aggregated estimation-error statistics over replications.

    Per-axis statistics are replication means; ``pooled_std`` is the
    replication mean of the square-averaged per-axis standard deviation and
    ``std_of_std`` its spread across replications (None for a single
    replication).  Replication ``k`` draws from an independent stream seeded
    with ``seed + k``.
    """

    runs: int
    replications: int
    method: str
    sigma: float
    seed: int
    true_offsets: np.ndarray
    per_axis_mean: np.ndarray
    per_axis_std: np.ndarray
    pooled_std: float
    std_of_std: float | None
    failed_runs: int


def monte_carlo(
    true_offsets,
    sigma: float,
    runs: int,
    replications: int,
    method: str = "nonlinear-six",
    seed: int = 0,
    geom: Geometry | None = None,
) -> MonteCarloReport:
    """Empirical accuracy of an estimator under gauge noise.

    Each run simulates noisy raw gauge readings (realizing the correct error
    correlation), identifies the offsets, and records the estimation error
    against the truth.  Non-converged runs are excluded and counted; a
    failure rate above 0.1% aborts the report.
    """
    if method not in MC_METHODS:
        raise ValueError(f"method must be one of {MC_METHODS}, got {method!r}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and non-negative")
    geom = geom or Geometry.prototype()
    truth = np.asarray(true_offsets, dtype=float)
    check_offsets(truth, geom)

    scheme = SCHEMES[_MC_SCHEMES[method.removeprefix("nonlinear-")]]
    d_true = scheme.predict(truth, geom)
    design = scheme.design(geom)
    jacobian = (design, _step_map(scheme.label, geom))
    predict_fn = lambda x: scheme.predict(x, geom)  # noqa: E731
    pinv = np.linalg.pinv(design)

    rep_mean = np.empty((replications, 3))
    rep_std = np.empty((replications, 3))
    rep_pooled = np.empty(replications)
    failed = 0
    for rep in range(replications):
        rng = np.random.default_rng(seed + rep)
        # raw double-posture readings, reduced for the six-equation scheme
        noise = scheme.from_full(_noise_double(rng, sigma, (runs,)))
        obs = d_true[None, :] + noise
        x = obs @ pinv.T
        if method.startswith("nonlinear"):
            x, conv, _, _ = _gauss_newton(obs, jacobian, predict_fn, x)
            failed += int((~conv).sum())
            x = x[conv]
            if x.shape[0] == 0:
                raise ConvergenceError(
                    f"all {runs} runs of replication {rep} failed to converge"
                )
        err = x - truth[None, :]
        ddof = 1 if err.shape[0] > 1 else 0
        rep_mean[rep] = err.mean(axis=0)
        rep_std[rep] = err.std(axis=0, ddof=ddof)
        rep_pooled[rep] = math.sqrt(float((rep_std[rep] ** 2).mean()))
    if failed > 0.001 * runs * replications:
        raise ConvergenceError(
            f"Monte-Carlo failure rate too high: {failed} of {runs * replications} runs"
        )
    return MonteCarloReport(
        runs=runs,
        replications=replications,
        method=method,
        sigma=float(sigma),
        seed=int(seed),
        true_offsets=truth,
        per_axis_mean=rep_mean.mean(axis=0),
        per_axis_std=rep_std.mean(axis=0),
        pooled_std=float(rep_pooled.mean()),
        std_of_std=float(rep_pooled.std(ddof=1)) if replications > 1 else None,
        failed_runs=failed,
    )
