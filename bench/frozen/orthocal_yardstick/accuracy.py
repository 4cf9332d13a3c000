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
from .identification import (
    _gauss_newton_constant,
    build_six_eq_system,
    build_twelve_eq_system,
)
from .measurement import (
    _noise_double,
    _REDUCTION_PAIRS,
    double_deviation_array,
    reduced_deviation_array,
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
    "MonteCarloReport",
    "MC_METHODS",
    "monte_carlo",
]

#: Correlation pattern of one leg's four double-posture deviations
#: (max/min deviations of a gauge share the isotropic reading noise).
GAUGE_CORRELATION_BLOCK = np.array(
    [
        [2.0, 0.0, 1.0, 0.0],
        [0.0, 2.0, 0.0, 1.0],
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 1.0, 0.0, 2.0],
    ]
)


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
        2.0 * sigma**2 * np.eye(6), CovarianceStructure.SCALED_IDENTITY
    )


def noise_covariance_twelve(sigma: float) -> NoiseCovariance:
    """Full-system error covariance ``sigma^2 G`` with one correlation block
    per plane-pair group of four deviations."""
    G = np.kron(np.eye(3), GAUGE_CORRELATION_BLOCK)
    return NoiseCovariance(sigma**2 * G, CovarianceStructure.BLOCK_G)


def propagate_covariance(design: np.ndarray, noise_matrix: np.ndarray) -> np.ndarray:
    """Covariance of the least-squares estimate for a given error covariance."""
    design = np.asarray(design, dtype=float)
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise RankError("design matrix is rank deficient")
    JtJ_inv = np.linalg.inv(design.T @ design)
    return JtJ_inv @ design.T @ np.asarray(noise_matrix) @ design @ JtJ_inv


@dataclass(frozen=True, eq=False)
class OffsetCovariance:
    """3x3 covariance of the identified offsets and its scalar summary
    ``sigma_rho = sqrt(trace(V)/3)``."""

    V: np.ndarray
    sigma_rho: float
    method: str


def _offset_covariance(design, noise_cov: NoiseCovariance, method: str) -> OffsetCovariance:
    V = propagate_covariance(design, noise_cov.matrix)
    return OffsetCovariance(V=V, sigma_rho=float(np.sqrt(np.trace(V) / 3.0)), method=method)


def offset_covariance_six(geom: Geometry, sigma: float) -> OffsetCovariance:
    """Analytic offset covariance of the six-equation estimator,
    ``V = 2 (J'J)^-1 sigma^2``."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    design = build_six_eq_system(geom).design_matrix
    return _offset_covariance(design, noise_covariance_six(sigma), "six")


def offset_covariance_twelve(geom: Geometry, sigma: float) -> OffsetCovariance:
    """Analytic offset covariance of the twelve-equation estimator with the
    block-correlated error covariance."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    design = build_twelve_eq_system(geom).design_matrix
    return _offset_covariance(design, noise_covariance_twelve(sigma), "twelve")


MC_METHODS = ("six", "twelve", "nonlinear-six", "nonlinear-twelve")


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
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    geom = geom or Geometry.prototype()
    truth = np.asarray(true_offsets, dtype=float)
    check_offsets(truth, geom)

    reduced = method.endswith("six")
    if reduced:
        d_true = reduced_deviation_array(truth, geom)
        design = build_six_eq_system(geom).design_matrix
        predict_fn = lambda x: reduced_deviation_array(x, geom)  # noqa: E731
    else:
        d_true = double_deviation_array(truth, geom)
        design = build_twelve_eq_system(geom).design_matrix
        predict_fn = lambda x: double_deviation_array(x, geom)  # noqa: E731
    pinv = np.linalg.pinv(design)

    rep_mean = np.empty((replications, 3))
    rep_std = np.empty((replications, 3))
    rep_pooled = np.empty(replications)
    failed = 0
    for rep in range(replications):
        rng = np.random.default_rng(seed + rep)
        noise12 = _noise_double(rng, sigma, (runs,))
        if reduced:
            noise = np.stack(
                [noise12[:, i] - noise12[:, j] for i, j in _REDUCTION_PAIRS], axis=1
            )
        else:
            noise = noise12
        obs = d_true[None, :] + noise
        x = obs @ pinv.T
        if method.startswith("nonlinear"):
            x, conv, _, _ = _gauss_newton_constant(obs, design, predict_fn, x)
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
