"""Noise propagation into the identified offsets, analytic and Monte-Carlo.

Both serve every entry of the estimator table ``ESTIMATORS`` the same way.
Each has a gain ``K`` that maps the readings to the offsets: ``pinv(J)`` for
least squares on a design ``J``, the sequential solution's own 3x6 map for
the closed form.  With reading-error covariance ``S`` the estimate
covariance is ``K S K'``; the twelve-equation errors carry a block
correlation from the shared isotropic readings.  The Monte-Carlo harness
draws readings, applies ``K`` and refines by Gauss-Newton for the nonlinear
estimators, for which no closed form exists; it validates the analytic
factors empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError
from .geometry import Geometry, check_offsets
from .identification import ESTIMATORS, _gauss_newton, _least_squares_gain
from .measurement import GAUGE_CORRELATION_BLOCK, SCHEMES, SYSTEM_SIX, SYSTEM_TWELVE, _noise_double

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


def _noise_matrix(label: str, sigma: float) -> np.ndarray:
    """Reading-error covariance ``sigma^2 S`` of scheme ``label``; ValueError
    for a sigma that is negative, not finite or overflows it."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        S = sigma * sigma * SCHEMES[label].noise_covariance
    if not np.isfinite(S).all():
        raise ValueError(f"sigma {sigma:g} overflows the noise covariance")
    return S


def noise_covariance_six(sigma: float) -> NoiseCovariance:
    """Reduced-system error covariance ``2 sigma^2 I``: each difference of
    two independent raw readings, independent across channels."""
    return NoiseCovariance(_noise_matrix(SYSTEM_SIX, sigma), CovarianceStructure.SCALED_IDENTITY)


def noise_covariance_twelve(sigma: float) -> NoiseCovariance:
    """Full-system error covariance ``sigma^2 G`` with one correlation block
    per plane-pair group of four deviations."""
    return NoiseCovariance(_noise_matrix(SYSTEM_TWELVE, sigma), CovarianceStructure.BLOCK_G)


def propagate_covariance(design: np.ndarray, noise_matrix: np.ndarray) -> np.ndarray:
    """Covariance ``K S K'`` of the least-squares estimate ``K = pinv(J)`` for
    a given error covariance ``S``."""
    gain = _least_squares_gain(design)
    return gain @ np.asarray(noise_matrix) @ gain.T


@dataclass(frozen=True, eq=False)
class OffsetCovariance:
    """3x3 covariance of the identified offsets and its scalar summary
    ``sigma_rho = sqrt(trace(V)/3)``."""

    V: np.ndarray
    sigma_rho: float
    method: str


def _offset_covariance(name: str, geom: Geometry, sigma: float) -> OffsetCovariance:
    """Offset covariance ``K S K'`` of the linear map ``K`` of estimator
    ``name`` on its scheme's readings."""
    est = ESTIMATORS[name]
    S = _noise_matrix(est.scheme.label, sigma)
    gain = est.gain(geom)
    with np.errstate(over="ignore", invalid="ignore"):
        V = gain @ S @ gain.T
        sigma_rho = float(np.sqrt(np.trace(V) / 3.0))
    if not (np.isfinite(V).all() and math.isfinite(sigma_rho)):
        raise ValueError(f"sigma {sigma:g} overflows the offset covariance")
    return OffsetCovariance(V=V, sigma_rho=sigma_rho, method=name)


def offset_covariance_six(geom: Geometry, sigma: float) -> OffsetCovariance:
    """Analytic offset covariance of the six-equation estimator,
    ``V = 2 (J'J)^-1 sigma^2``."""
    return _offset_covariance("six", geom, sigma)


def offset_covariance_twelve(geom: Geometry, sigma: float) -> OffsetCovariance:
    """Analytic offset covariance of the twelve-equation estimator with the
    block-correlated error covariance."""
    return _offset_covariance("twelve", geom, sigma)


def offset_covariance_closed_form(geom: Geometry, sigma: float) -> OffsetCovariance:
    """Analytic offset covariance of the sequential single-posture solution,
    ``V = 2 sigma^2 K K'`` with ``K`` its own 3x6 map (not the pseudoinverse)."""
    return _offset_covariance("closed-form", geom, sigma)


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
    """Empirical accuracy of the estimator ``ESTIMATORS[method]`` under gauge noise.

    Each run simulates noisy raw gauge readings (realizing the correct error
    correlation), identifies the offsets, and records the estimation error
    against the truth.  Non-converged runs are excluded and counted; a
    failure rate above 0.1% aborts the report, a sigma that overflows the
    covariance or the statistics raises ValueError.
    """
    if method not in ESTIMATORS:
        raise ValueError(f"method must be one of {tuple(ESTIMATORS)}, got {method!r}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    geom = geom or Geometry.prototype()
    _offset_covariance(method, geom, sigma)
    truth = np.asarray(true_offsets, dtype=float)
    check_offsets(truth, geom)

    est = ESTIMATORS[method]
    scheme = est.scheme
    d_true = scheme.predict(truth, geom)
    gain = est.gain(geom)
    predict_fn = lambda x: scheme.predict(x, geom)  # noqa: E731

    rep_mean = np.empty((replications, 3))
    rep_std = np.empty((replications, 3))
    rep_pooled = np.empty(replications)
    failed = 0
    for rep in range(replications):
        rng = np.random.default_rng(seed + rep)
        if scheme.from_full is None:
            noise = scheme.sample_noise(rng, sigma, (runs,))
        else:
            # raw double-posture readings, reduced for the six-equation scheme
            noise = scheme.from_full(_noise_double(rng, sigma, (runs,)))
        obs = d_true[None, :] + noise
        x = obs @ gain.T
        if est.nonlinear:
            x, conv, _, _ = _gauss_newton(obs, (scheme.design(geom), gain), predict_fn, x)
            failed += int((~conv).sum())
            x = x[conv]
            if x.shape[0] == 0:
                raise ConvergenceError(
                    f"all {runs} runs of replication {rep} failed to converge"
                )
        err = x - truth[None, :]
        ddof = 1 if err.shape[0] > 1 else 0
        with np.errstate(over="ignore", invalid="ignore"):
            rep_mean[rep] = err.mean(axis=0)
            rep_std[rep] = err.std(axis=0, ddof=ddof)
            rep_pooled[rep] = math.sqrt(float((rep_std[rep] ** 2).mean()))
        if not (np.isfinite(rep_mean[rep]).all() and math.isfinite(rep_pooled[rep])):
            raise ValueError(f"sigma {sigma:g} overflows the Monte-Carlo statistics")
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
