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

import numpy as np

from ._record import Record
from .errors import ConvergenceError
from .geometry import Geometry, _check_count, _check_level, _offset_triple
from .identification import ESTIMATORS, _estimate, _limits_overflow
from .measurement import SCHEMES, _lookup

__all__ = [
    "noise_covariance",
    "OffsetCovariance",
    "offset_covariance",
    "offset_covariance_six",
    "offset_covariance_twelve",
    "MonteCarloReport",
    "monte_carlo",
]


def noise_covariance(label: str, sigma: float) -> np.ndarray:
    """Reading-error covariance ``sigma^2 S`` of scheme ``label``; ValueError
    for a sigma that is negative, not finite or overflows it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _noise(label, sigma)


# the largest entry of each scheme's reading-error pattern S0: sigma^2 S0 is
# finite exactly where sigma^2 times it is, as no entry is negative
_NOISE_PEAK = {label: float(s.noise_covariance.max()) for label, s in SCHEMES.items()}


def _noise(label: str, sigma: float) -> np.ndarray:
    """:func:`noise_covariance`, under the caller's ``np.errstate``."""
    _check_level(sigma, "sigma")
    # squared as a float: an int squares past the float range, and a numpy
    # integer wraps
    sigma = float(sigma)
    S = sigma * sigma * _lookup(SCHEMES, label, "scheme").noise_covariance
    if not math.isfinite(sigma * sigma * _NOISE_PEAK[label]):
        raise ValueError(f"sigma {sigma:g} overflows the noise covariance")
    return S


class OffsetCovariance(Record, eq=False):
    """3x3 covariance of the identified offsets and its scalar summary
    ``sigma_rho = sqrt(trace(V)/3)``."""

    V: np.ndarray
    sigma_rho: float
    method: str


def offset_covariance(name: str, geom: Geometry, sigma: float) -> OffsetCovariance:
    """Offset covariance ``K S K'`` of the linear map ``K`` of estimator
    ``name`` on its scheme's readings; ValueError naming sigma, or the joint
    limits of ``geom``, if it overflows."""
    est = _lookup(ESTIMATORS, name, "estimator")
    with np.errstate(over="ignore", invalid="ignore"):  # entered once: it costs a microsecond
        S = _noise(est.scheme.label, sigma)
        gain = est.gain(geom)
        V = gain @ S @ gain.T
        mean_variance = V.trace() / 3.0
        if not (np.isfinite(V).all() and math.isfinite(mean_variance)):
            # the joint limits' part first: limits near zero leave a design
            # so near singular that its unit-sigma covariance overflows too
            if not np.isfinite(gain @ est.scheme.noise_covariance @ gain.T).all():
                raise _limits_overflow(geom, name)
            raise ValueError(f"sigma {sigma:g} overflows the offset covariance")
    return OffsetCovariance(V=V, sigma_rho=math.sqrt(mean_variance), method=name)


def offset_covariance_six(geom: Geometry, sigma: float) -> OffsetCovariance:
    """``offset_covariance("six", geom, sigma)``."""
    return offset_covariance("six", geom, sigma)


def offset_covariance_twelve(geom: Geometry, sigma: float) -> OffsetCovariance:
    """``offset_covariance("twelve", geom, sigma)``."""
    return offset_covariance("twelve", geom, sigma)


class MonteCarloReport(Record, eq=False):
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
    failure rate above 0.1% aborts the report.  An unknown method, a seed
    that is not a non-negative integer, runs or replications that are not
    positive integers, a sigma that is not finite and non-negative or that
    overflows the covariance or the statistics, and offsets that are not one
    triple raise ValueError.
    """
    est = _lookup(ESTIMATORS, method, "estimator")
    _check_count(seed, "seed")
    _check_count(runs, "runs", 1)
    _check_count(replications, "replications", 1)
    geom = geom or Geometry.prototype()
    offset_covariance(method, geom, sigma)
    truth = _offset_triple(true_offsets, geom, "monte_carlo")

    scheme = est.scheme
    d_true = scheme.predict(truth, geom)

    rep_mean = np.empty((replications, 3))
    rep_std = np.empty((replications, 3))
    rep_pooled = np.empty(replications)
    failed = 0
    for rep in range(replications):
        rng = np.random.default_rng(int(seed) + rep)  # int: a numpy seed + rep could wrap
        obs = d_true[None, :] + scheme.sample_noise(rng, sigma, (runs,))
        x, conv, *_ = _estimate(est, obs, geom)
        failed += int((~conv).sum())
        x = x[conv]
        if x.shape[0] == 0:
            raise ConvergenceError(f"all {runs} runs of replication {rep} failed to converge")
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
