"""Offset identification from leg-parallelism measurements.

The table :data:`ESTIMATORS` holds the five estimators: the closed-form
single-posture solution, linear least squares on the six- and
twelve-equation systems, and Gauss-Newton refinement of either on the exact
nonlinear deviation model.  :func:`identify` runs one on a measurement set;
it, ``nonlinear_identify`` and the Monte-Carlo share one batched solve.
Following the calibration procedure, the Gauss-Newton step uses the constant
linear-system matrix as its Jacobian; the exact analytic Jacobian is available
to ``nonlinear_identify`` for verification.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import ConvergenceError, RankError
from .geometry import Geometry, check_offsets
from .measurement import (
    SCHEMES,
    SYSTEM_SINGLE,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    CalibrationCoefficients,
    DoublePostureMeasurements,
    MeasurementSet,
    ReducedMeasurements,
    Scheme,
    SinglePostureMeasurements,
    _STRIP_ROWS,
    _geometry_constant,
    coefficients,
    prediction_jacobian,
    scheme_of,
)

__all__ = [
    "SYSTEM_SINGLE",
    "SYSTEM_TWELVE",
    "SYSTEM_SIX",
    "CalibrationCoefficients",
    "coefficients",
    "LinearSystem",
    "build_system",
    "build_twelve_eq_system",
    "build_six_eq_system",
    "CalibrationResult",
    "solve_single_posture_closed_form",
    "least_squares_solve",
    "identify",
    "nonlinear_identify",
    "prediction_jacobian",
    "Estimator",
    "ESTIMATORS",
    "ResidualReport",
    "residual_report",
]


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A calibration design matrix with an optional right-hand side (mm)."""

    design_matrix: np.ndarray
    label: str
    rhs: np.ndarray | None = None

    def with_measurements(self, m: MeasurementSet) -> "LinearSystem":
        if scheme_of(m).label != self.label:
            raise TypeError(
                f"{self.label} system requires {SCHEMES[self.label].measurement.__name__}, "
                f"got {type(m).__name__}"
            )
        return replace(self, rhs=m.as_array())


def build_system(label: str, geom: Geometry) -> LinearSystem:
    """Linear calibration system of the measurement scheme ``label``."""
    return LinearSystem(SCHEMES[label].design(geom), label)


def build_twelve_eq_system(geom: Geometry) -> LinearSystem:
    """``build_system(SYSTEM_TWELVE, geom)``."""
    return build_system(SYSTEM_TWELVE, geom)


def build_six_eq_system(geom: Geometry) -> LinearSystem:
    """``build_system(SYSTEM_SIX, geom)``."""
    return build_system(SYSTEM_SIX, geom)


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Identified offsets with residual diagnostics.

    ``residuals`` are observed minus predicted, in the row order of the
    system that was solved.  ``sigma_hat`` estimates the measurement noise
    from the residual sum of squares with ``n - 3`` degrees of freedom.
    """

    offsets: np.ndarray
    residuals: np.ndarray
    residual_rms: float
    sigma_hat: float
    method: str
    iterations: int
    converged: bool
    gradient_norm: float


def _residual_scale(r: np.ndarray) -> tuple[float, float]:
    """RMS ``sqrt(ssr/n)`` and noise estimate ``sqrt(ssr/(n-3))`` of residuals ``r``."""
    n = r.size
    ssr = float(r @ r)
    return float(np.sqrt(ssr / n)), float(np.sqrt(ssr / (n - 3)))


def _result(offsets, residuals, method, iterations, converged, gradient_norm) -> CalibrationResult:
    r = np.asarray(residuals, dtype=float)
    rms, sigma_hat = _residual_scale(r)
    return CalibrationResult(
        offsets=np.asarray(offsets, dtype=float),
        residuals=r,
        residual_rms=rms,
        sigma_hat=sigma_hat,
        method=method,
        iterations=int(iterations),
        converged=bool(converged),
        gradient_norm=float(gradient_norm),
    )


def _least_squares_gain(design: np.ndarray) -> np.ndarray:
    """Least-squares gain ``K = pinv(D)`` of a rank-3 design ``D``: the
    estimate is ``K @ readings``.  Shared read-only per design content, since
    systems and covariances arrive with arbitrary designs."""
    design = np.asarray(design, dtype=float)
    return _pinv_of(design.shape, design.tobytes())


@functools.lru_cache(maxsize=32)
def _pinv_of(shape: tuple, data: bytes) -> np.ndarray:
    design = np.frombuffer(data).reshape(shape)
    rank = np.linalg.matrix_rank(design)
    if rank < 3:
        raise RankError(f"design matrix has rank {rank} < 3")
    gain = np.linalg.pinv(design)
    gain.setflags(write=False)
    return gain


@_geometry_constant
def _closed_form_gain(geom: Geometry) -> np.ndarray:
    """:func:`solve_single_posture_closed_form` as a 3x6 map of the readings,
    written from the coefficients."""
    k = coefficients(geom)
    den = k.a1**2 + k.a2**2
    iso = -(k.a1 + k.a2) / (2.0 * den)
    return np.array([
        [iso, iso, k.a1 / den, k.a2 / den, 0.0, 0.0],
        [iso, iso, 0.0, 0.0, k.a1 / den, k.a2 / den],
        [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
    ])


@dataclass(frozen=True, eq=False)
class Estimator:
    """An offset estimator on the readings of ``scheme``: the read-only map
    ``K = gain(geom)``, refined from ``K @ readings`` by constant-Jacobian
    Gauss-Newton when ``nonlinear``; ``cli`` is its ``calibrate --method``."""

    scheme: Scheme
    gain: Callable
    nonlinear: bool
    cli: str


def _least_squares(label: str, nonlinear: bool, cli: str) -> Estimator:
    """Least squares on the design ``D`` of scheme ``label``: ``K = pinv(D)``."""
    scheme = SCHEMES[label]
    return Estimator(scheme, lambda geom: _least_squares_gain(scheme.design(geom)), nonlinear, cli)


#: The offset estimators by name, the methods ``monte_carlo`` takes.
ESTIMATORS = MappingProxyType(
    {
        "closed-form": Estimator(SCHEMES[SYSTEM_SINGLE], _closed_form_gain, False, "closed-form"),
        "six": _least_squares(SYSTEM_SIX, False, "linear6"),
        "twelve": _least_squares(SYSTEM_TWELVE, False, "linear12"),
        "nonlinear-six": _least_squares(SYSTEM_SIX, True, "nonlinear6"),
        "nonlinear-twelve": _least_squares(SYSTEM_TWELVE, True, "nonlinear12"),
    }
)


def least_squares_solve(sys: LinearSystem, m: MeasurementSet | None = None) -> CalibrationResult:
    """Minimum-residual solution of a linear calibration system.

    The readings are mapped by the design's least-squares gain ``pinv(D)``
    (an SVD, not the explicit normal equations), the gain the Monte-Carlo
    and the Gauss-Newton step use too; the result is the unique
    least-squares minimizer for a rank-3 design.
    """
    if m is not None:
        sys = sys.with_measurements(m)
    if sys.rhs is None:
        raise ValueError("linear system has no right-hand side; pass measurements")
    D = sys.design_matrix
    offsets = _least_squares_gain(D) @ sys.rhs
    residuals = sys.rhs - D @ offsets
    grad = np.linalg.norm(2.0 * D.T @ residuals)
    return _result(offsets, residuals, f"least-squares({sys.label})", 0, True, grad)


def _row_norm(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=1)``: the computation it makes, without the
    overhead of its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


# a Gauss-Newton row converges once its damped step (mm) or its gradient is below these
_STEP_TOL, _GRAD_TOL = 1e-9, 1e-12


def _gauss_newton(
    obs: np.ndarray,
    jacobian,
    predict_fn,
    x0: np.ndarray,
    max_iter: int = 100,
    max_halvings: int = 20,
    objective_history: list | None = None,
):
    """Vectorized damped Gauss-Newton.

    Iterates a batch of problems simultaneously: ``obs`` is ``(N, n)`` and
    ``x0`` is ``(N, 3)``.  ``jacobian`` is either a pair of a constant
    ``(n, 3)`` matrix ``D`` and its least-squares gain ``K = pinv(D)`` (see
    :func:`_least_squares_gain`), the step being ``-K r``, or a callback
    mapping iterates ``(k, 3)`` to model Jacobians ``(k, n, 3)``, evaluated
    at every sweep, whose step is the minimum-norm least-squares solution
    ``-pinv(J) r`` with the singular-value cut-off of
    :func:`numpy.linalg.lstsq`.  A step is halved (up to
    ``max_halvings`` times) whenever it fails to decrease the residual sum of
    squares, so the objective is non-increasing across accepted iterations;
    the halving levels are evaluated in blocks, several per model call, with
    the result of trying them one by one.  When ``objective_history`` is
    given the per-run objective is appended after every sweep.

    Returns ``(x, converged, iterations, residuals)`` where ``residuals`` is
    predicted minus observed at the final iterate.  An iterate beyond the
    model's validity bound raises :class:`ConvergenceError`.
    """
    if not callable(jacobian):
        jacobian, K = jacobian  # (n, 3), (3, n)

    def residual(x, ob):  # C-ordered: einsum's summation order follows the layout
        try:
            predicted = predict_fn(x)
        except ValueError as exc:  # check_offsets on an iterate
            raise ConvergenceError(f"Gauss-Newton iterate out of domain: {exc}") from None
        return np.subtract(predicted, ob, order="C")

    x = np.array(x0, dtype=float, copy=True)
    ladder = np.ldexp(1.0, -np.arange(max_halvings + 1))  # 2**-h: the damping of h halvings
    r = residual(x, obs)
    F = np.einsum("ij,ij->i", r, r)
    if objective_history is not None:
        objective_history.append(F.copy())
    n_run = x.shape[0]
    converged = np.zeros(n_run, dtype=bool)
    iterations = np.zeros(n_run, dtype=int)
    active = np.ones(n_run, dtype=bool)
    for _ in range(max_iter):
        idx = active.nonzero()[0]
        if idx.size == 0:
            break
        xa, ra = x[idx], r[idx]  # the active rows
        if callable(jacobian):
            J = jacobian(xa)
            grad = 2.0 * np.einsum("kn,kni->ki", ra, J)
        else:
            grad = 2.0 * ra @ jacobian  # (na, 3)
        flat = _row_norm(grad) < _GRAD_TOL
        if flat.any():
            converged[idx[flat]] = True
            active[idx[flat]] = False
            keep = ~flat
            idx, xa, ra = idx[keep], xa[keep], ra[keep]
            if idx.size == 0:
                continue
        if callable(jacobian):
            gains = np.linalg.pinv(J[~flat], rcond=np.finfo(float).eps * max(J.shape[1:]))
            step = -np.einsum("kin,kn->ki", gains, ra)
        else:
            step = -(ra @ K.T)
        r_try = residual(xa + step, obs[idx])
        F_try = np.einsum("ij,ij->i", r_try, r_try)
        # strict decrease required: accepting equal-objective steps can cycle
        worse = ~(F_try < F[idx])
        alpha = np.where(worse, ladder[-1], 1.0)  # the deepest factor if no level lowers F
        if worse.any():
            # the still-worse rows, gathered once, try k halving levels per call;
            # each keeps its first level that lowers the objective, the level a
            # one-level-per-call loop would stop at
            sub, level = worse.nonzero()[0], 0  # level: halvings tried by every row
            xs, ss, ob, Fs = xa[sub], step[sub], obs[idx[sub]], F[idx[sub]]
            while level < max_halvings and sub.size:
                # as many levels as fill one forward strip, at least one
                k = min(max_halvings - level, max(1, _STRIP_ROWS // sub.size))
                a = ladder[level + 1:level + k + 1]
                xt = xs[:, None] + a[:, None] * ss[:, None]  # (rows, k, 3)
                rt = residual(xt, ob[:, None]).reshape(-1, ob.shape[1])
                Ft = np.einsum("ij,ij->i", rt, rt)
                better = Ft.reshape(-1, k) < Fs[:, None]
                found = better.any(axis=1)
                level += k
                if found.any():
                    got, lv, keep = sub[found], better.argmax(axis=1)[found], ~found
                    take = found.nonzero()[0] * k + lv
                    r_try[got], F_try[got] = rt[take], Ft[take]
                    alpha[got], worse[got] = a[lv], False
                    sub, xs, ss, ob, Fs = sub[keep], xs[keep], ss[keep], ob[keep], Fs[keep]
        accepted = ~worse
        acc = idx[accepted]
        damped = alpha[:, None] * step  # the products the accepted trial point was formed with
        x[acc] = (xa + damped)[accepted]
        r[acc] = r_try[accepted]
        F[acc] = F_try[accepted]
        iterations[acc] += 1
        # a tiny damped step ends the row as converged, accepted or with the
        # damping exhausted; the damping exhausted on a larger one, as failed
        tiny = _row_norm(damped) < _STEP_TOL
        converged[idx[tiny]] = True
        active[idx[tiny | worse]] = False
        if objective_history is not None:
            objective_history.append(F.copy())
    return x, converged, iterations, r


def _estimate(est: Estimator, obs: np.ndarray, geom: Geometry, x0=None,
              jacobian: str = "linear", max_iter: int = 100):
    """The estimator ``est`` on a batch of readings ``obs`` ``(N, n)``: from
    ``x0`` ``(N, 3)`` or ``obs @ K.T``, refined for a nonlinear entry by
    :func:`_gauss_newton` with the constant design or, for ``jacobian="exact"``,
    the model Jacobian.  Returns ``(x, converged, iterations, residuals)``, the
    residuals predicted minus observed; a linear entry converges on every row
    in 0 iterations, with residuals None: only :func:`_identify` reports them."""
    scheme = est.scheme
    gain = est.gain(geom)
    x = obs @ gain.T if x0 is None else x0
    if not est.nonlinear:
        return x, np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=int), None
    if jacobian == "linear":
        jac = (scheme.design(geom), gain)
    elif jacobian == "exact":
        jac = lambda x: prediction_jacobian(x, geom, scheme.label)  # noqa: E731
    else:
        raise ValueError(f"jacobian must be 'linear' or 'exact', got {jacobian!r}")
    return _gauss_newton(obs, jac, lambda x: scheme.predict(x, geom), x, max_iter=max_iter)


def _identify(est: Estimator, obs: np.ndarray, geom: Geometry, method: str,
              x0=None, jacobian: str = "linear", max_iter: int = 100) -> CalibrationResult:
    """``est`` on the readings ``obs`` of one set; ConvergenceError if it fails."""
    x, conv, iters, r = _estimate(est, obs[None, :], geom, x0, jacobian, max_iter)
    if r is None:  # negated, so that -r has the signed zeros of obs - x D'
        r = -(obs - x @ est.scheme.design(geom).T)
    x, conv, iters, r = x[0], bool(conv[0]), int(iters[0]), r[0]
    if not conv:
        # short of the budget, only a step that no halving made descend stops a row
        raise ConvergenceError(
            f"Gauss-Newton did not converge within {max_iter} iterations"
            if iters == max_iter
            else f"Gauss-Newton step halving exhausted after {iters} of {max_iter} "
            "iterations: no damped step lowered the objective"
        )
    label = est.scheme.label
    J = prediction_jacobian(x, geom, label) if jacobian == "exact" else est.scheme.design(geom)
    return _result(x, -r, method, iters, conv, np.linalg.norm(2.0 * J.T @ r))


def identify(name: str, m: MeasurementSet, geom: Geometry) -> CalibrationResult:
    """The estimator ``ESTIMATORS[name]`` on one measurement set of its scheme:
    TypeError for a set of another scheme, ConvergenceError if it fails."""
    est = ESTIMATORS[name]
    obs = build_system(est.scheme.label, geom).with_measurements(m).rhs
    return _identify(est, obs, geom, name)


def solve_single_posture_closed_form(
    m: SinglePostureMeasurements, geom: Geometry
) -> CalibrationResult:
    """Sequential closed-form solution of the single-posture system.

    The z-offset is the isotropic average; the x/y offsets follow from the
    displacement rows conditioned on it.  Computationally convenient, but it
    may leave slightly higher residuals than the full pseudoinverse.
    """
    return identify("closed-form", m, geom)


def nonlinear_identify(
    m: ReducedMeasurements | DoublePostureMeasurements, geom: Geometry, initial=None, *,
    jacobian: str = "linear", max_iter: int = 100,
) -> CalibrationResult:
    """Minimize the squared mismatch between the nonlinear deviation model
    and the observations.

    ``jacobian="linear"`` uses the constant linear-system matrix as the
    Gauss-Newton Jacobian; ``"exact"`` recomputes the analytic model Jacobian
    every iteration.  The default initial guess is the linear least-squares
    solution, the design's least-squares gain applied to the readings.

    Raises
    ------
    ConvergenceError
        If the iteration budget is exhausted before the step or gradient
        tolerance is met, or if no halving of a step lowers the objective
        while the step is not below the tolerance.
    """
    label = scheme_of(m).label
    if label not in (SYSTEM_SIX, SYSTEM_TWELVE):
        raise TypeError(
            "nonlinear_identify accepts ReducedMeasurements or DoublePostureMeasurements"
        )
    if initial is not None:
        check_offsets(initial, geom)
        initial = np.asarray(initial, dtype=float)[None, :]
    est = ESTIMATORS["nonlinear-six" if label == SYSTEM_SIX else "nonlinear-twelve"]
    return _identify(
        est, m.as_array(), geom, f"gauss-newton({label})", initial, jacobian, max_iter
    )


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Observed-minus-predicted residuals with their scale statistics."""

    residuals: np.ndarray
    rms: float
    sigma_hat: float


def residual_report(
    offsets, m: MeasurementSet, geom: Geometry, model: str = "linear"
) -> ResidualReport:
    """Residuals of a measurement set under given offsets.

    ``model="linear"`` predicts with the corresponding linear system,
    ``"nonlinear"`` with the exact deviation model.
    """
    dr = np.asarray(offsets, dtype=float)
    check_offsets(dr, geom)
    scheme = scheme_of(m)
    if model == "linear":
        predicted = scheme.design(geom) @ dr
    elif model == "nonlinear":
        predicted = scheme.predict(dr, geom)
    else:
        raise ValueError(f"model must be 'linear' or 'nonlinear', got {model!r}")
    r = m.as_array() - predicted
    rms, sigma_hat = _residual_scale(r)
    return ResidualReport(residuals=r, rms=rms, sigma_hat=sigma_hat)
