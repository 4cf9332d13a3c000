"""Offset identification from leg-parallelism measurements.

Three estimator families are provided: the closed-form single-posture
solution, linear least squares on the six- and twelve-equation systems, and
Gauss-Newton refinement on the exact nonlinear deviation model.  Following
the calibration procedure, the Gauss-Newton step uses the constant
linear-system matrix as its Jacobian by default; the exact analytic Jacobian
of the nonlinear model is available as an option and for verification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    SinglePostureMeasurements,
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
    "build_single_posture_system",
    "build_twelve_eq_system",
    "build_six_eq_system",
    "CalibrationResult",
    "solve_single_posture_closed_form",
    "least_squares_solve",
    "nonlinear_identify",
    "prediction_jacobian",
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


def build_single_posture_system(geom: Geometry) -> LinearSystem:
    """Six-row single-posture system: two isotropic z-rows then the X and Y
    displacement rows."""
    return build_system(SYSTEM_SINGLE, geom)


def build_twelve_eq_system(geom: Geometry) -> LinearSystem:
    """Twelve-row double-posture system, grouped in fours per plane pair."""
    return build_system(SYSTEM_TWELVE, geom)


def build_six_eq_system(geom: Geometry) -> LinearSystem:
    """Six-row reduced system on the max-minus-min differences."""
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


def _result(offsets, residuals, method, iterations, converged, gradient_norm) -> CalibrationResult:
    r = np.asarray(residuals, dtype=float)
    n = r.size
    ssr = float(r @ r)
    return CalibrationResult(
        offsets=np.asarray(offsets, dtype=float),
        residuals=r,
        residual_rms=float(np.sqrt(ssr / n)),
        sigma_hat=float(np.sqrt(ssr / (n - 3))),
        method=method,
        iterations=int(iterations),
        converged=bool(converged),
        gradient_norm=float(gradient_norm),
    )


def solve_single_posture_closed_form(
    m: SinglePostureMeasurements, geom: Geometry
) -> CalibrationResult:
    """Sequential closed-form solution of the single-posture system.

    The z-offset is the isotropic average; the x/y offsets follow from the
    displacement rows conditioned on it.  Computationally convenient, but it
    may leave slightly higher residuals than the full pseudoinverse.
    """
    k = coefficients(geom)
    drz = (m.dz_x0 + m.dz_y0) / 2.0
    den = k.a1**2 + k.a2**2
    drx = (k.a1 * (m.dz_x_plus - drz) + k.a2 * (m.dz_x_minus - drz)) / den
    dry = (k.a1 * (m.dz_y_plus - drz) + k.a2 * (m.dz_y_minus - drz)) / den
    offsets = np.array([drx, dry, drz])
    sys = build_single_posture_system(geom)
    residuals = m.as_array() - sys.design_matrix @ offsets
    grad = np.linalg.norm(2.0 * sys.design_matrix.T @ residuals)
    return _result(offsets, residuals, "closed-form", 0, True, grad)


def least_squares_solve(
    sys: LinearSystem, m: MeasurementSet | None = None
) -> CalibrationResult:
    """Minimum-residual solution of a linear calibration system.

    Solved by orthogonal decomposition (not explicit normal equations); the
    result is the unique least-squares minimizer for a rank-3 design.
    """
    if m is not None:
        sys = sys.with_measurements(m)
    if sys.rhs is None:
        raise ValueError("linear system has no right-hand side; pass measurements")
    design = sys.design_matrix
    sol, _, rank, _ = np.linalg.lstsq(design, sys.rhs, rcond=None)
    if rank < 3:
        raise RankError(f"design matrix of the {sys.label} system has rank {rank} < 3")
    residuals = sys.rhs - design @ sol
    grad = np.linalg.norm(2.0 * design.T @ residuals)
    return _result(sol, residuals, f"least-squares({sys.label})", 0, True, grad)


def _lstsq(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of ``J x = b`` over a stack
    ``(N, n, 3)``, by SVD with the cut-off of :func:`numpy.linalg.lstsq`."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    keep = s > np.finfo(float).eps * max(J.shape[-2:]) * s[:, :1]
    y = np.einsum("kni,kn->ki", U, b)
    y = np.divide(y, s, out=np.zeros_like(y), where=keep)
    return np.einsum("kij,ki->kj", Vt, y)


@_geometry_constant
def _step_map(label: str, geom: Geometry) -> np.ndarray:
    """Gauss-Newton step map ``solve(D'D, D')`` of scheme ``label``'s design
    ``D``, the constant Jacobian of the default nonlinear estimators."""
    design = SCHEMES[label].design(geom)
    return np.linalg.solve(design.T @ design, design.T)


# Rows a damping round aims to fill in one forward-model call: about the
# break-even where a call's per-row cost equals its fixed cost.  Measured on a
# 2-vCPU Xeon VM (numpy 2.4.6, one BLAS thread), a predictor call costs
# 110-165 us plus 0.8-1.1 us per row, even at 126-192 rows.  A 1000-run
# Table 3 pass then makes 184 calls on 55.3k rows (one level per call: 383
# calls on 54.5k rows; 64 here: 227 calls on 54.8k rows).
_HALVING_BLOCK_ROWS = 128


def _gauss_newton(
    obs: np.ndarray,
    jacobian,
    predict_fn,
    x0: np.ndarray,
    max_iter: int = 100,
    step_tol: float = 1e-9,
    grad_tol: float = 1e-12,
    max_halvings: int = 20,
    objective_history: list | None = None,
):
    """Vectorized damped Gauss-Newton.

    Iterates a batch of problems simultaneously: ``obs`` is ``(N, n)`` and
    ``x0`` is ``(N, 3)``.  ``jacobian`` is either a pair of a constant
    ``(n, 3)`` matrix ``D`` and its step map ``solve(D'D, D')`` (see
    :func:`_step_map`), or a callback mapping iterates ``(k, 3)`` to model
    Jacobians ``(k, n, 3)``, evaluated at every sweep, whose step is the
    minimum-norm least-squares solution.  A step is halved (up to
    ``max_halvings`` times) whenever it fails to decrease the residual sum of
    squares, so the objective is non-increasing across accepted iterations;
    the halving levels are evaluated in blocks, several per model call, with
    the result of trying them one by one.  When ``objective_history`` is
    given the per-run objective is appended after every sweep.

    Returns ``(x, converged, iterations, residuals)`` where ``residuals`` is
    predicted minus observed at the final iterate.
    """
    if not callable(jacobian):
        jacobian, P = jacobian  # (n, 3), (3, n)
    x = np.array(x0, dtype=float, copy=True)
    r = predict_fn(x) - obs
    F = np.einsum("ij,ij->i", r, r)
    if objective_history is not None:
        objective_history.append(F.copy())
    n_run = x.shape[0]
    converged = np.zeros(n_run, dtype=bool)
    iterations = np.zeros(n_run, dtype=int)
    active = np.ones(n_run, dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        if callable(jacobian):
            J = jacobian(x[idx])
            grad = 2.0 * np.einsum("kn,kni->ki", r[idx], J)
        else:
            grad = 2.0 * r[idx] @ jacobian  # (na, 3)
        flat = np.linalg.norm(grad, axis=1) < grad_tol
        if flat.any():
            converged[idx[flat]] = True
            active[idx[flat]] = False
            idx = idx[~flat]
            if idx.size == 0:
                continue
        if callable(jacobian):
            step = _lstsq(J[~flat], -r[idx])
        else:
            step = -(r[idx] @ P.T)
        alpha = np.ones(idx.size)
        x_try = x[idx] + step
        r_try = predict_fn(x_try) - obs[idx]
        F_try = np.einsum("ij,ij->i", r_try, r_try)
        # strict decrease required: accepting equal-objective steps can cycle
        worse = ~(F_try < F[idx])
        level = 0  # halvings tried so far, the same for every still-worse row
        while level < max_halvings and worse.any():
            # the next k halving levels of every still-worse row in one call;
            # each row keeps its first level that lowers the objective, the
            # level a one-level-per-call loop would stop at
            sub = np.flatnonzero(worse)
            k = min(max_halvings - level, -(-_HALVING_BLOCK_ROWS // sub.size))
            rows = np.repeat(sub, k)
            a = np.tile(np.ldexp(1.0, -np.arange(level + 1, level + k + 1)), sub.size)
            xt = x[idx[rows]] + a[:, None] * step[rows]
            # obs is gathered by one fancy index as for a single level: the
            # objective's summation order follows the residuals' memory layout
            rt = predict_fn(xt) - obs[idx[rows]]
            Ft = np.einsum("ij,ij->i", rt, rt)
            better = (Ft < F[idx[rows]]).reshape(sub.size, k)
            found = better.any(axis=1)
            take = np.arange(sub.size) * k + np.where(found, better.argmax(axis=1), k - 1)
            x_try[sub], r_try[sub], F_try[sub], alpha[sub] = xt[take], rt[take], Ft[take], a[take]
            worse[sub] = ~found
            level += k
        accepted = ~worse
        acc = idx[accepted]
        x[acc] = x_try[accepted]
        r[acc] = r_try[accepted]
        F[acc] = F_try[accepted]
        iterations[acc] += 1
        step_norm = np.linalg.norm(alpha[:, None] * step, axis=1)
        tiny = step_norm < step_tol
        # accepted rows with a tiny step have converged; rows whose damping
        # exhausted count as converged only if the proposed step was tiny
        done = (accepted & tiny) | (worse & tiny)
        failed = worse & ~tiny
        converged[idx[done]] = True
        active[idx[done | failed]] = False
        if objective_history is not None:
            objective_history.append(F.copy())
    return x, converged, iterations, r


def nonlinear_identify(
    m: ReducedMeasurements | DoublePostureMeasurements,
    geom: Geometry,
    initial=None,
    *,
    jacobian: str = "linear",
    max_iter: int = 100,
    step_tol: float = 1e-9,
    grad_tol: float = 1e-12,
) -> CalibrationResult:
    """Minimize the squared mismatch between the nonlinear deviation model
    and the observations.

    ``jacobian="linear"`` uses the constant linear-system matrix as the
    Gauss-Newton Jacobian; ``"exact"`` recomputes the analytic model Jacobian
    every iteration.  The default initial guess is the linear least-squares
    solution.

    Raises
    ------
    ConvergenceError
        If the iteration budget is exhausted before the step or gradient
        tolerance is met.
    """
    scheme = scheme_of(m)
    if scheme.from_full is None:
        raise TypeError(
            "nonlinear_identify accepts ReducedMeasurements or DoublePostureMeasurements"
        )
    label = scheme.label
    sys = build_system(label, geom)
    predict_fn = lambda x: scheme.predict(x, geom)  # noqa: E731
    obs = m.as_array()
    if initial is None:
        x0 = least_squares_solve(sys, m).offsets
    else:
        x0 = np.asarray(initial, dtype=float)
        check_offsets(x0, geom)
    if jacobian == "linear":
        jac = (sys.design_matrix, _step_map(label, geom))
    elif jacobian == "exact":
        jac = lambda x: prediction_jacobian(x, geom, label)  # noqa: E731
    else:
        raise ValueError(f"jacobian must be 'linear' or 'exact', got {jacobian!r}")
    x, conv, iters, r = _gauss_newton(
        obs[None, :], jac, predict_fn, x0[None, :],
        max_iter=max_iter, step_tol=step_tol, grad_tol=grad_tol,
    )
    x, conv, iters, r = x[0], bool(conv[0]), int(iters[0]), r[0]
    J = jac(x) if callable(jac) else jac[0]
    grad_norm = float(np.linalg.norm(2.0 * J.T @ r))
    if not conv:
        raise ConvergenceError(
            f"Gauss-Newton did not converge within {max_iter} iterations"
        )
    return _result(x, -r, f"gauss-newton({label})", iters, conv, grad_norm)


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
    n = r.size
    ssr = float(r @ r)
    return ResidualReport(
        residuals=r,
        rms=float(np.sqrt(ssr / n)),
        sigma_hat=float(np.sqrt(ssr / (n - 3))),
    )
