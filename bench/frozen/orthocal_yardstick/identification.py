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
from .kinematics import _dk_point, inverse_jacobian
from .measurement import (
    _CHANNELS_12,
    _REDUCTION_PAIRS,
    DoublePostureMeasurements,
    MeasurementSet,
    ReducedMeasurements,
    SinglePostureMeasurements,
    double_deviation_array,
    reduced_deviation_array,
    single_deviation_array,
)

__all__ = [
    "SYSTEM_SINGLE",
    "SYSTEM_TWELVE",
    "SYSTEM_SIX",
    "CalibrationCoefficients",
    "coefficients",
    "LinearSystem",
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

SYSTEM_SINGLE = "single-posture"
SYSTEM_TWELVE = "double-full"
SYSTEM_SIX = "double-reduced"


@dataclass(frozen=True)
class CalibrationCoefficients:
    """Dimensionless coefficients of the linear calibration systems.

    ``a_i = tan(alpha_i)`` (single posture), ``b_i = sin(alpha_i)`` and
    ``c_i = (0.5 + sin(alpha_i)) tan(alpha_i)`` (twelve equations), and the
    reduced-system differences ``b = b1 - b2``, ``c = c1 - c2``, where
    ``alpha_1/alpha_2`` are the max/min displacement angles.
    """

    a1: float
    a2: float
    b1: float
    c1: float
    b2: float
    c2: float
    b: float
    c: float


def coefficients(geom: Geometry) -> CalibrationCoefficients:
    """Exact coefficient values for a geometry (not rounded)."""
    amax = geom.angle_max()
    amin = geom.angle_min()
    a1, a2 = amax.t_alpha, amin.t_alpha
    b1, b2 = amax.s_alpha, amin.s_alpha
    c1 = (0.5 + b1) * a1
    c2 = (0.5 + b2) * a2
    return CalibrationCoefficients(a1, a2, b1, c1, b2, c2, b1 - b2, c1 - c2)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A calibration design matrix with an optional right-hand side (mm)."""

    design_matrix: np.ndarray
    label: str
    rhs: np.ndarray | None = None

    def with_measurements(self, m: MeasurementSet) -> "LinearSystem":
        return replace(self, rhs=_system_rhs(self.label, m))


def _system_rhs(label: str, m: MeasurementSet) -> np.ndarray:
    expected = {
        SYSTEM_SINGLE: SinglePostureMeasurements,
        SYSTEM_TWELVE: DoublePostureMeasurements,
        SYSTEM_SIX: ReducedMeasurements,
    }[label]
    if not isinstance(m, expected):
        raise TypeError(
            f"{label} system requires {expected.__name__}, got {type(m).__name__}"
        )
    return m.as_array()


def build_single_posture_system(geom: Geometry) -> LinearSystem:
    """Six-row single-posture system: two isotropic z-rows then the X and Y
    displacement rows."""
    k = coefficients(geom)
    design = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
            [k.a1, 0.0, 1.0],
            [k.a2, 0.0, 1.0],
            [0.0, k.a1, 1.0],
            [0.0, k.a2, 1.0],
        ]
    )
    return LinearSystem(design, SYSTEM_SINGLE)


def build_twelve_eq_system(geom: Geometry) -> LinearSystem:
    """Twelve-row double-posture system, grouped in fours per plane pair."""
    k = coefficients(geom)
    design = np.array(
        [
            [k.b1, k.c1, 0.0],
            [k.c1, k.b1, 0.0],
            [k.b2, k.c2, 0.0],
            [k.c2, k.b2, 0.0],
            [0.0, k.b1, k.c1],
            [0.0, k.c1, k.b1],
            [0.0, k.b2, k.c2],
            [0.0, k.c2, k.b2],
            [k.b1, 0.0, k.c1],
            [k.c1, 0.0, k.b1],
            [k.b2, 0.0, k.c2],
            [k.c2, 0.0, k.b2],
        ]
    )
    return LinearSystem(design, SYSTEM_TWELVE)


def build_six_eq_system(geom: Geometry) -> LinearSystem:
    """Six-row reduced system on the max-minus-min differences."""
    k = coefficients(geom)
    design = np.array(
        [
            [k.b, k.c, 0.0],
            [k.c, k.b, 0.0],
            [0.0, k.b, k.c],
            [0.0, k.c, k.b],
            [k.b, 0.0, k.c],
            [k.c, 0.0, k.b],
        ]
    )
    return LinearSystem(design, SYSTEM_SIX)


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


def _dk_jacobian(p: np.ndarray, rho_eff: np.ndarray) -> np.ndarray:
    """TCP Jacobian ``dp/drho`` at a solved configuration."""
    return np.linalg.inv(inverse_jacobian(p, rho_eff))


def prediction_jacobian(offsets, geom: Geometry, label: str = SYSTEM_TWELVE) -> np.ndarray:
    """Exact analytic Jacobian of the nonlinear deviation model.

    Differentiates the leg-deviation predictions with respect to the offsets
    by the chain rule through the direct kinematics and the gauge-line
    parameter.  At zero offsets this reduces to the constant linear-system
    matrix.  Nominal gauge placement is assumed.
    """
    dr = np.asarray(offsets, dtype=float)
    check_offsets(dr, geom)
    L = geom.L
    iso_eff = dr + L
    p0 = _dk_point(iso_eff, L)
    D0 = _dk_jacobian(p0, iso_eff)
    rows = np.zeros((12, 3))
    cache: dict[tuple, tuple] = {}
    for slot, leg, gax, sign in _CHANNELS_12:
        key = (leg, sign)
        if key not in cache:
            ang = geom.angle_max() if sign > 0 else geom.angle_min()
            joints = dr + L * ang.c_alpha
            joints[leg] = dr[leg] + L * (1.0 + ang.s_alpha)
            pp = _dk_point(joints, L)
            Dp = _dk_jacobian(pp, joints)
            e = np.zeros(3)
            e[leg] = 1.0
            num = L / 2 + L * ang.s_alpha + dr[leg] / 2 - p0[leg] / 2
            den = L * (1.0 + ang.s_alpha) + dr[leg] - pp[leg]
            mu = num / den
            d_num = e / 2 - D0[leg, :] / 2
            d_den = e - Dp[leg, :]
            d_mu = (d_num * den - num * d_den) / (den * den)
            cache[key] = (pp, Dp, mu, d_mu)
        pp, Dp, mu, d_mu = cache[key]
        rows[slot, :] = d_mu * pp[gax] + mu * Dp[gax, :] - D0[gax, :] / 2
    if label == SYSTEM_TWELVE:
        return rows
    if label == SYSTEM_SIX:
        return np.stack([rows[i] - rows[j] for i, j in _REDUCTION_PAIRS])
    raise ValueError(f"prediction_jacobian supports {SYSTEM_TWELVE!r} or {SYSTEM_SIX!r}")


def _gauss_newton_constant(
    obs: np.ndarray,
    design: np.ndarray,
    predict_fn,
    x0: np.ndarray,
    max_iter: int = 100,
    step_tol: float = 1e-9,
    grad_tol: float = 1e-12,
    max_halvings: int = 20,
    objective_history: list | None = None,
):
    """Vectorized damped Gauss-Newton with a constant Jacobian.

    Iterates a batch of problems simultaneously: ``obs`` is ``(N, n)`` and
    ``x0`` is ``(N, 3)``.  A step is halved (up to ``max_halvings`` times)
    whenever it fails to decrease the residual sum of squares, so the
    objective is non-increasing across accepted iterations; when
    ``objective_history`` is given the per-run objective is appended after
    every sweep.

    Returns ``(x, converged, iterations, residuals)`` where ``residuals`` is
    predicted minus observed at the final iterate.
    """
    P = np.linalg.solve(design.T @ design, design.T)  # (3, n)
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
        grad = 2.0 * r[idx] @ design  # (na, 3)
        flat = np.linalg.norm(grad, axis=1) < grad_tol
        if flat.any():
            converged[idx[flat]] = True
            active[idx[flat]] = False
            idx = idx[~flat]
            if idx.size == 0:
                continue
        step = -(r[idx] @ P.T)
        alpha = np.ones(idx.size)
        x_try = x[idx] + step
        r_try = predict_fn(x_try) - obs[idx]
        F_try = np.einsum("ij,ij->i", r_try, r_try)
        # strict decrease required: accepting equal-objective steps can cycle
        worse = ~(F_try < F[idx])
        for _h in range(max_halvings):
            if not worse.any():
                break
            alpha[worse] *= 0.5
            sub = np.flatnonzero(worse)
            xt = x[idx[sub]] + alpha[sub, None] * step[sub]
            rt = predict_fn(xt) - obs[idx[sub]]
            Ft = np.einsum("ij,ij->i", rt, rt)
            x_try[sub], r_try[sub], F_try[sub] = xt, rt, Ft
            worse[sub] = ~(Ft < F[idx[sub]])
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


def _gauss_newton_exact(
    obs: np.ndarray,
    geom: Geometry,
    label: str,
    predict_fn,
    x0: np.ndarray,
    max_iter: int = 100,
    step_tol: float = 1e-9,
    grad_tol: float = 1e-12,
    max_halvings: int = 20,
):
    """Scalar damped Gauss-Newton recomputing the exact Jacobian each step."""
    x = np.array(x0, dtype=float, copy=True)
    r = predict_fn(x[None, :])[0] - obs
    F = float(r @ r)
    iterations = 0
    for _ in range(max_iter):
        J = prediction_jacobian(x, geom, label)
        grad = 2.0 * J.T @ r
        if np.linalg.norm(grad) < grad_tol:
            return x, True, iterations, r
        step = np.linalg.lstsq(J, -r, rcond=None)[0]
        alpha = 1.0
        for _h in range(max_halvings + 1):
            x_try = x + alpha * step
            r_try = predict_fn(x_try[None, :])[0] - obs
            F_try = float(r_try @ r_try)
            if F_try < F:
                break
            alpha *= 0.5
        else:
            return x, np.linalg.norm(alpha * step) < step_tol, iterations, r
        x, r, F = x_try, r_try, F_try
        iterations += 1
        if np.linalg.norm(alpha * step) < step_tol:
            return x, True, iterations, r
    return x, False, iterations, r


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
    if isinstance(m, ReducedMeasurements):
        label = SYSTEM_SIX
        sys = build_six_eq_system(geom)
        predict_fn = lambda x: reduced_deviation_array(x, geom)  # noqa: E731
    elif isinstance(m, DoublePostureMeasurements):
        label = SYSTEM_TWELVE
        sys = build_twelve_eq_system(geom)
        predict_fn = lambda x: double_deviation_array(x, geom)  # noqa: E731
    else:
        raise TypeError(
            "nonlinear_identify accepts ReducedMeasurements or DoublePostureMeasurements"
        )
    obs = m.as_array()
    if initial is None:
        x0 = least_squares_solve(sys, m).offsets
    else:
        x0 = np.asarray(initial, dtype=float)
        check_offsets(x0, geom)
    if jacobian == "linear":
        x, conv, iters, r = _gauss_newton_constant(
            obs[None, :],
            sys.design_matrix,
            predict_fn,
            x0[None, :],
            max_iter=max_iter,
            step_tol=step_tol,
            grad_tol=grad_tol,
        )
        x, conv, iters, r = x[0], bool(conv[0]), int(iters[0]), r[0]
        grad_norm = float(np.linalg.norm(2.0 * sys.design_matrix.T @ r))
    elif jacobian == "exact":
        x, conv, iters, r = _gauss_newton_exact(
            obs, geom, label, predict_fn, x0,
            max_iter=max_iter, step_tol=step_tol, grad_tol=grad_tol,
        )
        grad_norm = float(
            np.linalg.norm(2.0 * prediction_jacobian(x, geom, label).T @ r)
        )
    else:
        raise ValueError(f"jacobian must be 'linear' or 'exact', got {jacobian!r}")
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
    obs = m.as_array()
    if model == "linear":
        if isinstance(m, SinglePostureMeasurements):
            design = build_single_posture_system(geom).design_matrix
        elif isinstance(m, DoublePostureMeasurements):
            design = build_twelve_eq_system(geom).design_matrix
        elif isinstance(m, ReducedMeasurements):
            design = build_six_eq_system(geom).design_matrix
        else:
            raise TypeError(f"unsupported measurement set: {type(m).__name__}")
        predicted = design @ dr
    elif model == "nonlinear":
        if isinstance(m, SinglePostureMeasurements):
            predicted = single_deviation_array(dr, geom)
        elif isinstance(m, DoublePostureMeasurements):
            predicted = double_deviation_array(dr, geom)
        elif isinstance(m, ReducedMeasurements):
            predicted = reduced_deviation_array(dr, geom)
        else:
            raise TypeError(f"unsupported measurement set: {type(m).__name__}")
    else:
        raise ValueError(f"model must be 'linear' or 'nonlinear', got {model!r}")
    r = obs - predicted
    n = r.size
    ssr = float(r @ r)
    return ResidualReport(
        residuals=r,
        rms=float(np.sqrt(ssr / n)),
        sigma_hat=float(np.sqrt(ssr / (n - 3))),
    )
