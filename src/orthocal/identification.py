"""Offset identification from leg-parallelism measurements.

The table :data:`ESTIMATORS` holds the five estimators: the closed-form
single-posture solution, linear least squares on the six- and
twelve-equation systems, and Gauss-Newton refinement of either on the exact
nonlinear deviation model.  :func:`identify` runs one on a measurement set;
it, ``nonlinear_identify`` and the Monte-Carlo share one batched solve.
Readings enter only as a measurement set of the estimator's scheme.  Every
linear estimate of one set, ``least_squares_solve`` of a ``LinearSystem``
included, is ``K @ readings`` with its residuals and gradient from one fit
formula; its covariance ``K S K'`` is ``accuracy.offset_covariance``.
Following the calibration procedure, the Gauss-Newton step uses the constant
linear-system matrix as its Jacobian.  ``nonlinear_identify`` can step with the
exact analytic Jacobian instead, which the forward model returns with the
deviations from the same solve of the posture stack, so that an exact solve
costs one forward solve per iterate, as the constant-design one does.  Its step
solves the 3x3 normal equations, with ``pinv``'s minimum-norm step only where
``J'J`` is nearly singular.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Callable

import numpy as np

from ._record import Record
from .errors import ConvergenceError, RankError
from .geometry import Geometry, _check_count, _offset_triple, check_offsets
from .measurement import (
    SCHEMES,
    SYSTEM_SINGLE,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    DoublePostureMeasurements,
    MeasurementSet,
    ReducedMeasurements,
    Scheme,
    SinglePostureMeasurements,
    _STRIP_ROWS,
    _geometry_constant,
    _lookup,
    _readings,
    coefficients,
    deviations_and_jacobian,
    scheme_of,
)

__all__ = [
    "LinearSystem",
    "build_system",
    "build_twelve_eq_system",
    "build_six_eq_system",
    "CalibrationResult",
    "solve_single_posture_closed_form",
    "least_squares_solve",
    "identify",
    "nonlinear_identify",
    "Estimator",
    "ESTIMATORS",
    "ResidualReport",
    "residual_report",
]


class LinearSystem(Record, eq=False):
    """The calibration design matrix of the measurement scheme ``label``."""

    design_matrix: np.ndarray
    label: str


def build_system(label: str, geom: Geometry) -> LinearSystem:
    """Linear calibration system of the measurement scheme ``label``."""
    return LinearSystem(_lookup(SCHEMES, label, "scheme").design(geom), label)


def build_twelve_eq_system(geom: Geometry) -> LinearSystem:
    """``build_system(SYSTEM_TWELVE, geom)``."""
    return build_system(SYSTEM_TWELVE, geom)


def build_six_eq_system(geom: Geometry) -> LinearSystem:
    """``build_system(SYSTEM_SIX, geom)``."""
    return build_system(SYSTEM_SIX, geom)


class CalibrationResult(Record, eq=False):
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
    return math.sqrt(ssr / n), math.sqrt(ssr / (n - 3))


def _result(offsets, residuals, method, iterations, converged, gradient) -> CalibrationResult:
    """The result record; its gradient norm is ``np.linalg.norm``'s
    ``sqrt(g . g)``, without that function's argument checks."""
    rms, sigma_hat = _residual_scale(residuals)  # both callers pass float arrays
    return CalibrationResult(
        offsets=offsets,
        residuals=residuals,
        residual_rms=rms,
        sigma_hat=sigma_hat,
        method=method,
        iterations=int(iterations),
        converged=bool(converged),
        gradient_norm=math.sqrt(gradient.dot(gradient)),
    )


def _linear_fit(design: np.ndarray, gain: np.ndarray, obs: np.ndarray, method: str):
    """The linear estimate ``x = K @ obs`` of the readings of design ``D``,
    with residuals ``r = obs - D x`` and gradient norm ``|2 D' r|``."""
    offsets = gain @ obs
    residuals = obs - design @ offsets
    return _result(offsets, residuals, method, 0, True, 2.0 * design.T @ residuals)


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


class Estimator(Record, eq=False):
    """An offset estimator on the readings of ``scheme``: the read-only map
    ``K = gain(geom)``, refined from ``K @ readings`` by constant-Jacobian
    Gauss-Newton when ``nonlinear``; ``cli`` is its ``calibrate --method``."""

    scheme: Scheme
    gain: Callable
    nonlinear: bool
    cli: str


# least squares on a double-posture design ``D``: ``K = pinv(D)``, one cache
# lookup per call; module functions, so that an estimator copies and pickles
@_geometry_constant
def _six_gain(geom: Geometry) -> np.ndarray:
    return _least_squares_gain(SCHEMES[SYSTEM_SIX].design(geom))


@_geometry_constant
def _twelve_gain(geom: Geometry) -> np.ndarray:
    return _least_squares_gain(SCHEMES[SYSTEM_TWELVE].design(geom))


#: The offset estimators by name, the methods ``monte_carlo`` takes.
ESTIMATORS = MappingProxyType(
    {
        "closed-form": Estimator(SCHEMES[SYSTEM_SINGLE], _closed_form_gain, False, "closed-form"),
        "six": Estimator(SCHEMES[SYSTEM_SIX], _six_gain, False, "linear6"),
        "twelve": Estimator(SCHEMES[SYSTEM_TWELVE], _twelve_gain, False, "linear12"),
        "nonlinear-six": Estimator(SCHEMES[SYSTEM_SIX], _six_gain, True, "nonlinear6"),
        "nonlinear-twelve": Estimator(SCHEMES[SYSTEM_TWELVE], _twelve_gain, True, "nonlinear12"),
    }
)

#: The Gauss-Newton entry of :data:`ESTIMATORS` by the measurement type it takes.
_GAUSS_NEWTON = {e.scheme.measurement: e for e in ESTIMATORS.values() if e.nonlinear}


def least_squares_solve(sys: LinearSystem, m: MeasurementSet) -> CalibrationResult:
    """Minimum-residual solution of a linear calibration system.

    The readings are mapped by the design's least-squares gain ``pinv(D)``
    (an SVD, not the explicit normal equations), the gain the Monte-Carlo
    and the Gauss-Newton step use too; the result is the unique
    least-squares minimizer for a rank-3 design.  ``m`` is a measurement set
    of the system's scheme: TypeError for another; ValueError for a design
    that is not one row per reading by three offsets.
    """
    obs = _readings(m, _lookup(SCHEMES, sys.label, "scheme").measurement)
    D = sys.design_matrix
    if np.shape(D) != (obs.size, 3):
        raise ValueError(
            f"design matrix of {sys.label!r} must have shape ({obs.size}, 3), got {np.shape(D)}"
        )
    return _linear_fit(D, _least_squares_gain(D), obs, f"least-squares({sys.label})")


def _row_norm(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=1)`` of rows ``(n, 3)``: its squares summed
    as columns, in the order its row reduction takes, ``(s0 + s1) + s2``."""
    s = (v * v).T
    return np.sqrt((s[0] + s[1]) + s[2])


# a Gauss-Newton row converges once its damped step (mm) or its gradient is below
# these; a step that does not lower the objective is halved up to _MAX_HALVINGS times
_STEP_TOL, _GRAD_TOL, _MAX_HALVINGS = 1e-9, 1e-12, 20
# 2**-h: the damping of h halvings, h = 0 .. _MAX_HALVINGS
_LADDER = np.ldexp(1.0, -np.arange(_MAX_HALVINGS + 1))
# an exact step solves the normal equations unless det(J'J) is at most this
# fraction of the product of its diagonal (1 for orthogonal columns, 0 for a
# rank below 3): below it cond(J) of the column-scaled J may exceed 26, the
# normal equations lose digits with its square, and pinv steps
_DET_FLOOR = 1e-2


def _flat(di: int, dj: int) -> np.ndarray:
    """For each entry ``3 i + j`` of a flattened 3x3 matrix, the flat index of
    its entry ``(i + di, j + dj)``, indices mod 3."""
    i, j = np.divmod(np.arange(9), 3)
    return 3 * ((i + di) % 3) + (j + dj) % 3


# entry (i, j) of the adjugate of a symmetric 3x3 matrix a is the cofactor
# a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1]: the first factors of its
# two products, then the second ones
_COFACTOR_TAKE = np.array([[_flat(1, 1), _flat(1, 2)], [_flat(2, 2), _flat(2, 1)]])


def _gauss_newton_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The Gauss-Newton steps ``-pinv(J) r`` ``(k, 3)`` of Jacobians ``J``
    ``(k, n, 3)`` at residuals ``r`` ``(k, n)``: the normal equations
    ``J'J s = -J'r`` solved by the adjugate of ``J'J``, or, on rows whose
    ``det(J'J)`` is at most ``_DET_FLOOR`` times the product of its diagonal,
    the minimum-norm step of ``pinv`` with the singular-value cut-off of
    :func:`numpy.linalg.lstsq`."""
    # J row-major, (n, 3, k): einsum sums the n rows in order at any k, so a
    # row's step does not depend on the rest of the batch, and it runs many
    # times faster than on (k, n, 3)
    Jn = np.ascontiguousarray(J.transpose(1, 2, 0))
    a = np.einsum("nik,njk->ijk", Jn, Jn).reshape(9, -1)  # J'J, flat entries first
    adj = np.subtract(*np.multiply(*a.take(_COFACTOR_TAKE, 0, mode="wrap")))  # symmetric, as J'J is
    terms = np.multiply(a[:3], adj[:3])
    det = terms[0] + terms[1] + terms[2]
    low = (~(det > _DET_FLOOR * (a[0] * a[4] * a[8]))).nonzero()[0]
    det.put(low, 1.0)  # their steps are pinv's
    step = np.einsum("jik,jk->ki", adj.reshape(3, 3, -1), np.einsum("nik,nk->ik", Jn, r.T))
    np.divide(step, -det[:, None], out=step)
    if low.size:
        gains = np.linalg.pinv(J.take(low, 0), rcond=np.finfo(float).eps * max(J.shape[1:]))
        step[low] = -np.einsum("kin,kn->ki", gains, r.take(low, 0))
    return step


def _gauss_newton(
    obs: np.ndarray,
    design,
    model,
    x0: np.ndarray,
    max_iter: int = 100,
    objective_history: list | None = None,
):
    """Vectorized damped Gauss-Newton.

    Iterates a batch of problems simultaneously: ``obs`` is ``(N, n)`` and
    ``x0`` is ``(N, 3)``.  ``design`` is either a pair of a constant
    ``(n, 3)`` matrix ``D`` and its least-squares gain ``K = pinv(D)`` (see
    :func:`_least_squares_gain`), the step being ``-K r``, with ``model``
    mapping iterates ``(..., 3)`` to predictions ``(..., n)``; or None, with
    ``model`` returning the predictions and their model Jacobians
    ``(..., n, 3)`` as a pair, so that every iterate's Jacobian comes from the
    call that evaluated it.  Then the step is :func:`_gauss_newton_step`,
    ``-pinv(J) r`` by the normal equations.  A step is halved (up to
    ``_MAX_HALVINGS`` times) whenever it fails to decrease the residual sum of
    squares, so the objective is non-increasing across accepted iterations;
    the halving levels are evaluated in blocks, several per model call, with
    the result of trying them one by one.  When ``objective_history`` is given
    the per-run objective is appended after every sweep.

    Returns ``(x, converged, iterations, residuals, jacobians)`` where
    ``residuals`` is predicted minus observed at the final iterate and
    ``jacobians`` the model Jacobian there, None for a constant design.  An
    iterate beyond the model's validity bound raises
    :class:`ConvergenceError`.
    """
    exact = design is None
    if not exact:  # the gradient's 2 D and the step's -K', each exactly scaled once
        D, K = design  # (n, 3), (3, n)
        D2, gain = 2.0 * D, -K.T

    def residual(x, ob):  # C-ordered: einsum's summation order follows the layout
        try:
            out = model(x)
        except ValueError as exc:  # check_offsets on an iterate
            raise ConvergenceError(f"Gauss-Newton iterate out of domain: {exc}") from None
        if exact:
            return np.subtract(out[0], ob, order="C"), out[1]
        return np.subtract(out, ob, order="C"), None

    x = np.array(x0, dtype=float, copy=True)
    r, J = residual(x, obs)
    F = np.einsum("ij,ij->i", r, r)
    if objective_history is not None:
        objective_history.append(F.copy())
    n_run = x.shape[0]
    converged = np.zeros(n_run, dtype=bool)
    iterations = np.zeros(n_run, dtype=int)
    # the active rows, compacted: ids, iterates, residuals, Jacobians (None
    # for a constant design), objectives and readings, and whether each one's
    # last sweep ended with a tiny damped step or with no halving level that
    # lowered its objective.  A row is written out once, when it leaves: at
    # the start of a sweep, or when the budget runs out
    ids, xa, ra, Ja, Fa, ob = np.arange(n_run), x, r, J, F, obs
    tiny = worse = np.zeros(n_run, dtype=bool)

    def leave(gone, its, conv):
        """Write out the results of the active rows ``gone`` with their
        iteration counts and convergence flags."""
        out = ids.take(gone)
        x[out], r[out] = xa.take(gone, 0), ra.take(gone, 0)
        iterations[out], converged[out] = its, conv
        if exact:
            J[out] = Ja.take(gone, 0)

    # every gather and scatter below reaches its rows through the indices of
    # their mask: a take runs several times faster than a boolean-mask gather,
    # and in a halving block a put several times faster than an index assignment
    for sweep in range(max_iter if n_run else 0):  # an empty batch runs no sweep
        grad = 2.0 * np.einsum("kn,kni->ki", ra, Ja) if exact else ra @ D2  # (na, 3)
        # a row leaves on a flat gradient, or after a sweep that ended it: a
        # tiny damped step converges it, accepted or with the damping
        # exhausted; the damping exhausted on a larger one fails it, and that
        # sweep is not counted
        done = (_row_norm(grad) < _GRAD_TOL) | tiny | worse
        if np.count_nonzero(done):  # count_nonzero: the cheapest test of a small mask
            gone = done.nonzero()[0]
            leave(gone, sweep - worse.take(gone), (tiny | ~worse).take(gone))
            if gone.size == ids.size:
                break
            keep = (~done).nonzero()[0]
            ids, xa, ra, Ja, Fa, ob = (
                v if v is None else v.take(keep, 0) for v in (ids, xa, ra, Ja, Fa, ob)
            )
        # after the exit: an exact solve often ends there
        step = _gauss_newton_step(Ja, ra) if exact else ra @ gain
        x_try = xa + step
        r_try, J_try = residual(x_try, ob)
        F_try = np.einsum("ij,ij->i", r_try, r_try)
        # strict decrease required: accepting equal-objective steps can cycle
        worse = ~(F_try < Fa)
        sub, level = worse.nonzero()[0], 0  # the still-worse rows, the halvings they tried
        if sub.size:
            alpha = np.where(worse, _LADDER[_MAX_HALVINGS], 1.0)  # the deepest if no level lowers F
            # the still-worse rows try k halving levels per call, packed as
            # (iterate, step, objective, readings) so that one gather per block
            # compacts them; each keeps its first level that lowers the
            # objective, the level a one-level-per-call loop would stop at
            pack = np.concatenate([v.take(sub, 0) for v in (xa, step, Fa[:, None], ob)], axis=1)
            while level < _MAX_HALVINGS and sub.size:
                # as many levels as fill one forward strip, at least one
                k = min(_MAX_HALVINGS - level, max(1, _STRIP_ROWS // sub.size))
                a = _LADDER[level + 1:level + k + 1]
                # the trial points component-major, (3, rows, k): long inner
                # loops, and the columns the forward model reads, uncopied
                xt = np.multiply(a, pack.T[3:6, :, None], out=np.empty((3, sub.size, k)))
                np.add(xt, pack.T[:3, :, None], out=xt)
                rt, Jt = residual(xt.transpose(1, 2, 0), pack[:, None, 7:])
                rt = rt.reshape(-1, ob.shape[1])
                Ft = np.einsum("ij,ij->i", rt, rt)
                better = Ft.reshape(-1, k) < pack[:, 6, None]
                # each row's first level that lowers F, or its first level
                at = better.argmax(axis=1) + np.arange(0, Ft.size, k)
                found = better.ravel().take(at)
                level += k
                hit = found.nonzero()[0]
                if hit.size:
                    got, at = sub.take(hit), at.take(hit)
                    r_try[got] = rt.take(at, 0)
                    F_try.put(got, Ft.take(at))
                    if exact:
                        J_try[got] = Jt.reshape(-1, ob.shape[1], 3).take(at, 0)
                    alpha.put(got, a.take(at % k))
                    worse.put(got, False)
                    keep = (~found).nonzero()[0]
                    # no compaction of the pack after a sweep's last block
                    sub, pack = sub.take(keep), pack.take(keep, 0) if level < _MAX_HALVINGS else pack
            step = alpha[:, None] * step  # the products the accepted trial points were formed with
            x_try = xa + step
        tiny = _row_norm(step) < _STEP_TOL
        if sub.size:  # rows that no level lowered keep their iterate
            x_try[sub], r_try[sub], F_try[sub] = xa.take(sub, 0), ra.take(sub, 0), Fa.take(sub)
            if exact:
                J_try[sub] = Ja.take(sub, 0)
        if objective_history is not None:  # F holds each row's objective
            F.put(ids, F_try)
            objective_history.append(F.copy())
        xa, ra, Ja, Fa = x_try, r_try, J_try, F_try
    else:  # the budget ran out on the rows still active
        leave(np.arange(ids.size), max_iter - worse, tiny)
    return x, converged, iterations, r, J


def _estimate(est: Estimator, obs: np.ndarray, geom: Geometry, x0=None,
              jacobian: str = "linear", max_iter: int = 100):
    """The estimator ``est`` on a batch of readings ``obs`` ``(N, n)``: from
    ``x0`` ``(N, 3)`` or ``obs @ K.T``, refined for a nonlinear entry by
    :func:`_gauss_newton` with the constant design or, for ``jacobian="exact"``,
    the model Jacobian.  Returns ``(x, converged, iterations, residuals,
    jacobians)``, the residuals predicted minus observed and the model
    Jacobians at ``x`` of an exact solve; a linear entry converges on every
    row in 0 iterations, with residuals None."""
    scheme = est.scheme
    gain = est.gain(geom)
    x = obs @ gain.T if x0 is None else x0
    if not est.nonlinear:
        return x, np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=int), None, None
    if jacobian == "linear":
        design, model = (scheme.design(geom), gain), lambda x: scheme.predict(x, geom)
    elif jacobian == "exact":
        design, model = None, lambda x: deviations_and_jacobian(x, geom, scheme.label)
    else:
        raise ValueError(f"jacobian must be 'linear' or 'exact', got {jacobian!r}")
    return _gauss_newton(obs, design, model, x, max_iter=max_iter)


def _identify(est: Estimator, obs: np.ndarray, geom: Geometry, method: str,
              x0=None, jacobian: str = "linear", max_iter: int = 100) -> CalibrationResult:
    """``est`` on the readings ``obs`` of one set; ConvergenceError if it fails."""
    if not est.nonlinear:
        return _linear_fit(est.scheme.design(geom), est.gain(geom), obs, method)
    x, conv, iters, r, J = _estimate(est, obs[None, :], geom, x0, jacobian, max_iter)
    x, conv, iters, r = x[0], bool(conv[0]), int(iters[0]), r[0]
    if not conv:
        # short of the budget, only a step that no halving made descend stops a row
        raise ConvergenceError(
            f"Gauss-Newton did not converge within {max_iter} iterations"
            if iters == max_iter
            else f"Gauss-Newton step halving exhausted after {iters} of {max_iter} "
            "iterations: no damped step lowered the objective"
        )
    J = est.scheme.design(geom) if J is None else J[0]
    return _result(x, -r, method, iters, conv, 2.0 * J.T @ r)


def identify(name: str, m: MeasurementSet, geom: Geometry) -> CalibrationResult:
    """The estimator ``ESTIMATORS[name]`` on one measurement set of its scheme:
    TypeError for a set of another scheme, ConvergenceError if it fails."""
    est = _lookup(ESTIMATORS, name, "estimator")
    return _identify(est, _readings(m, est.scheme.measurement), geom, name)


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
    Gauss-Newton Jacobian; ``"exact"`` the analytic model Jacobian of each
    iterate, from the forward call that evaluated the iterate, and steps by
    the normal equations (:func:`_gauss_newton_step`).  The default initial
    guess is the linear least-squares solution, the design's least-squares
    gain applied to the readings.

    Raises
    ------
    ValueError
        If ``initial`` is not a single offset triple within the model's
        validity bound, or ``max_iter`` is not a non-negative integer.
    ConvergenceError
        If the iteration budget is exhausted before the step or gradient
        tolerance is met, or if no halving of a step lowers the objective
        while the step is not below the tolerance.
    """
    obs = _readings(m, *_GAUSS_NEWTON)
    if initial is not None:
        initial = check_offsets(initial, geom)
        if initial.ndim != 1:
            raise ValueError(f"initial must be a single offset triple, got shape {initial.shape}")
        initial = initial[None, :]
    _check_count(max_iter, "max_iter")
    est = _GAUSS_NEWTON[type(m)]
    return _identify(
        est, obs, geom, f"gauss-newton({est.scheme.label})", initial, jacobian, max_iter
    )


class ResidualReport(Record, eq=False):
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
    dr = _offset_triple(offsets, geom, "residual_report")
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
