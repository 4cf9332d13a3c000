"""Differential tests: the package against its frozen first release.

``bench/frozen/orthocal_yardstick`` is orthocal as the benchmark first timed
it.  It is never edited, and ``bench/yardstick.load`` imports it here as
``orthocal_yardstick``.  Over geometries and offsets of the model's validity
domain, |offset| <= L/10, the properties check that both packages predict
the same readings, build the same designs and linear gains, and that every
estimator ends the same way with the same estimate, within the bounds
derived below.  What differs on purpose is listed in :data:`DIVERGENCES`,
which the properties check as such; they check everything else as equal.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthocal
from orthocal import ESTIMATORS, SCHEMES, Geometry, OrthoglideError
from orthocal.identification import _STEP_TOL

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_yardstick():
    spec = importlib.util.spec_from_file_location(
        "yardstick", os.path.join(ROOT, "bench", "yardstick.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.load()


Y = _load_yardstick()
Y_CLI = importlib.import_module("orthocal_yardstick.cli")

#: Each intended divergence from the yardstick: (the change that made it, by
#: its commit and the start of its CHANGES.md entry; what differs).
DIVERGENCES = {
    "closed-form sigma_rho": (
        "c7a5d2d, Measurement-scheme registry",
        "calibrate's closed-form sigma_rho is the closed form's own K S K', not the "
        "single-posture pseudoinverse's, so it is never smaller (Gauss-Markov)",
    ),
    "iterate out of domain": (
        "2b8f6fa, The solver owns the residual layout",
        "a Gauss-Newton iterate beyond L/10 raises ConvergenceError, where the "
        "yardstick raises check_offsets' bare ValueError",
    ),
    "linear estimate out of domain": (
        "One public entry per scheme predictor",
        "identify's linear estimate beyond L/10 raises ConvergenceError, where the "
        "yardstick returns it",
    ),
    "messages": (
        "several",
        "error messages are worded anew; only the outcome (success, or the error "
        "class) is compared",
    ),
}

# the yardstick's entries of each scheme: measurement type, predictor and
# linear system
_Y_SCHEMES = {
    "single-posture": (Y.SinglePostureMeasurements, Y.single_deviation_array,
                       Y.build_single_posture_system),
    "double-full": (Y.DoublePostureMeasurements, Y.double_deviation_array,
                    Y.build_twelve_eq_system),
    "double-reduced": (Y.ReducedMeasurements, Y.reduced_deviation_array,
                       Y.build_six_eq_system),
}
_EPS = np.finfo(float).eps
_ETA = np.finfo(float).smallest_subnormal


def _y_estimate(name, readings, geom, jacobian="linear"):
    """The yardstick's estimator ``name`` (an ``ESTIMATORS`` key) on one set."""
    label = ESTIMATORS[name].scheme.label
    measurement, _, build = _Y_SCHEMES[label]
    m = measurement.from_array(readings)
    if name == "closed-form":
        return Y.solve_single_posture_closed_form(m, geom).offsets
    if not ESTIMATORS[name].nonlinear:
        return Y.least_squares_solve(build(geom), m).offsets
    return Y.nonlinear_identify(m, geom, jacobian=jacobian).offsets


def _y_gain(name, geom):
    """The yardstick's linear map of estimator ``name``: its estimate of each
    unit reading, one column per reading."""
    n = len(SCHEMES[ESTIMATORS[name].scheme.label].row_keys)
    return np.array([_y_estimate(name, e, geom) for e in np.eye(n)]).T


def _outcome(call):
    """``(result, None)``, or ``(None, error)`` for the errors either package
    raises on a valid input."""
    try:
        return call(), None
    except (OrthoglideError, Y.OrthoglideError, ValueError) as exc:
        return None, exc


def _kind(error) -> str | None:
    """The outcome as the packages share it: None, or the error's class name
    (each package has its own error classes)."""
    return None if error is None else type(error).__name__


@st.composite
def _geometries(draw):
    L = draw(st.floats(50.0, 1000.0))
    return draw(st.floats(0.05, 0.95)) * -L, draw(st.floats(0.05, 0.95)) * L, L


def _both(limits):
    rho_min, rho_max, L = limits
    return Geometry(L, rho_min, rho_max), Y.Geometry(L, rho_min, rho_max)


@st.composite
def _cases(draw):
    """Both geometries, offsets with |offset| <= L/10 (anywhere in the domain,
    or at the paper's 1 mm scale) and a noise level."""
    geom, y_geom = _both(draw(_geometries()))
    scale = draw(st.sampled_from([1.0, geom.L / 10]))
    coord = st.floats(-scale, scale)
    offsets = np.array(draw(st.tuples(coord, coord, coord)))
    return geom, y_geom, offsets, draw(st.sampled_from([0.0, 0.01]))


@settings(max_examples=40, deadline=None)
@given(case=_cases())
def test_predictions_designs_and_gains_agree(case):
    geom, y_geom, offsets, _ = case
    for label, scheme in SCHEMES.items():
        _, y_predict, y_build = _Y_SCHEMES[label]
        design, y_design = scheme.design(geom), y_build(y_geom).design_matrix
        scale = np.abs(y_design).max()
        np.testing.assert_allclose(design, y_design, rtol=1e-12, atol=1e-12 * scale)
        # the deviations are differences of TCP coordinates of size L
        got, got_error = _outcome(lambda: scheme.predict(offsets, geom))
        want, want_error = _outcome(lambda: y_predict(offsets, y_geom))
        assert _kind(got_error) == _kind(want_error), (got_error, want_error)
        if want_error is None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * geom.L)
    for name, est in ESTIMATORS.items():
        if not est.nonlinear:
            K, y_K = est.gain(geom), _y_gain(name, y_geom)
            np.testing.assert_allclose(K, y_K, rtol=0, atol=1e-12 * np.abs(y_K).max())


def _estimate_bound(name, geom, readings, estimate):
    """How far the two packages' estimates of one set may lie apart.

    A linear estimate is ``K @ readings``, and the gains agree within 1e-12
    of their largest entry.  A Gauss-Newton estimate is fixed only up to the
    objective's rounding floor.  A prediction is a difference of TCP
    coordinates of size L and carries a few ulps of L, bounded generously by
    ``e = 16 eps L``; the objective ``F = |r|^2`` of n readings then carries
    ``dF = 2 |r| sqrt(n) e + n e^2``, and a step ``d`` with ``|D d|^2`` below
    that may be accepted or rejected on rounding alone (CHANGES.md, the
    rounding-floor FOUND line).  So a row may stop anywhere within
    ``sqrt(dF) / s_min(D)`` of another, plus the stopping step
    ``_STEP_TOL``.  At the paper's scale (prototype, |offset| <= 1 mm, sigma
    0.01) this is 2e-7 to 2e-6 mm: above the full steps of up to 1e-7 mm
    that the rounding-floor line saw rejected on noise, and above the
    4.1e-8 mm by which scaling the step by 1 ulp moved an estimate
    (``BENCH_28.json``, ``exact_estimates``)."""
    est = ESTIMATORS[name]
    design = est.scheme.design(geom)
    if not est.nonlinear:
        return 1e-12 * np.abs(est.gain(geom)).max() * np.abs(readings).sum()
    n, e = len(readings), 16 * _EPS * geom.L
    r = np.linalg.norm(readings - est.scheme.predict(estimate, geom))
    floor = 2 * r * np.sqrt(n) * e + n * e * e
    return _STEP_TOL + np.sqrt(floor) / np.linalg.svd(design, compute_uv=False)[-1]


@settings(max_examples=25, deadline=None)
@given(case=_cases(), seed=st.integers(0, 2**32 - 1), jacobian=st.sampled_from(["linear", "exact"]))
def test_estimators_agree(case, seed, jacobian):
    # the Gauss-Newton entries step with the constant design or, as
    # nonlinear_identify's option, the exact Jacobian
    geom, y_geom, truth, sigma = case
    for name, est in ESTIMATORS.items():
        scheme = est.scheme
        clean, error = _outcome(lambda: scheme.predict(truth, geom))
        if error is not None:  # no readings: the predictions property compares the error
            continue
        readings = clean + scheme.sample_noise(np.random.default_rng(seed), sigma)
        m = scheme.measurement.from_array(readings)
        if est.nonlinear:
            got, got_error = _outcome(
                lambda: orthocal.nonlinear_identify(m, geom, jacobian=jacobian))
        else:
            got, got_error = _outcome(lambda: orthocal.identify(name, m, geom))
        want, want_error = _outcome(lambda: _y_estimate(name, readings, y_geom, jacobian))
        ours, theirs = _kind(got_error), _kind(want_error)
        # DIVERGENCES["iterate out of domain"]: the yardstick's bare ValueError
        if ours == "ConvergenceError" and "out of domain" in str(got_error):
            ours = "out of domain"
        if theirs == "ValueError" and "validity bound" in str(want_error):
            theirs = "out of domain"
        # DIVERGENCES["linear estimate out of domain"]: the yardstick returns it
        if theirs is None and not est.nonlinear and np.abs(want).max() > geom.L / 10:
            theirs = "out of domain"
        if ours != theirs:
            # rounding may put an estimate at the bound on either side of it
            assert {ours, theirs} == {None, "out of domain"}, (name, got_error, want_error)
            x = got.offsets if ours is None else want
            assert np.abs(x).max() >= geom.L / 10 - _estimate_bound(name, geom, readings, x)
        elif ours is None:
            bound = _estimate_bound(name, geom, readings, got.offsets)
            assert np.abs(got.offsets - want).max() <= bound, (name, got, want, bound)


def _underflow_floor(noise, first, *rest):
    """Bound on what rounding below the normal range adds to an entry of
    ``first @ (sigma**2 * noise) @ rest[0] @ ...``, evaluated left to right.

    There a product is off by up to half the least subnormal ``_ETA``, not by
    a relative eps, while a sum of subnormals is exact.  Each later factor
    carries the error on by its largest column sum and adds its own."""
    err = (np.abs(noise).max() + 1) * _ETA / 2  # sigma squared, then the noise
    err = err * np.abs(first).sum(axis=1).max() + first.shape[1] * _ETA / 2
    for factor in rest:
        err = err * np.abs(factor).sum(axis=0).max() + factor.shape[0] * _ETA / 2
    return err


def _covariance_bound(name, geom, y_design, scale):
    """How far the two packages' covariances of estimator ``name`` may lie
    apart, entry by entry, where the larger has largest entry ``scale``.

    The package forms ``K S K'``; the yardstick forms ``P J' S J P`` with
    ``P = inv(J'J)`` for its design ``J``, and the inverse carries a relative
    error of a small multiple of cond(J)^2 eps.  At the narrowest limits
    cond(J) nears 440 and the yardstick's six-equation covariance lies
    1.3e-11 of its largest entry off the package's, whose own error against
    50-digit arithmetic is 3e-14.  Over 20000 geometries of the domain the
    two lay at most 1.5 cond(J)^2 eps apart where cond(J) >= 10, and 10 eps
    where it is near 1: the bound takes 8 cond(J)^2 eps and 16 eps a reading.
    Below the normal range each product adds its underflow floor."""
    est = ESTIMATORS[name]
    K, noise = est.gain(geom), est.scheme.noise_covariance
    P = np.linalg.inv(y_design.T @ y_design)
    rel = (8 * np.linalg.cond(y_design) ** 2 + 16 * len(y_design)) * _EPS
    return (rel * scale + _underflow_floor(noise, K, K.T)
            + _underflow_floor(noise, P @ y_design.T, y_design, P))


def _rho_bound(bound, a, b):
    """How far two ``sigma_rho = sqrt(trace(V) / 3)`` may lie apart when the
    covariances agree within ``bound``: their thirds of the trace agree within
    ``bound`` plus the division's rounding, |sqrt x - sqrt y| is
    |x - y| / (sqrt x + sqrt y), and each root rounds by half an ulp."""
    return (bound + _ETA) / (a + b) + _EPS * (a + b) if a + b > 0 else 0.0


@settings(max_examples=30, deadline=None)
@given(limits=_geometries(), sigma=st.floats(0.0, 1.0))
def test_offset_covariances_agree(limits, sigma):
    geom, y_geom = _both(limits)
    for name, y_covariance in (("six", Y.offset_covariance_six),
                               ("twelve", Y.offset_covariance_twelve)):
        ours, theirs = orthocal.offset_covariance(name, geom, sigma), y_covariance(y_geom, sigma)
        y_design = _Y_SCHEMES[ESTIMATORS[name].scheme.label][2](y_geom).design_matrix
        scale = max(np.abs(ours.V).max(), np.abs(theirs.V).max())
        bound = _covariance_bound(name, geom, y_design, scale)
        np.testing.assert_allclose(ours.V, theirs.V, rtol=0, atol=bound)
        rho_bound = _rho_bound(bound, ours.sigma_rho, theirs.sigma_rho)
        assert abs(ours.sigma_rho - theirs.sigma_rho) <= rho_bound, (name, ours, theirs)
    # DIVERGENCES["closed-form sigma_rho"]: the closed form's own map is a
    # linear unbiased estimator, so least squares' covariance is no larger
    ours = orthocal.offset_covariance("closed-form", geom, sigma).sigma_rho
    theirs = Y_CLI._analytic_sigma_rho("closed-form", y_geom, sigma)
    y_design = Y.build_single_posture_system(y_geom).design_matrix
    # the largest entry of a covariance is on its diagonal: at most 3 sigma_rho^2
    bound = _covariance_bound("closed-form", geom, y_design, 3 * max(ours, theirs) ** 2)
    assert ours >= theirs - _rho_bound(bound, ours, theirs), (ours, theirs)
