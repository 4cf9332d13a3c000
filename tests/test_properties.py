"""Property tests over the model's validity domain (|offset| <= L/10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocal import (
    SCHEMES,
    Geometry,
    OrthoglideError,
    direct_kinematics,
    double_deviation_array,
    inverse_kinematics,
    nonlinear_identify,
    posture_commanded_joints,
    predict_double_posture,
    prediction_jacobian,
    reduce,
    reduced_deviation_array,
    single_deviation_array,
)
from orthocal.errors import DomainError, SingularError
from orthocal.kinematics import SINGULARITY_TOL, _dk_point, _dk_roots
from orthocal.measurement import _STACK, _stack_joints

GEOM = Geometry.prototype()
_coord = st.floats(-GEOM.L / 10, GEOM.L / 10, allow_nan=False)
_batches = st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=8).map(np.array)

_MODELS = (
    double_deviation_array,
    reduced_deviation_array,
    single_deviation_array,
    lambda dr, geom: prediction_jacobian(dr, geom, "double-full"),
    lambda dr, geom: prediction_jacobian(dr, geom, "double-reduced"),
)


@settings(max_examples=60, deadline=None)
@given(offsets=_batches)
def test_batch_row_equals_scalar_call(offsets):
    grid = np.stack([offsets, offsets[::-1]], axis=1)  # an N-d batch, (k, 2, 3)
    for model in _MODELS:
        batch = model(offsets, GEOM)
        assert batch.shape[0] == len(offsets)
        for i, dr in enumerate(offsets):
            assert np.array_equal(batch[i], model(dr, GEOM))
        batch = model(grid, GEOM)
        assert batch.shape[:2] == grid.shape[:2]
        for i, j in np.ndindex(grid.shape[:2]):
            assert np.array_equal(batch[i, j], model(grid[i, j], GEOM))
    rho = np.full(3, GEOM.L)
    p, roots = direct_kinematics(rho, grid, GEOM)
    for i, j in np.ndindex(grid.shape[:2]):
        p_ij, roots_ij = direct_kinematics(rho, grid[i, j], GEOM)
        assert np.array_equal(p[i, j], p_ij)
        assert all(getattr(roots, f)[i, j] == v for f, v in vars(roots_ij).items())


def _brute_force_select(eff, t_minus, t_plus):
    """Oracle for the root choice: both TCPs, both admissibility masks and
    both norms; the admissible root of smaller norm wins."""
    p_lo = t_minus[..., None] / eff + eff / 2.0
    p_hi = t_plus[..., None] / eff + eff / 2.0
    ok_lo = np.all(eff - p_lo > 0, axis=-1)
    ok_hi = np.all(eff - p_hi > 0, axis=-1)
    if not np.all(ok_lo | ok_hi):
        raise SingularError("no admissible root")
    norm_lo = np.sum(p_lo * p_lo, axis=-1)
    norm_hi = np.sum(p_hi * p_hi, axis=-1)
    take_hi = ok_hi & (~ok_lo | (norm_hi < norm_lo))
    return np.where(take_hi[..., None], p_hi, p_lo)


def _roots(e, L):
    """Both roots ``(t_minus, t_plus)`` for component-major joints ``e``,
    behind the same guards as ``_dk_point``."""
    if (np.abs(e) < SINGULARITY_TOL).any():
        raise DomainError("effective joint value is zero")
    A, B, C, _, q = _dk_roots(e, L)
    return q / A, (B * C) / q


def _check_root_rule(eff, L):
    """``_dk_point`` equals the oracle on every row ``(3,)`` of ``eff`` whose
    roots exist, or raises where the oracle raises, and on the batch of
    admissible rows."""
    admissible = []
    for row in eff:
        e = row[:, None]  # component-major, one column
        try:
            t_minus, t_plus = _roots(e, L)
        except DomainError:
            continue
        try:
            expected = _brute_force_select(row, t_minus[0], t_plus[0])
        except SingularError:
            with pytest.raises(SingularError):
                _dk_point(e, L)
            continue
        assert np.array_equal(_dk_point(e, L)[:, 0], expected)
        admissible.append(row)
    if admissible:
        batch = np.array(admissible)
        assert np.array_equal(
            _dk_point(batch.T, L).T, _brute_force_select(batch, *_roots(batch.T, L))
        )


@st.composite
def _geometries(draw, reach=0.95):
    L = draw(st.floats(50.0, 1000.0))
    rho_min = -draw(st.floats(0.01, reach)) * L
    rho_max = draw(st.floats(0.01, reach)) * L
    return Geometry(L=L, rho_min=rho_min, rho_max=rho_max)


@settings(max_examples=100, deadline=None)
@given(geom=_geometries(), data=st.data())
def test_root_rule_on_posture_stack(geom, data):
    # (a) the seven stack postures of a random geometry, offsets up to L/10
    coord = st.floats(-geom.L / 10, geom.L / 10)
    offsets = np.array(data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8)))
    joints = offsets.T[:, None] + _stack_joints(geom)  # component-major, (3, 7, n)
    _check_root_rule(joints.reshape(3, -1).T, geom.L)


@settings(max_examples=100, deadline=None)
@given(L=st.floats(50.0, 1000.0), data=st.data())
def test_root_rule_on_mixed_sign_joints(L, data):
    # (b) arbitrary effective joints of either sign, |eff| <= 1.5 L
    joint = st.floats(-1.5 * L, 1.5 * L).filter(lambda v: abs(v) >= 1e-6 * L)
    eff = np.array(data.draw(st.lists(st.tuples(joint, joint, joint), min_size=1, max_size=40)))
    _check_root_rule(eff, L)


@pytest.mark.parametrize("label", ["double-full", "double-reduced"])
@settings(max_examples=100, deadline=None)
@given(geom=_geometries(reach=0.9), data=st.data())
def test_jacobian_matches_central_differences(label, geom, data):
    # the exact Jacobian the "exact" Gauss-Newton steps with, on a random
    # geometry; an unreachable or singular posture is a typed failure
    coord = st.floats(-0.95 * geom.L / 10, 0.95 * geom.L / 10)
    dr = np.array(data.draw(st.tuples(coord, coord, coord)))
    scheme = SCHEMES[label]
    try:
        J = prediction_jacobian(dr, geom, label)
        h = 1e-7 * geom.L
        step = h * np.eye(3)
        fd = (scheme.predict(dr + step, geom) - scheme.predict(dr - step, geom)).T / (2 * h)
        J0 = prediction_jacobian(np.zeros(3), geom, label)
    except (DomainError, SingularError):
        return
    scale = max(1.0, np.abs(J).max())
    assert np.abs(J - fd).max() <= 1e-7 * scale
    D = scheme.design(geom)
    assert np.abs(J0 - D).max() <= 1e-12 * max(1.0, np.abs(D).max())


@pytest.mark.filterwarnings("ignore::orthocal.JointLimitWarning")
@settings(max_examples=300, deadline=None)
@given(geom=_geometries(reach=0.9), data=st.data())
def test_dk_ik_round_trip_at_calibration_postures(geom, data):
    # the commanded joints of each calibration posture come back from the
    # TCP the direct kinematics puts them at; an unreachable or singular
    # posture is a typed failure
    coord = st.floats(-0.95 * geom.L / 10, 0.95 * geom.L / 10)
    dr = np.array(data.draw(st.tuples(coord, coord, coord)))
    for posture in _STACK:
        rho = posture_commanded_joints(posture, geom)
        try:
            p, _ = direct_kinematics(rho, dr, geom)
            back = inverse_kinematics(p, dr, geom)
        except OrthoglideError:
            continue
        assert np.abs(back - rho).max() <= 1e-12 * geom.L


_recovery_coord = st.floats(-0.8 * GEOM.L / 10, 0.8 * GEOM.L / 10)


@settings(max_examples=100, deadline=None)
@given(dr=st.tuples(_recovery_coord, _recovery_coord, _recovery_coord).map(np.array))
def test_noise_free_recovery(dr):
    # both double-posture schemes, with the constant and the exact Jacobian,
    # recover offsets within 0.8 L/10 from their exact readings
    full = predict_double_posture(dr, GEOM)
    for m in (full, reduce(full)):
        for jacobian in ("linear", "exact"):
            x = nonlinear_identify(m, GEOM, jacobian=jacobian).offsets
            assert np.abs(x - dr).max() <= 1e-8
