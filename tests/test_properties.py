"""Property tests over the model's validity domain (|offset| <= L/10)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthocal import (
    SCHEMES,
    Geometry,
    OrthoglideError,
    deviations_and_jacobian,
    direct_kinematics,
    inverse_kinematics,
    nonlinear_identify,
    posture_commanded_joints,
    predict_double_posture,
    reduce,
)
from orthocal.errors import DomainError, SingularError
from orthocal.identification import _gauss_newton_step
from orthocal.kinematics import (
    SINGULARITY_TOL,
    _dk_jacobian,
    _dk_point,
    _dk_roots,
    inverse_jacobian,
)
from orthocal.measurement import _STACK, _stack_joints

GEOM = Geometry.prototype()
_coord = st.floats(-GEOM.L / 10, GEOM.L / 10, allow_nan=False)
_batches = st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=8).map(np.array)

_MODELS = (
    SCHEMES["double-full"].predict,
    SCHEMES["double-reduced"].predict,
    SCHEMES["single-posture"].predict,
    lambda dr, geom: deviations_and_jacobian(dr, geom, "double-full")[1],
    lambda dr, geom: deviations_and_jacobian(dr, geom, "double-reduced")[1],
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
    A, B, C4, _, q2 = _dk_roots(e, L)  # the kernel holds 4 C and -2 q
    C, q = C4 * 0.25, q2 * -0.5
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
@given(geom=_geometries(), data=st.data())
def test_closed_form_tcp_jacobian_equals_inverse(geom, data):
    # dp/drho in closed form against LAPACK's inverse of d(rho)/d(p), at the
    # seven stack postures of a random geometry, offsets up to L/10, within
    # 1e-13 of each matrix's largest entry
    coord = st.floats(-geom.L / 10, geom.L / 10)
    offsets = np.array(data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8)))
    e = offsets.T[:, None] + _stack_joints(geom)  # component-major, (3, 7, n)
    try:
        p = _dk_point(e, geom.L)
        want = np.linalg.inv(inverse_jacobian(p.T, e.T))  # (n, 7, 3, 3)
    except (DomainError, SingularError):
        return
    got = _dk_jacobian(e, p).transpose(3, 2, 0, 1)
    scale = np.abs(want).max(axis=(-2, -1))
    assert (np.abs(got - want).max(axis=(-2, -1)) <= 1e-13 * scale).all()


@settings(max_examples=100, deadline=None)
@given(L=st.floats(50.0, 1000.0), data=st.data())
def test_root_rule_on_mixed_sign_joints(L, data):
    # (b) arbitrary effective joints of either sign, |eff| <= 1.5 L
    joint = st.floats(-1.5 * L, 1.5 * L).filter(lambda v: abs(v) >= 1e-6 * L)
    eff = np.array(data.draw(st.lists(st.tuples(joint, joint, joint), min_size=1, max_size=40)))
    _check_root_rule(eff, L)


@st.composite
def _geometry_and_offsets(draw, reach=0.9):
    """A random geometry and one offset triple within 0.95 of its L/10 bound."""
    geom = draw(_geometries(reach))
    coord = st.floats(-0.95 * geom.L / 10, 0.95 * geom.L / 10)
    return geom, np.array(draw(st.tuples(coord, coord, coord)))


def _central_difference(predict, dr, geom, h):
    """``(f(dr + h e_j) - f(dr - h e_j)) / 2h`` for each offset component ``j``."""
    step = h * np.eye(3)
    return (predict(dr + step, geom) - predict(dr - step, geom)).T / (2 * h)


@pytest.mark.parametrize("label", ["double-full", "double-reduced"])
@settings(max_examples=100, deadline=None)
@given(case=_geometry_and_offsets())
# a posture of large curvature, where the plain central difference at h is
# 5e-7 of the entry off the exact Jacobian: its h^2 truncation, not the Jacobian
@example(case=(Geometry(L=322.0, rho_min=-161.0, rho_max=208.43), np.array([0.0, 25.125, 27.375])))
def test_jacobian_matches_central_differences(label, case):
    # the exact Jacobian the "exact" Gauss-Newton steps with, on a random
    # geometry, against the Richardson extrapolation (4 D(h/2) - D(h)) / 3 of
    # the central difference D, whose error falls as h^4; an unreachable or
    # singular posture is a typed failure
    geom, dr = case
    scheme = SCHEMES[label]
    try:
        J = deviations_and_jacobian(dr, geom, label)[1]
        h = 1e-7 * geom.L
        coarse = _central_difference(scheme.predict, dr, geom, h)
        fine = _central_difference(scheme.predict, dr, geom, h / 2)
        J0 = deviations_and_jacobian(np.zeros(3), geom, label)[1]
    except (DomainError, SingularError):
        return
    fd = (4.0 * fine - coarse) / 3.0
    scale = max(1.0, np.abs(J).max())
    assert np.abs(J - fd).max() <= 1e-7 * scale
    D = scheme.design(geom)
    assert np.abs(J0 - D).max() <= 1e-12 * max(1.0, np.abs(D).max())


@pytest.mark.parametrize("label", list(SCHEMES))
@settings(max_examples=100, deadline=None)
@given(geom=_geometries(reach=0.9))
def test_design_is_the_predictor_jacobian_at_zero(label, geom):
    # the linear design each scheme builds from its channels' row names is
    # the central-difference Jacobian of its exact predictor at zero offsets,
    # on a random geometry; an unreachable or singular posture is a typed
    # failure
    scheme = SCHEMES[label]
    try:
        fd = _central_difference(scheme.predict, np.zeros(3), geom, 1e-6 * geom.L)
    except (DomainError, SingularError):
        return
    D = scheme.design(geom)
    assert D.shape == fd.shape
    assert np.abs(fd - D).max() <= 1e-8 * max(1.0, np.abs(D).max())


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


def _pinv_step(J, r):
    """The minimum-norm least-squares step ``-pinv(J) r`` with the
    singular-value cut-off of numpy's lstsq, and the norms ``|pinv(J)|``."""
    gains = np.linalg.pinv(J, rcond=np.finfo(float).eps * max(J.shape[1:]))
    return -np.einsum("kin,kn->ki", gains, r), np.linalg.norm(gains, 2, axis=(1, 2))


@pytest.mark.parametrize("label", ["double-full", "double-reduced"])
@settings(max_examples=100, deadline=None)
@given(geom=_geometries(reach=0.9), data=st.data())
def test_normal_equation_step_equals_pinv_step(label, geom, data):
    # the exact Gauss-Newton step, by the normal equations J'J s = -J'r, is
    # pinv's within 1e-13 of |pinv(J)| |r| (measured 2.6e-14 in a targeted
    # search) on random geometries, offsets up to L/10 and residuals of 1e-5
    # to 10 mm, and a row's step does not depend on the rest of the batch.
    # The bound is not relative to |s|: where r is nearly orthogonal to J's
    # columns the normal equations' error grows with cond(J)^2 against a
    # small step (1.3e-13 of |s| at cond(J) = 20, far from the prototype's
    # cond(J) <= 1.6)
    coord = st.floats(-geom.L / 10, geom.L / 10)
    offsets = np.array(data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8)))
    try:
        J = deviations_and_jacobian(offsets, geom, label)[1]
    except (DomainError, SingularError):
        return
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r = rng.standard_normal(J.shape[:2]) * 10.0 ** rng.uniform(-5.0, 1.0, (len(J), 1))
    step = _gauss_newton_step(J, r)
    want, gain_norm = _pinv_step(J, r)
    error = np.linalg.norm(step - want, axis=1)
    assert (error <= 1e-13 * gain_norm * np.linalg.norm(r, axis=1)).all()
    # each row's step has the bits of its own single-row call
    for i in range(len(J)):
        assert np.array_equal(step[i], _gauss_newton_step(J[i, None], r[i, None])[0])


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([6, 12]), seed=st.integers(0, 2**32 - 1))
def test_rank_two_jacobian_takes_the_pinv_step(n, seed):
    # a Jacobian whose third column is a combination of the first two has a
    # rank of 2 and det(J'J) at the rounding floor: its row takes pinv's
    # minimum-norm step, orthogonal to the null vector, while a full-rank
    # row of the same batch keeps its normal-equation step
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((2, n, 3))
    null = np.append(rng.uniform(-2.0, 2.0, 2), -1.0)
    J[1, :, 2] = J[1, :, :2] @ null[:2]
    r = rng.standard_normal((2, n))
    step = _gauss_newton_step(J, r)
    want, _ = _pinv_step(J, r)
    assert np.abs(step[1] - want[1]).max() <= 1e-12 * np.abs(want[1]).max()
    assert abs(step[1] @ null) <= 1e-12 * np.linalg.norm(step[1]) * np.linalg.norm(null)
    assert np.array_equal(step[0], _gauss_newton_step(J[:1], r[:1])[0])


def test_ill_conditioned_jacobian_takes_the_pinv_step():
    # a far geometry, found by a targeted search of the property above, where
    # cond(J) is 357 and det(J'J) is 2.6e-5 of its diagonal's product: the
    # normal equations there are up to 2e-11 of |pinv(J)| |r| off, so the
    # row must take pinv's step
    geom = Geometry(L=750.1063584830049, rho_min=-675.0957226347044, rho_max=283.01933602501816)
    offsets = np.array([[-69.45067273, -67.70245634, -70.10223282]])
    J = np.repeat(deviations_and_jacobian(offsets, geom, "double-reduced")[1], 20, axis=0)
    r = np.random.default_rng(0).standard_normal((20, 6))
    want, gain_norm = _pinv_step(J, r)
    error = np.linalg.norm(_gauss_newton_step(J, r) - want, axis=1)
    assert (error <= 1e-13 * gain_norm * np.linalg.norm(r, axis=1)).all()


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
