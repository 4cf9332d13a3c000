"""Exact forward and inverse kinematics of the offset-aware PSS model.

With the frame origin at the intersection of the prismatic axes, the TCP
position ``p`` and the commanded joint values ``rho`` satisfy the three
sphere constraints

    (p_i - (rho_i + drho_i))^2 + p_j^2 + p_k^2 = L^2,   {i,j,k} = {x,y,z},

where ``drho`` are the encoder offsets.  All public functions broadcast over
leading array dimensions: points and joint vectors may be shape ``(3,)`` or
``(..., 3)``.  The direct-kinematics kernel :func:`_dk_point` works on joints
laid out component-major, ``(3, ...)``, so that each of its ops runs over
long contiguous planes instead of a length-3 inner axis, and writes every
intermediate into scratch planes that a caller may reuse across calls.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, JointLimitWarning, SingularError
from .geometry import (
    POSITIVE_BRANCH,
    Axis,
    ConfigurationIndices,
    Geometry,
    Posture,
    PostureAngles,
    PostureKind,
    check_offsets,
)

__all__ = [
    "QuadraticRoots",
    "SensitivityRow",
    "inverse_kinematics",
    "direct_kinematics",
    "inverse_jacobian",
    "posture_commanded_joints",
    "posture_jacobian",
    "sensitivity_table",
    "constraint_residuals",
]

#: Absolute guard on denominators and square-root arguments (mm resp. mm^2).
SINGULARITY_TOL = 1e-9


def _vec3(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class QuadraticRoots:
    """Coefficients and both roots of the direct-kinematics quadratic
    ``A t^2 + B t + B C = 0``.

    The root not selected by :func:`direct_kinematics` is retained here so the
    discarded branch stays inspectable.
    """

    A: float | np.ndarray
    B: float | np.ndarray
    C: float | np.ndarray
    t_plus: float | np.ndarray
    t_minus: float | np.ndarray
    discriminant: float | np.ndarray


def constraint_residuals(p, rho, offsets, geom: Geometry) -> np.ndarray:
    """Residuals of the three sphere constraints (mm^2), one per leg."""
    p = _vec3(p, "p")
    eff = _vec3(rho, "rho") + _vec3(offsets, "offsets")
    psq = p * p
    total = psq.sum(axis=-1, keepdims=True)
    res = (p - eff) ** 2 + (total - psq) - geom.L**2
    return res


def inverse_kinematics(
    p,
    offsets,
    geom: Geometry,
    indices: ConfigurationIndices = POSITIVE_BRANCH,
) -> np.ndarray:
    """Commanded joint values reaching the TCP position ``p``.

    For each axis, ``rho_i = p_i + s_i * sqrt(L^2 - p_j^2 - p_k^2) - drho_i``
    with branch signs ``s`` fixed by the assembly.

    Raises
    ------
    DomainError
        If any square-root argument is not positive (pose unreachable).

    Warns
    -----
    JointLimitWarning
        If a solution lies outside the software joint range; the solution is
        still returned.
    """
    p = _vec3(p, "p")
    off = _vec3(offsets, "offsets")
    psq = p * p
    args = geom.L**2 - (psq.sum(axis=-1, keepdims=True) - psq)
    if np.any(args <= SINGULARITY_TOL):
        raise DomainError("pose unreachable: square-root argument is not positive")
    signs = np.asarray(indices.as_tuple(), dtype=float)
    rho = p + signs * np.sqrt(args) - off
    lo, hi = geom.joint_bounds()
    if np.any(rho < lo - SINGULARITY_TOL) or np.any(rho > hi + SINGULARITY_TOL):
        warnings.warn(
            f"inverse kinematics solution outside joint range [{lo:.3f}, {hi:.3f}] mm",
            JointLimitWarning,
            stacklevel=2,
        )
    return rho


# Scratch planes of the direct-kinematics kernel, each of the joints' plane
# shape: the squares (as one array of three planes and as s0, s1, s2), a
# spare, the coefficients; then flag planes: three marks and three row masks.
_DKScratch = namedtuple(
    "_DKScratch", "squares s0 s1 s2 spare A B C disc q marks positive rest admissible"
)
_DK_FLOATS, _DK_FLAGS = 9, 6


def _dk_scratch(shape: tuple, floats=None, flags=None) -> _DKScratch:
    """Scratch of the direct-kinematics kernel for joints ``(3, *shape)``, as
    views of the flat buffers ``floats`` and ``flags`` (at least
    ``_DK_FLOATS`` resp. ``_DK_FLAGS`` planes; new ones if None)."""
    m = math.prod(shape)
    floats = np.empty(_DK_FLOATS * m) if floats is None else floats
    flags = np.empty(_DK_FLAGS * m, dtype=bool) if flags is None else flags
    planes = floats[: _DK_FLOATS * m].reshape((_DK_FLOATS,) + shape)
    marks = flags[: _DK_FLAGS * m].reshape((_DK_FLAGS,) + shape)
    return _DKScratch(planes[:3], *planes, marks[:3], *marks[3:])


def _dk_roots(e: np.ndarray, L: float, ws: _DKScratch | None = None):
    """Coefficients of the direct-kinematics quadratic ``A t^2 + B t + B C``
    for effective joints ``e`` laid out component-major, ``(3, ...)``, and
    its stable root term ``q``, as planes of the scratch ``ws``
    (:func:`_dk_scratch`; new if None).

    Coefficients follow from substituting ``p_i = e_i/2 + t/e_i`` into the
    sphere constraints:

        A = sum of pairwise products of e_i^2,
        B = product of e_i^2,
        C = (sum of e_i^2 - 4 L^2) / 4.

    The numerically stable form ``q = -(B + sqrt(disc))/2`` is used; ``B`` is
    a product of squares and therefore positive.  The roots are
    ``t_minus = q / A`` and ``t_plus = (B C) / q``.
    """
    ws = ws or _dk_scratch(e.shape[1:])
    s0, s1, s2, x, A, B, C, disc, q = ws[1:10]  # s0 .. q
    np.multiply(e, e, out=ws.squares)
    np.multiply(s1, s2, out=A)
    A += np.multiply(s0, s2, out=x)
    A += np.multiply(s0, s1, out=x)
    np.multiply(x, s2, out=B)  # (s0 s1) s2
    np.add(s0, s1, out=C)
    C += s2
    C -= 4.0 * L * L
    C *= 0.25
    np.multiply(A, 4.0, out=disc)
    disc *= B
    disc *= C
    np.subtract(np.multiply(B, B, out=x), disc, out=disc)
    if np.count_nonzero(np.less(disc, 0.0, out=ws.positive)):  # a free flag plane
        raise DomainError("joint set unreachable: negative discriminant")
    np.sqrt(disc, out=q)
    q += B
    q *= -0.5
    return A, B, C, disc, q


def _dk_point(e: np.ndarray, L: float, p=None, ws: _DKScratch | None = None) -> np.ndarray:
    """TCP positions ``(3, ...)`` for effective joints ``e`` laid out
    component-major, ``(3, ...)``, written into ``p`` (new if None) through
    the scratch ``ws`` (:func:`_dk_scratch`; new if None), which holds the
    quadratic's coefficients afterwards.

    Of the two roots the admissible one (configuration indices
    ``sign(e_i - p_i)`` all +1, matching the prototype assembly) of minimal
    norm is taken.  With ``S = sum 1/e_i^2`` the squared norm is
    ``sum e_i^2/4 + 3t + S t^2`` and the roots sum to ``-1/S``, so ``t_minus``
    has the smaller norm by ``2 (t_plus - t_minus)``.  Being negative, it is
    admissible exactly when every effective joint is positive; the other
    rows can only take ``t_plus``.
    """
    ws = ws or _dk_scratch(e.shape[1:])
    s, t, x = ws.squares, ws.s0, ws.spare  # the squares are free once A, B, C are
    marks, positive, rest, admissible = ws[10:]
    # joints all above the guard pass the zero-joint and sign guards at once
    checked = np.count_nonzero(np.greater(e, SINGULARITY_TOL, out=marks)) == marks.size
    if not checked and np.count_nonzero(np.less(np.abs(e, out=s), SINGULARITY_TOL, out=marks)):
        raise DomainError("effective joint value is zero")
    A, B, C, _, q = _dk_roots(e, L, ws)
    np.divide(q, A, out=t)
    mixed = not checked and np.count_nonzero(np.greater(e, 0.0, out=marks)) != marks.size
    if mixed:
        np.logical_and.reduce(marks, axis=0, out=positive)
        np.logical_not(positive, out=rest)
        np.multiply(B, C, out=x, where=rest)
        np.divide(x, q, out=t, where=rest)
    p = np.divide(t, e, out=p)
    p += np.multiply(e, 0.5, out=s)
    if mixed:
        np.greater(np.subtract(e, p, out=s), 0.0, out=marks)
        np.logical_and.reduce(marks, axis=0, out=admissible)
        if np.count_nonzero(np.logical_or(admissible, positive, out=admissible)) != admissible.size:
            raise SingularError(
                "no admissible direct-kinematics branch: both roots violate the "
                "+1 configuration indices"
            )
    return p


def direct_kinematics(
    rho, offsets, geom: Geometry
) -> tuple[np.ndarray, QuadraticRoots]:
    """TCP position for commanded joints ``rho`` under encoder offsets.

    Of the two quadratic roots the admissible one (configuration indices all
    +1) of minimal ``||p||`` is selected; for the prototype workspace this is
    the branch inside the quasi-cubic working volume.  Both roots are
    returned for inspection.

    Raises
    ------
    DomainError
        Effective joint value zero, or negative discriminant.
    SingularError
        Neither root yields +1 configuration indices.
    """
    eff = _vec3(rho, "rho") + _vec3(offsets, "offsets")
    e = eff.reshape(-1, 3).T  # component-major, one column per joint triple
    ws = _dk_scratch(e.shape[1:])
    p = _dk_point(e, geom.L, None, ws)
    A, B, C, disc, q = ws.A, ws.B, ws.C, ws.disc, ws.q  # the kernel's coefficients
    shape = eff.shape[:-1]
    roots = QuadraticRoots(
        *(v.reshape(shape) if shape else float(v[0]) for v in (A, B, C, (B * C) / q, q / A, disc))
    )
    return p.T.reshape(eff.shape), roots


def inverse_jacobian(p, rho) -> np.ndarray:
    """Sensitivity of the joints to the TCP position, ``d(rho)/d(p)``.

    Row ``i`` has a unit diagonal entry and off-diagonal entries
    ``p_j / (p_i - rho_i)``; it is the matrix inverse of the TCP Jacobian
    ``d(p)/d(rho)`` (see :func:`posture_jacobian` for the canonical
    postures).  ``rho`` must be the *effective* joint values, i.e. include
    the encoder offsets when they are nonzero.  Points and joints of shape
    ``(..., 3)`` give matrices of shape ``(..., 3, 3)``.

    Raises
    ------
    SingularError
        If any denominator ``|p_i - rho_i|`` falls below the guard.
    """
    p = _vec3(p, "p")
    denom = p - _vec3(rho, "rho")
    if (np.abs(denom) < SINGULARITY_TOL).any():
        raise SingularError("singular configuration: p_i - rho_i vanishes")
    M = p[..., None, :] / denom[..., :, None]
    diag = np.arange(3)
    M[..., diag, diag] = 1.0
    return M


def _posture_angle(posture: Posture, geom: Geometry) -> PostureAngles:
    if posture.kind is PostureKind.MAX_DISPLACEMENT:
        return geom.angle_max()
    if posture.kind is PostureKind.MIN_DISPLACEMENT:
        return geom.angle_min()
    raise ValueError("isotropic posture has no displacement angle")


def posture_commanded_joints(posture: Posture, geom: Geometry) -> np.ndarray:
    """Commanded joints for a calibration posture of the nominal machine.

    Isotropic: ``(L, L, L)``.  Displacement along axis ``i``:
    ``rho_i = L (1 + sin(alpha))``, the others ``L cos(alpha)``, with the
    signed angle of the matching joint limit.
    """
    L = geom.L
    if posture.kind is PostureKind.ISOTROPIC:
        return np.full(3, L)
    ang = _posture_angle(posture, geom)
    rho = np.full(3, L * ang.c_alpha)
    rho[posture.axis] = L * (1.0 + ang.s_alpha)
    return rho


def posture_jacobian(posture: Posture, geom: Geometry) -> np.ndarray:
    """TCP Jacobian ``d(p)/d(rho)`` at a calibration posture.

    Identity at the isotropic posture.  For a displacement along axis ``i``
    the column ``i`` carries ``tan(alpha)`` into the two other rows:
    TCP displacements obey ``dp_i = drho_i`` and
    ``dp_j = tan(alpha) drho_i + drho_j`` for ``j != i``.
    """
    if posture.kind is PostureKind.ISOTROPIC:
        return np.eye(3)
    ang = _posture_angle(posture, geom)
    J = np.eye(3)
    for j in range(3):
        if j != posture.axis:
            J[j, posture.axis] = ang.t_alpha
    return J


@dataclass(frozen=True)
class SensitivityRow:
    """One row of the posture sensitivity table.

    ``at_max`` and ``at_min`` evaluate the deviation at the max- and
    min-displacement variant of the posture; isotropic rows carry the same
    value in both fields.
    """

    posture: str
    leg: Axis
    plane: str
    at_max: float
    at_min: float

    @property
    def value(self) -> float:
        if self.at_max != self.at_min:
            raise ValueError("row has distinct max/min values; read them directly")
        return self.at_max


# The two planes gauged on each leg, and the axis perpendicular to each plane:
# at the isotropic posture a plane's deviation is that axis's offset.
_PLANES = {Axis.X: ("XY", "XZ"), Axis.Y: ("XY", "YZ"), Axis.Z: ("XZ", "YZ")}
_PERP = {"XY": Axis.Z, "XZ": Axis.Y, "YZ": Axis.X}


def sensitivity_table(geom: Geometry, offsets) -> list[SensitivityRow]:
    """Linearized TCP deviations at the calibration postures (12 rows).

    Isotropic rows evaluate the single perpendicular offset; displacement
    rows evaluate ``tan(alpha) drho_leg + drho_perp`` at both the max and the
    min posture angle, for offsets within the validity bound L/10.
    """
    off = _vec3(offsets, "offsets")
    check_offsets(off, geom)
    if off.ndim != 1:
        raise ValueError("sensitivity_table expects a single offset triple")
    t1 = geom.angle_max().t_alpha
    t2 = geom.angle_min().t_alpha
    rows = [
        SensitivityRow("isotropic", leg, plane, off[_PERP[plane]], off[_PERP[plane]])
        for leg in Axis
        for plane in _PLANES[leg]
    ]
    for leg in Axis:
        for plane in _PLANES[leg]:
            perp = _PERP[plane]
            rows.append(
                SensitivityRow(
                    f"max/min {leg.name}-displacement",
                    leg,
                    plane,
                    t1 * off[leg] + off[perp],
                    t2 * off[leg] + off[perp],
                )
            )
    return rows
