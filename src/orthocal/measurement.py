"""Forward simulation of the leg-parallelism measurement process.

Two gauge schemes are modelled.  The *single-posture* scheme reads the
distance of both ends of the X- and Y-legs from the base plane, so each
deviation equals the exact TCP z-coordinate at the posture.  The
*double-posture* scheme fixes one gauge at the midpoint of a leg (located at
the isotropic posture) and reads the leg's lateral position as the machine
moves between the isotropic and the max/min displacement postures.

All deviation predictors are exact nonlinear models built on the direct
kinematics, which solves the isotropic and the six displacement postures as
one stack; the linear calibration systems are their first-order expansions.
Predictors accept offset arrays of shape ``(3,)`` or ``(..., 3)``; the
``*_array`` variants return plain arrays in the canonical equation order.
Inside, offsets, joints and TCPs are laid out component-major, ``(3, ...)``
and ``(3, 7, ...)`` for the posture stack, so that every op runs over
contiguous planes.  A batch runs in strips of at most ``_STRIP_ROWS`` rows,
each through a scratch buffer that every thread allocates once, so that a
call allocates little more than its result.  :data:`SCHEMES` maps each
scheme label to its measurement type, wire keys, predictor, linear design
and noise model.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import DomainError, SingularError
from .geometry import Axis, Geometry, Posture, PostureKind, check_offsets
from .kinematics import (
    _DK_FLAGS,
    _DK_FLOATS,
    _dk_point,
    _dk_scratch,
    inverse_jacobian,
    posture_commanded_joints,
)

__all__ = [
    "SYSTEM_SINGLE",
    "SYSTEM_TWELVE",
    "SYSTEM_SIX",
    "MeasurementSet",
    "SinglePostureMeasurements",
    "DoublePostureMeasurements",
    "ReducedMeasurements",
    "CalibrationCoefficients",
    "coefficients",
    "GAUGE_CORRELATION_BLOCK",
    "Scheme",
    "SCHEMES",
    "scheme_of",
    "GaugeLocation",
    "NoiseModel",
    "GENERATOR_ALGORITHM",
    "gauge_locations",
    "leg_line_scaling",
    "prediction_jacobian",
    "predict_single_posture",
    "predict_double_posture",
    "single_deviation_array",
    "double_deviation_array",
    "reduced_deviation_array",
    "reduce",
    "add_noise",
]

#: Identifier of the pseudo-random generator backing :class:`NoiseModel`.
GENERATOR_ALGORITHM = "pcg64"

#: Labels of the three measurement schemes, the keys of :data:`SCHEMES`.
SYSTEM_SINGLE = "single-posture"
SYSTEM_TWELVE = "double-full"
SYSTEM_SIX = "double-reduced"


class MeasurementSet:
    """Base of the measurement dataclasses: their fields, in declaration
    order, are the rows of the scheme's calibration system."""

    def as_array(self) -> np.ndarray:
        return np.array(_row_values(type(self))(self), dtype=float)

    @classmethod
    def from_array(cls, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise TypeError(f"{cls.__name__} takes one row of readings, got shape {arr.shape}")
        return cls(*arr.tolist())


@functools.cache
def _row_values(cls: type) -> Callable:
    """Getter of the field values of a measurement class, in field order."""
    return operator.attrgetter(*(f.name for f in fields(cls)))


@dataclass(frozen=True)
class SinglePostureMeasurements(MeasurementSet):
    """Six z-deviations of the single-posture scheme, in calibration-system
    row order: isotropic X/Y legs, then X-leg max/min, then Y-leg max/min."""

    dz_x0: float
    dz_y0: float
    dz_x_plus: float
    dz_x_minus: float
    dz_y_plus: float
    dz_y_minus: float


@dataclass(frozen=True)
class DoublePostureMeasurements(MeasurementSet):
    """Twelve double-posture deviations in the row order of the full linear
    system: the legs are grouped by gauged plane pair, max before min."""

    dx_y_plus: float
    dy_x_plus: float
    dx_y_minus: float
    dy_x_minus: float
    dy_z_plus: float
    dz_y_plus: float
    dy_z_minus: float
    dz_y_minus: float
    dx_z_plus: float
    dz_x_plus: float
    dx_z_minus: float
    dz_x_minus: float


@dataclass(frozen=True)
class ReducedMeasurements(MeasurementSet):
    """Max-minus-min deviation differences, in reduced-system row order."""

    dx_y: float
    dy_x: float
    dy_z: float
    dz_y: float
    dx_z: float
    dz_x: float


# Canonical 12-vector channels in slot order: (leg, gauge axis, +1 max / -1 min).
_CHANNELS_12 = (
    (Axis.Y, Axis.X, +1),
    (Axis.X, Axis.Y, +1),
    (Axis.Y, Axis.X, -1),
    (Axis.X, Axis.Y, -1),
    (Axis.Z, Axis.Y, +1),
    (Axis.Y, Axis.Z, +1),
    (Axis.Z, Axis.Y, -1),
    (Axis.Y, Axis.Z, -1),
    (Axis.Z, Axis.X, +1),
    (Axis.X, Axis.Z, +1),
    (Axis.Z, Axis.X, -1),
    (Axis.X, Axis.Z, -1),
)

# Single-posture displacement channels after the two isotropic z-rows:
# (gauged leg, +1 max / -1 min).
_CHANNELS_SINGLE = ((Axis.X, +1), (Axis.X, -1), (Axis.Y, +1), (Axis.Y, -1))

# Plus/minus slots whose differences form the reduced 6-vector, in row order.
_REDUCTION_PLUS, _REDUCTION_MINUS = np.array([[0, 1, 4, 5, 8, 9], [2, 3, 6, 7, 10, 11]])

# The posture stack, solved in one direct-kinematics call: the isotropic
# posture, then the max and min displacement postures along X, Y and Z.  A
# kinematic failure names the first failing posture in this order.
_STACK = (Posture.isotropic(),) + tuple(
    make(axis) for axis in Axis for make in (Posture.max, Posture.min)
)


def _stack_row(leg: Axis, sign: int) -> int:
    """Stack row of the max (+1) or min (-1) displacement posture of ``leg``."""
    return _STACK.index(Posture.max(leg) if sign > 0 else Posture.min(leg))


# Per-channel index arrays: leg, gauge axis, stack row of the displacement
# posture, and the flat indices of the channel's isotropic and posture reading
# in the raw-noise layout (leg, gauge slot 0 or 1: a leg's two gauges in axis
# order, reading 0 isotropic, 1 max, 2 min).
_LEG_12, _GAUGE_12, _SIGN_12 = (np.array(column) for column in zip(*_CHANNELS_12))
_ROW_12 = np.array([_stack_row(leg, sign) for leg, _, sign in _CHANNELS_12])
_NOISE_ISO = 6 * _LEG_12 + 3 * (_GAUGE_12 - (_GAUGE_12 > _LEG_12))
_NOISE_READING = _NOISE_ISO + np.where(_SIGN_12 > 0, 1, 2)

# Stack rows of the single-posture channels: the isotropic z-rows, then the
# X and Y displacement postures.
_ROW_SINGLE = np.array([0, 0] + [_stack_row(leg, sign) for leg, sign in _CHANNELS_SINGLE])

# Gauged leg lines as (stack row, leg) pairs: each leg at the isotropic
# posture, then each displacement posture on its own leg, so the line of
# channel ``k`` is ``_ROW_12[k] + 2`` at its posture and ``_LEG_12[k]`` at
# the isotropic one.
_LINE_ROW, _LINE_LEG = np.array(
    [(0, leg) for leg in Axis] + [(row, p.axis) for row, p in enumerate(_STACK) if row]
).T
_LINE_12 = _ROW_12 + 2

# The six displacement-posture lines alone, the unit vector of each one's
# leg, and the displacement line of each channel.
_DISP_ROW, _DISP_LEG = _LINE_ROW[3:], _LINE_LEG[3:]
_DISP_UNIT = np.eye(3)[_DISP_LEG]
_DISP_12 = _ROW_12 - 1

#: Correlation pattern of one leg's four double-posture deviations
#: (max/min deviations of a gauge share the isotropic reading noise).
GAUGE_CORRELATION_BLOCK = np.array(
    [
        [2.0, 0.0, 1.0, 0.0],
        [0.0, 2.0, 0.0, 1.0],
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 1.0, 0.0, 2.0],
    ]
)


def _reduce_channels(full: np.ndarray) -> np.ndarray:
    """Max-minus-min differences of the twelve channels on the last axis."""
    return full[..., _REDUCTION_PLUS] - full[..., _REDUCTION_MINUS]


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


def _geometry_constant(fn):
    """Compute ``fn(..., geom)`` once per argument tuple (``lru_cache``).  The
    arrays it returns, alone or in a tuple, are shared by every caller and
    therefore made read-only."""

    @functools.lru_cache(maxsize=16)
    @functools.wraps(fn)
    def cached(*args):
        out = fn(*args)
        for a in out if isinstance(out, tuple) else (out,):
            a.setflags(write=False)
        return out

    return cached


@_geometry_constant
def _stack_joints(geom: Geometry) -> np.ndarray:
    """Effective joints of the posture stack at zero offsets, the commanded
    joints of each stack posture, component-major: ``(3, 7, 1)``, broadcast
    over the batch columns."""
    joints = np.array([posture_commanded_joints(posture, geom) for posture in _STACK]).T
    return np.ascontiguousarray(joints)[..., None]


@_geometry_constant
def _single_design(geom: Geometry) -> np.ndarray:
    """Two isotropic z-rows, then the X and Y displacement rows with ``a``
    on the leg axis."""
    k = coefficients(geom)
    design = np.zeros((6, 3))
    design[:, 2] = 1.0
    for slot, (leg, sign) in enumerate(_CHANNELS_SINGLE, start=2):
        design[slot, leg] = k.a1 if sign > 0 else k.a2
    return design


@_geometry_constant
def _twelve_design(geom: Geometry) -> np.ndarray:
    """Twelve double-posture rows: ``b`` on the gauge axis and ``c`` on the
    leg axis, with the max (1) or min (2) displacement angle."""
    k = coefficients(geom)
    design = np.zeros((12, 3))
    for slot, (leg, gax, sign) in enumerate(_CHANNELS_12):
        design[slot, gax], design[slot, leg] = (k.b1, k.c1) if sign > 0 else (k.b2, k.c2)
    return design


@_geometry_constant
def _six_design(geom: Geometry) -> np.ndarray:
    """Reduced rows on the max-minus-min differences: ``b`` and ``c``."""
    return np.ascontiguousarray(_reduce_channels(_twelve_design(geom).T).T)


def _cm(a: np.ndarray) -> np.ndarray:
    """Component-major view ``(k, ...)`` of an array ``(..., k)``."""
    return a.transpose(-1, *range(a.ndim - 1))


def _rm(a: np.ndarray) -> np.ndarray:
    """Row-major view ``(..., k)`` of a component-major array ``(k, ...)``."""
    return a.transpose(*range(1, a.ndim), 0) if a.ndim > 1 else a


def _columns(a: np.ndarray) -> np.ndarray:
    """A component-major array ``(k, ...)`` as ``(k, n)``, one column per
    batch row; a view wherever the batch axes merge."""
    return a.reshape(a.shape[0], -1)


def _offsets_array(offsets, geom: Geometry) -> np.ndarray:
    """Checked offsets ``(..., 3)`` as a component-major view ``(3, ...)``."""
    arr = np.asarray(offsets, dtype=float)
    check_offsets(arr, geom)
    return _cm(arr)


# The forward model runs a batch in strips of at most this many rows, each in
# the calling thread's scratch; a 400-700-row Gauss-Newton call takes one.
_STRIP_ROWS = 1024


# The two stacks the forward model solves: the whole stack, gauged on the nine
# leg lines, and the single-posture rows (the isotropic and X/Y postures); and
# the source row of each single-posture channel's TCP z-coordinate, 3 R + 2 R.
_ALL_ROWS = slice(None)
_SINGLE_ROWS = slice(_ROW_SINGLE.max() + 1)
_SINGLE_TAKE = 5 * (_ROW_SINGLE.max() + 1) + _ROW_SINGLE


def _gauged_take() -> tuple[np.ndarray, np.ndarray]:
    """Rows of a whole-stack strip's source block (:class:`_Strip`) that the
    gathers take: each leg line's effective joint, gauge station and TCP
    coordinate on the leg axis; each channel's mu on its line and on its
    leg's isotropic line, then its TCP coordinate on the gauge axis at its
    posture and at the isotropic one."""
    R = len(_STACK)
    line, mu, p = _LINE_LEG * R + _LINE_ROW, 6 * R + 3, 3 * R + _GAUGE_12 * R
    lines = np.concatenate([line, 6 * R + _LINE_LEG, 3 * R + line])
    return lines, np.concatenate([mu + _LINE_12, mu + _LEG_12, p + _ROW_12, p])


_GAUGED_LINES, _TAKE_12 = _gauged_take()


class _Strip:
    """Views of the calling thread's scratch for a strip of ``w`` columns and
    ``n_rows`` stack postures.  ``src`` stacks the rows that the gathers
    take: the effective joints and TCPs ``(3, n_rows, w)`` and, on the whole
    stack, the gauge stations and the nine leg lines' mu.  There the
    direct-kinematics planes ``dk`` hold the gathers once the TCPs are
    solved: ``joint, num, den`` of each line, then the channel products
    ``left * right`` and the twelve channels ``full``, whose max and min
    halves ``plus`` and ``minus``, ``(3, 2, w)``, give the reduced rows."""

    __slots__ = (
        "src", "joints", "p", "p0", "station", "mu", "dk", "take", "joint", "ends",
        "num", "den", "parallel", "products", "left", "right", "line", "iso",
        "full", "plus", "minus",
    )

    def __init__(self, floats, flags, n_rows, w):
        G = len(_LINE_ROW) if n_rows == len(_STACK) else 0  # only the whole stack is gauged
        R, n_src = n_rows, 6 * n_rows + 3 + G
        self.src = floats[: n_src * w].reshape(n_src, w)
        self.joints = self.src[: 3 * R].reshape(3, R, w)
        self.p = self.src[3 * R : 6 * R].reshape(3, R, w)
        self.p0 = self.p[:, 0]
        self.station = self.src[6 * R : 6 * R + 3]
        self.mu = self.src[6 * R + 3 :]
        spare = floats[n_src * w :]
        self.dk = _dk_scratch((R, w), spare, flags)
        if G:
            self.take = spare[: 3 * G * w].reshape(3 * G, w)
            self.joint, self.num, self.den = lines = self.take.reshape(3, G, w)
            self.ends = lines[1:]
            self.parallel = flags[: G * w].reshape(G, w)
            self.products = spare[: 48 * w].reshape(48, w)
            self.left, self.right = self.products[:24], self.products[24:]
            self.line, self.iso = self.left[:12], self.left[12:]
            self.full = spare[48 * w : 60 * w].reshape(12, w)
            # by gauged plane pair, max or min, leg
            self.plus, self.minus = self.full.reshape(3, 2, 2, w).swapaxes(0, 1)


# Scratch of one strip of the whole stack: the source block with nine lines,
# then the direct-kinematics planes, which also hold the sixty rows of the
# channel gathers.
_STRIP_FLOATS = (6 * len(_STACK) + 3 + len(_LINE_ROW) + _DK_FLOATS * len(_STACK)) * _STRIP_ROWS
_STRIP_FLAGS = _DK_FLAGS * len(_STACK) * _STRIP_ROWS


class _Scratch(threading.local):
    """The forward model's scratch, about 1 MB: allocated once per thread,
    on its first call, and reused by every later call of that thread, so
    that a call that does not fail allocates little more than its result.
    The views of every strip shape are kept, about 4.9 KB a shape; widths
    are at most ``_STRIP_ROWS``, so the shapes are bounded."""

    def __init__(self) -> None:
        self.floats = np.empty(_STRIP_FLOATS)
        self.flags = np.empty(_STRIP_FLAGS, dtype=bool)
        self.strips = {}

    def strip(self, n_rows: int, w: int) -> _Strip:
        key = (n_rows, w)
        strip = self.strips.get(key)
        if strip is None:
            strip = self.strips[key] = _Strip(self.floats, self.flags, n_rows, w)
        return strip


_SCRATCH = _Scratch()


def _posture_stack(dr: np.ndarray, geom: Geometry, rows):
    """The forward model of offsets ``dr``, ``(3, n)``, on the stack ``rows``,
    ``_ALL_ROWS`` or ``_SINGLE_ROWS``, in strips of at most ``_STRIP_ROWS``
    columns.

    Yields each strip's columns and views (:class:`_Strip`), valid until the
    next strip: the effective joints and TCPs ``(3, len(rows), w)`` and, on
    the whole stack, the gauge stations and ``num, den`` of each station's
    parameter ``mu = num / den`` on the nine gauged leg lines, which run from
    the prismatic joint centre (``mu = 0``) to the TCP (``mu = 1``).  A
    failure raises the whole batch's error: that of the first posture in
    ``rows`` whose direct kinematics fails on any column, else the leg-line
    error."""
    stack = _stack_joints(geom)[:, rows]
    for start in range(0, dr.shape[1], _STRIP_ROWS):
        cols = slice(start, start + _STRIP_ROWS)
        d = dr[:, cols]
        strip = _SCRATCH.strip(stack.shape[1], d.shape[1])
        np.add(d[:, None], stack, out=strip.joints)
        try:
            _dk_point(strip.joints, geom.L, strip.p, strip.dk)
            if rows is _ALL_ROWS:
                _gauge_lines(strip, d, geom.L)
        except (DomainError, SingularError):
            _name_failing_posture(dr, geom, rows)
            raise
        yield cols, strip


def _gauge_lines(strip: _Strip, dr: np.ndarray, L: float) -> None:
    """Gauge stations, the along-axis coordinates ``L/2 + (p0_i + dr_i)/2`` of
    the leg midpoints at the isotropic posture, and ``num``, ``den`` of the
    strip's leg lines."""
    station = np.add(strip.p0, dr, out=strip.station)
    station *= 0.5
    station += L / 2
    np.take(strip.src, _GAUGED_LINES, axis=0, out=strip.take, mode="wrap")
    np.subtract(strip.joint, strip.ends, out=strip.ends)  # joint - station, joint - TCP
    if np.count_nonzero(np.less(np.abs(strip.den, out=strip.joint), 1e-9, out=strip.parallel)):
        raise SingularError("leg line parallel to the gauge station plane")


def _name_failing_posture(dr: np.ndarray, geom: Geometry, rows) -> None:
    """Error path only: raise the error of the first posture in ``rows``
    whose direct kinematics fails on any column of ``dr``, named after it."""
    joints = dr[:, None] + _stack_joints(geom)[:, rows]
    for i, row in enumerate(np.arange(len(_STACK))[rows]):
        try:
            _dk_point(joints[:, i], geom.L)
        except (DomainError, SingularError) as exc:
            raise type(exc)(f"{_STACK[row].label()} posture: {exc}") from None


def _double_posture(offsets, geom: Geometry, reduced: bool) -> np.ndarray:
    """The twelve double-posture channels, or their max-minus-min
    differences if ``reduced``, written strip by strip into the result."""
    dr = _offsets_array(offsets, geom)
    out = np.empty((6 if reduced else 12,) + dr.shape[1:])
    planes = _columns(out)
    for cols, strip in _posture_stack(_columns(dr), geom, _ALL_ROWS):
        np.divide(strip.num, strip.den, out=strip.mu)
        np.take(strip.src, _TAKE_12, axis=0, out=strip.products, mode="wrap")
        np.multiply(strip.left, strip.right, out=strip.left)
        np.subtract(strip.line, strip.iso, out=strip.full if reduced else planes[:, cols])
        if reduced:  # the reduced rows by gauged plane pair: (3, 2, w)
            np.subtract(strip.plus, strip.minus, out=planes[:, cols].reshape(3, 2, -1))
    return _rm(out)


def double_deviation_array(offsets, geom: Geometry) -> np.ndarray:
    """Exact double-posture deviations, shape ``(..., 12)`` in canonical order,
    with each leg's gauge at its midpoint at the isotropic posture."""
    return _double_posture(offsets, geom, False)


def reduced_deviation_array(offsets, geom: Geometry) -> np.ndarray:
    """Exact max-minus-min deviations, shape ``(..., 6)`` in reduced order."""
    return _double_posture(offsets, geom, True)


def single_deviation_array(offsets, geom: Geometry) -> np.ndarray:
    """Exact single-posture z-deviations, shape ``(..., 6)``.

    The prismatic end of each gauged leg lies in the base plane, so the
    deviation is the TCP z-coordinate at the posture.
    """
    dr = _offsets_array(offsets, geom)
    out = np.empty((6,) + dr.shape[1:])
    planes = _columns(out)
    for cols, strip in _posture_stack(_columns(dr), geom, _SINGLE_ROWS):
        np.take(strip.src, _SINGLE_TAKE, axis=0, out=planes[:, cols], mode="wrap")
    return _rm(out)


def prediction_jacobian(offsets, geom: Geometry, label: str = SYSTEM_TWELVE) -> np.ndarray:
    """Exact analytic Jacobian of the nonlinear deviation model.

    Differentiates the leg-deviation predictions with respect to the offsets
    by the chain rule through the direct kinematics and the gauge-line
    parameter, for offsets ``(..., 3)``; shape ``(..., n, 3)`` with ``n``
    the rows of scheme ``label``.  At zero offsets this reduces to the
    constant linear-system matrix.  Nominal gauge placement is assumed.
    """
    scheme = SCHEMES.get(label)
    if scheme is None or scheme.from_full is None:
        raise ValueError(f"prediction_jacobian supports {SYSTEM_TWELVE!r} or {SYSTEM_SIX!r}")
    dr = _offsets_array(offsets, geom)
    out = np.empty(dr.shape[1:] + (len(scheme.wire_keys), 3))
    rows = out.reshape(-1, *out.shape[-2:])
    for cols, strip in _posture_stack(_columns(dr), geom, _ALL_ROWS):
        # the chain rule runs on row-major views: joints and TCPs (w, 7, 3)
        joints, p = strip.joints.T, strip.p.T
        D = np.linalg.inv(inverse_jacobian(p, joints))  # dp/drho at each posture
        D0 = D[:, 0]
        # gradient of the gauge-line parameter of each displacement posture on
        # its own leg; at the isotropic posture mu is 1/2
        num, den = strip.num[3:].T, strip.den[3:].T
        d_num = _DISP_UNIT / 2 - D0[:, _DISP_LEG, :] / 2
        d_den = _DISP_UNIT - D[:, _DISP_ROW, _DISP_LEG, :]
        d_mu = (d_num * den[..., None] - num[..., None] * d_den) / (den * den)[..., None]
        full = (
            d_mu[:, _DISP_12, :] * p[:, _ROW_12, _GAUGE_12, None]
            + (num / den)[:, _DISP_12, None] * D[:, _ROW_12, _GAUGE_12, :]
            - D0[:, _GAUGE_12, :] / 2
        )
        rows[cols] = np.swapaxes(scheme.from_full(np.swapaxes(full, -1, -2)), -1, -2)
    return out


def predict_double_posture(offsets, geom: Geometry) -> DoublePostureMeasurements:
    """Noise-free double-posture measurement set for true offsets."""
    return DoublePostureMeasurements.from_array(double_deviation_array(offsets, geom))


def predict_single_posture(offsets, geom: Geometry) -> SinglePostureMeasurements:
    """Noise-free single-posture measurement set for true offsets."""
    return SinglePostureMeasurements.from_array(single_deviation_array(offsets, geom))


def reduce(m: DoublePostureMeasurements) -> ReducedMeasurements:
    """Collapse a full double-posture set to max-minus-min differences."""
    return ReducedMeasurements.from_array(_reduce_channels(m.as_array()))


@dataclass(frozen=True)
class GaugeLocation:
    """Gauge position for one leg: the leg midpoint at the isotropic posture."""

    leg: Axis
    position: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


def gauge_locations(offsets, geom: Geometry) -> tuple[GaugeLocation, GaugeLocation, GaugeLocation]:
    """Leg midpoints at the isotropic posture under the true offsets.

    The along-axis coordinate of leg ``i`` is ``L/2 + (p0_i + drho_i)/2``
    and the cross-axis coordinates are half the isotropic TCP coordinates.
    It fails wherever the double-posture predictor fails.
    """
    dr = _offsets_array(offsets, geom)
    if dr.ndim != 1:
        raise ValueError("gauge_locations expects a single offset triple")
    for _, strip in _posture_stack(dr[:, None], geom, _ALL_ROWS):
        station, p0 = strip.station[:, 0], strip.p0[:, 0]
        return tuple(
            GaugeLocation(leg=leg, position=np.where(np.arange(3) == leg, station, p0 / 2.0))
            for leg in Axis
        )


def leg_line_scaling(posture: Posture, leg: Axis, offsets, geom: Geometry) -> float:
    """Line parameter locating the gauge station on the leg at a posture.

    The leg is the segment from the prismatic joint centre (parameter 0) to
    the TCP (parameter 1); the returned value parameterizes the point whose
    along-axis coordinate equals the gauge station.  Exactly 0.5 at the
    isotropic posture.  It fails wherever the double-posture predictor fails.
    """
    leg = Axis.parse(leg)
    if posture.kind is not PostureKind.ISOTROPIC and posture.axis != leg:
        raise ValueError(
            f"leg {leg.name} is gauged only at its own displacement postures, "
            f"not at {posture.label()}"
        )
    dr = _offsets_array(offsets, geom)
    if dr.ndim != 1:
        raise ValueError("leg_line_scaling expects a single offset triple")
    # the isotropic lines come first, one per leg, then one per displacement posture
    line = leg if posture.kind is PostureKind.ISOTROPIC else _STACK.index(posture) + 2
    for _, strip in _posture_stack(dr[:, None], geom, _ALL_ROWS):
        return float(strip.num[line, 0] / strip.den[line, 0])


@dataclass(frozen=True)
class NoiseModel:
    """Seeded i.i.d. Gaussian noise on individual gauge readings.

    The generator algorithm is fixed (:data:`GENERATOR_ALGORITHM`), so a given
    ``(sigma, seed)`` pair reproduces the same perturbations bit for bit.
    """

    sigma: float
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma}")

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _noise_pairs(rng: np.random.Generator, sigma: float, shape: tuple = ()) -> np.ndarray:
    """Single-posture noise: six channels, each the difference of two
    independent raw readings, variance ``2 sigma^2``."""
    xi = rng.standard_normal(shape + (6, 2)) * sigma
    return xi[..., 0] - xi[..., 1]


def _noise_double(rng: np.random.Generator, sigma: float, shape: tuple = ()) -> np.ndarray:
    """Double-posture noise with the raw-reading correlation structure.

    Per leg and gauge, one reading is taken at each of the isotropic, max and
    min postures; a deviation is the posture reading minus the isotropic one,
    so the max and min deviations of a gauge share the isotropic noise term.
    """
    xi = rng.standard_normal(shape + (18,)) * sigma  # (leg, gauge slot, reading), flat
    return np.take(xi, _NOISE_READING, axis=-1) - np.take(xi, _NOISE_ISO, axis=-1)


@dataclass(frozen=True, eq=False)
class Scheme:
    """Everything the toolkit knows about one measurement scheme.

    ``predict(offsets, geom)`` is the exact deviation model and
    ``design(geom)`` its first-order expansion, both in row order;
    ``sample_noise(rng, sigma, shape)`` draws the reading errors, whose
    covariance is ``sigma**2 * noise_covariance``.  ``wire_keys`` is the key
    order of files and reports.  ``from_full`` maps the twelve double-posture
    channels (last axis) onto the rows; None for a scheme not read from the
    double-posture gauges.
    """

    label: str
    measurement: type
    wire_keys: tuple[str, ...]
    predict: Callable
    design: Callable
    sample_noise: Callable
    noise_covariance: np.ndarray
    from_full: Callable | None

    def __post_init__(self) -> None:
        self.noise_covariance.setflags(write=False)

    @property
    def row_keys(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.measurement))


#: The measurement schemes by label.
SCHEMES = MappingProxyType(
    {
        SYSTEM_SINGLE: Scheme(
            label=SYSTEM_SINGLE,
            measurement=SinglePostureMeasurements,
            wire_keys=(
                "dz_x0", "dz_y0", "dz_x_plus", "dz_x_minus", "dz_y_plus", "dz_y_minus",
            ),
            predict=single_deviation_array,
            design=_single_design,
            sample_noise=_noise_pairs,
            noise_covariance=2.0 * np.eye(6),
            from_full=None,
        ),
        SYSTEM_TWELVE: Scheme(
            label=SYSTEM_TWELVE,
            measurement=DoublePostureMeasurements,
            wire_keys=(
                "dx_y_plus", "dx_y_minus", "dx_z_plus", "dx_z_minus",
                "dy_x_plus", "dy_x_minus", "dy_z_plus", "dy_z_minus",
                "dz_x_plus", "dz_x_minus", "dz_y_plus", "dz_y_minus",
            ),
            predict=double_deviation_array,
            design=_twelve_design,
            sample_noise=_noise_double,
            noise_covariance=np.kron(np.eye(3), GAUGE_CORRELATION_BLOCK),
            from_full=lambda full: full,
        ),
        SYSTEM_SIX: Scheme(
            label=SYSTEM_SIX,
            measurement=ReducedMeasurements,
            wire_keys=("dx_y", "dx_z", "dy_x", "dy_z", "dz_x", "dz_y"),
            predict=reduced_deviation_array,
            design=_six_design,
            # the max-minus-min differences of the raw double-posture
            # readings: the shared isotropic reading cancels
            sample_noise=lambda rng, sigma, shape=(): _reduce_channels(
                _noise_double(rng, sigma, shape)
            ),
            noise_covariance=2.0 * np.eye(6),
            from_full=_reduce_channels,
        ),
    }
)

_SCHEME_OF_CLASS = {s.measurement: s for s in SCHEMES.values()}


def scheme_of(m: MeasurementSet) -> Scheme:
    """The scheme of a measurement set; TypeError for anything else."""
    if type(m) in _SCHEME_OF_CLASS:
        return _SCHEME_OF_CLASS[type(m)]
    raise TypeError(f"unsupported measurement set type: {type(m).__name__}")


def add_noise(m: MeasurementSet, noise: NoiseModel, repetitions: int = 1) -> MeasurementSet:
    """Perturb a measurement set with seeded gauge noise.

    ``repetitions`` models averaging of repeated raw readings: each reading
    error gets standard deviation ``sigma / sqrt(repetitions)``.  With
    ``sigma=0`` the input is returned unchanged.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if noise.sigma == 0.0:
        return m
    scheme = scheme_of(m)
    sig = noise.sigma / math.sqrt(repetitions)
    return type(m).from_array(m.as_array() + scheme.sample_noise(noise.make_rng(), sig))
