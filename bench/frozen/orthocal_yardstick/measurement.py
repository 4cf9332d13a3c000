"""Forward simulation of the leg-parallelism measurement process.

Two gauge schemes are modelled.  The *single-posture* scheme reads the
distance of both ends of the X- and Y-legs from the base plane, so each
deviation equals the exact TCP z-coordinate at the posture.  The
*double-posture* scheme fixes one gauge at the midpoint of a leg (located at
the isotropic posture) and reads the leg's lateral position as the machine
moves between the isotropic and the max/min displacement postures.

All deviation predictors are exact nonlinear models built on the direct
kinematics; the linear calibration systems are their first-order expansions.
Predictors accept offset arrays of shape ``(3,)`` or ``(..., 3)``; the
``*_array`` variants return plain arrays in the canonical equation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, SingularError
from .geometry import Axis, Geometry, Posture, PostureKind, check_offsets
from .kinematics import _dk_point

__all__ = [
    "SinglePostureMeasurements",
    "DoublePostureMeasurements",
    "ReducedMeasurements",
    "GaugeLocation",
    "NoiseModel",
    "GENERATOR_ALGORITHM",
    "gauge_locations",
    "leg_line_scaling",
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


def _field_array(m) -> np.ndarray:
    return np.array([getattr(m, f.name) for f in fields(m)], dtype=float)


@dataclass(frozen=True)
class SinglePostureMeasurements:
    """Six z-deviations of the single-posture scheme, in calibration-system
    row order: isotropic X/Y legs, then X-leg max/min, then Y-leg max/min."""

    dz_x0: float
    dz_y0: float
    dz_x_plus: float
    dz_x_minus: float
    dz_y_plus: float
    dz_y_minus: float

    def as_array(self) -> np.ndarray:
        return _field_array(self)

    @classmethod
    def from_array(cls, values) -> "SinglePostureMeasurements":
        return cls(*map(float, np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class DoublePostureMeasurements:
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

    def as_array(self) -> np.ndarray:
        return _field_array(self)

    @classmethod
    def from_array(cls, values) -> "DoublePostureMeasurements":
        return cls(*map(float, np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class ReducedMeasurements:
    """Max-minus-min deviation differences, in reduced-system row order."""

    dx_y: float
    dy_x: float
    dy_z: float
    dz_y: float
    dx_z: float
    dz_x: float

    def as_array(self) -> np.ndarray:
        return _field_array(self)

    @classmethod
    def from_array(cls, values) -> "ReducedMeasurements":
        return cls(*map(float, np.asarray(values, dtype=float)))


MeasurementSet = SinglePostureMeasurements | DoublePostureMeasurements | ReducedMeasurements

# Canonical 12-vector channels: (slot, leg, gauge axis, +1 max / -1 min).
_CHANNELS_12 = (
    (0, Axis.Y, Axis.X, +1),
    (1, Axis.X, Axis.Y, +1),
    (2, Axis.Y, Axis.X, -1),
    (3, Axis.X, Axis.Y, -1),
    (4, Axis.Z, Axis.Y, +1),
    (5, Axis.Y, Axis.Z, +1),
    (6, Axis.Z, Axis.Y, -1),
    (7, Axis.Y, Axis.Z, -1),
    (8, Axis.Z, Axis.X, +1),
    (9, Axis.X, Axis.Z, +1),
    (10, Axis.Z, Axis.X, -1),
    (11, Axis.X, Axis.Z, -1),
)

# Plus/minus slot pairs forming the reduced 6-vector, in reduced row order.
_REDUCTION_PAIRS = ((0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11))

# Gauge slot (0 or 1) of each (leg, gauge axis) pair in the raw-noise layout.
_GAUGE_SLOT = {
    (Axis.X, Axis.Y): 0,
    (Axis.X, Axis.Z): 1,
    (Axis.Y, Axis.X): 0,
    (Axis.Y, Axis.Z): 1,
    (Axis.Z, Axis.X): 0,
    (Axis.Z, Axis.Y): 1,
}


def _offsets_array(offsets, geom: Geometry) -> np.ndarray:
    arr = np.asarray(offsets, dtype=float)
    check_offsets(arr, geom)
    return arr


def _posture_tcp(dr: np.ndarray, leg: Axis, sign: int, geom: Geometry) -> np.ndarray:
    """TCP at the max (+1) or min (-1) displacement posture of ``leg``."""
    ang = geom.angle_max() if sign > 0 else geom.angle_min()
    joints = dr + geom.L * ang.c_alpha
    joints[..., leg] = dr[..., leg] + geom.L * (1.0 + ang.s_alpha)
    posture = Posture.max(leg) if sign > 0 else Posture.min(leg)
    try:
        return _dk_point(joints, geom.L)
    except (DomainError, SingularError) as exc:
        raise type(exc)(f"{posture.label()} posture: {exc}") from None


def _iso_tcp(dr: np.ndarray, geom: Geometry) -> np.ndarray:
    try:
        return _dk_point(dr + geom.L, geom.L)
    except (DomainError, SingularError) as exc:
        raise type(exc)(f"isotropic posture: {exc}") from None


def double_deviation_array(offsets, geom: Geometry, gauge_shift=None) -> np.ndarray:
    """Exact double-posture deviations, shape ``(..., 12)`` in canonical order.

    ``gauge_shift`` optionally displaces each leg's gauge station along the
    leg axis (mm, one value per leg); the nominal placement is the leg
    midpoint at the isotropic posture.
    """
    dr = _offsets_array(offsets, geom)
    shift = np.zeros(3) if gauge_shift is None else np.asarray(gauge_shift, dtype=float)
    L = geom.L
    iso_eff = dr + L
    p0 = _iso_tcp(dr, geom)
    out = np.empty(dr.shape[:-1] + (12,))
    cache: dict[tuple, tuple] = {}
    for slot, leg, gax, sign in _CHANNELS_12:
        key = (leg, sign)
        if key not in cache:
            pp = _posture_tcp(dr, leg, sign, geom)
            ang = geom.angle_max() if sign > 0 else geom.angle_min()
            joint = dr[..., leg] + L * (1.0 + ang.s_alpha)
            # gauge station along the leg axis; exactly the leg midpoint when
            # the shift hook is zero
            xg = L / 2 + (p0[..., leg] + dr[..., leg]) / 2 + shift[leg]
            denom = joint - pp[..., leg]
            if np.any(np.abs(denom) < 1e-9):
                raise SingularError("leg line parallel to the gauge station plane")
            mu = (joint - xg) / denom
            mu0 = (iso_eff[..., leg] - xg) / (iso_eff[..., leg] - p0[..., leg])
            cache[key] = (pp, mu, mu0)
        pp, mu, mu0 = cache[key]
        out[..., slot] = mu * pp[..., gax] - mu0 * p0[..., gax]
    return out


def reduced_deviation_array(offsets, geom: Geometry, gauge_shift=None) -> np.ndarray:
    """Exact max-minus-min deviations, shape ``(..., 6)`` in reduced order."""
    full = double_deviation_array(offsets, geom, gauge_shift)
    return np.stack([full[..., i] - full[..., j] for i, j in _REDUCTION_PAIRS], axis=-1)


def single_deviation_array(offsets, geom: Geometry) -> np.ndarray:
    """Exact single-posture z-deviations, shape ``(..., 6)``.

    The prismatic end of each gauged leg lies in the base plane, so the
    deviation is the TCP z-coordinate at the posture.
    """
    dr = _offsets_array(offsets, geom)
    p0 = _iso_tcp(dr, geom)
    out = np.empty(dr.shape[:-1] + (6,))
    out[..., 0] = p0[..., 2]
    out[..., 1] = p0[..., 2]
    out[..., 2] = _posture_tcp(dr, Axis.X, +1, geom)[..., 2]
    out[..., 3] = _posture_tcp(dr, Axis.X, -1, geom)[..., 2]
    out[..., 4] = _posture_tcp(dr, Axis.Y, +1, geom)[..., 2]
    out[..., 5] = _posture_tcp(dr, Axis.Y, -1, geom)[..., 2]
    return out


def predict_double_posture(
    offsets, geom: Geometry, gauge_shift=None
) -> DoublePostureMeasurements:
    """Noise-free double-posture measurement set for true offsets."""
    return DoublePostureMeasurements.from_array(
        double_deviation_array(offsets, geom, gauge_shift)
    )


def predict_single_posture(offsets, geom: Geometry) -> SinglePostureMeasurements:
    """Noise-free single-posture measurement set for true offsets."""
    return SinglePostureMeasurements.from_array(single_deviation_array(offsets, geom))


def reduce(m: DoublePostureMeasurements) -> ReducedMeasurements:
    """Collapse a full double-posture set to max-minus-min differences."""
    full = m.as_array()
    return ReducedMeasurements.from_array(
        [full[i] - full[j] for i, j in _REDUCTION_PAIRS]
    )


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
    """
    dr = _offsets_array(offsets, geom)
    if dr.ndim != 1:
        raise ValueError("gauge_locations expects a single offset triple")
    p0 = _iso_tcp(dr, geom)
    out = []
    for leg in Axis:
        pos = p0 / 2.0
        pos[leg] = geom.L / 2 + (p0[leg] + dr[leg]) / 2
        out.append(GaugeLocation(leg=leg, position=pos))
    return tuple(out)


def leg_line_scaling(
    posture: Posture, leg: Axis, offsets, geom: Geometry, gauge_shift: float = 0.0
) -> float:
    """Line parameter locating the gauge station on the leg at a posture.

    The leg is the segment from the prismatic joint centre (parameter 0) to
    the TCP (parameter 1); the returned value parameterizes the point whose
    along-axis coordinate equals the gauge station.  Exactly 0.5 at the
    isotropic posture with nominal gauge placement.
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
    L = geom.L
    p0 = _iso_tcp(dr, geom)
    xg = L / 2 + (p0[leg] + dr[leg]) / 2 + gauge_shift
    if posture.kind is PostureKind.ISOTROPIC:
        joint = L + dr[leg]
        p_leg = p0[leg]
    else:
        ang = geom.angle_max() if posture.kind is PostureKind.MAX_DISPLACEMENT else geom.angle_min()
        joint = L * (1.0 + ang.s_alpha) + dr[leg]
        p_leg = _posture_tcp(dr, leg, +1 if posture.kind is PostureKind.MAX_DISPLACEMENT else -1, geom)[leg]
    denom = joint - p_leg
    if abs(denom) < 1e-9:
        raise SingularError("leg line parallel to the gauge station plane")
    return float((joint - xg) / denom)


@dataclass(frozen=True)
class NoiseModel:
    """Seeded i.i.d. Gaussian noise on individual gauge readings.

    The generator algorithm is fixed (:data:`GENERATOR_ALGORITHM`), so a given
    ``(sigma, seed)`` pair reproduces the same perturbations bit for bit.
    """

    sigma: float
    seed: int

    def __post_init__(self) -> None:
        if not (self.sigma >= 0.0):
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _noise_single(rng: np.random.Generator, sigma: float, shape: tuple = ()) -> np.ndarray:
    """Single-posture noise: each deviation is the difference of two raw
    absolute readings, variance ``2 sigma^2``, independent across channels."""
    xi = rng.standard_normal(shape + (6, 2)) * sigma
    return xi[..., 0] - xi[..., 1]


def _noise_double(rng: np.random.Generator, sigma: float, shape: tuple = ()) -> np.ndarray:
    """Double-posture noise with the raw-reading correlation structure.

    Per leg and gauge, one reading is taken at each of the isotropic, max and
    min postures; a deviation is the posture reading minus the isotropic one,
    so the max and min deviations of a gauge share the isotropic noise term.
    """
    xi = rng.standard_normal(shape + (3, 2, 3)) * sigma  # (leg, gauge slot, posture)
    out = np.empty(shape + (12,))
    for slot, leg, gax, sign in _CHANNELS_12:
        g = _GAUGE_SLOT[(leg, gax)]
        pos = 1 if sign > 0 else 2
        out[..., slot] = xi[..., leg, g, pos] - xi[..., leg, g, 0]
    return out


def _noise_reduced(rng: np.random.Generator, sigma: float, shape: tuple = ()) -> np.ndarray:
    """Reduced noise: difference of the max and min raw readings (the shared
    isotropic reading cancels), variance ``2 sigma^2`` per channel."""
    xi = rng.standard_normal(shape + (6, 2)) * sigma
    return xi[..., 0] - xi[..., 1]


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
    sig = noise.sigma / math.sqrt(repetitions)
    rng = noise.make_rng()
    if isinstance(m, SinglePostureMeasurements):
        return SinglePostureMeasurements.from_array(m.as_array() + _noise_single(rng, sig))
    if isinstance(m, DoublePostureMeasurements):
        return DoublePostureMeasurements.from_array(m.as_array() + _noise_double(rng, sig))
    if isinstance(m, ReducedMeasurements):
        return ReducedMeasurements.from_array(m.as_array() + _noise_reduced(rng, sig))
    raise TypeError(f"unsupported measurement set type: {type(m).__name__}")
