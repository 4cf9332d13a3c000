"""Geometry of the simplified PSS Orthoglide model and its canonical postures.

The machine is modelled as three rigid links of length ``L`` joining the tool
centre point (TCP) to three mutually orthogonal prismatic actuators whose axes
intersect at the frame origin.  All lengths are millimetres, all angles
radians.
"""

from __future__ import annotations

import math
from enum import Enum, IntEnum

import numpy as np

from ._record import Record

__all__ = [
    "Axis",
    "Geometry",
    "ConfigurationIndices",
    "PostureKind",
    "Posture",
    "PostureAngles",
    "calibration_postures",
    "check_offsets",
]


class Axis(IntEnum):
    X = 0
    Y = 1
    Z = 2

    @classmethod
    def parse(cls, value: "Axis | int | str") -> "Axis":
        """The axis ``value`` names: an Axis, an int 0-2 or a name in any case.
        TypeError for any other type, a bool or a float among them;
        ValueError for an unknown name or an int out of range."""
        if isinstance(value, str):
            name = value.strip().upper()
            if name in cls.__members__:
                return cls[name]
        elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            if 0 <= value < len(cls):
                return cls(value)
        else:
            raise TypeError(f"an axis is an Axis, an int or a name, got {type(value).__name__}")
        raise ValueError(f"unknown axis {value!r}; expected one of {', '.join(cls.__members__)}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# Longest leg (mm) a Geometry takes.  The direct kinematics squares terms of
# order L**6, which overflow near L = 1e25; this bound keeps them far inside
# the float range.
_L_MAX = 1e6


class Geometry(Record):
    """Nominal leg geometry and software joint limits.

    ``r`` (tool offset, eliminated by a fixed coordinate shift) and ``d``
    (parallelogram width, eliminated by the rigid-rod reduction) are carried
    as inert metadata only; no computation depends on them, but both must be
    finite and non-negative.  ``L`` is at most 1e6 mm.
    """

    L: float
    rho_min: float
    rho_max: float
    r: float = 31.0
    d: float = 80.0

    def __post_init__(self) -> None:
        for name in ("L", "rho_min", "rho_max"):  # a real number before any comparison
            if not _is_real(value := getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {name}={value!r}")
        if not (0 < self.L <= _L_MAX):
            raise ValueError(f"leg length must be in (0, {_L_MAX:g}] mm, got L={self.L}")
        for name in ("r", "d"):
            _check_level(getattr(self, name), name)
        if not (self.rho_min < 0 < self.rho_max):
            raise ValueError(
                f"joint limits must straddle zero: rho_min={self.rho_min}, rho_max={self.rho_max}"
            )
        # asin(rho/L) must exist for both limits
        if abs(self.rho_min) >= self.L or abs(self.rho_max) >= self.L:
            raise ValueError("joint limits must satisfy |rho| < L")

    @classmethod
    def prototype(cls) -> "Geometry":
        """The 310.25 mm laboratory prototype."""
        return cls(L=310.25, rho_min=-100.0, rho_max=60.0, r=31.0, d=80.0)

    def angle_max(self) -> "PostureAngles":
        """Leg inclination at the maximum-displacement postures (positive)."""
        return PostureAngles.from_sine(self.rho_max / self.L)

    def angle_min(self) -> "PostureAngles":
        """Leg inclination at the minimum-displacement postures (negative)."""
        return PostureAngles.from_sine(self.rho_min / self.L)

    def joint_bounds(self) -> tuple[float, float]:
        """Admissible prismatic range about the isotropic value ``L``."""
        return (self.L + self.rho_min, self.L + self.rho_max)


class ConfigurationIndices(Record):
    """Branch signs of the inverse kinematics, fixed to +1 by the prototype
    assembly."""

    s_x: int = 1
    s_y: int = 1
    s_z: int = 1

    def __post_init__(self) -> None:
        for s in (self.s_x, self.s_y, self.s_z):
            if s not in (-1, 1):
                raise ValueError(f"configuration index must be +1 or -1, got {s}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.s_x, self.s_y, self.s_z)


POSITIVE_BRANCH = ConfigurationIndices(1, 1, 1)


class PostureKind(Enum):
    ISOTROPIC = "isotropic"
    MAX_DISPLACEMENT = "max"
    MIN_DISPLACEMENT = "min"


class Posture(Record):
    """One of the seven calibration postures: the isotropic posture or a
    max/min displacement along a Cartesian axis."""

    kind: PostureKind
    axis: Axis | None = None

    def __post_init__(self) -> None:
        if self.kind is PostureKind.ISOTROPIC:
            if self.axis is not None:
                raise ValueError("isotropic posture carries no axis")
        elif self.axis is None:
            raise ValueError(f"{self.kind.value}-displacement posture requires an axis")

    @classmethod
    def isotropic(cls) -> "Posture":
        return cls(PostureKind.ISOTROPIC)

    @classmethod
    def max(cls, axis: Axis) -> "Posture":
        return cls(PostureKind.MAX_DISPLACEMENT, Axis.parse(axis))

    @classmethod
    def min(cls, axis: Axis) -> "Posture":
        return cls(PostureKind.MIN_DISPLACEMENT, Axis.parse(axis))

    def label(self) -> str:
        if self.kind is PostureKind.ISOTROPIC:
            return "isotropic"
        return f"{self.kind.value} {self.axis.name}-displacement"


def calibration_postures() -> tuple[Posture, ...]:
    """The seven calibration postures: the isotropic one, then the max and
    min displacement postures along X, Y and Z."""
    return (Posture.isotropic(),) + tuple(
        make(axis) for axis in Axis for make in (Posture.max, Posture.min)
    )


class PostureAngles(Record):
    """Leg inclination angle at a displacement posture with its cached
    trigonometric values."""

    alpha: float
    s_alpha: float
    c_alpha: float
    t_alpha: float

    @classmethod
    def from_sine(cls, sine: float) -> "PostureAngles":
        if not -1.0 < sine < 1.0:
            raise ValueError(f"sine of posture angle out of range: {sine}")
        cos = math.sqrt(1.0 - sine * sine)
        return cls(alpha=math.asin(sine), s_alpha=sine, c_alpha=cos, t_alpha=sine / cos)


def _vec3(x, name: str) -> np.ndarray:
    """``x`` as a float array; ValueError naming ``name`` unless its last
    axis has 3 components."""
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {arr.shape}")
    return arr


def _finite_vec3(x, name: str) -> np.ndarray:
    """:func:`_vec3` of ``x``; ValueError naming ``name`` unless every
    component is finite."""
    arr = _vec3(x, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def check_offsets(offsets, geom: Geometry) -> np.ndarray:
    """Sanity bound on encoder offsets: finite and |offset| <= L/10.

    Larger values void the simplified kinematic model, so they are rejected
    before any prediction or identification is attempted.  Returns the
    offsets as the float array that was checked.
    """
    arr = _vec3(offsets, "offsets")
    bound = geom.L / 10.0
    # one test on the accept path: NaN fails it too (count_nonzero is the
    # cheapest reduction on a 3-element mask)
    if np.count_nonzero(np.abs(arr) <= bound) != arr.size:
        if not np.isfinite(arr).all():
            raise ValueError("offsets must be finite")
        raise ValueError(
            f"offset magnitude exceeds the model validity bound L/10 = {bound:.2f} mm"
        )
    return arr


def _offset_triple(offsets, geom: Geometry, caller: str) -> np.ndarray:
    """:func:`check_offsets` of one offset triple, shape ``(3,)``;
    ValueError naming ``caller`` for a batch."""
    arr = check_offsets(offsets, geom)
    if arr.ndim != 1:
        raise ValueError(f"{caller} expects a single offset triple, got shape {arr.shape}")
    return arr


def _check_count(value, name: str, least: int = 0) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer of at least
    ``least``, 0 or 1; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: an int, a float or a numpy integer
    or float; a bool is none."""
    # concrete types: an isinstance test against the numbers.Real ABC costs ten times more
    return isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool)


def _check_level(value, name: str) -> None:
    """ValueError naming ``name`` unless ``value``, a noise level or a length,
    is a real number (:func:`_is_real`), non-negative and finite as a float."""
    try:  # math.isfinite of an int beyond the float range overflows
        ok = _is_real(value) and 0 <= value and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite and non-negative, got {name}={value!r}")


def _noise_of_mean(sigma: float, repetitions: int, name: str) -> float:
    """The noise level ``sigma / sqrt(repetitions)`` of the mean of
    ``repetitions`` readings at level ``sigma``, or 0 for ``sigma`` 0, which
    takes no root.  ValueError naming ``name`` unless ``repetitions`` is a
    positive integer (:func:`_check_count`) whose square root, when taken,
    is a float."""
    _check_count(repetitions, name, 1)
    try:
        return sigma / math.sqrt(repetitions) if sigma else 0.0
    except OverflowError:  # a count beyond the float range
        raise ValueError(f"{name} is too large: its square root overflows a float") from None
