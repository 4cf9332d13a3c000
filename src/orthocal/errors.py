"""Exception and warning types shared across the toolkit."""

__all__ = [
    "OrthoglideError",
    "DomainError",
    "SingularError",
    "RankError",
    "ConvergenceError",
    "InputError",
    "JointLimitWarning",
]


class OrthoglideError(Exception):
    """Base class for all toolkit errors."""


class DomainError(OrthoglideError):
    """A pose or joint set is kinematically unreachable (negative square-root
    argument or negative discriminant)."""


class SingularError(OrthoglideError):
    """A denominator vanished or no admissible kinematic branch exists."""


class RankError(OrthoglideError):
    """A design matrix is numerically rank deficient."""


class ConvergenceError(OrthoglideError):
    """An iterative solver exhausted its iteration budget."""


class InputError(OrthoglideError):
    """A measurement file or CLI input failed validation."""


class JointLimitWarning(UserWarning):
    """An inverse-kinematics solution violates the software joint limits.

    Joint-limit violations are reported but not fatal: calibration postures
    commanded at the limits may nominally exceed them by the offset magnitude.
    """
