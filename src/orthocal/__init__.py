"""Joint-offset calibration toolkit for Orthoglide-type translational
parallel manipulators.

The package models the machine's exact kinematics, simulates the
leg-parallelism gauge measurements used for calibration, identifies the
actuated-joint encoder offsets by linear or nonlinear least squares, and
quantifies estimator accuracy under measurement noise both analytically and
by Monte-Carlo simulation.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    JointLimitWarning,
    OrthoglideError,
    RankError,
    SingularError,
)
from .geometry import (
    Axis,
    ConfigurationIndices,
    Geometry,
    Posture,
    PostureAngles,
    PostureKind,
    calibration_postures,
    check_offsets,
)
from .kinematics import (
    QuadraticRoots,
    SensitivityRow,
    constraint_residuals,
    direct_kinematics,
    inverse_jacobian,
    inverse_kinematics,
    posture_commanded_joints,
    posture_jacobian,
    sensitivity_table,
)
from .measurement import (
    GAUGE_CORRELATION_BLOCK,
    GENERATOR_ALGORITHM,
    SCHEMES,
    SYSTEM_SINGLE,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    CalibrationCoefficients,
    DoublePostureMeasurements,
    GaugeLocation,
    NoiseModel,
    ReducedMeasurements,
    Scheme,
    SinglePostureMeasurements,
    add_noise,
    coefficients,
    double_deviation_array,
    gauge_locations,
    leg_line_scaling,
    predict_double_posture,
    predict_single_posture,
    prediction_jacobian,
    reduce,
    reduced_deviation_array,
    single_deviation_array,
)
from .identification import (
    ESTIMATORS,
    CalibrationResult,
    Estimator,
    LinearSystem,
    ResidualReport,
    build_six_eq_system,
    build_system,
    build_twelve_eq_system,
    identify,
    least_squares_solve,
    nonlinear_identify,
    residual_report,
    solve_single_posture_closed_form,
)
from .accuracy import (
    MonteCarloReport,
    OffsetCovariance,
    monte_carlo,
    noise_covariance,
    offset_covariance,
    offset_covariance_six,
    offset_covariance_twelve,
)
from .fileio import (
    FIXTURE_NAMES,
    CalibrationReport,
    MeasurementFile,
    fixture_path,
    geometry_from_dict,
    geometry_to_dict,
    load_fixture,
    load_measurement_file,
    measurement_to_dict,
    parse_measurement,
    write_measurement_file,
)
