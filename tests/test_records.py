"""The contract of the public record classes: construction, defaults,
validation, immutability, equality, repr, copying and pickling."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import orthocal
from orthocal import (
    ESTIMATORS,
    SCHEMES,
    Axis,
    CalibrationCoefficients,
    CalibrationReport,
    CalibrationResult,
    ConfigurationIndices,
    DoublePostureMeasurements,
    Estimator,
    GaugeLocation,
    Geometry,
    LinearSystem,
    MeasurementFile,
    MonteCarloReport,
    NoiseModel,
    OffsetCovariance,
    Posture,
    PostureAngles,
    PostureKind,
    QuadraticRoots,
    ReducedMeasurements,
    ResidualReport,
    Scheme,
    SensitivityRow,
    SinglePostureMeasurements,
)

from conftest import TABLE4

_SINGLE = SCHEMES["single-posture"]
_POS = np.array([155.125, 0.0, 0.0])

# (class, field names in order, one positional construction, a construction
# with other values); the value records compare and hash by their fields
VALUE = [
    (Geometry, "L rho_min rho_max r d", (310.25, -100.0, 60.0, 31.0, 80.0),
     (300.0, -100.0, 60.0, 31.0, 80.0)),
    (ConfigurationIndices, "s_x s_y s_z", (1, 1, 1), (1, -1, 1)),
    (Posture, "kind axis", (PostureKind.ISOTROPIC, None),
     (PostureKind.MAX_DISPLACEMENT, Axis.X)),
    (PostureAngles, "alpha s_alpha c_alpha t_alpha", (0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.5)),
    (QuadraticRoots, "A B C t_plus t_minus discriminant", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
     (1.0, 2.0, 3.0, 4.0, 5.0, 7.0)),
    (SensitivityRow, "posture leg plane at_max at_min", ("isotropic", Axis.X, "XY", 0.1, 0.1),
     ("isotropic", Axis.Y, "XY", 0.1, 0.1)),
    (SinglePostureMeasurements, "dz_x0 dz_y0 dz_x_plus dz_x_minus dz_y_plus dz_y_minus",
     (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), (0.1, 0.2, 0.3, 0.4, 0.5, 0.7)),
    (DoublePostureMeasurements,
     "dx_y_plus dy_x_plus dx_y_minus dy_x_minus dy_z_plus dz_y_plus dy_z_minus dz_y_minus "
     "dx_z_plus dz_x_plus dx_z_minus dz_x_minus",
     tuple(0.1 * k for k in range(12)), tuple(0.1 * k for k in range(1, 13))),
    (ReducedMeasurements, "dx_y dy_x dy_z dz_y dx_z dz_x",
     (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), (0.6, 0.5, 0.4, 0.3, 0.2, 0.1)),
    (CalibrationCoefficients, "a1 a2 b1 c1 b2 c2 b c",
     (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0)),
    (GaugeLocation, "leg position", (Axis.X, _POS), (Axis.Y, _POS)),
    (NoiseModel, "sigma seed", (0.01, 3), (0.01, 4)),
    (MeasurementFile, "method values geometry comment simulation",
     ("double-reduced", {"dx_y": 0.1}, None, None, None),
     ("double-reduced", {"dx_y": 0.2}, None, None, None)),
]

# the records that compare and hash by identity
IDENTITY = [
    (Scheme, "label measurement wire_keys predict design sample_noise noise_covariance",
     (_SINGLE.label, _SINGLE.measurement, _SINGLE.wire_keys, _SINGLE.predict, _SINGLE.design,
      _SINGLE.sample_noise, _SINGLE.noise_covariance)),
    (LinearSystem, "design_matrix label", (np.eye(3), "double-reduced")),
    (CalibrationResult,
     "offsets residuals residual_rms sigma_hat method iterations converged gradient_norm",
     (np.zeros(3), np.zeros(6), 0.1, 0.2, "six", 0, True, 0.0)),
    (Estimator, "scheme gain nonlinear cli", ("single-posture", np.transpose, False, "x")),
    (ResidualReport, "residuals rms sigma_hat", (np.ones(6), 1.0, 1.2)),
    (OffsetCovariance, "V sigma_rho method", (np.eye(3), 1.0, "six")),
    (MonteCarloReport,
     "runs replications method sigma seed true_offsets per_axis_mean per_axis_std "
     "pooled_std std_of_std failed_runs",
     (10, 1, "six", 0.01, 0, np.zeros(3), np.zeros(3), np.ones(3), 0.02, None, 0)),
]

REPORT = (
    CalibrationReport,
    "input_digest method offsets residuals residual_rms sigma_hat sigma_rho iterations "
    "converged gradient_norm schema_version toolkit_version",
    ("abc", "linear6", {"d_rho_x": 0.0}, {"dx_y": 0.0}, 0.1, 0.2, 0.3, 0, True, 0.0, 1,
     orthocal.__version__),
)

RECORDS = [entry[:3] for entry in VALUE] + IDENTITY + [REPORT]
VALUE_CLASSES = {entry[0] for entry in VALUE}

DEFAULTS = {
    Geometry: {"r": 31.0, "d": 80.0},
    ConfigurationIndices: {"s_x": 1, "s_y": 1, "s_z": 1},
    Posture: {"axis": None},
    MeasurementFile: {"geometry": None, "comment": None, "simulation": None},
    LinearSystem: {},  # no defaults: the design and the label are required
    CalibrationReport: {"schema_version": 1, "toolkit_version": orthocal.__version__},
}


def _ids(table):
    return [entry[0].__name__ for entry in table]


def _same_fields(a, b, names):
    assert type(a) is type(b)
    for name in names.split():
        np.testing.assert_equal(getattr(a, name), getattr(b, name))


def test_the_table_covers_every_record():
    assert len(VALUE) == 13 and len(IDENTITY) == 7 and len(RECORDS) == 21
    assert all(getattr(orthocal, cls.__name__) is cls for cls, _, _ in RECORDS)


@pytest.mark.parametrize("cls, names, args", RECORDS, ids=_ids(RECORDS))
def test_positional_and_keyword_construction(cls, names, args):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names.split(), args)))
    for name, value in zip(names.split(), args):
        np.testing.assert_equal(getattr(by_position, name), value)
    _same_fields(by_position, by_keyword, names)
    with pytest.raises(TypeError):
        cls(*args, None)


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=[c.__name__ for c in DEFAULTS])
def test_defaults(cls):
    names, args = next((n, a) for c, n, a in RECORDS if c is cls)
    required = {n: a for n, a in zip(names.split(), args) if n not in DEFAULTS[cls]}
    obj = cls(**required)
    for name, value in DEFAULTS[cls].items():
        assert getattr(obj, name) == value
    if required:  # a required field left out
        with pytest.raises(TypeError):
            cls(**dict(list(required.items())[1:]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Geometry(L=-1, rho_min=-100.0, rho_max=60.0),
        lambda: Geometry(310.25, 10.0, 60.0),
        lambda: Geometry(310.25, -400.0, 60.0),
        lambda: Geometry(1.000001e6, -100.0, 60.0),
        lambda: Geometry(310.25, -100.0, 60.0, r=float("nan")),
        lambda: Geometry(310.25, -100.0, 60.0, d=float("inf")),
        lambda: Geometry(310.25, -100.0, 60.0, r=-5.0),
        lambda: Geometry(310.25, -100.0, 60.0, d=-1e-9),
        lambda: Posture(PostureKind.ISOTROPIC, Axis.X),
        lambda: Posture(PostureKind.MAX_DISPLACEMENT),
        lambda: ConfigurationIndices(2),
        lambda: NoiseModel(-1.0, 0),
        lambda: NoiseModel(float("nan"), 0),
    ],
    ids=[
        "geometry-L", "geometry-limits", "geometry-limit-beyond-L", "geometry-L-beyond-bound",
        "geometry-r-nan", "geometry-d-inf", "geometry-r-negative", "geometry-d-negative",
        "posture-isotropic-axis",
        "posture-max-no-axis", "configuration-index", "noise-sigma", "noise-sigma-nan",
    ],
)
def test_post_init_rejects_bad_input(make):
    with pytest.raises(ValueError):
        make()


def test_post_init_normalizes():
    loc = GaugeLocation(Axis.X, [1, 2, 3])
    assert loc.position.dtype == float
    np.testing.assert_array_equal(loc.position, [1.0, 2.0, 3.0])
    cov = np.eye(6)
    Scheme(*[cov if n == "noise_covariance" else a
             for n, a in zip(IDENTITY[0][1].split(), IDENTITY[0][2])])
    assert not cov.flags.writeable


@pytest.mark.parametrize("cls, names, args", RECORDS, ids=_ids(RECORDS))
def test_frozen(cls, names, args):
    obj = cls(*args)
    first = names.split()[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, first, args[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1
    np.testing.assert_equal(getattr(obj, first), args[0])


@pytest.mark.parametrize("cls, names, args, other", VALUE, ids=_ids(VALUE))
def test_value_records_compare_by_value(cls, names, args, other):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != cls(*other)
    assert a != args and a != object()
    if any(isinstance(value, dict) for value in args):  # unhashable, as the field is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_gauge_location_compares_positions_by_value():
    position = _POS.copy()
    a = GaugeLocation(Axis.X, position)
    b = GaugeLocation(Axis.X, _POS.copy())
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != GaugeLocation(Axis.X, _POS + 1.0)
    assert a != GaugeLocation(Axis.X, _POS[:2])
    # the position is a read-only copy: the caller's array can change
    position[0] = 1.0
    assert a == b and a.position[0] == _POS[0]
    assert not a.position.flags.writeable
    # equal values hash alike, signed zeros too
    zero, negative = (GaugeLocation(Axis.Y, [z, 1.0, 0.0]) for z in (0.0, -0.0))
    assert zero == negative and hash(zero) == hash(negative)


def test_value_equality_needs_the_same_class():
    values = TABLE4[1].values()
    assert ReducedMeasurements(*values) != SinglePostureMeasurements(*values)


@pytest.mark.parametrize("cls, names, args", IDENTITY, ids=_ids(IDENTITY))
def test_identity_records_compare_by_identity(cls, names, args):
    a, b = cls(*args), cls(*args)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


def test_repr_unchanged():
    assert repr(Geometry.prototype()) == (
        "Geometry(L=310.25, rho_min=-100.0, rho_max=60.0, r=31.0, d=80.0)"
    )
    assert repr(ReducedMeasurements(**TABLE4[1])) == (
        "ReducedMeasurements(dx_y=0.52, dy_x=2.37, dy_z=-0.25, dz_y=-0.04, dx_z=1.58, dz_x=-0.57)"
    )
    assert repr(Posture.max(Axis.Y)) == (
        "Posture(kind=<PostureKind.MAX_DISPLACEMENT: 'max'>, axis=<Axis.Y: 1>)"
    )


ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)


@pytest.mark.parametrize("cls, names, args", RECORDS, ids=_ids(RECORDS))
@ROUND_TRIPS
def test_copy_and_pickle(cls, names, args, round_trip):
    obj = cls(*args)
    back = round_trip(obj)
    _same_fields(obj, back, names)
    if cls in VALUE_CLASSES:
        assert back == obj
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(back, names.split()[0], args[0])


def _same_entry(a, b):
    """``b`` has the fields of the table entry ``a``: the same callables and
    types, equal arrays, and a scheme with the same fields."""
    assert type(a) is type(b)
    for name in type(a)._fields:
        value, back = getattr(a, name), getattr(b, name)
        if isinstance(value, Scheme):
            _same_entry(value, back)
        else:
            np.testing.assert_equal(back, value)  # a function equals only itself


TABLE_ENTRIES = {
    **{f"scheme-{label}": entry for label, entry in SCHEMES.items()},
    **{f"estimator-{name}": entry for name, entry in ESTIMATORS.items()},
}


@pytest.mark.parametrize("entry", TABLE_ENTRIES.values(), ids=TABLE_ENTRIES.keys())
@ROUND_TRIPS
def test_table_entries_copy_and_pickle(entry, round_trip):
    # every callable of the two tables is a module-level function, which a
    # copy keeps and a pickle restores by name
    _same_entry(entry, round_trip(entry))


@ROUND_TRIPS
def test_gauge_location_round_trip_stays_read_only(round_trip):
    # a restored location is rebuilt as a new one is: its position stays a
    # read-only copy, so its hash cannot change while it sits in a set
    loc = GaugeLocation(Axis.X, _POS)
    back = round_trip(loc)
    try:
        back.position[0] += 1.0
    except ValueError:  # the write a read-only position refuses
        pass
    assert hash(back) == hash(loc)
    assert not back.position.flags.writeable


@pytest.mark.parametrize("cls, names, args", RECORDS, ids=_ids(RECORDS))
def test_no_record_is_a_dataclass(cls, names, args):
    assert not dataclasses.is_dataclass(cls)
