"""Measurement-file schema, calibration reports, and bundled datasets.

Measurement files are UTF-8 JSON with an explicit unit field and canonical
value keys; three datasets recorded on the 310.25 mm prototype ship with the
package and are addressable by fixture name.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from . import __version__
from ._record import Record
from .errors import InputError
from .geometry import Geometry, _is_real
from .measurement import SCHEMES, MeasurementSet, _lookup, scheme_of

__all__ = [
    "SCHEMA_VERSION",
    "MeasurementFile",
    "geometry_from_dict",
    "geometry_to_dict",
    "parse_measurement",
    "load_measurement_file",
    "measurement_to_dict",
    "write_measurement_file",
    "CalibrationReport",
    "FIXTURE_NAMES",
    "fixture_path",
    "load_fixture",
    "sha256_digest",
]

SCHEMA_VERSION = 1

FIXTURE_NAMES = ("experiment1", "experiment2", "experiment3")


def sha256_digest(data: bytes) -> str:
    # here, not at the top: only calibrate digests its input. The built-in
    # module spares hashlib's load of OpenSSL; Python 3.12 renamed it _sha2
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(data).hexdigest()


class MeasurementFile(Record):
    """Parsed content of a measurement file."""

    method: str
    values: dict
    geometry: Geometry | None = None
    comment: str | None = None
    simulation: dict | None = None

    def measurement(self) -> MeasurementSet:
        return _lookup(SCHEMES, self.method, "scheme").measurement(**self.values)


def _number(v) -> float:
    """``float(v)`` of a real number (:func:`geometry._is_real`): TypeError
    for anything else, such as a string, which float would parse, or a JSON
    boolean, which it reads as 0 or 1.  A JSON integer beyond the float range
    reads as the infinity of its sign, as a JSON number such as ``1e400``
    does."""
    if not _is_real(v):
        raise TypeError(f"{v!r} is not a number")
    try:
        return float(v)
    except OverflowError:  # float fails on a real number only by overflow
        return math.inf if v > 0 else -math.inf


def _finite(v) -> float:
    """:func:`_number`, but ValueError for NaN or infinity, which JSON lacks."""
    if not math.isfinite(x := _number(v)):
        raise ValueError(f"{x!r} is not finite")
    return x


def _check_keys(doc: dict, what: str, required, allowed) -> None:
    """InputError naming the ``required`` keys that the JSON object ``doc``
    lacks, else the keys it has beyond ``allowed``: the schema's keys bare,
    the document's quoted, so that no key of a document can split the
    message."""
    missing = sorted(set(required) - set(doc))
    if missing:
        raise InputError(f"missing {what} keys: {', '.join(missing)}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise InputError(f"unknown {what} keys: {', '.join(map(repr, unknown))}")


def geometry_from_dict(d: dict) -> Geometry:
    """Geometry from its serialized form; raises :class:`InputError` naming
    missing, unknown or invalid keys (``r`` and ``d`` fall back to prototype
    values)."""
    if not isinstance(d, dict):
        raise InputError(f"geometry must be a JSON object, got {type(d).__name__}")
    _check_keys(d, "geometry", Geometry._fields[:3], Geometry._fields)  # r and d have defaults
    values = {}
    for key, v in d.items():
        try:
            values[key] = _number(v)
        except TypeError as exc:
            raise InputError(f"invalid geometry override: {key}: {exc}") from None
    try:
        return Geometry(**values)
    except ValueError as exc:
        raise InputError(f"invalid geometry override: {exc}") from None


def geometry_to_dict(geom: Geometry) -> dict:
    return dict(zip(Geometry._fields, Geometry._values(geom)))


def parse_measurement(doc: dict) -> MeasurementFile:
    """Validate and parse a measurement document.

    Raises :class:`InputError` naming every offending key: wrong schema or
    units, unknown method, missing/unknown/non-finite values, a ``comment``
    that is not a string, a ``simulation`` that is not an object.  Raw
    replicate arrays under ``repetitions`` are averaged into the
    corresponding values.
    """
    if not isinstance(doc, dict):
        raise InputError("measurement file must contain a JSON object")
    if isinstance(doc.get("schema_version"), bool) or doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema_version {doc.get('schema_version')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    if doc.get("units") != "mm":
        raise InputError(f"units must be 'mm', got {doc.get('units')!r}")
    method = doc.get("method")
    if not isinstance(method, str) or method not in SCHEMES:
        raise InputError(f"unknown method {method!r}; expected one of {sorted(SCHEMES)}")
    required = SCHEMES[method].wire_keys
    values = doc.get("values") or {}
    reps = doc.get("repetitions") or {}
    for key, part in (("values", values), ("repetitions", reps)):
        if not isinstance(part, dict):
            raise InputError(f"{key} must be a JSON object, got {type(part).__name__}")
    values = dict(values)
    clash = sorted(set(reps) & set(values))
    if clash:
        raise InputError(f"keys given both as values and repetitions: {', '.join(map(repr, clash))}")
    for key, arr in reps.items():
        if not isinstance(arr, (list, tuple)) or not arr:
            raise InputError(f"repetitions entry {key!r} must be a non-empty array")
        try:
            numbers = [_number(v) for v in arr]
        except TypeError:
            raise InputError(f"repetitions entry {key!r} holds a non-number") from None
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean fails below
            values[key] = float(np.mean(numbers))
    _check_keys(values, "measurement", required, required)
    clean = {}
    for key in required:
        try:
            clean[key] = _finite(values[key])
        except TypeError:
            raise InputError(f"measurement value {key!r} is not a number") from None
        except ValueError:
            raise InputError(f"measurement value {key!r} is not finite") from None
    for key, kind, name in (("comment", str, "a string"), ("simulation", dict, "a JSON object")):
        if not isinstance(doc.get(key), (kind, type(None))):
            raise InputError(f"{key} must be {name}, got {type(doc[key]).__name__}")
    geometry = None if doc.get("geometry") is None else geometry_from_dict(doc["geometry"])
    return MeasurementFile(
        method=method,
        values=clean,
        geometry=geometry,
        comment=doc.get("comment"),
        simulation=doc.get("simulation"),
    )


def _read_json(path) -> tuple[object, bytes]:
    """The document of the UTF-8 JSON file ``path`` and the file's bytes;
    InputError naming the path if it cannot be read or parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(data.decode("utf-8")), data
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from None


def load_measurement_file(path) -> tuple[MeasurementFile, str]:
    """Read a measurement file; returns the parsed content and its digest."""
    doc, data = _read_json(path)
    return parse_measurement(doc), sha256_digest(data)


def measurement_to_dict(
    m: MeasurementSet,
    geometry: Geometry | None = None,
    comment: str | None = None,
    simulation: dict | None = None,
) -> dict:
    """Serializable document for a measurement set, keys in wire order."""
    scheme = scheme_of(m)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "units": "mm",
        "method": scheme.label,
        "values": {k: float(getattr(m, k)) for k in scheme.wire_keys},
    }
    if geometry is not None:
        doc["geometry"] = geometry_to_dict(geometry)
    if comment is not None:
        doc["comment"] = comment
    if simulation is not None:
        doc["simulation"] = simulation
    return doc


def write_measurement_file(path, doc: dict) -> None:
    """Write ``doc`` as JSON; ValueError, and no file, for a non-finite value."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


_REPORT_TYPES = {"str": str, "int": int, "bool": bool, "dict": dict}


def _report_value(name: str, kind: str, v):
    """Report value ``v`` of field ``name`` checked against its annotation
    ``kind``: a finite number, a dict of finite numbers, else the exact type."""
    try:
        if kind == "float":
            return _finite(v)
        if type(v) is not _REPORT_TYPES[kind]:  # exact: a bool is no int
            raise TypeError(f"{v!r} is not of type {kind}")
        return {k: _finite(x) for k, x in v.items()} if kind == "dict" else v
    except (TypeError, ValueError) as exc:
        raise InputError(f"report value {name!r} is invalid: {exc}") from None


class CalibrationReport(Record):
    """Serializable calibration outcome; round-trips through JSON exactly."""

    input_digest: str
    method: str
    offsets: dict
    residuals: dict
    residual_rms: float
    sigma_hat: float
    sigma_rho: float
    iterations: int
    converged: bool
    gradient_norm: float
    schema_version: int = SCHEMA_VERSION
    toolkit_version: str = __version__

    def to_dict(self) -> dict:
        """The fields in order, each dict value copied."""
        values = zip(self._fields, self._values(self))
        return {n: dict(v) if type(v) is dict else v for n, v in values}

    @classmethod
    def from_dict(cls, doc: dict) -> "CalibrationReport":
        if not isinstance(doc, dict):
            raise InputError("report must be a JSON object")
        version = doc.get("schema_version")
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise InputError(f"unsupported report schema_version {version!r}")
        _check_keys(doc, "report", cls._fields, cls._fields)
        kinds = cls.__annotations__
        return cls(**{n: _report_value(n, kinds[n], doc[n]) for n in cls._fields})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def fixture_path(name: str):
    """Filesystem path of a bundled dataset (``experiment1`` .. ``experiment3``)."""
    if name not in FIXTURE_NAMES:
        raise InputError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    return resources.files("orthocal").joinpath("data", f"{name}.json")


def load_fixture(name: str) -> tuple[MeasurementFile, str]:
    """Parsed bundled dataset and its digest."""
    data = fixture_path(name).read_bytes()
    return parse_measurement(json.loads(data.decode("utf-8"))), sha256_digest(data)
