import json

import numpy as np
import pytest

from orthocal import Geometry

# Prototype leg-parallelism datasets, keyed by run, in the bundled-file
# column order (dx_y, dx_z, dy_x, dy_z, dz_x, dz_y), mm.
TABLE4 = {
    1: {"dx_y": 0.52, "dx_z": 1.58, "dy_x": 2.37, "dy_z": -0.25, "dz_x": -0.57, "dz_y": -0.04},
    2: {"dx_y": -0.43, "dx_z": -0.37, "dy_x": 0.42, "dy_z": -0.18, "dz_x": -1.14, "dz_y": -0.70},
    3: {"dx_y": -0.23, "dx_z": 0.27, "dy_x": 0.34, "dy_z": -0.10, "dz_x": -0.09, "dz_y": 0.11},
}

# Residual targets after applying the identified offsets (expected improvement), mm.
EXPECTED_IMPROVEMENT = {
    1: {"dx_y": -0.94, "dx_z": 0.63, "dy_x": 1.07, "dy_z": -0.84, "dz_x": -0.27, "dz_y": 0.35},
    2: {"dx_y": -0.28, "dx_z": 0.25, "dy_x": 0.21, "dy_z": -0.14, "dz_x": -0.13, "dz_y": 0.09},
    3: {"dx_y": -0.29, "dx_z": 0.23, "dy_x": 0.25, "dy_z": -0.17, "dz_x": -0.10, "dz_y": 0.08},
}

# Reference identified offsets (six-equation method), mm.
REFERENCE_OFFSETS = {
    1: (2.17, 1.69, -1.42),
    2: (-0.53, 0.59, -1.76),
    3: (0.07, 0.14, 0.00),
}


@pytest.fixture(scope="session")
def geom() -> Geometry:
    return Geometry.prototype()


def reduced_from_table(run: int):
    from orthocal import ReducedMeasurements

    return ReducedMeasurements(**TABLE4[run])


def constraint_residuals_oracle(p, rho_eff, L):
    """Independent check: substitute into the three sphere constraints."""
    p = np.asarray(p, dtype=float)
    rho_eff = np.asarray(rho_eff, dtype=float)
    psq = p * p
    total = psq.sum(axis=-1, keepdims=True)
    return (p - rho_eff) ** 2 + (total - psq) - L * L


# a valid measurement document and geometry file, each with one value that
# stands for a 5001-digit integer: past the 4300 digits that Python converts
# from a string by default
_LONG_INTEGER_DOCUMENTS = {
    "measurement": {"schema_version": 1, "units": "mm", "method": "double-reduced",
                    "values": {**TABLE4[1], "dx_y": "LONG"}},
    "geometry": {"L": "LONG", "rho_min": -100, "rho_max": 60},
}
UNPARSABLE_KINDS = ("deep-array", "long-integer", "not-utf8")


def unparsable_json(kind: str, role: str) -> bytes:
    """Bytes of a file of ``role`` (measurement or geometry) that
    ``json.loads`` cannot read, by ``kind`` (:data:`UNPARSABLE_KINDS`): an
    array nested past the stack, a valid document with a 5001-digit integer,
    or bytes that are not UTF-8."""
    if kind == "deep-array":
        return b"[" * 100_000 + b"]" * 100_000
    if kind == "long-integer":
        text = json.dumps(_LONG_INTEGER_DOCUMENTS[role])
        return text.replace('"LONG"', "1" + "0" * 5000).encode()
    assert kind == "not-utf8"
    return b"\xff{}"
