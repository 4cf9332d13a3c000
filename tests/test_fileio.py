import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocal import (
    SCHEMES,
    CalibrationReport,
    Geometry,
    InputError,
    ReducedMeasurements,
    fixture_path,
    geometry_from_dict,
    load_fixture,
    load_measurement_file,
    measurement_to_dict,
    parse_measurement,
    predict_double_posture,
    predict_single_posture,
    reduce,
    write_measurement_file,
)
import orthocal.fileio as fileio
from orthocal.fileio import FIXTURE_NAMES, sha256_digest

from conftest import TABLE4, UNPARSABLE_KINDS, unparsable_json


def _reduced_doc(values=None, **overrides):
    doc = {
        "schema_version": 1,
        "units": "mm",
        "method": "double-reduced",
        "values": dict(values or TABLE4[2]),
    }
    doc.update(overrides)
    return doc


class TestFixtures:
    def test_all_fixtures_load(self):
        assert FIXTURE_NAMES == ("experiment1", "experiment2", "experiment3")
        for idx, name in enumerate(FIXTURE_NAMES, start=1):
            mf, digest = load_fixture(name)
            assert mf.method == "double-reduced"
            assert mf.values == TABLE4[idx]
            assert len(digest) == 64
            assert mf.comment

    def test_fixture_measurement_type(self):
        mf, _ = load_fixture("experiment2")
        m = mf.measurement()
        assert isinstance(m, ReducedMeasurements)
        assert m.dz_x == pytest.approx(-1.14)

    def test_unknown_fixture(self):
        for read in (fixture_path, load_fixture):
            with pytest.raises(InputError, match="^unknown fixture 'experiment9'"):
                read("experiment9")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_read_as_its_file(self, monkeypatch, name):
        # a fixture is the file next to the module, read by the one reader:
        # the same record and the same digest as the file read by path
        read_json, paths = fileio._read_json, []

        def counted(path, parse):
            paths.append(str(path))
            return read_json(path, parse)

        monkeypatch.setattr(fileio, "_read_json", counted)
        assert load_fixture(name) == load_measurement_file(fixture_path(name))
        assert paths == [str(fixture_path(name))] * 2


class TestParsing:
    def test_valid_document(self):
        mf = parse_measurement(_reduced_doc())
        assert mf.method == "double-reduced"
        assert mf.geometry is None

    def test_missing_keys_named(self):
        doc = _reduced_doc()
        del doc["values"]["dz_x"]
        del doc["values"]["dx_y"]
        with pytest.raises(InputError, match="dx_y, dz_x"):
            parse_measurement(doc)

    def test_unknown_keys_named(self):
        doc = _reduced_doc()
        doc["values"]["dq_w"] = 1.0
        with pytest.raises(InputError, match="dq_w"):
            parse_measurement(doc)

    def test_unknown_key_named_on_one_line(self):
        # a key from the document is quoted: its newline cannot split the message
        doc = _reduced_doc()
        doc["values"]["dq\nw"] = 1.0
        with pytest.raises(InputError, match=r"^unknown measurement keys: 'dq\\nw'$"):
            parse_measurement(doc)

    def test_wrong_units(self):
        with pytest.raises(InputError, match="units"):
            parse_measurement(_reduced_doc(units="inch"))

    def test_wrong_schema(self):
        with pytest.raises(InputError, match="schema_version"):
            parse_measurement(_reduced_doc(schema_version=2))

    def test_misspelt_top_level_key_named(self):
        # an optional key under another name is not ignored
        doc = _reduced_doc(geomtery={"L": 300.0, "rho_min": -100, "rho_max": 60})
        with pytest.raises(InputError, match="^unknown top-level keys: 'geomtery'$"):
            parse_measurement(doc)

    def test_unknown_method(self):
        with pytest.raises(InputError, match="method"):
            parse_measurement(_reduced_doc(method="triple"))

    def test_non_finite_value(self):
        doc = _reduced_doc()
        doc["values"]["dx_y"] = float("inf")
        with pytest.raises(InputError, match="dx_y"):
            parse_measurement(doc)

    def test_non_numeric_value(self):
        doc = _reduced_doc()
        doc["values"]["dx_y"] = "big"
        with pytest.raises(InputError, match="dx_y"):
            parse_measurement(doc)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"values": [1, 2]},
            {"repetitions": [1]},
            {"repetitions": {"dq_w": [[1]]}},
            {"geometry": 5},
            {"method": ["x"]},
            # JSON booleans are not numbers, although float() reads them as 0 or 1
            {"values": {**TABLE4[2], "dx_y": True}},
            {"values": {k: v for k, v in TABLE4[2].items() if k != "dx_y"},
             "repetitions": {"dx_y": [-0.43, True]}},
            {"schema_version": True},
            # a geometry that is present must be one
            {"geometry": {}},
            {"geometry": []},
            {"geometry": {"L": True, "rho_min": -0.5, "rho_max": 0.5}},
            # a number is an int or a float, as JSON gives them, or a numpy scalar
            {"values": {**TABLE4[2], "dx_y": Fraction(1, 2)}},
        ],
        ids=["values-list", "repetitions-list", "repetition-not-number", "geometry-number",
             "method-list", "values-bool", "repetition-bool", "schema-bool",
             "geometry-empty-object", "geometry-empty-list", "geometry-L-bool",
             "values-fraction"],
    )
    def test_malformed_types_rejected(self, overrides):
        doc = _reduced_doc()
        doc.update(overrides)
        with pytest.raises(InputError):
            parse_measurement(doc)

    def test_repetitions_are_averaged(self):
        doc = _reduced_doc()
        del doc["values"]["dx_y"]
        doc["repetitions"] = {"dx_y": [-0.40, -0.43, -0.46]}
        mf = parse_measurement(doc)
        assert mf.values["dx_y"] == pytest.approx(-0.43)

    def test_repetition_value_clash(self):
        doc = _reduced_doc()
        doc["repetitions"] = {"dx_y": [-0.43]}
        with pytest.raises(InputError, match="dx_y"):
            parse_measurement(doc)

    def test_empty_repetition_array(self):
        doc = _reduced_doc()
        del doc["values"]["dx_y"]
        doc["repetitions"] = {"dx_y": []}
        with pytest.raises(InputError, match="dx_y"):
            parse_measurement(doc)

    def test_geometry_override(self):
        doc = _reduced_doc(geometry={"L": 300.0, "rho_min": -90.0, "rho_max": 50.0})
        mf = parse_measurement(doc)
        assert mf.geometry == Geometry(L=300.0, rho_min=-90.0, rho_max=50.0)

    def test_geometry_missing_field(self):
        with pytest.raises(InputError, match="rho_max"):
            parse_measurement(_reduced_doc(geometry={"L": 300.0, "rho_min": -90.0}))

    def test_single_posture_keys(self, geom):
        m = predict_single_posture([0.1, 0.2, -0.1], geom)
        doc = measurement_to_dict(m)
        assert doc["method"] == "single-posture"
        assert tuple(doc["values"]) == SCHEMES["single-posture"].wire_keys
        parsed = parse_measurement(doc)
        assert parsed.measurement() == m


class TestSerialization:
    @pytest.mark.parametrize("shape", ["single", "double", "reduced"])
    def test_round_trip(self, geom, shape, tmp_path):
        dr = [0.3, -0.2, 0.5]
        if shape == "single":
            m = predict_single_posture(dr, geom)
        elif shape == "double":
            m = predict_double_posture(dr, geom)
        else:
            m = reduce(predict_double_posture(dr, geom))
        doc = measurement_to_dict(m, geometry=geom, comment="round trip")
        path = tmp_path / "m.json"
        write_measurement_file(path, doc)
        mf, digest = load_measurement_file(path)
        assert mf.measurement() == m
        assert mf.geometry == geom
        assert mf.comment == "round trip"
        assert len(digest) == 64

    def test_write_is_deterministic(self, geom, tmp_path):
        m = reduce(predict_double_posture([1, 1, 1], geom))
        doc = measurement_to_dict(m, simulation={"seed": 3})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_measurement_file(a, doc)
        write_measurement_file(b, doc)
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_not_written(self, tmp_path):
        # JSON has no NaN, and parse_measurement rejects one: no file is left
        path = tmp_path / "nan.json"
        doc = measurement_to_dict(ReducedMeasurements(float("nan"), 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="JSON compliant"):
            write_measurement_file(path, doc)
        assert not path.exists()

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputError):
            load_measurement_file(path)

    @pytest.mark.parametrize("kind", UNPARSABLE_KINDS)
    def test_unparsable_file_named(self, tmp_path, kind):
        # every way json.loads can fail is one InputError naming the file
        path = tmp_path / "bad.json"
        path.write_bytes(unparsable_json(kind, "measurement"))
        with pytest.raises(InputError, match=f"^cannot parse {re.escape(str(path))}: "):
            load_measurement_file(path)

    def test_rejected_document_named(self, tmp_path):
        # a document that parses but is no measurement: the file, then the key
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(_reduced_doc(comemnt="x")), encoding="utf-8")
        message = f"^{re.escape(str(path))}: unknown top-level keys: 'comemnt'$"
        with pytest.raises(InputError, match=message):
            load_measurement_file(path)


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=300))
def test_sha256_digest_is_hashlibs(data):
    # the built-in module, where there is one, digests as hashlib does
    assert sha256_digest(data) == hashlib.sha256(data).hexdigest()


def _report() -> CalibrationReport:
    return CalibrationReport(
        input_digest="ab" * 32,
        method="linear6",
        offsets={"d_rho_x": -0.52, "d_rho_y": 0.6, "d_rho_z": -1.76},
        residuals={"dx_y": -0.28, "dx_z": 0.25, "dy_x": 0.21,
                   "dy_z": -0.14, "dz_x": -0.13, "dz_y": 0.09},
        residual_rms=0.195,
        sigma_hat=0.276,
        sigma_rho=0.548,
        iterations=0,
        converged=True,
        gradient_norm=1e-16,
    )


class TestCalibrationReport:
    def test_json_round_trip_identical(self):
        rep = _report()
        back = CalibrationReport.from_dict(json.loads(rep.to_json()))
        assert back == rep

    def test_exact_float_round_trip(self):
        rep = _report()
        doc = json.loads(rep.to_json())
        assert doc["sigma_hat"] == rep.sigma_hat
        assert doc["offsets"]["d_rho_x"] == rep.offsets["d_rho_x"]

    def test_schema_stability(self):
        doc = _report().to_dict()
        assert doc["schema_version"] == 1
        doc["surprise"] = 1
        with pytest.raises(InputError, match="surprise"):
            CalibrationReport.from_dict(doc)
        del doc["surprise"]
        del doc["sigma_rho"]
        with pytest.raises(InputError, match="sigma_rho"):
            CalibrationReport.from_dict(doc)
        with pytest.raises(InputError, match="JSON object"):
            CalibrationReport.from_dict([doc])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("schema_version", 99),
            ("schema_version", True),
            ("sigma_rho", True),
            ("converged", "yes"),
            ("iterations", 2.5),
            ("offsets", [-0.52, 0.6, -1.76]),
            ("residuals", {"a": "x"}),
            ("sigma_hat", "nan"),
            ("sigma_hat", "inf"),
            ("residual_rms", float("nan")),
            ("offsets", {"d_rho_x": "-inf", "d_rho_y": 0.6, "d_rho_z": -1.76}),
        ],
        ids=["future-schema", "bool-schema", "bool-number", "str-bool", "float-int",
             "list-dict", "str-in-dict", "str-nan", "str-inf", "nan", "inf-in-dict"],
    )
    def test_bad_value_rejected(self, key, value):
        doc = _report().to_dict()
        doc[key] = value
        with pytest.raises(InputError, match=key):
            CalibrationReport.from_dict(doc)

    @pytest.mark.parametrize("key", ["residual_rms", "gradient_norm", "offsets"])
    def test_string_float_rejected(self, key):
        # a string that float() parses is no JSON number
        doc = _report().to_dict()
        doc[key] = {**doc[key], "d_rho_y": "0.6"} if key == "offsets" else str(doc[key])
        with pytest.raises(InputError, match=f"report value '{key}' is invalid: .* is not a number"):
            CalibrationReport.from_dict(doc)

    def test_non_finite_not_written(self):
        # JSON has no NaN: a report built in code with one cannot be written
        rep = CalibrationReport(**{**_report().to_dict(), "sigma_hat": float("nan")})
        with pytest.raises(ValueError, match="JSON compliant"):
            rep.to_json()


# the reader of each kind of JSON object, a valid object of the kind and one
# of its required keys
OBJECTS = {
    "measurement": (lambda d: parse_measurement(_reduced_doc(d)), TABLE4[2], "dx_y"),
    "geometry": (geometry_from_dict, {"L": 310.25, "rho_min": -100, "rho_max": 60}, "rho_max"),
    "report": (CalibrationReport.from_dict, _report().to_dict(), "sigma_rho"),
}


class TestObjectKeys:
    @pytest.mark.parametrize("kind", list(OBJECTS))
    def test_missing_then_unknown_named(self, kind):
        # one rule for every object: missing keys first, bare, then unknown
        # keys, quoted so that a key's newline cannot split the message
        read, valid, key = OBJECTS[kind]
        doc = {k: v for k, v in valid.items() if k != key}
        doc["z\nz"] = 1.0
        with pytest.raises(InputError, match=f"^missing {kind} keys: {key}$"):
            read(doc)
        doc[key] = valid[key]
        with pytest.raises(InputError, match=rf"^unknown {kind} keys: 'z\\nz'$"):
            read(doc)


class TestJsonNumbers:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "kind, key",
        [("measurement", "dx_y"), ("report", "sigma_hat")]
        + [("geometry", k) for k in ("L", "rho_min", "rho_max", "r", "d")],
    )
    def test_integer_beyond_the_float_range_reads_as_infinity(self, kind, key, sign):
        # as a JSON number such as 1e400 does: the same error
        read, doc, _ = OBJECTS[kind]
        errors = []
        for big in (sign * 10**400, sign * math.inf):
            with pytest.raises(InputError) as exc:
                read({**doc, key: big})
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


class TestMeasurementDictLayout:
    def test_wire_key_order(self, geom):
        m = reduce(predict_double_posture([0.5, 0.5, 0.5], geom))
        doc = measurement_to_dict(m)
        assert tuple(doc["values"].keys()) == ("dx_y", "dx_z", "dy_x", "dy_z", "dz_x", "dz_y")

    def test_values_match_fields(self, geom):
        m = reduce(predict_double_posture([0.5, -0.5, 0.25], geom))
        doc = measurement_to_dict(m)
        assert doc["values"]["dz_x"] == m.dz_x
        assert doc["values"]["dx_y"] == m.dx_y
        assert doc["units"] == "mm"
        arr = np.array([doc["values"][k] for k in ("dx_y", "dy_x", "dy_z", "dz_y", "dx_z", "dz_x")])
        np.testing.assert_allclose(arr, m.as_array(), atol=0)
