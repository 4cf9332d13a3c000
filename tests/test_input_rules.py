"""The input rules at every entry that takes them.

A count is an integer, not a bool, of at least 0 (seeds, ``max_iter``) or 1
(runs, replications, repetitions), and a repetitions count with noise has a
square root within the float range.  A noise level (and the inert lengths
``r`` and ``d`` of a Geometry) is a real number, not a bool, finite and
non-negative.  The lengths ``L``, ``rho_min`` and ``rho_max`` of a Geometry
are real numbers before their ranges are checked.  A point, joint or offset
argument has 3 finite components, and a single offset triple has shape ``(3,)``.
Noise whose readings overflow the float range is rejected.  A
``--quantize`` quantum is finite, positive and large enough that every reading
over it is a float.  A bad value raises one ValueError that names the
argument, or the option on the command line; a good one, numpy scalars among
them, passes.
"""

import json
import re
import warnings

import numpy as np
import pytest

import orthocal as oc
from orthocal.cli import main

GEOM = oc.Geometry.prototype()
FULL = oc.predict_double_posture([0.1, -0.2, 0.3], GEOM)


def _mc(offsets=(0.1, 0.1, 0.1), sigma=0.01, runs=10, replications=1, seed=0):
    return oc.monte_carlo(list(offsets), sigma, runs, replications, "six", seed, GEOM)


# (argument, floor, call of the argument's value)
COUNTS = {
    "NoiseModel-seed": ("seed", 0, lambda v: oc.NoiseModel(0.01, v)),
    "monte_carlo-seed": ("seed", 0, lambda v: _mc(seed=v)),
    "monte_carlo-runs": ("runs", 1, lambda v: _mc(runs=v)),
    "monte_carlo-replications": ("replications", 1, lambda v: _mc(replications=v)),
    "nonlinear_identify-max_iter": (
        "max_iter", 0, lambda v: oc.nonlinear_identify(oc.reduce(FULL), GEOM, max_iter=v)
    ),
    "add_noise-repetitions": (
        "repetitions", 1, lambda v: oc.add_noise(FULL, oc.NoiseModel(0.01, 0), v)
    ),
}

# (argument, call of the argument's value)
LEVELS = {
    "NoiseModel-sigma": ("sigma", lambda v: oc.NoiseModel(v, 0)),
    "noise_covariance-sigma": ("sigma", lambda v: oc.noise_covariance(oc.SYSTEM_SIX, v)),
    "offset_covariance-sigma": ("sigma", lambda v: oc.offset_covariance("six", GEOM, v)),
    "monte_carlo-sigma": ("sigma", lambda v: _mc(sigma=v)),
    "Geometry-r": ("r", lambda v: oc.Geometry(310.25, -100.0, 60.0, r=v)),
    "Geometry-d": ("d", lambda v: oc.Geometry(310.25, -100.0, 60.0, d=v)),
}

# (a valid value, call of the field's value)
LENGTHS = {
    "L": (310.25, lambda v: oc.Geometry(v, -100.0, 60.0)),
    "rho_min": (-100.0, lambda v: oc.Geometry(310.25, v, 60.0)),
    "rho_max": (60.0, lambda v: oc.Geometry(310.25, -100.0, v)),
}
# Geometry field values that are rejected, with the start of the message each raises
GEOMETRY_REJECTED = {
    **{
        f"{name}-{bad!r}": (name, bad, f"{name} must be a real number, got {name}={bad!r}")
        for name in LENGTHS
        for bad in ("310", True, None)
    },
    # zero is no limit: the limits straddle it
    "rho_min-0": ("rho_min", 0, "joint limits must straddle zero"),
    "rho_max-0": ("rho_max", 0, "joint limits must straddle zero"),
}

P0, RHO0, OFF0 = [0.0, 0.0, 0.0], [310.25] * 3, [0.0, 0.0, 0.0]
# (argument, call of the argument's value), by entry and argument
VECTORS = {
    "constraint_residuals-p": ("p", lambda v: oc.constraint_residuals(v, RHO0, OFF0, GEOM)),
    "constraint_residuals-rho": ("rho", lambda v: oc.constraint_residuals(P0, v, OFF0, GEOM)),
    "constraint_residuals-offsets": (
        "offsets", lambda v: oc.constraint_residuals(P0, RHO0, v, GEOM)
    ),
    "inverse_kinematics-p": ("p", lambda v: oc.inverse_kinematics(v, OFF0, GEOM)),
    "inverse_kinematics-offsets": ("offsets", lambda v: oc.inverse_kinematics(P0, v, GEOM)),
    "direct_kinematics-rho": ("rho", lambda v: oc.direct_kinematics(v, OFF0, GEOM)),
    "direct_kinematics-offsets": ("offsets", lambda v: oc.direct_kinematics(RHO0, v, GEOM)),
    "inverse_jacobian-p": ("p", lambda v: oc.inverse_jacobian(v, RHO0)),
    "inverse_jacobian-rho": ("rho", lambda v: oc.inverse_jacobian(P0, v)),
    "check_offsets-offsets": ("offsets", lambda v: oc.check_offsets(v, GEOM)),
}

# call of an offsets argument, by the name its error gives
TRIPLES = {
    "gauge_locations": lambda x: oc.gauge_locations(x, GEOM),
    "leg_line_scaling": lambda x: oc.leg_line_scaling(oc.Posture.isotropic(), oc.Axis.X, x, GEOM),
    "sensitivity_table": lambda x: oc.sensitivity_table(GEOM, x),
    "residual_report": lambda x: oc.residual_report(x, FULL, GEOM),
    "monte_carlo": lambda x: _mc(offsets=x),
}


class TestCount:
    @pytest.mark.parametrize("bad", ["below", True, 2.5, "3", None])
    @pytest.mark.parametrize("entry", list(COUNTS))
    def test_rejected(self, entry, bad):
        name, floor, call = COUNTS[entry]
        value = floor - 1 if bad == "below" else bad
        kind = "positive" if floor else "non-negative"
        message = re.escape(f"{name} must be a {kind} integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(value)

    @pytest.mark.parametrize("entry", list(COUNTS))
    def test_numpy_integer_accepted(self, entry):
        COUNTS[entry][2](np.int64(20))

    @pytest.mark.parametrize("seed", [np.int64(2**63 - 1), np.uint64(2**64 - 1)])
    def test_numpy_seed_at_its_type_limit(self, seed):
        # replication k draws from seed + k, which must not wrap in the seed's type
        with np.errstate(over="raise"):
            report = _mc(replications=2, seed=seed)
        assert report.seed == int(seed)
        expected = _mc(replications=2, seed=int(seed))
        assert report.per_axis_mean.tolist() == expected.per_axis_mean.tolist()

    def test_numpy_repetitions_keep_the_noise(self):
        noise = oc.NoiseModel(0.01, 7)
        expected = FULL.as_array() + oc.SCHEMES[oc.SYSTEM_TWELVE].sample_noise(
            noise.make_rng(), 0.01 / 2.0
        )
        for repetitions in (4, np.int64(4)):
            assert np.array_equal(oc.add_noise(FULL, noise, repetitions).as_array(), expected)

    def test_repetitions_beyond_the_float_range(self):
        # the square root of the count would overflow a float
        with pytest.raises(ValueError, match="^repetitions is too large"):
            oc.add_noise(FULL, oc.NoiseModel(0.01, 0), 10**400)
        # no noise is drawn at sigma 0, so no square root is taken
        assert oc.add_noise(FULL, oc.NoiseModel(0.0, 0), 10**400) is FULL


class TestLevel:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1, True, "0.1"], ids=repr)
    @pytest.mark.parametrize("entry", list(LEVELS))
    def test_rejected(self, entry, bad):
        name, call = LEVELS[entry]
        message = f"^{name} must be finite and non-negative, got {name}="
        with pytest.raises(ValueError, match=message):
            call(bad)

    @pytest.mark.parametrize("entry", list(LEVELS))
    def test_numpy_float_accepted(self, entry):
        LEVELS[entry][1](np.float32(0.01))

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="^sigma must be finite and non-negative"):
            oc.NoiseModel(10**400, 0)

    @pytest.mark.parametrize("m", [FULL, oc.reduce(FULL)], ids=["full", "reduced"])
    def test_noise_beyond_the_float_range(self, m):
        # readings that overflow are one ValueError naming sigma, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^sigma 1e\+308 overflows the readings$"):
                oc.add_noise(m, oc.NoiseModel(1e308, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=repr)
    def test_noise_on_readings_not_finite(self, bad):
        # the readings are to blame, not sigma
        m = oc.ReducedMeasurements(bad, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="^m must be finite$"):
            oc.add_noise(m, oc.NoiseModel(0.01, 0))


class TestGeometryLength:
    @pytest.mark.parametrize("entry", list(GEOMETRY_REJECTED))
    def test_rejected(self, entry):
        name, bad, message = GEOMETRY_REJECTED[entry]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            LENGTHS[name][1](bad)

    @pytest.mark.parametrize("kind", [np.float64, np.int64])
    @pytest.mark.parametrize("name", list(LENGTHS))
    def test_numpy_scalar_accepted(self, name, kind):
        valid, call = LENGTHS[name]
        assert getattr(call(kind(valid)), name) == kind(valid)


class TestVector:
    @pytest.mark.parametrize("entry", list(VECTORS))
    def test_two_components_rejected(self, entry):
        name, call = VECTORS[entry]
        message = rf"^{name} must have 3 components, got shape \(2,\)$"
        with pytest.raises(ValueError, match=message):
            call([1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize("entry", list(VECTORS))
    def test_not_finite_rejected(self, entry, bad):
        # before any arithmetic: no RuntimeWarning, no NaN result, no
        # kinematic error that blames the pose
        name, call = VECTORS[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                call([310.25, bad, 310.25] if name == "rho" else [0.0, bad, 0.0])


class TestOffsetTriple:
    @pytest.mark.parametrize("entry", list(TRIPLES))
    def test_batch_rejected(self, entry):
        with pytest.raises(
            ValueError, match=rf"^{entry} expects a single offset triple, got shape \(2, 3\)$"
        ):
            TRIPLES[entry](np.zeros((2, 3)))

    @pytest.mark.parametrize("entry", list(TRIPLES))
    def test_offsets_checked(self, entry):
        with pytest.raises(ValueError, match="validity bound"):
            TRIPLES[entry]([40.0, 0.0, 0.0])

    @pytest.mark.parametrize("entry", list(TRIPLES))
    def test_triple_accepted(self, entry):
        TRIPLES[entry](np.array([0.1, -0.2, 0.3], dtype=np.float32))


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# the commands that take each count option, with the options they need
COUNT_OPTIONS = {
    "--replications": ("montecarlo", "--runs", "10", "--method", "six"),
    "--repetitions": ("simulate", "--offsets", "0,0,0", "--sigma", "0.01"),
}
SIGMA_COMMANDS = {
    "simulate": ("simulate", "--offsets", "0,0,0"),
    "accuracy": ("accuracy",),
    "montecarlo": ("montecarlo", "--runs", "10", "--replications", "1", "--method", "six"),
}


class TestCommandLine:
    @pytest.mark.parametrize("bad", ["0", "-1", "True", "2.5", ""])
    @pytest.mark.parametrize("option", list(COUNT_OPTIONS))
    def test_count_rejected(self, capsys, option, bad):
        rc, out, err = run_cli(capsys, *COUNT_OPTIONS[option], option, bad)
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and option in err

    @pytest.mark.parametrize("option", list(COUNT_OPTIONS))
    def test_count_accepted(self, capsys, option):
        rc, _, err = run_cli(capsys, *COUNT_OPTIONS[option], option, "2")
        assert rc == 0 and err == ""

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1", "True"])
    @pytest.mark.parametrize("command", list(SIGMA_COMMANDS))
    def test_sigma_rejected(self, capsys, command, bad):
        rc, out, err = run_cli(capsys, *SIGMA_COMMANDS[command], "--sigma", bad)
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "--sigma" in err

    @pytest.mark.parametrize("command", list(SIGMA_COMMANDS))
    def test_sigma_accepted(self, capsys, command):
        rc, _, err = run_cli(capsys, *SIGMA_COMMANDS[command], "--sigma", "0.01")
        assert rc == 0 and err == ""

    def test_repetitions_beyond_the_float_range_exit_1(self, capsys):
        huge = "1" + "0" * 400
        rc, out, err = run_cli(capsys, *COUNT_OPTIONS["--repetitions"], "--repetitions", huge)
        assert rc == 1 and out == ""
        assert err == "error: --repetitions is too large: its square root overflows a float\n"

    def test_sigma_that_overflows_the_readings_exit_1(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "simulate", "--offsets", "0,0,0", "--sigma", "1e308")
        assert rc == 1 and out == ""
        assert err == "error: --sigma: sigma 1e+308 overflows the readings\n"

    @pytest.mark.parametrize("quantum", ["1e-320", "5e-324"])
    def test_quantum_whose_steps_overflow_exit_1(self, capsys, quantum):
        # readings of about 0.1 mm over a subnormal quantum exceed the float
        # range: one error line naming the option, and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(
                capsys, "simulate", "--offsets", "1,1,1", "--quantize", quantum
            )
        assert rc == 1 and out == ""
        assert err == (
            "error: --quantize must be finite and positive, readings / q finite, "
            f"got {float(quantum)!r}\n"
        )

    def test_tiny_quantum_within_the_float_range_exit_0(self, capsys):
        rc, out, err = run_cli(capsys, "simulate", "--offsets", "1,1,1", "--quantize", "1e-300")
        assert rc == 0 and err == ""
        assert json.loads(out)["simulation"]["quantize"] == 1e-300

    def test_repetitions_beyond_the_float_range_without_noise_exit_0(self, capsys):
        # no noise is drawn at sigma 0, so no square root is taken
        huge = "1" + "0" * 400
        rc, _, err = run_cli(capsys, "simulate", "--offsets", "0,0,0", "--repetitions", huge)
        assert rc == 0 and err == ""
