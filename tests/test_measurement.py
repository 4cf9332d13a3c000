import numpy as np
import pytest

from orthocal import (
    SCHEMES,
    Axis,
    DoublePostureMeasurements,
    Geometry,
    NoiseModel,
    Posture,
    ReducedMeasurements,
    SinglePostureMeasurements,
    add_noise,
    build_six_eq_system,
    build_single_posture_system,
    build_system,
    build_twelve_eq_system,
    coefficients,
    direct_kinematics,
    double_deviation_array,
    gauge_locations,
    leg_line_scaling,
    measurement_to_dict,
    parse_measurement,
    predict_double_posture,
    predict_single_posture,
    reduce,
    reduced_deviation_array,
    single_deviation_array,
)
from orthocal.errors import SingularError
from orthocal.identification import _least_squares_gain
from orthocal.measurement import _noise_double, _stack_joints


class TestPredictors:
    def test_zero_offset_nullity(self, geom):
        zero = np.zeros(3)
        assert np.abs(single_deviation_array(zero, geom)).max() <= 1e-12
        assert np.abs(double_deviation_array(zero, geom)).max() <= 1e-12
        assert np.abs(reduced_deviation_array(zero, geom)).max() <= 1e-12

    def test_single_posture_pure_z_offset(self, geom):
        m = predict_single_posture([0, 0, 1], geom)
        # at the isotropic posture a pure z-offset moves the TCP by ~1 mm in z
        assert m.dz_x0 == m.dz_y0
        assert m.dz_x0 == pytest.approx(1.0, abs=2e-3)
        assert m.dz_x0 == pytest.approx(1.0000000083716278, rel=1e-10)

    def test_single_posture_x_offset(self, geom):
        m = predict_single_posture([1, 0, 0], geom)
        a1 = coefficients(geom).a1
        assert m.dz_x_plus == pytest.approx(a1, abs=2e-3)
        assert m.dz_x_plus == pytest.approx(0.19891179143714321, rel=1e-10)

    def test_double_posture_small_x_offset(self, geom):
        m = predict_double_posture([0.1, 0, 0], geom)
        c1 = coefficients(geom).c1
        assert m.dy_x_plus == pytest.approx(c1 * 0.1, abs=1e-4)
        assert m.dy_x_plus == pytest.approx(0.013672100603747664, rel=1e-9)

    def test_double_posture_matches_linear_model_at_unit_offsets(self, geom):
        dr = np.array([1.0, 1.0, 1.0])
        nonlinear = double_deviation_array(dr, geom)
        linear = build_twelve_eq_system(geom).design_matrix @ dr
        # second-order error at 1 mm offsets stays below a few microns
        assert np.abs(nonlinear - linear).max() <= 5e-3
        assert np.abs(nonlinear - linear).max() > 1e-4

    @pytest.mark.parametrize(
        "deviation_fn, builder",
        [
            (single_deviation_array, build_single_posture_system),
            (double_deviation_array, build_twelve_eq_system),
            (reduced_deviation_array, build_six_eq_system),
        ],
    )
    def test_linear_consistency_at_small_offsets(self, geom, deviation_fn, builder):
        design = builder(geom).design_matrix
        rng = np.random.default_rng(21)
        for _ in range(10):
            dr = rng.uniform(-0.1, 0.1, 3)
            err = np.abs(deviation_fn(dr, geom) - design @ dr).max()
            assert err <= 1e-3

    def test_error_grows_quadratically(self, geom):
        design = build_twelve_eq_system(geom).design_matrix
        u = np.array([1.0, -0.8, 0.6])

        def err(scale):
            dr = scale * u
            return np.abs(double_deviation_array(dr, geom) - design @ dr).max()

        e01, e05, e10 = err(0.1), err(0.5), err(1.0)
        assert 20 < e05 / e01 < 32  # ~25 for a quadratic remainder
        assert 3.2 < e10 / e05 < 4.8  # ~4

    def test_offset_bound_enforced(self, geom):
        with pytest.raises(ValueError):
            double_deviation_array([40.0, 0, 0], geom)

    def test_batch_shape(self, geom):
        drs = np.random.default_rng(0).uniform(-1, 1, (7, 3))
        batch = double_deviation_array(drs, geom)
        assert batch.shape == (7, 12)
        for i, dr in enumerate(drs):
            np.testing.assert_allclose(batch[i], double_deviation_array(dr, geom), atol=0)

    # predictions at these offsets, recorded before the seven postures were
    # solved as one stack (one posture per direct-kinematics call)
    PINNED_OFFSETS = [[0.5, -0.3, 0.2], [-20.0, 25.0, -15.0]]
    PINNED_SHIFT = [0.4, -0.2, 0.1]
    PINNED = {
        ("double", False): [
            [0.05576464604168879, 0.010513430053907785, -0.1431020419225683,
             0.06627612811669158, -0.030457968465305046, -0.002223481066600738,
             0.08440132576115601, -0.046492918492442484, 0.12413075788856354,
             0.10711385144630842, -0.1733419054290066, -0.09485771001109171],
            [-0.20711740511958432, 2.615575829379635, 4.515862282679551,
             -7.287261906547792, 3.3365018586197586, 0.755735056734439,
             -7.614369403989021, 2.844532550764918, -5.570010166693445,
             -5.3145395497971695, 6.926118834888529, 5.561097116785804],
        ],
        ("double", True): [
            [0.05572655446191127, 0.010386172484574768, -0.14303627818569437,
             0.06649576960746198, -0.03047073749625917, -0.0022616058923063537,
             0.08442335615292952, -0.0464270754986195, 0.12411802393810328,
             0.10698680079749423, -0.17331993022860692, -0.09463844829916036],
            [-0.20394446563937052, 2.620062685596098, 4.510354970023654,
             -7.295204857806776, 3.337289959437303, 0.7588523458473064,
             -7.615771422942508, 2.8391458671200085, -5.569101436235881,
             -5.30946683752778, 6.924482656008788, 5.552015576870305],
        ],
        ("reduced", False): [
            [0.1988666879642571, -0.05576269806278379, -0.11485929422646106,
             0.044269437425841746, 0.29747266331757016, 0.20197156145740014],
            [-4.7229796877991355, 9.902837735927427, 10.950871262608779,
             -2.088797494030479, -12.496129001581973, -10.875636666582974],
        ],
        ("reduced", True): [
            [0.19876283264760564, -0.05610959712288721, -0.11489409364918869,
             0.044165469606313144, 0.2974379541667102, 0.20162524909665458],
            [-4.714299435663024, 9.915267543402873, 10.953061382379811,
             -2.080293521272702, -12.493584092244669, -10.861482414398086],
        ],
        ("single", False): [
            [0.2005478310057356, 0.2005478310057356, 0.2990914242131453,
             0.030483065943712973, 0.1414068400650308, 0.3026863634343897],
            [-13.35938865262483, -13.35938865262483, -17.28079894030506,
             -6.339438856578511, -8.548665745149776, -21.616170342472998],
        ],
    }

    @pytest.mark.parametrize("predictor, shifted", list(PINNED))
    def test_predictions_pinned(self, geom, predictor, shifted):
        fn = {
            "double": double_deviation_array,
            "reduced": reduced_deviation_array,
            "single": single_deviation_array,
        }[predictor]
        args = (self.PINNED_SHIFT,) if shifted else ()
        out = fn(np.array(self.PINNED_OFFSETS), geom, *args)
        assert np.array_equal(out, np.array(self.PINNED[predictor, shifted]))

    @pytest.mark.parametrize("fn", [double_deviation_array, single_deviation_array])
    def test_failing_posture_named(self, fn):
        # the isotropic and max X postures solve; min X is the first posture
        # of the stack order (isotropic, X max/min, Y max/min, Z max/min)
        # whose direct kinematics fails
        geom = Geometry(L=100, rho_min=-99, rho_max=60)
        with pytest.raises(SingularError, match="^min X-displacement posture: "):
            fn([-10.0, -10.0, -10.0], geom)


class TestReduce:
    def test_zeros(self):
        m = DoublePostureMeasurements(*([0.0] * 12))
        assert reduce(m).as_array().tolist() == [0.0] * 6

    def test_definition(self):
        m = DoublePostureMeasurements(
            dx_y_plus=0.0, dy_x_plus=0.3, dx_y_minus=0.0, dy_x_minus=0.1,
            dy_z_plus=0.0, dz_y_plus=0.0, dy_z_minus=0.0, dz_y_minus=0.0,
            dx_z_plus=0.0, dz_x_plus=0.0, dx_z_minus=0.0, dz_x_minus=0.0,
        )
        assert reduce(m).dy_x == pytest.approx(0.2)

    def test_reduced_prediction_consistency(self, geom):
        dr = [0.5, -0.25, 0.75]
        via_reduce = reduce(predict_double_posture(dr, geom)).as_array()
        direct = reduced_deviation_array(dr, geom)
        np.testing.assert_allclose(via_reduce, direct, atol=0)

    def test_reduced_matches_linear_model_second_order(self, geom):
        dr = np.array([0.05, -0.08, 0.03])
        design = build_six_eq_system(geom).design_matrix
        red = reduce(predict_double_posture(dr, geom)).as_array()
        assert np.abs(red - design @ dr).max() <= 1e-4


class TestGauges:
    def test_nominal_gauge_locations(self, geom):
        gx, gy, gz = gauge_locations([0, 0, 0], geom)
        np.testing.assert_allclose(gx.position, [155.125, 0, 0], atol=1e-12)
        np.testing.assert_allclose(gy.position, [0, 155.125, 0], atol=1e-12)
        np.testing.assert_allclose(gz.position, [0, 0, 155.125], atol=1e-12)

    def test_gauge_location_uses_exact_isotropic_tcp(self, geom):
        dr = np.array([1.0, 1.0, 1.0])
        p0, _ = direct_kinematics(geom.L + dr, [0, 0, 0], geom)
        gx, gy, gz = gauge_locations(dr, geom)
        assert gx.position[0] == pytest.approx(155.125 + (p0[0] + 1.0) / 2, abs=1e-12)
        assert gx.position[1] == pytest.approx(p0[1] / 2, abs=1e-12)
        assert gy.position[1] == pytest.approx(155.125 + (p0[1] + 1.0) / 2, abs=1e-12)
        assert gz.position[2] == pytest.approx(155.125 + (p0[2] + 1.0) / 2, abs=1e-12)

    def test_gauge_location_linearized(self, geom):
        # a small x-offset moves the Y-leg gauge x-coordinate by about half
        gx, gy, gz = gauge_locations([0.1, 0, 0], geom)
        assert gy.position[0] == pytest.approx(0.05, abs=1e-3)

    def test_scaling_at_displacement_postures(self, geom):
        mu_max = leg_line_scaling(Posture.max(Axis.X), Axis.X, [0, 0, 0], geom)
        mu_min = leg_line_scaling(Posture.min(Axis.X), Axis.X, [0, 0, 0], geom)
        mu_iso = leg_line_scaling(Posture.isotropic(), Axis.X, [0, 0, 0], geom)
        assert mu_max == pytest.approx(0.693392425463336, rel=1e-14)
        assert mu_min == pytest.approx(0.17767929089443996, rel=1e-14)
        assert mu_iso == 0.5

    def test_scaling_stays_in_unit_interval(self, geom):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dr = rng.uniform(-2, 2, 3)
            for axis in Axis:
                for posture in (Posture.max(axis), Posture.min(axis), Posture.isotropic()):
                    mu = leg_line_scaling(posture, axis, dr, geom)
                    assert 0.0 < mu < 1.0

    def test_mismatched_leg_rejected(self, geom):
        with pytest.raises(ValueError):
            leg_line_scaling(Posture.max(Axis.X), Axis.Y, [0, 0, 0], geom)

    def test_gauge_shift_hook_default_zero(self, geom):
        dr = [0.4, -0.2, 0.6]
        base = double_deviation_array(dr, geom)
        shifted = double_deviation_array(dr, geom, gauge_shift=[0.0, 0.0, 0.0])
        np.testing.assert_allclose(base, shifted, atol=0)
        perturbed = double_deviation_array(dr, geom, gauge_shift=[1.0, 0.0, 0.0])
        assert np.abs(perturbed - base).max() > 0
        # placement errors barely matter compared to the signal
        assert np.abs(perturbed - base).max() < 1e-2 * np.abs(base).max()


class TestNoise:
    def test_zero_sigma_identity(self, geom):
        m = predict_double_posture([1, 1, 1], geom)
        assert add_noise(m, NoiseModel(sigma=0.0, seed=1)) is m

    def test_same_seed_reproducible(self, geom):
        m = reduce(predict_double_posture([1, 1, 1], geom))
        nm = NoiseModel(sigma=0.05, seed=99)
        a = add_noise(m, nm)
        b = add_noise(m, nm)
        assert a == b
        c = add_noise(m, NoiseModel(sigma=0.05, seed=100))
        assert a != c

    def test_all_shapes_supported(self, geom):
        nm = NoiseModel(sigma=0.01, seed=5)
        for m in (
            predict_single_posture([0.1, 0.1, 0.1], geom),
            predict_double_posture([0.1, 0.1, 0.1], geom),
            reduce(predict_double_posture([0.1, 0.1, 0.1], geom)),
        ):
            noisy = add_noise(m, nm)
            assert type(noisy) is type(m)
            assert np.all(noisy.as_array() != m.as_array())

    def test_reduction_cancels_isotropic_noise(self):
        # reducing the 12-vector noise gives variance 2 sigma^2 channels
        sigma = 0.01
        rng = np.random.default_rng(77)
        draws = _noise_double(rng, sigma, (100000,))
        pairs = ((0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11))
        red = np.stack([draws[:, i] - draws[:, j] for i, j in pairs], axis=1)
        emp = np.cov(red.T)
        assert np.abs(emp - 2 * sigma**2 * np.eye(6)).max() <= 0.1 * sigma**2

    # add_noise on a zero set with sigma 0.01 mm and seed 2024, recorded
    # before the measurement-scheme registry replaced the per-type dispatch;
    # the single-posture and reduced sets share one sampler, hence one stream
    PINNED_2024 = {
        "single-posture": [
            -0.00613063166719249, 0.021198990450711795, -0.014599964514479657,
            0.0035216411909473827, 0.01059442101141365, 0.013710820751607102,
        ],
        "double-full": [
            -0.0035216411909473827, 0.00613063166719249, 0.00948934656354857,
            0.0011786265564471248, -0.021879429569561265, -0.001110839192224558,
            -0.012478908528223767, -0.01482165994383166, 0.025921226208109695,
            -0.004196205809023027, 0.011566294381968018, 0.01040375870545663,
        ],
        "double-reduced": [
            -0.00613063166719249, 0.021198990450711795, -0.014599964514479657,
            0.0035216411909473827, 0.01059442101141365, 0.013710820751607102,
        ],
    }

    @pytest.mark.parametrize("label", list(PINNED_2024))
    def test_noise_stream_pinned(self, label):
        cls = SCHEMES[label].measurement
        zero = cls.from_array(np.zeros(len(self.PINNED_2024[label])))
        noisy = add_noise(zero, NoiseModel(sigma=0.01, seed=2024))
        assert type(noisy) is cls
        assert noisy.as_array().tolist() == self.PINNED_2024[label]

    def test_repetition_averaging_shrinks_noise(self, geom):
        rng_std = []
        for reps in (1, 4):
            vals = []
            for seed in range(300):
                m = add_noise(
                    ReducedMeasurements(0, 0, 0, 0, 0, 0),
                    NoiseModel(sigma=0.1, seed=seed),
                    repetitions=reps,
                )
                vals.append(m.as_array())
            rng_std.append(np.std(np.asarray(vals)))
        assert rng_std[1] == pytest.approx(rng_std[0] / 2, rel=0.15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-0.1, seed=0)
        with pytest.raises(ValueError):
            NoiseModel(sigma=np.inf, seed=0)
        with pytest.raises(ValueError):
            add_noise(ReducedMeasurements(0, 0, 0, 0, 0, 0), NoiseModel(0.1, 0), repetitions=0)


class TestMeasurementTypes:
    def test_array_round_trip(self):
        arr = np.arange(12.0)
        m = DoublePostureMeasurements.from_array(arr)
        np.testing.assert_allclose(m.as_array(), arr, atol=0)
        arr6 = np.arange(6.0)
        assert SinglePostureMeasurements.from_array(arr6).as_array().tolist() == arr6.tolist()
        assert ReducedMeasurements.from_array(arr6).as_array().tolist() == arr6.tolist()


class TestSchemes:
    @pytest.mark.parametrize("label", list(SCHEMES))
    def test_scheme_entry(self, geom, label):
        scheme = SCHEMES[label]
        assert scheme.label == label
        n = len(scheme.wire_keys)

        # sampler: empirical covariance is sigma^2 times the entry's covariance
        sigma = 0.01
        draws = scheme.sample_noise(np.random.default_rng(2024), sigma, (100000,))
        assert draws.shape == (100000, n)
        cov = sigma**2 * scheme.noise_covariance
        assert np.abs(np.cov(draws.T) - cov).max() <= 0.05 * cov.max()

        # design: the predictor's finite-difference Jacobian at zero offsets
        design = scheme.design(geom)
        h = 1e-4
        fd = np.column_stack([
            (scheme.predict(h * e, geom) - scheme.predict(-h * e, geom)) / (2 * h)
            for e in np.eye(3)
        ])
        assert design.shape == (n, 3)
        np.testing.assert_allclose(fd, design, atol=1e-7)

        # wire keys: the row keys in file order, round-tripping through a document
        assert sorted(scheme.wire_keys) == sorted(scheme.row_keys)
        m = scheme.measurement.from_array(np.arange(n) / 7.0)
        doc = measurement_to_dict(m)
        assert doc["method"] == label
        assert tuple(doc["values"]) == scheme.wire_keys
        assert parse_measurement(doc).measurement() == m

    @pytest.mark.parametrize("label", list(SCHEMES))
    def test_geometry_constants_cached_read_only(self, label):
        # equal geometries share one read-only design and its solver maps
        first, second = Geometry.prototype(), Geometry.prototype()
        design = SCHEMES[label].design(first)
        assert SCHEMES[label].design(second) is design
        assert build_system(label, second).design_matrix is design
        with pytest.raises(ValueError):
            design[0, 0] = 1.0
        gain = _least_squares_gain(design)
        assert _least_squares_gain(SCHEMES[label].design(second)) is gain
        assert _least_squares_gain(design.copy()) is gain
        shared = [design, _stack_joints(first), gain]
        assert not any(a.flags.writeable for a in shared)
