import hashlib
import sys
import threading

import numpy as np
import pytest

from orthocal import (
    SCHEMES,
    SYSTEM_SINGLE,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    Axis,
    DoublePostureMeasurements,
    Geometry,
    MeasurementFile,
    NoiseModel,
    Posture,
    ReducedMeasurements,
    SinglePostureMeasurements,
    add_noise,
    build_six_eq_system,
    build_system,
    build_twelve_eq_system,
    calibration_postures,
    check_offsets,
    coefficients,
    deviations_and_jacobian,
    direct_kinematics,
    double_deviation_array,
    gauge_locations,
    identify,
    least_squares_solve,
    leg_line_scaling,
    measurement_to_dict,
    monte_carlo,
    noise_covariance,
    nonlinear_identify,
    offset_covariance,
    parse_measurement,
    predict_double_posture,
    predict_single_posture,
    reduce,
    reduced_deviation_array,
    single_deviation_array,
)
from orthocal.errors import DomainError, SingularError
from orthocal.identification import LinearSystem, _least_squares_gain
from orthocal import measurement
from orthocal.kinematics import SINGULARITY_TOL, _dk_point, posture_commanded_joints
from orthocal.measurement import (
    _ALL_ROWS,
    _LINE_LEG,
    _LINE_ROW,
    _SCRATCH,
    _STACK,
    _STRIP_ROWS,
    _gauge_lines,
    _posture_stack,
    _stack_joints,
)


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
        "deviation_fn, label",
        [
            (single_deviation_array, SYSTEM_SINGLE),
            (double_deviation_array, SYSTEM_TWELVE),
            (reduced_deviation_array, SYSTEM_SIX),
        ],
    )
    def test_linear_consistency_at_small_offsets(self, geom, deviation_fn, label):
        design = build_system(label, geom).design_matrix
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
        # |offset| = L/10 exactly is inside the validity domain, one ulp more is not
        bound = geom.L / 10.0
        double_deviation_array([bound, -bound, bound], geom)
        with pytest.raises(ValueError, match="validity bound"):
            double_deviation_array([0.0, np.nextafter(-bound, -np.inf), 0.0], geom)

    @pytest.mark.parametrize(
        "offsets, message",
        [
            ([np.nan, 0.0, 0.0], "must be finite"),
            ([0.0, np.inf, 0.0], "must be finite"),
            ([0.0, 0.0, -np.inf], "must be finite"),
            ([40.0, 0.0, 0.0], "validity bound"),
            ([0.0, -40.0, 0.0], "validity bound"),
            ([[0.5, 0.5, 0.5], [0.0, 0.0, np.nan], [1.0, -1.0, 0.0]], "must be finite"),
            ([[0.5, 0.5, 0.5], [0.0, 40.0, 0.0], [1.0, -1.0, 0.0]], "validity bound"),
            # a non-finite row is named before an out-of-bound one
            ([[0.0, 40.0, 0.0], [np.nan, 0.0, 0.0]], "must be finite"),
        ],
        ids=["nan", "+inf", "-inf", "+40mm", "-40mm", "batch-nan", "batch-40mm", "batch-both"],
    )
    def test_offset_rejected(self, geom, offsets, message):
        with pytest.raises(ValueError, match=message):
            double_deviation_array(offsets, geom)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: check_offsets(3.0, g),
            lambda g: double_deviation_array(3.0, g),
            lambda g: monte_carlo(3.0, 0.01, 10, 1, "six"),
            lambda g: nonlinear_identify(
                reduce(predict_double_posture(np.zeros(3), g)), g, initial=3.0
            ),
        ],
        ids=["check_offsets", "double_deviation_array", "monte_carlo", "nonlinear_identify"],
    )
    def test_scalar_offset_rejected(self, geom, call):
        # the rank is checked before the last axis is read
        with pytest.raises(ValueError, match=r"^offsets must have 3 components, got shape \(\)$"):
            call(geom)

    def test_batch_shape(self, geom):
        drs = np.random.default_rng(0).uniform(-1, 1, (7, 3))
        batch = double_deviation_array(drs, geom)
        assert batch.shape == (7, 12)
        for i, dr in enumerate(drs):
            np.testing.assert_allclose(batch[i], double_deviation_array(dr, geom), atol=0)

    # predictions at these offsets, recorded before the seven postures were
    # solved as one stack (one posture per direct-kinematics call)
    PINNED_OFFSETS = [[0.5, -0.3, 0.2], [-20.0, 25.0, -15.0]]
    # keyed (predictor, gauge shifted): only the nominal, unshifted gauge is
    # modelled, and the keys keep the test ids
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
        ("reduced", False): [
            [0.1988666879642571, -0.05576269806278379, -0.11485929422646106,
             0.044269437425841746, 0.29747266331757016, 0.20197156145740014],
            [-4.7229796877991355, 9.902837735927427, 10.950871262608779,
             -2.088797494030479, -12.496129001581973, -10.875636666582974],
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
        out = fn(np.array(self.PINNED_OFFSETS), geom)
        assert np.array_equal(out, np.array(self.PINNED[predictor, shifted]))

    # the exact Jacobian at PINNED_OFFSETS while dp/drho came from LAPACK's inv,
    # recorded before the forward model's numpy calls were cut down; the
    # closed form must stay within 1e-15 of it
    LAPACK_JACOBIAN = {
        "double-full": [
            [
                [0.1935869987943899, 0.1365649941727915, 6.126808948362993e-05],
                [0.13719887900791108, 0.19330375499328423, 0.0004905435249327574],
                [-0.3224392581937754, -0.060219996390758486, -0.00019934303350886733],
                [-0.0610028268441317, -0.3222289240358518, -0.0003107360710739668],
                [0.0006614662859568291, 0.19327762961378447, 0.13709576504685192],
                [0.0003931428141731245, 0.1366992426316625, 0.19345487427439323],
                [-0.0006287572637880278, -0.3222490723964899, -0.06077122526718757],
                [-0.0005594197077133451, -0.06028132392694815, -0.32238042809462786],
                [0.19363096593558415, -0.00022431249845512147, 0.13673634431943646],
                [0.1369737077009499, -6.336045228701149e-05, 0.19352496630441773],
                [-0.3224059820149161, 0.0003324944432188169, -0.06060604841707339],
                [-0.06089897793992578, 0.0002904383165237707, -0.3223270044373864],
            ],
            [
                [0.18673826747106648, 0.14995008692984033, -0.0016855198550054934],
                [0.11660424584140242, 0.2018510161576113, -0.02530523402100198],
                [-0.3182011288196721, -0.08248215573811654, 0.012413222967570582],
                [-0.04059880662173652, -0.32917860720764636, 0.019858424534595454],
                [-0.028469604976379466, 0.20236607790190225, 0.11797608837521559],
                [-0.007487576109987133, 0.14719456070760728, 0.18920317244864737],
                [0.025879804629247112, -0.32896592514782963, -0.044473544537906064],
                [0.018847470381217347, -0.08087164653736716, -0.3190932888269605],
                [0.18457793880564288, 0.020364280645438188, 0.13660519755620884],
                [0.13239868165663385, 0.017719436630180226, 0.1865656507416915],
                [-0.32127304127761663, -0.027347323203646898, -0.05154679338275764],
                [-0.04602909528407002, -0.026884889798660813, -0.32230994515881983],
            ],
        ],
        "double-reduced": [
            [
                [0.5160262569881653, 0.19678499056354998, 0.00026061112299249727],
                [0.19820170585204278, 0.515532679029136, 0.0008012795960067242],
                [0.001290223549744857, 0.5155267020102744, 0.19786699031403948],
                [0.0009525625218864696, 0.19698056655861065, 0.5158353023690211],
                [0.5160369479505003, -0.0005568069416739384, 0.19734239273650986],
                [0.19787268564087568, -0.0003537987688107822, 0.5158519707418041],
            ],
            [
                [0.5049393962907386, 0.23243224266795687, -0.014098742822576076],
                [0.15720305246313893, 0.5310296233652576, -0.04516365855559744],
                [-0.05434940960562658, 0.5313320030497319, 0.16244963291312164],
                [-0.02633504649120448, 0.22806620724497445, 0.5082964612756078],
                [0.5058509800832596, 0.047711603849085085, 0.18815199093896648],
                [0.17842777694070386, 0.04460432642884104, 0.5088755959005113],
            ],
        ],
    }

    # the exact Jacobian at PINNED_OFFSETS with dp/drho in closed form
    PINNED_JACOBIAN = {
        "double-full": [
            [
                [0.1935869987943899, 0.1365649941727915, 6.126808948362993e-05],
                [0.13719887900791108, 0.19330375499328423, 0.0004905435249327577],
                [-0.3224392581937754, -0.0602199963907585, -0.00019934303350886733],
                [-0.061002826844131705, -0.3222289240358518, -0.00031073607107396674],
                [0.0006614662859568294, 0.19327762961378436, 0.13709576504685195],
                [0.0003931428141731246, 0.13669924263166247, 0.19345487427439323],
                [-0.0006287572637880278, -0.3222490723964899, -0.06077122526718757],
                [-0.000559419707713345, -0.06028132392694815, -0.32238042809462786],
                [0.19363096593558404, -0.00022431249845512153, 0.13673634431943646],
                [0.13697370770094994, -6.336045228701149e-05, 0.19352496630441773],
                [-0.3224059820149161, 0.00033249444321881686, -0.06060604841707339],
                [-0.06089897793992577, 0.00029043831652377064, -0.3223270044373864],
            ],
            [
                [0.18673826747106648, 0.14995008692984033, -0.0016855198550054865],
                [0.1166042458414024, 0.20185101615761136, -0.02530523402100196],
                [-0.3182011288196721, -0.08248215573811654, 0.012413222967570586],
                [-0.04059880662173651, -0.3291786072076463, 0.019858424534595454],
                [-0.02846960497637947, 0.20236607790190242, 0.11797608837521556],
                [-0.007487576109987133, 0.14719456070760728, 0.18920317244864743],
                [0.02587980462924711, -0.32896592514782963, -0.044473544537906064],
                [0.018847470381217344, -0.08087164653736716, -0.31909328882696053],
                [0.18457793880564288, 0.020364280645438215, 0.13660519755620887],
                [0.13239868165663382, 0.01771943663018022, 0.18656565074169146],
                [-0.3212730412776167, -0.02734732320364689, -0.051546793382757645],
                [-0.04602909528407003, -0.02688488979866082, -0.32230994515881983],
            ],
        ],
        "double-reduced": [
            [
                [0.5160262569881653, 0.19678499056355, 0.00026061112299249727],
                [0.19820170585204278, 0.515532679029136, 0.0008012795960067245],
                [0.0012902235497448573, 0.5155267020102743, 0.1978669903140395],
                [0.0009525625218864696, 0.19698056655861063, 0.5158353023690211],
                [0.5160369479505001, -0.0005568069416739384, 0.19734239273650986],
                [0.1978726856408757, -0.00035379876881078213, 0.5158519707418041],
            ],
            [
                [0.5049393962907386, 0.23243224266795687, -0.014098742822576072],
                [0.15720305246313893, 0.5310296233652576, -0.04516365855559741],
                [-0.05434940960562658, 0.531332003049732, 0.16244963291312162],
                [-0.026335046491204477, 0.22806620724497445, 0.508296461275608],
                [0.5058509800832596, 0.047711603849085106, 0.1881519909389665],
                [0.17842777694070386, 0.04460432642884104, 0.5088755959005113],
            ],
        ],
    }

    # sha256 of the little-endian bytes of the Jacobians of a seeded 7-row
    # batch (five rows up to L/10, then PINNED_OFFSETS), recorded with them
    PINNED_JACOBIAN_BATCH = {
        "double-full": "28de3db3289562bbca66ff840dd490218c58506b5e92fdd38d5937a2c3d52ed7",
        "double-reduced": "07388ebc0a45733c4b17954f02a538c12582a6bab0946f67927fe48626ebd814",
    }

    @pytest.mark.parametrize("label", list(PINNED_JACOBIAN))
    def test_prediction_jacobian_pinned(self, geom, label):
        pinned = np.array(self.PINNED_JACOBIAN[label])
        assert np.abs(pinned - np.array(self.LAPACK_JACOBIAN[label])).max() <= 1e-15
        offsets = np.array(self.PINNED_OFFSETS)
        assert np.array_equal(deviations_and_jacobian(offsets, geom, label)[1], pinned)
        for dr, jac in zip(offsets, pinned):
            assert np.array_equal(deviations_and_jacobian(dr, geom, label)[1], jac)
        rng = np.random.default_rng(31)
        batch = np.vstack([rng.uniform(-geom.L / 10, geom.L / 10, (5, 3)), offsets])
        out = deviations_and_jacobian(batch, geom, label)[1]
        assert np.array_equal(out[5:], pinned)
        digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()
        assert digest == self.PINNED_JACOBIAN_BATCH[label]

    @pytest.mark.parametrize(
        "fn",
        [
            double_deviation_array,
            single_deviation_array,
            pytest.param(
                lambda dr, g: leg_line_scaling(Posture.max(Axis.Y), Axis.Y, dr, g),
                id="leg_line_scaling",
            ),
            gauge_locations,
        ],
    )
    def test_failing_posture_named(self, fn):
        # the isotropic and max X postures solve; min X is the first posture
        # of the stack order (isotropic, X max/min, Y max/min, Z max/min)
        # whose direct kinematics fails; the gauge functions solve the whole
        # stack as the double-posture predictor does
        geom = Geometry(L=100, rho_min=-99, rho_max=60)
        with pytest.raises(SingularError, match="^min X-displacement posture: "):
            fn([-10.0, -10.0, -10.0], geom)


_PREDICTORS = (
    double_deviation_array,
    reduced_deviation_array,
    single_deviation_array,
    lambda dr, geom: deviations_and_jacobian(dr, geom, "double-full")[1],
    lambda dr, geom: deviations_and_jacobian(dr, geom, "double-reduced")[1],
)


def _allocating_dk(e, L):
    """The guards of the direct kinematics as the model that allocated its
    temporaries evaluated them, on component-major joints ``(3, ...)``."""
    if (np.abs(e) < SINGULARITY_TOL).any():
        raise DomainError("effective joint value is zero")
    s0, s1, s2 = e * e
    A = s1 * s2 + s0 * s2 + s0 * s1
    B = s0 * s1 * s2
    C = (s0 + s1 + s2 - 4.0 * L * L) / 4.0
    disc = B * B - 4.0 * A * B * C
    if (disc < 0).any():
        raise DomainError("joint set unreachable: negative discriminant")
    q = (B + np.sqrt(disc)) / -2.0
    t = q / A
    rest = ~(e > 0).all(axis=0)
    if rest.any():
        t[rest] = (B[rest] * C[rest]) / q[rest]
    p = t / e + e / 2.0
    if rest.any() and not (e[:, rest] - p[:, rest] > 0).all():
        raise SingularError(
            "no admissible direct-kinematics branch: both roots violate the "
            "+1 configuration indices"
        )
    return p


def _outcome(run):
    """``run()``, or the class and message of the kernel error it raised."""
    try:
        return run()
    except (DomainError, SingularError) as exc:
        return type(exc), str(exc)


def _allocating_error(dr, geom):
    """Class and message of the error the allocating model raised for the
    offsets ``dr``, ``(n, 3)``, on the whole stack, or None."""
    joints = dr.T[:, None] + _stack_joints(geom)
    try:
        p = _allocating_dk(joints, geom.L)
    except (DomainError, SingularError):
        # the whole batch, one posture at a time, in stack order
        for i, posture in enumerate(_STACK):
            try:
                _allocating_dk(joints[:, i], geom.L)
            except (DomainError, SingularError) as exc:
                return type(exc), f"{posture.label()} posture: {exc}"
        raise
    den = joints[_LINE_LEG, _LINE_ROW] - p[_LINE_LEG, _LINE_ROW]
    if (np.abs(den) < 1e-9).any():
        return SingularError, "leg line parallel to the gauge station plane"
    return None


# Failing offsets on a geometry whose min X posture has joint x = 1 mm: a
# zero effective joint and an inadmissible root at min X, a negative
# discriminant at max X (before min X in stack order), and NaN.
_GUARD_GEOM = Geometry(L=100, rho_min=-99, rho_max=60)
_BAD = {
    "zero": [-posture_commanded_joints(Posture.min(Axis.X), _GUARD_GEOM)[0], 0.0, 0.0],
    "inadmissible": [-9.669, 6.265, 8.255],
    "discriminant": [7.273, 9.624, 9.144],
    "nan": [np.nan, 0.0, 0.0],
}


class TestStrips:
    """The forward model evaluates a batch in strips of ``_STRIP_ROWS``
    columns through one scratch buffer per thread."""

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (2 * _STRIP_ROWS + 3, 3)])
    def test_results_share_no_memory(self, geom, shape):
        rng = np.random.default_rng(12)
        first, second = rng.uniform(-1.0, 1.0, (2,) + shape)
        scratch = (_SCRATCH.floats, _SCRATCH.flags)
        for model in _PREDICTORS:
            a = model(first, geom)
            kept = a.copy()
            b = model(second, geom)
            assert not np.shares_memory(a, b)
            assert not any(np.shares_memory(out, buf) for out in (a, b) for buf in scratch)
            assert np.array_equal(a, kept)

    def test_threads_match_serial(self, geom):
        rng = np.random.default_rng(13)
        inputs = [rng.uniform(-1.0, 1.0, shape) for shape in [(3,), (40, 3), (1500, 3)] * 4]
        serial = [[model(dr, geom) for model in _PREDICTORS] for dr in inputs]
        results, scratches = {}, {}
        start = threading.Barrier(2)

        def work(name, order):
            start.wait()
            scratches[name] = _SCRATCH.floats
            for _ in range(3):
                for i in order:
                    results[name, i] = [model(inputs[i], geom) for model in _PREDICTORS]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the forward calls
        try:
            threads = [
                threading.Thread(target=work, args=(name, order))
                for name, order in (("a", range(len(inputs))), ("b", range(len(inputs))[::-1]))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert scratches["a"] is not scratches["b"]
        assert len(results) == 2 * len(inputs)  # neither thread died
        for (_, i), outs in results.items():
            assert all(np.array_equal(o, s) for o, s in zip(outs, serial[i]))

    def test_long_batch_rows_equal_scalar_calls(self, geom):
        # three strips, the last one partial
        bound = geom.L / 10
        offsets = np.random.default_rng(14).uniform(-bound, bound, (2 * _STRIP_ROWS + 5, 3))
        for model in _PREDICTORS:
            batch = model(offsets, geom)
            assert all(np.array_equal(batch[i], model(dr, geom)) for i, dr in enumerate(offsets))

    @pytest.mark.parametrize(
        "rows",
        [
            {0: "zero"}, {1500: "zero"},
            {0: "discriminant"}, {2500: "discriminant"},
            {0: "inadmissible"}, {1500: "inadmissible"},
            {0: "nan"}, {2500: "nan"},
            # a later strip's earlier posture, or earlier guard, decides
            {0: "inadmissible", 1500: "discriminant"},
            {0: "zero", 2500: "discriminant"},
            {0: "inadmissible", 1500: "zero"},
            {0: "discriminant", 2500: "nan"},
        ],
        ids=lambda rows: "-".join(f"{kind}@{row}" for row, kind in rows.items()),
    )
    def test_guards_match_allocating_model(self, rows):
        offsets = np.zeros((2 * _STRIP_ROWS + 600, 3))
        assert _allocating_error(offsets, _GUARD_GEOM) is None
        for row, kind in rows.items():
            offsets[row] = _BAD[kind]
        want = _allocating_error(offsets, _GUARD_GEOM)
        assert want is not None
        # check_offsets rejects NaN before the forward model, so the strip
        # driver is called directly
        with pytest.raises(want[0]) as exc:
            for _ in _posture_stack(offsets.T, _GUARD_GEOM, _ALL_ROWS):
                pass
        assert str(exc.value) == want[1]
        if "nan" not in rows.values():
            with pytest.raises(want[0]) as exc:
                double_deviation_array(offsets, _GUARD_GEOM)
            assert str(exc.value) == want[1]

    @pytest.mark.parametrize("strip", [0, 2], ids=["first-strip", "later-strip"])
    @pytest.mark.parametrize(
        "value",
        [SINGULARITY_TOL, -SINGULARITY_TOL, SINGULARITY_TOL / 2,
         np.nextafter(SINGULARITY_TOL, 0.0), 1e-300, 0.0, -0.0, np.nan],
        ids=["tol", "-tol", "half-tol", "below-tol", "tiny", "zero", "-0.0", "nan"],
    )
    def test_guards_at_tolerance_match_allocating_model(self, value, strip):
        # joint values at and below the guard, which offsets added to the
        # stack joints cannot hit exactly, run through the kernel strip by
        # strip in one thread's scratch, as the strip driver runs them
        joints = np.repeat(_stack_joints(_GUARD_GEOM), 2 * _STRIP_ROWS + 600, axis=2)
        joints[0, 3, strip * _STRIP_ROWS + 7] = value
        L = _GUARD_GEOM.L
        want = _outcome(lambda: _allocating_dk(joints, L))
        parts = []

        def strips():
            for start in range(0, joints.shape[2], _STRIP_ROWS):
                part = joints[..., start:start + _STRIP_ROWS]
                view = _SCRATCH.strip(len(_STACK), part.shape[2])
                view.joints[...] = part
                parts.append(_dk_point(view.joints, L, view.p, view.dk).copy())
            return np.concatenate(parts, axis=2)

        got = _outcome(strips)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want, equal_nan=True)

    def test_strip_views_built_once_per_shape(self, geom, monkeypatch):
        builds = []

        class Counted(measurement._Strip):
            __slots__ = ()

            def __init__(self, floats, flags, *shape):
                builds.append(shape)
                super().__init__(floats, flags, *shape)

        monkeypatch.setattr(measurement, "_Strip", Counted)
        monkeypatch.setattr(measurement, "_SCRATCH", measurement._Scratch())
        for _ in range(2):  # two table3 passes
            for method in ("nonlinear-six", "nonlinear-twelve"):
                for offset in (0.1, 1.0):
                    monte_carlo([offset] * 3, 0.01, 1000, 1, method, 0, geom)
        assert len(builds) == len(set(builds)) == len(measurement._SCRATCH.strips) > 32

    def test_leg_line_guard(self, geom):
        # a TCP on its joint leaves the leg line without a direction
        strip = _SCRATCH.strip(len(_STACK), 4)
        strip.joints[...] = geom.L
        strip.p[...] = strip.joints
        with pytest.raises(SingularError, match="^leg line parallel to the gauge station plane$"):
            _gauge_lines(strip, np.zeros((3, 4)), geom.L)


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

    @pytest.mark.parametrize("predict", [
        lambda dr, geom: reduce(predict_double_posture(dr, geom)),
        predict_single_posture,
    ], ids=["reduced", "single-posture"])
    def test_only_double_full_sets(self, geom, predict):
        m = predict([0.1, -0.2, 0.3], geom)
        message = f"^measurement set must be DoublePostureMeasurements, got {type(m).__name__}$"
        with pytest.raises(TypeError, match=message):
            reduce(m)


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

    def test_batch_rejected(self, geom):
        batch = np.zeros((2, 3))
        with pytest.raises(ValueError, match="^gauge_locations expects a single offset triple"):
            gauge_locations(batch, geom)
        with pytest.raises(ValueError, match="^leg_line_scaling expects a single offset triple"):
            leg_line_scaling(Posture.isotropic(), Axis.X, batch, geom)


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
        # reducing the raw 12-vector noise gives variance 2 sigma^2 channels
        sigma = 0.01
        rng = np.random.default_rng(77)
        red = SCHEMES["double-reduced"].sample_noise(rng, sigma, (100000,))
        emp = np.cov(red.T)
        assert np.abs(emp - 2 * sigma**2 * np.eye(6)).max() <= 0.1 * sigma**2

    # add_noise on a zero set with sigma 0.01 mm and seed 2024, recorded
    # before the measurement-scheme registry replaced the per-type dispatch
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
    }
    # the reduced readings are the max-minus-min differences of the raw
    # double-posture draw, so their stream is the reduction of its pin
    PINNED_2024["double-reduced"] = (
        reduce(DoublePostureMeasurements.from_array(PINNED_2024["double-full"])).as_array().tolist()
    )

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None, np.float64(2.0)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(0.01, seed)
        with pytest.raises(ValueError, match="seed"):
            monte_carlo([0.0, 0.0, 0.0], 0.01, 10, 1, "six", seed)

    def test_numpy_integer_seed(self):
        assert NoiseModel(0.01, np.int64(3)).make_rng().random() == np.random.default_rng(3).random()


class TestMeasurementTypes:
    def test_array_round_trip(self):
        arr = np.arange(12.0)
        m = DoublePostureMeasurements.from_array(arr)
        np.testing.assert_allclose(m.as_array(), arr, atol=0)
        arr6 = np.arange(6.0)
        assert SinglePostureMeasurements.from_array(arr6).as_array().tolist() == arr6.tolist()
        assert ReducedMeasurements.from_array(arr6).as_array().tolist() == arr6.tolist()

    @pytest.mark.parametrize(
        "cls", [SinglePostureMeasurements, DoublePostureMeasurements, ReducedMeasurements]
    )
    def test_from_array_takes_one_row(self, cls):
        rows = np.zeros((2, len(cls._fields)))
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes one row of readings"):
            cls.from_array(rows)

    def test_add_noise_takes_a_set(self):
        with pytest.raises(TypeError, match="^unsupported measurement set type: list"):
            add_noise([0.0] * 6, NoiseModel(0.01, 0))

    def test_exact_jacobian_is_double_posture_only(self, geom):
        with pytest.raises(ValueError, match="exact Jacobian supports"):
            deviations_and_jacobian([0, 0, 0], geom, SYSTEM_SINGLE)

    def test_stack_is_the_calibration_postures(self):
        assert _STACK == calibration_postures()


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

        # the per-scheme predictor aliases return the entry's predictions
        alias = {SYSTEM_SINGLE: predict_single_posture, SYSTEM_TWELVE: predict_double_posture}
        if label in alias:
            dr = np.array([0.3, -0.2, 0.5])
            assert np.array_equal(alias[label](dr, geom).as_array(), scheme.predict(dr, geom))

        # wire keys: the row keys in file order, round-tripping through a document
        assert sorted(scheme.wire_keys) == sorted(scheme.row_keys)
        m = scheme.measurement.from_array(np.arange(n) / 7.0)
        doc = measurement_to_dict(m)
        assert doc["method"] == label
        assert tuple(doc["values"]) == scheme.wire_keys
        assert parse_measurement(doc).measurement() == m

    @pytest.mark.parametrize(
        "call, valid",
        [
            (lambda g: identify("foo", ReducedMeasurements(0, 0, 0, 0, 0, 0), g), "nonlinear-six"),
            (lambda g: offset_covariance("foo", g, 0.01), "closed-form"),
            (lambda g: monte_carlo([0.0, 0.0, 0.0], 0.01, 10, 1, "foo"), "twelve"),
            (lambda g: noise_covariance("foo", 0.01), "double-reduced"),
            (lambda g: build_system("foo", g), "single-posture"),
            (lambda g: MeasurementFile("foo", {}).measurement(), "double-full"),
            (lambda g: least_squares_solve(
                LinearSystem(np.eye(3), "foo"), ReducedMeasurements(0, 0, 0, 0, 0, 0)),
             "double-reduced"),
        ],
        ids=["identify", "offset_covariance", "monte_carlo", "noise_covariance", "build_system",
             "MeasurementFile", "LinearSystem"],
    )
    def test_unknown_name_names_the_valid_ones(self, geom, call, valid):
        with pytest.raises(ValueError, match=f"unknown .* 'foo'; expected one of .*{valid}"):
            call(geom)

    @pytest.mark.parametrize("label", list(SCHEMES))
    def test_geometry_constants_cached_read_only(self, label):
        # equal geometries share one read-only design and its solver maps
        first, second = Geometry.prototype(), Geometry.prototype()
        design = SCHEMES[label].design(first)
        assert SCHEMES[label].design(second) is design
        assert build_system(label, second).design_matrix is design
        alias = {SYSTEM_SIX: build_six_eq_system, SYSTEM_TWELVE: build_twelve_eq_system}
        if label in alias:
            assert alias[label](second).design_matrix is design
        with pytest.raises(ValueError):
            design[0, 0] = 1.0
        gain = _least_squares_gain(design)
        assert _least_squares_gain(SCHEMES[label].design(second)) is gain
        assert _least_squares_gain(design.copy()) is gain
        shared = [design, _stack_joints(first), gain]
        assert not any(a.flags.writeable for a in shared)
