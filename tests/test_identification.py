import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from orthocal import (
    ESTIMATORS,
    SCHEMES,
    SYSTEM_SINGLE,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    ConvergenceError,
    Geometry,
    NoiseModel,
    RankError,
    ReducedMeasurements,
    SinglePostureMeasurements,
    add_noise,
    build_system,
    build_six_eq_system,
    build_twelve_eq_system,
    coefficients,
    identify,
    least_squares_solve,
    measurement,
    monte_carlo,
    nonlinear_identify,
    offset_covariance,
    predict_double_posture,
    predict_single_posture,
    reduce,
    residual_report,
    solve_single_posture_closed_form,
)
from orthocal.identification import (
    LinearSystem,
    _gauss_newton,
    _gauss_newton_step,
    _least_squares_gain,
    _row_norm,
)
from orthocal.measurement import _STRIP_ROWS, deviations_and_jacobian

from conftest import EXPECTED_IMPROVEMENT, REFERENCE_OFFSETS, reduced_from_table


class TestCoefficients:
    def test_exact_values(self, geom):
        k = coefficients(geom)
        assert k.a1 == pytest.approx(0.19711363809161808, rel=1e-15)
        assert k.a2 == pytest.approx(-0.3404926197319396, rel=1e-15)
        assert k.b1 == pytest.approx(0.19339242546333602, rel=1e-15)
        assert k.c1 == pytest.approx(0.13667710360824928, rel=1e-14)
        assert k.b2 == pytest.approx(-0.32232070910556004, rel=1e-15)
        assert k.c2 == pytest.approx(-0.06049848722876122, rel=1e-14)
        assert k.b == pytest.approx(0.5157131345688961, rel=1e-15)
        assert k.c == pytest.approx(0.1971755908370105, rel=1e-14)

    def test_values_round_to_reference(self, geom):
        k = coefficients(geom)
        assert round(k.a1, 2) == 0.20
        assert round(k.a2, 2) == -0.34
        assert round(k.b1, 2) == 0.19
        assert round(k.c1, 2) == 0.14
        assert round(k.b2, 2) == -0.32
        assert k.c2 < 0 and round(abs(k.c2), 2) == 0.06
        assert round(k.b, 2) == 0.52
        assert round(k.c, 2) == 0.20

    def test_prototype_ranges(self, geom):
        k = coefficients(geom)
        assert 0.19 <= k.a1 <= 0.21
        assert -0.35 <= k.a2 <= -0.33
        assert 0.51 <= k.b <= 0.53
        assert 0.19 <= k.c <= 0.21


class TestSystems:
    def test_single_posture_rows(self, geom):
        k = coefficients(geom)
        sys = build_system(SYSTEM_SINGLE, geom)
        expected = [
            [0, 0, 1], [0, 0, 1],
            [k.a1, 0, 1], [k.a2, 0, 1],
            [0, k.a1, 1], [0, k.a2, 1],
        ]
        np.testing.assert_allclose(sys.design_matrix, expected, atol=0)

    def test_six_eq_rows(self, geom):
        k = coefficients(geom)
        sys = build_six_eq_system(geom)
        expected = [
            [k.b, k.c, 0], [k.c, k.b, 0],
            [0, k.b, k.c], [0, k.c, k.b],
            [k.b, 0, k.c], [k.c, 0, k.b],
        ]
        np.testing.assert_allclose(sys.design_matrix, expected, atol=0)

    def test_twelve_eq_block_layout(self, geom):
        k = coefficients(geom)
        J = build_twelve_eq_system(geom).design_matrix
        assert J.shape == (12, 3)
        # four rows per plane pair; coefficient pattern alternates b/c
        np.testing.assert_allclose(J[0], [k.b1, k.c1, 0], atol=0)
        np.testing.assert_allclose(J[1], [k.c1, k.b1, 0], atol=0)
        np.testing.assert_allclose(J[2], [k.b2, k.c2, 0], atol=0)
        np.testing.assert_allclose(J[3], [k.c2, k.b2, 0], atol=0)
        np.testing.assert_allclose(J[4], [0, k.b1, k.c1], atol=0)
        np.testing.assert_allclose(J[11], [k.c2, 0, k.b2], atol=0)

    def test_all_rank_three(self, geom):
        for label in SCHEMES:
            assert np.linalg.matrix_rank(build_system(label, geom).design_matrix) == 3


class TestClosedForm:
    def test_consistent_pure_z(self, geom):
        m = SinglePostureMeasurements(1, 1, 1, 1, 1, 1)
        res = solve_single_posture_closed_form(m, geom)
        np.testing.assert_allclose(res.offsets, [0, 0, 1], atol=1e-14)

    def test_recovers_small_offsets(self, geom):
        rng = np.random.default_rng(8)
        for _ in range(5):
            truth = rng.uniform(-0.1, 0.1, 3)
            m = predict_single_posture(truth, geom)
            res = solve_single_posture_closed_form(m, geom)
            np.testing.assert_allclose(res.offsets, truth, atol=1e-3)

    def test_against_pseudoinverse_on_constructed_rhs(self, geom):
        # for this right-hand side the sequential solution coincides with the
        # full pseudoinverse (identical offsets and residuals)
        m = SinglePostureMeasurements(0, 2, 1, 1, 1, 1)
        cf = solve_single_posture_closed_form(m, geom)
        ls = least_squares_solve(build_system(SYSTEM_SINGLE, geom), m)
        np.testing.assert_allclose(cf.offsets, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(ls.offsets, cf.offsets, atol=1e-12)
        np.testing.assert_allclose(ls.residuals, cf.residuals, atol=1e-12)

    def test_higher_residuals_than_pseudoinverse(self, geom):
        # generic data: the sequential solution leaves a larger residual sum
        m = SinglePostureMeasurements(0, 0, 1, 1, 1, 1)
        cf = solve_single_posture_closed_form(m, geom)
        ls = least_squares_solve(build_system(SYSTEM_SINGLE, geom), m)
        np.testing.assert_allclose(
            cf.offsets, [-0.9262865707144143, -0.9262865707144143, 0.0], rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            ls.offsets, [-0.3230642471761015, -0.3230642471761015, 0.6512264590784976],
            rtol=1e-9, atol=1e-12,
        )
        assert float(cf.residuals @ cf.residuals) == pytest.approx(3.734379949567723, rel=1e-12)
        assert float(ls.residuals @ ls.residuals) == pytest.approx(1.3024529181569957, rel=1e-12)

    def test_rejects_other_schemes(self, geom):
        with pytest.raises(TypeError, match="SinglePostureMeasurements"):
            solve_single_posture_closed_form(reduced_from_table(1), geom)

    def test_never_beats_pseudoinverse(self, geom):
        sys = build_system(SYSTEM_SINGLE, geom)
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = SinglePostureMeasurements(*rng.uniform(-2, 2, 6))
            cf = solve_single_posture_closed_form(m, geom)
            ls = least_squares_solve(sys, m)
            assert cf.residuals @ cf.residuals >= ls.residuals @ ls.residuals - 1e-12


class TestLeastSquares:
    def test_experiment2_offsets(self, geom):
        res = least_squares_solve(build_six_eq_system(geom), reduced_from_table(2))
        np.testing.assert_allclose(
            res.offsets,
            [-0.5222741618955352, 0.5988056197344764, -1.759823614432862],
            atol=1e-12,
        )
        np.testing.assert_allclose(res.offsets, REFERENCE_OFFSETS[2], atol=0.01)
        assert res.residual_rms == pytest.approx(0.19541361049696607, rel=1e-12)
        assert res.sigma_hat == pytest.approx(0.2763565782371028, rel=1e-12)

    def test_experiment2_residuals_reference(self, geom):
        res = least_squares_solve(build_six_eq_system(geom), reduced_from_table(2))
        # row order: dx_y, dy_x, dy_z, dz_y, dx_z, dz_x
        by_name = dict(
            zip(("dx_y", "dy_x", "dy_z", "dz_y", "dx_z", "dz_x"), res.residuals)
        )
        for key, target in EXPECTED_IMPROVEMENT[2].items():
            assert by_name[key] == pytest.approx(target, abs=0.015)

    def test_consistent_system_exact(self, geom):
        sys = build_six_eq_system(geom)
        rhs = sys.design_matrix @ np.array([1.0, 2.0, 3.0])
        res = least_squares_solve(sys, ReducedMeasurements.from_array(rhs))
        np.testing.assert_allclose(res.offsets, [1, 2, 3], atol=1e-12)

    def test_scaling_equivariance(self, geom):
        sys = build_six_eq_system(geom)
        m = reduced_from_table(2)
        base = least_squares_solve(sys, m)
        doubled = least_squares_solve(
            sys, ReducedMeasurements.from_array(2.0 * m.as_array())
        )
        np.testing.assert_allclose(doubled.offsets, 2.0 * base.offsets, atol=0)
        tripled = least_squares_solve(
            sys, ReducedMeasurements.from_array(3.0 * m.as_array())
        )
        np.testing.assert_allclose(tripled.offsets, 3.0 * base.offsets, rtol=1e-14)

    def test_rank_error(self):
        design = np.array([[1.0, 1.0, 2.0]] * 6)
        sys = LinearSystem(design, "double-reduced")
        with pytest.raises(RankError):
            least_squares_solve(sys, ReducedMeasurements.from_array(np.ones(6)))

    def test_perturbation_never_improves(self, geom):
        sys = build_six_eq_system(geom)
        m = reduced_from_table(2)
        res = least_squares_solve(sys, m)
        rhs = m.as_array()

        def ssr(x):
            r = rhs - sys.design_matrix @ x
            return float(r @ r)

        best = ssr(res.offsets)
        for axis in range(3):
            for delta in (0.01, -0.01):
                x = res.offsets.copy()
                x[axis] += delta
                assert ssr(x) >= best

    def test_shape_mismatch_rejected(self, geom):
        with pytest.raises(TypeError):
            least_squares_solve(
                build_six_eq_system(geom), SinglePostureMeasurements(0, 0, 0, 0, 0, 0)
            )

    @pytest.mark.parametrize("design", [np.eye(3), np.ones((6, 2)), np.ones((12, 3))])
    def test_design_shape_checked(self, design):
        # one design row per reading of the scheme, three offset columns
        sys = LinearSystem(design, "double-reduced")
        with pytest.raises(ValueError, match=r"'double-reduced' must have shape \(6, 3\)"):
            least_squares_solve(sys, ReducedMeasurements(0, 0, 0, 0, 0, 0))


def _scipy_oracle(obs_rows: np.ndarray, geom, x0) -> np.ndarray:
    """Independent nonlinear fit of the deviation model (scipy, numeric)."""
    fun = lambda dr: SCHEMES[SYSTEM_SIX].predict(dr, geom) - obs_rows  # noqa: E731
    return scipy_least_squares(fun, x0, method="lm", xtol=1e-14, ftol=1e-14).x


class TestNonlinearIdentify:
    def test_zero_measurements(self, geom):
        m = ReducedMeasurements(0, 0, 0, 0, 0, 0)
        res = nonlinear_identify(m, geom, initial=[0, 0, 0])
        np.testing.assert_allclose(res.offsets, 0.0, atol=1e-15)
        assert res.iterations <= 1
        assert res.converged

    def test_recovers_large_offsets_noise_free(self, geom):
        truth = np.array([5.0, -5.0, 5.0])
        m = reduce(predict_double_posture(truth, geom))
        res = nonlinear_identify(m, geom, initial=[0, 0, 0])
        np.testing.assert_allclose(res.offsets, truth, atol=1e-6)
        # the linear solve is visibly biased at this magnitude
        lin = least_squares_solve(build_six_eq_system(geom), m)
        assert np.abs(lin.offsets - truth).max() > 0.01

    def test_recovery_sweep(self, geom):
        rng = np.random.default_rng(31)
        for _ in range(5):
            truth = rng.uniform(-2, 2, 3)
            m = reduce(predict_double_posture(truth, geom))
            res = nonlinear_identify(m, geom)
            np.testing.assert_allclose(res.offsets, truth, atol=1e-6)
            lin = least_squares_solve(build_six_eq_system(geom), m)
            assert np.abs(lin.offsets - truth).max() <= 0.05 * np.abs(truth).max()

    def test_linear_recovery_small_offsets(self, geom):
        rng = np.random.default_rng(32)
        for _ in range(5):
            truth = rng.uniform(-0.1, 0.1, 3)
            m = reduce(predict_double_posture(truth, geom))
            lin = least_squares_solve(build_six_eq_system(geom), m)
            np.testing.assert_allclose(lin.offsets, truth, atol=1e-3)

    def test_experiment2_reference(self, geom):
        res = nonlinear_identify(reduced_from_table(2), geom)
        np.testing.assert_allclose(res.offsets, REFERENCE_OFFSETS[2], atol=0.03)
        assert res.converged

    def test_matches_scipy_oracle(self, geom):
        for run in (1, 2):
            m = reduced_from_table(run)
            mine = nonlinear_identify(m, geom)
            oracle = _scipy_oracle(m.as_array(), geom, mine.offsets)
            # the constant-Jacobian fixed point sits within a micron of the
            # exact least-squares minimizer on real data
            np.testing.assert_allclose(mine.offsets, oracle, atol=1e-3)
            exact = nonlinear_identify(m, geom, jacobian="exact")
            np.testing.assert_allclose(exact.offsets, oracle, atol=1e-5)

    # exact-Jacobian solutions and iteration counts recorded while that path
    # was a separate scalar loop stepping by numpy.linalg.lstsq
    EXACT_PINNED = {
        1: ([2.2664727001933866, 1.6491815811909436, -1.4145599040841526], 3),
        2: ([-0.5268275065389096, 0.5921073010191406, -1.7606033100538026], 3),
        3: ([0.0667431382553195, 0.14105749264094813, 0.0025126696333153593], 3),
        "noisy-full": ([1.1628108659867111, -2.07295499792714, 0.4120559863488007], 3),
    }

    @pytest.mark.parametrize("case", list(EXACT_PINNED))
    def test_exact_jacobian_pinned(self, geom, case):
        from orthocal import NoiseModel, add_noise

        if case == "noisy-full":
            m = add_noise(predict_double_posture([1.0, -2.0, 0.5], geom), NoiseModel(0.05, 9))
        else:
            m = reduced_from_table(case)
        offsets, iterations = self.EXACT_PINNED[case]
        res = nonlinear_identify(m, geom, jacobian="exact")
        assert res.iterations == iterations
        np.testing.assert_allclose(res.offsets, offsets, rtol=0, atol=1e-12)

    def test_twelve_equation_path(self, geom):
        truth = np.array([1.5, -0.5, 2.0])
        m = predict_double_posture(truth, geom)
        res = nonlinear_identify(m, geom)
        np.testing.assert_allclose(res.offsets, truth, atol=1e-6)
        assert res.method == "gauss-newton(double-full)"

    def test_twelve_equation_matches_scipy_on_noisy_data(self, geom):
        from orthocal import DoublePostureMeasurements, NoiseModel, add_noise

        truth = np.array([1.0, -2.0, 0.5])
        m = add_noise(predict_double_posture(truth, geom), NoiseModel(0.05, 9))
        mine = nonlinear_identify(m, geom)
        fun = lambda dr: SCHEMES[SYSTEM_TWELVE].predict(dr, geom) - m.as_array()  # noqa: E731
        oracle = scipy_least_squares(fun, truth, method="lm", xtol=1e-14, ftol=1e-14).x
        np.testing.assert_allclose(mine.offsets, oracle, atol=1e-3)

    def test_step_damping_on_overshooting_model(self):
        # engine stress test: a stiff cubic model whose true slope grows far
        # beyond the constant unit Jacobian, so full steps overshoot and must
        # be halved before they are accepted
        predict_calls = []

        def predict(x):
            predict_calls.append(x.copy())
            return x + 2.0 * x**3

        obs = predict(np.array([[0.5, 0.5, 0.5]]))
        history = []
        x, conv, iters, *_ = _gauss_newton(
            obs, (np.eye(3), np.eye(3)), predict, np.array([[2.0, 2.0, 2.0]]),
            objective_history=history,
        )
        assert conv[0]
        np.testing.assert_allclose(x[0], 0.5, atol=1e-8)
        # more evaluations than initial + accepted sweeps implies halving ran
        assert len(predict_calls) > iters[0] + 2
        values = [float(h[0]) for h in history]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_objective_descent(self, geom):
        m = reduced_from_table(1)
        obs = m.as_array()
        history = []
        sys = build_six_eq_system(geom)
        x0 = np.array([[2.0, 2.0, -2.0]])
        _gauss_newton(
            obs[None, :],
            (sys.design_matrix, _least_squares_gain(sys.design_matrix)),
            lambda x: SCHEMES[SYSTEM_SIX].predict(x, geom),
            x0,
            objective_history=history,
        )
        values = [float(h[0]) for h in history]
        assert len(values) >= 2
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_convergence_error(self, geom):
        with pytest.raises(ConvergenceError, match="did not converge within 1 iterations"):
            nonlinear_identify(reduced_from_table(1), geom, initial=[0, 0, 0], max_iter=1)

    @pytest.mark.parametrize("max_iter", [0, np.int64(0)], ids=["int", "numpy-int"])
    @pytest.mark.parametrize("jacobian", ["linear", "exact"])
    def test_zero_budget_fails_without_a_sweep(self, geom, jacobian, max_iter):
        # max_iter=0 is a legal budget: the linear estimate, not converged
        with pytest.raises(ConvergenceError, match="did not converge within 0 iterations"):
            nonlinear_identify(reduced_from_table(1), geom, jacobian=jacobian, max_iter=max_iter)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3)])
    def test_initial_must_be_one_triple(self, geom, shape):
        with pytest.raises(ValueError, match="initial must be a single offset triple"):
            nonlinear_identify(reduced_from_table(1), geom, initial=np.zeros(shape))

    def test_unknown_jacobian_rejected(self, geom):
        message = r"^jacobian must be 'linear' or 'exact', got 'bogus'$"
        with pytest.raises(ValueError, match=message):
            nonlinear_identify(reduced_from_table(1), geom, jacobian="bogus")

    @pytest.mark.parametrize("max_iter", [-1, True, False, 2.5, "3", None])
    def test_max_iter_must_be_a_count(self, geom, max_iter):
        with pytest.raises(ValueError, match="max_iter must be a non-negative integer"):
            nonlinear_identify(reduced_from_table(1), geom, max_iter=max_iter)

    def test_halving_exhausted_error(self, geom):
        # double-full readings at offsets (5, -5, 2.5) mm and sigma 0.1 mm on
        # which no halving of the constant-Jacobian step lowers the objective
        # at the third iteration, far inside the budget
        m = add_noise(predict_double_posture([5.0, -5.0, 2.5], geom), NoiseModel(0.1, 5))
        with pytest.raises(ConvergenceError) as info:
            nonlinear_identify(m, geom)
        assert str(info.value) == (
            "Gauss-Newton step halving exhausted after 2 of 100 iterations: "
            "no damped step lowered the objective"
        )
        # the readings themselves are solvable
        assert nonlinear_identify(m, geom, jacobian="exact").converged

    def test_gradient_check_exact_jacobian(self, geom):
        # analytic model Jacobian vs central finite differences, offsets up
        # to 2 mm
        rng = np.random.default_rng(12)
        h = 1e-5
        for label, fn in (
            ("double-full", lambda dr: predict_double_posture(dr, geom).as_array()),
            ("double-reduced", lambda dr: reduce(predict_double_posture(dr, geom)).as_array()),
        ):
            for _ in range(10):
                dr = rng.uniform(-2, 2, 3)
                J = deviations_and_jacobian(dr, geom, label)[1]
                fd = np.zeros_like(J)
                for j in range(3):
                    e = np.zeros(3)
                    e[j] = h
                    fd[:, j] = (fn(dr + e) - fn(dr - e)) / (2 * h)
                assert np.abs(J - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_exact_jacobian_reduces_to_linear_at_zero(self, geom):
        J = deviations_and_jacobian([0, 0, 0], geom, "double-full")[1]
        np.testing.assert_allclose(
            J, build_twelve_eq_system(geom).design_matrix, atol=1e-12
        )
        J6 = deviations_and_jacobian([0, 0, 0], geom, "double-reduced")[1]
        np.testing.assert_allclose(J6, build_six_eq_system(geom).design_matrix, atol=1e-12)


class TestLinearEstimateValidity:
    # joint limits near zero leave a design so near singular that the linear
    # estimate of noisy zero-offset readings lies far beyond L/10: identify
    # raises the ConvergenceError of an iterate out of domain (closed-form's
    # gain raises its own ValueError at 1e-300, test_accuracy.py)
    CASES = [(1e-300, "six"), (1e-300, "twelve"),
             (1e-100, "closed-form"), (1e-100, "six"), (1e-100, "twelve")]

    @staticmethod
    def _noisy_zero(name, geom):
        scheme = ESTIMATORS[name].scheme
        clean = scheme.measurement.from_array(scheme.predict(np.zeros(3), geom))
        return add_noise(clean, NoiseModel(0.01, 3))

    @pytest.mark.parametrize("limit, name", CASES)
    def test_estimate_beyond_bound_raises(self, limit, name):
        geom = Geometry(310.25, -limit, limit)
        m = self._noisy_zero(name, geom)
        linear = "^linear estimate out of domain: offset magnitude exceeds the model validity bound"
        with pytest.raises(ConvergenceError, match=linear):
            identify(name, m, geom)
        if name == "closed-form":
            with pytest.raises(ConvergenceError, match=linear):
                solve_single_posture_closed_form(m, geom)
            return
        # the Gauss-Newton entry of the scheme fails on the same set alike
        with pytest.raises(ConvergenceError, match="^Gauss-Newton iterate out of domain: "):
            identify(f"nonlinear-{name}", m, geom)
        # a LinearSystem carries no geometry: least squares returns the estimate
        far = least_squares_solve(build_system(ESTIMATORS[name].scheme.label, geom), m)
        assert np.abs(far.offsets).max() > 1e90 and far.converged


class TestResidualReport:
    def test_zero_offsets_raw_rms(self, geom):
        rep = residual_report([0, 0, 0], reduced_from_table(2), geom)
        assert rep.rms == pytest.approx(0.62185207244167, rel=1e-12)
        rep3 = residual_report([0, 0, 0], reduced_from_table(3), geom)
        assert rep3.rms == pytest.approx(0.21275964529643931, rel=1e-12)
        # recomputed from the recorded values; the original run sheet says 1.19
        rep1 = residual_report([0, 0, 0], reduced_from_table(1), geom)
        assert rep1.rms == pytest.approx(1.2091801630305827, rel=1e-12)

    def test_fitted_offsets_match_solver_residuals(self, geom):
        m = reduced_from_table(2)
        fit = least_squares_solve(build_six_eq_system(geom), m)
        rep = residual_report(fit.offsets, m, geom, model="linear")
        np.testing.assert_allclose(rep.residuals, fit.residuals, atol=1e-14)
        assert rep.rms == pytest.approx(0.1954, abs=1e-3)
        assert rep.sigma_hat == pytest.approx(0.2764, abs=1e-3)

    def test_nonlinear_model_variant(self, geom):
        m = reduced_from_table(2)
        fit = nonlinear_identify(m, geom)
        rep = residual_report(fit.offsets, m, geom, model="nonlinear")
        np.testing.assert_allclose(rep.residuals, fit.residuals, atol=1e-12)

    def test_single_posture_shapes(self, geom):
        m = predict_single_posture([0.05, -0.05, 0.02], geom)
        rep_lin = residual_report([0.05, -0.05, 0.02], m, geom, model="linear")
        rep_non = residual_report([0.05, -0.05, 0.02], m, geom, model="nonlinear")
        assert np.abs(rep_non.residuals).max() <= 1e-12
        assert np.abs(rep_lin.residuals).max() <= 1e-3

    def test_invalid_model(self, geom):
        with pytest.raises(ValueError):
            residual_report([0, 0, 0], reduced_from_table(1), geom, model="quadratic")

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (6, 3)])
    def test_rejects_a_batch_of_offsets(self, geom, model, shape):
        with pytest.raises(ValueError, match="residual_report expects a single offset triple"):
            residual_report(np.zeros(shape), reduced_from_table(1), geom, model=model)


def _one_level_per_call(obs, jacobian, predict_fn, x0, max_iter=100, step_tol=1e-9,
                        grad_tol=1e-12, max_halvings=20, objective_history=None, levels=None):
    """Reference damped Gauss-Newton that makes one forward-model call per
    halving level: the loop whose results the batched solver must keep.
    ``jacobian`` is a pair ``(D, P)`` or a callable giving the model
    Jacobians, called apart from ``predict_fn`` at every sweep and, for the
    returned Jacobians, at the final iterates (None with a constant design);
    with it the loop steps by the solver's own :func:`_gauss_newton_step`.
    ``levels``, if given, receives for every sweep that halves the halving
    level each still-worse row stopped at, 0 where none lowered the objective."""
    if not callable(jacobian):
        jacobian, P = jacobian
    x = np.array(x0, dtype=float, copy=True)
    r = np.subtract(predict_fn(x), obs, order="C")
    F = np.einsum("ij,ij->i", r, r)
    if objective_history is not None:
        objective_history.append(F.copy())
    n_run = x.shape[0]
    converged = np.zeros(n_run, dtype=bool)
    iterations = np.zeros(n_run, dtype=int)
    active = np.ones(n_run, dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        if callable(jacobian):
            J = jacobian(x[idx])
            grad = 2.0 * np.einsum("kn,kni->ki", r[idx], J)
        else:
            grad = 2.0 * r[idx] @ jacobian
        flat = np.linalg.norm(grad, axis=1) < grad_tol
        if flat.any():
            converged[idx[flat]] = True
            active[idx[flat]] = False
            idx = idx[~flat]
            if idx.size == 0:
                continue
        if callable(jacobian):
            step = _gauss_newton_step(J[~flat], r[idx])
        else:
            step = -(r[idx] @ P.T)
        alpha = np.ones(idx.size)
        x_try = x[idx] + step
        r_try = np.subtract(predict_fn(x_try), obs[idx], order="C")
        F_try = np.einsum("ij,ij->i", r_try, r_try)
        worse = ~(F_try < F[idx])
        halved, stop = np.flatnonzero(worse), np.zeros(idx.size, dtype=int)
        for h in range(max_halvings):
            if not worse.any():
                break
            alpha[worse] *= 0.5
            sub = np.flatnonzero(worse)
            xt = x[idx[sub]] + alpha[sub, None] * step[sub]
            rt = np.subtract(predict_fn(xt), obs[idx[sub]], order="C")
            Ft = np.einsum("ij,ij->i", rt, rt)
            x_try[sub], r_try[sub], F_try[sub] = xt, rt, Ft
            worse[sub] = ~(Ft < F[idx[sub]])
            stop[sub[~worse[sub]]] = h + 1
        if levels is not None and halved.size and max_halvings:
            levels.append(stop[halved])
        accepted = ~worse
        acc = idx[accepted]
        x[acc] = x_try[accepted]
        r[acc] = r_try[accepted]
        F[acc] = F_try[accepted]
        iterations[acc] += 1
        tiny = np.linalg.norm(alpha[:, None] * step, axis=1) < step_tol
        done = (accepted & tiny) | (worse & tiny)
        converged[idx[done]] = True
        active[idx[done | (worse & ~tiny)]] = False
        if objective_history is not None:
            objective_history.append(F.copy())
    return x, converged, iterations, r, jacobian(x) if callable(jacobian) else None


def _stiff_cubic(x):
    return x + 2.0 * x**3


class TestBlockHalving:
    """The solver evaluates several halving levels per forward-model call;
    every result must equal the one-level-per-call loop's bit for bit."""

    @staticmethod
    def _problem(geom, label, jacobian, n, spread=5.0):
        """The solver's arguments and the reference loop's: with the exact
        Jacobian the solver takes the model that returns the deviations and
        their Jacobian from one call, the reference loop the predictor and
        its own deviations_and_jacobian call."""
        scheme = SCHEMES[label]
        rng = np.random.default_rng([n, len(label), jacobian == "exact"])
        truth = rng.uniform(-spread, spread, (n, 3))
        obs = scheme.predict(truth, geom) + scheme.sample_noise(rng, 0.02, (n,))
        x0 = obs @ np.linalg.pinv(scheme.design(geom)).T
        predict = lambda x: scheme.predict(x, geom)  # noqa: E731
        if jacobian == "exact":
            model = lambda x: deviations_and_jacobian(x, geom, label)  # noqa: E731
            jac = lambda x: deviations_and_jacobian(x, geom, label)[1]  # noqa: E731
            return (obs, None, model, x0), (obs, jac, predict, x0)
        design = (scheme.design(geom), _least_squares_gain(scheme.design(geom)))
        return (obs, design, predict, x0), (obs, design, predict, x0)

    @pytest.mark.parametrize(
        "label, jacobian, n, max_iter",
        [
            (label, jacobian, n, max_iter)
            for label in (SYSTEM_SIX, SYSTEM_TWELVE)
            for jacobian in ("linear", "exact")
            for n in (1, 7, 1000, 2500)
            for max_iter in (0, 1, 2, 3, 100)
            # 2500 rows: the full-step calls span three forward strips, and
            # the rows that leave or halve are compacted across their bounds
            if n < 2500 or (jacobian == "linear" and max_iter > 1)
        ],
    )
    def test_equals_one_level_per_call(self, geom, label, jacobian, n, max_iter):
        args, oracle = self._problem(geom, label, jacobian, n)
        got_history, want_history = [], []
        got = _gauss_newton(*args, max_iter=max_iter, objective_history=got_history)
        want = _one_level_per_call(*oracle, max_iter=max_iter, objective_history=want_history)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert len(got_history) == len(want_history)
        for a, b in zip(got_history, want_history):
            assert np.array_equal(a, b)
        if n >= 1000 and max_iter < 100:
            # rows still active when the budget runs out are written back too
            converged, iterations = got[1:3]
            assert (~converged & (iterations == max_iter)).any()

    @pytest.mark.parametrize("max_halvings", [0, 1, 20])
    @pytest.mark.parametrize("jacobian", ["linear", "exact"])
    @pytest.mark.parametrize("label", [SYSTEM_SIX, SYSTEM_TWELVE])
    def test_exhausted_and_deep_levels_equal_one_level_per_call(
        self, geom, monkeypatch, label, jacobian, max_halvings
    ):
        # offsets up to 20 mm: in one sweep some rows find no level that lowers
        # the objective while others stop deep inside blocks of k > 1 levels
        args, oracle = self._problem(geom, label, jacobian, 1000, spread=20.0)
        got_history, want_history, levels = [], [], []
        monkeypatch.setattr("orthocal.identification._MAX_HALVINGS", max_halvings)
        got = _gauss_newton(*args, objective_history=got_history)
        want = _one_level_per_call(
            *oracle, max_halvings=max_halvings, objective_history=want_history, levels=levels
        )
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert len(got_history) == len(want_history)
        for a, b in zip(got_history, want_history):
            assert np.array_equal(a, b)
        if max_halvings == 20:
            assert any(
                # k > 1: the sweep's first block tries two or more levels
                2 * stop.size <= _STRIP_ROWS and (stop == 0).any() and stop.max() >= 10
                for stop in levels
            )

    @pytest.mark.parametrize("n", [1, 7])
    def test_stiff_cubic_equals_one_level_per_call(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        obs = _stiff_cubic(rng.uniform(-1.0, 1.0, (n, 3)))
        x0 = rng.uniform(1.0, 6.0, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
        args = (obs, (np.eye(3), np.eye(3)), _stiff_cubic, x0)
        for max_halvings in (0, 3, 20):
            monkeypatch.setattr("orthocal.identification._MAX_HALVINGS", max_halvings)
            got = _gauss_newton(*args, max_iter=200)
            want = _one_level_per_call(*args, max_iter=200, max_halvings=max_halvings)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("label", [SYSTEM_SIX, SYSTEM_TWELVE])
    def test_call_budget(self, geom, monkeypatch, label):
        # a paper-scale solve: one call for the start, then per sweep one for
        # the full step and one for all its halving levels
        calls = []
        stack = measurement._posture_stack
        monkeypatch.setattr(
            measurement, "_posture_stack", lambda *a: calls.append(1) or stack(*a)
        )
        rng = np.random.default_rng(4)
        for seed in range(20):
            m = predict_double_posture(rng.uniform(-1.0, 1.0, 3), geom)
            if label == SYSTEM_SIX:
                m = reduce(m)
            m = add_noise(m, NoiseModel(0.01, seed))
            calls.clear()
            res = nonlinear_identify(m, geom)
            assert len(calls) <= 2 * res.iterations + 3

    # forward-model calls of exact N = 1 solves, on test_call_budget's jobs
    EXACT_CALLS = {
        SYSTEM_SIX: [3, 3, 7, 3, 3, 3, 4, 3, 3, 4, 3, 3, 4, 3, 3, 3, 3, 10, 3, 3],
        SYSTEM_TWELVE: [4, 4, 5, 4, 5, 4, 3, 5, 3, 5, 4, 5, 3, 7, 5, 5, 3, 4, 3, 6],
    }

    @pytest.mark.parametrize("label", [SYSTEM_SIX, SYSTEM_TWELVE])
    def test_exact_call_budget_pinned(self, geom, monkeypatch, label):
        # with the exact Jacobian too, one call for the start, then per sweep
        # one for the full step and one for all its halving levels: each
        # iterate's Jacobian comes from the call that evaluated it
        calls, counts = [], []
        stack = measurement._posture_stack
        monkeypatch.setattr(
            measurement, "_posture_stack", lambda *a: calls.append(1) or stack(*a)
        )
        rng = np.random.default_rng(4)
        for seed in range(20):
            m = predict_double_posture(rng.uniform(-1.0, 1.0, 3), geom)
            if label == SYSTEM_SIX:
                m = reduce(m)
            m = add_noise(m, NoiseModel(0.01, seed))
            calls.clear()
            res = nonlinear_identify(m, geom, jacobian="exact")
            assert len(calls) <= 2 * res.iterations + 1
            counts.append(len(calls))
        assert counts == self.EXACT_CALLS[label]

    @pytest.mark.parametrize(
        "method, calls, rows",
        [("nonlinear-six", 21, 14184), ("nonlinear-twelve", 35, 21673)],
    )
    def test_table3_cell_model_calls_pinned(self, geom, monkeypatch, method, calls, rows):
        # a 1000-run Table 3 cell at 1 mm, seed 0: the forward-model calls and
        # the rows they evaluate, the work the halving blocks are sized by
        widths = []
        stack = measurement._posture_stack
        monkeypatch.setattr(
            measurement, "_posture_stack",
            lambda dr, *a: widths.append(dr.shape[-1]) or stack(dr, *a),
        )
        monte_carlo([1.0] * 3, 0.01, 1000, 1, method, 0, geom)
        assert (len(widths), sum(widths)) == (calls, rows)

    @pytest.mark.parametrize("label", [SYSTEM_SIX, SYSTEM_TWELVE])
    def test_halving_blocks_fill_one_strip(self, geom, label):
        # a block's trial points (rows, k, 3) take one forward strip when its
        # rows fit; a block with room for one more level is its sweep's last
        (obs, jac, predict, x0), _ = self._problem(geom, label, "linear", 3000, spread=20.0)
        shapes = []
        _gauss_newton(obs, jac, lambda x: shapes.append(x.shape) or predict(x), x0)
        blocks = [(i, s[0], s[1]) for i, s in enumerate(shapes) if len(s) == 3]
        assert any(k > 1 for _, _, k in blocks)
        for i, rows, k in blocks:
            if rows > _STRIP_ROWS:
                assert k == 1
                continue
            assert rows * k <= _STRIP_ROWS
            if rows * (k + 1) <= _STRIP_ROWS and i + 1 < len(shapes):
                assert len(shapes[i + 1]) == 2


def test_row_norm_equals_linalg_norm():
    # bit for bit, over magnitudes whose squares underflow or overflow and on
    # signed zeros, infinities and NaNs: this pins the order in which numpy's
    # row reduction sums three squares, (s0 + s1) + s2
    rng = np.random.default_rng(20)
    v = rng.standard_normal((10**5, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, (10**5, 3))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5e-160, 3.0e160])
    v = np.concatenate([v, np.stack(np.meshgrid(special, special, special), -1).reshape(-1, 3)])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got, want = _row_norm(v), np.linalg.norm(v, axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestResidualLayout:
    """The solver's bits depend on neither the layout of the readings nor
    that of the predictions: each residual row is summed contiguously."""

    @pytest.mark.parametrize(
        "label, jacobian, n",
        [(SYSTEM_SIX, "linear", 7), (SYSTEM_SIX, "linear", 3000), (SYSTEM_SIX, "exact", 7),
         (SYSTEM_TWELVE, "linear", 7), (SYSTEM_TWELVE, "linear", 3000),
         (SYSTEM_TWELVE, "exact", 7)],
    )
    def test_bits_independent_of_layout(self, geom, label, jacobian, n):
        # 3000 rows: above the 2731-row regime in which numpy subtracted the
        # readings in place into an F-ordered prediction of 256 KiB or more
        (obs, jac, model, x0), _ = TestBlockHalving._problem(geom, label, jacobian, n, spread=20.0)

        def relaid(layout):  # the model with its predictions in another layout
            def prediction(x):
                out = model(x)  # the exact model's is (predictions, Jacobians)
                return (layout(out[0]), out[1]) if jac is None else layout(out)

            return prediction

        predictions = [
            relaid(np.asfortranarray),
            relaid(np.ascontiguousarray),
            # a C-ordered (channels, ...) array seen as (..., channels)
            relaid(lambda p: np.moveaxis(np.ascontiguousarray(np.moveaxis(p, -1, 0)), 0, -1)),
        ]
        runs = []
        for readings in (np.asfortranarray(obs), np.ascontiguousarray(obs)):
            for prediction in predictions:
                history = []
                got = _gauss_newton(readings, jac, prediction, x0, objective_history=history)
                runs.append((got, history))
        (want, want_history), *others = runs
        assert len(want_history) > 2
        for got, history in others:
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert len(history) == len(want_history)
            for a, b in zip(history, want_history):
                assert np.array_equal(a, b)


# Two seeded N = 1 calibration jobs per method at |offset| <= 1 mm, sigma 0.01:
# simulate, add noise, identify, then sigma_rho at the estimated noise.  Values
# (offsets, iterations, sigma_hat, gradient_norm, sigma_rho) recorded before
# the solver kept its active rows compacted; every one must keep its bits.
# The exact jobs' gradient norms, at the rounding floor, were re-recorded when
# dp/drho came in closed form instead of from LAPACK's inv; they stay within
# 1e-18 of the values recorded with inv (LAPACK_GRADIENT_NORM).
SINGLE_JOB_PINNED = {
    ("linear6", 0): (
        [0.12300558940881424, -0.17250930937532255, 0.16290717408349054],
        0, 0.010928003790784398, 9.057660850705256e-17, 0.021684607614755876,
    ),
    ("linear6", 1): (
        [0.5276404416476377, -0.40874342293959764, 0.0652513065085213],
        0, 0.016109273841686807, 4.3177748948827115e-16, 0.031965882232783835,
    ),
    ("linear12", 0): (
        [0.2308091627115882, 0.8972768429281992, -0.0186122350502025],
        0, 0.016335005494022874, 2.2936593568692175e-16, 0.03374442451480091,
    ),
    ("linear12", 1): (
        [-0.39203661090941155, 0.34261037770201763, 0.8566567254671631],
        0, 0.016182313230425287, 4.876671469464644e-16, 0.03342899685456241,
    ),
    ("nonlinear6", 0): (
        [0.426588892897911, -0.27264753323530744, -0.2898468416113871],
        4, 0.013561923048763696, 1.180764450804493e-12, 0.02691113449850345,
    ),
    ("nonlinear6", 1): (
        [0.3629500314860306, -0.3063442811840771, 0.7313349096056656],
        2, 0.008118554222539608, 2.6927422555522156e-06, 0.016109773210671113,
    ),
    ("nonlinear12", 0): (
        [0.41935722703139394, 0.48512685497991975, -0.8454440138843202],
        3, 0.013156136053295162, 1.52846188357204e-08, 0.027177599672024193,
    ),
    ("nonlinear12", 1): (
        [0.5606102569835134, 0.5191912188664749, -0.8143058883354474],
        2, 0.00504365389662903, 2.7731942817469224e-06, 0.010419047502362687,
    ),
    ("nonlinear6-exact", 0): (
        [0.16559614486848384, -0.5967676063428469, -0.7836659546784194],
        2, 0.002110075728232176, 2.92813733267151e-14, 0.004187056033300541,
    ),
    ("nonlinear6-exact", 1): (
        [0.5149631601579214, 0.2718235355688434, -0.6694486848463174],
        2, 0.02297248627181182, 6.261027441835379e-14, 0.04558466123151381,
    ),
}


LAPACK_GRADIENT_NORM = {
    ("nonlinear6-exact", 0): 2.9281601833677966e-14,
    ("nonlinear6-exact", 1): 6.261118819710901e-14,
}


@pytest.mark.parametrize("name, job", list(SINGLE_JOB_PINNED))
def test_single_job_pinned(geom, name, job):
    six = "6" in name
    rng = np.random.default_rng([19, job, len(name)])
    truth = rng.uniform(-1.0, 1.0, 3)
    m = predict_double_posture(truth, geom)
    if six:
        m = reduce(m)
    m = add_noise(m, NoiseModel(0.01, int(rng.integers(2**31))))
    if name.startswith("linear"):
        res = least_squares_solve(build_system(SYSTEM_SIX if six else SYSTEM_TWELVE, geom), m)
    else:
        res = nonlinear_identify(m, geom, jacobian="exact" if name.endswith("exact") else "linear")
    sigma_rho = offset_covariance("six" if six else "twelve", geom, res.sigma_hat).sigma_rho
    offsets, *scalars = SINGLE_JOB_PINNED[name, job]
    assert res.offsets.tolist() == offsets
    assert [res.iterations, res.sigma_hat, res.gradient_norm, sigma_rho] == scalars
    if (name, job) in LAPACK_GRADIENT_NORM:
        assert abs(scalars[2] - LAPACK_GRADIENT_NORM[name, job]) <= 1e-18
