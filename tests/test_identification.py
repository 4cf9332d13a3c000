import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from orthocal import (
    SCHEMES,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    ConvergenceError,
    NoiseModel,
    RankError,
    ReducedMeasurements,
    SinglePostureMeasurements,
    add_noise,
    build_single_posture_system,
    build_six_eq_system,
    build_twelve_eq_system,
    coefficients,
    least_squares_solve,
    measurement,
    nonlinear_identify,
    prediction_jacobian,
    predict_double_posture,
    predict_single_posture,
    reduce,
    reduced_deviation_array,
    residual_report,
    solve_single_posture_closed_form,
)
from orthocal.identification import LinearSystem, _gauss_newton, _least_squares_gain
from orthocal.measurement import _noise_double

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
        sys = build_single_posture_system(geom)
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
        for builder in (build_single_posture_system, build_six_eq_system, build_twelve_eq_system):
            assert np.linalg.matrix_rank(builder(geom).design_matrix) == 3


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
        ls = least_squares_solve(build_single_posture_system(geom), m)
        np.testing.assert_allclose(cf.offsets, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(ls.offsets, cf.offsets, atol=1e-12)
        np.testing.assert_allclose(ls.residuals, cf.residuals, atol=1e-12)

    def test_higher_residuals_than_pseudoinverse(self, geom):
        # generic data: the sequential solution leaves a larger residual sum
        m = SinglePostureMeasurements(0, 0, 1, 1, 1, 1)
        cf = solve_single_posture_closed_form(m, geom)
        ls = least_squares_solve(build_single_posture_system(geom), m)
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
        sys = build_single_posture_system(geom)
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
        sys = LinearSystem(design, "double-reduced", rhs=np.ones(6))
        with pytest.raises(RankError):
            least_squares_solve(sys)

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


def _scipy_oracle(obs_rows: np.ndarray, geom, x0) -> np.ndarray:
    """Independent nonlinear fit of the deviation model (scipy, numeric)."""
    fun = lambda dr: reduced_deviation_array(dr, geom) - obs_rows  # noqa: E731
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
        from orthocal.measurement import double_deviation_array

        truth = np.array([1.0, -2.0, 0.5])
        m = add_noise(predict_double_posture(truth, geom), NoiseModel(0.05, 9))
        mine = nonlinear_identify(m, geom)
        fun = lambda dr: double_deviation_array(dr, geom) - m.as_array()  # noqa: E731
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
        x, conv, iters, _ = _gauss_newton(
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
            lambda x: reduced_deviation_array(x, geom),
            x0,
            objective_history=history,
        )
        values = [float(h[0]) for h in history]
        assert len(values) >= 2
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_convergence_error(self, geom):
        with pytest.raises(ConvergenceError):
            nonlinear_identify(reduced_from_table(1), geom, initial=[0, 0, 0], max_iter=1)

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
                J = prediction_jacobian(dr, geom, label)
                fd = np.zeros_like(J)
                for j in range(3):
                    e = np.zeros(3)
                    e[j] = h
                    fd[:, j] = (fn(dr + e) - fn(dr - e)) / (2 * h)
                assert np.abs(J - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_exact_jacobian_reduces_to_linear_at_zero(self, geom):
        J = prediction_jacobian([0, 0, 0], geom, "double-full")
        np.testing.assert_allclose(
            J, build_twelve_eq_system(geom).design_matrix, atol=1e-12
        )
        J6 = prediction_jacobian([0, 0, 0], geom, "double-reduced")
        np.testing.assert_allclose(J6, build_six_eq_system(geom).design_matrix, atol=1e-12)


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


def _one_level_per_call(obs, jacobian, predict_fn, x0, max_iter=100, step_tol=1e-9,
                        grad_tol=1e-12, max_halvings=20):
    """Reference damped Gauss-Newton that makes one forward-model call per
    halving level: the loop whose results the batched solver must keep."""
    if not callable(jacobian):
        jacobian, P = jacobian
    x = np.array(x0, dtype=float, copy=True)
    r = predict_fn(x) - obs
    F = np.einsum("ij,ij->i", r, r)
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
            gains = np.linalg.pinv(J[~flat], rcond=np.finfo(float).eps * max(J.shape[1:]))
            step = -np.einsum("kin,kn->ki", gains, r[idx])
        else:
            step = -(r[idx] @ P.T)
        alpha = np.ones(idx.size)
        x_try = x[idx] + step
        r_try = predict_fn(x_try) - obs[idx]
        F_try = np.einsum("ij,ij->i", r_try, r_try)
        worse = ~(F_try < F[idx])
        for _h in range(max_halvings):
            if not worse.any():
                break
            alpha[worse] *= 0.5
            sub = np.flatnonzero(worse)
            xt = x[idx[sub]] + alpha[sub, None] * step[sub]
            rt = predict_fn(xt) - obs[idx[sub]]
            Ft = np.einsum("ij,ij->i", rt, rt)
            x_try[sub], r_try[sub], F_try[sub] = xt, rt, Ft
            worse[sub] = ~(Ft < F[idx[sub]])
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
    return x, converged, iterations, r


def _stiff_cubic(x):
    return x + 2.0 * x**3


class TestBlockHalving:
    """The solver evaluates several halving levels per forward-model call;
    every result must equal the one-level-per-call loop's bit for bit."""

    @staticmethod
    def _problem(geom, label, jacobian, n):
        scheme = SCHEMES[label]
        rng = np.random.default_rng([n, len(label), jacobian == "exact"])
        truth = rng.uniform(-5.0, 5.0, (n, 3))
        obs = scheme.predict(truth, geom) + scheme.from_full(_noise_double(rng, 0.02, (n,)))
        x0 = obs @ np.linalg.pinv(scheme.design(geom)).T
        if jacobian == "exact":
            jac = lambda x: prediction_jacobian(x, geom, label)  # noqa: E731
        else:
            jac = (scheme.design(geom), _least_squares_gain(scheme.design(geom)))
        return obs, jac, lambda x: scheme.predict(x, geom), x0

    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("jacobian", ["linear", "exact"])
    @pytest.mark.parametrize("label", [SYSTEM_SIX, SYSTEM_TWELVE])
    def test_equals_one_level_per_call(self, geom, label, jacobian, n):
        args = self._problem(geom, label, jacobian, n)
        for got, want in zip(_gauss_newton(*args), _one_level_per_call(*args)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 7])
    def test_stiff_cubic_equals_one_level_per_call(self, n):
        rng = np.random.default_rng(n)
        obs = _stiff_cubic(rng.uniform(-1.0, 1.0, (n, 3)))
        x0 = rng.uniform(1.0, 6.0, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
        args = (obs, (np.eye(3), np.eye(3)), _stiff_cubic, x0)
        for max_halvings in (0, 3, 20):
            got = _gauss_newton(*args, max_iter=200, max_halvings=max_halvings)
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
