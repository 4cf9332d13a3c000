import numpy as np
import pytest

from orthocal import (
    ESTIMATORS,
    GAUGE_CORRELATION_BLOCK,
    SCHEMES,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    CovarianceStructure,
    Geometry,
    NoiseModel,
    RankError,
    add_noise,
    build_single_posture_system,
    build_system,
    build_twelve_eq_system,
    coefficients,
    least_squares_solve,
    monte_carlo,
    noise_covariance_six,
    noise_covariance_twelve,
    nonlinear_identify,
    offset_covariance_closed_form,
    offset_covariance_six,
    offset_covariance_twelve,
    predict_single_posture,
    propagate_covariance,
    solve_single_posture_closed_form,
)
from orthocal.measurement import _noise_double


class TestNoiseCovariance:
    def test_six_is_scaled_identity(self):
        cov = noise_covariance_six(0.5)
        assert cov.structure is CovarianceStructure.SCALED_IDENTITY
        np.testing.assert_allclose(cov.matrix, 2 * 0.25 * np.eye(6), atol=0)

    def test_twelve_is_block_g(self):
        cov = noise_covariance_twelve(2.0)
        assert cov.structure is CovarianceStructure.BLOCK_G
        expected = 4.0 * np.kron(np.eye(3), GAUGE_CORRELATION_BLOCK)
        np.testing.assert_allclose(cov.matrix, expected, atol=0)
        # symmetric positive semidefinite
        np.testing.assert_allclose(cov.matrix, cov.matrix.T, atol=0)
        assert np.linalg.eigvalsh(cov.matrix).min() >= 0


class TestAnalyticPropagation:
    def test_identity_design(self):
        sigma = 0.3
        V = propagate_covariance(np.eye(3), 2 * sigma**2 * np.eye(3))
        np.testing.assert_allclose(V, 2 * sigma**2 * np.eye(3), atol=1e-15)
        assert np.sqrt(np.trace(V) / 3) == pytest.approx(np.sqrt(2) * sigma, rel=1e-12)

    def test_six_equation_factor(self, geom):
        cov = offset_covariance_six(geom, 1.0)
        assert cov.sigma_rho == pytest.approx(1.9843155282433684, rel=1e-12)
        assert cov.sigma_rho == pytest.approx(1.98, abs=0.01)

    def test_twelve_equation_factor(self, geom):
        cov = offset_covariance_twelve(geom, 1.0)
        assert cov.sigma_rho == pytest.approx(2.065773686280565, rel=1e-12)
        assert cov.sigma_rho == pytest.approx(2.06, abs=0.01)

    def test_six_beats_twelve(self, geom):
        assert (
            offset_covariance_twelve(geom, 1.0).sigma_rho
            > offset_covariance_six(geom, 1.0).sigma_rho
        )

    def test_linear_in_sigma(self, geom):
        base = offset_covariance_six(geom, 0.01).sigma_rho
        assert offset_covariance_six(geom, 0.02).sigma_rho == pytest.approx(
            2 * base, rel=1e-14
        )

    def test_sandwich_collapses_for_identity_correlation(self, geom):
        J = build_twelve_eq_system(geom).design_matrix
        sigma = 0.7
        V = propagate_covariance(J, sigma**2 * np.eye(12))
        np.testing.assert_allclose(
            V, np.linalg.inv(J.T @ J) * sigma**2, atol=1e-15
        )

    def test_correlation_matters(self, geom):
        # dropping the true correlation (using 2I) shifts sigma_rho by far
        # more than 1%
        J = build_twelve_eq_system(geom).design_matrix
        V_wrong = propagate_covariance(J, 2.0 * np.eye(12))
        wrong = np.sqrt(np.trace(V_wrong) / 3)
        true = offset_covariance_twelve(geom, 1.0).sigma_rho
        assert abs(wrong - true) / true > 0.01
        assert wrong == pytest.approx(2.6398447319376848, rel=1e-12)

    def test_covariance_properties(self, geom):
        for cov in (offset_covariance_six(geom, 0.13), offset_covariance_twelve(geom, 0.13)):
            V = cov.V
            assert np.abs(V - V.T).max() <= 1e-14 * np.abs(V).max()
            assert np.linalg.eigvalsh(V).min() > 0
            assert cov.sigma_rho == pytest.approx(np.sqrt(np.trace(V) / 3), rel=1e-15)

    @pytest.mark.parametrize(
        "fn, label",
        [(offset_covariance_six, SYSTEM_SIX), (offset_covariance_twelve, SYSTEM_TWELVE)],
    )
    def test_cached_maps_give_propagated_covariance(self, fn, label):
        # the per-Geometry maps must not move a bit of V
        for geom in (Geometry.prototype(), Geometry(L=250.0, rho_min=-80.0, rho_max=70.0)):
            design = SCHEMES[label].design(geom)
            for sigma in (0.0, 0.01, 0.037, 1.0):
                noise = sigma**2 * SCHEMES[label].noise_covariance
                assert np.array_equal(fn(geom, sigma).V, propagate_covariance(design, noise))

    def test_rank_error(self):
        with pytest.raises(RankError):
            propagate_covariance(np.ones((6, 3)), np.eye(6))

    def test_negative_sigma_rejected(self, geom):
        # a finite sigma whose covariance overflows is rejected as well
        for sigma in (-1.0, np.inf, np.nan, 1e154, 1e200):
            with pytest.raises(ValueError, match="sigma"):
                offset_covariance_six(geom, sigma)

    @pytest.mark.parametrize("fn", [noise_covariance_six, noise_covariance_twelve])
    def test_noise_covariance_rejects_bad_sigma(self, fn):
        # 1e154 squares to a finite 1e308 that the unit covariance overflows
        for sigma in (-1.0, np.nan, 1e154, 1e200):
            with pytest.raises(ValueError, match="sigma"):
                fn(sigma)


class TestClosedFormCovariance:
    def test_own_map_not_pseudoinverse(self, geom):
        sigma = 0.01
        cov = offset_covariance_closed_form(geom, sigma)
        # the map of the sequential solution, written out from its formulas
        k = coefficients(geom)
        den = k.a1**2 + k.a2**2
        iso = -(k.a1 + k.a2) / (2 * den)
        K = np.array([
            [iso, iso, k.a1 / den, k.a2 / den, 0, 0],
            [iso, iso, 0, 0, k.a1 / den, k.a2 / den],
            [0.5, 0.5, 0, 0, 0, 0],
        ])
        np.testing.assert_allclose(cov.V, 2 * sigma**2 * K @ K.T, rtol=1e-12, atol=1e-20)
        assert cov.sigma_rho == pytest.approx(3.0853223 * sigma, rel=1e-7)
        pinv_V = propagate_covariance(
            build_single_posture_system(geom).design_matrix, 2 * sigma**2 * np.eye(6)
        )
        pinv_sigma_rho = np.sqrt(np.trace(pinv_V) / 3)

        clean = predict_single_posture([0.3, -0.2, 0.5], geom)
        est = np.array([
            solve_single_posture_closed_form(add_noise(clean, NoiseModel(sigma, s)), geom).offsets
            for s in range(4000)
        ])
        empirical = np.sqrt(np.trace(np.cov(est.T)) / 3)
        assert empirical == pytest.approx(cov.sigma_rho, rel=0.02)
        assert abs(empirical - cov.sigma_rho) < abs(empirical - pinv_sigma_rho)


class TestMonteCarlo:
    def test_noiseless_recovery(self, geom):
        rep = monte_carlo([0.5, -0.5, 0.5], 0.0, runs=20, replications=2,
                          method="nonlinear-six", seed=1)
        assert np.abs(rep.per_axis_mean).max() <= 1e-6
        assert rep.pooled_std == 0.0
        assert rep.failed_runs == 0

    def test_deterministic_under_seed(self, geom):
        a = monte_carlo([0.1] * 3, 0.01, 500, 2, "six", seed=7)
        b = monte_carlo([0.1] * 3, 0.01, 500, 2, "six", seed=7)
        assert a.pooled_std == b.pooled_std
        np.testing.assert_allclose(a.per_axis_mean, b.per_axis_mean, atol=0)
        c = monte_carlo([0.1] * 3, 0.01, 500, 2, "six", seed=8)
        assert a.pooled_std != c.pooled_std

    def test_replication_streams_are_shifted_seeds(self, geom):
        # replication r uses seed + r, so a two-replication report matches
        # two one-replication reports at consecutive seeds
        both = monte_carlo([0.1] * 3, 0.01, 300, 2, "six", seed=40)
        first = monte_carlo([0.1] * 3, 0.01, 300, 1, "six", seed=40)
        second = monte_carlo([0.1] * 3, 0.01, 300, 1, "six", seed=41)
        assert both.pooled_std == pytest.approx(
            (first.pooled_std + second.pooled_std) / 2, rel=1e-15
        )

    @pytest.mark.parametrize("method, factor", [("six", 1.9843155282433684),
                                                ("twelve", 2.065773686280565),
                                                ("closed-form", 3.0853223201044044)])
    def test_matches_analytic_covariance(self, geom, method, factor):
        # pooled Monte-Carlo std vs the analytic propagation, 3% at 1e4 runs
        sigma = 0.01
        rep = monte_carlo([0.1] * 3, sigma, runs=10000, replications=1,
                          method=method, seed=2)
        assert rep.pooled_std == pytest.approx(factor * sigma, rel=0.03)

    def test_linear_unbiased_at_small_offsets(self, geom):
        sigma = 0.01
        rep = monte_carlo([0.1] * 3, sigma, runs=10000, replications=1,
                          method="six", seed=3)
        bound = 4 * 1.9843155282433684 * sigma / np.sqrt(10000)
        assert np.abs(rep.per_axis_mean).max() <= bound

    def test_nonlinear_unbiased_at_large_offsets(self, geom):
        rep = monte_carlo([1.0] * 3, 0.01, runs=4000, replications=1,
                          method="nonlinear-six", seed=4)
        assert np.abs(rep.per_axis_mean).max() <= 1e-3
        # the linear estimator carries a visible linearization bias there
        lin = monte_carlo([1.0] * 3, 0.01, runs=4000, replications=1,
                          method="six", seed=4)
        assert np.abs(lin.per_axis_mean).max() > 2e-3

    def test_pooled_is_square_averaged(self, geom):
        rep = monte_carlo([0.1] * 3, 0.01, 2000, 1, "six", seed=5)
        assert rep.pooled_std == pytest.approx(
            np.sqrt((rep.per_axis_std**2).mean()), rel=1e-12
        )

    def test_single_replication_has_no_spread(self, geom):
        rep = monte_carlo([0.1] * 3, 0.01, 100, 1, "six", seed=6)
        assert rep.std_of_std is None

    @pytest.mark.parametrize("method", list(ESTIMATORS))
    def test_same_readings_as_scalar_estimators(self, geom, method):
        # one run draws its readings as below; the scalar estimator given the
        # same readings must return the same bits
        truth = np.array([0.5, -1.0, 2.0])
        est = ESTIMATORS[method]
        scheme = est.scheme
        for seed in range(20):
            rep = monte_carlo(truth, 0.02, 1, 1, method, seed, geom)
            rng = np.random.default_rng(seed)
            if scheme.from_full is None:
                noise = scheme.sample_noise(rng, 0.02, (1,))
            else:
                noise = scheme.from_full(_noise_double(rng, 0.02, (1,)))
            m = scheme.measurement.from_array(scheme.predict(truth, geom) + noise[0])
            if method == "closed-form":
                res = solve_single_posture_closed_form(m, geom)
            elif est.nonlinear:
                res = nonlinear_identify(m, geom)
            else:
                res = least_squares_solve(build_system(scheme.label, geom), m)
            assert np.array_equal(rep.per_axis_mean, res.offsets - truth)

    def test_validation(self, geom):
        with pytest.raises(ValueError):
            monte_carlo([0, 0, 0], 0.01, 0, 1, "six", 0)
        with pytest.raises(ValueError):
            monte_carlo([0, 0, 0], 0.01, 10, 0, "six", 0)
        with pytest.raises(ValueError):
            monte_carlo([0, 0, 0], -0.01, 10, 1, "six", 0)
        with pytest.raises(ValueError, match="sigma"):
            monte_carlo([0, 0, 0], np.inf, 10, 1, "nonlinear-six", 0)
        with pytest.raises(ValueError):
            monte_carlo([0, 0, 0], 0.01, 10, 1, "newton", 0)
