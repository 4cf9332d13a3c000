import math
import warnings

import numpy as np
import pytest

from orthocal import (
    ESTIMATORS,
    GAUGE_CORRELATION_BLOCK,
    SCHEMES,
    SYSTEM_SINGLE,
    SYSTEM_SIX,
    SYSTEM_TWELVE,
    ConvergenceError,
    Geometry,
    RankError,
    build_system,
    build_twelve_eq_system,
    coefficients,
    least_squares_solve,
    monte_carlo,
    noise_covariance,
    nonlinear_identify,
    offset_covariance,
    offset_covariance_six,
    offset_covariance_twelve,
    solve_single_posture_closed_form,
)
from orthocal.identification import _least_squares_gain


def _sandwich(design, noise):
    """The oracle ``pinv(D) S pinv(D)'``: the covariance of least squares on
    design ``D`` under reading-error covariance ``S``."""
    K = np.linalg.pinv(design)
    return K @ noise @ K.T


class TestNoiseCovariance:
    def test_six_is_scaled_identity(self):
        cov = noise_covariance(SYSTEM_SIX, 0.5)
        np.testing.assert_allclose(cov, 2 * 0.25 * np.eye(6), atol=0)

    def test_twelve_is_block_g(self):
        cov = noise_covariance(SYSTEM_TWELVE, 2.0)
        expected = 4.0 * np.kron(np.eye(3), GAUGE_CORRELATION_BLOCK)
        np.testing.assert_allclose(cov, expected, atol=0)
        # symmetric positive semidefinite
        np.testing.assert_allclose(cov, cov.T, atol=0)
        assert np.linalg.eigvalsh(cov).min() >= 0


class TestAnalyticPropagation:
    def test_identity_design(self):
        sigma = 0.3
        V = _sandwich(np.eye(3), 2 * sigma**2 * np.eye(3))
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
        V = _sandwich(J, sigma**2 * np.eye(12))
        np.testing.assert_allclose(
            V, np.linalg.inv(J.T @ J) * sigma**2, atol=1e-15
        )

    def test_correlation_matters(self, geom):
        # dropping the true correlation (using 2I) shifts sigma_rho by far
        # more than 1%
        J = build_twelve_eq_system(geom).design_matrix
        V_wrong = _sandwich(J, 2.0 * np.eye(12))
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

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_cached_maps_give_propagated_covariance(self, name):
        # the per-Geometry maps must not move a bit of V: V = K S K' with the
        # estimator's own gain, pinv(D) for least squares; the per-scheme
        # aliases give the same bits
        est = ESTIMATORS[name]
        label = est.scheme.label
        alias = {"six": offset_covariance_six, "twelve": offset_covariance_twelve}.get(name)
        for geom in (Geometry.prototype(), Geometry(L=250.0, rho_min=-80.0, rho_max=70.0)):
            design = SCHEMES[label].design(geom)
            K = est.gain(geom)
            for sigma in (0.0, 0.01, 0.037, 1.0):
                noise = sigma**2 * SCHEMES[label].noise_covariance
                assert np.array_equal(noise_covariance(label, sigma), noise)
                V = offset_covariance(name, geom, sigma).V
                assert np.array_equal(V, K @ noise @ K.T)
                if name != "closed-form":
                    assert np.array_equal(V, _sandwich(design, noise))
                if alias is not None:
                    assert np.array_equal(alias(geom, sigma).V, V)

    def test_rank_error(self):
        with pytest.raises(RankError):
            _least_squares_gain(np.ones((6, 3)))

    def test_negative_sigma_rejected(self, geom):
        # a finite sigma whose covariance overflows is rejected as well
        for sigma in (-1.0, np.inf, np.nan, 1e154, 1e200):
            with pytest.raises(ValueError, match="sigma"):
                offset_covariance_six(geom, sigma)

    @pytest.mark.parametrize("label", list(SCHEMES))
    def test_noise_covariance_rejects_bad_sigma(self, label):
        # 1e154 squares to a finite 1e308 that the unit covariance overflows
        for sigma in (-1.0, np.nan, 1e154, 1e200):
            with pytest.raises(ValueError, match="sigma"):
                noise_covariance(label, sigma)

    @pytest.mark.parametrize("label", list(SCHEMES))
    def test_noise_overflow_rule_is_elementwise(self, label):
        # the scalar test sigma^2 max(S0) decides as the test of every entry
        # of sigma^2 S0, on both sides of the overflow edge sqrt(max / 2)
        edge = math.sqrt(np.finfo(float).max / 2.0)
        sigmas = [edge * 1.5, edge / 1.5]
        for direction in (0.0, math.inf):
            sigma = edge
            for _ in range(5):
                sigmas.append(sigma)
                sigma = math.nextafter(sigma, direction)
        for sigma in sigmas:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(sigma * sigma * SCHEMES[label].noise_covariance).all()
            try:
                noise_covariance(label, sigma)
            except ValueError:
                assert not finite
            else:
                assert finite

    def test_integer_sigma_squared_as_a_float(self, geom):
        # an int squares past the float range and a numpy integer wraps: both
        # are squared as the float they equal
        for call in (lambda: offset_covariance("six", geom, 10**200),
                     lambda: monte_carlo([0.1] * 3, 10**200, 10, 1)):
            with pytest.raises(ValueError, match=r"^sigma 1e\+200 overflows the noise covariance$"):
                call()
        wide = offset_covariance("six", geom, np.int64(2**40))
        assert wide.sigma_rho == offset_covariance("six", geom, float(2**40)).sigma_rho > 0
        assert np.array_equal(noise_covariance(SYSTEM_SIX, 3), noise_covariance(SYSTEM_SIX, 3.0))

    def test_offset_covariance_overflow_named(self, geom):
        # the noise covariance of this sigma is finite; K S K' is not
        assert np.isfinite(noise_covariance(SYSTEM_TWELVE, 9e153)).all()
        with pytest.raises(ValueError, match=r"^sigma 9e\+153 overflows the offset covariance$"):
            offset_covariance("twelve", geom, 9e153)

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_joint_limits_that_overflow_named(self, name):
        # limits near zero leave the design near singular: the error names
        # them, not the unit sigma; at sigma 0 the least-squares covariance is
        # 0, while closed-form's gain divides by a zero that they underflow to
        flat = Geometry(310.25, -1e-300, 1e-300)
        limits = "joint limits rho_min=-1e-300, rho_max=1e-300"
        message = f"^{limits} overflow the {name} offset covariance$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                offset_covariance(name, flat, 1.0)
            if name != "closed-form":
                assert offset_covariance(name, flat, 0.0).sigma_rho == 0.0
                return
            with pytest.raises(ValueError, match=message):
                offset_covariance(name, flat, 0.0)
            zero = SCHEMES[SYSTEM_SINGLE].measurement.from_array(np.zeros(6))
            with pytest.raises(ValueError, match=message):
                solve_single_posture_closed_form(zero, flat)


class TestClosedFormCovariance:
    def test_own_map_not_pseudoinverse(self, geom):
        sigma = 0.01
        cov = offset_covariance("closed-form", geom, sigma)
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
        pinv_V = _sandwich(build_system(SYSTEM_SINGLE, geom).design_matrix, 2 * sigma**2 * np.eye(6))
        pinv_sigma_rho = np.sqrt(np.trace(pinv_V) / 3)

        # the two factors differ by 3%; 40000 runs resolve that to ~0.3%
        empirical = monte_carlo([0.3, -0.2, 0.5], sigma, 40000, 1, "closed-form", seed=0).pooled_std
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

    @pytest.mark.parametrize(
        "method, offset, pooled",
        [
            ("nonlinear-six", 0.1, 0.01993843752383986),
            ("nonlinear-six", 1.0, 0.019983018314432194),
            ("nonlinear-twelve", 0.1, 0.02074367468131482),
            ("nonlinear-twelve", 1.0, 0.020781894223511115),
        ],
    )
    def test_table3_pass_pinned(self, geom, method, offset, pooled):
        # the benchmark's gated table3 pass (seed 0, 1000 runs, sigma 0.01),
        # bit for bit: the forward model may change only in speed
        rep = monte_carlo([offset] * 3, 0.01, 1000, 1, method, 0, geom)
        assert rep.failed_runs == 0
        assert rep.pooled_std == pooled

    @pytest.mark.parametrize(
        "method, pooled, mean",
        [
            ("nonlinear-six", 0.01995611819732868,
             [-0.00024608814629958296, 0.00024737119088199, 0.000247658760783495]),
            ("nonlinear-twelve", 0.020785271871616277,
             [-0.0001991874926261572, 0.00010586669673389498, 0.0003139212964015426]),
        ],
    )
    def test_large_pass_pinned(self, geom, method, pooled, mean):
        # 6000 runs, bit for bit: the start and full-step calls span several
        # of the forward model's strips
        rep = monte_carlo([1.0] * 3, 0.01, 6000, 1, method, 0, geom)
        assert rep.failed_runs == 0
        assert rep.pooled_std == pooled
        assert rep.per_axis_mean.tolist() == mean

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
            noise = scheme.sample_noise(np.random.default_rng(seed), 0.02, (1,))
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
        # offsets inside the validity bound whose Gauss-Newton iterates leave it
        with pytest.raises(ConvergenceError, match="iterate out of domain: .* validity bound"):
            monte_carlo([30.0] * 3, 0.5, 2000, 1, "nonlinear-six", 0)

    def test_failure_rate_too_high(self):
        # every iterate stays in the domain, but 106 of the runs end without
        # converging: more than the Monte-Carlo tolerates
        message = "^Monte-Carlo failure rate too high: 106 of 2000 runs$"
        with pytest.raises(ConvergenceError, match=message):
            monte_carlo([10.0] * 3, 0.01, 2000, 1, "nonlinear-twelve")

    def test_failure_rate_just_above_the_limit(self):
        # 4 failed runs of 2000 are 0.2%: above the 0.1% limit, below 1%
        message = "^Monte-Carlo failure rate too high: 4 of 2000 runs$"
        with pytest.raises(ConvergenceError, match=message):
            monte_carlo([7.0] * 3, 0.01, 2000, 1, "nonlinear-twelve", 0)

    def test_std_of_std_is_the_sample_spread(self):
        # replication k is the single-replication run at seed + k; std_of_std
        # is the sample (ddof=1) spread of their pooled stds
        rep = monte_carlo([0.1] * 3, 0.01, 200, 3, "nonlinear-six", 5)
        pooled = [monte_carlo([0.1] * 3, 0.01, 200, 1, "nonlinear-six", s).pooled_std
                  for s in (5, 6, 7)]
        assert rep.pooled_std == np.mean(pooled)
        assert rep.std_of_std == np.std(pooled, ddof=1)
