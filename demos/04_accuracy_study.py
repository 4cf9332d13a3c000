"""Noise propagation study: analytic covariance factors versus Monte-Carlo,
and why the error correlation of the twelve-equation scheme matters.
"""
import time

import numpy as np

from orthocal import (
    ESTIMATORS,
    Geometry,
    build_twelve_eq_system,
    monte_carlo,
    noise_covariance_twelve,
    offset_covariance_six,
    offset_covariance_twelve,
    propagate_covariance,
)

geom = Geometry.prototype()
sigma = 0.01

six = offset_covariance_six(geom, sigma)
twelve = offset_covariance_twelve(geom, sigma)
print(f"gauge noise sigma = {sigma} mm")
print(f"analytic offset accuracy, six equations:    sigma_rho = {six.sigma_rho:.5f} mm "
      f"({six.sigma_rho / sigma:.3f} * sigma)")
print(f"analytic offset accuracy, twelve equations: sigma_rho = {twelve.sigma_rho:.5f} mm "
      f"({twelve.sigma_rho / sigma:.3f} * sigma)")
print("per-axis standard deviations, six equations:",
      np.round(np.sqrt(np.diag(six.V)), 5))

# Ignoring the shared-isotropic-reading correlation would misstate the
# twelve-equation accuracy substantially.
J12 = build_twelve_eq_system(geom).design_matrix
V_naive = propagate_covariance(J12, 2.0 * sigma**2 * np.eye(12))
naive = np.sqrt(np.trace(V_naive) / 3)
print(f"\ntwelve equations with correlation ignored (2 sigma^2 I): {naive:.5f} mm")
print(f"with the true block covariance:                          {twelve.sigma_rho:.5f} mm")
print("correlation block (one plane pair):")
print(noise_covariance_twelve(1.0).matrix[:4, :4])

# Monte-Carlo cross-check of every estimator in the table against its
# analytic sigma_rho = sigma sqrt(trace(K S K')/3), closed form included; for
# the nonlinear estimators that is the first-order value of their start K.
# Full benchmark size is 10000 runs x 20 replications; a reduced size keeps
# this demo quick.
runs, reps = 4000, 5
print(f"\nMonte-Carlo with {runs} runs x {reps} replications (true offsets 0.1 mm):")
for name, est in ESTIMATORS.items():
    K = est.gain(geom)
    analytic = sigma * np.sqrt(np.trace(K @ est.scheme.noise_covariance @ K.T) / 3)
    start = time.perf_counter()
    rep = monte_carlo([0.1] * 3, sigma, runs, reps, name, seed=7)
    elapsed = time.perf_counter() - start
    print(f"  {name:<17} pooled std {rep.pooled_std:.5f} mm "
          f"(analytic {analytic:.5f}), "
          f"replication spread {rep.std_of_std:.6f}, {elapsed:.1f} s")
