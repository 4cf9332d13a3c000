"""Noise propagation study: analytic covariance factors versus Monte-Carlo,
and why the error correlation of the twelve-equation scheme matters.
"""
import time

import numpy as np

from orthocal import (
    ESTIMATORS,
    SYSTEM_TWELVE,
    Geometry,
    build_system,
    monte_carlo,
    noise_covariance,
    offset_covariance,
)

geom = Geometry.prototype()
sigma = 0.01

six = offset_covariance("six", geom, sigma)
twelve = offset_covariance("twelve", geom, sigma)
print(f"gauge noise sigma = {sigma} mm")
print(f"analytic offset accuracy, six equations:    sigma_rho = {six.sigma_rho:.5f} mm "
      f"({six.sigma_rho / sigma:.3f} * sigma)")
print(f"analytic offset accuracy, twelve equations: sigma_rho = {twelve.sigma_rho:.5f} mm "
      f"({twelve.sigma_rho / sigma:.3f} * sigma)")
print("per-axis standard deviations, six equations:",
      np.round(np.sqrt(np.diag(six.V)), 5))

# Ignoring the shared-isotropic-reading correlation would misstate the
# twelve-equation accuracy substantially.
J12 = build_system(SYSTEM_TWELVE, geom).design_matrix
K12 = np.linalg.pinv(J12)  # the least-squares gain
V_naive = K12 @ (2.0 * sigma**2 * np.eye(12)) @ K12.T
naive = np.sqrt(np.trace(V_naive) / 3)
print(f"\ntwelve equations with correlation ignored (2 sigma^2 I): {naive:.5f} mm")
print(f"with the true block covariance:                          {twelve.sigma_rho:.5f} mm")
print("correlation block (one plane pair):")
print(noise_covariance(SYSTEM_TWELVE, 1.0)[:4, :4])

# Monte-Carlo cross-check of every estimator in the table against its
# analytic sigma_rho = sqrt(trace(K S K')/3) with S the reading-error
# covariance, closed form included; for the nonlinear estimators that is the
# first-order value of their start K.
# Full benchmark size is 10000 runs x 20 replications; a reduced size keeps
# this demo quick.
runs, reps = 4000, 5
print(f"\nMonte-Carlo with {runs} runs x {reps} replications (true offsets 0.1 mm):")
for name in ESTIMATORS:
    analytic = offset_covariance(name, geom, sigma).sigma_rho
    start = time.perf_counter()
    rep = monte_carlo([0.1] * 3, sigma, runs, reps, name, seed=7)
    elapsed = time.perf_counter() - start
    print(f"  {name:<17} pooled std {rep.pooled_std:.5f} mm "
          f"(analytic {analytic:.5f}), "
          f"replication spread {rep.std_of_std:.6f}, {elapsed:.1f} s")
