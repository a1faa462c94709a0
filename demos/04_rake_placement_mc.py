"""How much does imperfect rake placement cost?

Installation tolerances mean the rakes are not exactly where the drawing
says. Jitter the six nominal angles with Gaussian scatter, refit for each
draw, and look at the spread of the reconstructed field on a prediction
grid. With zero scatter the study collapses to the deterministic fit, bit
for bit, which is a handy self-check.

The area average reads the scatter's sample moments as it reads the
closed-form field of probe noise, so the two sources of uncertainty stand
side by side there: placement scatter against a probe imprecision of
sigma_b = 0.51 K.
"""

import numpy as np

from rakeuq import (
    AnnulusGeometry,
    FieldDistribution,
    HarmonicSet,
    MeasurementDistribution,
    SamplerConfig,
    area_average,
    build_design_matrix,
    design_matrix,
    fit,
    rake_position_mc,
    station_predictions,
)

theta = np.array([54.0, 90.0, 162.0, 234.0, 270.0, 342.0])
stations = np.linspace(0.05, 0.95, 7)
geometry = AnnulusGeometry(theta, stations, r_inner=0.45, r_outer=0.75)
model = build_design_matrix(geometry, HarmonicSet((1, 4)), beta=1e4)

span = np.linspace(0.0, 1.0, 7)
X_true = np.vstack(
    [
        520.0 + 15.0 * span,
        5.0 * (1.0 - 0.5 * span),
        2.0 + span,
        3.0 * span,
        -1.5 + 2.0 * span,
    ]
)
data = design_matrix(theta, (1, 4)) @ X_true

config = SamplerConfig(seed=42, n_samples=20_000)

exact = rake_position_mc(model, data, 0.0, config, n_prediction=90)
reference = station_predictions(
    fit(model, data).X, exact.theta_pred_deg, (1, 4)
)
print("zero scatter reproduces the deterministic fit:",
      np.array_equal(exact.grid_mean, reference))

noise = FieldDistribution.from_measurements(
    model, MeasurementDistribution.from_iid(data, sigma_b=0.51)
)
measurement = area_average(model, noise).variance

for sigma_theta in (0.51, 5.1):
    res = rake_position_mc(model, data, sigma_theta, config, n_prediction=90)
    band = 1.96 * np.sqrt(res.grid_var)
    placement = area_average(model, res).variance
    print(f"sigma_theta = {sigma_theta:4.2f} deg: "
          f"max 2 sigma band {band.max():.3f} K, "
          f"failed draws {res.n_failed}/{res.n_draws}")
    print(f"  area-average variance: placement {placement:.3g} K^2, "
          f"probe noise {measurement:.3g} K^2")
