"""The four benchmark workloads: seeded inputs, one op chain each, and the
check that every op's output must pass.

Each workload object has three methods:

* ``prepare()`` draws the next op's fresh noise from the workload's seeded
  generator and hands it to the program as its input (a campaign file, or
  arrays). It runs before the op's clock starts.
* ``run(span)`` is the timed op. It calls the public functions of rakeuq's
  modules, each inside ``span(<layer name>)``, and returns their outputs.
* ``check(out)`` compares the outputs with references computed here with
  numpy and scipy, not rakeuq, and returns the op's counters. It raises CheckFailed on a wrong
  output. It runs after the op's clock stops.

``host_kernel`` names the calibration kernel whose mix of work matches the
op's (see hostspeed.py).
"""

import json
import math
from itertools import combinations

import numpy as np
from scipy.interpolate import CubicSpline

from rakeuq import (
    DEFAULT_STATE,
    AnnulusGeometry,
    FieldDistribution,
    HarmonicSet,
    MeasurementDistribution,
    SamplerConfig,
    area_average,
    build_design_matrix,
    compute_metrics,
    fit,
    frequency_scan,
    legacy_sampling_uncertainty,
    mc_propagate_model,
    predictive_grid,
    rake_position_mc,
    rss_total,
    taylor_variance,
)
from rakeuq import io

R_INNER, R_OUTER = 0.45, 0.75
SIGMA_B = 0.51
BETA = 1e4
HARMONICS = (1, 4)
# The paper's six rakes sit on a 36-degree lattice offset by 18 degrees, so
# several harmonic pairs alias exactly and the scan has to walk the ladder.
PAPER_THETA = 18.0 + 36.0 * np.array([1.0, 2.0, 4.0, 6.0, 7.0, 9.0])
PAPER_STATIONS = np.linspace(0.05, 0.95, 7)
DENSE_RAKES, DENSE_STATIONS = 24, 20
# The `rakeuq fit` default predictive grid: 50 radii x 360 angles.
GRID_R = (np.arange(50) + 0.5) / 50
GRID_THETA = np.arange(360) + 0.5
SCAN_MAX_FREQ = 10
SCAN_PAIRS = list(combinations(range(1, SCAN_MAX_FREQ + 1), 2))
# With the default ladder the 29 aliased pairs stop at lambda = 1e-4, where
# the closed-form mean is right only by accident. Starting the ladder at 0.1
# lands them on a rung where the known ridge-moment defect shows, so
# residuals.ridge_moment_mismatch counts it.
SCAN_LADDER = (0.1, 10.0)
MC_DRAWS = 4096
RAKE_DRAWS = 2048
RAKE_SIGMA_THETA = 0.5
# Relative agreement required of a closed-form moment with its reference.
MOMENT_RTOL = 1e-9


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_close(actual, expected, what):
    """Agreement to MOMENT_RTOL relative to the largest reference entry."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    scale = float(np.max(np.abs(expected)))
    require(
        actual.shape == expected.shape and float(np.max(np.abs(actual - expected))) <= MOMENT_RTOL * scale,
        f"{what} differs from the exact reference by more than {MOMENT_RTOL:g} relative",
    )


def coefficient_truth(stations):
    """Ground-truth coefficients: mean near 520 K, gentle radial trends."""
    s = np.asarray(stations, dtype=float)
    X = np.empty((5, s.size))
    X[0] = 520.0 + 15.0 * s
    X[1] = 5.0 * (1.0 - 0.5 * s)
    X[2] = 2.0 + s
    X[3] = 3.0 * s
    X[4] = -1.5 + 2.0 * s
    return X


def harmonic_design(theta_deg, omega):
    """Rows [1, cos(w1 t), sin(w1 t), cos(w2 t), sin(w2 t), ...]."""
    t = np.deg2rad(np.asarray(theta_deg, dtype=float))[:, None]
    w = np.asarray(omega, dtype=float)[None, :]
    cols = np.empty((t.shape[0], 2 * w.shape[1] + 1))
    cols[:, 0] = 1.0
    cols[:, 1::2] = np.cos(t * w)
    cols[:, 2::2] = np.sin(t * w)
    return cols


def residual_map(A, lam):
    """K = A (A^T A + lam^2 I)^-1 A^T - I, the map from data to fit residual."""
    gram = A.T @ A + lam**2 * np.eye(A.shape[1])
    return A @ np.linalg.solve(gram, A.T) - np.eye(A.shape[0])


def exact_mean_eps(K, B, Sigma_B):
    """E ||R||_F^2 / NM = (tr Sigma_R + ||mu_R||^2) / NM for R = K B column-wise.

    Sigma_B is in vec order (rake index fastest); Sigma_R is the congruence
    (I_M kron K) Sigma_B (I_M kron K)^T, so its trace only needs the sum of
    Sigma_B's diagonal N x N blocks.
    """
    N, M = B.shape
    blocks = np.einsum("mbmc->bc", Sigma_B.reshape(M, N, M, N))
    return (float(np.sum(blocks * (K.T @ K))) + float(np.sum((K @ B) ** 2))) / (N * M)


def truth_area_mean(stations):
    """Annulus-weighted mean of the truth intercept, as the model represents it.

    The radial basis holds end-station values outside the station range; the
    truth intercept is linear in span fraction, so any spline through it is
    that line. Integrated with a 64-point Gauss-Legendre rule in r.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (R_OUTER - R_INNER)
    r = R_INNER + half * (nodes + 1.0)
    frac = np.clip((r - R_INNER) / (R_OUTER - R_INNER), stations[0], stations[-1])
    integral = half * np.sum(weights * r * (520.0 + 15.0 * frac))
    return 2.0 * integral / (R_OUTER**2 - R_INNER**2)


def op_seed(rng):
    return int(rng.integers(0, 2**31))


class FitChain:
    """paper_batch and dense_traverse: the whole `rakeuq fit` chain per op."""

    def __init__(self, theta, stations, rng, workdir, host_kernel):
        self.host_kernel = host_kernel
        self.rng = rng
        self.stations = np.asarray(stations, dtype=float)
        self.mean = harmonic_design(theta, HARMONICS) @ coefficient_truth(stations)
        self.truth_area = truth_area_mean(self.stations)
        self.doc = {
            "geometry": {
                "theta_deg": [float(t) for t in theta],
                "r_stations": self.stations.tolist(),
                "r_inner": R_INNER,
                "r_outer": R_OUTER,
            },
            "measurements": None,
            "uncertainty": {"iid": {"sigma_b": SIGMA_B}},
            "units": "K",
        }
        self.campaign_path = workdir / "campaign.json"
        self.report_path = workdir / "report.json"
        self.A = harmonic_design(theta, HARMONICS)
        self.spline = CubicSpline(self.stations, np.eye(self.stations.size), bc_type="natural")
        # Radial weights of the predictive grid, and the squared norm of the
        # area-average weight vector q (see propagated_reference).
        self.grid_w2 = np.sum(self.radial_weights(GRID_R) ** 2, axis=1)
        self.area_q2 = float(np.sum(self.area_weight_vector() ** 2))
        self.Sigma_B = SIGMA_B**2 * np.eye(self.mean.size)
        self.references = {}
        self.B = None

    def radial_weights(self, frac):
        """Natural-cubic-spline cardinal weights, held at the end stations."""
        return self.spline(np.clip(frac, self.stations[0], self.stations[-1]))

    def area_weight_vector(self):
        """q_m = integral over the span of r(f) v_m(f) dr.

        v is piecewise cubic between the stations and r is linear in f, so an
        8-point Gauss-Legendre rule per panel integrates it exactly.
        """
        nodes, weights = np.polynomial.legendre.leggauss(8)
        span = R_OUTER - R_INNER
        knots = np.unique(np.concatenate(([0.0], self.stations, [1.0])))
        q = np.zeros(self.stations.size)
        for lo, hi in zip(knots[:-1], knots[1:]):
            half = 0.5 * (hi - lo)
            f = lo + half * (nodes + 1.0)
            q += half * span * (weights * (R_INNER + span * f)) @ self.radial_weights(f)
        return q

    def propagated_reference(self, lam):
        """Exact moments under iid noise for the fit's lambda, cached per lambda.

        With P = (A^T A + lam^2 I)^-1 A^T: Sigma_X = sigma_b^2 (I_M kron P P^T);
        the area variance is norm^2 sigma_b^2 (P P^T)_00 ||q||^2; the grid
        variance at (r, theta) is sigma_b^2 ||v(r)||^2 a(theta)^T P P^T a(theta).
        """
        if lam not in self.references:
            A = self.A
            P = np.linalg.solve(A.T @ A + lam**2 * np.eye(A.shape[1]), A.T)
            PPt = SIGMA_B**2 * (P @ P.T)
            A_grid = harmonic_design(GRID_THETA, HARMONICS)
            norm = 2.0 / (R_OUTER**2 - R_INNER**2)
            self.references[lam] = {
                "K": residual_map(A, lam),
                "Sigma_X": np.kron(np.eye(self.stations.size), PPt),
                "area_variance": norm**2 * PPt[0, 0] * self.area_q2,
                "grid_var": np.outer(self.grid_w2, np.einsum("tk,kl,tl->t", A_grid, PPt, A_grid)),
            }
        return self.references[lam]

    def prepare(self):
        noise = SIGMA_B * self.rng.standard_normal(self.mean.shape)
        self.B = self.mean + noise
        self.doc["measurements"] = self.B.tolist()
        with open(self.campaign_path, "w") as handle:
            json.dump(self.doc, handle)

    def run(self, span):
        with span("io.load"):
            campaign = io.load_campaign(self.campaign_path)
        with span("fourier.design"):
            model = build_design_matrix(campaign.geometry, HarmonicSet(HARMONICS), beta=BETA)
        with span("fourier.fit"):
            coeffs = fit(model, campaign.measurements)
        with span("propagation.field"):
            field = FieldDistribution.from_measurements(model, campaign.meas, coeffs.lambda_used)
        with span("residuals.metrics"):
            metrics = compute_metrics(model, coeffs, campaign.meas, field)
        with span("area.average"):
            area = area_average(model, field)
        with span("propagation.grid"):
            _, grid_var = predictive_grid(model, field, GRID_R, GRID_THETA)
        with span("legacy"):
            legacy_value = legacy_sampling_uncertainty(campaign.measurements)
            rss = rss_total([1.96 * SIGMA_B, legacy_value])
        with span("efficiency.taylor"):
            eta = taylor_variance(DEFAULT_STATE)
        two_sigma = 1.96 * np.sqrt(grid_var)
        predictive_block = {
            "max_two_sigma": float(two_sigma.max()),
            "mean_two_sigma": float(two_sigma.mean()),
        }
        legacy_block = {"sampling_std": legacy_value, "rss_with_measurement_two_sigma": rss}
        with span("io.report"):
            report = io.build_report(
                model, coeffs, metrics, area,
                legacy_block=legacy_block,
                predictive_block=predictive_block,
                units=campaign.units,
            )
            io.write_json(report, self.report_path)
        return coeffs, field, metrics, area, grid_var, eta

    def check(self, out):
        coeffs, field, metrics, area, grid_var, eta = out
        lam = coeffs.lambda_used
        ref = self.propagated_reference(lam)
        require(
            math.isclose(metrics.eps_m_sq + metrics.eps_p_sq, metrics.mean_eps, rel_tol=1e-12),
            f"eps_m_sq + eps_p_sq = {metrics.eps_m_sq + metrics.eps_p_sq!r} "
            f"!= mean_eps = {metrics.mean_eps!r}",
        )
        require_close(field.Sigma_X, ref["Sigma_X"], "Sigma_X")
        require_close(area.variance, ref["area_variance"], "area variance")
        require_close(grid_var, ref["grid_var"], "predictive grid variance")
        require(
            area.two_sigma > 0.0 and abs(area.mean - self.truth_area) <= 5.0 * area.two_sigma,
            f"area mean {area.mean!r} is not within 5 two-sigma ({area.two_sigma!r}) "
            f"of the truth {self.truth_area!r}",
        )
        require(eta.sigma_eta > 0.0, "efficiency sigma is not positive")
        exact = exact_mean_eps(ref["K"], self.B, self.Sigma_B)
        mismatch = abs(metrics.mean_eps - exact) > MOMENT_RTOL * exact
        # As in the scan, only a ridge fit may miss the exact mean (the known defect).
        require(
            not mismatch or lam > 0.0,
            f"mean_eps {metrics.mean_eps!r} != exact {exact!r} at lambda 0",
        )
        return {
            "fourier.fits": 1,
            "fourier.ridge_fits": int(lam > 0.0),
            "residuals.ridge_moment_mismatch": int(mismatch),
        }


class BasisScan:
    """basis_scan: one frequency_scan(max_freq=10) per op on the paper lattice."""

    host_kernel = "interp"

    def __init__(self, rng):
        self.rng = rng
        self.geometry = AnnulusGeometry(PAPER_THETA, PAPER_STATIONS, R_INNER, R_OUTER)
        self.mean = harmonic_design(PAPER_THETA, HARMONICS) @ coefficient_truth(PAPER_STATIONS)
        self.designs = {pair: harmonic_design(PAPER_THETA, pair) for pair in SCAN_PAIRS}
        self.B = None

    def prepare(self):
        self.B = self.mean + SIGMA_B * self.rng.standard_normal(self.mean.shape)

    def run(self, span):
        with span("montecarlo.scan"):
            return frequency_scan(
                self.geometry, self.B, SIGMA_B,
                max_freq=SCAN_MAX_FREQ, beta=BETA, lambda_ladder=SCAN_LADDER,
            )

    def check(self, result):
        entries = result.entries
        require(len(entries) == len(SCAN_PAIRS), f"{len(entries)} scan entries, expected 45")
        require(sorted(e.omega for e in entries) == SCAN_PAIRS, "scan pairs are not 1 <= w1 < w2 <= 10")
        keys = [(e.mean_eps, e.omega) for e in entries]
        require(keys == sorted(keys), "scan entries are not sorted by mean_eps")
        N, M = self.B.shape
        iid = SIGMA_B**2 * np.eye(N * M)
        ridge = flagged = mismatch = 0
        for e in entries:
            if e.flagged:
                flagged += 1
                continue
            ridge += e.lambda_used > 0.0
            K = residual_map(self.designs[e.omega], e.lambda_used)
            exact = exact_mean_eps(K, self.B, iid)
            if abs(e.mean_eps - exact) > MOMENT_RTOL * exact:
                mismatch += 1
                # Only the ridge rungs may disagree: that is the known defect
                # counted by residuals.ridge_moment_mismatch.
                require(
                    e.lambda_used > 0.0,
                    f"pair {e.omega} at lambda 0: mean_eps {e.mean_eps!r} != exact {exact!r}",
                )
        return {
            "fourier.fits": len(entries) - flagged,
            "fourier.ridge_fits": ridge,
            "montecarlo.scan_ridge_pairs": ridge,
            "montecarlo.scan_flagged_pairs": flagged,
            "residuals.ridge_moment_mismatch": mismatch,
        }


def ar1_correlation(n, rho):
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :])


class McSampling:
    """mc_sampling: mc_propagate_model on correlated noise, then rake_position_mc."""

    host_kernel = "vector"

    def __init__(self, rng):
        self.rng = rng
        geometry = AnnulusGeometry(PAPER_THETA, PAPER_STATIONS, R_INNER, R_OUTER)
        N, M = geometry.n_rakes, geometry.n_stations
        self.model = build_design_matrix(geometry, HarmonicSet(HARMONICS), beta=BETA)
        self.mean = harmonic_design(PAPER_THETA, HARMONICS) @ coefficient_truth(PAPER_STATIONS)
        # Sigma_B = D rho D in vec order (rake fastest): neighbouring stations
        # of a rake correlate strongly, neighbouring rakes weakly.
        self.sigma = SIGMA_B * (1.0 + 0.2 * rng.random(N * M))
        self.rho = np.kron(
            ar1_correlation(M, rng.uniform(0.3, 0.6)), ar1_correlation(N, rng.uniform(0.0, 0.3))
        )
        self.Sigma_B = self.sigma[:, None] * self.rho * self.sigma[None, :]
        self.factor = np.linalg.cholesky(self.Sigma_B)
        self.K = residual_map(harmonic_design(PAPER_THETA, HARMONICS), 0.0)
        self.meas = None
        self.seeds = None

    def prepare(self):
        N, M = self.mean.shape
        noise = (self.factor @ self.rng.standard_normal(N * M)).reshape((N, M), order="F")
        self.meas = MeasurementDistribution.from_correlation(self.mean + noise, self.sigma, self.rho)
        self.seeds = op_seed(self.rng), op_seed(self.rng)

    def run(self, span):
        with span("montecarlo.mc_propagate"):
            mc = mc_propagate_model(self.model, self.meas, SamplerConfig(self.seeds[0], MC_DRAWS))
        with span("montecarlo.rake_mc"):
            rake = rake_position_mc(
                self.model, self.meas.mu_B, RAKE_SIGMA_THETA, SamplerConfig(self.seeds[1], RAKE_DRAWS)
            )
        return mc, rake

    def check(self, out):
        mc, rake = out
        exact = exact_mean_eps(self.K, self.meas.mu_B, self.Sigma_B)
        require(
            abs(mc.eps_mean - exact) <= 5.0 * mc.eps_mean_se,
            f"MC eps_mean {mc.eps_mean!r} is not within 5 standard errors "
            f"({mc.eps_mean_se!r}) of the exact {exact!r}",
        )
        require(rake.n_failed == 0, f"{rake.n_failed} rake-position draws failed")
        require(bool(np.all(np.isfinite(rake.grid_var))), "rake grid variance is not finite")
        return {
            "montecarlo.mc_draws": mc.n_samples,
            "montecarlo.rake_draws": rake.n_draws,
            "montecarlo.rake_failed": rake.n_failed,
        }


WORKLOADS = ("paper_batch", "dense_traverse", "basis_scan", "mc_sampling")


def make(name, seed, workdir):
    """Build a workload's inputs from its seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "paper_batch":
        return FitChain(PAPER_THETA, PAPER_STATIONS, rng, workdir, "interp")
    if name == "dense_traverse":
        # Irregular rakes: 15-degree spacing with +-5 degree seeded jitter.
        jitter = rng.uniform(-5.0, 5.0, DENSE_RAKES)
        theta = np.sort(np.mod(15.0 * np.arange(DENSE_RAKES) + 7.5 + jitter, 360.0))
        return FitChain(theta, np.linspace(0.05, 0.95, DENSE_STATIONS), rng, workdir, "blas")
    if name == "basis_scan":
        return BasisScan(rng)
    if name == "mc_sampling":
        return McSampling(rng)
    raise ValueError(f"unknown workload {name!r}")
