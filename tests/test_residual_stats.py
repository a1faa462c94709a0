import numpy as np
import pytest
from scipy import integrate, stats

from rakeuq import (
    AnnulusGeometry,
    FieldDistribution,
    HarmonicSet,
    InvalidParams,
    MeasurementDistribution,
    RequiresIidNoise,
    SamplerConfig,
    TooFewSamples,
    build_design_matrix,
    chi_square_params,
    compute_metrics,
    design_matrix,
    fit,
    frequency_scan,
    mc_propagate_model,
    noncentral_chisq_pdf,
    sampling_metric,
)

from conftest import (
    BETA,
    ENGINE_THETA,
    R_INNER,
    R_OUTER,
    SCAN_THETA,
    SIGMA_B,
    STATIONS,
    coefficient_truth,
    random_psd,
    readme_readings,
)


def test_in_span_degrees_of_freedom(engine_field):
    # M stations times (N - 2k - 1) leftover directions: 7 * (6 - 5) = 7
    params = chi_square_params(engine_field)
    assert params.g == 7
    assert params.phi == pytest.approx(0.0, abs=1e-9)


def test_noncentrality_equals_scaled_residual_norm(engine_model, truth):
    # with iid noise and a projection fit, Sigma_R^+ = (I - H) / sigma^2 and
    # the residual mean already lies in its range, so phi is just
    # ||mu_R||^2 / sigma^2
    contaminated = engine_model.A @ truth
    contaminated += 0.8 * np.cos(3.0 * np.radians(ENGINE := engine_model.geometry.theta_deg))[:, None]
    meas = MeasurementDistribution.from_iid(contaminated, SIGMA_B)
    field = FieldDistribution.from_measurements(engine_model, meas)
    params = chi_square_params(field)
    expected_phi = np.sum(field.mu_R**2) / SIGMA_B**2
    assert params.phi == pytest.approx(expected_phi, rel=1e-9)
    assert params.g == 7


def test_degrees_of_freedom_ignores_noise_level(engine_model, engine_data):
    for sb in (0.1, 0.51, 5.0):
        meas = MeasurementDistribution.from_iid(engine_data, sb)
        field = FieldDistribution.from_measurements(engine_model, meas)
        assert chi_square_params(field).g == 7


def test_noncentrality_scales_inversely_with_variance(engine_model, truth):
    data = engine_model.A @ truth
    data[0, :] += 1.0  # push the data off the model span
    phis = []
    for sb in (0.51, 1.02):
        meas = MeasurementDistribution.from_iid(data, sb)
        field = FieldDistribution.from_measurements(engine_model, meas)
        phis.append(chi_square_params(field).phi)
    assert phis[0] == pytest.approx(4.0 * phis[1], rel=1e-9)


# Eigenvalues of the dense Sigma_R above this fraction of the largest count
# toward the reference rank.
REFERENCE_RTOL = 1e-10


def dense_chi_square_reference(field):
    """g and phi from the eigendecomposition of the whole NM x NM Sigma_R."""
    sv, U = np.linalg.eigh(field.Sigma_R)
    keep = sv > REFERENCE_RTOL * sv.max()
    proj = U[:, keep].T @ field.mu_R.reshape(-1, order="F")
    return int(np.count_nonzero(keep)), float(proj @ (proj / sv[keep]))


@pytest.mark.parametrize("omega,lam", [((1, 4), 0.0), ((1, 9), 1e-4)])
def test_block_chi_square_matches_dense_eigh(engine_data, omega, lam):
    # (1, 9) aliases on the 36-degree lattice (cos 9t = -cos t there), so
    # its fit stops on the lambda = 1e-4 rung. A ridge rung's
    # Sigma_R / sigma_b^2 is no projector, so no chi-square law is reported
    geom = AnnulusGeometry(ENGINE_THETA, STATIONS, 0.45, 0.75)
    model = build_design_matrix(geom, HarmonicSet(omega), beta=BETA)
    coeffs = fit(model, engine_data)
    assert coeffs.lambda_used == lam
    meas = MeasurementDistribution.from_iid(engine_data, SIGMA_B)
    field = FieldDistribution.from_measurements(model, meas, lam)
    if lam > 0.0:
        with pytest.raises(InvalidParams, match="not a projector"):
            chi_square_params(field)
        return
    g, phi = dense_chi_square_reference(field)
    params = chi_square_params(field)
    assert params.g == g
    # the kept directions are exactly the leftover ones of the plain fit
    assert g == 7 * (6 - np.linalg.matrix_rank(model.A))
    assert params.phi == pytest.approx(phi, rel=1e-10, abs=1e-12)


def test_error_moments_frozen_values(engine_field):
    # scale = sigma_b^2 / NM = 0.2601 / 42; g = 7, phi = 0 (in-span data)
    params = chi_square_params(engine_field)
    assert (params.g, params.scale) == (7, SIGMA_B**2 / 42)
    mean = params.scale * (params.g + params.phi)
    var = params.scale**2 * (2 * params.g + 4 * params.phi)
    assert mean == pytest.approx(0.0433500, abs=1e-7)
    assert var == pytest.approx(5.3692071e-4, rel=1e-6)


def test_correlated_noise_refused(engine_data):
    rho = np.full((42, 42), 0.6)
    np.fill_diagonal(rho, 1.0)
    meas = MeasurementDistribution.from_correlation(engine_data, np.ones(42), rho)
    geom = AnnulusGeometry(
        np.array([54.0, 90.0, 162.0, 234.0, 270.0, 342.0]), STATIONS, 0.45, 0.75
    )
    model = build_design_matrix(geom, HarmonicSet((1, 4)), beta=BETA)
    field = FieldDistribution.from_measurements(model, meas)
    with pytest.raises(RequiresIidNoise):
        chi_square_params(field)


def _no_law_field(case, engine_model, engine_data):
    """(model, coefficients, measurements, field) of a fit where the
    chi-square law does not hold, though the noise is iid."""
    if case == "ridge":
        model, data, sigma_b, lam = engine_model, engine_data, SIGMA_B, 0.1
    elif case == "noise-free":
        model, data, sigma_b, lam = engine_model, engine_data, 0.0, 0.0
    else:
        # the README campaign without its last rake: N = K = 5, cond 27.5,
        # so the fit is exact and the residual is roundoff
        geom = AnnulusGeometry(ENGINE_THETA[:5], STATIONS, R_INNER, R_OUTER)
        model = build_design_matrix(geom, HarmonicSet((1, 2)), beta=BETA)
        data, sigma_b, lam = readme_readings(ENGINE_THETA[:5]), SIGMA_B, 0.0
    meas = MeasurementDistribution.from_iid(data, sigma_b)
    field = FieldDistribution.from_measurements(model, meas, lam)
    return model, fit(model, data), meas, field


@pytest.mark.parametrize(
    "case, reason", [("ridge", "not a projector"), ("noise-free", "sigma_b > 0"),
                     ("N = K", "needs N > K")]
)
def test_chi_square_law_refused_where_it_does_not_hold(engine_model, engine_data, case, reason):
    model, coeffs, meas, field = _no_law_field(case, engine_model, engine_data)
    with pytest.raises(InvalidParams, match=reason):
        chi_square_params(field)
    metrics = compute_metrics(model, coeffs, meas, field)
    assert metrics.chi2 is None
    assert np.isfinite(metrics.mean_eps) and np.isfinite(metrics.var_eps)


def test_sampling_metric_hand_example():
    # four rakes on the axes, single harmonic: the fit leaves residuals
    # (-1/2, 1/2, -1/2, 1/2), so eps_p^2 = 1.0 / (4 - 1)
    geom = AnnulusGeometry([0.0, 90.0, 180.0, 270.0], [0.5], 0.0, 1.0)
    model = build_design_matrix(geom, HarmonicSet((1,)))
    data = np.array([[1.0], [2.0], [3.0], [4.0]])
    coeffs = fit(model, data)
    assert sampling_metric(model, coeffs, data) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_sampling_metric_zero_in_span(engine_model, engine_data):
    coeffs = fit(engine_model, engine_data)
    assert sampling_metric(engine_model, coeffs, engine_data) < 1e-12


def test_sampling_metric_needs_two_readings():
    geom = AnnulusGeometry([10.0], [0.5], 0.0, 1.0)
    model = build_design_matrix(geom, HarmonicSet((1,)))
    with pytest.raises(TooFewSamples):
        sampling_metric(model, np.zeros((3, 1)), np.array([[300.0]]))


def test_richer_harmonics_never_fit_worse():
    theta = SCAN_THETA
    A_true = design_matrix(theta, (1, 4))
    X_true = coefficient_truth()
    data = A_true @ X_true
    geom = AnnulusGeometry(theta, STATIONS, 0.45, 0.75)
    lean = build_design_matrix(geom, HarmonicSet((1,)), beta=BETA)
    rich = build_design_matrix(geom, HarmonicSet((1, 4)), beta=BETA)
    eps_lean = sampling_metric(lean, fit(lean, data), data)
    eps_rich = sampling_metric(rich, fit(rich, data), data)
    assert eps_rich <= eps_lean
    assert eps_rich < 1e-12
    assert eps_lean > 0.1


def test_imprecision_is_mean_minus_observed(engine_model, engine_data):
    data = engine_data + 0.2 * np.cos(np.arange(42.0)).reshape(6, 7)  # off the model span
    meas = MeasurementDistribution.from_iid(data, SIGMA_B)
    field = FieldDistribution.from_measurements(engine_model, meas)
    metrics = compute_metrics(engine_model, fit(engine_model, data), meas, field)
    assert metrics.eps_p_sq > 1e-4
    assert metrics.eps_m_sq == metrics.mean_eps - metrics.eps_p_sq


def test_compute_metrics_consistency(engine_model, engine_meas, engine_field, engine_data):
    coeffs = fit(engine_model, engine_data)
    metrics = compute_metrics(engine_model, coeffs, engine_meas, engine_field)
    assert metrics.eps_p_sq < 1e-12
    assert metrics.mean_eps == pytest.approx(SIGMA_B**2 * 7 / 42, rel=1e-9)
    assert metrics.eps_m_sq == pytest.approx(metrics.mean_eps - metrics.eps_p_sq)
    assert metrics.chi2.g == 7


@pytest.mark.parametrize(
    "noise,lam", [("iid", 0.1), ("iid", 10.0), ("diagonal", 0.0), ("correlated", 0.0)]
)
def test_exact_moments_match_monte_carlo(engine_model, engine_data, noise, lam):
    # off-span data, so the mean terms ||mu_R||^2 and mu_R^T Sigma_R mu_R count
    data = engine_data.copy()
    data[0, :] += 1.0
    rng = np.random.default_rng(5)
    if noise == "iid":
        meas = MeasurementDistribution.from_iid(data, SIGMA_B)
    elif noise == "diagonal":
        meas = MeasurementDistribution.from_diagonal(data, SIGMA_B * (0.5 + rng.random(42)))
    else:
        meas = MeasurementDistribution(data, random_psd(42, rng))
    field = FieldDistribution.from_measurements(engine_model, meas, lam)
    metrics = compute_metrics(engine_model, fit(engine_model, data), meas, field)
    mc = mc_propagate_model(engine_model, meas, SamplerConfig(seed=23, n_samples=50_000), lam=lam)
    assert abs(mc.eps_mean - metrics.mean_eps) < 5.0 * mc.eps_mean_se
    assert abs(mc.eps_var - metrics.var_eps) < 5.0 * mc.eps_var_se
    # the chi-square law holds only for iid noise and an unregularized fit
    assert metrics.chi2 is None


def test_ridge_fit_reports_exact_mean():
    # noisy readings that push the (1, 4) fit past beta = 1395 onto the
    # lambda = 0.1 rung, where Sigma_R / sigma_b^2 is not a projector
    geom = AnnulusGeometry(ENGINE_THETA, STATIONS, R_INNER, R_OUTER)
    model = build_design_matrix(geom, HarmonicSet((1, 4)), beta=1395.0)
    rng = np.random.default_rng(0)
    data = model.A @ coefficient_truth() + SIGMA_B * rng.standard_normal((6, 7))
    coeffs = fit(model, data)
    assert coeffs.lambda_used == 0.1
    meas = MeasurementDistribution.from_iid(data, SIGMA_B)
    field = FieldDistribution.from_measurements(model, meas, coeffs.lambda_used)
    metrics = compute_metrics(model, coeffs, meas, field)
    assert metrics.mean_eps == pytest.approx(2.886017362132, rel=1e-9)
    assert abs(metrics.eps_m_sq) < 0.05
    assert metrics.chi2 is None


def test_pdf_matches_reference_central():
    x = np.linspace(0.01, 40.0, 200)
    np.testing.assert_allclose(
        noncentral_chisq_pdf(x, 7, 0.0), stats.chi2(df=7).pdf(x), rtol=1e-10
    )


@pytest.mark.parametrize("g,phi", [(5, 7.3), (1, 0.5), (2, 3.0), (11, 22.0)])
def test_pdf_matches_reference_noncentral(g, phi):
    x = np.linspace(0.01, 80.0, 300)
    np.testing.assert_allclose(
        noncentral_chisq_pdf(x, g, phi), stats.ncx2(df=g, nc=phi).pdf(x), rtol=1e-9
    )


@pytest.mark.parametrize("g,phi", [(7, 0.0), (5, 7.3), (2, 3.0)])
def test_pdf_normalizes(g, phi):
    total, err = integrate.quad(
        lambda x: noncentral_chisq_pdf(x, g, phi), 0.0, np.inf, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_pdf_first_moment():
    mean, _ = integrate.quad(
        lambda x: x * noncentral_chisq_pdf(x, 5, 7.3), 0.0, np.inf, limit=200
    )
    assert mean == pytest.approx(5.0 + 7.3, rel=1e-8)


def test_pdf_at_origin():
    assert noncentral_chisq_pdf(0.0, 7, 1.0) == 0.0
    assert noncentral_chisq_pdf(0.0, 2, 3.0) == pytest.approx(
        stats.ncx2(df=2, nc=3.0).pdf(1e-300), rel=1e-6
    )
    assert np.isinf(noncentral_chisq_pdf(0.0, 1, 0.5))


def test_pdf_rejects_bad_arguments():
    with pytest.raises(InvalidParams):
        noncentral_chisq_pdf(-1.0, 7, 0.0)
    with pytest.raises(InvalidParams):
        noncentral_chisq_pdf(1.0, 0, 0.0)
    with pytest.raises(InvalidParams):
        noncentral_chisq_pdf(1.0, 7, -0.1)


def scan_measurements(noise):
    """Noisy (1, 4) readings on the engine lattice under diagonal noise or
    AR(1) correlation across rakes and across stations (rho_S kron rho_R in
    vec order), both with one sigma per probe."""
    rng = np.random.default_rng(29)
    N, M = len(ENGINE_THETA), len(STATIONS)
    mu_B = design_matrix(ENGINE_THETA, (1, 4)) @ coefficient_truth()
    mu_B = mu_B + SIGMA_B * rng.standard_normal((N, M))
    sigma = SIGMA_B * rng.uniform(0.5, 2.0, N * M)
    if noise == "diagonal":
        return MeasurementDistribution.from_diagonal(mu_B, sigma)
    lag_r, lag_s = np.arange(N), np.arange(M)
    rho = np.kron(
        0.6 ** np.abs(lag_s[:, None] - lag_s[None, :]),
        0.4 ** np.abs(lag_r[:, None] - lag_r[None, :]),
    )
    return MeasurementDistribution.from_correlation(mu_B, sigma, rho)


@pytest.mark.parametrize("noise", ["diagonal", "correlated"])
def test_scan_matches_compute_metrics_for_any_noise(engine_geometry, noise):
    # the engine lattice aliases some pairs, so both lambda = 0 and ridge
    # rungs are checked; the correlated Sigma_B has cross-station blocks
    meas = scan_measurements(noise)
    assert meas.station_blocks.shape[0] == (7 if noise == "diagonal" else 1)
    result = frequency_scan(engine_geometry, meas, beta=BETA)
    keys = [(e.mean_eps, e.omega) for e in result.entries]
    assert keys == sorted(keys)
    lams = set()
    for e in result.entries:
        assert not e.flagged
        model = build_design_matrix(engine_geometry, HarmonicSet(e.omega), beta=BETA)
        coeffs = fit(model, meas.mu_B)
        field = FieldDistribution.from_measurements(model, meas, coeffs.lambda_used)
        metrics = compute_metrics(model, coeffs, meas, field)
        assert e.lambda_used == coeffs.lambda_used, e.omega
        assert e.mean_eps == pytest.approx(metrics.mean_eps, rel=1e-12, abs=0.0), e.omega
        lams.add(e.lambda_used > 0.0)
    assert lams == {False, True}


def test_scan_of_iid_measurement_distribution_matches_sigma_b(engine_geometry, engine_data):
    meas = MeasurementDistribution.from_iid(engine_data, SIGMA_B)
    by_meas = frequency_scan(engine_geometry, meas, beta=BETA)
    by_sigma = frequency_scan(engine_geometry, engine_data, SIGMA_B, beta=BETA)
    assert by_meas == by_sigma


def test_scan_noise_arguments_refused(engine_geometry, engine_data):
    meas = MeasurementDistribution.from_iid(engine_data, SIGMA_B)
    with pytest.raises(InvalidParams, match="sigma_b"):
        frequency_scan(engine_geometry, meas, SIGMA_B)
    with pytest.raises(InvalidParams, match="sigma_b"):
        frequency_scan(engine_geometry, engine_data)
    # every reading exactly noise-free: the analogue of sigma_b = 0
    zero = MeasurementDistribution.from_diagonal(engine_data, np.zeros(42))
    with pytest.raises(InvalidParams, match="Sigma_B is zero"):
        frequency_scan(engine_geometry, zero)
