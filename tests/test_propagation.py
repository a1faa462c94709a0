import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from rakeuq import (
    DEFAULT_STATE,
    AnnulusGeometry,
    DimensionMismatch,
    FieldDistribution,
    HarmonicSet,
    InvalidCorrelation,
    InvalidParams,
    MeasurementDistribution,
    NotPSD,
    SamplerConfig,
    StationState,
    area_average,
    build_design_matrix,
    compute_metrics,
    design_matrix,
    fit,
    predictive_grid,
    sample_mvn,
    unvec,
    vec,
)

from rakeuq.propagation import _block_congruence, _psd_factor, _station_map

from conftest import (
    BETA, ENGINE_THETA, R_INNER, R_OUTER, SIGMA_B, STATIONS, coefficient_truth, random_psd,
)


def point_vectors(model, points):
    """Rows kron(w(r), a(theta)) for (r, theta) points: a point's value is
    the row times vec(X), and two points' covariance the bilinear form of
    Sigma_X in two rows (station-major, as vec(X))."""
    return np.array([np.kron(model.radial.blend(r), design_matrix(th, model.harmonics.omega))
                     for r, th in points])


def test_vec_is_column_major():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(m), 2, 2), m)


def test_zero_measurement_covariance(engine_model, engine_data):
    meas = MeasurementDistribution(engine_data, np.zeros((42, 42)))
    field = FieldDistribution.from_measurements(engine_model, meas)
    np.testing.assert_array_equal(field.Sigma_X, np.zeros((35, 35)))
    np.testing.assert_array_equal(field.Sigma_F, np.zeros((42, 42)))
    np.testing.assert_array_equal(field.Sigma_R, np.zeros((42, 42)))


def test_iid_coefficient_covariance_kronecker_form(engine_model, engine_field):
    # independent derivation: per-station fits are decoupled, so the
    # vectorized covariance is sigma^2 I_M kron (A^T A)^-1
    A = engine_model.A
    block = np.linalg.inv(A.T @ A)
    expected = SIGMA_B**2 * np.kron(np.eye(7), block)
    np.testing.assert_allclose(engine_field.Sigma_X, expected, atol=1e-10)


def test_iid_residual_covariance_projection_form(engine_model, engine_field):
    A, P = engine_model.A, engine_model.P
    H = A @ P
    expected = SIGMA_B**2 * np.kron(np.eye(7), np.eye(6) - H)
    np.testing.assert_allclose(engine_field.Sigma_R, expected, atol=1e-10)


def test_in_span_residual_mean_vanishes(engine_field):
    np.testing.assert_allclose(engine_field.mu_R, np.zeros((6, 7)), atol=1e-9)


def test_field_mean_is_fitted_surface(engine_model, engine_field, engine_data):
    np.testing.assert_allclose(
        engine_field.mu_F, engine_model.A @ engine_field.mu_X, atol=1e-12
    )
    np.testing.assert_allclose(engine_field.mu_F, engine_data, atol=1e-9)


def test_block_diagonal_covariance_decouples_stations(engine_model, engine_data):
    rng = np.random.default_rng(5)
    blocks = [random_psd(6, rng) for _ in range(7)]
    Sigma_B = np.zeros((42, 42))
    for m, blk in enumerate(blocks):
        Sigma_B[m * 6 : (m + 1) * 6, m * 6 : (m + 1) * 6] = blk
    meas = MeasurementDistribution(engine_data, Sigma_B)
    Sigma_X = FieldDistribution.from_measurements(engine_model, meas).Sigma_X
    P = engine_model.P
    for m, blk in enumerate(blocks):
        got = Sigma_X[m * 5 : (m + 1) * 5, m * 5 : (m + 1) * 5]
        np.testing.assert_allclose(got, P @ blk @ P.T, atol=1e-10)
    off = Sigma_X[0:5, 5:10]
    np.testing.assert_allclose(off, np.zeros((5, 5)), atol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_correlated_covariances_match_kron_reference(engine_model, engine_data, lam):
    # a full cross-station Sigma_B takes the dense path; the reference is
    # the explicit congruence by I_M kron T
    Sigma_B = random_psd(42, np.random.default_rng(17))
    meas = MeasurementDistribution(engine_data, Sigma_B)
    assert meas.iid_sigma is None
    field = FieldDistribution.from_measurements(engine_model, meas, lam)
    P = engine_model.pseudoinverse(lam)
    A = engine_model.A
    for got, T in (
        (field.Sigma_X, P),
        (field.Sigma_F, A @ P),
        (field.Sigma_R, A @ P - np.eye(6)),
    ):
        IT = np.kron(np.eye(7), T)
        expected = IT @ meas.Sigma_B @ IT.T
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        np.testing.assert_array_equal(got, got.T)


def test_covariance_scales_quadratically(engine_model, engine_data):
    meas1 = MeasurementDistribution.from_iid(engine_data, SIGMA_B)
    meas3 = MeasurementDistribution.from_iid(engine_data, 3.0 * SIGMA_B)
    f1 = FieldDistribution.from_measurements(engine_model, meas1)
    f3 = FieldDistribution.from_measurements(engine_model, meas3)
    np.testing.assert_allclose(
        f3.Sigma_X, 9.0 * f1.Sigma_X, atol=1e-12 * np.linalg.norm(f3.Sigma_X)
    )
    np.testing.assert_allclose(
        f3.Sigma_F, 9.0 * f1.Sigma_F, atol=1e-12 * np.linalg.norm(f3.Sigma_F)
    )


def test_propagate_field_consistent_with_kron(engine_model, engine_field):
    Sigma_F = engine_field.Sigma_F
    IA = np.kron(np.eye(7), engine_model.A)
    expected = IA @ engine_field.Sigma_X @ IA.T
    np.testing.assert_allclose(Sigma_F, expected, atol=1e-10)


def test_residual_moments_closed_form(engine_model, engine_meas, engine_field):
    Sigma_R = engine_field.Sigma_R
    K = engine_model.A @ engine_model.P - np.eye(6)
    IK = np.kron(np.eye(7), K)
    expected = IK @ engine_meas.Sigma_B @ IK.T
    np.testing.assert_allclose(Sigma_R, expected, atol=1e-10)


def test_predictive_moments_quadratic_form(engine_model, engine_field):
    r, th = 0.37, 204.0
    mean, var = (out[0, 0] for out in predictive_grid(engine_model, engine_field, [r], [th]))
    w = engine_model.radial.blend(r)
    from rakeuq import design_matrix

    a = design_matrix(np.array([th]), engine_model.harmonics.omega)[0]
    v = np.kron(w, a)  # station-major layout matches vec(X)
    np.testing.assert_allclose(var, v @ engine_field.Sigma_X @ v, atol=1e-12)
    np.testing.assert_allclose(mean, v @ vec(engine_field.mu_X), atol=1e-10)


def test_predictive_two_point_symmetry(engine_model, engine_field):
    v1, v2 = point_vectors(engine_model, [(0.2, 45.0), (0.8, 290.0)])
    c12 = v1 @ engine_field.Sigma_X @ v2
    c21 = v2 @ engine_field.Sigma_X @ v1
    assert c12 == pytest.approx(c21, rel=1e-12)


def test_predictive_grid_matches_pointwise(engine_model, engine_field):
    r = np.array([0.1, 0.5, 0.9])
    th = np.array([0.0, 77.0, 180.0, 301.0])
    mean, var = predictive_grid(engine_model, engine_field, r, th)
    assert mean.shape == var.shape == (3, 4)
    for i, ri in enumerate(r):
        for j, tj in enumerate(th):
            (g,) = point_vectors(engine_model, [(ri, tj)])
            m, v = g @ vec(engine_field.mu_X), g @ engine_field.Sigma_X @ g
            assert mean[i, j] == pytest.approx(m, rel=1e-12)
            assert var[i, j] == pytest.approx(v, rel=1e-10)


def test_predictive_grid_matches_pointwise_correlated(engine_model, engine_data):
    # a full cross-station Sigma_B makes Sigma_X dense across stations; iid
    # noise leaves it block diagonal, where a contraction that drops the
    # cross-station blocks would still agree
    meas = MeasurementDistribution(engine_data, random_psd(42, np.random.default_rng(23)))
    field = FieldDistribution.from_measurements(engine_model, meas)
    r = np.array([0.0, 0.27, 0.5, 0.83, 1.0])
    th = np.array([0.0, 41.0, 133.0, 222.5, 301.0])
    mean, var = predictive_grid(engine_model, field, r, th)
    assert mean.shape == var.shape == (5, 5)
    for i, ri in enumerate(r):
        for j, tj in enumerate(th):
            (g,) = point_vectors(engine_model, [(ri, tj)])
            m, v = g @ vec(field.mu_X), g @ field.Sigma_X @ g
            assert mean[i, j] == pytest.approx(m, rel=1e-12)
            assert var[i, j] == pytest.approx(v, rel=1e-12)


def test_predictive_variance_bounded_at_probes(engine_model, engine_field):
    # unregularized fit: the hat matrix is a projection, so the fitted
    # surface at a probe location can never be noisier than the probe
    for r in STATIONS:
        for th in engine_model.geometry.theta_deg:
            _, var = predictive_grid(engine_model, engine_field, [r], [th])
            assert var[0, 0] <= SIGMA_B**2 * (1.0 + 1e-12)


def test_predictive_kernel_is_psd(engine_model, engine_field):
    rng = np.random.default_rng(11)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 360)) for _ in range(12)]
    V = point_vectors(engine_model, pts)
    Km = V @ engine_field.Sigma_X @ V.T
    eig = np.linalg.eigvalsh(0.5 * (Km + Km.T))
    assert eig.min() >= -1e-8 * max(eig.max(), 1.0)


def test_iid_sigma_detection(engine_data):
    meas = MeasurementDistribution.from_iid(engine_data, SIGMA_B)
    assert meas.iid_sigma == pytest.approx(SIGMA_B)
    uneven = MeasurementDistribution.from_diagonal(
        engine_data, np.linspace(0.1, 0.9, 42)
    )
    assert uneven.iid_sigma is None
    even = MeasurementDistribution.from_diagonal(engine_data, np.full(42, SIGMA_B))
    assert even.iid_sigma == pytest.approx(SIGMA_B)


def test_iid_classification_is_exact(engine_data):
    # one ulp apart is a different noise level: no tolerance makes it iid
    sigma = np.full(42, SIGMA_B)
    sigma[17] = np.nextafter(SIGMA_B, 1.0)
    assert MeasurementDistribution.from_diagonal(engine_data, sigma).iid_sigma is None
    var = np.full(42, SIGMA_B**2)
    var[17] = np.nextafter(var[17], 1.0)
    assert MeasurementDistribution(engine_data, np.diag(var)).iid_sigma is None
    off = SIGMA_B**2 * np.eye(42)
    off[3, 5] = off[5, 3] = 5e-324
    assert MeasurementDistribution(engine_data, off).iid_sigma is None
    # D I D is exactly sigma^2 I, so rho = I with equal sigmas stays iid
    ident = MeasurementDistribution.from_correlation(engine_data, np.full(42, SIGMA_B), np.eye(42))
    assert ident.iid_sigma == pytest.approx(SIGMA_B)
    assert MeasurementDistribution(engine_data, SIGMA_B**2 * np.eye(42)).iid_sigma == pytest.approx(SIGMA_B)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_sigma_rejected(engine_data, bad):
    with pytest.raises(InvalidParams):
        MeasurementDistribution.from_iid(engine_data, bad)
    with pytest.raises(InvalidParams):
        MeasurementDistribution.from_diagonal(engine_data, np.full(42, bad))
    with pytest.raises(InvalidParams):
        MeasurementDistribution.from_correlation(engine_data, np.full(42, bad), np.eye(42))
    Sigma = np.eye(42)
    Sigma[3, 3] = bad
    with pytest.raises(InvalidParams):
        MeasurementDistribution(engine_data, Sigma)
    with pytest.raises(InvalidParams):
        _psd_factor(Sigma)
    # off the diagonal, across stations: the dense (1, NM, NM) block
    Sigma = np.eye(42)
    Sigma[3, 40] = Sigma[40, 3] = bad
    with pytest.raises(InvalidParams, match="Sigma_B must be finite"):
        MeasurementDistribution(engine_data, Sigma)
    # on every diagonal entry: no longer an exact iid level
    with pytest.raises(InvalidParams):
        MeasurementDistribution(engine_data, np.diag(np.full(42, bad)))
    rho = np.eye(42)
    rho[3, 40] = rho[40, 3] = bad
    with pytest.raises(InvalidCorrelation):
        MeasurementDistribution.from_correlation(engine_data, np.ones(42), rho)


def test_from_correlation_assembles_covariance(engine_data):
    rho = np.full((42, 42), 0.5)
    np.fill_diagonal(rho, 1.0)
    sigma = np.linspace(0.2, 1.0, 42)
    meas = MeasurementDistribution.from_correlation(engine_data, sigma, rho)
    np.testing.assert_allclose(meas.Sigma_B, np.outer(sigma, sigma) * rho, atol=1e-14)


def test_bad_correlation_rejected(engine_data):
    rho = np.full((42, 42), 0.5)
    np.fill_diagonal(rho, 1.0)
    rho[0, 1] = 0.9  # asymmetric
    with pytest.raises(InvalidCorrelation):
        MeasurementDistribution.from_correlation(engine_data, np.ones(42), rho)


def test_non_psd_covariance_rejected(engine_data):
    Sigma = -np.eye(42)
    with pytest.raises(NotPSD):
        MeasurementDistribution(engine_data, Sigma)


def test_shape_mismatch_rejected(engine_data):
    with pytest.raises(DimensionMismatch):
        MeasurementDistribution(engine_data, np.eye(41))


def test_ensure_psd_clips_roundoff():
    # the PSD rule, through a one-station MeasurementDistribution
    A = np.eye(3)
    A[2, 2] = -1e-14
    out = MeasurementDistribution(np.zeros(3), A).Sigma_B
    assert np.linalg.eigvalsh(out).min() >= 0.0


def test_ensure_psd_rejects_indefinite():
    with pytest.raises(NotPSD):
        MeasurementDistribution(np.zeros(3), np.diag([1.0, -0.5, 2.0]))


def equicorrelation(n, low):
    """Unit-diagonal n x n matrix whose smallest eigenvalue is ``low``.

    (1 - c) I + c 11^T has eigenvalues 1 - c (n - 1 times) and 1 + (n - 1) c.
    """
    c = (low - 1.0) / (n - 1)
    return (1.0 - c) * np.eye(n) + c


# Every entry point that checks a covariance for PSD, fed a matrix whose mean
# diagonal entry is s and whose smallest eigenvalue is low * s, with the error
# type that it raises.
PSD_ENTRY_POINTS = {
    "psd_factor": (lambda mu, low: _psd_factor(2.5 * equicorrelation(6, low)), NotPSD),
    "sample_mvn": (
        lambda mu, low: sample_mvn(
            np.zeros(6), 2.5 * equicorrelation(6, low), SamplerConfig(1, 10)
        ),
        NotPSD,
    ),
    "MeasurementDistribution dense": (
        lambda mu, low: MeasurementDistribution(mu, 2.5 * equicorrelation(42, low)),
        NotPSD,
    ),
    "MeasurementDistribution station blocks": (
        lambda mu, low: MeasurementDistribution(
            mu, np.kron(np.eye(7), 2.5 * equicorrelation(6, low))
        ),
        NotPSD,
    ),
    "from_correlation": (
        lambda mu, low: MeasurementDistribution.from_correlation(
            mu, np.linspace(0.2, 1.0, 42), equicorrelation(42, low)
        ),
        InvalidCorrelation,
    ),
    "StationState": (
        lambda mu, low: StationState(
            DEFAULT_STATE.z, DEFAULT_STATE.sigma, equicorrelation(5, low)
        ),
        InvalidCorrelation,
    ),
}


@pytest.mark.parametrize("entry", list(PSD_ENTRY_POINTS))
@pytest.mark.parametrize("low,outcome", [(-1e-14, "silent"), (-5e-11, "warn"), (-2e-10, "refuse")])
def test_psd_boundary_is_one_rule(engine_data, entry, low, outcome):
    # relative to the mean diagonal entry: silent below 1e3 eps, a warning
    # up to 1e-10, refusal beyond
    call, error = PSD_ENTRY_POINTS[entry]
    if outcome == "silent":
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(engine_data, low)
    elif outcome == "warn":
        with pytest.warns(RuntimeWarning, match="clipping"):
            call(engine_data, low)
    else:
        with pytest.raises(error):
            call(engine_data, low)


@pytest.mark.parametrize("blocks", [1, 7])
def test_clipped_sigma_b_and_its_factor_agree(engine_data, blocks):
    # one (1, 42, 42) block or seven (6, 6) station blocks, each with an
    # eigenvalue of -1.25e-10 that the check clips to zero
    n = 42 // blocks
    Sigma = np.kron(np.eye(blocks), 2.5 * equicorrelation(n, -5e-11))
    with pytest.warns(RuntimeWarning, match="clipping"):
        meas = MeasurementDistribution(engine_data, Sigma)
    L = meas.factor_blocks
    assert L.shape == (blocks, n, n)
    np.testing.assert_allclose(meas.station_blocks, L @ L.transpose(0, 2, 1), rtol=0, atol=1e-14)
    assert np.linalg.eigvalsh(meas.Sigma_B).min() > -1e-14


@pytest.mark.parametrize("v", [2.0, 2.5e-308, SIGMA_B**2])
def test_iid_blocks_keep_the_given_variance(engine_data, v):
    # v I is kept as given even where v is not the square of a double
    # (fl(sqrt(2))^2 = 2.0000000000000004); only the factor is sqrt(v) I
    meas = MeasurementDistribution(engine_data, v * np.eye(42))
    assert meas.iid_sigma == math.sqrt(v)
    np.testing.assert_array_equal(meas.Sigma_B, v * np.eye(42))
    # one N x N block stands for all seven stations
    np.testing.assert_array_equal(meas.station_blocks, v * np.eye(6)[None])
    np.testing.assert_array_equal(meas.factor_blocks, math.sqrt(v) * np.eye(6)[None])


def test_iid_noise_given_two_ways_is_the_same_bits(engine_model, engine_data):
    # every sigma is squared as s * s: Python's s**2 (libm pow) puts this s
    # one ulp off numpy's square, 78.8089507971897 against 78.80895079718968
    s = 8.87744055441599
    iid = MeasurementDistribution.from_iid(engine_data, s)
    diagonal = MeasurementDistribution.from_diagonal(engine_data, np.full(42, s))
    assert iid.iid_sigma == diagonal.iid_sigma == s
    np.testing.assert_array_equal(iid.station_blocks, diagonal.station_blocks)
    np.testing.assert_array_equal(iid.factor_blocks, diagonal.factor_blocks)
    coeffs = fit(engine_model, engine_data)
    metrics = [
        compute_metrics(engine_model, coeffs, meas, FieldDistribution.from_measurements(engine_model, meas))
        for meas in (iid, diagonal)
    ]
    assert metrics[0].mean_eps == metrics[1].mean_eps
    assert metrics[0].var_eps == metrics[1].var_eps
    assert metrics[0].chi2.scale == metrics[1].chi2.scale == s * s / 42


def test_iid_sigma_is_derived_from_sigma_b(engine_data):
    assert MeasurementDistribution(engine_data, 0.25 * np.eye(42)).iid_sigma == 0.5
    diag = MeasurementDistribution(engine_data, np.diag(np.linspace(0.1, 1.0, 42)))
    assert diag.iid_sigma is None


def _sigma_b_cases(rng):
    """The four structures of Sigma_B: iid, diagonal, per station, full."""
    per_station = np.zeros((42, 42))
    for m in range(7):
        per_station[m * 6 : (m + 1) * 6, m * 6 : (m + 1) * 6] = random_psd(6, rng)
    return {
        "iid": SIGMA_B**2 * np.eye(42),
        "diagonal": np.diag(np.linspace(0.1, 0.9, 42) ** 2),
        "per_station": per_station,
        "correlated": random_psd(42, rng),
    }


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("case", ["iid", "diagonal", "per_station", "correlated"])
def test_block_propagation_matches_dense_congruence(engine_model, truth, case, lam):
    # every reported number from the block form against the dense
    # (M, N, M, N) congruence of the whole Sigma_B, to 1e-12 relative
    rng = np.random.default_rng(41)
    Sigma_B = _sigma_b_cases(rng)[case]
    data = engine_model.A @ truth + 0.3 * rng.standard_normal((6, 7))  # off the model span
    if case == "iid":
        meas = MeasurementDistribution.from_iid(data, SIGMA_B)
        assert meas.station_blocks.shape == (1, 6, 6)  # one block for all stations
        np.testing.assert_array_equal(meas.Sigma_B, Sigma_B)
    else:
        meas = MeasurementDistribution(data, Sigma_B)
        expected_blocks = 1 if case == "correlated" else 7
        assert meas.station_blocks.shape[0] == expected_blocks
    field = FieldDistribution.from_measurements(engine_model, meas, lam)

    A, P = engine_model.A, engine_model.pseudoinverse(lam)
    K = A @ P - np.eye(6)
    Sigma_X = _block_congruence(P, Sigma_B[None])[0]
    Sigma_R = _block_congruence(K, Sigma_B[None])[0]
    dense = dataclasses.replace(field, X_blocks=Sigma_X[None], R_blocks=Sigma_R[None])

    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for got, want in (
        (field.Sigma_X, Sigma_X),
        (field.Sigma_F, _block_congruence(A, Sigma_X[None])[0]),
        (field.Sigma_R, Sigma_R),
    ):
        close(got, want)
        np.testing.assert_array_equal(got, got.T)

    coeffs = fit(engine_model, data)
    metrics = compute_metrics(engine_model, coeffs, meas, field)
    mu = vec(field.mu_R)
    n_meas = mu.size
    close(metrics.mean_eps, (np.trace(Sigma_R) + mu @ mu) / n_meas)
    close(metrics.var_eps, (2.0 * np.vdot(Sigma_R, Sigma_R) + 4.0 * (mu @ Sigma_R @ mu)) / n_meas**2)
    reference_chi2 = compute_metrics(engine_model, coeffs, meas, dense).chi2
    assert (metrics.chi2 is None) == (reference_chi2 is None) == (case != "iid" or lam > 0.0)
    if metrics.chi2 is not None:
        assert metrics.chi2.g == reference_chi2.g
        close(metrics.chi2.phi, reference_chi2.phi)
        assert metrics.chi2.scale == reference_chi2.scale

    close(area_average(engine_model, field).variance, area_average(engine_model, dense).variance)
    r, th = np.linspace(0.0, 1.0, 50), np.arange(0.0, 360.0, 1.0)
    close(predictive_grid(engine_model, field, r, th)[1], predictive_grid(engine_model, dense, r, th)[1])
    V = point_vectors(engine_model, [(0.37, 204.0), (0.2, 45.0), (0.8, 290.0)])
    close(V @ field.Sigma_X @ V.T, V @ dense.Sigma_X @ V.T)


def test_iid_chain_builds_no_nm_by_nm_matrix():
    # 60 x 40 (NM = 2400): one dense NM x NM float matrix is 46 MB, and the
    # chain before block propagation peaked near 140 MB
    rng = np.random.default_rng(3)
    stations = np.linspace(0.05, 0.95, 40)
    theta = np.sort(np.mod(6.0 * np.arange(60) + 3.0 + rng.uniform(-2.0, 2.0, 60), 360.0))
    model = build_design_matrix(
        AnnulusGeometry(theta, stations, 0.45, 0.75), HarmonicSet((1, 4)), beta=BETA
    )
    data = model.A @ coefficient_truth(stations) + SIGMA_B * rng.standard_normal((60, 40))
    tracemalloc.start()
    try:
        meas = MeasurementDistribution.from_iid(data, SIGMA_B)
        coeffs = fit(model, data)
        field = FieldDistribution.from_measurements(model, meas, coeffs.lambda_used)
        metrics = compute_metrics(model, coeffs, meas, field)
        area_average(model, field)
        predictive_grid(model, field, np.linspace(0.0, 1.0, 50), np.arange(0.0, 360.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metrics.chi2 is not None
    assert peak < 1.5e6, f"traced peak {peak / 1e6:.2f} MB"
    # the dense covariances are cached properties that nothing above read
    assert "Sigma_B" not in vars(meas)
    assert "Sigma_X" not in vars(field)
    assert "Sigma_F" not in vars(field) and "Sigma_R" not in vars(field)
    # one K x K and one N x N block stand for all 40 stations
    assert meas.station_blocks.shape == meas.factor_blocks.shape == (1, 60, 60)
    assert field.X_blocks.shape == (1, 5, 5) and field.R_blocks.shape == (1, 60, 60)


@pytest.mark.parametrize("M", [1, 7, 40])
def test_shared_block_counts_once_per_station(M):
    # iid noise gives one (1, K, K) and one (1, N, N) block standing for all
    # M stations; every consumer must weight it M times, as it weights the
    # same block repeated M times
    rng = np.random.default_rng(M)
    stations = np.linspace(0.05, 0.95, M) if M > 1 else np.array([0.5])
    geometry = AnnulusGeometry(ENGINE_THETA, stations, R_INNER, R_OUTER)
    model = build_design_matrix(geometry, HarmonicSet((1, 2)), beta=BETA)
    data = model.A @ rng.standard_normal((5, M)) + 0.3 * rng.standard_normal((6, M))
    meas = MeasurementDistribution.from_iid(data, SIGMA_B)
    shared = FieldDistribution.from_measurements(model, meas)
    assert shared.X_blocks.shape == (1, 5, 5) and shared.R_blocks.shape == (1, 6, 6)
    repeated = dataclasses.replace(
        shared, X_blocks=shared.X_blocks.repeat(M, 0), R_blocks=shared.R_blocks.repeat(M, 0)
    )
    coeffs = fit(model, data)
    r, th = np.linspace(0.0, 1.0, 11), np.arange(0.0, 360.0, 15.0)

    def numbers(field):
        metrics = compute_metrics(model, coeffs, meas, field)
        return (
            metrics.mean_eps, metrics.var_eps, area_average(model, field).variance,
            predictive_grid(model, field, r, th)[1], field.Sigma_X, field.Sigma_R,
        )

    for got, want in zip(numbers(shared), numbers(repeated)):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("M", [7, 1])
@pytest.mark.parametrize("layout", ["station blocks", "one block", "one shared block"])
def test_station_map_and_congruence_match_explicit_kron(M, layout):
    # the block forms against explicit products with I_M kron T
    rng = np.random.default_rng(M)
    N, k, w = 6, 5, 4
    T = rng.standard_normal((k, N))
    kron = np.kron(np.eye(M), T)
    if layout == "one shared block":
        # as iid noise gives: one (1, N, N) block S standing for all M
        # stations, and one (1, k, N) map block meeting every slice of X
        X_dense, S = rng.standard_normal((N * M, w)), random_psd(N, rng)[None]
        S_dense = block_diag(*S.repeat(M, 0))
        S_mapped = _block_congruence(T, S)
        assert S_mapped.shape == (1, k, k)
        (mapped,) = _station_map(T[None], X_dense[None])
        congruent = block_diag(*S_mapped.repeat(M, 0))
    elif layout == "station blocks":
        X = rng.standard_normal((M, N, w))
        S = np.stack([random_psd(N, rng) for _ in range(M)])
        X_dense, S_dense = block_diag(*X), block_diag(*S)
        X_mapped, S_mapped = _station_map(T, X), _block_congruence(T, S)
        mapped, congruent = block_diag(*X_mapped), block_diag(*S_mapped)
    else:
        X_dense, S_dense = rng.standard_normal((N * M, w)), random_psd(N * M, rng)
        (mapped,) = _station_map(T, X_dense[None])
        (congruent,) = _block_congruence(T, S_dense[None])
    for got, want in ((mapped, kron @ X_dense), (congruent, kron @ S_dense @ kron.T)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    np.testing.assert_array_equal(congruent, congruent.T)


def test_sigma_matrix_is_read_column_by_column():
    # sigma[n, m] = 1..6 row by row; vec order puts the rake index fastest
    mu = np.zeros((3, 2))
    sigma = np.arange(1.0, 7.0).reshape(3, 2)
    expected = np.array([1.0, 9.0, 25.0, 4.0, 16.0, 36.0])
    diagonal = MeasurementDistribution.from_diagonal(mu, sigma)
    np.testing.assert_array_equal(np.diag(diagonal.Sigma_B), expected)
    correlated = MeasurementDistribution.from_correlation(mu, sigma, np.eye(6))
    np.testing.assert_array_equal(np.diag(correlated.Sigma_B), expected)
    flat = MeasurementDistribution.from_diagonal(mu, vec(sigma))
    np.testing.assert_array_equal(flat.Sigma_B, diagonal.Sigma_B)


@pytest.mark.parametrize("shape", [(2, 3), (6, 1), (1, 6), (1, 3, 2)])
def test_sigma_of_any_other_shape_refused(shape):
    mu = np.zeros((3, 2))
    sigma = np.arange(1.0, 7.0).reshape(shape)
    with pytest.raises(DimensionMismatch, match="sigma"):
        MeasurementDistribution.from_diagonal(mu, sigma)
    with pytest.raises(DimensionMismatch, match="sigma"):
        MeasurementDistribution.from_correlation(mu, sigma, np.eye(6))


def test_from_correlation_keeps_three_nm_by_nm_arrays_at_most():
    # equicorrelation across all 480 readings: one (1, NM, NM) block. The
    # blocks and their factor are kept; the symmetrized rho is the only other
    # array of that size alive at the peak
    N, M = 24, 20
    n = N * M
    rng = np.random.default_rng(5)
    mu = rng.standard_normal((N, M))
    sigma = 0.5 + rng.random(n)
    rho = np.full((n, n), 0.3)
    np.fill_diagonal(rho, 1.0)
    tracemalloc.start()
    try:
        meas = MeasurementDistribution.from_correlation(mu, sigma, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * rho.nbytes, f"traced peak {peak / rho.nbytes:.2f} NM x NM arrays"
    # the same numbers as D rho D and D L_rho formed directly
    rho_sym = 0.5 * (rho + rho.T)
    assert meas.station_blocks.shape == (1, n, n)
    assert np.array_equal(meas.station_blocks[0], rho_sym * np.outer(sigma, sigma))
    assert np.array_equal(meas.factor_blocks[0], sigma[:, None] * np.linalg.cholesky(rho_sym))
