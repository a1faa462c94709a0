import math
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

import rakeuq.montecarlo as mc_mod
from rakeuq import (
    AnnulusGeometry,
    DimensionMismatch,
    DrawFailed,
    FieldDistribution,
    HarmonicSet,
    InvalidParams,
    MeasurementDistribution,
    NotPSD,
    RegularizationExhausted,
    SamplerConfig,
    SingularDesign,
    build_design_matrix,
    chi_square_params,
    design_matrix,
    error_moments,
    fit,
    frequency_scan,
    mc_propagate_model,
    rake_position_mc,
    sample_mvn,
    station_predictions,
)
from rakeuq.fourier import _RidgeGuard
from rakeuq.residuals import _residual_power_moments

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
)


def test_sample_mvn_deterministic():
    cfg = SamplerConfig(seed=7, n_samples=1000)
    a = sample_mvn(np.zeros(3), np.eye(3), cfg)
    b = sample_mvn(np.zeros(3), np.eye(3), cfg)
    np.testing.assert_array_equal(a, b)
    c = sample_mvn(np.zeros(3), np.eye(3), SamplerConfig(seed=8, n_samples=1000))
    assert not np.array_equal(a, c)


def test_sample_mvn_zero_covariance_exact():
    mean = np.array([1.5, -2.0, 40.0])
    s = sample_mvn(mean, np.zeros((3, 3)), SamplerConfig(seed=1, n_samples=500))
    np.testing.assert_array_equal(s, np.broadcast_to(mean, (500, 3)))


def test_sample_mvn_recovers_correlation():
    cov = np.array([[1.0, 0.8], [0.8, 1.0]])
    s = sample_mvn(np.zeros(2), cov, SamplerConfig(seed=12, n_samples=500_000))
    r = np.corrcoef(s.T)[0, 1]
    assert r == pytest.approx(0.8, abs=0.01)


def test_sample_mvn_semidefinite_covariance():
    # rank-1 covariance has no Cholesky factor; the eigen fallback handles it
    v = np.array([1.0, 2.0, -1.0])
    cov = np.outer(v, v)
    s = sample_mvn(np.zeros(3), cov, SamplerConfig(seed=3, n_samples=50_000))
    emp = np.cov(s.T)
    np.testing.assert_allclose(emp, cov, atol=0.05 * np.abs(cov).max())


def test_sample_mvn_rejects_indefinite():
    with pytest.raises(NotPSD):
        sample_mvn(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), SamplerConfig(1, 10))


def test_antithetic_mirror_pairs():
    s = sample_mvn(np.zeros(4), np.eye(4), SamplerConfig(5, 2000, antithetic=True))
    np.testing.assert_array_equal(s[1000:], -s[:1000])


def test_sampler_config_validation():
    with pytest.raises(InvalidParams):
        SamplerConfig(seed=1, n_samples=1)


@pytest.fixture(scope="module")
def mc_oracle(engine_model, engine_meas):
    return mc_propagate_model(
        engine_model, engine_meas, SamplerConfig(seed=20260814, n_samples=200_000)
    )


def test_mc_matches_closed_forms(engine_model, engine_field, mc_oracle):
    for emp, closed in (
        (mc_oracle.Sigma_X, engine_field.Sigma_X),
        (mc_oracle.Sigma_F, engine_field.Sigma_F),
        (mc_oracle.Sigma_R, engine_field.Sigma_R),
    ):
        rel = np.linalg.norm(emp - closed) / np.linalg.norm(closed)
        assert rel < 0.02
    np.testing.assert_allclose(mc_oracle.mu_X, engine_field.mu_X, atol=0.02)


def test_mc_eps_moments_match_closed_form(engine_field, mc_oracle):
    params = chi_square_params(engine_field)
    mean_c, var_c = error_moments(params, 6, 7, SIGMA_B)
    assert mc_oracle.eps_mean == pytest.approx(mean_c, rel=0.02)
    assert mc_oracle.eps_var == pytest.approx(var_c, rel=0.02)


def test_mc_eps_distribution_goodness_of_fit(mc_oracle):
    # in-span data: Q = NM eps / sigma^2 should follow a central chi-square
    # with 7 degrees of freedom
    Q = 42.0 * mc_oracle.eps_samples / SIGMA_B**2
    p = stats.kstest(Q, stats.chi2(df=7).cdf).pvalue
    assert p > 0.01


def test_mc_zero_covariance_exact(engine_model, engine_data):
    meas = MeasurementDistribution(engine_data, np.zeros((42, 42)))
    res = mc_propagate_model(engine_model, meas, SamplerConfig(seed=3, n_samples=512))
    np.testing.assert_array_equal(res.Sigma_X, np.zeros((35, 35)))
    np.testing.assert_array_equal(res.Sigma_F, np.zeros((42, 42)))
    np.testing.assert_array_equal(res.Sigma_R, np.zeros((42, 42)))
    np.testing.assert_array_equal(res.grid_var, np.zeros_like(res.grid_var))
    assert res.eps_var < 1e-30


def test_mc_deterministic_and_thread_invariant(engine_model, engine_meas, monkeypatch):
    cfg = SamplerConfig(seed=99, n_samples=20_000)
    monkeypatch.setenv("RAKEUQ_THREADS", "1")
    a = mc_propagate_model(engine_model, engine_meas, cfg)
    monkeypatch.setenv("RAKEUQ_THREADS", "4")
    b = mc_propagate_model(engine_model, engine_meas, cfg)
    np.testing.assert_array_equal(a.Sigma_X, b.Sigma_X)
    np.testing.assert_array_equal(a.eps_samples, b.eps_samples)
    np.testing.assert_array_equal(a.grid_var, b.grid_var)


def test_mc_standard_errors_shrink(engine_model, engine_meas):
    small = mc_propagate_model(
        engine_model, engine_meas, SamplerConfig(seed=17, n_samples=25_000)
    )
    large = mc_propagate_model(
        engine_model, engine_meas, SamplerConfig(seed=17, n_samples=100_000)
    )
    ratio = small.eps_mean_se / large.eps_mean_se
    assert 1.6 < ratio < 2.4


def test_mc_grid_variance_matches_closed_form(engine_model, engine_field, mc_oracle):
    from rakeuq import predictive_grid

    _, var = predictive_grid(
        engine_model, engine_field, mc_oracle.r_fracs, mc_oracle.theta_grid_deg
    )
    rel = np.abs(mc_oracle.grid_var - var) / var.max()
    assert rel.max() < 0.02


def test_mc_grid_moments_match_per_draw_grids(engine_model, engine_data):
    # rebuild the draws of a one-batch run and evaluate W X A_g^T per draw
    Sigma_B = random_psd(42, np.random.default_rng(29))
    meas = MeasurementDistribution(engine_data, Sigma_B)
    cfg = SamplerConfig(seed=31, n_samples=512)
    res = mc_propagate_model(engine_model, meas, cfg)
    children, sizes = mc_mod._batch_plan(cfg)
    assert sizes == [512]
    z = mc_mod._standard_draws(np.random.default_rng(children[0]), 512, 42, False)
    vb = engine_data.reshape(-1, order="F") + z @ mc_mod.psd_factor(Sigma_B).T
    B = vb.reshape(512, 7, 6).transpose(0, 2, 1)
    X = engine_model.P @ B
    W = engine_model.radial.blend(res.r_fracs)
    A_g = design_matrix(res.theta_grid_deg, engine_model.harmonics.omega)
    grids = np.einsum("rm,bkm,tk->brt", W, X, A_g)
    np.testing.assert_allclose(res.grid_mean, grids.mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(res.grid_var, grids.var(axis=0, ddof=1), rtol=1e-10)


def test_mc_covariances_match_per_draw_samples(engine_model, engine_data):
    # one batch rebuilt draw by draw: X = P B, F = A X and R = F - B
    lam = 0.1
    Sigma_B = random_psd(42, np.random.default_rng(37))
    meas = MeasurementDistribution(engine_data, Sigma_B)
    cfg = SamplerConfig(seed=43, n_samples=512)
    res = mc_propagate_model(engine_model, meas, cfg, lam=lam)
    children, sizes = mc_mod._batch_plan(cfg)
    assert sizes == [512]
    z = mc_mod._standard_draws(np.random.default_rng(children[0]), 512, 42, False)
    vb = engine_data.reshape(-1, order="F") + z @ mc_mod.psd_factor(Sigma_B).T
    B = vb.reshape(512, 7, 6).transpose(0, 2, 1)
    X = engine_model.pseudoinverse(lam) @ B
    F = engine_model.A @ X
    for draws, mean, cov in (
        (X, res.mu_X, res.Sigma_X),
        (F, res.mu_F, res.Sigma_F),
        (F - B, res.mu_R, res.Sigma_R),
    ):
        ref = np.cov(draws.transpose(0, 2, 1).reshape(512, -1), rowvar=False)  # vec order
        assert np.linalg.norm(cov - ref) <= 1e-10 * np.linalg.norm(ref)
        ref_mean = draws.mean(axis=0)
        assert np.linalg.norm(mean - ref_mean) <= 1e-10 * np.linalg.norm(ref_mean)


def test_mc_correlated_noise_shrinks_peak_band(engine_model, engine_data):
    rho = np.full((42, 42), 0.95)
    np.fill_diagonal(rho, 1.0)
    iid = MeasurementDistribution.from_iid(engine_data, SIGMA_B)
    cor = MeasurementDistribution.from_correlation(
        engine_data, np.full(42, SIGMA_B), rho
    )
    cfg = SamplerConfig(seed=41, n_samples=40_000)
    band_iid = mc_propagate_model(engine_model, iid, cfg).grid_var.max()
    band_cor = mc_propagate_model(engine_model, cor, cfg).grid_var.max()
    assert band_cor < band_iid


def test_scan_identifies_generating_pair(scan_geometry):
    X_true = coefficient_truth()
    data = design_matrix(SCAN_THETA, (1, 4)) @ X_true
    result = frequency_scan(scan_geometry, data, SIGMA_B, beta=BETA)
    assert result.best.omega == (1, 4)
    assert len(result.entries) == 45
    assert result.entries[0].mean_eps < result.entries[1].mean_eps
    # in-span fit: expected misfit is purely the noise share
    assert result.best.mean_eps == pytest.approx(SIGMA_B**2 * 7 * 4 / 63, rel=1e-9)


def test_scan_covers_all_pairs(scan_geometry):
    data = design_matrix(SCAN_THETA, (1, 4)) @ coefficient_truth()
    result = frequency_scan(scan_geometry, data, SIGMA_B, beta=BETA, max_freq=6)
    pairs = {e.omega for e in result.entries}
    assert len(result.entries) == 15
    assert pairs == {(i, j) for i in range(1, 7) for j in range(i + 1, 7)}
    eps = [e.mean_eps for e in result.entries]
    assert eps == sorted(eps)


def test_scan_flags_exhausted_pairs(scan_geometry):
    data = design_matrix(SCAN_THETA, (1, 4)) @ coefficient_truth()
    result = frequency_scan(
        scan_geometry, data, SIGMA_B, beta=1e-6, lambda_ladder=(0.0001,)
    )
    assert all(e.flagged for e in result.entries)
    assert all(np.isinf(e.mean_eps) for e in result.entries)
    assert all(e.lambda_used is None for e in result.entries)


def test_scan_aliased_lattice_pairs_inflate(engine_geometry, engine_data):
    # the six engine rakes sit on a 36-degree lattice, so frequency pairs
    # that alias there (2 with 8, 5 with 10) produce singular designs; the
    # ladder keeps them fittable but the expected misfit balloons
    result = frequency_scan(engine_geometry, engine_data, SIGMA_B, beta=BETA)
    by_pair = {e.omega: e for e in result.entries}
    clean = by_pair[(1, 4)]
    assert clean.lambda_used == 0.0
    assert clean.mean_eps == pytest.approx(SIGMA_B**2 * 7 / 42, rel=1e-9)
    for pair in [(2, 8), (5, 10)]:
        assert by_pair[pair].cond_AtA > 1e12
        assert by_pair[pair].lambda_used > 0.0
        assert by_pair[pair].mean_eps > 100.0 * clean.mean_eps


def test_scan_input_validation(scan_geometry):
    data = design_matrix(SCAN_THETA, (1, 4)) @ coefficient_truth()
    with pytest.raises(InvalidParams):
        frequency_scan(scan_geometry, data, 0.0)
    with pytest.raises(InvalidParams):
        frequency_scan(scan_geometry, data, SIGMA_B, max_freq=1)


def reference_scan(geometry, mu_B, sigma_b, max_freq=10, **build_kwargs):
    """Pair by pair: a full model, fit and propagated field per pair.

    Returns {omega: (lambda_used, mean_eps, cond_AtA, flagged)}.
    """
    mu_B = np.asarray(mu_B, dtype=float)
    if mu_B.ndim == 1:
        mu_B = mu_B[:, None]
    meas = MeasurementDistribution.from_iid(mu_B, sigma_b)
    out = {}
    for pair in combinations(range(1, max_freq + 1), 2):
        try:
            model = build_design_matrix(geometry, HarmonicSet(pair), **build_kwargs)
        except SingularDesign:
            out[pair] = (None, math.inf, math.inf, True)
            continue
        try:
            coeffs = fit(model, mu_B)
        except RegularizationExhausted:
            out[pair] = (None, math.inf, model.cond_AtA, True)
            continue
        field = FieldDistribution.from_measurements(model, meas, coeffs.lambda_used)
        mean_eps, _ = _residual_power_moments(field)
        out[pair] = (coeffs.lambda_used, mean_eps, model.cond_AtA, False)
    return out


FOUR_THETA = np.array([10.0, 100.0, 200.0, 300.0])


@pytest.mark.parametrize(
    "theta, data_pair, kwargs, expect",
    [
        (ENGINE_THETA, (1, 4), {"beta": BETA}, "ridge"),
        (ENGINE_THETA, (1, 4), {"beta": BETA, "lambda_ladder": (0.1, 10.0)}, "ridge"),
        # noise-free data in the span of the singular (2, 8) design: its plain
        # solve would pass the guard, but a singular pair must skip lambda = 0
        (ENGINE_THETA, (2, 8), {"beta": BETA}, "ridge"),
        (SCAN_THETA, (1, 4), {"beta": BETA, "max_freq": 12}, "plain"),
        (FOUR_THETA, (1, 4), {"beta": BETA}, "all_ridge"),
        (ENGINE_THETA, (1, 4), {"beta": BETA, "lambda_ladder": ()}, "flagged"),
        (SCAN_THETA, (1, 4), {"beta": 1e-6, "lambda_ladder": (0.0001,)}, "all_flagged"),
    ],
    ids=["lattice", "lattice-ladder", "lattice-aliased-data", "scan", "four-rakes",
         "empty-ladder", "exhausted"],
)
def test_scan_matches_per_pair_reference(theta, data_pair, kwargs, expect):
    geometry = AnnulusGeometry(theta, STATIONS, R_INNER, R_OUTER)
    mu_B = design_matrix(theta, data_pair) @ coefficient_truth()
    if data_pair == (1, 4):
        mu_B = mu_B + SIGMA_B * np.random.default_rng(17).standard_normal(mu_B.shape)
    result = frequency_scan(geometry, mu_B, SIGMA_B, **kwargs)
    ref = reference_scan(geometry, mu_B, SIGMA_B, **kwargs)
    assert sorted(e.omega for e in result.entries) == sorted(ref)
    keys = [(e.mean_eps, e.omega) for e in result.entries]
    assert keys == sorted(keys)
    for e in result.entries:
        lam, mean_eps, cond, flagged = ref[e.omega]
        assert (e.lambda_used, e.flagged, e.cond_AtA) == (lam, flagged, cond), e.omega
        if flagged:
            assert e.mean_eps == math.inf
        else:
            assert e.mean_eps == pytest.approx(mean_eps, rel=1e-12, abs=0.0)
    lams = [e.lambda_used for e in result.entries]
    # each case drives the path its id names
    if expect == "plain":
        assert all(lam == 0.0 for lam in lams)
    elif expect == "all_ridge":
        assert all(lam > 0.0 for lam in lams)
    elif expect == "ridge":
        assert 0.0 in lams and any(lam and lam > 0.0 for lam in lams)
    elif expect == "flagged":
        flagged = [e for e in result.entries if e.flagged]
        assert flagged and all(e.cond_AtA == math.inf for e in flagged)
        assert all(e.lambda_used == 0.0 for e in result.entries if not e.flagged)
    else:
        assert all(e.flagged for e in result.entries)


def test_scan_one_station_vector_matches_reference():
    geometry = AnnulusGeometry(SCAN_THETA, [0.5], R_INNER, R_OUTER)
    mu_B = (design_matrix(SCAN_THETA, (1, 4)) @ coefficient_truth([0.5]))[:, 0]
    result = frequency_scan(geometry, mu_B, SIGMA_B, beta=BETA)
    ref = reference_scan(geometry, mu_B, SIGMA_B, beta=BETA)
    for e in result.entries:
        lam, mean_eps, cond, flagged = ref[e.omega]
        assert (e.lambda_used, e.flagged, e.cond_AtA) == (lam, flagged, cond)
        assert e.mean_eps == pytest.approx(mean_eps, rel=1e-12, abs=0.0)
    assert result.best.omega == (1, 4)


@pytest.mark.parametrize(
    "sigma_b, kwargs, error",
    [
        (float("nan"), {}, InvalidParams),
        (float("inf"), {}, InvalidParams),
        (0.0, {}, InvalidParams),
        (SIGMA_B, {"beta": 0.0}, InvalidParams),
        (SIGMA_B, {"beta": -1.0}, InvalidParams),
        (SIGMA_B, {"lambda_ladder": (0.1, 0.0)}, InvalidParams),
        (SIGMA_B, {"lambda_ladder": (-0.1,)}, InvalidParams),
        (SIGMA_B, {"mu_B": np.zeros((9, 3))}, DimensionMismatch),
        (SIGMA_B, {"mu_B": np.zeros(9)}, DimensionMismatch),
        (SIGMA_B, {"mu_B": np.zeros((9, 7, 1))}, DimensionMismatch),
    ],
)
def test_scan_rejects_bad_inputs(scan_geometry, sigma_b, kwargs, error):
    kwargs = dict(kwargs)
    mu_B = kwargs.pop("mu_B", design_matrix(SCAN_THETA, (1, 4)) @ coefficient_truth())
    with pytest.raises(error):
        frequency_scan(scan_geometry, mu_B, sigma_b, **kwargs)


def test_fit_batch_walks_ladder_rung_by_rung():
    # one stack, four slices, each leaving the ladder at a different place;
    # the data lie in the span of the aliased (2, 8) lattice design
    #   0: (1, 4) on the lattice: well posed, plain fit accepted
    #   1: (2, 8) on the lattice: singular, masked, so first rung
    #   2: (1, 9) with two rakes nudged off the lattice: nonsingular, but
    #      lambda = 0 and the first rung break the guard, the second passes
    #   3: (1, 9) with one rake nudged: still singular, every rung breaks it
    B = design_matrix(ENGINE_THETA, (2, 8)) @ coefficient_truth()
    nudge2 = ENGINE_THETA + np.array([1e-5, -1e-5, 0, 0, 0, 0])
    nudge1 = ENGINE_THETA + np.array([1e-3, 0, 0, 0, 0, 0])
    cases = [(ENGINE_THETA, (1, 4)), (ENGINE_THETA, (2, 8)), (nudge2, (1, 9)), (nudge1, (1, 9))]
    guard = _RidgeGuard((1e-5, 1e-4), BETA)
    models = [
        build_design_matrix(
            AnnulusGeometry(theta, STATIONS, R_INNER, R_OUTER), HarmonicSet(pair),
            lambda_ladder=guard.lambda_ladder, beta=guard.beta,
        )
        for theta, pair in cases
    ]
    plain = np.array([m.P is not None for m in models])
    assert plain.tolist() == [True, False, True, False]
    A_stack = np.stack([m.A for m in models])
    X, lambdas, ok = mc_mod._fit_batch(guard, A_stack, B, plain=plain)
    assert ok.tolist() == [True, True, True, False]
    assert lambdas.tolist() == [0.0, 1e-5, 1e-4, 0.0]
    for i, model in enumerate(models):
        if not ok[i]:
            with pytest.raises(RegularizationExhausted):
                fit(model, B)
            assert np.isnan(X[i]).all()
            continue
        ref = fit(model, B)
        assert lambdas[i] == ref.lambda_used
        np.testing.assert_array_equal(X[i], ref.X)
    # the mask is what keeps slice 1 off lambda = 0: its plain solve is
    # meaningless but happens to pass the guard
    _, unmasked, _ = mc_mod._fit_batch(guard, A_stack, B)
    assert unmasked.tolist() == [0.0, 0.0, 1e-4, 0.0]


@pytest.fixture(scope="module")
def engine_setup(engine_model, engine_data):
    return engine_model, engine_data


def test_rake_mc_zero_scatter_bit_exact(engine_model, engine_data):
    res = rake_position_mc(
        engine_model, engine_data, 0.0, SamplerConfig(seed=11, n_samples=300)
    )
    coeffs = fit(engine_model, engine_data)
    assert (res.coefficients == coeffs.X).all()
    det = station_predictions(
        coeffs.X, res.theta_pred_deg, engine_model.harmonics.omega
    )
    np.testing.assert_array_equal(res.grid_mean, det)
    np.testing.assert_array_equal(res.grid_var, np.zeros_like(res.grid_var))
    assert res.n_failed == 0


def test_rake_mc_singular_nominal_design_follows_fit():
    # (2, 8) aliases on the paper lattice: fit() skips lambda = 0, and so
    # must the nominal fit and every draw, or the zero-scatter grid is the
    # meaningless plain solve rather than the deterministic prediction
    geometry = AnnulusGeometry(ENGINE_THETA, STATIONS, R_INNER, R_OUTER)
    model = build_design_matrix(geometry, HarmonicSet((2, 8)), beta=BETA)
    assert model.P is None
    B = model.A @ np.random.default_rng(3).standard_normal((5, 7))
    coeffs = fit(model, B)
    assert coeffs.lambda_used == model.lambda_ladder[0]
    res = rake_position_mc(model, B, 0.0, SamplerConfig(seed=5, n_samples=64))
    assert res.n_failed == 0
    assert (res.coefficients == coeffs.X).all()
    assert (res.lambdas == coeffs.lambda_used).all()
    det = station_predictions(coeffs.X, res.theta_pred_deg, (2, 8))
    np.testing.assert_array_equal(res.grid_mean, det)


def test_rake_mc_variance_grows_with_scatter(engine_model, engine_data):
    lo = rake_position_mc(
        engine_model,
        engine_data,
        0.51,
        SamplerConfig(seed=4, n_samples=20_000),
        n_prediction=90,
    )
    hi = rake_position_mc(
        engine_model,
        engine_data,
        5.1,
        SamplerConfig(seed=4, n_samples=20_000),
        n_prediction=90,
    )
    assert np.all(hi.grid_var > lo.grid_var)
    # a realistic placement tolerance leaves the band small next to the
    # field's own harmonic amplitudes (~5 K)
    assert 1.96 * np.sqrt(lo.grid_var.max()) < 0.5


def test_rake_mc_norm_guard_enforced(engine_model, engine_data):
    res = rake_position_mc(
        engine_model,
        engine_data,
        5.1,
        SamplerConfig(seed=4, n_samples=4096),
        n_prediction=36,
    )
    norms = np.linalg.norm(res.coefficients, ord=2, axis=(1, 2))
    assert np.all(norms < BETA)
    assert res.coefficients.shape == (4096 - res.n_failed, 5, 7)
    assert res.lambdas.shape == (4096 - res.n_failed,)


def test_rake_mc_deterministic(engine_model, engine_data):
    cfg = SamplerConfig(seed=21, n_samples=8192)
    a = rake_position_mc(engine_model, engine_data, 1.0, cfg, n_prediction=36)
    b = rake_position_mc(engine_model, engine_data, 1.0, cfg, n_prediction=36)
    np.testing.assert_array_equal(a.grid_var, b.grid_var)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_rake_mc_grid_moments_match_kept_draws(engine_model, engine_data):
    res = rake_position_mc(
        engine_model, engine_data, 5.1, SamplerConfig(seed=4, n_samples=4096),
        n_prediction=36,
    )
    A_pred = design_matrix(res.theta_pred_deg, engine_model.harmonics.omega)
    grids = A_pred @ res.coefficients
    np.testing.assert_allclose(res.grid_mean, grids.mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(res.grid_var, grids.var(axis=0, ddof=1), rtol=1e-10)


def test_rake_mc_thread_invariant(engine_model, engine_data, monkeypatch):
    cfg = SamplerConfig(seed=21, n_samples=10_000)
    assert len(mc_mod._batch_plan(cfg)[1]) == 2
    monkeypatch.setenv("RAKEUQ_THREADS", "1")
    a = rake_position_mc(engine_model, engine_data, 1.0, cfg, n_prediction=36)
    monkeypatch.setenv("RAKEUQ_THREADS", "4")
    b = rake_position_mc(engine_model, engine_data, 1.0, cfg, n_prediction=36)
    np.testing.assert_array_equal(a.grid_mean, b.grid_mean)
    np.testing.assert_array_equal(a.grid_var, b.grid_var)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_rake_mc_seed_stability(engine_model, engine_data):
    a = rake_position_mc(
        engine_model, engine_data, 0.51,
        SamplerConfig(seed=4, n_samples=50_000), n_prediction=45,
    )
    b = rake_position_mc(
        engine_model, engine_data, 0.51,
        SamplerConfig(seed=99, n_samples=50_000), n_prediction=45,
    )
    rel = np.abs(a.grid_var - b.grid_var) / a.grid_var.max()
    assert rel.max() < 0.02


def test_rake_mc_full_covariance_matches_scalar(engine_model, engine_data):
    cfg = SamplerConfig(seed=13, n_samples=4096)
    scalar = rake_position_mc(engine_model, engine_data, 0.7, cfg, n_prediction=36)
    full = rake_position_mc(
        engine_model, engine_data, 0.7**2 * np.eye(6), cfg, n_prediction=36
    )
    np.testing.assert_array_equal(scalar.grid_var, full.grid_var)


def test_fit_batch_norm_guard_past_gram_overflow(engine_geometry, engine_data):
    # coefficients near 1e200 overflow the K x K Gram matrix; the guard
    # must still measure their spectral norm rather than raise
    A_stack = design_matrix(ENGINE_THETA + np.array([[0.0], [1.0]]), (1, 4))
    for beta, accepted in ((BETA, False), (np.inf, True)):
        model = build_design_matrix(engine_geometry, HarmonicSet((1, 4)), beta=beta)
        X, lambdas, ok = mc_mod._fit_batch(model, A_stack, 1e200 * engine_data)
        assert ok.tolist() == [accepted, accepted]
        assert np.all(lambdas == 0.0)


def test_rake_mc_aborts_when_fits_fail(engine_geometry, engine_data):
    hopeless = build_design_matrix(engine_geometry, HarmonicSet((1, 4)), beta=1e-6)
    with pytest.raises(DrawFailed):
        rake_position_mc(
            hopeless, engine_data, 0.5, SamplerConfig(seed=2, n_samples=256)
        )


def test_batch_plan_partitions_samples():
    children, sizes = mc_mod._batch_plan(SamplerConfig(seed=1, n_samples=20_000))
    assert sum(sizes) == 20_000
    assert all(s > 0 for s in sizes)
    assert len(children) == len(sizes)
