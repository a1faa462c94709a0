import math
import os
import signal
import sys
import threading
import time
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import block_diag

import rakeuq.fourier as fourier_mod
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
    fit,
    frequency_scan,
    mc_propagate_model,
    rake_position_mc,
    sample_mvn,
    station_predictions,
)
from rakeuq.fourier import _RidgeGuard, _spectral_norms, ridge_solve
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
    for value in (np.nan, np.inf):
        cov = np.eye(2)
        cov[0, 1] = cov[1, 0] = value
        with pytest.raises(InvalidParams, match="finite"):
            sample_mvn(np.zeros(2), cov, SamplerConfig(1, 10))
        with pytest.raises(InvalidParams, match="finite"):
            mc_mod._psd_factor(cov)


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
    mean_c = params.scale * (params.g + params.phi)
    var_c = params.scale**2 * (2 * params.g + 4 * params.phi)
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


def test_mc_deterministic_run_to_run(engine_model, engine_meas):
    cfg = SamplerConfig(seed=99, n_samples=20_000)
    a = mc_propagate_model(engine_model, engine_meas, cfg)
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
    # rebuild the draws of a one-block run and evaluate W X A_g^T per draw
    Sigma_B = random_psd(42, np.random.default_rng(29))
    meas = MeasurementDistribution(engine_data, Sigma_B)
    cfg = SamplerConfig(seed=31, n_samples=512)
    res = mc_propagate_model(engine_model, meas, cfg)
    children, sizes = mc_mod._batch_plan(cfg, mc_mod.BLOCK)
    assert sizes == [512]
    z = np.random.default_rng(children[0]).standard_normal((512, 42))
    vb = engine_data.reshape(-1, order="F") + z @ mc_mod._psd_factor(Sigma_B)[1].T
    B = vb.reshape(512, 7, 6).transpose(0, 2, 1)
    X = engine_model.P @ B
    W = engine_model.radial.blend(res.r_fracs)
    A_g = design_matrix(res.theta_grid_deg, engine_model.harmonics.omega)
    grids = np.einsum("rm,bkm,tk->brt", W, X, A_g)
    np.testing.assert_allclose(res.grid_mean, grids.mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(res.grid_var, grids.var(axis=0, ddof=1), rtol=1e-10)


# One noise model per block shape of MeasurementDistribution.factor_blocks:
# one (1, NM, NM) block, (M, N, N) station blocks, diagonal blocks, and one
# (1, N, N) sigma_b I block standing for every station.
NOISE = {
    "dense": lambda mu: MeasurementDistribution(mu, random_psd(42, np.random.default_rng(37))),
    "station blocks": lambda mu: MeasurementDistribution(
        mu, block_diag(*(random_psd(6, np.random.default_rng(s)) for s in range(7)))
    ),
    "diagonal": lambda mu: MeasurementDistribution.from_diagonal(mu, np.linspace(0.3, 0.7, 42)),
    "iid": lambda mu: MeasurementDistribution.from_iid(mu, SIGMA_B),
}


@pytest.mark.parametrize("noise", list(NOISE))
def test_mc_covariances_match_per_draw_samples(engine_model, engine_data, noise):
    # one block rebuilt draw by draw: X = P B, F = A X and R = F - B
    lam = 0.1
    meas = NOISE[noise](engine_data)
    n_blocks, n = {"dense": (1, 42), "iid": (1, 6)}.get(noise, (7, 6))
    assert meas.factor_blocks.shape == (n_blocks, n, n)
    cfg = SamplerConfig(seed=43, n_samples=512)
    res = mc_propagate_model(engine_model, meas, cfg, lam=lam)
    children, sizes = mc_mod._batch_plan(cfg, mc_mod.BLOCK)
    assert sizes == [512]
    z = np.random.default_rng(children[0]).standard_normal((512, 42))
    vb = engine_data.reshape(-1, order="F") + z @ mc_mod._psd_factor(meas.Sigma_B)[1].T
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


@pytest.fixture
def factorizations(monkeypatch):
    """(name, input shape) of every cholesky, eigh and eigvalsh call."""
    calls = []
    for name in ("cholesky", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "noise,calls",
    [
        ("iid", []),
        ("dense", [("cholesky", (1, 42, 42))]),
        ("station blocks", [("cholesky", (7, 6, 6))]),
        ("diagonal", []),
    ],
)
def test_sampling_factors_sigma_b_at_most_once(
    engine_model, engine_data, factorizations, noise, calls
):
    # the constructor's one check of Sigma_B is the factor the draws use
    meas = NOISE[noise](engine_data)
    mc_propagate_model(engine_model, meas, SamplerConfig(seed=2, n_samples=64))
    assert factorizations == calls
    assert "Sigma_B" not in meas.__dict__


def _ar1(n, phi):
    return phi ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))


CORRELATION = {
    "within stations": (np.kron(np.eye(7), _ar1(6, 0.3)), [("cholesky", (7, 6, 6))]),
    "across stations": (_ar1(42, 0.3), [("cholesky", (1, 42, 42))]),
}


@pytest.mark.parametrize("zero_sigma", [False, True], ids=["positive sigmas", "zero sigmas"])
@pytest.mark.parametrize("structure", list(CORRELATION))
def test_from_correlation_factors_rho_once(
    engine_model, engine_data, factorizations, structure, zero_sigma
):
    # one Cholesky of rho in its own block form, never of D rho D: a zero
    # sigma makes D rho D singular but D L_rho is still an exact factor
    rho, calls = CORRELATION[structure]
    sigma = np.linspace(0.3, 0.7, 42)
    if zero_sigma:
        sigma[[0, 5, 41]] = 0.0
    meas = MeasurementDistribution.from_correlation(engine_data, sigma, rho)
    mc_propagate_model(engine_model, meas, SamplerConfig(seed=2, n_samples=64))
    assert factorizations == calls
    L = meas.factor_blocks
    assert L.shape == meas.station_blocks.shape == calls[0][1]
    np.testing.assert_allclose(L @ L.transpose(0, 2, 1), meas.station_blocks, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(meas.Sigma_B, rho * np.outer(sigma, sigma))
    np.testing.assert_array_equal(meas.Sigma_B, meas.Sigma_B.T)


def test_from_diagonal_factor_is_sigma_exactly(engine_data, factorizations):
    sigma = np.linspace(0.3, 0.7, 42)
    sigma[[0, 5, 41]] = 0.0
    meas = MeasurementDistribution.from_diagonal(engine_data, sigma)
    assert factorizations == []
    blocks = np.zeros((7, 6, 6))
    blocks[:, np.arange(6), np.arange(6)] = sigma.reshape(7, 6)
    np.testing.assert_array_equal(meas.factor_blocks, blocks)
    np.testing.assert_array_equal(meas.station_blocks, blocks**2)


def _per_draw_readings(meas, cfg):
    """Every draw's B, rebuilt block by block from _batch_plan."""
    L = mc_mod._psd_factor(meas.Sigma_B)[1]
    children, sizes = mc_mod._batch_plan(cfg, mc_mod.BLOCK)
    z = np.concatenate([
        np.random.default_rng(child).standard_normal((size, 42))
        for child, size in zip(children, sizes)
    ])
    return (meas.mu_B.reshape(-1, order="F") + z @ L.T).reshape(-1, 7, 6).transpose(0, 2, 1)


def _per_draw_fits(model, meas, cfg, lam):
    """X, F, R and eps of every draw, rebuilt block by block from _batch_plan."""
    B = _per_draw_readings(meas, cfg)
    X = model.pseudoinverse(lam) @ B
    F = model.A @ X
    R = F - B
    return X, F, R, np.einsum("bij,bij->b", R, R) / 42


@pytest.mark.parametrize(
    "harmonics,lam",
    [((1, 4), 0.0), ((1, 4), 0.1), ((1, 2, 3), 1e-4)],
    ids=["plain", "ridge", "fewer rakes than coefficients"],
)
def test_mc_one_block_eps_match_per_draw_residuals(engine_geometry, engine_data, harmonics, lam):
    # the engine takes each draw's metric from the range of AP - I only
    model = build_design_matrix(engine_geometry, HarmonicSet(harmonics), beta=BETA)
    meas = NOISE["dense"](engine_data)
    cfg = SamplerConfig(seed=53, n_samples=mc_mod.BLOCK)
    res = mc_propagate_model(model, meas, cfg, lam=lam)
    if model.P is not None:
        eps = _per_draw_fits(model, meas, cfg, lam)[3]
    else:
        # N = 6 < K = 7 at a ladder lambda: A P B - B loses about 1e-7 of
        # ||R||^2 to cancellation on these kelvin-scale readings, while
        # AP - I = -lam^2 (A A^T + lam^2 I)^{-1} is free of it
        A = model.A
        R = -lam**2 * np.linalg.solve(A @ A.T + lam**2 * np.eye(6), _per_draw_readings(meas, cfg))
        eps = np.einsum("bij,bij->b", R, R) / 42
    np.testing.assert_allclose(res.eps_samples, eps, rtol=1e-10)


@pytest.mark.parametrize("noise", ["dense", "station blocks"])
def test_mc_several_blocks_match_per_draw_samples(engine_model, engine_data, noise):
    lam = 0.1
    cfg = SamplerConfig(seed=47, n_samples=3 * mc_mod.BLOCK + 3)
    meas = NOISE[noise](engine_data)
    res = mc_propagate_model(engine_model, meas, cfg, lam=lam)
    X, F, R, eps = _per_draw_fits(engine_model, meas, cfg, lam)
    assert res.n_samples == eps.size == cfg.n_samples
    np.testing.assert_allclose(res.eps_samples, eps, rtol=1e-10)
    for draws, mean, cov in (
        (X, res.mu_X, res.Sigma_X),
        (F, res.mu_F, res.Sigma_F),
        (R, res.mu_R, res.Sigma_R),
    ):
        ref = np.cov(draws.transpose(0, 2, 1).reshape(cfg.n_samples, -1), rowvar=False)
        assert np.linalg.norm(cov - ref) <= 1e-10 * np.linalg.norm(ref)
        ref_mean = draws.mean(axis=0)
        assert np.linalg.norm(mean - ref_mean) <= 1e-10 * np.linalg.norm(ref_mean)


@pytest.mark.parametrize("noise", list(NOISE))
def test_mc_field_and_residual_covariances_built_on_read(engine_model, engine_data, noise):
    meas = NOISE[noise](engine_data)
    cfg = SamplerConfig(seed=61, n_samples=600)
    res = mc_propagate_model(engine_model, meas, cfg)
    res.eps_mean, res.eps_var, res.eps_var_se, res.grid_var, res.grid_mean_se, res.Sigma_X
    assert "Sigma_F" not in res.__dict__ and "Sigma_R" not in res.__dict__
    _, F, R, _ = _per_draw_fits(engine_model, meas, cfg, 0.0)
    for draws, cov in ((F, res.Sigma_F), (R, res.Sigma_R)):
        ref = np.cov(draws.transpose(0, 2, 1).reshape(cfg.n_samples, -1), rowvar=False)
        assert np.linalg.norm(cov - ref) <= 1e-10 * np.linalg.norm(ref)
    assert "Sigma_F" in res.__dict__ and "Sigma_R" in res.__dict__


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


def test_scan_aliased_pairs_tie_in_either_order(engine_geometry, engine_data):
    # the engine rakes sit at 18 + 36 j degrees, ten lattice points per turn,
    # so harmonic w and 10 - w give the same columns up to sign (w = 10 gives
    # the intercept and a zero column): pairs whose harmonics fall in the
    # same classes share a column space up to a signed column permutation,
    # and their means agree in exact arithmetic. Rounding may rank them
    # either way, so only the agreement and the exact sort key are asserted.
    result = frequency_scan(engine_geometry, engine_data, SIGMA_B, beta=BETA)
    groups = {}
    for e in result.entries:
        groups.setdefault(tuple(sorted(min(w % 10, -w % 10) for w in e.omega)), []).append(e)
    tied = [g for g in groups.values() if len(g) > 1]
    assert len(tied) >= 10
    assert {(3, 10), (7, 10)} <= {e.omega for g in tied for e in g}
    for g in tied:
        assert len({e.lambda_used for e in g}) == 1
        for e in g[1:]:
            assert e.mean_eps == pytest.approx(g[0].mean_eps, rel=1e-12, abs=0.0)
    keys = [(e.mean_eps, e.omega) for e in result.entries]
    assert keys == sorted(keys)


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


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"beta": math.nan}, "beta"),
        ({"lambda_ladder": (math.nan,)}, "lambda_ladder"),
        ({"lambda_ladder": (0.1, math.inf)}, "lambda_ladder"),
        ({"lambda_ladder": (-math.inf,)}, "lambda_ladder"),
    ],
    ids=["nan-beta", "nan-rung", "inf-rung", "minus-inf-rung"],
)
def test_scan_rejects_nan_and_infinite_guard_settings(scan_geometry, kwargs, name):
    mu_B = design_matrix(SCAN_THETA, (1, 4)) @ coefficient_truth()
    with pytest.raises(InvalidParams, match=name):
        frequency_scan(scan_geometry, mu_B, SIGMA_B, **kwargs)


def test_scan_accepts_infinite_beta(scan_geometry):
    mu_B = design_matrix(SCAN_THETA, (1, 4)) @ coefficient_truth()
    result = frequency_scan(scan_geometry, mu_B, SIGMA_B, beta=math.inf)
    assert result.best.omega == (1, 4)
    assert not any(e.flagged for e in result.entries)


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


@pytest.mark.parametrize("masked", [True, False], ids=["masked", "plain-everywhere"])
def test_fit_batch_carried_columns_ride_the_walk(masked):
    # the four slices of the rung-by-rung test: well posed, aliased (first
    # rung when masked), second rung, exhausted; unmasked, lambda = 0 is a
    # whole-stack rung, whose candidates become the output
    B = design_matrix(ENGINE_THETA, (2, 8)) @ coefficient_truth()
    nudge2 = ENGINE_THETA + np.array([1e-5, -1e-5, 0, 0, 0, 0])
    nudge1 = ENGINE_THETA + np.array([1e-3, 0, 0, 0, 0, 0])
    A_stack = np.stack([
        design_matrix(theta, pair)
        for theta, pair in [(ENGINE_THETA, (1, 4)), (ENGINE_THETA, (2, 8)),
                            (nudge2, (1, 9)), (nudge1, (1, 9))]
    ])
    guard = _RidgeGuard((1e-5, 1e-4), BETA)
    plain = np.array([True, False, True, False]) if masked else True
    N, M = B.shape
    X, lambdas, ok = mc_mod._fit_batch(guard, A_stack, B, plain=plain)
    XC, lambdas_c, ok_c = mc_mod._fit_batch(guard, A_stack, B, plain=plain, carry=np.eye(N))
    assert ok.tolist() == [True, True, True, False]
    assert XC.shape == (4, 5, M + N)
    np.testing.assert_array_equal(lambdas_c, lambdas)
    np.testing.assert_array_equal(ok_c, ok)
    np.testing.assert_array_equal(XC[..., :M], X)
    for i in range(4):
        if ok[i]:
            P = ridge_solve(A_stack[i], np.eye(N), lambdas[i])
            np.testing.assert_array_equal(XC[i, :, M:], P)
        else:
            assert np.isnan(XC[i]).all()


def test_scan_factors_each_rung_once(engine_geometry, engine_data, monkeypatch):
    # the lattice's nonsingular pairs pass at lambda = 0 and its singular
    # pairs at the first rung: two rungs walked, and each pair's
    # pseudoinverse comes out of the same factorizations
    calls = []
    original = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    result = frequency_scan(
        engine_geometry, engine_data, SIGMA_B, beta=BETA, lambda_ladder=(0.1, 10.0)
    )
    assert {e.lambda_used for e in result.entries} == {0.0, 0.1}
    assert len(calls) == 2


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


def test_rake_mc_deterministic_run_to_run(engine_model, engine_data):
    cfg = SamplerConfig(seed=21, n_samples=10_000)
    assert len(mc_mod._batch_plan(cfg, mc_mod.BLOCK)[1]) == 10
    a = rake_position_mc(engine_model, engine_data, 1.0, cfg, n_prediction=36)
    b = rake_position_mc(engine_model, engine_data, 1.0, cfg, n_prediction=36)
    np.testing.assert_array_equal(a.grid_mean, b.grid_mean)
    np.testing.assert_array_equal(a.grid_var, b.grid_var)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_rake_mc_two_blocks_match_per_draw_fits(engine_model, engine_data):
    # rebuild each draw's angles from the block plan, then fit every draw
    # alone with fit() on a model built at that draw's angles
    cfg = SamplerConfig(seed=23, n_samples=mc_mod.BLOCK + 3)
    res = rake_position_mc(engine_model, engine_data, 1.0, cfg, n_prediction=36)
    assert res.n_failed == 0
    children, sizes = mc_mod._batch_plan(cfg, mc_mod.BLOCK)
    assert sizes == [mc_mod.BLOCK, 3]
    N = engine_model.n_rakes
    L = mc_mod._psd_factor(np.eye(N))[1]
    thetas = np.concatenate([
        mc_mod._wrap_degrees(
            engine_model.geometry.theta_deg
            + np.random.default_rng(child).standard_normal((size, N)) @ L.T
        )
        for child, size in zip(children, sizes)
    ])
    fits = [
        fit(
            build_design_matrix(
                replace(engine_model.geometry, theta_deg=theta),
                engine_model.harmonics,
                lambda_ladder=engine_model.lambda_ladder,
                beta=engine_model.beta,
            ),
            engine_data,
        )
        for theta in thetas
    ]
    X = np.stack([f.X for f in fits])
    np.testing.assert_array_equal(res.coefficients, X)
    np.testing.assert_array_equal(res.lambdas, [f.lambda_used for f in fits])
    grids = design_matrix(res.theta_pred_deg, engine_model.harmonics.omega) @ X
    np.testing.assert_allclose(res.grid_mean, grids.mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(res.grid_var, grids.var(axis=0, ddof=1), rtol=1e-10)


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


def test_rake_mc_screen_matches_exact_norm(engine_geometry, engine_data, monkeypatch):
    # at 2 degrees of scatter the draws' spectral norms spread over about
    # 1394 to 1397, so this beta accepts some plain fits, sends others up
    # the ladder and lets a few exhaust it
    model = build_design_matrix(
        engine_geometry, HarmonicSet((1, 4)), beta=1396.0, lambda_ladder=(1e-3, 0.03)
    )

    def run():
        return rake_position_mc(
            model, engine_data, 2.0, SamplerConfig(seed=3, n_samples=1000),
            n_prediction=36,
        )

    screened = run()
    monkeypatch.setattr(fourier_mod, "_below_beta", lambda X, beta: _spectral_norms(X) < beta)
    exact = run()
    assert screened.n_failed == exact.n_failed > 0
    assert set(exact.lambdas.tolist()) == {0.0, 1e-3, 0.03}
    np.testing.assert_array_equal(screened.lambdas, exact.lambdas)
    np.testing.assert_array_equal(screened.coefficients, exact.coefficients)
    np.testing.assert_array_equal(screened.grid_var, exact.grid_var)


def test_rake_mc_aborts_when_more_than_one_percent_of_draws_fail(engine_geometry, engine_data):
    # the campaign above: at beta 1396 5 of 1000 draws exhaust the ladder,
    # and half a unit lower 130 do
    def run(beta):
        model = build_design_matrix(
            engine_geometry, HarmonicSet((1, 4)), beta=beta, lambda_ladder=(1e-3, 0.03)
        )
        return rake_position_mc(
            model, engine_data, 2.0, SamplerConfig(seed=3, n_samples=1000), n_prediction=36
        )

    assert run(1396.0).n_failed == 5
    with pytest.raises(DrawFailed, match=r"^130 of 1000 rake-position draws failed to fit \(> 1%\)$"):
        run(1395.5)


def test_rake_mc_makes_no_per_slice_lapack_calls(engine_model, engine_data, monkeypatch):
    # every draw's norm is far below beta, so the Frobenius screen decides
    # them all, and the triangular solves are back-substitution
    calls = {"solve": 0, "eigvalsh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    res = rake_position_mc(engine_model, engine_data, 0.5, SamplerConfig(seed=1, n_samples=4096))
    assert res.n_failed == 0
    assert calls == {"solve": 0, "eigvalsh": 0}
    # the counters do see calls: the reported norm is the exact one
    fit(engine_model, engine_data).spectral_norm
    assert calls["eigvalsh"] == 1


def test_wrap_degrees_is_np_mod_bit_for_bit():
    rng = np.random.default_rng(71)
    edges = [0.0, -0.0, 360.0, -360.0, 720.0, -720.0, 5e-324, -5e-324, -1e-17,
             np.nextafter(360.0, 0.0), -np.nextafter(360.0, 0.0), 1e300, -1e300]
    theta = np.concatenate([rng.standard_normal(20_000) * s for s in (1.0, 400.0, 1e9)] + [edges])
    wrapped = mc_mod._wrap_degrees(theta)
    np.testing.assert_array_equal(wrapped.view(np.int64), np.mod(theta, 360.0).view(np.int64))


@pytest.mark.parametrize("sigma_theta", [np.nan, np.inf, -0.5, 1e200])
def test_rake_mc_rejects_bad_scatter(engine_model, engine_data, sigma_theta):
    cfg = SamplerConfig(seed=2, n_samples=16)
    with pytest.raises(InvalidParams, match="sigma_theta"):
        rake_position_mc(engine_model, engine_data, sigma_theta, cfg)
    if not math.isfinite(sigma_theta):
        Sigma_theta = 0.25 * np.eye(6)
        Sigma_theta[0, 1] = Sigma_theta[1, 0] = sigma_theta
        with pytest.raises(InvalidParams, match="Sigma_theta"):
            rake_position_mc(engine_model, engine_data, Sigma_theta, cfg)


def test_rake_mc_aborts_when_fits_fail(engine_geometry, engine_data):
    hopeless = build_design_matrix(engine_geometry, HarmonicSet((1, 4)), beta=1e-6)
    with pytest.raises(DrawFailed):
        rake_position_mc(
            hopeless, engine_data, 0.5, SamplerConfig(seed=2, n_samples=256)
        )


def test_batch_plan_partitions_samples():
    cfg = SamplerConfig(seed=1, n_samples=20_000)
    children, sizes = mc_mod._batch_plan(cfg, mc_mod.BLOCK)
    assert sizes == [mc_mod.BLOCK] * 19 + [544]
    assert len(children) == len(sizes)


# Both engines work their blocks on the calling thread and the process's
# worker pool, one block per usable CPU at once. The pool is made on first
# use and kept: a call may leave up to usable CPUs - 1 ``rakeuq-mc`` threads
# running, and none other, and a repeat call at the same CPU count starts
# none. A forked child makes its own pool. A block's draws, and every
# slice's fit, are independent of the rest of the run, bit for bit, so no
# result may depend on the CPU count or on the pool being warm. The tests
# that force a CPU count start from an empty pool (``fresh_pool``), so that
# the threads a run starts can be counted.

RAKE_FIELDS = ("coefficients", "lambdas", "grid_mean", "grid_var")
MC_FIELDS = ("mu_X", "Sigma_X", "mu_R", "eps_samples", "grid_mean", "grid_var", "Sigma_R")


@pytest.fixture
def fresh_pool(monkeypatch):
    """No worker pool yet; the process's own comes back after the test."""
    monkeypatch.setattr(mc_mod, "_pool", None)


def _new_threads(before):
    """The threads running now that were not in ``before``, each of which
    must be a worker of the engines' pool."""
    new = set(threading.enumerate()) - before
    assert all(t.name.startswith("rakeuq-mc") for t in new), new
    return new


def _at_cpu_counts(monkeypatch, run, counts=(1, 2, 4)):
    """run() with the usable CPU count forced to each of ``counts``, from an
    empty pool, and the sorted stack sizes that ``_fit_batch`` saw in each
    run. A run at n CPUs may leave at most n - 1 pool workers running."""
    monkeypatch.setattr(mc_mod, "_pool", None)
    results, stacks = [], []
    fit_batch = mc_mod._fit_batch
    for n in counts:
        seen = []

        def counted(guard, A_stack, *args, **kwargs):
            seen.append(A_stack.shape[0])
            return fit_batch(guard, A_stack, *args, **kwargs)

        monkeypatch.setattr(mc_mod, "_usable_cpus", lambda n=n: n)
        monkeypatch.setattr(mc_mod, "_fit_batch", counted)
        before = set(threading.enumerate())
        results.append(run())
        assert len(_new_threads(before)) <= n - 1
        stacks.append(sorted(seen))
    return results, stacks


def _assert_same_bytes(results, fields):
    for name in fields:
        ref = np.asarray(getattr(results[0], name))
        for other in results[1:]:
            value = np.asarray(getattr(other, name))
            assert value.shape == ref.shape and value.tobytes() == ref.tobytes(), name


def _rake_stacks(cfg):
    """The stack sizes ``_fit_batch`` sees in a rake run: the nominal fit,
    then one stack per block of the plan, sorted."""
    return sorted([1] + mc_mod._batch_plan(cfg, mc_mod.BLOCK)[1])


def test_rake_mc_three_blocks_same_bytes_for_any_cpu_count(engine_model, engine_data, monkeypatch):
    cfg = SamplerConfig(seed=21, n_samples=mc_mod.BLOCK + 2000)
    results, stacks = _at_cpu_counts(
        monkeypatch, lambda: rake_position_mc(engine_model, engine_data, 1.0, cfg, n_prediction=36))
    assert stacks == [_rake_stacks(cfg)] * 3
    _assert_same_bytes(results, RAKE_FIELDS)


def test_rake_mc_ridge_rungs_and_dropped_draws_same_bytes_for_any_cpu_count(
    engine_geometry, engine_data, monkeypatch
):
    # as in test_rake_mc_screen_matches_exact_norm: some draws pass plain,
    # some take each rung, and some exhaust the ladder and are dropped
    model = build_design_matrix(
        engine_geometry, HarmonicSet((1, 4)), beta=1396.0, lambda_ladder=(1e-3, 0.03)
    )
    cfg = SamplerConfig(seed=3, n_samples=2500)
    results, stacks = _at_cpu_counts(
        monkeypatch, lambda: rake_position_mc(model, engine_data, 2.0, cfg, n_prediction=36))
    assert stacks == [_rake_stacks(cfg)] * 3
    assert results[0].n_failed > 0
    assert set(results[0].lambdas.tolist()) == {0.0, 1e-3, 0.03}
    assert len({r.n_failed for r in results}) == 1
    _assert_same_bytes(results, RAKE_FIELDS)


def test_mc_several_blocks_same_bytes_for_any_cpu_count(engine_model, engine_data, monkeypatch):
    meas = MeasurementDistribution.from_diagonal(engine_data, np.linspace(0.3, 0.7, 42))
    cfg = SamplerConfig(seed=99, n_samples=3 * mc_mod.BLOCK + 1000)
    results, _ = _at_cpu_counts(monkeypatch, lambda: mc_propagate_model(engine_model, meas, cfg))
    _assert_same_bytes(results, MC_FIELDS)


class _NoThreads(Exception):
    pass


def test_fit_scan_and_small_stacks_start_no_thread(
    engine_model, engine_geometry, engine_data, engine_meas, monkeypatch
):
    # the pool accessor refuses, so a pool made by an earlier test is not
    # reached either
    def refuse(*args, **kwargs):
        raise _NoThreads

    monkeypatch.setattr(mc_mod, "_workers", refuse)
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 4)
    one_block = SamplerConfig(seed=5, n_samples=mc_mod.BLOCK)
    two_blocks = replace(one_block, n_samples=mc_mod.BLOCK + 1)
    fit(engine_model, engine_data)
    frequency_scan(engine_geometry, engine_data, SIGMA_B, beta=BETA)
    rake_position_mc(engine_model, engine_data, 0.5, one_block)
    mc_propagate_model(engine_model, engine_meas, one_block)
    # the refusals are live: one more draw adds a block
    with pytest.raises(_NoThreads):
        rake_position_mc(engine_model, engine_data, 0.5, two_blocks)
    with pytest.raises(_NoThreads):
        mc_propagate_model(engine_model, engine_meas, two_blocks)


def test_worker_block_exception_reaches_caller(engine_model, engine_data, monkeypatch, fresh_pool):
    fit_batch = mc_mod._fit_batch

    def fail_off_main(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RegularizationExhausted("worker block")
        return fit_batch(*args, **kwargs)

    monkeypatch.setattr(mc_mod, "_fit_batch", fail_off_main)
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 2)
    before = set(threading.enumerate())
    with pytest.raises(RegularizationExhausted, match="worker block"):
        rake_position_mc(engine_model, engine_data, 0.5, SamplerConfig(seed=1, n_samples=2048))
    assert len(_new_threads(before)) <= 1


class _BlockFailed(Exception):
    pass


def test_worker_block_exception_reaches_caller_after_every_block(
    engine_model, engine_meas, monkeypatch, fresh_pool
):
    # three blocks in one round on three CPUs: block 0 on the calling thread,
    # block 1 raises on a worker, and block 2 is still running when it does
    pooled = mc_mod._pooled
    finished, raised_on_worker = [], []

    def with_failing_block(work, tasks):
        def block(seed_child, *rest):
            index = seed_child.spawn_key[-1]
            if index == 1:
                raised_on_worker.append(threading.current_thread() is not threading.main_thread())
                raise _BlockFailed
            if index == 2:
                time.sleep(0.1)
            out = work(seed_child, *rest)
            finished.append(index)
            return out

        return pooled(block, tasks)

    monkeypatch.setattr(mc_mod, "_pooled", with_failing_block)
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 3)
    before = set(threading.enumerate())
    with pytest.raises(_BlockFailed):
        mc_propagate_model(engine_model, engine_meas, SamplerConfig(seed=1, n_samples=3 * mc_mod.BLOCK))
    assert raised_on_worker == [True]
    assert sorted(finished) == [0, 2]
    assert len(_new_threads(before)) <= 2


def test_caller_block_exception_waits_for_the_round(engine_model, engine_data, monkeypatch, fresh_pool):
    # two blocks on two CPUs: block 0 raises on the calling thread at once,
    # while block 1 is still running on the worker
    pooled = mc_mod._pooled
    finished = []

    def with_failing_caller_block(work, tasks):
        def block(seed_child, *rest):
            if seed_child.spawn_key[-1] == 0:
                raise _BlockFailed
            time.sleep(0.1)
            out = work(seed_child, *rest)
            finished.append(threading.current_thread().name)
            return out

        return pooled(block, tasks)

    monkeypatch.setattr(mc_mod, "_pooled", with_failing_caller_block)
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 2)
    with pytest.raises(_BlockFailed):
        rake_position_mc(engine_model, engine_data, 0.5, SamplerConfig(seed=1, n_samples=2 * mc_mod.BLOCK))
    assert len(finished) == 1 and finished[0].startswith("rakeuq-mc")


def _engine_runs(model, data, meas):
    """A three-block rake run and a two-block propagation run."""
    return (
        rake_position_mc(model, data, 1.0, SamplerConfig(seed=8, n_samples=2 * mc_mod.BLOCK + 500),
                         n_prediction=36),
        mc_propagate_model(model, meas, SamplerConfig(seed=8, n_samples=2 * mc_mod.BLOCK)),
    )


def _assert_same_engine_bytes(runs, reference):
    (rake, mc), (rake_ref, mc_ref) = runs, reference
    _assert_same_bytes([rake_ref, rake], RAKE_FIELDS)
    _assert_same_bytes([mc_ref, mc], MC_FIELDS)


def test_warm_pool_repeat_call_same_bytes_and_starts_no_thread(
    engine_model, engine_data, engine_meas, monkeypatch, fresh_pool
):
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 2)
    before = set(threading.enumerate())
    first = _engine_runs(engine_model, engine_data, engine_meas)
    workers = _new_threads(before)
    assert len(workers) == 1
    before = set(threading.enumerate())
    _assert_same_engine_bytes(_engine_runs(engine_model, engine_data, engine_meas), first)
    assert _new_threads(before) == set()
    assert workers <= set(threading.enumerate())
    # one more usable CPU asks for two workers: a new pool starts its own
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 3)
    before = set(threading.enumerate())
    _assert_same_engine_bytes(_engine_runs(engine_model, engine_data, engine_meas), first)
    assert 1 <= len(_new_threads(before)) <= 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_runs_both_engines_to_the_parents_bytes(
    engine_model, engine_data, engine_meas, monkeypatch, fresh_pool
):
    # the parent's worker is not copied into the child: a child that kept
    # the parent's pool would queue its blocks for no thread, and hang
    import warnings

    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 2)
    parent = _engine_runs(engine_model, engine_data, engine_meas)
    with warnings.catch_warnings():
        # Python 3.12 warns on a fork with threads running
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _assert_same_engine_bytes(_engine_runs(engine_model, engine_data, engine_meas), parent)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_concurrent_callers_share_one_pool(engine_model, engine_data, engine_meas, monkeypatch, fresh_pool):
    # four calling threads on two CPUs, switching often: every caller gets
    # the reference bytes, and one pool of one worker serves them all
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 1)
    reference = _engine_runs(engine_model, engine_data, engine_meas)
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 2)
    before = set(threading.enumerate())
    runs = [None] * 4

    def call(i):
        runs[i] = _engine_runs(engine_model, engine_data, engine_meas)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for run in runs:
        _assert_same_engine_bytes(run, reference)
    assert len(_new_threads(before)) == 1


def test_mc_memory_does_not_grow_with_the_block_count(monkeypatch):
    # every block's sums are folded as its round completes: at 24 x 20
    # (NM = 480) a run of 16 blocks peaks like one of 2 on the same two CPUs
    import tracemalloc

    geometry = AnnulusGeometry(15.0 * np.arange(24), np.linspace(0.05, 0.95, 20), R_INNER, R_OUTER)
    model = build_design_matrix(geometry, HarmonicSet((1, 4)), beta=BETA)
    meas = MeasurementDistribution.from_iid(np.full((24, 20), 500.0), SIGMA_B)
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 2)
    peaks = []
    for n_blocks in (2, 16):
        tracemalloc.start()
        try:
            mc_propagate_model(model, meas, SamplerConfig(seed=3, n_samples=n_blocks * mc_mod.BLOCK))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="np.errstate is a context variable from numpy 2")
def test_worker_blocks_run_under_the_callers_errstate(engine_model, engine_data, monkeypatch):
    # the second rake block divides by zero on a worker thread
    fit_batch = mc_mod._fit_batch

    def divide_off_main(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            np.ones(1) / 0.0
        return fit_batch(*args, **kwargs)

    monkeypatch.setattr(mc_mod, "_fit_batch", divide_off_main)
    monkeypatch.setattr(mc_mod, "_usable_cpus", lambda: 2)
    cfg = SamplerConfig(seed=1, n_samples=2 * mc_mod.BLOCK)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        rake_position_mc(engine_model, engine_data, 0.5, cfg)


def test_usable_cpus_reads_affinity_then_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert mc_mod._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert mc_mod._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert mc_mod._usable_cpus() == 1
