from dataclasses import replace

import numpy as np
import pytest

from rakeuq import (
    AnnulusGeometry,
    HarmonicSet,
    NegativeVariance,
    SamplerConfig,
    area_average,
    area_average_mean,
    build_design_matrix,
    sample_mvn,
    vec,
)

from conftest import R_INNER, R_OUTER, STATIONS


def dense_mean_oracle(model, mu_X, n_r=4000):
    """Midpoint integration of the reconstructed field over the annulus.

    The circumferential average of every harmonic term vanishes exactly, so
    only the intercept row survives; the radial part is integrated on a
    dense midpoint grid against the r dr area element.
    """
    geom = model.geometry
    r = np.linspace(geom.r_inner, geom.r_outer, n_r + 1)
    mid = 0.5 * (r[:-1] + r[1:])
    dr = np.diff(r)
    frac = (mid - geom.r_inner) / geom.span
    w = model.radial.blend(frac)  # (n_r, M)
    profile = w @ mu_X[0]
    return 2.0 * np.sum(profile * mid * dr) / (geom.r_outer**2 - geom.r_inner**2)


def dense_weight_oracle(model, n_r=4000):
    """Station weights of the area average, by the same midpoint rule."""
    geom = model.geometry
    r = np.linspace(geom.r_inner, geom.r_outer, n_r + 1)
    mid = 0.5 * (r[:-1] + r[1:])
    dr = np.diff(r)
    frac = (mid - geom.r_inner) / geom.span
    w = model.radial.blend(frac)
    return 2.0 * (mid * dr) @ w / (geom.r_outer**2 - geom.r_inner**2)


def area_variance(model, field, Sigma_X):
    """The area-average variance of ``field`` with its Sigma_X replaced."""
    return area_average(model, replace(field, X_blocks=Sigma_X[None])).variance


def ring_average_covariance(model, Sigma_X, frac, frac_other=None):
    """Covariance of the circumferential ring means at two span fractions:
    the bilinear form of Sigma_X in kron(w(f), e_0), the intercept row."""
    e0 = np.eye(model.n_coeffs)[0]
    v1 = np.kron(model.radial.blend(frac), e0)
    v2 = np.kron(model.radial.blend(frac if frac_other is None else frac_other), e0)
    return float(v1 @ Sigma_X @ v2)


def test_constant_field_mean(engine_model):
    mu_X = np.zeros((5, 7))
    mu_X[0] = 431.7
    assert area_average_mean(engine_model, mu_X) == pytest.approx(431.7, rel=1e-12)


def test_pure_harmonic_integrates_away(engine_model):
    mu_X = np.zeros((5, 7))
    mu_X[1] = 12.0
    mu_X[4] = -3.0
    assert area_average_mean(engine_model, mu_X) == pytest.approx(0.0, abs=1e-12)


def test_linear_profile_against_dense_grid(engine_model):
    mu_X = np.zeros((5, 7))
    mu_X[0] = 500.0 + 40.0 * STATIONS
    got = area_average_mean(engine_model, mu_X)
    want = dense_mean_oracle(engine_model, mu_X)
    assert got == pytest.approx(want, rel=1e-8)


def test_general_field_against_dense_grid(engine_model, engine_field):
    got = area_average_mean(engine_model, engine_field.mu_X)
    want = dense_mean_oracle(engine_model, engine_field.mu_X)
    assert got == pytest.approx(want, rel=1e-8)


def test_variance_against_dense_weights(engine_model, engine_field):
    q = dense_weight_oracle(engine_model)
    C00 = engine_field.Sigma_X.reshape(7, 5, 7, 5)[:, 0, :, 0]
    want = q @ C00 @ q
    got = area_average(engine_model, engine_field).variance
    # the midpoint oracle itself is only good to O(h^2) ~ 1e-7 here
    assert got == pytest.approx(want, rel=1e-6)


def test_variance_against_monte_carlo(engine_model, engine_field):
    draws = sample_mvn(
        vec(engine_field.mu_X),
        engine_field.Sigma_X,
        SamplerConfig(seed=314, n_samples=200_000),
    )
    q = dense_weight_oracle(engine_model, n_r=800)
    # station-major vec layout: intercept coefficients sit at stride 5
    averages = draws[:, 0::5] @ q
    got = area_average(engine_model, engine_field).variance
    assert got == pytest.approx(float(np.var(averages, ddof=1)), rel=0.03)
    mean = area_average_mean(engine_model, engine_field.mu_X)
    assert mean == pytest.approx(float(averages.mean()), abs=0.05)


def test_variance_blind_to_harmonic_blocks(engine_model, engine_field):
    Sigma = engine_field.Sigma_X.copy()
    keep = np.zeros(35, dtype=bool)
    keep[0::5] = True  # intercept rows of each station block
    Sigma[~keep, :] = 0.0
    Sigma[:, ~keep] = 0.0
    got = area_variance(engine_model, engine_field, Sigma)
    want = area_average(engine_model, engine_field).variance
    assert got == want


def test_ring_covariance_symmetric(engine_model, engine_field):
    c12 = ring_average_covariance(engine_model, engine_field.Sigma_X, 0.2, 0.8)
    c21 = ring_average_covariance(engine_model, engine_field.Sigma_X, 0.8, 0.2)
    assert c12 == pytest.approx(c21, rel=1e-12)


def test_ring_covariance_diagonal_nonnegative(engine_model, engine_field):
    for f in np.linspace(0.0, 1.0, 9):
        assert ring_average_covariance(engine_model, engine_field.Sigma_X, f) >= 0.0


def test_area_average_result_consistent(engine_model, engine_field):
    res = area_average(engine_model, engine_field)
    assert res.mean == pytest.approx(
        area_average_mean(engine_model, engine_field.mu_X)
    )
    # the variance is the quadratic form of the intercept block in the
    # station weights that the mean applies
    q = np.empty(7)
    for m in range(7):
        unit = np.zeros((5, 7))
        unit[0, m] = 1.0
        q[m] = area_average_mean(engine_model, unit)
    C00 = engine_field.Sigma_X.reshape(7, 5, 7, 5)[:, 0, :, 0]
    assert res.variance == pytest.approx(q @ C00 @ q)
    assert res.two_sigma == pytest.approx(1.96 * np.sqrt(res.variance), rel=1e-12)


def gauss_legendre_area_weights(model, points=128):
    """Area-average station weights by a dense per-panel Gauss-Legendre rule."""
    geom = model.geometry
    nodes, weights = np.polynomial.legendre.leggauss(points)
    knots = np.unique(np.concatenate(([0.0], geom.r_stations, [1.0])))
    q = np.zeros(geom.n_stations)
    for lo, hi in zip(knots[:-1], knots[1:]):
        half = 0.5 * (hi - lo)
        f = lo + half * (nodes + 1.0)
        q += half * geom.span * (weights * geom.physical_radius(f)) @ model.radial.blend(f)
    return 2.0 * q / (geom.r_outer**2 - geom.r_inner**2)


@pytest.mark.parametrize("kind", ["cubic", "linear"])
@pytest.mark.parametrize(
    "stations",
    [STATIONS, np.array([0.1, 0.3, 0.35, 0.9]), np.array([0.02, 0.05, 0.4, 0.41, 0.7, 0.99])],
    ids=["regular", "irregular4", "irregular6"],
)
def test_area_weights_match_dense_quadrature(stations, kind):
    # r * v(r) is a piecewise polynomial of degree <= 4, so the library's
    # per-panel rule must agree with a 128-point one to roundoff
    geom = AnnulusGeometry([10.0, 130.0, 250.0], stations, R_INNER, R_OUTER)
    model = build_design_matrix(geom, HarmonicSet((1,)), radial_basis=kind)
    M = stations.size
    got = np.empty(M)
    for m in range(M):
        mu_X = np.zeros((3, M))
        mu_X[0, m] = 1.0
        got[m] = area_average_mean(model, mu_X)
    want = gauss_legendre_area_weights(model)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_indefinite_covariance_rejected(engine_model, engine_field):
    Sigma = np.zeros((35, 35))
    Sigma[0, 0] = -1.0  # intercept block made negative definite
    with pytest.raises(NegativeVariance):
        area_variance(engine_model, engine_field, Sigma)


def test_single_station_campaign():
    geom = AnnulusGeometry([10.0, 130.0, 250.0], [0.5], 0.3, 0.6)
    model = build_design_matrix(geom, HarmonicSet((1,)))
    mu_X = np.array([[400.0], [5.0], [-2.0]])
    assert area_average_mean(model, mu_X) == pytest.approx(400.0, rel=1e-12)


def test_roundoff_negative_variance_reads_zero(engine_model, engine_field):
    # one K x K block standing for every station, whose intercept entry sits
    # at roundoff below zero beside unit harmonic entries: only the
    # intercept enters the area average, so its variance is about -1e-30
    block = np.eye(engine_model.n_coeffs)
    block[0, 0] = -1e-30
    result = area_average(engine_model, replace(engine_field, X_blocks=block[None]))
    assert result.variance == 0.0
    assert result.two_sigma == 0.0
    # well below -1e-10 times the norm of Sigma_X it is refused
    block[0, 0] = -1e-6
    with pytest.raises(NegativeVariance):
        area_average(engine_model, replace(engine_field, X_blocks=block[None]))
