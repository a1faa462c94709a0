import warnings

import numpy as np
import pytest

from rakeuq import (
    DEFAULT_SIGMAS,
    DEFAULT_STATE,
    DegenerateRatio,
    DimensionMismatch,
    InvalidCorrelation,
    InvalidParams,
    SamplerConfig,
    StationState,
    block_correlation,
    correlation_sweep,
    efficiency,
    efficiency_gradient,
    efficiency_mc,
    taylor_variance,
    validate_correlation,
)

STATE = np.array([1000.0, 800.0, 8e5, 2e5, 1.4])


def seeded_states(n=100, seed=2718):
    """Physically plausible turbine states spread over a wide envelope."""
    rng = np.random.default_rng(seed)
    T01 = rng.uniform(800.0, 1800.0, n)
    T02 = T01 * rng.uniform(0.60, 0.95, n)
    P01 = rng.uniform(3e5, 3e6, n)
    P02 = P01 * rng.uniform(0.10, 0.80, n)
    gamma = rng.uniform(1.20, 1.45, n)
    return np.column_stack([T01, T02, P01, P02, gamma])


def test_value_frozen_from_direct_evaluation():
    # (1 - 800/1000) / (1 - (2e5/8e5)^(0.4/1.4)) evaluated by hand
    assert efficiency(STATE) == pytest.approx(0.6115274695000418, rel=1e-12)


def test_equal_temperatures_give_zero():
    assert efficiency(np.array([900.0, 900.0, 8e5, 2e5, 1.4])) == 0.0


def test_vectorized_evaluation_matches_scalar():
    states = seeded_states(20)
    batch = efficiency(states)
    singles = np.array([efficiency(z) for z in states])
    np.testing.assert_allclose(batch, singles, rtol=1e-14)


def test_equal_pressures_degenerate():
    with pytest.raises(DegenerateRatio):
        efficiency(np.array([1000.0, 800.0, 8e5, 8e5, 1.4]))


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidParams):
        efficiency(np.array([1000.0, 800.0, 8e5, 2e5, 1.0]))
    with pytest.raises(InvalidParams):
        efficiency(np.array([-10.0, 800.0, 8e5, 2e5, 1.4]))
    with pytest.raises(InvalidParams):
        efficiency(np.array([1000.0, 800.0, 0.0, 2e5, 1.4]))


def test_gradient_against_finite_differences():
    for z0 in seeded_states(100):
        grad = efficiency_gradient(z0)
        for i in range(5):
            h = 1e-6 * abs(z0[i])
            zp, zm = z0.copy(), z0.copy()
            zp[i] += h
            zm[i] -= h
            fd = (efficiency(zp) - efficiency(zm)) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6), f"component {i}"


def test_gradient_signs():
    grad = efficiency_gradient(STATE)
    assert grad[0] > 0.0  # hotter inlet raises the ideal drop
    assert grad[1] < 0.0  # hotter exit means less extracted work


def test_default_sigmas_frozen():
    np.testing.assert_array_equal(DEFAULT_SIGMAS, [2.4, 1.4, 600.0, 100.0, 0.001])


def test_uncorrelated_variance_is_contribution_sum():
    report = taylor_variance(DEFAULT_STATE)
    assert report.eta_variance == pytest.approx(
        sum(report.contributions.values()), rel=1e-12
    )
    fractions = np.array(list(report.contribution_fractions.values()))
    assert fractions.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(fractions >= 0.0)


def test_temperature_contributions_dominate():
    report = taylor_variance(DEFAULT_STATE)
    c = report.contributions
    assert min(c["T01"], c["T02"]) > max(c["P01"], c["P02"], c["gamma"])


def test_default_state_uncertainty_scale():
    # the synthetic cycle state was chosen to land near a ~1% band
    report = taylor_variance(DEFAULT_STATE)
    rel_2sigma = 2.0 * report.sigma_eta / report.eta_mean
    assert 0.008 < rel_2sigma < 0.016


def test_correlated_variance_quadratic_form():
    rho = block_correlation(0.7)
    state = StationState(DEFAULT_STATE.z, DEFAULT_STATE.sigma, rho)
    report = taylor_variance(state)
    g = efficiency_gradient(state.z)
    want = g @ state.covariance @ g
    assert report.eta_variance == pytest.approx(want, rel=1e-12)


def test_sweep_monotone_and_anchored():
    rho_values = np.linspace(0.0, 0.999, 21)
    sig = correlation_sweep(DEFAULT_STATE, rho_values)
    assert sig.shape == (21,)
    assert np.all(np.diff(sig) <= 1e-15)
    assert sig[0] == pytest.approx(taylor_variance(DEFAULT_STATE).sigma_eta, rel=1e-12)


def test_block_correlation_layout():
    rho = block_correlation(0.9)
    assert rho[0, 1] == rho[1, 0] == 0.9  # the two temperatures
    assert rho[2, 3] == rho[3, 2] == 0.9  # the two pressures
    assert rho[0, 2] == 0.0
    np.testing.assert_array_equal(np.diag(rho), np.ones(5))


def test_validate_correlation_rejects_bad_matrices():
    good = block_correlation(0.5)
    validate_correlation(good, 5)
    bad = good.copy()
    bad[0, 1] = 0.4  # asymmetric
    with pytest.raises(InvalidCorrelation):
        validate_correlation(bad, 5)
    bad = good.copy()
    bad[2, 2] = 0.9  # diagonal must be exactly one
    with pytest.raises(InvalidCorrelation):
        validate_correlation(bad, 5)
    bad = np.eye(5)
    bad[0, 1] = bad[1, 0] = 1.2
    with pytest.raises(InvalidCorrelation):
        validate_correlation(bad, 5)
    # pairwise-valid entries that are jointly impossible
    bad = np.eye(5)
    bad[0, 1] = bad[1, 0] = 0.9
    bad[0, 2] = bad[2, 0] = 0.9
    bad[1, 2] = bad[2, 1] = -0.9
    with pytest.raises(InvalidCorrelation):
        validate_correlation(bad, 5)
    # non-finite entries are refused first, before any arithmetic can warn
    for value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[0, 4] = bad[4, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidCorrelation, match="finite"):
                validate_correlation(bad, 5)


@pytest.mark.parametrize(
    "i, j, delta",
    [(0, 0, -9e-6), (2, 2, -1e-6), (0, 1, 1e-6)],
    ids=["diagonal 9e-6 low", "diagonal 1e-6 low", "asymmetry 1e-6"],
)
def test_correlation_tolerance_is_absolute(i, j, delta):
    # symmetry and the unit diagonal hold to 1e-12 absolute, with no
    # relative slack that would let 1 - 9e-6 scale a variance
    bad = block_correlation(0.5)
    bad[i, j] += delta
    with pytest.raises(InvalidCorrelation):
        validate_correlation(bad, 5)
    with pytest.raises(InvalidCorrelation):
        StationState(DEFAULT_STATE.z, DEFAULT_STATE.sigma, bad)
    within = block_correlation(0.5)
    within[i, j] += 5e-13 * np.sign(delta)
    validate_correlation(within, 5)


def test_station_state_validation():
    with pytest.raises(DimensionMismatch):
        StationState(np.array([1000.0, 800.0, 8e5, 2e5]), DEFAULT_SIGMAS)
    with pytest.raises(InvalidParams):
        StationState(DEFAULT_STATE.z, -DEFAULT_SIGMAS)
    for value in (np.nan, np.inf):
        sigma = DEFAULT_SIGMAS.copy()
        sigma[2] = value
        with pytest.raises(InvalidParams, match="finite"):
            StationState(DEFAULT_STATE.z, sigma)


def test_linearization_against_monte_carlo():
    report = taylor_variance(DEFAULT_STATE)
    mean, sigma, se = efficiency_mc(
        DEFAULT_STATE, SamplerConfig(seed=1618, n_samples=500_000)
    )
    assert sigma == pytest.approx(report.sigma_eta, rel=0.02)
    assert mean == pytest.approx(report.eta_mean, abs=5.0 * report.sigma_eta / 700.0)


def test_correlated_monte_carlo_agrees():
    rho = block_correlation(0.9)
    state = StationState(DEFAULT_STATE.z, DEFAULT_STATE.sigma, rho)
    report = taylor_variance(state)
    _, sigma, _ = efficiency_mc(state, SamplerConfig(seed=1618, n_samples=500_000))
    assert sigma == pytest.approx(report.sigma_eta, rel=0.02)
