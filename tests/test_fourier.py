import numpy as np
import pytest
from hypothesis import given, assume, strategies as st
from scipy.interpolate import CubicSpline

from rakeuq import (
    AnnulusGeometry,
    HarmonicSet,
    OutOfDomain,
    RadialBasis,
    RegularizationExhausted,
    SingularDesign,
    build_design_matrix,
    design_matrix,
    fit,
    predict_point,
    station_predictions,
)
from rakeuq.fourier import _fit_batch, qr_solve

from conftest import BETA, ENGINE_THETA, STATIONS, coefficient_truth


def test_design_matrix_row_structure():
    A = design_matrix(np.array([90.0]), (1, 4))
    # [1, cos(90), sin(90), cos(360), sin(360)]
    np.testing.assert_allclose(A[0], [1.0, 0.0, 1.0, 1.0, 0.0], atol=1e-12)


def test_design_matrix_shape_and_intercept():
    A = design_matrix(ENGINE_THETA, (1, 4))
    assert A.shape == (6, 5)
    np.testing.assert_array_equal(A[:, 0], np.ones(6))


def test_design_matrix_batched_matches_single():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0.0, 360.0, size=(4, 6))
    stacked = design_matrix(thetas, (1, 4))
    assert stacked.shape == (4, 6, 5)
    for i in range(4):
        np.testing.assert_array_equal(stacked[i], design_matrix(thetas[i], (1, 4)))


def test_pseudoinverse_left_inverse(engine_model):
    P = engine_model.P
    np.testing.assert_allclose(P @ engine_model.A, np.eye(5), atol=1e-10)


def test_engine_condition_number(engine_model):
    # sv ratio squared of the 6x5 design, frozen from a direct SVD
    assert engine_model.cond_AtA == pytest.approx(16.33, abs=0.01)


def test_uniform_three_rakes_alias_second_harmonic():
    # cos/sin at frequency 2 collapse onto frequency 1 columns when the
    # rakes are 120 degrees apart, so the design loses rank
    geom = AnnulusGeometry([0.0, 120.0, 240.0], [0.5], 0.0, 1.0)
    with pytest.raises(SingularDesign):
        build_design_matrix(geom, HarmonicSet((1, 2)), lambda_ladder=())


def test_singular_design_still_fits_through_ladder():
    geom = AnnulusGeometry([0.0, 120.0, 240.0], [0.5], 0.0, 1.0)
    model = build_design_matrix(geom, HarmonicSet((1, 2)))
    assert model.P is None
    with pytest.raises(SingularDesign):
        model.pseudoinverse(0.0)
    coeffs = fit(model, np.array([[300.0], [310.0], [290.0]]))
    assert coeffs.lambda_used > 0.0
    assert coeffs.lambda_used in model.lambda_ladder


def test_fit_matches_normal_equations():
    rng = np.random.default_rng(42)
    theta = np.sort(rng.uniform(0.0, 360.0, 9))
    geom = AnnulusGeometry(theta, np.linspace(0.0, 1.0, 4), 0.2, 0.9)
    model = build_design_matrix(geom, HarmonicSet((2, 5)), beta=1e6)
    B = rng.normal(size=(9, 4))
    coeffs = fit(model, B)
    A = model.A
    X_ref = np.linalg.solve(A.T @ A, A.T @ B)
    np.testing.assert_allclose(coeffs.X, X_ref, atol=1e-9)
    assert coeffs.lambda_used == 0.0


def test_in_span_data_recovered_exactly(engine_model, engine_data, truth):
    coeffs = fit(engine_model, engine_data)
    np.testing.assert_allclose(coeffs.X, truth, atol=1e-9)
    fitted = station_predictions(coeffs.X, ENGINE_THETA, engine_model.harmonics.omega)
    np.testing.assert_allclose(fitted, engine_data, atol=1e-9)


def test_zero_data_gives_zero_coefficients(engine_model):
    coeffs = fit(engine_model, np.zeros((6, 7)))
    np.testing.assert_array_equal(coeffs.X, np.zeros((5, 7)))


def test_hat_matrix_idempotent(engine_model):
    H = engine_model.A @ engine_model.P
    np.testing.assert_allclose(H @ H, H, atol=1e-10)


def test_norm_guard_walks_ladder(engine_model, engine_data):
    # kelvin-scale coefficients have spectral norm ~1.4e3, so a guard of
    # 100 forces ridge shrinkage
    geom = engine_model.geometry
    tight = build_design_matrix(geom, HarmonicSet((1, 4)), beta=100.0)
    coeffs = fit(tight, engine_data)
    assert coeffs.lambda_used > 0.0
    assert coeffs.spectral_norm < 100.0


def test_ladder_exhaustion_raises(engine_model, engine_data):
    geom = engine_model.geometry
    hopeless = build_design_matrix(geom, HarmonicSet((1, 4)), beta=1e-6)
    with pytest.raises(RegularizationExhausted):
        fit(hopeless, engine_data)


def test_ridge_shrinks_toward_zero(engine_model, engine_data):
    loose = fit(engine_model, engine_data)
    norms = [loose.spectral_norm]
    for lam in (0.1, 10.0, 1000.0):
        P_lam = engine_model.pseudoinverse(lam)
        norms.append(np.linalg.norm(P_lam @ engine_data, 2))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_exactly_singular_slice_in_a_stack(engine_model, engine_data):
    # slice 1 has an exactly zero column, so its R has an exactly zero
    # diagonal entry: NaN from the plain solve, first rung from the ladder
    A_stack = design_matrix(ENGINE_THETA + np.array([[0.0], [0.0], [1.0]]), (1, 4))
    A_stack[1, :, 3] = 0.0
    plain = qr_solve(A_stack, engine_data)
    assert np.isnan(plain[1]).all()
    assert np.isfinite(plain[[0, 2]]).all()
    X, lambdas, ok = _fit_batch(engine_model, A_stack, engine_data)
    assert ok.all()
    assert lambdas.tolist() == [0.0, engine_model.lambda_ladder[0], 0.0]
    for i in (0, 2):
        np.testing.assert_array_equal(plain[i], qr_solve(A_stack[i], engine_data))
        alone, lam, _ = _fit_batch(engine_model, A_stack[i : i + 1], engine_data)
        np.testing.assert_array_equal(X[i], alone[0])
        assert lambdas[i] == lam[0]
    np.testing.assert_array_equal(X[0], fit(engine_model, engine_data).X)


@given(
    offsets=st.lists(
        st.integers(min_value=0, max_value=359), min_size=7, max_size=7, unique=True
    ),
    shift=st.floats(min_value=0.0, max_value=0.9),
    freq=st.integers(min_value=1, max_value=6),
)
def test_pure_harmonic_recovery(offsets, shift, freq):
    theta = np.sort(np.asarray(offsets, dtype=float) + shift) % 360.0
    assume(np.all(np.diff(np.sort(theta)) > 1e-9))
    A = design_matrix(theta, (freq,))
    sv = np.linalg.svd(A, compute_uv=False)
    assume(sv[-1] > 1e-3 * sv[0])
    geom = AnnulusGeometry(theta, [0.5], 0.0, 1.0)
    model = build_design_matrix(geom, HarmonicSet((freq,)), beta=1e6)
    X_true = np.array([[10.0], [2.3], [-1.1]])
    coeffs = fit(model, A @ X_true)
    np.testing.assert_allclose(coeffs.X, X_true, atol=1e-6)


def test_cubic_weights_are_cardinal_at_stations():
    basis = RadialBasis(STATIONS)
    W = basis.blend(STATIONS)
    np.testing.assert_allclose(W, np.eye(7), atol=1e-12)


@pytest.mark.parametrize(
    "stations",
    [
        np.array([0.2, 0.7]),
        np.array([0.1, 0.45, 0.8]),
        np.array([0.05, 0.12, 0.6, 0.97]),
        STATIONS,
        np.linspace(0.02, 0.98, 20),
    ],
    ids=["M2", "M3", "M4-irregular", "M7", "M20"],
)
def test_cubic_weights_match_scipy_natural_spline(stations):
    f = np.linspace(0.0, 1.0, 1001)
    oracle = CubicSpline(stations, np.eye(stations.size), bc_type="natural")
    want = oracle(np.clip(f, stations[0], stations[-1]))
    np.testing.assert_allclose(RadialBasis(stations).weights(f), want, rtol=0, atol=1e-14)


def test_linear_weights_are_cardinal_at_stations():
    basis = RadialBasis(STATIONS, kind="linear")
    W = basis.blend(STATIONS)
    np.testing.assert_allclose(W, np.eye(7), atol=1e-12)


def test_weights_clamp_beyond_end_stations():
    basis = RadialBasis(STATIONS)
    np.testing.assert_array_equal(basis.blend(0.0), basis.blend(STATIONS[0]))
    np.testing.assert_array_equal(basis.blend(1.0), basis.blend(STATIONS[-1]))


def test_weights_reject_out_of_domain():
    basis = RadialBasis(STATIONS)
    with pytest.raises(OutOfDomain):
        basis.blend(-0.01)
    with pytest.raises(OutOfDomain):
        basis.blend(1.01)


def test_single_station_basis_is_constant():
    basis = RadialBasis(np.array([0.5]))
    np.testing.assert_array_equal(basis.blend(0.12), np.array([1.0]))


def test_interior_weights_partition_unity():
    basis = RadialBasis(STATIONS)
    r = np.linspace(0.05, 0.95, 41)
    np.testing.assert_allclose(basis.blend(r).sum(axis=1), np.ones(41), atol=1e-12)


def test_station_blend_matrix_weighting():
    U = np.diag(np.arange(1.0, 8.0))
    basis = RadialBasis(STATIONS, U=U)
    plain = RadialBasis(STATIONS)
    r = np.array([0.3, 0.62])
    np.testing.assert_allclose(basis.blend(r), plain.blend(r) @ U, atol=1e-14)


def test_predict_point_matches_station_fit(engine_model, engine_data, truth):
    coeffs = fit(engine_model, engine_data)
    val = predict_point(engine_model, coeffs.X, STATIONS[3], ENGINE_THETA[2])
    assert val == pytest.approx(engine_data[2, 3], abs=1e-9)


def test_predict_point_interpolates_smoothly(engine_model, truth):
    lo = predict_point(engine_model, truth, 0.35, 120.0)
    hi = predict_point(engine_model, truth, 0.36, 120.0)
    assert abs(hi - lo) < 0.5
