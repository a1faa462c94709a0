"""One rule per input kind: readings, coefficients, standard deviations,
locations, fields and whole numbers.

Every N x M readings input, every K x M coefficient input, every standard
deviation, every span fraction and prediction angle, every field read
against a model, and every count, seed and harmonic order is checked by one
reader, which names the input when it refuses it. The table below sends one
bad input of each kind through every entry point that takes it, together
with the values that the range checks refuse: non-finite efficiency and
legacy values, a ridge penalty lam that is not 0 or positive and finite,
non-finite arguments of the noncentral chi-square density (and a g that is
not a whole number), and a non-finite mean of the normal sampler. NaN fails
every range, and a value that is not numeric, a wrong shape, count or kind
is refused too. The CLI tests
check that the same refusals reach the command line as exit 2 naming the
file's block.
"""

import json
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rakeuq import (
    DEFAULT_STATE,
    AnnulusGeometry,
    DimensionMismatch,
    FieldDistribution,
    HarmonicField,
    HarmonicSet,
    InvalidCorrelation,
    InvalidParams,
    MeasurementDistribution,
    OutOfDomain,
    RadialBasis,
    SamplerConfig,
    SingularDesign,
    StationState,
    area_average,
    area_average_mean,
    build_design_matrix,
    compute_metrics,
    efficiency,
    efficiency_gradient,
    efficiency_mc,
    fig1_demo,
    frequency_scan,
    fit,
    legacy_sampling_uncertainty,
    noncentral_chisq_pdf,
    predict_point,
    predictive_grid,
    rake_position_mc,
    rss_total,
    sample_mvn,
    sampling_metric,
    vec,
)
from rakeuq.cli import main
from rakeuq.propagation import _SIGMA_MAX, _SIGMA_MIN

from conftest import BETA, ENGINE_THETA, R_INNER, R_OUTER, SIGMA_B, STATIONS

MD = MeasurementDistribution


def _with_nan(a):
    a = np.array(a, dtype=float)
    a[2, 3] = np.nan
    return a


def _state_z(index, value):
    z = DEFAULT_STATE.z.copy()
    z[index] = value
    return z


@pytest.fixture(scope="module")
def ctx(engine_geometry, engine_model, engine_data, engine_meas, engine_field, truth):
    lean = build_design_matrix(engine_geometry, HarmonicSet((1,)), beta=BETA)
    nine_rakes = AnnulusGeometry(np.arange(9) * 40.0 + 5.0, STATIONS, R_INNER, R_OUTER)
    nine = build_design_matrix(nine_rakes, HarmonicSet((1, 2)), beta=BETA)
    return SimpleNamespace(
        geometry=engine_geometry,
        model=engine_model,
        lean=lean,
        lean_field=FieldDistribution.from_measurements(lean, engine_meas),
        nine_rake_field=FieldDistribution.from_measurements(nine, MD.from_iid(np.ones((9, 7)), 0.5)),
        B=engine_data,
        nan_B=_with_nan(engine_data),
        meas=engine_meas,
        field=engine_field,
        X=truth,
        cfg=SamplerConfig(seed=2, n_samples=16),
    )


def _state_sigma(value):
    sigma = DEFAULT_STATE.sigma.copy()
    sigma[2] = value
    return StationState(DEFAULT_STATE.z, sigma)


# entry point x bad input -> error type, and the input's name at the start
# of the message
CASES = {
    # standard deviations: one rule, _sigmas
    "from_iid-sigma-square-overflows": (lambda c: MD.from_iid(c.B, 1e200), InvalidParams, "sigma_b"),
    "from_iid-sigma-square-underflows": (lambda c: MD.from_iid(c.B, 1e-200), InvalidParams, "sigma_b"),
    "from_iid-nan-sigma": (lambda c: MD.from_iid(c.B, math.nan), InvalidParams, "sigma_b"),
    "from_diagonal-equal-tiny-sigmas": (
        lambda c: MD.from_diagonal(c.B, np.full(42, 1e-200)), InvalidParams, "sigma"),
    "from_diagonal-huge-sigma": (
        lambda c: MD.from_diagonal(c.B, np.full(42, 1e200)), InvalidParams, "sigma"),
    "from_correlation-tiny-sigma": (
        lambda c: MD.from_correlation(c.B, np.r_[1e-200, np.ones(41)], np.eye(42)),
        InvalidParams, "sigma"),
    "scan-tiny-sigma_b": (
        lambda c: frequency_scan(c.geometry, c.B, 1e-200, beta=BETA), InvalidParams, "sigma_b"),
    "rake-tiny-sigma_theta": (
        lambda c: rake_position_mc(c.model, c.B, 1e-200, c.cfg), InvalidParams, "sigma_theta"),
    "station-state-huge-sigma": (lambda c: _state_sigma(1e200), InvalidParams, "sigma"),
    "station-state-tiny-sigma": (lambda c: _state_sigma(1e-200), InvalidParams, "sigma"),
    # readings: one reader, fourier._readings
    "fit-nan-reading": (lambda c: fit(c.model, c.nan_B), InvalidParams, "B"),
    "rake-nan-reading": (lambda c: rake_position_mc(c.model, c.nan_B, 0.5, c.cfg), InvalidParams, "B"),
    "rake-transposed-readings": (
        lambda c: rake_position_mc(c.model, c.B.T, 0.5, c.cfg), DimensionMismatch, "B"),
    "meas-nan-reading": (lambda c: MD(c.nan_B, np.eye(42)), InvalidParams, "mu_B"),
    "from_iid-nan-reading": (lambda c: MD.from_iid(c.nan_B, SIGMA_B), InvalidParams, "mu_B"),
    "from_diagonal-nan-reading": (
        lambda c: MD.from_diagonal(c.nan_B, np.ones(42)), InvalidParams, "mu_B"),
    "from_correlation-nan-reading": (
        lambda c: MD.from_correlation(c.nan_B, np.ones(42), np.eye(42)), InvalidParams, "mu_B"),
    "from_iid-3d-readings": (lambda c: MD.from_iid(np.zeros((6, 7, 1)), SIGMA_B), DimensionMismatch, "mu_B"),
    "scan-nan-reading": (
        lambda c: frequency_scan(c.geometry, c.nan_B, SIGMA_B, beta=BETA), InvalidParams, "mu_B"),
    "scan-transposed-readings": (
        lambda c: frequency_scan(c.geometry, MD.from_iid(c.B.T, SIGMA_B), beta=BETA),
        DimensionMismatch, "mu_B"),
    "metric-transposed-readings": (lambda c: sampling_metric(c.model, c.X, c.B.T), DimensionMismatch, "mu_B"),
    "metric-vec-order-readings": (
        lambda c: sampling_metric(c.model, c.X, vec(c.B)), DimensionMismatch, "mu_B"),
    "metric-nan-reading": (lambda c: sampling_metric(c.model, c.X, c.nan_B), InvalidParams, "mu_B"),
    # coefficients: one reader, fourier._coefficients
    "metric-short-coefficients": (
        lambda c: sampling_metric(c.lean, np.zeros((3, 1)), c.B), DimensionMismatch, "X"),
    "metric-nan-coefficients": (
        lambda c: sampling_metric(c.model, _with_nan(c.X), c.B), InvalidParams, "X"),
    "predict-transposed-coefficients": (
        lambda c: predict_point(c.model, c.X.T, 0.5, 10.0), DimensionMismatch, "X"),
    "area-mean-short-mu_X": (lambda c: area_average_mean(c.model, c.X[:3]), DimensionMismatch, "mu_X"),
    "area-mean-nan-mu_X": (lambda c: area_average_mean(c.model, _with_nan(c.X)), InvalidParams, "mu_X"),
    # fields: one reader, propagation._field_moments
    "area-field-of-another-model": (lambda c: area_average(c.model, c.lean_field), DimensionMismatch, "mu_X"),
    "grid-field-of-another-model": (
        lambda c: predictive_grid(c.model, c.lean_field, [0.5], [0.0]), DimensionMismatch, "mu_X"),
    "area-wrong-size-Sigma_X": (
        lambda c: area_average(c.model, replace(c.field, X_blocks=np.eye(10)[None])), DimensionMismatch, "X_blocks"),
    "grid-wrong-size-Sigma_X": (
        lambda c: predictive_grid(c.model, replace(c.field, X_blocks=np.eye(10)[None]), [0.5], [0.0]),
        DimensionMismatch, "X_blocks"),
    "metrics-field-of-a-nine-rake-model": (
        lambda c: compute_metrics(c.model, c.X, c.meas, c.nine_rake_field),
        DimensionMismatch, "mu_R"),
    "metrics-two-station-blocks-for-seven": (
        lambda c: compute_metrics(c.model, c.X, c.meas, replace(c.field, R_blocks=np.ones((2, 6, 6)))),
        DimensionMismatch, "R_blocks"),
    "metrics-field-of-another-basis": (
        lambda c: compute_metrics(c.model, c.X, c.meas, c.lean_field), DimensionMismatch, "design"),
    # locations: one reader, fourier._location; span fractions in [0, 1],
    # finite angles, a scalar r_frac and at most a vector of either
    "predict-nan-radius": (lambda c: predict_point(c.model, c.X, math.nan, 10.0), OutOfDomain, "radial fraction"),
    "grid-nan-radius": (
        lambda c: predictive_grid(c.model, c.field, [math.nan], [0.0]), OutOfDomain, "radial fraction"),
    "predict-nan-angle": (lambda c: predict_point(c.model, c.X, 0.5, math.nan), InvalidParams, "theta_deg"),
    "predict-inf-angles": (
        lambda c: predict_point(c.model, c.X, 0.5, [0.0, math.inf]), InvalidParams, "theta_deg"),
    "grid-inf-angle": (lambda c: predictive_grid(c.model, c.field, [0.5], [math.inf]), InvalidParams, "theta_deg"),
    "predict-vector-radius": (
        lambda c: predict_point(c.model, c.X, [0.5, 0.6], 0.0), DimensionMismatch, "r_frac"),
    "predict-matrix-angles": (
        lambda c: predict_point(c.model, c.X, 0.5, [[0.0, 10.0]]), DimensionMismatch, "theta_deg"),
    "grid-matrix-radii": (
        lambda c: predictive_grid(c.model, c.field, [[0.5, 0.6]], [0.0]), DimensionMismatch, "r_fracs"),
    "grid-matrix-angles": (
        lambda c: predictive_grid(c.model, c.field, [0.5], [[0.0, 10.0]]), DimensionMismatch, "theta_deg"),
    # counts, seeds and orders: whole numbers, never truncated
    "sampler-fractional-samples": (lambda c: SamplerConfig(1, 2.5), InvalidParams, "n_samples"),
    "sampler-fractional-seed": (lambda c: SamplerConfig(1.5, 100), InvalidParams, "seed"),
    "harmonic-field-fractional-frequency": (
        lambda c: HarmonicField(frequency=2.5), InvalidParams, "frequency"),
    "fig1-fractional-rake-count": (lambda c: fig1_demo(rake_counts=(3, 8.5)), InvalidParams, "rake_counts"),
    "harmonic-set-fractional-order": (lambda c: HarmonicSet((1, 2.5)), InvalidParams, "harmonic orders"),
    "scan-fractional-max_freq": (
        lambda c: frequency_scan(c.geometry, c.B, SIGMA_B, max_freq=2.5, beta=BETA), InvalidParams, "max_freq"),
    "scan-nan-max_freq": (
        lambda c: frequency_scan(c.geometry, c.B, SIGMA_B, max_freq=math.nan, beta=BETA),
        InvalidParams, "max_freq"),
    "rake-fractional-n_prediction": (
        lambda c: rake_position_mc(c.model, c.B, 0.5, c.cfg, n_prediction=2.5), InvalidParams, "n_prediction"),
    "rake-nan-n_prediction": (
        lambda c: rake_position_mc(c.model, c.B, 0.5, c.cfg, n_prediction=math.nan),
        InvalidParams, "n_prediction"),
    # the ridge penalty lam: 0, or positive and finite like a ladder entry
    "field-nan-lam": (
        lambda c: FieldDistribution.from_measurements(c.model, c.meas, math.nan), InvalidParams, "lam"),
    "field-negative-lam": (
        lambda c: FieldDistribution.from_measurements(c.model, c.meas, -0.1), InvalidParams, "lam"),
    "pseudoinverse-inf-lam": (lambda c: c.model.pseudoinverse(math.inf), InvalidParams, "lam"),
    # the noncentral chi-square density at finite x and phi
    "pdf-nan-x": (lambda c: noncentral_chisq_pdf(math.nan, 3, 1.0), InvalidParams, "x"),
    "pdf-inf-x": (lambda c: noncentral_chisq_pdf([1.0, math.inf], 3, 1.0), InvalidParams, "x"),
    "pdf-nan-phi": (lambda c: noncentral_chisq_pdf(1.0, 3, math.nan), InvalidParams, "phi"),
    "pdf-inf-phi": (lambda c: noncentral_chisq_pdf(1.0, 3, math.inf), InvalidParams, "phi"),
    "pdf-nan-g": (lambda c: noncentral_chisq_pdf(1.0, math.nan, 1.0), InvalidParams, "g"),
    "pdf-inf-g": (lambda c: noncentral_chisq_pdf(1.0, math.inf, 1.0), InvalidParams, "g"),
    "pdf-fractional-g": (lambda c: noncentral_chisq_pdf(1.0, 2.5, 1.0), InvalidParams, "g"),
    "pdf-phi-past-series": (lambda c: noncentral_chisq_pdf(2.1e5 + 35, 35, 2.1e5), InvalidParams, "phi"),
    # shapes, counts and kinds
    "geometry-no-rakes": (lambda c: AnnulusGeometry([], [0.5], 0.0, 1.0), InvalidParams, "theta_deg"),
    "geometry-2d-stations": (
        lambda c: AnnulusGeometry(ENGINE_THETA, [STATIONS], R_INNER, R_OUTER), InvalidParams, "r_stations"),
    "harmonic-set-of-an-integer": (lambda c: HarmonicSet(3), InvalidParams, "harmonic orders"),
    "correlation-one-reading-short": (
        lambda c: MD.from_correlation(c.B, np.ones(42), np.eye(41)), InvalidCorrelation, "correlation matrix"),
    "sampler-negative-seed": (lambda c: SamplerConfig(-1, 10), InvalidParams, "seed"),
    "sampler-one-sample": (lambda c: SamplerConfig(1, 1), InvalidParams, "n_samples"),
    "mvn-mean-and-covariance-sizes": (
        lambda c: sample_mvn(np.zeros(3), np.eye(4), SamplerConfig(1, 10)), DimensionMismatch, "cov"),
    "mvn-stack-of-covariances": (
        lambda c: sample_mvn(np.zeros(3), np.stack([np.eye(3)] * 3), SamplerConfig(1, 10)),
        DimensionMismatch, "cov"),
    "mvn-vector-covariance": (
        lambda c: sample_mvn(np.zeros(3), np.ones(3), SamplerConfig(1, 10)),
        DimensionMismatch, "cov"),
    "mvn-scalar-covariance": (
        lambda c: sample_mvn(np.zeros(3), 1.0, SamplerConfig(1, 10)), DimensionMismatch, "cov"),
    "mvn-non-square-covariance": (
        lambda c: sample_mvn(np.zeros(3), np.ones((3, 4)), SamplerConfig(1, 10)),
        DimensionMismatch, "cov"),
    "rake-Sigma_theta-one-rake-short": (
        lambda c: rake_position_mc(c.model, c.B, np.eye(5), c.cfg), DimensionMismatch, "Sigma_theta"),
    "rake-no-prediction-angles": (
        lambda c: rake_position_mc(c.model, c.B, 0.5, c.cfg, n_prediction=0), InvalidParams, "n_prediction"),
    "efficiency_mc-plain-array": (lambda c: efficiency_mc(DEFAULT_STATE.z, c.cfg), InvalidParams, "state"),
    "efficiency-four-entries": (lambda c: efficiency(DEFAULT_STATE.z[:4]), DimensionMismatch, "state vector"),
    "efficiency_gradient-stack": (
        lambda c: efficiency_gradient(np.stack([DEFAULT_STATE.z] * 3)), DimensionMismatch, "z"),
    "radial-basis-unknown-kind": (lambda c: RadialBasis(STATIONS, kind="quadratic"), InvalidParams, "kind"),
    "fit-singular-design-empty-ladder": (
        lambda c: fit(replace(c.model, P=None, lambda_ladder=()), c.B), SingularDesign, "lambda_ladder"),
    # the Monte Carlo normal sampler's mean
    "mvn-nan-mean": (
        lambda c: sample_mvn([math.nan, 0.0], np.eye(2), SamplerConfig(1, 10)), InvalidParams, "mean"),
    "mvn-inf-mean": (
        lambda c: sample_mvn([math.inf, 0.0], np.eye(2), SamplerConfig(1, 10)), InvalidParams, "mean"),
    # efficiency and legacy values: range checks that NaN fails
    "efficiency-nan-T01": (lambda c: efficiency(_state_z(0, math.nan)), InvalidParams, "z"),
    "efficiency-nan-gamma": (lambda c: efficiency(_state_z(4, math.nan)), InvalidParams, "z"),
    "efficiency-inf-P01": (lambda c: efficiency(_state_z(2, math.inf)), InvalidParams, "z"),
    "station-state-nan-T01": (
        lambda c: StationState(_state_z(0, math.nan), DEFAULT_STATE.sigma), InvalidParams, "z"),
    "rss-nan-component": (lambda c: rss_total([math.nan, 1.0]), InvalidParams, "components"),
    "legacy-nan-sample": (lambda c: legacy_sampling_uncertainty([1.0, math.nan]), InvalidParams, "samples"),
    "harmonic-field-nan-amplitude": (lambda c: HarmonicField(amplitude=math.nan), InvalidParams, "amplitude"),
    # a field whose squares overflow or underflow: the standard-deviation range
    "harmonic-field-amplitude-square-overflows": (
        lambda c: HarmonicField(amplitude=1e308), InvalidParams, "amplitude"),
    "harmonic-field-amplitude-square-underflows": (
        lambda c: HarmonicField(amplitude=1e-200), InvalidParams, "amplitude"),
    "harmonic-field-mean-square-overflows": (lambda c: HarmonicField(mean=1e200), InvalidParams, "mean"),
    "harmonic-field-negative-mean-square-overflows": (
        lambda c: HarmonicField(mean=-1e200), InvalidParams, "mean"),
    # values that are not numbers at all
    "harmonic-field-text-mean": (lambda c: HarmonicField(mean="x"), InvalidParams, "mean"),
    "harmonic-field-text-amplitude": (lambda c: HarmonicField(amplitude="x"), InvalidParams, "amplitude"),
    "harmonic-field-text-phase": (lambda c: HarmonicField(phase_deg="x"), InvalidParams, "phase_deg"),
    "fig1-text-offset": (lambda c: fig1_demo(offset_deg="x"), InvalidParams, "offset_deg"),
    "fit-text-reading": (lambda c: fit(c.model, np.full((6, 7), "x")), InvalidParams, "B"),
    "from_iid-text-sigma": (lambda c: MD.from_iid(c.B, "x"), InvalidParams, "sigma_b"),
}


@pytest.mark.parametrize("call, error, name", CASES.values(), ids=CASES.keys())
def test_bad_input_refused_naming_it(ctx, call, error, name):
    with pytest.raises(error, match=rf"^{re.escape(name)} must "):
        call(ctx)


def test_whole_number_floats_and_numpy_integers_accepted(engine_geometry, engine_model, engine_data):
    config = SamplerConfig(np.int64(3), 4.0)
    assert (config.seed, config.n_samples) == (3, 4)
    assert type(config.seed) is type(config.n_samples) is int
    assert HarmonicField(frequency=2.0).frequency == HarmonicField(frequency=np.int32(2)).frequency == 2
    assert [row.n_rakes for row in fig1_demo(rake_counts=(np.int64(3), 8.0))] == [3, 8]
    assert HarmonicSet((1.0, np.int64(4))).omega == (1, 4)
    scan = frequency_scan(engine_geometry, engine_data, SIGMA_B, max_freq=3.0, beta=BETA)
    assert sorted(e.omega for e in scan.entries) == [(1, 2), (1, 3), (2, 3)]
    rake = rake_position_mc(engine_model, engine_data, 0.5, config, n_prediction=np.int64(4))
    assert rake.theta_pred_deg.tolist() == [0.0, 90.0, 180.0, 270.0]


@pytest.mark.parametrize("s", [0.0, _SIGMA_MIN, SIGMA_B, 1e150, _SIGMA_MAX])
def test_sigma_range_is_where_the_square_is_exact(engine_data, s):
    # at both ends of the range, and inside it, the variance and the factor
    # agree: sqrt(fl(s^2)) = s, so equal sigmas are exactly iid
    assert math.sqrt(s * s) == s
    iid = MD.from_iid(engine_data, s)
    assert np.all(np.diagonal(iid.station_blocks, axis1=1, axis2=2) == s * s)
    assert np.all(np.diagonal(iid.factor_blocks, axis1=1, axis2=2) == s)
    assert MD.from_diagonal(engine_data, np.full(42, s)).iid_sigma == s
    assert StationState(DEFAULT_STATE.z, np.full(5, s)).sigma[0] == s


@pytest.mark.parametrize("s", [math.nextafter(_SIGMA_MIN, 0.0), math.nextafter(_SIGMA_MAX, math.inf),
                               5e-324, -_SIGMA_MIN, math.inf, -0.5])
def test_sigma_just_outside_the_range_refused(engine_data, s):
    with pytest.raises(InvalidParams, match="^sigma_b must "):
        MD.from_iid(engine_data, s)
    with pytest.raises(InvalidParams, match="^sigma must "):
        MD.from_diagonal(engine_data, np.r_[np.ones(41), s])


def test_sqrt_of_square_is_exact_across_the_range():
    rng = np.random.default_rng(20)
    s = np.exp(rng.uniform(math.log(_SIGMA_MIN), math.log(_SIGMA_MAX), 100_000))
    assert np.array_equal(np.sqrt(s * s), s)


@pytest.mark.parametrize(
    "theta, stations, r_inner, r_outer",
    [
        ([math.nan, 90.0, 180.0], STATIONS, R_INNER, R_OUTER),
        (ENGINE_THETA, [0.2, math.nan, 0.9], R_INNER, R_OUTER),
        (ENGINE_THETA, STATIONS, R_INNER, math.inf),
        (ENGINE_THETA, STATIONS, R_INNER, math.nan),
        (ENGINE_THETA, STATIONS, math.nan, R_OUTER),
    ],
    ids=["nan-angle", "nan-station", "inf-r_outer", "nan-r_outer", "nan-r_inner"],
)
def test_geometry_refuses_non_finite(theta, stations, r_inner, r_outer):
    with pytest.raises(InvalidParams):
        AnnulusGeometry(theta, stations, r_inner, r_outer)


def _campaign(tmp_path, engine_data, geometry=(), uncertainty=None):
    """The engine campaign as a file, with geometry entries replaced and
    another uncertainty block if given."""
    doc = {
        "geometry": {"theta_deg": ENGINE_THETA.tolist(), "r_stations": STATIONS.tolist(),
                     "r_inner": R_INNER, "r_outer": R_OUTER},
        "measurements": engine_data.tolist(),
        "uncertainty": uncertainty or {"iid": {"sigma_b": SIGMA_B}},
    }
    doc["geometry"].update(geometry)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    return str(path)


UNCERTAINTY = {
    "iid-1e200": {"iid": {"sigma_b": 1e200}},
    "diagonal-1e200": {"diagonal": {"sigma": [1e200] * 42}},
    "diagonal-1e-200": {"diagonal": {"sigma": [1e-200] * 42}},
}


@pytest.mark.parametrize("command", ["fit", "scan"])
@pytest.mark.parametrize("uncertainty", UNCERTAINTY.values(), ids=UNCERTAINTY.keys())
def test_cli_refuses_sigma_outside_the_range(tmp_path, capsys, engine_data, command, uncertainty):
    path = _campaign(tmp_path, engine_data, uncertainty=uncertainty)
    out = tmp_path / "out"
    model_args = ["--harmonics", "1,4"] if command == "fit" else []
    assert main([command, path, *model_args, "--beta", str(BETA), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: uncertainty: sigma")
    assert not out.exists()


GEOMETRY = {
    "nan-angle": {"theta_deg": [54.0, math.nan, 162.0, 234.0, 270.0, 342.0]},
    "nan-station": {"r_stations": [0.05, 0.2, 0.35, math.nan, 0.65, 0.8, 0.95]},
    "inf-r_outer": {"r_outer": math.inf},
}


@pytest.mark.parametrize("geometry", GEOMETRY.values(), ids=GEOMETRY.keys())
def test_cli_refuses_non_finite_geometry(tmp_path, capsys, engine_data, geometry):
    path = _campaign(tmp_path, engine_data, geometry=geometry)
    assert main(["fit", path, "--harmonics", "1,4", "--beta", str(BETA)]) == 2
    assert capsys.readouterr().err.startswith("error: geometry: ")


def test_cli_refuses_state_sigma_outside_the_range(tmp_path, capsys):
    state = {
        "means": {"T01": 1000.0, "T02": 800.0, "P01": 8e5, "P02": 2e5, "gamma": 1.4},
        "sigmas": {"T01": 1e200, "T02": 2.0, "P01": 500.0, "P02": 500.0, "gamma": 0.001},
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    out = tmp_path / "eta.json"
    assert main(["efficiency", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: state: sigma must ")
    assert not out.exists()


@pytest.mark.parametrize("samples", [(), ("--samples", "0")], ids=["no-samples", "zero-samples"])
def test_efficiency_seed_without_samples_refused(tmp_path, capsys, samples):
    out = tmp_path / "eta.json"
    with pytest.raises(SystemExit) as exc:
        main(["efficiency", "--seed", "7", *samples, "--output", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
