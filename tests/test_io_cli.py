import argparse
import csv
import json
import logging
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rakeuq
import rakeuq.io as io
from rakeuq import (
    FieldDistribution,
    HarmonicSet,
    MeasurementDistribution,
    RakeUqError,
    SamplerConfig,
    SchemaError,
    area_average,
    build_design_matrix,
    compute_metrics,
    design_matrix,
    fit,
    mc_propagate_model,
    station_predictions,
)
from rakeuq.cli import build_parser, main

from conftest import (
    BETA,
    ENGINE_THETA,
    R_INNER,
    R_OUTER,
    SCAN_THETA,
    SIGMA_B,
    STATIONS,
    coefficient_truth,
    readme_readings,
)


def campaign_doc(theta=ENGINE_THETA, noise=None):
    data = design_matrix(np.asarray(theta), (1, 4)) @ coefficient_truth()
    doc = {
        "geometry": {
            "theta_deg": list(map(float, theta)),
            "r_stations": STATIONS.tolist(),
            "r_inner": R_INNER,
            "r_outer": R_OUTER,
        },
        "measurements": data.tolist(),
        "uncertainty": {"iid": {"sigma_b": SIGMA_B}},
        "units": "K",
    }
    if noise == "correlated":
        rho = np.full((42, 42), 0.95)
        np.fill_diagonal(rho, 1.0)
        doc["uncertainty"] = {
            "correlation": {"sigma": [SIGMA_B] * 42, "rho": rho.tolist()}
        }
    return doc


@pytest.fixture
def campaign_path(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(campaign_doc()))
    return str(path)


def test_campaign_round_trip(campaign_path):
    campaign = io.load_campaign(campaign_path)
    assert campaign.geometry.n_rakes == 6
    assert campaign.geometry.n_stations == 7
    assert campaign.meas.iid_sigma == pytest.approx(SIGMA_B)
    assert campaign.units == "K"


def test_missing_uncertainty_block_names_field(tmp_path):
    doc = campaign_doc()
    del doc["uncertainty"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        io.load_campaign(str(path))
    assert "uncertainty" in str(err.value)


def test_file_that_is_not_json_named(tmp_path):
    path = tmp_path / "not_json.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError) as err:
        io.read_json(str(path))
    assert err.value.field == str(path)
    assert str(err.value).startswith(f"{path}: not valid JSON")


def test_two_uncertainty_blocks_rejected(tmp_path):
    doc = campaign_doc()
    doc["uncertainty"]["diagonal"] = {"sigma": [0.5] * 42}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        io.load_campaign(str(path))


def test_negative_sigma_named(tmp_path):
    doc = campaign_doc()
    doc["uncertainty"]["iid"]["sigma_b"] = -0.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        io.load_campaign(str(path))
    assert "sigma_b" in str(err.value)


@pytest.mark.parametrize("field", ["measurements", "uncertainty.correlation.rho", "rho"])
def test_ragged_matrix_exits_2_naming_its_path(tmp_path, capsys, field):
    # a row one entry short is refused by the schema walker, before numpy
    # would fail to build an array from it
    if field == "rho":
        command = ["efficiency"]
        doc = {
            "means": {"T01": 1000.0, "T02": 800.0, "P01": 8e5, "P02": 2e5, "gamma": 1.4},
            "sigmas": {"T01": 2.0, "T02": 2.0, "P01": 500.0, "P02": 500.0, "gamma": 0.001},
            "rho": np.eye(5).tolist(),
        }
    else:
        command = ["fit", "--harmonics", "1,4"]
        doc = campaign_doc(noise="correlated")
    matrix = doc
    for key in field.split("."):
        matrix = matrix[key]
    matrix[2].pop()
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main([command[0], str(path), *command[1:], "--output", str(out)]) == 2
    assert f"error: {field}: rows have unequal lengths" in capsys.readouterr().err
    assert not out.exists()


def test_measurement_rake_count_must_match_geometry(tmp_path):
    doc = campaign_doc()
    doc["measurements"] = doc["measurements"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        io.load_campaign(str(path))


def test_non_psd_correlation_rejected(tmp_path):
    doc = campaign_doc()
    rho = np.eye(42)
    rho[0, 1] = rho[1, 0] = 0.9
    rho[0, 2] = rho[2, 0] = 0.9
    rho[1, 2] = rho[2, 1] = -0.9
    doc["uncertainty"] = {"correlation": {"sigma": [0.5] * 42, "rho": rho.tolist()}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        io.load_campaign(str(path))


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1)], ids=["unit diagonal", "symmetry"])
def test_correlation_off_by_1e6_refused(tmp_path, capsys, i, j):
    # 1e-6 off the unit diagonal, or 1e-6 of asymmetry, is far beyond 1e-12
    doc = campaign_doc()
    rho = np.eye(42)
    rho[0, 1] = rho[1, 0] = 0.5
    rho[i, j] -= 1e-6
    doc["uncertainty"] = {"correlation": {"sigma": [SIGMA_B] * 42, "rho": rho.tolist()}}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["fit", str(path), "--harmonics", "1,4", "--beta", str(BETA), "--output", str(out)])
    assert code == 2
    assert "uncertainty" in capsys.readouterr().err
    assert not out.exists()


def test_fit_report_matches_library(campaign_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["fit", campaign_path, "--harmonics", "1,4", "--beta", str(BETA),
         "--output", str(out), "--n-theta", "72", "--n-r", "13"]
    )
    assert code == 0
    report = json.loads(out.read_text())

    campaign = io.load_campaign(campaign_path)
    model = build_design_matrix(
        campaign.geometry, HarmonicSet((1, 4)), beta=BETA
    )
    coeffs = fit(model, campaign.measurements)
    field = FieldDistribution.from_measurements(model, campaign.meas)
    metrics = compute_metrics(model, coeffs, campaign.meas, field)
    area = area_average(model, field)

    assert report["fit"]["omega"] == [1, 4]
    assert report["fit"]["lambda"] == 0.0
    assert report["metrics"]["eps_p_sq"] == metrics.eps_p_sq
    assert report["metrics"]["mean_eps_p_sq"] == metrics.mean_eps
    assert report["metrics"]["g"] == 7
    assert report["metrics"]["metric_divisor"] == 41
    assert report["metrics"]["moment_divisor"] == 42
    assert report["area_average"]["mean"] == area.mean
    assert report["area_average"]["two_sigma"] == area.two_sigma
    assert report["legacy"]["sampling_std"] > 0.0
    assert report["predictive"]["max_two_sigma"] > 0.0
    assert report["units"] == "K"

    # written floats are repr round-trips: reloading changes nothing
    assert json.loads(json.dumps(report)) == report


def test_fit_zero_noise_off_span(tmp_path):
    # sigma_b = 0 is valid input; the residual power is then the constant
    # ||mu_R||^2 / NM and there is no chi-square law to report
    doc = campaign_doc()
    data = np.asarray(doc["measurements"])
    data[0] += 1.0
    doc["measurements"] = data.tolist()
    doc["uncertainty"] = {"iid": {"sigma_b": 0.0}}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["fit", str(path), "--harmonics", "1,4", "--beta", str(BETA),
                 "--output", str(out), "--n-theta", "72", "--n-r", "13"])
    assert code == 0
    metrics = json.loads(out.read_text())["metrics"]
    model = build_design_matrix(io.load_campaign(str(path)).geometry, HarmonicSet((1, 4)), beta=BETA)
    resid = model.A @ model.P @ data - data
    assert metrics["mean_eps_p_sq"] == pytest.approx(np.sum(resid**2) / 42, rel=1e-12)
    assert metrics["var_eps_p_sq"] == 0.0
    assert "g" not in metrics and "phi" not in metrics


def test_fit_reports_no_chi_square_law_with_as_many_rakes_as_coefficients(tmp_path):
    # the README campaign without its last rake, fitted with harmonics 1, 2:
    # N = K = 5, so the residual is roundoff and there is no law to report
    doc = campaign_doc(theta=ENGINE_THETA[:5])
    doc["measurements"] = readme_readings(ENGINE_THETA[:5]).tolist()
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["fit", str(path), "--harmonics", "1,2", "--beta", str(BETA), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["fit"]["lambda"] == 0.0
    assert "g" not in report["metrics"] and "phi" not in report["metrics"]
    assert report["metrics"]["mean_eps_p_sq"] < 1e-20


def test_fit_correlated_noise_is_analytic(tmp_path):
    doc = campaign_doc()
    rho = np.full((42, 42), 0.3)
    np.fill_diagonal(rho, 1.0)
    doc["uncertainty"] = {"correlation": {"sigma": [SIGMA_B] * 42, "rho": rho.tolist()}}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["fit", str(path), "--harmonics", "1,4", "--beta", str(BETA),
                 "--output", str(out), "--n-theta", "72", "--n-r", "13"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["metrics"]["method"] == "analytic"
    assert "g" not in report["metrics"] and "phi" not in report["metrics"]

    campaign = io.load_campaign(str(path))
    model = build_design_matrix(campaign.geometry, HarmonicSet((1, 4)), beta=BETA)
    coeffs = fit(model, campaign.measurements)
    field = FieldDistribution.from_measurements(model, campaign.meas, coeffs.lambda_used)
    metrics = compute_metrics(model, coeffs, campaign.meas, field)
    assert report["metrics"]["mean_eps_p_sq"] == metrics.mean_eps
    mc = mc_propagate_model(model, campaign.meas, SamplerConfig(seed=7, n_samples=50_000),
                            lam=coeffs.lambda_used)
    assert abs(mc.eps_mean - metrics.mean_eps) < 5.0 * mc.eps_mean_se


@pytest.mark.parametrize(
    "theta, harmonics",
    [(ENGINE_THETA, "1,2,3"), (np.array([0.0, 90.0, 180.0, 270.0]), "2")],
    ids=["fewer-rakes-than-coefficients", "aliased-quarter-rakes"],
)
def test_fit_of_singular_design_reports_null_condition(tmp_path, theta, harmonics):
    # A^T A is numerically singular (N = 6 < K = 7; sin 2t vanishes at every
    # rake), so cond is inf: the ridge ladder fits it and the report writes null
    doc = campaign_doc(theta=theta)
    doc["measurements"] = readme_readings(theta).tolist()
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["fit", str(path), "--harmonics", harmonics, "--beta", str(BETA), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["fit"]["cond_AtA"] is None
    assert report["fit"]["lambda"] == 1e-4
    assert "g" not in report["metrics"] and "phi" not in report["metrics"]
    assert 500.0 < report["area_average"]["mean"] < 550.0


def test_fit_to_devnull_writes_no_sidecar(campaign_path, monkeypatch):
    # os.devnull is not a regular file, so no coefficients file goes beside it
    written = []
    monkeypatch.setattr(io, "write_json", lambda doc, path: written.append(path))
    assert main(["fit", campaign_path, "--harmonics", "1,4", "--beta", str(BETA),
                 "--output", os.devnull]) == 0
    assert written == [os.devnull]


@pytest.mark.parametrize("command,output", [("fit", "report.json"), ("grid", "grid.csv")])
def test_ridge_fit_warns_of_its_bias(tmp_path, caplog, command, output):
    # four rakes at 0/90/180/270 with harmonic 2 at the default beta: the
    # ladder accepts lambda = 10, which pulls the area mean far below the
    # readings while the reported uncertainty stays tiny
    theta = np.array([0.0, 90.0, 180.0, 270.0])
    doc = campaign_doc(theta=theta)
    doc["measurements"] = readme_readings(theta).tolist()
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / output
    with caplog.at_level(logging.WARNING, logger="rakeuq"):
        assert main([command, str(path), "--harmonics", "2", "--output", str(out)]) == 0
    assert [(r.name, r.levelno) for r in caplog.records] == [("rakeuq", logging.WARNING)]
    message = caplog.records[0].getMessage()
    for part in ("lambda = 10.0", "every coefficient, the mean included",
                 "uncertainties exclude that bias", "--beta"):
        assert part in message
    if command == "fit":
        report = json.loads(out.read_text())
        assert report["fit"]["lambda"] == 10.0
        assert report["area_average"]["mean"] < 0.05 * readme_readings(theta).min()


@pytest.mark.parametrize("command,output", [("fit", "report.json"), ("grid", "grid.csv")])
def test_plain_fit_logs_nothing(campaign_path, tmp_path, caplog, command, output):
    with caplog.at_level(logging.DEBUG, logger="rakeuq"):
        assert main([command, campaign_path, "--harmonics", "1,4", "--beta", str(BETA),
                     "--output", str(tmp_path / output)]) == 0
    assert caplog.records == []


@pytest.mark.parametrize("option,value", [("--seed", "1"), ("--samples", "10")])
def test_fit_rejects_monte_carlo_options(campaign_path, capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["fit", campaign_path, "--harmonics", "1,4", option, value])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, name",
    [
        (["scan", "--beta", "nan"], "beta"),
        (["fit", "--harmonics", "1,4", "--beta", "nan"], "beta"),
        (["fit", "--harmonics", "1,4", "--lambda-ladder", "nan"], "lambda_ladder"),
        (["fit", "--harmonics", "1,4", "--lambda-ladder", "0.1,inf"], "lambda_ladder"),
    ],
    ids=["scan-nan-beta", "fit-nan-beta", "fit-nan-rung", "fit-inf-rung"],
)
def test_cli_rejects_nan_and_infinite_guard_settings(campaign_path, tmp_path, capsys, args, name):
    out = tmp_path / "out"
    code = main([args[0], campaign_path, *args[1:], "--output", str(out)])
    assert code == 3
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_scan_cli_accepts_infinite_beta(campaign_path, tmp_path, capsys):
    code = main(["scan", campaign_path, "--beta", "inf", "--output", str(tmp_path / "scan.csv")])
    assert code == 0
    assert "best pair" in capsys.readouterr().out


def test_fit_cli_reports_infinite_beta_as_null(campaign_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(["fit", campaign_path, "--harmonics", "1,4", "--beta", "inf", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["fit"]["beta"] is None
    assert report["fit"]["lambda"] == 0.0


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("fit", "--n-theta", "0"),
        ("grid", "--n-theta", "0"),
        ("fit", "--n-r", "0"),
        ("grid", "--n-r", "0"),
        ("grid", "--n-theta", "-3"),
    ],
)
def test_grid_sizes_below_one_rejected(campaign_path, tmp_path, capsys, command, option, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, campaign_path, "--harmonics", "1,4", option, value, "--output", str(out)])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_fit_writes_coefficient_file(campaign_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["fit", campaign_path, "--harmonics", "1,4", "--beta", str(BETA),
         "--output", str(out)]
    )
    assert code == 0
    coeff_doc = json.loads((tmp_path / "report.json.coefficients.json").read_text())
    campaign = io.load_campaign(campaign_path)
    model = build_design_matrix(
        campaign.geometry, HarmonicSet((1, 4)), beta=BETA
    )
    coeffs = fit(model, campaign.measurements)
    assert np.array(coeff_doc["X"]).shape == (5, 7)
    np.testing.assert_array_equal(np.array(coeff_doc["X"]), coeffs.X)


def test_grid_csv_layout_and_integration(campaign_path, tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        ["grid", campaign_path, "--harmonics", "1,4", "--beta", str(BETA),
         "--n-r", "400", "--n-theta", "360", "--output", str(out)]
    )
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["r_frac", "theta_deg", "mean", "variance"]
    body = rows[1:]
    assert len(body) == 400 * 360
    # theta varies fastest
    assert body[0][0] == body[1][0]
    assert body[0][1] != body[1][1]

    # cell-centred grid: area-weighted average of the mean column should
    # reproduce the analytic area average of the fitted field
    r = np.array([float(row[0]) for row in body])
    mean = np.array([float(row[2]) for row in body])
    radius = R_INNER + (R_OUTER - R_INNER) * r
    want = (mean * radius).sum() / radius.sum()
    campaign = io.load_campaign(campaign_path)
    model = build_design_matrix(
        campaign.geometry, HarmonicSet((1, 4)), beta=BETA
    )
    coeffs = fit(model, campaign.measurements)
    field = FieldDistribution.from_measurements(model, campaign.meas)
    area = area_average(model, field)
    assert want == pytest.approx(area.mean, abs=1e-4 * abs(area.mean))


def test_scan_cli(tmp_path, capsys):
    doc = campaign_doc(theta=SCAN_THETA)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", str(path), "--beta", str(BETA), "--output", str(out)]
    )
    assert code == 0
    assert "omega=(1, 4)" in capsys.readouterr().out
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["omega1", "omega2", "lambda", "mean_eps"]
    assert len(rows) == 46
    assert [rows[1][0], rows[1][1]] == ["1", "4"]


def test_scan_accepts_correlated_campaign(tmp_path):
    doc = campaign_doc(noise="correlated")
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "scan.csv"
    code = main(["scan", str(path), "--output", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 46
    campaign = io.load_campaign(str(path))
    assert campaign.meas.iid_sigma is None
    result = rakeuq.frequency_scan(campaign.geometry, campaign.meas)
    assert [(int(r[0]), int(r[1]), float(r[3])) for r in rows[1:]] == [
        (*e.omega, e.mean_eps) for e in result.entries
    ]


@pytest.mark.parametrize("args", [
    ["scan"],
    ["rake-mc", "--harmonics", "1,4", "--sigma-theta", "0.5", "--draws", "64"],
], ids=["scan", "rake-mc"])
def test_scan_rejects_radial_basis(campaign_path, tmp_path, capsys, args):
    # the scan's expected misfit lives at the rakes and the rake-mc grid at
    # the stations, so neither reads a radial basis and neither has its option
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([args[0], campaign_path, *args[1:], "--output", str(out),
              "--radial-basis", "linear"])
    assert exc.value.code == 2
    assert "--radial-basis" in capsys.readouterr().err
    assert not out.exists()


def test_scan_exit_code_when_every_pair_exhausted(campaign_path, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", campaign_path, "--beta", "1e-6", "--lambda-ladder", "0.0001",
         "--output", str(out)]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert "best pair" not in captured.out
    assert "exhausted" in captured.err
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 46
    assert all(row[2] == "" and row[3] == "inf" for row in rows[1:])


def test_scan_exit_code_when_no_ridge_rung_runs(tmp_path, capsys):
    # four rakes at 0/90/180/270 alias harmonic 2, so the one pair (1, 2) is
    # singular; with no ladder rungs its fit never runs, yet its row is written
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(campaign_doc(theta=[0.0, 90.0, 180.0, 270.0])))
    out = tmp_path / "scan.csv"
    code = main(["scan", str(path), "--max-freq", "2", "--lambda-ladder", "", "--output", str(out)])
    assert code == 4
    assert capsys.readouterr().err == "error: all 1 pairs exhausted the ridge ladder\n"
    assert out.read_text().splitlines() == ["omega1,omega2,lambda,mean_eps", "1,2,,inf"]


def test_rake_mc_cli_rejects_nan_scatter(campaign_path, tmp_path, capsys):
    code = main(
        ["rake-mc", campaign_path, "--harmonics", "1,4", "--sigma-theta", "nan",
         "--draws", "64", "--output", str(tmp_path / "rake.csv")]
    )
    assert code == 3
    assert "sigma_theta" in capsys.readouterr().err
    assert not (tmp_path / "rake.csv").exists()


def test_rake_mc_cli_zero_scatter_matches_fit(campaign_path, tmp_path):
    out = tmp_path / "rake.csv"
    code = main(
        ["rake-mc", campaign_path, "--harmonics", "1,4", "--beta", str(BETA),
         "--sigma-theta", "0", "--draws", "256", "--n-prediction", "45",
         "--output", str(out)]
    )
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert len(rows) == 45 * 7
    campaign = io.load_campaign(campaign_path)
    model = build_design_matrix(
        campaign.geometry, HarmonicSet((1, 4)), beta=BETA
    )
    coeffs = fit(model, campaign.measurements)
    theta_pred = np.arange(45) * 8.0
    det = station_predictions(coeffs.X, theta_pred, (1, 4))
    got = np.array([float(r[2]) for r in rows]).reshape(45, 7)
    np.testing.assert_array_equal(got, det)
    var = np.array([float(r[3]) for r in rows])
    assert (var == 0.0).all()


@pytest.mark.parametrize(
    "args",
    [
        ["grid", "--harmonics", "1,4"],
        ["scan"],
        ["rake-mc", "--harmonics", "1,4", "--sigma-theta", "0.5", "--draws", "64"],
    ],
    ids=["grid", "scan", "rake-mc"],
)
def test_csv_commands_need_output(campaign_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([args[0], campaign_path, *args[1:]])
    assert exc.value.code == 2
    assert "--output" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, option",
    [
        (["rake-mc", "--draws", "1"], "--draws"),
        (["rake-mc", "--draws", "-5"], "--draws"),
        (["rake-mc", "--n-prediction", "0"], "--n-prediction"),
        (["rake-mc", "--seed", "-1"], "--seed"),
        (["efficiency", "--seed", "-1"], "--seed"),
    ],
    ids=["one-draw", "negative-draws", "no-prediction-angle", "rake-mc-seed", "efficiency-seed"],
)
def test_monte_carlo_integer_options_rejected(campaign_path, tmp_path, capsys, args, option):
    out = tmp_path / "out"
    if args[0] == "rake-mc":
        args = ["rake-mc", campaign_path, "--harmonics", "1,4", "--sigma-theta", "0.5", *args[1:]]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--output", str(out)])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_fit_exit_code_on_missing_file(tmp_path):
    code = main(["fit", str(tmp_path / "nope.json"), "--harmonics", "1,4"])
    assert code == 2


def test_fit_exit_code_on_schema_error(tmp_path):
    doc = campaign_doc()
    del doc["uncertainty"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["fit", str(path), "--harmonics", "1,4"])
    assert code == 2


def test_fit_rejects_nan_reading(tmp_path, capsys):
    # Python's json reads NaN and Infinity, and the schema's number refuses them
    doc = campaign_doc()
    doc["measurements"][2][3] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        io.load_campaign(str(path))
    assert err.value.field == "measurements.2.3"
    code = main(["fit", str(path), "--harmonics", "1,4"])
    assert code == 2
    assert "error: measurements.2.3: must be a finite number" in capsys.readouterr().err


def test_fit_rejects_infinite_sigma_b(tmp_path, capsys):
    doc = campaign_doc()
    doc["uncertainty"]["iid"]["sigma_b"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    code = main(["fit", str(path), "--harmonics", "1,4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "uncertainty" in err and "sigma_b" in err


def test_fit_exit_code_on_exhausted_ladder(campaign_path):
    code = main(["fit", campaign_path, "--harmonics", "1,4", "--beta", "1e-6"])
    assert code == 4


def test_efficiency_cli_default_state(tmp_path):
    out = tmp_path / "eta.json"
    code = main(["efficiency", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert 0.0 < doc["eta_mean"] < 1.0
    assert set(doc["contributions"]) == {"T01", "T02", "P01", "P02", "gamma"}
    assert doc["eta_variance"] == pytest.approx(sum(doc["contributions"].values()))


def test_efficiency_cli_state_file_and_mc(tmp_path):
    state_doc = {
        "means": {"T01": 1000.0, "T02": 800.0, "P01": 8e5, "P02": 2e5, "gamma": 1.4},
        "sigmas": {"T01": 2.0, "T02": 2.0, "P01": 500.0, "P02": 500.0, "gamma": 0.001},
    }
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state_doc))
    out = tmp_path / "eta.json"
    code = main(
        ["efficiency", str(spath), "--samples", "20000", "--seed", "5",
         "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["eta_mean"] == pytest.approx(0.6115274695000418, abs=1e-6)
    assert doc["mc_check"]["sigma_eta"] == pytest.approx(doc["sigma_eta"], rel=0.05)


def test_efficiency_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["efficiency", "--rho-values", "0,0.5,0.9,0.999", "--output", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["rho", "sigma_eta"]
    sig = [float(r[1]) for r in rows[1:]]
    assert sig == sorted(sig, reverse=True)


def test_legacy_cli(tmp_path):
    budget = {
        "components": [
            {"label": "calibration", "value": 1.0},
            {"label": "spatial", "value": 2.371},
        ]
    }
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(budget))
    out = tmp_path / "total.json"
    code = main(["legacy", str(path), "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == pytest.approx(2.573, abs=5e-4)


def test_legacy_cli_with_samples(tmp_path):
    budget = {
        "components": [{"label": "calibration", "value": 1.0}],
        "samples": [1.0, 2.0, 3.0],
    }
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(budget))
    out = tmp_path / "total.json"
    code = main(["legacy", str(path), "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    labels = [c["label"] for c in doc["components"]]
    assert "sampling" in labels
    assert doc["total"] == pytest.approx(np.sqrt(2.0), rel=1e-9)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_legacy_cli_sums_past_the_square_overflow(tmp_path):
    # 1e200 squared overflows, but the root-sum-square fits in a double
    budget = {"components": [{"label": "a", "value": 1e200}, {"label": "b", "value": 1e200}],
              "samples": [1e200, -1e200, 3.0]}
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(budget))
    out = tmp_path / "total.json"
    assert main(["legacy", str(path), "--output", str(out)]) == 0
    doc = _strict_json(out.read_text())
    sampling = statistics.stdev(budget["samples"])
    assert abs(doc["components"][2]["value"] - sampling) <= 2 * math.ulp(sampling)
    total = math.hypot(1e200, 1e200, doc["components"][2]["value"])
    assert abs(doc["total"] - total) <= math.ulp(total)
    budget.pop("samples")
    path.write_text(json.dumps(budget))
    assert main(["legacy", str(path), "--output", str(out)]) == 0
    total = math.hypot(1e200, 1e200)
    assert abs(_strict_json(out.read_text())["total"] - total) <= math.ulp(total)


def test_legacy_cli_refuses_a_total_past_the_largest_double(tmp_path, capsys):
    budget = {"components": [{"label": "a", "value": 1.7e308}, {"label": "b", "value": 1.7e308}]}
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(budget))
    out = tmp_path / "total.json"
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["legacy", str(path), "--output", str(out)]) == 3
    assert capsys.readouterr().err == "error: non-finite value at report.total\n"
    assert not out.exists()


def test_load_budget_returns_float_pairs_in_file_order(tmp_path):
    budget = {"components": [{"label": "spatial", "value": 2}, {"label": "calibration", "value": 1.5}]}
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(budget))
    components, samples = io.load_budget(str(path))
    assert components == [("spatial", 2.0), ("calibration", 1.5)]
    assert [type(value) for _, value in components] == [float, float]
    assert samples is None


def test_legacy_rejects_nan_component(tmp_path, capsys):
    # Python's json reads NaN, and the schema's number refuses it
    budget = {
        "components": [
            {"label": "probe", "value": float("nan")},
            {"label": "spatial", "value": 2.0},
        ]
    }
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(budget))
    with pytest.raises(SchemaError) as err:
        io.load_budget(str(path))
    assert err.value.field == "components.0.value"
    code = main(["legacy", str(path), "--output", str(tmp_path / "total.json")])
    assert code == 2
    assert "components.0.value" in capsys.readouterr().err
    assert not (tmp_path / "total.json").exists()


def test_efficiency_rejects_infinite_sigma(tmp_path, capsys):
    state_doc = {
        "means": {"T01": 1000.0, "T02": 800.0, "P01": 8e5, "P02": 2e5, "gamma": 1.4},
        "sigmas": {"T01": float("inf"), "T02": 2.0, "P01": 500.0, "P02": 500.0, "gamma": 0.001},
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_doc))
    with pytest.raises(SchemaError) as err:
        io.load_station_state(str(path))
    assert err.value.field == "sigmas.T01"
    code = main(["efficiency", str(path), "--output", str(tmp_path / "eta.json")])
    assert code == 2
    assert "sigmas.T01" in capsys.readouterr().err


def test_legacy_rejects_seed(tmp_path, capsys):
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"components": [{"label": "probe", "value": 1.0}]}))
    with pytest.raises(SystemExit) as exc:
        main(["legacy", str(path), "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; the runtime must not pull it back in
    src = str(Path(rakeuq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, rakeuq.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_only_numpy_and_stdlib():
    # numpy is the one runtime dependency; jsonschema and scipy are test oracles
    src = str(Path(rakeuq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys; before = set(sys.modules); import rakeuq.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.split())
    assert {"numpy", "rakeuq"} <= loaded
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "rakeuq"}


HUGE = 10**400  # valid JSON, but no double holds it


@pytest.mark.parametrize(
    "field, value",
    [
        ("measurements.0.0", -HUGE),
        ("uncertainty.iid.sigma_b", HUGE),
        ("geometry.r_outer", HUGE),
        ("geometry.theta_deg.2", HUGE),
        ("uncertainty.diagonal.sigma.5", HUGE),
    ],
)
def test_fit_rejects_integer_too_large_for_double(tmp_path, capsys, field, value):
    doc = campaign_doc()
    doc["uncertainty"] = {"iid": {"sigma_b": SIGMA_B}, "diagonal": {"sigma": [SIGMA_B] * 42}}
    del doc["uncertainty"]["diagonal" if "iid" in field else "iid"]
    *parents, last = [int(key) if key.isdigit() else key for key in field.split(".")]
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        io.load_campaign(str(path))
    assert err.value.field == field
    assert main(["fit", str(path), "--harmonics", "1,4"]) == 2
    assert field in capsys.readouterr().err


def test_efficiency_rejects_integer_too_large_for_double(tmp_path, capsys):
    state_doc = {
        "means": {"T01": 1000.0, "T02": 800.0, "P01": HUGE, "P02": 2e5, "gamma": 1.4},
        "sigmas": {"T01": 2.0, "T02": 2.0, "P01": 500.0, "P02": 500.0, "gamma": 0.001},
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_doc))
    with pytest.raises(SchemaError) as err:
        io.load_station_state(str(path))
    assert err.value.field == "means.P01"
    assert main(["efficiency", str(path), "--output", str(tmp_path / "eta.json")]) == 2
    assert "means.P01" in capsys.readouterr().err


def test_legacy_rejects_integer_too_large_for_double(tmp_path, capsys):
    budget = {"components": [{"label": "probe", "value": 1.0}], "samples": [1.0, HUGE, 3.0]}
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(budget))
    with pytest.raises(SchemaError) as err:
        io.load_budget(str(path))
    assert err.value.field == "samples.1"
    assert main(["legacy", str(path), "--output", str(tmp_path / "total.json")]) == 2
    assert "samples.1" in capsys.readouterr().err
    assert not (tmp_path / "total.json").exists()


def test_fig1_demo_cli(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    code = main(["fig1-demo", "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "K=   3" in printed
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n_rakes", "legacy", "model_eps_p_sq"]
    assert [r[0] for r in rows[1:]] == ["3", "8", "300"]


@pytest.mark.parametrize("counts", ["0", "3,-2"])
def test_fig1_demo_cli_rejects_counts_below_one(tmp_path, capsys, counts):
    out = tmp_path / "demo.csv"
    code = main(["fig1-demo", "--rake-counts", counts, "--output", str(out)])
    assert code == 3
    assert "rake_counts" in capsys.readouterr().err
    assert not out.exists()


def test_write_and_read_json_round_trip(tmp_path):
    doc = {"a": 0.1 + 0.2, "b": [1e-17, 3.14]}
    path = tmp_path / "doc.json"
    io.write_json(doc, path)
    again = io.read_json(path)
    assert again == doc


WRITERS = {
    "json": lambda path: io.write_json({"a": 0.1 + 0.2, "b": [1e-17, 3.14], "c": "text"}, path),
    "csv": lambda path: io.write_csv(path, ["x", "y"], [(0.1 + 0.2, "a"), (1e-17, "b"), (3, "c")]),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
@pytest.mark.parametrize("old_size", ["longer", "shorter", "equal"])
def test_overwrite_leaves_exactly_the_new_bytes(tmp_path, write, old_size):
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    write(fresh)
    expected = fresh.read_bytes()
    size = {"longer": 10 * len(expected), "shorter": len(expected) // 3, "equal": len(expected)}[old_size]
    target.write_bytes(b"#" * size)
    write(target)
    assert target.read_bytes() == expected


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_new_output_file_mode_follows_umask(tmp_path, write):
    old_mask = os.umask(0o027)
    try:
        write(tmp_path / "out")
        with open(tmp_path / "by_open", "w"):
            pass
    finally:
        os.umask(old_mask)
    assert (tmp_path / "out").stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "by_open").stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_writers_accept_devnull(write):
    write(os.devnull)


def test_csv_write_that_fails_midway_keeps_no_old_tail(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("old,file\n" * 1000)

    def rows():
        yield (1, 2.5)
        yield (3, 4.5)
        raise ValueError("row source failed")

    with pytest.raises(ValueError, match="row source failed"):
        io.write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == b"a,b\r\n1,2.5\r\n3,4.5\r\n"


@pytest.mark.parametrize("counts", ["1", "2", "3,2"])
def test_fig1_demo_cli_rejects_counts_below_three(tmp_path, capsys, counts):
    out = tmp_path / "demo.csv"
    assert main(["fig1-demo", "--rake-counts", counts, "--output", str(out)]) == 3
    assert "rake_counts" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_scan_max_freq_below_two_rejected_by_parser(campaign_path, tmp_path, capsys, value):
    out = tmp_path / "scan.csv"
    with pytest.raises(SystemExit) as exc:
        main(["scan", campaign_path, "--max-freq", value, "--output", str(out)])
    assert exc.value.code == 2
    assert "--max-freq" in capsys.readouterr().err
    assert not out.exists()


def test_efficiency_sweep_without_output_refused_before_any_work(monkeypatch, capsys):
    import rakeuq.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work done before --output was checked")

    for name in ("taylor_variance", "efficiency_mc", "correlation_sweep"):
        monkeypatch.setattr(cli_mod, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(["efficiency", "--samples", "1000", "--rho-values", "0,0.5"])
    assert exc.value.code == 2
    assert "--output" in capsys.readouterr().err


def test_efficiency_sweep_refuses_samples(tmp_path, capsys):
    # the sweep runs no Monte Carlo check, so --samples would be ignored
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(["efficiency", "--rho-values", "0.5", "--samples", "1000", "--output", str(out)])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1", "-5"])
def test_efficiency_samples_below_two_rejected_by_parser(tmp_path, capsys, value):
    out = tmp_path / "eta.json"
    with pytest.raises(SystemExit) as exc:
        main(["efficiency", "--samples", value, "--output", str(out)])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


# Values that each option of each subcommand must refuse, as (value, exit
# code, a name stderr must contain): exit 2 names the option itself (the
# parser refused it), exit 3 the library parameter that refused it.
# "MISSING" stands for a file in a directory that does not exist.
BAD_OPTION_VALUES = {
    "fit": {
        "--harmonics": [("1,x", 2, "--harmonics"), ("0,1", 2, "--harmonics")],
        "--radial-basis": [("quadratic", 2, "--radial-basis")],
        "--lambda-ladder": [("a", 2, "--lambda-ladder"), ("-1", 3, "lambda_ladder")],
        "--beta": [("x", 2, "--beta"), ("0", 3, "beta"), ("-1e1", 3, "beta")],
        "--output": [("MISSING", 2, "--output")],
        "--n-theta": [("0", 2, "--n-theta")],
        "--n-r": [("x", 2, "--n-r")],
        "--coefficients": [("MISSING", 2, "--coefficients")],
    },
    "grid": {
        "--harmonics": [("", 2, "--harmonics")],
        "--radial-basis": [("", 2, "--radial-basis")],
        "--lambda-ladder": [("1,b", 2, "--lambda-ladder")],
        "--beta": [("-1", 3, "beta")],
        "--output": [("MISSING", 2, "--output")],
        "--n-theta": [("-3", 2, "--n-theta")],
        "--n-r": [("0", 2, "--n-r")],
    },
    "scan": {
        "--lambda-ladder": [("a", 2, "--lambda-ladder"), ("0", 3, "lambda_ladder")],
        "--beta": [("nan", 3, "beta")],
        "--output": [("MISSING", 2, "--output")],
        "--max-freq": [("1", 2, "--max-freq")],
    },
    "rake-mc": {
        "--harmonics": [("4,4", 2, "--harmonics")],
        "--seed": [("-1", 2, "--seed")],
        "--lambda-ladder": [("x", 2, "--lambda-ladder"), ("inf", 3, "lambda_ladder")],
        "--beta": [("0", 3, "beta")],
        "--output": [("MISSING", 2, "--output")],
        "--sigma-theta": [("x", 2, "--sigma-theta"), ("-1", 3, "sigma_theta"), ("-1e1", 3, "sigma_theta")],
        "--draws": [("1", 2, "--draws")],
        "--n-prediction": [("0", 2, "--n-prediction")],
    },
    "efficiency": {
        "--seed": [("x", 2, "--seed")],
        "--samples": [("1", 2, "--samples"), ("-5", 2, "--samples")],
        "--output": [("MISSING", 2, "--output")],
        "--rho-values": [
            ("a", 2, "--rho-values"), ("0,2", 3, "rho_value"),
            ("", 2, "--rho-values"), (",", 2, "--rho-values"),
        ],
    },
    "legacy": {
        "--output": [("MISSING", 2, "--output")],
    },
    "fig1-demo": {
        "--output": [("MISSING", 2, "--output")],
        "--frequency": [("x", 2, "--frequency"), ("0", 3, "frequency")],
        "--amplitude": [
            ("nan", 3, "amplitude"), ("-1", 3, "amplitude"), ("1e308", 3, "amplitude"),
            ("-1e1", 3, "amplitude"),
        ],
        "--mean": [("inf", 3, "mean"), ("1e200", 3, "mean"), ("-1e200", 3, "mean")],
        "--phase": [("nan", 3, "phase_deg"), ("-1e400", 3, "phase_deg")],
        "--offset": [("nan", 3, "offset_deg"), ("-1e400", 3, "offset_deg")],
        "--rake-counts": [
            ("3,x", 2, "--rake-counts"), ("2", 3, "rake_counts"), ("", 2, "--rake-counts"),
        ],
    },
}


def _parser_options():
    """(subcommand, option) for every option build_parser() defines."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[-1])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


@pytest.mark.parametrize("command, option", _parser_options())
def test_every_option_refuses_bad_values_by_name(campaign_path, tmp_path, capsys, command, option):
    budget = tmp_path / "budget.json"
    budget.write_text(json.dumps({"components": [{"label": "calibration", "value": 1.0}]}))
    out = tmp_path / "out"
    base = {
        "fit": [campaign_path, "--harmonics", "1,4", "--beta", str(BETA)],
        "grid": [campaign_path, "--harmonics", "1,4", "--beta", str(BETA)],
        "scan": [campaign_path, "--beta", str(BETA)],
        "rake-mc": [campaign_path, "--harmonics", "1,4", "--beta", str(BETA),
                    "--sigma-theta", "0.5", "--draws", "64"],
        "efficiency": [],
        "legacy": [str(budget)],
        "fig1-demo": [],
    }[command]
    rows = BAD_OPTION_VALUES[command][option]
    assert rows, f"{command} {option} has no invalid value listed"
    for value, expected, name in rows:
        if value == "MISSING":
            value = str(tmp_path / "missing" / "out")
        # the option under test comes last, so it overrides the base --output
        try:
            code = main([command, *base, "--output", str(out), option, value])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == expected, (value, err)
        assert name in err, (value, err)
        assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    (["fig1-demo", "--rake-counts", "3,8"], "--offset", "-1e1"),
    (["fig1-demo", "--rake-counts", "3,8"], "--mean", "-1e1"),
    (["fig1-demo", "--rake-counts", "3,8"], "--phase", "-1.5E+2"),
    (["efficiency"], "--rho-values", "-0.5,0.2"),
    (["efficiency"], "--rho-values", "-.5"),
])
def test_negative_value_reads_as_a_value(tmp_path, capsys, command, option, value):
    # argparse's own pattern took these for option names and exited 2
    outputs = []
    for i, args in enumerate(([option, value], [f"{option}={value}"])):
        out = tmp_path / f"out{i}"
        assert main([*command, *args, "--output", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_bad_option_table_lists_only_parser_options():
    listed = {(command, option) for command, rows in BAD_OPTION_VALUES.items() for option in rows}
    assert listed == set(_parser_options())


def test_efficiency_sweep_refuses_seed(tmp_path, capsys):
    # the sweep runs no Monte Carlo check, so a given seed, 0 included,
    # would be ignored
    out = tmp_path / "s.csv"
    for seed in ("7", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["efficiency", "--rho-values", "0.5", "--seed", seed, "--output", str(out)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_monte_carlo_seed_defaults_to_zero(campaign_path, tmp_path, capsys):
    runs = {}
    for given in ((), ("--seed", "0")):
        eta = tmp_path / f"eta{len(given)}.json"
        rake = tmp_path / f"rake{len(given)}.csv"
        assert main(["efficiency", "--samples", "2000", *given, "--output", str(eta)]) == 0
        assert main(
            ["rake-mc", campaign_path, "--harmonics", "1,4", "--beta", str(BETA),
             "--sigma-theta", "0.5", "--draws", "300", "--n-prediction", "12",
             *given, "--output", str(rake)]
        ) == 0
        runs[given] = json.loads(eta.read_text())["mc_check"], rake.read_text()
    assert runs[()][0]["seed"] == 0
    assert runs[()] == runs[("--seed", "0")]


def test_diagonal_campaign_loads_and_fits(tmp_path):
    doc = campaign_doc()
    sigma = [0.3 + 0.01 * i for i in range(len(ENGINE_THETA) * STATIONS.size)]
    doc["uncertainty"] = {"diagonal": {"sigma": sigma}}
    campaign = io.campaign_from_dict(doc)
    want = MeasurementDistribution.from_diagonal(campaign.measurements, sigma)
    assert campaign.meas.iid_sigma is None
    np.testing.assert_array_equal(campaign.meas.mu_B, want.mu_B)
    np.testing.assert_array_equal(campaign.meas.station_blocks, want.station_blocks)
    np.testing.assert_array_equal(campaign.meas.factor_blocks, want.factor_blocks)

    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["fit", str(path), "--harmonics", "1,4", "--beta", str(BETA),
                 "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    model = build_design_matrix(campaign.geometry, HarmonicSet((1, 4)), beta=BETA)
    coeffs = fit(model, campaign.measurements)
    field = FieldDistribution.from_measurements(model, want, coeffs.lambda_used)
    metrics = compute_metrics(model, coeffs, want, field)
    assert report["metrics"]["mean_eps_p_sq"] == metrics.mean_eps
    assert report["area_average"]["two_sigma"] == area_average(model, field).two_sigma


def test_fit_without_output_prints_report(campaign_path, tmp_path, capsysbinary):
    # stdout and --output carry the same bytes, apart from the time stamp
    out = tmp_path / "report.json"
    args = ["fit", campaign_path, "--harmonics", "1,4", "--beta", str(BETA)]
    assert main([*args, "--output", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(args) == 0
    printed = capsysbinary.readouterr().out
    stamp = re.compile(rb'"created_utc": "[^"]*"')
    assert len(stamp.findall(printed)) == 1
    assert stamp.sub(b"", printed) == stamp.sub(b"", out.read_bytes())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "campaign.json", "report.json", "report.json.coefficients.json"
    ]


def test_scan_cli_reports_flagged_pairs(campaign_path, tmp_path, capsys):
    # no ridge rungs: the lattice's singular pairs exhaust the empty ladder
    campaign = io.load_campaign(campaign_path)
    result = rakeuq.frequency_scan(campaign.geometry, campaign.meas, beta=BETA, lambda_ladder=())
    flagged = sum(e.flagged for e in result.entries)
    assert 0 < flagged < len(result.entries)
    out = tmp_path / "scan.csv"
    code = main(["scan", campaign_path, "--beta", str(BETA), "--lambda-ladder", "",
                 "--output", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{flagged} pair(s) exhausted the ridge ladder and were flagged"
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert sum(row[2] == "" and row[3] == "inf" for row in rows) == flagged


def test_assert_finite_names_the_dotted_path():
    io.assert_finite({"a": [1.0, 2], "b": {"c": 0.5}})
    with pytest.raises(RakeUqError, match=r"non-finite value at report\.a\.b\.1$"):
        io.assert_finite({"ok": 1.0, "a": {"b": [0.0, float("nan")]}})
    with pytest.raises(RakeUqError, match=r"non-finite value at doc\.x$"):
        io.assert_finite({"x": float("-inf")}, "doc")
