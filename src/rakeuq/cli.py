"""Command-line interface.

Subcommands mirror the library's capabilities:

    rakeuq fit        campaign.json --harmonics 1,4 --output report.json
    rakeuq grid       campaign.json --harmonics 1,4 --output grid.csv
    rakeuq scan       campaign.json --output scan.csv
    rakeuq rake-mc    campaign.json --harmonics 1,4 --sigma-theta 0.51 ...
    rakeuq efficiency state.json --rho-values 0,0.5,0.9 ...
    rakeuq legacy     budget.json --output total.json
    rakeuq fig1-demo  --frequency 2 --rake-counts 3,8,300 --output demo.csv

Exit codes: 0 success, 2 input schema error, 3 numeric failure, 4 ridge
ladder exhausted.
"""

import argparse
import os
import re
import sys

import numpy as np

from . import io
from .area import area_average
from .efficiency import DEFAULT_STATE, correlation_sweep, taylor_variance
from .errors import RakeUqError, RegularizationExhausted, SchemaError
from .fourier import DEFAULT_BETA, DEFAULT_LADDER, build_design_matrix, fit
from .geometry import HarmonicSet, _whole
from .legacy import HarmonicField, fig1_demo, legacy_sampling_uncertainty, rss_total
from .montecarlo import SamplerConfig, efficiency_mc, rake_position_mc
from .propagation import FieldDistribution, predictive_grid
from .residuals import compute_metrics, frequency_scan


class _Parser(argparse.ArgumentParser):
    """argparse's parser, taking every argument that starts with "-" and a
    digit, or "-." and a digit, for a value.

    argparse's own pattern knows only -1 and -1.5, so ``--offset -1e1`` and
    ``--rho-values -0.5,0.2`` read the value as an option name; now they
    read as ``--offset=-1e1`` does. No option here starts with a digit.
    Subparsers are of the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _parsed(parse):
    """argparse type that reports ``parse``'s ValueError or library error as
    a bad value of the option, so the parser names the option and exits 2."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, RakeUqError) as exc:
            raise argparse.ArgumentTypeError(f"{exc} (got {text!r})") from None

    return convert


def _list_of(kind, empty_ok=False):
    """argparse type for a comma-separated list of ``kind``; an empty list
    is refused unless ``empty_ok``."""

    def parse(text: str):
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
        if not (values or empty_ok):
            raise ValueError("needs at least one value")
        return values

    return _parsed(parse)


_floats, _ints, _ladder = _list_of(float), _list_of(int), _list_of(float, empty_ok=True)
_harmonics = _parsed(lambda text: HarmonicSet(_ints(text)))


def _output_path(text: str) -> str:
    """argparse type for a file to write: its directory must exist, so a
    bad path is refused before any work rather than after it."""
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"no directory to write {text!r} in")
    return text


def _int_at_least(low: int, or_zero: bool = False):
    """argparse type for an integer of at least ``low``, or 0 with ``or_zero``."""

    def check(text: str) -> int:
        value = int(text)
        if or_zero and value == 0:
            return value
        return _whole(value, "a value other than 0" if or_zero else "the value", low)

    return _parsed(check)


def _grid_centers(n_r: int, n_theta: int):
    r = (np.arange(n_r) + 0.5) / n_r
    t = (np.arange(n_theta) + 0.5) * (360.0 / n_theta)
    return r, t


def _emit(report: dict, output):
    if output:
        io.write_json(report, output)
    else:
        io.dump_json(report, sys.stdout)


def _fit_field(args):
    """(campaign, model, coefficients, field) of the fit chain of ``fit`` and
    ``grid``; a ridge fit is named in one warning, since its bias is not in
    the uncertainties those commands report."""
    campaign = io.load_campaign(args.campaign)
    model = build_design_matrix(
        campaign.geometry,
        args.harmonics,
        lambda_ladder=args.lambda_ladder,
        beta=args.beta,
        radial_basis=args.radial_basis,
    )
    coeffs = fit(model, campaign.measurements)
    if coeffs.lambda_used > 0.0:
        import logging  # here, not at the top: its import costs start-up time

        logging.getLogger("rakeuq").warning(
            "ridge fit at lambda = %r: it shrinks every coefficient, the mean "
            "included, and the reported uncertainties exclude that bias; "
            "raising --beta may allow a smaller lambda", coeffs.lambda_used,
        )
    field = FieldDistribution.from_measurements(model, campaign.meas, coeffs.lambda_used)
    return campaign, model, coeffs, field


def cmd_fit(args) -> int:
    campaign, model, coeffs, field = _fit_field(args)
    metrics = compute_metrics(model, coeffs, campaign.meas, field)
    area = area_average(model, field)
    sigma_b = campaign.meas.iid_sigma
    legacy_value = legacy_sampling_uncertainty(campaign.measurements)
    legacy_block = {"sampling_std": legacy_value}
    if sigma_b is not None:
        legacy_block["rss_with_measurement_two_sigma"] = rss_total(
            [1.96 * sigma_b, legacy_value]
        )
    r_grid, t_grid = _grid_centers(args.n_r, args.n_theta)
    _, grid_var = predictive_grid(model, field, r_grid, t_grid)
    two_sigma = 1.96 * np.sqrt(grid_var)
    predictive_block = {
        "max_two_sigma": float(two_sigma.max()),
        "mean_two_sigma": float(two_sigma.mean()),
    }
    report = io.build_report(
        model, coeffs, metrics, area,
        legacy_block=legacy_block,
        predictive_block=predictive_block,
        units=campaign.units,
    )
    _emit(report, args.output)
    coeff_path = args.coefficients
    # the sidecar goes only beside a regular file: beside a device such as
    # /dev/null it would be a new file in /dev
    if coeff_path is None and args.output and os.path.isfile(args.output):
        coeff_path = args.output + ".coefficients.json"
    if coeff_path:
        io.write_json(io.coefficients_to_dict(model, coeffs), coeff_path)
    return 0


def cmd_grid(args) -> int:
    _, model, _, field = _fit_field(args)
    r_grid, t_grid = _grid_centers(args.n_r, args.n_theta)
    mean, var = predictive_grid(model, field, r_grid, t_grid)
    # row-major with theta fastest
    rows = ((r, t, mean[i, j], var[i, j])
            for i, r in enumerate(r_grid) for j, t in enumerate(t_grid))
    io.write_csv(args.output, ["r_frac", "theta_deg", "mean", "variance"], rows)
    return 0


def cmd_scan(args) -> int:
    campaign = io.load_campaign(args.campaign)
    result = frequency_scan(
        campaign.geometry,
        campaign.meas,
        max_freq=args.max_freq,
        beta=args.beta,
        lambda_ladder=args.lambda_ladder,
    )
    # flagged pairs carry an empty lambda and mean_eps = inf
    rows = ((*e.omega, "" if e.lambda_used is None else float(e.lambda_used), float(e.mean_eps))
            for e in result.entries)
    io.write_csv(args.output, ["omega1", "omega2", "lambda", "mean_eps"], rows)
    best = result.best
    if best.flagged:
        # flagged pairs sort last, so every pair is flagged
        raise RegularizationExhausted(
            f"all {len(result.entries)} pairs exhausted the ridge ladder"
        )
    print(f"best pair: omega={best.omega} mean_eps={best.mean_eps:.6g} "
          f"lambda={best.lambda_used}")
    flagged = sum(1 for e in result.entries if e.flagged)
    if flagged:
        print(f"{flagged} pair(s) exhausted the ridge ladder and were flagged")
    return 0


def cmd_rake_mc(args) -> int:
    campaign = io.load_campaign(args.campaign)
    # the grid sits at the stations, so no radial basis is read
    model = build_design_matrix(
        campaign.geometry, args.harmonics, lambda_ladder=args.lambda_ladder, beta=args.beta
    )
    config = SamplerConfig(args.seed, args.draws)
    result = rake_position_mc(
        model,
        campaign.measurements,
        args.sigma_theta,
        config,
        n_prediction=args.n_prediction,
    )
    stations = model.geometry.r_stations
    rows = ((t, r, result.grid_mean[i, m], result.grid_var[i, m])
            for i, t in enumerate(result.theta_pred_deg) for m, r in enumerate(stations))
    io.write_csv(args.output, ["theta_deg", "r_frac", "mean", "variance"], rows)
    print(f"{result.n_draws} draws, {result.n_failed} failed, "
          f"{int(np.count_nonzero(result.lambdas))} needed ridge")
    return 0


def cmd_efficiency(args) -> int:
    state = io.load_station_state(args.state) if args.state else DEFAULT_STATE
    if args.rho_values is not None:
        sigmas = correlation_sweep(state, args.rho_values)
        io.write_csv(args.output, ["rho", "sigma_eta"], zip(args.rho_values, sigmas))
        print(f"wrote sweep of {len(args.rho_values)} correlation values")
        return 0
    report = taylor_variance(state)
    doc = {
        "eta_mean": report.eta_mean,
        "eta_variance": report.eta_variance,
        "sigma_eta": report.sigma_eta,
        "two_sigma_pct_of_eta": 200.0 * report.sigma_eta / report.eta_mean,
        "contributions": report.contributions,
        "contribution_fractions": report.contribution_fractions,
        "provenance": io.provenance(),
    }
    if args.samples:
        mc_mean, mc_sigma, mc_se = efficiency_mc(
            state, SamplerConfig(args.seed, args.samples)
        )
        doc["mc_check"] = {
            "eta_mean": mc_mean,
            "sigma_eta": mc_sigma,
            "sigma_eta_se": mc_se,
            "seed": args.seed,
            "samples": args.samples,
        }
    io.assert_finite(doc)
    _emit(doc, args.output)
    return 0


def cmd_legacy(args) -> int:
    components, samples = io.load_budget(args.budget)
    if samples is not None:
        components.append(("sampling", legacy_sampling_uncertainty(samples)))
    doc = {
        "components": [{"label": label, "value": value} for label, value in components],
        "total": rss_total([value for _, value in components]),
    }
    io.assert_finite(doc)
    _emit(doc, args.output)
    return 0


def cmd_fig1_demo(args) -> int:
    field = HarmonicField(
        mean=args.mean,
        amplitude=args.amplitude,
        frequency=args.frequency,
        phase_deg=args.phase,
    )
    rows = fig1_demo(field, args.rake_counts, offset_deg=args.offset)
    if args.output:
        io.write_csv(args.output, ["n_rakes", "legacy", "model_eps_p_sq"],
                     ((row.n_rakes, row.legacy, row.model_eps_p_sq) for row in rows))
    for row in rows:
        print(f"K={row.n_rakes:4d}  legacy={row.legacy:.6g}  "
              f"model_eps_p_sq={row.model_eps_p_sq:.6g}")
    print(f"field rms about mean: {field.rms_about_mean:.6g}")
    return 0


def _add_common(parser, *, ridge=True, seed=False, samples_default=None):
    """Attach --output plus the ridge (--lambda-ladder, --beta), --seed and
    --samples options, each only where the subcommand reads it."""
    if seed:
        parser.add_argument("--seed", type=_int_at_least(0), default=None,
                            help="Monte Carlo seed (default 0)")
    if samples_default is not None:
        parser.add_argument("--samples", type=_int_at_least(2, or_zero=True),
                            default=samples_default,
                            help="Monte Carlo sample count (0: no check)")
    if ridge:
        parser.add_argument("--lambda-ladder", type=_ladder, default=DEFAULT_LADDER,
                            help="comma-separated ridge penalties")
        parser.add_argument("--beta", type=float, default=DEFAULT_BETA,
                            help="coefficient norm guard")
    parser.add_argument("--output", type=_output_path, default=None, help="output path")


def _add_harmonics(parser):
    parser.add_argument("--harmonics", type=_harmonics, required=True,
                        help="comma-separated harmonic orders, e.g. 1,4")


def _add_fit_args(parser):
    """The arguments ``fit`` and ``grid`` share: the campaign, its model,
    the ridge options and the (r, theta) grid."""
    parser.add_argument("campaign")
    _add_harmonics(parser)
    parser.add_argument("--radial-basis", choices=("cubic", "linear"),
                        default="cubic", help="radial blending basis")
    _add_common(parser)
    parser.add_argument("--n-theta", type=_int_at_least(1), default=360)
    parser.add_argument("--n-r", type=_int_at_least(1), default=50)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rakeuq",
        description="flow-field reconstruction uncertainty from rake measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a campaign and write the JSON report")
    _add_fit_args(p)
    p.add_argument("--coefficients", type=_output_path, default=None,
                   help="path for the fitted-coefficient JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("grid", help="predictive mean/variance grid as CSV")
    _add_fit_args(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("scan", help="rank harmonic pairs by expected misfit")
    p.add_argument("campaign")
    _add_common(p)
    p.add_argument("--max-freq", type=_int_at_least(2), default=10)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("rake-mc", help="Monte Carlo over rake placement scatter")
    p.add_argument("campaign")
    _add_harmonics(p)
    _add_common(p, seed=True)
    p.add_argument("--sigma-theta", type=float, required=True,
                   help="angle scatter std dev in degrees")
    p.add_argument("--draws", type=_int_at_least(2), default=50000)
    p.add_argument("--n-prediction", type=_int_at_least(1), default=360)
    p.set_defaults(func=cmd_rake_mc)

    p = sub.add_parser("efficiency", help="efficiency uncertainty budget")
    p.add_argument("state", nargs="?", default=None,
                   help="state JSON (defaults to a synthetic representative state)")
    _add_common(p, ridge=False, seed=True, samples_default=0)
    p.add_argument("--rho-values", type=_floats, default=None,
                   help="comma-separated correlations for a sweep CSV")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("legacy", help="root-sum-square an uncertainty budget")
    p.add_argument("budget")
    _add_common(p, ridge=False)
    p.set_defaults(func=cmd_legacy)

    p = sub.add_parser("fig1-demo", help="legacy vs model metric demo table")
    _add_common(p, ridge=False)
    p.add_argument("--frequency", type=int, default=2)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--offset", type=float, default=0.0,
                   help="rake placement phase offset in degrees")
    p.add_argument("--rake-counts", type=_ints, default="3,8,300")
    p.set_defaults(func=cmd_fig1_demo)

    return parser


# Subcommands whose result exists only as the CSV they write.
_CSV_COMMANDS = ("grid", "scan", "rake-mc")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sweep = args.command == "efficiency" and args.rho_values is not None
    if (sweep or args.command in _CSV_COMMANDS) and not args.output:
        command = "efficiency --rho-values" if sweep else args.command
        parser.error(f"{command} writes a CSV and needs --output")
    if sweep and args.samples:
        parser.error("efficiency --rho-values runs no Monte Carlo check; drop --samples")
    if args.command == "efficiency" and not args.samples and args.seed is not None:
        parser.error("efficiency runs a Monte Carlo check only with --samples; drop --seed")
    # --seed defaults to None only so that the check above can tell a given
    # seed from none; the samplers run with seed 0 when none was given.
    if getattr(args, "seed", 0) is None:
        args.seed = 0
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegularizationExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RakeUqError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
