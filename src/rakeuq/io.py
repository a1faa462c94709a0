"""File formats: campaign input, JSON reports, CSV outputs.

A campaign file is JSON with three required blocks:

    {
      "geometry": {"theta_deg": [...N], "r_stations": [...M],
                   "r_inner": 0.45, "r_outer": 0.75},
      "measurements": [[...M]...N],          # row n = rake n, column m = station m
      "uncertainty": {"iid": {"sigma_b": 0.51}},
      "units": "K"                           # optional, defaults to K
    }

The uncertainty block is exactly one of ``iid`` (scalar sigma), ``diagonal``
(one sigma per probe, column-major vec order: rake index fastest) or
``correlation`` (the same sigma vector plus an NM x NM correlation matrix,
giving Sigma_B = D rho D). Every number in an input file must be finite:
Python's json reads NaN and Infinity as numbers, and the schema walker
refuses them at their dotted path.

The schemas below are plain JSON Schema dicts, and a small walker checks a
document against them. It knows only the keywords they use: ``type``,
``required``, ``properties``, ``additionalProperties: false``, ``items``
with ``minItems``, ``minProperties`` / ``maxProperties`` and ``minimum``. A
number is a finite int or float, never a bool: NaN, an infinity and an int
too large for a double are refused. The walker stops at the first fault it
meets and checks an object's or array's own keywords before its members, so
for a document with one fault it names the field jsonschema's best match
would name. One rule is the walker's own, checked after a matrix's rows:
they must have equal lengths, so a ragged matrix never reaches numpy. A
fault raises SchemaError with the dotted path of that field (the document's
name for a fault at the top level); the CLI maps it to exit code 2.

Reports are plain dicts serialized with json, which round-trips every float
bit-exactly. Outputs are rewritten in place: an existing file is opened
without truncating it, written over, and then cut at the end of what was
written, so it holds exactly the new bytes. On ext4, truncating a file to
zero shortly after it was written makes the kernel flush the old contents
first (``auto_da_alloc``), and the next truncate waits on that I/O; a rewrite
in place does not. The write is not atomic: a reader that opens the file
mid-write may see the first new bytes followed by the old tail, and an
exception from the data being written (a row source that fails) leaves only
the bytes written before it.
"""

import csv
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import RakeUqError, SchemaError
from .fourier import CoefficientMatrix, FourierModel, _readings
from .geometry import AnnulusGeometry
from .propagation import MeasurementDistribution

_NUMBER = {"type": "number"}
_NUMBER_ARRAY = {"type": "array", "items": _NUMBER, "minItems": 1}
_MATRIX = {"type": "array", "items": _NUMBER_ARRAY, "minItems": 1}  # rows of equal length

CAMPAIGN_SCHEMA = {
    "type": "object",
    "required": ["geometry", "measurements", "uncertainty"],
    "additionalProperties": False,
    "properties": {
        "geometry": {
            "type": "object",
            "required": ["theta_deg", "r_stations", "r_inner", "r_outer"],
            "additionalProperties": False,
            "properties": {
                "theta_deg": _NUMBER_ARRAY,
                "r_stations": _NUMBER_ARRAY,
                "r_inner": _NUMBER,
                "r_outer": _NUMBER,
            },
        },
        "measurements": _MATRIX,
        "uncertainty": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
            "properties": {
                "iid": {
                    "type": "object",
                    "required": ["sigma_b"],
                    "additionalProperties": False,
                    "properties": {"sigma_b": {"type": "number", "minimum": 0}},
                },
                "diagonal": {
                    "type": "object",
                    "required": ["sigma"],
                    "additionalProperties": False,
                    "properties": {"sigma": _NUMBER_ARRAY},
                },
                "correlation": {
                    "type": "object",
                    "required": ["sigma", "rho"],
                    "additionalProperties": False,
                    "properties": {"sigma": _NUMBER_ARRAY, "rho": _MATRIX},
                },
            },
        },
        "units": {"type": "string"},
    },
}

STATION_STATE_SCHEMA = {
    "type": "object",
    "required": ["means", "sigmas"],
    "additionalProperties": False,
    "properties": {
        "means": {
            "type": "object",
            "required": ["T01", "T02", "P01", "P02", "gamma"],
            "additionalProperties": False,
            "properties": {name: _NUMBER for name in ("T01", "T02", "P01", "P02", "gamma")},
        },
        "sigmas": {
            "type": "object",
            "required": ["T01", "T02", "P01", "P02", "gamma"],
            "additionalProperties": False,
            "properties": {name: {"type": "number", "minimum": 0} for name in ("T01", "T02", "P01", "P02", "gamma")},
        },
        "rho": _MATRIX,
    },
}

BUDGET_SCHEMA = {
    "type": "object",
    "required": ["components"],
    "additionalProperties": False,
    "properties": {
        "components": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["label", "value"],
                "additionalProperties": False,
                "properties": {
                    "label": {"type": "string"},
                    "value": {"type": "number", "minimum": 0},
                },
            },
        },
        "samples": {"type": "array", "items": _NUMBER, "minItems": 2},
    },
}


_CONTAINERS = {"object": dict, "array": list, "string": str}
_JSON_NAMES = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}


def _type_fault(value, kind: str) -> str:
    return f"expected {kind}, got {_JSON_NAMES.get(type(value), type(value).__name__)}"


def _schema_fault(doc, schema, path):
    """(path, message) for the first fault of doc against schema, else None.

    An object's or array's own keywords are checked before its members, so a
    document with one fault names the field jsonschema's best match names.
    """
    kind = schema["type"]
    if kind == "number":
        if isinstance(doc, bool) or not isinstance(doc, (int, float)):
            return path, _type_fault(doc, kind)
        try:
            finite = math.isfinite(doc)
        except OverflowError:
            return path, "integer is too large for a double"
        if not finite:
            return path, "must be a finite number"
        if "minimum" in schema and doc < schema["minimum"]:
            return path, f"{doc!r} is less than the minimum of {schema['minimum']}"
        return None
    if not isinstance(doc, _CONTAINERS[kind]):
        return path, _type_fault(doc, kind)
    if kind == "array":
        if len(doc) < schema.get("minItems", 0):
            return path, f"needs at least {schema['minItems']} item(s)"
        items = schema["items"]
        if items == _NUMBER and set(map(type, doc)) <= {float} and all(map(math.isfinite, doc)):
            return None  # the common case, a row of finite JSON floats
        members = ((index, value, items) for index, value in enumerate(doc))
    elif kind == "object":
        properties = schema["properties"]
        for key in schema.get("required", ()):
            if key not in doc:
                return path, f"{key!r} is a required property"
        if schema.get("additionalProperties", True) is False:
            for key in doc:
                if key not in properties:
                    return path, f"additional property {key!r} is not allowed"
        low, high = schema.get("minProperties", 0), schema.get("maxProperties", len(doc))
        if not low <= len(doc) <= high:
            bounds = f"{low}" if low == high else f"{low} to {high}"
            return path, f"needs {bounds} of {', '.join(properties)}, got {len(doc)}"
        members = ((key, value, properties[key]) for key, value in doc.items() if key in properties)
    else:
        return None  # a string
    for key, value, sub in members:
        fault = _schema_fault(value, sub, path + (key,))
        if fault is not None:
            return fault
    if schema is _MATRIX and len({len(row) for row in doc}) > 1:
        return path, "rows have unequal lengths"
    return None


def _validate_schema(doc, schema, what: str):
    fault = _schema_fault(doc, schema, ())
    if fault is not None:
        path, message = fault
        raise SchemaError(message, field=".".join(map(str, path)) or what)


def _non_finite_path(obj, path=""):
    """Dotted path of the first NaN or infinity in nested dicts/lists, else None."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return path if isinstance(obj, float) and not math.isfinite(obj) else None
    for key, value in items:
        found = _non_finite_path(value, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def read_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", field=str(path)) from None


@contextmanager
def _rewrite(path, newline=None):
    """Text handle that writes ``path`` from its start without truncating it
    first; on every exit a regular file is cut at the handle's position, so
    it holds exactly the bytes written. Other targets (``os.devnull``, a
    pipe) cannot be truncated and are left as they are."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline=newline) as handle:
        try:
            yield handle
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()


def dump_json(obj, handle):
    """The one JSON encoding of reports, for files and stdout alike."""
    json.dump(obj, handle, indent=2)
    handle.write("\n")


def write_json(obj, path):
    with _rewrite(path) as handle:
        dump_json(obj, handle)


@dataclass(frozen=True)
class Campaign:
    """A validated campaign: geometry, mean readings, noise model, units."""

    geometry: AnnulusGeometry
    measurements: np.ndarray
    meas: MeasurementDistribution
    units: str = "K"


def campaign_from_dict(doc) -> Campaign:
    """Build a Campaign from a parsed JSON document, validating throughout."""
    _validate_schema(doc, CAMPAIGN_SCHEMA, "campaign")
    geo = doc["geometry"]
    try:
        geometry = AnnulusGeometry(
            np.asarray(geo["theta_deg"], dtype=float),
            np.asarray(geo["r_stations"], dtype=float),
            float(geo["r_inner"]),
            float(geo["r_outer"]),
        )
    except RakeUqError as exc:
        raise SchemaError(str(exc), field="geometry") from None
    try:
        B = _readings(doc["measurements"], "measurements", geometry)
    except RakeUqError as exc:
        raise SchemaError(str(exc), field="measurements") from None
    unc = doc["uncertainty"]
    try:
        if "iid" in unc:
            meas = MeasurementDistribution.from_iid(B, float(unc["iid"]["sigma_b"]))
        elif "diagonal" in unc:
            meas = MeasurementDistribution.from_diagonal(B, unc["diagonal"]["sigma"])
        else:
            block = unc["correlation"]
            meas = MeasurementDistribution.from_correlation(B, block["sigma"], block["rho"])
    except RakeUqError as exc:
        raise SchemaError(str(exc), field="uncertainty") from None
    return Campaign(geometry, B, meas, doc.get("units", "K"))


def load_campaign(path) -> Campaign:
    return campaign_from_dict(read_json(path))


def load_station_state(path):
    """Read an efficiency state file into a StationState."""
    from .efficiency import PARAM_NAMES, StationState

    doc = read_json(path)
    _validate_schema(doc, STATION_STATE_SCHEMA, "state")
    z = np.array([doc["means"][name] for name in PARAM_NAMES], dtype=float)
    sigma = np.array([doc["sigmas"][name] for name in PARAM_NAMES], dtype=float)
    rho = np.asarray(doc["rho"], dtype=float) if "rho" in doc else None
    try:
        return StationState(z, sigma, rho)
    except RakeUqError as exc:
        raise SchemaError(str(exc), field="state") from None


def load_budget(path):
    """Read a budget file: its (label, value) components in file order, each
    value a float, plus the raw samples or None."""
    doc = read_json(path)
    _validate_schema(doc, BUDGET_SCHEMA, "budget")
    components = [(c["label"], float(c["value"])) for c in doc["components"]]
    samples = np.asarray(doc["samples"], dtype=float) if "samples" in doc else None
    return components, samples


def provenance() -> dict:
    return {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def assert_finite(obj, path: str = "report"):
    """Reports must not carry NaN or infinities; fail loudly if one appears."""
    bad = _non_finite_path(obj, path)
    if bad is not None:
        raise RakeUqError(f"non-finite value at {bad}")


def build_report(
    model: FourierModel,
    coeffs: CoefficientMatrix,
    metrics,
    area,
    *,
    legacy_block: dict,
    predictive_block: dict,
    units: str = "K",
) -> dict:
    """Assemble the JSON uncertainty report for one fitted campaign.

    ``legacy_block`` and ``predictive_block`` are the report's ``legacy``
    and ``predictive`` entries, written as given after the fit, metrics,
    area average, units and provenance.
    """
    n_meas = model.n_rakes * model.n_stations
    report = {
        "fit": {
            "omega": list(model.harmonics.omega),
            "lambda": float(coeffs.lambda_used),
            # null where A^T A is numerically singular and cond is inf, and
            # where beta is inf (the guard is off)
            "cond_AtA": None if model.P is None else float(model.cond_AtA),
            "beta": None if math.isinf(model.beta) else float(model.beta),
            "coefficient_norm": coeffs.spectral_norm,
        },
        "metrics": {
            "eps_p_sq": metrics.eps_p_sq,
            "eps_m_sq": metrics.eps_m_sq,
            "mean_eps_p_sq": metrics.mean_eps,
            "var_eps_p_sq": metrics.var_eps,
            "method": "analytic",
            "metric_divisor": n_meas - 1,
            "moment_divisor": n_meas,
        },
        "area_average": {
            "mean": area.mean,
            "variance": area.variance,
            "two_sigma": area.two_sigma,
        },
        "units": units,
        "provenance": provenance(),
        "legacy": legacy_block,
        "predictive": predictive_block,
    }
    if metrics.chi2 is not None:
        report["metrics"]["g"] = int(metrics.chi2.g)
        report["metrics"]["phi"] = float(metrics.chi2.phi)
    assert_finite(report)
    return report


def coefficients_to_dict(model: FourierModel, coeffs: CoefficientMatrix) -> dict:
    return {
        "omega": list(model.harmonics.omega),
        "lambda": float(coeffs.lambda_used),
        "theta_deg": model.geometry.theta_deg.tolist(),
        "r_stations": model.geometry.r_stations.tolist(),
        "X": coeffs.X.tolist(),
    }


def write_csv(path, header, rows):
    """Write a header and rows; floats are written with repr, so they round-trip."""
    with _rewrite(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
