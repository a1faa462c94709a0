"""The schema walker against jsonschema, a test-only oracle.

Each case breaks one thing in a valid campaign, station-state or budget
document. The walker must name the field that jsonschema's best match names,
and the CLI must exit 2 on the file.
"""

import copy
import json

import pytest

import rakeuq.io as io
from rakeuq import SchemaError
from rakeuq.cli import main

jsonschema = pytest.importorskip("jsonschema")

GEOMETRY = {"theta_deg": [0.0, 120.0, 240.0], "r_stations": [0.25, 0.75], "r_inner": 0.45, "r_outer": 0.75}
READINGS = [[500.0, 501.0], [502.0, 503.0], [504.0, 505.0]]


def identity(n):
    return [[float(i == j) for j in range(n)] for i in range(n)]


CAMPAIGNS = {
    "iid": {"geometry": GEOMETRY, "measurements": READINGS,
            "uncertainty": {"iid": {"sigma_b": 0.5}}, "units": "K"},
    "diagonal": {"geometry": GEOMETRY, "measurements": READINGS,
                 "uncertainty": {"diagonal": {"sigma": [0.5] * 6}}},
    "correlation": {"geometry": GEOMETRY, "measurements": READINGS,
                    "uncertainty": {"correlation": {"sigma": [0.5] * 6, "rho": identity(6)}}},
}
PARAMS = ("T01", "T02", "P01", "P02", "gamma")
STATE = {
    "means": dict(zip(PARAMS, (1000.0, 800.0, 8e5, 2e5, 1.4))),
    "sigmas": dict(zip(PARAMS, (2.0, 2.0, 500.0, 500.0, 0.001))),
    "rho": identity(5),
}
BUDGET = {"components": [{"label": "probe", "value": 1.0}, {"label": "spatial", "value": 2.0}],
          "samples": [1.0, 2.0, 3.0]}

DELETE = object()

# (base document, path, new value or DELETE); the path () replaces the document
CAMPAIGN_FAULTS = [
    ("iid", (), []),
    ("iid", (), None),
    ("iid", ("geometry",), DELETE),
    ("iid", ("extra",), 1),
    ("iid", ("units",), 5),
    ("iid", ("geometry",), [0.0]),
    ("iid", ("geometry", "r_outer"), DELETE),
    ("iid", ("geometry", "r_max"), 1.0),
    ("iid", ("geometry", "r_inner"), "0.45"),
    ("iid", ("geometry", "r_inner"), True),
    ("iid", ("geometry", "theta_deg"), "0, 120, 240"),
    ("iid", ("geometry", "theta_deg"), []),
    ("iid", ("geometry", "theta_deg", 1), True),
    ("iid", ("geometry", "r_stations", 0), None),
    ("iid", ("measurements",), {}),
    ("iid", ("measurements",), []),
    ("iid", ("measurements", 1), 500.0),
    ("iid", ("measurements", 1), []),
    ("iid", ("measurements", 0, 0), True),
    ("iid", ("measurements", 2, 1), "505"),
    ("iid", ("uncertainty",), "iid"),
    ("iid", ("uncertainty",), {}),
    ("iid", ("uncertainty", "diagonal"), {"sigma": [0.5] * 6}),
    ("iid", ("uncertainty",), {"gaussian": {"sigma_b": 0.5}}),
    ("iid", ("uncertainty", "iid"), [0.5]),
    ("iid", ("uncertainty", "iid", "sigma_b"), DELETE),
    ("iid", ("uncertainty", "iid", "sigma"), 0.5),
    ("iid", ("uncertainty", "iid", "sigma_b"), True),
    ("iid", ("uncertainty", "iid", "sigma_b"), "0.5"),
    ("iid", ("uncertainty", "iid", "sigma_b"), -0.1),
    ("diagonal", ("uncertainty", "diagonal", "sigma"), []),
    ("diagonal", ("uncertainty", "diagonal", "sigma", 3), True),
    ("diagonal", ("uncertainty", "diagonal", "sigma"), DELETE),
    ("correlation", ("uncertainty", "correlation", "rho"), DELETE),
    ("correlation", ("uncertainty", "correlation", "rho"), [[]]),
    ("correlation", ("uncertainty", "correlation", "rho", 2), 1.0),
    ("correlation", ("uncertainty", "correlation", "rho", 2, 2), "1"),
    ("correlation", ("uncertainty", "correlation", "extra"), []),
]
STATE_FAULTS = [
    ((), []),
    ((), None),
    (("sigmas",), DELETE),
    (("extra",), {}),
    (("means",), [1000.0]),
    (("means", "T01"), DELETE),
    (("means", "T03"), 1.0),
    (("means", "P01"), True),
    (("means", "gamma"), "1.4"),
    (("sigmas", "T02"), -1.0),
    (("sigmas", "gamma"), True),
    (("rho",), []),
    (("rho", 1), 0.0),
    (("rho", 1, 0), "0"),
]
BUDGET_FAULTS = [
    ((), []),
    ((), None),
    (("components",), DELETE),
    (("extra",), 1),
    (("components",), []),
    (("components",), {}),
    (("components", 0), "probe"),
    (("components", 0, "value"), DELETE),
    (("components", 0, "unit"), "K"),
    (("components", 0, "label"), 5),
    (("components", 1, "value"), -1.0),
    (("components", 1, "value"), True),
    (("samples",), []),
    (("samples",), [1.0]),
    (("samples", 1), True),
    (("samples", 2), "3"),
]


def mutate(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def oracle_field(doc, schema, what):
    errors = list(jsonschema.Draft202012Validator(schema).iter_errors(doc))
    assert len(errors) == 1, [e.message for e in errors]  # one fault per case
    return ".".join(map(str, jsonschema.exceptions.best_match(errors).absolute_path)) or what


def walker_field(doc, schema, what):
    with pytest.raises(SchemaError) as err:
        io._validate_schema(doc, schema, what)
    return err.value.field


def case_id(path, value):
    shown = "delete" if value is DELETE else json.dumps(value)[:20]
    return ".".join(map(str, path)) + "=" + shown


def test_valid_documents_pass_both():
    cases = [(doc, io.CAMPAIGN_SCHEMA) for doc in CAMPAIGNS.values()]
    cases += [(STATE, io.STATION_STATE_SCHEMA), (BUDGET, io.BUDGET_SCHEMA)]
    for doc, schema in cases:
        assert list(jsonschema.Draft202012Validator(schema).iter_errors(doc)) == []
        io._validate_schema(doc, schema, "doc")


@pytest.mark.parametrize(
    "base, path, value", CAMPAIGN_FAULTS, ids=[f"{b}:{case_id(p, v)}" for b, p, v in CAMPAIGN_FAULTS]
)
def test_campaign_fault_named_like_jsonschema(tmp_path, capsys, base, path, value):
    doc = mutate(CAMPAIGNS[base], path, value)
    field = oracle_field(doc, io.CAMPAIGN_SCHEMA, "campaign")
    assert walker_field(doc, io.CAMPAIGN_SCHEMA, "campaign") == field
    file = tmp_path / "campaign.json"
    file.write_text(json.dumps(doc))
    assert main(["fit", str(file), "--harmonics", "1"]) == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("path, value", STATE_FAULTS, ids=[case_id(p, v) for p, v in STATE_FAULTS])
def test_station_state_fault_named_like_jsonschema(tmp_path, capsys, path, value):
    doc = mutate(STATE, path, value)
    field = oracle_field(doc, io.STATION_STATE_SCHEMA, "state")
    assert walker_field(doc, io.STATION_STATE_SCHEMA, "state") == field
    file = tmp_path / "state.json"
    file.write_text(json.dumps(doc))
    assert main(["efficiency", str(file), "--output", str(tmp_path / "eta.json")]) == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("path, value", BUDGET_FAULTS, ids=[case_id(p, v) for p, v in BUDGET_FAULTS])
def test_budget_fault_named_like_jsonschema(tmp_path, capsys, path, value):
    doc = mutate(BUDGET, path, value)
    field = oracle_field(doc, io.BUDGET_SCHEMA, "budget")
    assert walker_field(doc, io.BUDGET_SCHEMA, "budget") == field
    file = tmp_path / "budget.json"
    file.write_text(json.dumps(doc))
    assert main(["legacy", str(file), "--output", str(tmp_path / "total.json")]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
