"""Metrics records against docs/metrics_record.schema.json."""

import json
from pathlib import Path

import numpy as np
import pytest

from tglink import transfer
from tglink.transfer import SCENARIO_KINDS, MetricsRecord, TrainConfig, TransferScenario, fit, run_transfer

from helpers import TINY_CONFIG, random_stream

SCHEMA = json.loads((Path(__file__).parents[1] / "docs" / "metrics_record.schema.json").read_text())
ANNOTATIONS = {"$schema", "title", "description"}
KEYWORDS = {
    "type", "properties", "required", "additionalProperties", "items", "prefixItems",
    "enum", "minimum", "maximum", "exclusiveMinimum",
}
NUMBER = (int, float)
TYPES = {"object": dict, "array": list, "string": str, "null": type(None), "boolean": bool}


def _has_type(value, name: str) -> bool:
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if name == "number":
        return isinstance(value, NUMBER)
    return isinstance(value, TYPES[name])


def schema_errors(value, schema: dict, path: str = "$") -> list[str]:
    """Violations of `schema` by `value`, for the keywords in KEYWORDS (draft 2020-12)."""
    names = schema.get("type")
    if names is not None:
        names = [names] if isinstance(names, str) else names
        if not any(_has_type(value, n) for n in names):
            return [f"{path}: {value!r} is not of type {names}"]
    errors = []
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if isinstance(value, NUMBER) and not isinstance(value, bool):
        if "minimum" in schema and not value >= schema["minimum"]:
            errors.append(f"{path}: {value!r} < minimum {schema['minimum']}")
        if "maximum" in schema and not value <= schema["maximum"]:
            errors.append(f"{path}: {value!r} > maximum {schema['maximum']}")
        if "exclusiveMinimum" in schema and not value > schema["exclusiveMinimum"]:
            errors.append(f"{path}: {value!r} <= exclusiveMinimum {schema['exclusiveMinimum']}")
    if isinstance(value, dict):
        errors += [f"{path}: missing {k!r}" for k in schema.get("required", []) if k not in value]
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, extra)
            if sub is False:
                errors.append(f"{path}: unexpected property {key!r}")
            elif isinstance(sub, dict):
                errors += schema_errors(item, sub, f"{path}.{key}")
    if isinstance(value, list):
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                errors += schema_errors(item, sub, f"{path}[{i}]")
    return errors


def as_written(record: MetricsRecord) -> dict:
    """The record as its JSON file holds it."""
    return json.loads(json.dumps(record.to_dict()))


@pytest.fixture(scope="module")
def records() -> dict[str, MetricsRecord]:
    """One record per scenario kind, and the validation record `fit` keeps per epoch."""
    rng = np.random.default_rng(0)
    train = random_stream(rng, 12, 150, span=50.0)
    val = random_stream(rng, 8, 60, span=20.0)
    test = random_stream(rng, 10, 120, span=40.0)
    seen = []
    original = transfer.evaluate_stream

    def keeping(*args, **kwargs):
        seen.append(args[6])
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "evaluate_stream", keeping)
        trained = fit(train, val, TINY_CONFIG, TrainConfig(batch_size=25, epochs=2), seed=4)
    out = {"validation": seen[-1]}
    for kind in SCENARIO_KINDS:
        out[kind] = run_transfer(trained, test, TransferScenario(kind), seed=4, batch_size=30)
    return out


def test_schema_uses_only_checked_keywords():
    def walk(schema):
        assert set(schema) <= KEYWORDS | ANNOTATIONS, set(schema) - KEYWORDS - ANNOTATIONS
        for sub in [*schema.get("properties", {}).values(), *schema.get("prefixItems", [])]:
            walk(sub)
        for key in ("items", "additionalProperties"):
            if isinstance(schema.get(key), dict):
                walk(schema[key])

    walk(SCHEMA)


@pytest.mark.parametrize("kind", ("validation",) + SCENARIO_KINDS)
def test_record_matches_schema(records, kind):
    record = as_written(records[kind])
    assert record["scenario"] == kind
    assert schema_errors(record, SCHEMA) == []


def test_validator_reports_violations(records):
    good = as_written(records["warm_start"])
    cases = {
        "missing": {k: v for k, v in good.items() if k != "mrr"},
        "enum": {**good, "scenario": "cold"},
        "exclusiveMinimum": {**good, "mrr": 0.0},
        "maximum": {**good, "hits": {"1": 1.5}},
        "type": {**good, "seed": "4"},
        "items": {**good, "batch_tlp_loss": [0.5, None]},
        "prefixItems": {**good, "eval_event_range": [0, 2.5]},
        "minimum": {**good, "cold_starts": -1},
    }
    for keyword, bad in cases.items():
        assert len(schema_errors(bad, SCHEMA)) == 1, keyword
