"""The repo-level schemas/ directory mirrors the packaged schemas, and each
is a valid draft 2020-12 schema."""

import json
from importlib import resources
from pathlib import Path

import pytest

TOP = Path(__file__).parents[1] / "schemas"
NAMES = ["request.schema.json", "report.schema.json",
         "sample.schema.json", "map.schema.json"]


@pytest.mark.parametrize("name", NAMES)
def test_top_level_schema_matches_packaged(name):
    packaged = resources.files("picklab.schemas").joinpath(name).read_bytes()
    assert (TOP / name).read_bytes() == packaged


@pytest.mark.parametrize("name", NAMES)
def test_schema_is_valid_draft_2020_12(name):
    # checked once here, not on every request
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((TOP / name).read_text())
    assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator
    jsonschema.validators.validator_for(schema).check_schema(schema)
