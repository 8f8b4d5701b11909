"""picklab's schema validator against jsonschema's draft 2020-12 validator.

jsonschema is the reference here only; picklab itself does not import it.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from picklab import cli

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
REFERENCE = {name: jsonschema.Draft202012Validator(
                 json.loads((ROOT / "schemas" / name).read_text()))
             for name in ("request.schema.json", "map.schema.json",
                          "report.schema.json", "sample.schema.json")}

# values spliced into documents: every JSON type, bool next to 0 and 1,
# integral and non-integral floats, negatives, and near-miss shapes
POOL = [True, False, None, 0, 1, -1, 1.0, 2.5, -1.5, 10**20, "auto", "1", "x",
        "disk.fov", [], {}, [1.0, 2.0], [1.0, 2.0, 3.0], [[]], [[[1.0, 0.0]]],
        {"a": 1}]
KEYS = ["extra", "tol", "max_iter", "seed", "options", "basis_dim", "values"]


def _accepts(doc, schema_name):
    try:
        cli.validate_document(doc, schema_name)
    except cli.ValidationError:
        return False
    return True


def _agrees(doc, schema_name):
    return _accepts(doc, schema_name) == REFERENCE[schema_name].is_valid(doc)


def _fixtures():
    for f in sorted(FIXTURES.glob("*.json")):
        name = "map.schema.json" if f.name.startswith("map_") else "request.schema.json"
        yield f.name, name, json.loads(f.read_text())


def _nodes(x, path=()):
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _mutate(doc, rng):
    """Replace, delete, add or duplicate one to three values of a copy of doc."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice([1, 1, 2, 3])):
        path = rng.choice(list(_nodes(doc))[1:])
        parent = doc
        for p in path[:-1]:
            parent = parent[p]
        key, r = path[-1], rng.random()
        if r < 0.6:
            parent[key] = copy.deepcopy(rng.choice(POOL))
        elif r < 0.75:
            del parent[key]
        elif isinstance(parent, dict):
            parent[rng.choice(KEYS)] = copy.deepcopy(rng.choice(POOL))
        else:
            parent.append(copy.deepcopy(parent[key]))
    return doc


@pytest.mark.parametrize("fixture,schema_name,doc", list(_fixtures()),
                         ids=[f for f, _, _ in _fixtures()])
def test_agrees_with_jsonschema_on_mutations(fixture, schema_name, doc):
    assert _accepts(doc, schema_name)
    rng = random.Random(fixture)
    rejected = 0
    for _ in range(300):
        bad = _mutate(doc, rng)
        assert _agrees(bad, schema_name), json.dumps(bad)
        rejected += not _accepts(bad, schema_name)
    assert rejected > 100


def test_agrees_on_emitted_reports_and_samples(capsys):
    docs = []
    for argv in (["check", str(FIXTURES / "disk_fov_feasible.json"), "--emit-pick"],
                 ["check", str(FIXTURES / "quiver_qltoa_two_vertex.json")],
                 ["agler", str(FIXTURES / "agler_forced_infeasible.json"),
                  "--embed-certificate"]):
        cli.main(argv)
        docs.append(("report.schema.json", json.loads(capsys.readouterr().out)))
    for kind in (["disk.poly", "--rows", "2"], ["ball.poly", "--letters", "2"]):
        cli.main(["sample", "--kind", *kind, "--degree", "2"])
        docs.append(("sample.schema.json", json.loads(capsys.readouterr().out)))
    rng = random.Random(0)
    for schema_name, doc in docs:
        assert _accepts(doc, schema_name)
        for _ in range(100):
            bad = _mutate(doc, rng)
            assert _agrees(bad, schema_name), json.dumps(bad)


def _with(path, value):
    """The feasible bidisk request with the value at `path` set to `value`."""
    doc = json.loads((FIXTURES / "agler_bidisk_feasible.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("path,value,error_path", [
    (("options", "max_iter"), True, "/options/max_iter"),
    (("options", "max_iter"), 1.0, None),
    (("options", "max_iter"), 0, "/options/max_iter"),
    (("options", "tol"), -1, "/options/tol"),
    (("options", "tol"), "auto", None),
    (("options", "tol"), True, "/options/tol"),
    (("extra",), 1, "/"),
    (("schema_version",), 1, "/schema_version"),
    (("payload", "values", 0), [0.0, 0.0, 0.0], "/payload/values/0"),
    (("payload", "values", 0), [True, 0.0], "/payload/values/0/0"),
    (("payload", "points"), [], "/payload/points"),
], ids=["true-integer", "float-integer", "below-minimum", "negative-tol",
        "auto-tol", "true-tol", "extra-key", "integer-const", "3-complex",
        "bool-number", "empty-list"])
def test_edge_cases(path, value, error_path):
    doc = _with(path, value)
    assert REFERENCE["request.schema.json"].is_valid(doc) == (error_path is None)
    if error_path is None:
        cli.validate_document(doc, "request.schema.json")
    else:
        with pytest.raises(cli.ValidationError) as err:
            cli.validate_document(doc, "request.schema.json")
        assert err.value.path == error_path


def test_empty_matrix_is_refused():
    doc = json.loads((FIXTURES / "disk_fov_feasible.json").read_text())
    for empty in ([], [[]]):
        doc["payload"]["values"][0] = empty
        assert not REFERENCE["request.schema.json"].is_valid(doc)
        with pytest.raises(cli.ValidationError):
            cli.validate_document(doc, "request.schema.json")


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"a": {"oneOf": [{"type": "string"}]}}},
    {"items": {"$ref": "#/$defs/missing"}},
    {"$ref": "other.json#/x"},
    {"type": "float"},
    {"if": {"type": "object"}, "then": {}, "else": {}},
])
def test_unsupported_schema_is_refused(schema):
    with pytest.raises(ValueError):
        cli._check_keywords(schema, schema.get("$defs", {}))
