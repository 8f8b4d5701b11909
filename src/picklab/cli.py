"""JSON command-line front end: one request pipeline per invocation.

Read, validate, run, envelope, emit.  One reader parses every JSON input
file and one step checks it against its schema (a failure is a data error
at its JSON pointer); one writer writes every output file (--out,
--emit-certificate), and a path it cannot write is a data error too.
`check` and `agler` share one decide path through one table, setting ->
(module, entry point, payload fields), whose fields are decoded by the
types the request schema gives them; only the result step differs.  Every
subcommand returns (document, exit code), and `main` prints the one
document, error documents included; diagnostics go to stderr only.  Exit
codes: 0 feasible, 1 infeasible / verified Farkas witness, 2 unknown or
budget exceeded, 64 usage error, 65 data error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import numbers
import reprlib
import sys
import time
from importlib import import_module, resources

import numpy as np

from . import config, matcore
from . import serialize as ser
from .errors import ArgumentError, BudgetError, PicklabError


EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65

_REPORT_VERSION = "1"


class ValidationError(PicklabError, ValueError):
    """A document fails its schema; `path` is the JSON pointer of the
    failing value ("/" for the document itself)."""

    def __init__(self, message, path):
        super().__init__(message)
        self.path = path


# Draft 2020-12 types: bool is not a number, and 1.0 is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}
_KEYWORDS = frozenset({
    "type", "required", "properties", "additionalProperties", "const", "enum",
    "anyOf", "allOf", "if", "then", "minimum", "maximum", "items", "minItems",
    "maxItems", "$ref"})
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "$defs"})
_DEFS = "#/$defs/"


def _check_keywords(schema, defs) -> None:
    """Refuse a schema that uses anything :func:`_errors` does not implement."""
    if isinstance(schema, bool):
        return
    unknown = schema.keys() - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise ValueError(f"unsupported schema keywords {sorted(unknown)}")
    types = schema.get("type", [])
    if set([types] if isinstance(types, str) else types) - _TYPES.keys():
        raise ValueError(f"unsupported schema type {types!r}")
    ref = schema.get("$ref")
    if ref is not None and not (ref.startswith(_DEFS) and ref[len(_DEFS):] in defs):
        raise ValueError(f"unsupported schema reference {ref!r}")
    subschemas = [*schema.get("properties", {}).values(),
                  *schema.get("$defs", {}).values(),
                  *schema.get("anyOf", []), *schema.get("allOf", []),
                  *(schema[k] for k in ("additionalProperties", "items", "if", "then")
                    if k in schema)]
    for sub in subschemas:
        _check_keywords(sub, defs)


def _json_equal(a, b) -> bool:
    """JSON equality: true != 1, 1 == 1.0, recursively."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def _errors(inst, schema, defs, path=()):
    """Yield (path, message) for each failure of `inst` under `schema`, in
    keyword order; keywords that do not apply to its type are skipped."""
    if schema is False:
        yield path, "no value is allowed here"
    if isinstance(schema, bool):
        return
    for key, arg in schema.items():
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_TYPES[t](inst) for t in types):
                yield path, f"{reprlib.repr(inst)} is not of type {' or '.join(types)}"
        elif key in ("const", "enum"):
            allowed = [arg] if key == "const" else arg
            if not any(_json_equal(inst, a) for a in allowed):
                yield path, f"{reprlib.repr(inst)} is not one of {allowed!r}"
        elif key == "$ref":
            yield from _errors(inst, defs[arg[len(_DEFS):]], defs, path)
        elif key == "allOf":
            for sub in arg:
                yield from _errors(inst, sub, defs, path)
        elif key == "anyOf":
            if all(_fails(inst, sub, defs) for sub in arg):
                yield path, (f"{reprlib.repr(inst)} is not valid under any of "
                             f"the given schemas")
        elif key == "if":
            if not _fails(inst, arg, defs):
                yield from _errors(inst, schema.get("then", True), defs, path)
        elif isinstance(inst, dict):
            if key == "required":
                for name in arg:
                    if name not in inst:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in arg.items():
                    if name in inst:
                        yield from _errors(inst[name], sub, defs, path + (name,))
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                for name in [name for name in inst if name not in known]:
                    if arg is False:
                        yield path, f"additional property {name!r} is not allowed"
                    else:
                        yield from _errors(inst[name], arg, defs, path + (name,))
        elif isinstance(inst, list):
            if key == "items":
                for i, item in enumerate(inst):
                    yield from _errors(item, arg, defs, path + (i,))
            elif key == "minItems" and len(inst) < arg:
                yield path, f"{reprlib.repr(inst)} has fewer than {arg} items"
            elif key == "maxItems" and len(inst) > arg:
                yield path, f"{reprlib.repr(inst)} has more than {arg} items"
        elif _TYPES["number"](inst):
            if key == "minimum" and inst < arg:
                yield path, f"{reprlib.repr(inst)} is less than the minimum of {arg}"
            elif key == "maximum" and inst > arg:
                yield path, f"{reprlib.repr(inst)} is greater than the maximum of {arg}"


def _fails(inst, schema, defs) -> bool:
    return next(_errors(inst, schema, defs), None) is not None


@functools.lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    """A packaged schema, loaded once and checked to use only the keywords
    :func:`_errors` implements."""
    with resources.files("picklab.schemas").joinpath(name).open("rb") as fh:
        schema = json.load(fh)
    _check_keywords(schema, schema.get("$defs", {}))
    return schema


def _validate(inst, schema, defs, path=()) -> None:
    """Raise ValidationError for the shallowest failure of `inst`, the first
    in keyword order among equals; `path` is where `inst` sits."""
    errors = list(_errors(inst, schema, defs, path))
    if errors:
        path, message = min(errors, key=lambda e: len(e[0]))
        raise ValidationError(message, "/" + "/".join(map(str, path)))


def validate_document(doc: dict, schema_name: str) -> None:
    """Raise ValidationError if `doc` fails the packaged schema `schema_name`
    (JSON Schema draft 2020-12 semantics for the keywords the packaged
    schemas use).  Of several failures the shallowest is reported, the
    first in keyword order among equals."""
    schema = _schema(schema_name)
    _validate(doc, schema, schema.get("$defs", {}))


def _clean_float(x):
    return None if x is None else float(x)


class _Usage(Exception):
    pass


class _DataError(Exception):
    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


def _read_json(path: str, what: str, malformed: str = ""):
    """(document, raw bytes) of the JSON input file at `path`.  A data error
    at `path` if the file cannot be read ("cannot read {what}") or parsed
    (`malformed`, by default the same)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _DataError(f"cannot read {what}: {exc}", path)
    try:
        return json.loads(raw), raw
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bad bytes
        raise _DataError(f"{malformed or f'cannot read {what}'}: {exc}", path)


def _write_json(path: str, doc, what: str) -> None:
    """Write `doc` as one line of sorted-key JSON to `path`; a data error at
    `path` ("cannot write {what}") if the file cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    except OSError as exc:
        raise _DataError(f"cannot write {what}: {exc}", path)


def _conform(inst, schema, defs, failure: str, path=()) -> None:
    """A data error "{failure}: ..." at the JSON pointer of the failing
    value if `inst`, found at `path`, fails `schema`."""
    try:
        _validate(inst, schema, defs, path)
    except ValidationError as exc:
        raise _DataError(f"{failure}: {exc}", exc.path)


def _read_request(path: str):
    doc, raw = _read_json(path, "input", "malformed JSON")
    if not isinstance(doc, dict) or "setting" not in doc:
        raise _DataError("request must be an object with a 'setting' field", path)
    if isinstance(doc["setting"], str) and doc["setting"] not in _SETTINGS:
        raise _Usage(f"unknown setting {doc['setting']!r}")
    schema = _schema("request.schema.json")
    _conform(doc, schema, schema["$defs"], "request does not validate")
    return doc, raw


def _options(doc: dict, args) -> dict:
    """The request's options, overridden by the flags given on the command
    line.  The merged options are checked against the request schema's
    `options`, so a flag gets the checks a request file gets; a number must
    also be finite (Python's JSON reader accepts NaN and Infinity)."""
    opts = dict(doc.get("options") or {})
    for name in ("tol", "max_level", "max_iter", "seed", "literal_unweighted"):
        value = getattr(args, name, None)
        if value is not None and value is not False:
            opts[name] = value
    schema = _schema("request.schema.json")
    _conform(opts, schema["properties"]["options"], schema["$defs"],
             "options do not validate", ("options",))
    for name, value in opts.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise _DataError(f"options do not validate: {value!r} is not a "
                             f"finite number", f"/options/{name}")
    opts.setdefault("tol", "auto")
    return opts


def _series_budget(opts, per_level: int) -> int:
    budget = config.work_budget()
    if "max_level" in opts:
        budget = min(budget, int(opts["max_level"]) * per_level)
    return budget


_LT = ("points", "directions", "targets")
_OA = ("operator_points", "directions", "targets")
_RD = ("operator_points", "values", "basis_dim")

# setting -> (module, entry point, payload fields in argument order)
_SETTINGS = {
    "disk.fov": ("disk", "pick_fov", ("points", "values")),
    "disk.lt": ("disk", "pick_lt", _LT),
    "disk.rt": ("disk", "pick_rt", _LT),
    "disk.ltoa": ("disk", "pick_ltoa", _OA),
    "disk.rtoa": ("disk", "pick_rtoa", _OA),
    "disk.frd": ("disk", "pick_frd", _RD),
    "disk.ltrd": ("disk", "pick_ltrd", _OA + ("basis_dim",)),
    "disk.rtrd": ("disk", "pick_rtrd", _OA + ("basis_dim",)),
    "disk.nevanlinna_rd": ("disk", "nevanlinna_rd_check", ("operator_point", "value")),
    "ball.da_fov": ("ball", "pick_da_fov", ("points", "values")),
    "ball.da_lt": ("ball", "pick_da_lt", _LT),
    "ball.da_ltoa": ("ball", "pick_da_ltoa", _OA),
    "ball.nc_ltoa": ("ball", "pick_nc_ltoa", _OA),
    "ball.nc_frd": ("ball", "pick_nc_frd", _RD),
    "ball.nc_frd_star": ("ball", "pick_nc_frd_star", _RD),
    "quiver.qltt": ("quiver", "pick_qltt", ("quiver", "y_dims") + _LT),
    "quiver.qltrd": ("quiver", "pick_qltrd", ("quiver",) + _LT + ("basis_dim",)),
    "quiver.qltoa": ("quiver", "pick_qltoa", ("quiver",) + _LT),
    "polydisk.agler_scalar": ("agler", "scalar_problem", ("points", "values")),
    "polydisk.agler_ltoa": ("agler", "nc_ltoa_problem", _OA),
    "polydisk.agler_nc_rd": ("agler", "nc_rd_problem", _RD),
}


@functools.lru_cache(maxsize=None)
def _field_types() -> dict:
    """setting -> {payload field: its $defs type, "" if given inline}, from
    the request schema's rules "if setting in enum, then payload.properties"."""
    types = {}
    for rule in _schema("request.schema.json")["allOf"]:
        props = rule["then"]["properties"]["payload"]["properties"]
        fields = {name: sub.get("$ref", _DEFS)[len(_DEFS):]
                  for name, sub in props.items()}
        for setting in rule["if"]["properties"]["setting"]["enum"]:
            types[setting] = fields
    return types


_DECODERS = {
    "complexList": lambda obj: [ser.complex_from_json(z) for z in obj],
    "vectorList": lambda obj: [[ser.complex_from_json(z) for z in row] for row in obj],
    "matrix": ser.matrix_from_json,
    "matrixList": ser.matrices_from_json,
    "tupleList": lambda obj: [ser.matrices_from_json(t) for t in obj],
    "blockFamilyList": lambda obj: [{k: ser.matrix_from_json(M) for k, M in D.items()}
                                    for D in obj],
}


def _call(setting: str, payload: dict, opts: dict):
    """Decode `payload` by the field types of `setting` and call its entry
    point.  A quiver field is passed as (Quiver, Grading), y_dims as a
    Grading and quiver points as QuiverPoints.  Criteria also get the
    tolerance, and those that sum over several arrows the work budget."""
    module, function, fields = _SETTINGS[setting]
    entry = getattr(import_module(f".{module}", __package__), function)
    types = _field_types()[setting]
    args, kwargs = [], {}
    for name in fields:
        obj = payload.get(name)
        if name == "quiver":
            G = ser.quiver_from_json(obj)
            args += [G, ser.grading_from_json(G, obj["dims"])]
            kwargs["budget"] = _series_budget(opts, len(G.arrows))
        elif name == "y_dims":
            args.append(ser.grading_from_json(G, obj))
        elif module == "quiver" and name == "points":
            kind = "operator_argument" if setting == "quiver.qltoa" else "tensor"
            args.append([ser.quiver_point_from_json(kind, p) for p in obj])
        else:
            args.append(_DECODERS.get(types[name], lambda x: x)(obj))
    if module == "ball" and types[fields[0]] == "tupleList":
        kwargs["budget"] = _series_budget(opts, len(args[0][0]))
    if setting == "ball.da_ltoa":
        kwargs["literal_unweighted"] = bool(opts.get("literal_unweighted", False))
    if module != "agler":
        kwargs["tol"] = opts["tol"] if opts["tol"] == "auto" else float(opts["tol"])
    return entry(*args, **kwargs)


_VERDICT_EXIT = {"feasible": EXIT_FEASIBLE, "infeasible": EXIT_INFEASIBLE,
                 "feasible_with_certificate": EXIT_FEASIBLE,
                 "infeasible_evidence": EXIT_INFEASIBLE}


def _error(exc, code: str) -> dict:
    """The error object of an error document or of a budget report."""
    error = {"code": code, "message": str(exc),
             "path": exc.path if isinstance(exc, _DataError) else None}
    if isinstance(exc, BudgetError):
        error["achieved_bound"] = _clean_float(exc.achieved_bound)
    return error


def _check_fields(result, opts, args):
    """Verdict and report fields of one FeasibilityReport, or of the
    per-vertex family of quiver.qltt (feasible iff every vertex is; the
    worst vertex speaks)."""
    reps = result if isinstance(result, dict) else {None: result}
    worst = min(reps.values(), key=lambda r: r.min_eigenvalue)
    fields = {"min_eigenvalue": _clean_float(worst.min_eigenvalue),
              "tail_bound": float(max(r.tail_bound for r in reps.values())),
              "tolerance_used": float(worst.verdict.tolerance_used),
              "method": worst.method}
    if isinstance(result, dict):
        fields["vertex_verdicts"] = {
            v: {"feasible": r.verdict.is_psd,
                "min_eigenvalue": _clean_float(r.min_eigenvalue),
                "tail_bound": float(r.tail_bound)}
            for v, r in result.items()}
    elif args.emit_pick:
        fields["pick_matrix"] = ser.matrix_to_json(result.pick)
    return ("feasible" if all(r.feasible for r in reps.values()) else "infeasible",
            fields)


def _agler_fields(problem, opts, args):
    """Verdict and report fields of the Agler solve of `problem`; a
    certificate goes to --emit-certificate and, with --embed-certificate,
    into the report."""
    from . import agler

    tol = agler.DEFAULT_TOL if opts["tol"] == "auto" else float(opts["tol"])
    max_iter = int(opts.get("max_iter", agler.DEFAULT_MAX_ITER))
    rep = agler.solve_feasibility(problem, tol=tol, max_iter=max_iter)
    fields = {"gap_estimate": _clean_float(rep.gap_estimate),
              "iterations": rep.iterations}
    if rep.certificate is not None:
        cert_doc = {
            "kernels": [ser.matrix_to_json(K) for K in rep.certificate.kernels],
            "residual_norm": float(rep.certificate.residual_norm),
            "iterations": rep.certificate.iterations,
        }
        if args.emit_certificate:
            _write_json(args.emit_certificate, cert_doc, "certificate")
        fields["residual_norm"] = cert_doc["residual_norm"]
        fields["certificate"] = cert_doc if args.embed_certificate else None
    return rep.status, fields


# subcommand -> the result step of its decide path
_RESULTS = {"check": _check_fields, "agler": _agler_fields}


def cmd_decide(args):
    """`check` and `agler`: read the request, require the subcommand of its
    setting's family (polydisk settings are Agler problems), merge the
    options, run the entry point and the subcommand's result step, and wrap
    the verdict, "unknown" with a "budget" error on BudgetError, in the report."""
    started = time.monotonic()
    doc, raw = _read_request(args.input)
    setting = doc["setting"]
    family = "agler" if setting.startswith("polydisk.") else "check"
    if args.command != family:
        raise _Usage(f"setting {setting!r} is handled by the '{family}' subcommand")
    opts = _options(doc, args)
    try:
        verdict, fields = _RESULTS[family](_call(setting, doc["payload"], opts),
                                           opts, args)
    except BudgetError as exc:
        verdict, fields = "unknown", {"error": _error(exc, "budget")}
    report = {"schema_version": _REPORT_VERSION, "setting": setting,
              "verdict": verdict, "min_eigenvalue": None, "gap_estimate": None,
              "tail_bound": 0.0,
              "provenance": {"input_sha256": hashlib.sha256(raw).hexdigest()},
              "options": opts, **fields}
    report["timings_ms"] = 1000 * (time.monotonic() - started)
    return report, _VERDICT_EXIT.get(verdict, EXIT_UNKNOWN)


def _read_quiver_file(path: str) -> dict:
    """A `sample --quiver-file` document: the request schema's quiver, with
    the `in_dims` and `out_dims` gradings in place of `dims`."""
    spec, _ = _read_json(path, "quiver file")
    defs = _schema("request.schema.json")["$defs"]
    quiver = defs["quiver"]
    schema = {**quiver, "required": ["vertices", "arrows", "in_dims", "out_dims"],
              "properties": {**quiver["properties"],
                             "in_dims": quiver["properties"]["dims"],
                             "out_dims": quiver["properties"]["dims"]}}
    _conform(spec, schema, defs, "quiver file does not validate")
    return spec


def cmd_sample(args):
    from . import oracle

    kind, seed = args.kind, args.seed
    if seed < 0:
        raise ArgumentError("seed must be >= 0")
    if kind == "disk.blaschke":
        sample = oracle.sample_blaschke(args.degree, seed)
    elif kind in ("disk.poly", "ball.poly"):
        if kind == "ball.poly" and args.letters is None:
            raise _Usage("ball.poly needs --letters")
        sample = oracle.sample_contractive_poly(args.rows, args.cols, args.degree,
                                                kind.split(".")[0], seed, d=args.letters)
    elif kind == "quiver.poly":
        if args.quiver_file is None:
            raise _Usage("quiver.poly needs --quiver-file")
        spec = _read_quiver_file(args.quiver_file)
        G = ser.quiver_from_json(spec)
        in_dims = ser.grading_from_json(G, spec["in_dims"])
        out_dims = ser.grading_from_json(G, spec["out_dims"])
        sample = oracle.sample_contractive_poly(
            1, 1, args.degree, "quiver", seed, quiver=G,
            in_dims=in_dims, out_dims=out_dims)
    else:
        raise _Usage(f"unknown sample kind {kind!r}")
    doc = ser.sample_to_json(sample)
    validate_document(doc, "sample.schema.json")
    if args.out:
        _write_json(args.out, doc, "sample")
    return doc, EXIT_FEASIBLE


def cmd_necessity(args):
    from . import necessity

    if args.setting not in necessity.SETTINGS:
        raise _Usage(f"unknown necessity setting {args.setting!r}; "
                     f"choose from {', '.join(necessity.SETTINGS)}")
    started = time.monotonic()
    res = necessity.run_suite(args.setting, args.trials, args.seed)
    doc = {
        "schema_version": _REPORT_VERSION,
        "setting": args.setting,
        "trials": res.trials,
        "seed": res.seed,
        "worst_margin": float(res.worst_margin),
        "worst_min_eigenvalue": float(res.worst_min_eigenvalue),
        "per_trial": [{"min_eigenvalue": float(r.min_eigenvalue),
                       "tail_bound": float(r.tail_bound)} for r in res.results],
        "passed": res.passed,
        "timings_ms": 1000 * (time.monotonic() - started),
    }
    return doc, EXIT_FEASIBLE if res.passed else EXIT_INFEASIBLE


def _read_map(path: str):
    """A `choi`/`cpcheck` map.  Past the schema, `unit_images` must be n x n
    images of size m x m (n = in_dim, m = out_dim); the shallowest wrong
    level, `/unit_images`, `/unit_images/i` or image `/unit_images/i/j`
    with its rows, is a data error at its JSON pointer.  So is the first
    image with an entry that is not finite (Python's JSON reader accepts
    NaN and Infinity)."""
    from . import cp

    doc, _ = _read_json(path, "map")
    schema = _schema("map.schema.json")
    _conform(doc, schema, schema.get("$defs", {}), "map does not validate")
    n, m, images = int(doc["in_dim"]), int(doc["out_dim"]), doc["unit_images"]
    wrong = (["/unit_images"] if len(images) != n else []) \
        + [f"/unit_images/{i}" for i, row in enumerate(images) if len(row) != n] \
        + [f"/unit_images/{i}/{j}" for i, row in enumerate(images)
           for j, image in enumerate(row)
           if len(image) != m or any(len(r) != m for r in image)]
    if wrong:
        raise _DataError(f"map does not validate: unit_images must be {n} x {n} "
                         f"images of size {m} x {m}", wrong[0])
    mats = [[ser.matrix_from_json(image) for image in row] for row in images]
    wrong = [f"/unit_images/{i}/{j}" for i, row in enumerate(mats)
             for j, M in enumerate(row) if not np.isfinite(M).all()]
    if wrong:
        raise _DataError("map does not validate: unit images must be finite",
                         wrong[0])
    return cp.LinearMapOnMatrices(n, m, mats)


def cmd_choi(args):
    from . import cp

    C = cp.choi_matrix(_read_map(args.input))
    return ({"schema_version": _REPORT_VERSION,
             "choi_matrix": ser.matrix_to_json(C),
             "min_eigenvalue": matcore.min_eigenvalue(C)}, EXIT_FEASIBLE)


def cmd_cpcheck(args):
    from . import cp

    phi = _read_map(args.input)
    verdict = cp.cp_check(phi, args.tol if args.tol is not None else "auto")
    doc = {"schema_version": _REPORT_VERSION,
           "is_cp": verdict.is_cp,
           "choi_min_eigenvalue": float(verdict.choi_min_eig)}
    if verdict.witness is not None:
        doc["witness"] = {
            "level": verdict.witness["level"],
            "input": ser.matrix_to_json(verdict.witness["input"]),
            "output_min_eigenvalue": float(
                verdict.witness["output_min_eigenvalue"]),
        }
    return doc, EXIT_FEASIBLE if verdict.is_cp else EXIT_INFEASIBLE


def _tol_arg(value: str):
    if value == "auto":
        return "auto"
    return float(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picklab",
        description="Feasibility tests for Nevanlinna-Pick-type interpolation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a Pick-matrix criterion")
    p_agler = sub.add_parser("agler", help="Agler decomposition feasibility")
    for p in (p_check, p_agler):
        p.add_argument("input", help="request JSON path")
        p.add_argument("--tol", type=_tol_arg, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=cmd_decide)
    p_check.add_argument("--max-level", dest="max_level", type=int, default=None)
    p_check.add_argument("--literal-unweighted", dest="literal_unweighted",
                         action="store_true")
    p_check.add_argument("--emit-pick", dest="emit_pick", action="store_true",
                         help="embed the Pick matrix in the report")
    p_agler.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p_agler.add_argument("--emit-certificate", dest="emit_certificate",
                         default=None, help="write certificate JSON to this path")
    p_agler.add_argument("--embed-certificate", dest="embed_certificate",
                         action="store_true",
                         help="embed the certificate in the report")

    p_sample = sub.add_parser("sample", help="emit a certified Schur sample")
    p_sample.add_argument("--kind", required=True,
                          choices=["disk.blaschke", "disk.poly", "ball.poly",
                                   "quiver.poly"])
    p_sample.add_argument("--degree", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--rows", type=int, default=1)
    p_sample.add_argument("--cols", type=int, default=1)
    p_sample.add_argument("--letters", type=int, default=None,
                          help="alphabet size for ball samples")
    p_sample.add_argument("--quiver-file", dest="quiver_file", default=None)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_nec = sub.add_parser("necessity", help="run a seeded necessity suite")
    p_nec.add_argument("setting", help="a criterion setting, e.g. disk.fov")
    p_nec.add_argument("--trials", type=int, default=20)
    p_nec.add_argument("--seed", type=int, default=0)
    p_nec.set_defaults(func=cmd_necessity)

    p_choi = sub.add_parser("choi", help="Choi matrix of a linear map")
    p_choi.add_argument("input")
    p_choi.set_defaults(func=cmd_choi)

    p_cp = sub.add_parser("cpcheck", help="complete-positivity check")
    p_cp.add_argument("input")
    p_cp.add_argument("--tol", type=_tol_arg, default=None)
    p_cp.add_argument("--seed", type=int, default=None,
                      help="accepted and ignored: the witness is exact")
    p_cp.set_defaults(func=cmd_cpcheck)
    return parser


_ERROR_CODES = {_Usage: ("usage", EXIT_USAGE), _DataError: ("data", EXIT_DATA),
                BudgetError: ("budget", EXIT_UNKNOWN)}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        doc, status = args.func(args)
    except (_Usage, _DataError, PicklabError) as exc:
        code, status = _ERROR_CODES.get(type(exc), (type(exc).__name__, EXIT_DATA))
        doc = {"error": _error(exc, code)}
    print(json.dumps(doc, sort_keys=True, allow_nan=False))
    return status


if __name__ == "__main__":
    sys.exit(main())
