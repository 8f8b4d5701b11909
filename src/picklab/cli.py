"""JSON command-line front end.

One JSON document per invocation on stdout; diagnostics on stderr only.
Exit codes: 0 feasible, 1 infeasible / verified Farkas witness, 2 unknown
or budget exceeded, 64 usage error, 65 data error.  `check` and `agler` run
every setting through one table, setting -> (module, entry point, payload
fields); each field is decoded by the type the request schema gives it.
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


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, allow_nan=False))


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _clean_float(x):
    return None if x is None else float(x)


class _Usage(Exception):
    pass


class _DataError(Exception):
    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


def _read_request(input_path: str):
    try:
        with open(input_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _DataError(f"cannot read input: {exc}", input_path)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _DataError(f"malformed JSON: {exc}", input_path)
    if not isinstance(doc, dict) or "setting" not in doc:
        raise _DataError("request must be an object with a 'setting' field",
                         input_path)
    if isinstance(doc["setting"], str) and doc["setting"] not in _SETTINGS:
        raise _Usage(f"unknown setting {doc['setting']!r}")
    try:
        validate_document(doc, "request.schema.json")
    except ValidationError as exc:
        raise _DataError(f"request does not validate: {exc}", exc.path)
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
    try:
        _validate(opts, schema["properties"]["options"], schema["$defs"], ("options",))
    except ValidationError as exc:
        raise _DataError(f"options do not validate: {exc}", exc.path)
    for name, value in opts.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise _DataError(f"options do not validate: {value!r} is not a "
                             f"finite number", f"/options/{name}")
    opts.setdefault("tol", "auto")
    return opts


def _series_budget(opts, per_level: int) -> int:
    budget = config.work_budget()
    if "max_level" in opts:
        budget = min(budget, (int(opts["max_level"]) + 1) * max(per_level, 1))
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


def _envelope(setting, opts, raw, verdict, **fields) -> dict:
    """The fields every check/agler report shares, updated with `fields`."""
    doc = {"schema_version": _REPORT_VERSION, "setting": setting,
           "verdict": verdict, "min_eigenvalue": None, "gap_estimate": None,
           "tail_bound": 0.0, "provenance": {"input_sha256": _sha256(raw)},
           "options": opts}
    doc.update(fields)
    return doc


_VERDICT_EXIT = {"feasible": EXIT_FEASIBLE, "infeasible": EXIT_INFEASIBLE,
                 "feasible_with_certificate": EXIT_FEASIBLE,
                 "infeasible_evidence": EXIT_INFEASIBLE}


def _finish(report: dict, started: float) -> int:
    """Stamp the timing, emit the report and return its verdict's exit code."""
    report["timings_ms"] = 1000 * (time.monotonic() - started)
    _emit(report)
    return _VERDICT_EXIT.get(report["verdict"], EXIT_UNKNOWN)


def _error(exc, code: str) -> dict:
    """The error object of an error document or of a budget report."""
    error = {"code": code, "message": str(exc),
             "path": exc.path if isinstance(exc, _DataError) else None}
    if isinstance(exc, BudgetError):
        error["achieved_bound"] = _clean_float(exc.achieved_bound)
    return error


def _budget_report(exc, setting, opts, raw) -> dict:
    return _envelope(setting, opts, raw, "unknown", error=_error(exc, "budget"))


def _check_report(result, setting, opts, raw, emit_pick) -> dict:
    """Report on one FeasibilityReport, or on the per-vertex family of
    quiver.qltt (feasible iff every vertex is; the worst vertex speaks)."""
    reps = result if isinstance(result, dict) else {None: result}
    worst = min(reps.values(), key=lambda r: r.min_eigenvalue)
    doc = _envelope(
        setting, opts, raw,
        "feasible" if all(r.feasible for r in reps.values()) else "infeasible",
        min_eigenvalue=_clean_float(worst.min_eigenvalue),
        tail_bound=float(max(r.tail_bound for r in reps.values())),
        tolerance_used=float(worst.verdict.tolerance_used),
        method=worst.method)
    if isinstance(result, dict):
        doc["vertex_verdicts"] = {
            v: {"feasible": r.verdict.is_psd,
                "min_eigenvalue": _clean_float(r.min_eigenvalue),
                "tail_bound": float(r.tail_bound)}
            for v, r in result.items()}
    elif emit_pick:
        doc["pick_matrix"] = ser.matrix_to_json(result.pick)
    return doc


def cmd_check(args) -> int:
    started = time.monotonic()
    doc, raw = _read_request(args.input)
    setting = doc["setting"]
    if setting.startswith("polydisk."):
        raise _Usage("polydisk settings are handled by the 'agler' subcommand")
    opts = _options(doc, args)
    try:
        result = _call(setting, doc["payload"], opts)
    except BudgetError as exc:
        return _finish(_budget_report(exc, setting, opts, raw), started)
    return _finish(_check_report(result, setting, opts, raw, args.emit_pick),
                   started)


def cmd_agler(args) -> int:
    from . import agler as agler_mod

    started = time.monotonic()
    doc, raw = _read_request(args.input)
    setting = doc["setting"]
    if not setting.startswith("polydisk."):
        raise _Usage(f"setting {setting!r} is not an Agler problem")
    opts = _options(doc, args)
    tol = agler_mod.DEFAULT_TOL if opts["tol"] == "auto" else float(opts["tol"])
    max_iter = int(opts.get("max_iter", agler_mod.DEFAULT_MAX_ITER))
    problem = _call(setting, doc["payload"], opts)
    try:
        rep = agler_mod.solve_feasibility(problem, tol=tol, max_iter=max_iter)
    except BudgetError as exc:
        return _finish(_budget_report(exc, setting, opts, raw), started)
    report = _envelope(setting, opts, raw, rep.status,
                       gap_estimate=_clean_float(rep.gap_estimate),
                       iterations=rep.iterations)
    if rep.certificate is not None:
        report["residual_norm"] = float(rep.certificate.residual_norm)
        cert_doc = {
            "kernels": [ser.matrix_to_json(K) for K in rep.certificate.kernels],
            "residual_norm": float(rep.certificate.residual_norm),
            "iterations": rep.certificate.iterations,
        }
        if args.emit_certificate:
            with open(args.emit_certificate, "w") as fh:
                json.dump(cert_doc, fh, sort_keys=True)
        report["certificate"] = cert_doc if args.embed_certificate else None
    return _finish(report, started)


def _read_quiver_file(path: str) -> dict:
    """A `sample --quiver-file` document: the request schema's quiver, with
    the `in_dims` and `out_dims` gradings in place of `dims`."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _DataError(f"cannot read quiver file: {exc}", path)
    defs = _schema("request.schema.json")["$defs"]
    quiver = defs["quiver"]
    schema = {**quiver, "required": ["vertices", "arrows", "in_dims", "out_dims"],
              "properties": {**quiver["properties"],
                             "in_dims": quiver["properties"]["dims"],
                             "out_dims": quiver["properties"]["dims"]}}
    try:
        _validate(spec, schema, defs)
    except ValidationError as exc:
        raise _DataError(f"quiver file does not validate: {exc}", exc.path)
    return spec


def cmd_sample(args) -> int:
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
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_FEASIBLE


def cmd_necessity(args) -> int:
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
    _emit(doc)
    return EXIT_FEASIBLE if res.passed else EXIT_INFEASIBLE


def _read_map(path: str):
    from . import cp

    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except (OSError, json.JSONDecodeError) as exc:
        raise _DataError(f"cannot read map: {exc}", path)
    try:
        validate_document(doc, "map.schema.json")
    except ValidationError as exc:
        raise _DataError(f"map does not validate: {exc}", exc.path)
    n, m = doc["in_dim"], doc["out_dim"]
    images = np.zeros((n, n, m, m), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            images[i, j] = ser.matrix_from_json(doc["unit_images"][i][j])
    return cp.LinearMapOnMatrices(n, m, images)


def cmd_choi(args) -> int:
    from . import cp

    phi = _read_map(args.input)
    C = cp.choi_matrix(phi)
    _emit({"schema_version": _REPORT_VERSION,
           "choi_matrix": ser.matrix_to_json(C),
           "min_eigenvalue": matcore.min_eigenvalue(C)})
    return EXIT_FEASIBLE


def cmd_cpcheck(args) -> int:
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
    _emit(doc)
    return EXIT_FEASIBLE if verdict.is_cp else EXIT_INFEASIBLE


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
    p_check.add_argument("input", help="request JSON path")
    p_check.add_argument("--tol", type=_tol_arg, default=None)
    p_check.add_argument("--max-level", dest="max_level", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--literal-unweighted", dest="literal_unweighted",
                         action="store_true")
    p_check.add_argument("--emit-pick", dest="emit_pick", action="store_true",
                         help="embed the Pick matrix in the report")
    p_check.set_defaults(func=cmd_check)

    p_agler = sub.add_parser("agler", help="Agler decomposition feasibility")
    p_agler.add_argument("input")
    p_agler.add_argument("--tol", type=_tol_arg, default=None)
    p_agler.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p_agler.add_argument("--seed", type=int, default=None)
    p_agler.add_argument("--emit-certificate", dest="emit_certificate",
                         default=None, help="write certificate JSON to this path")
    p_agler.add_argument("--embed-certificate", dest="embed_certificate",
                         action="store_true",
                         help="embed the certificate in the report")
    p_agler.set_defaults(func=cmd_agler)

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
        return args.func(args)
    except (_Usage, _DataError, PicklabError) as exc:
        code, status = _ERROR_CODES.get(type(exc), (type(exc).__name__, EXIT_DATA))
        print(json.dumps({"error": _error(exc, code)}, sort_keys=True))
        return status


if __name__ == "__main__":
    sys.exit(main())
