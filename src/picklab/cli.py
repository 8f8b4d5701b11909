"""JSON command-line front end.

One JSON document per invocation on stdout; diagnostics on stderr only.
Exit codes: 0 feasible, 1 infeasible / infeasible evidence, 2 unknown or
budget exceeded, 64 usage error, 65 data error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import numbers
import reprlib
import sys
import time
from importlib import resources

import numpy as np

from . import config, matcore
from . import serialize as ser
from .errors import BudgetError, PicklabError


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


def validate_document(doc: dict, schema_name: str) -> None:
    """Raise ValidationError if `doc` fails the packaged schema `schema_name`
    (JSON Schema draft 2020-12 semantics for the keywords the packaged
    schemas use).  Of several failures the shallowest is reported, the
    first in keyword order among equals."""
    schema = _schema(schema_name)
    errors = list(_errors(doc, schema, schema.get("$defs", {})))
    if errors:
        path, message = min(errors, key=lambda e: len(e[0]))
        raise ValidationError(message, "/" + "/".join(map(str, path)))


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


_KNOWN_SETTINGS = frozenset(
    _schema("request.schema.json")["properties"]["setting"]["enum"])


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
    if isinstance(doc["setting"], str) and doc["setting"] not in _KNOWN_SETTINGS:
        raise _Usage(f"unknown setting {doc['setting']!r}")
    try:
        validate_document(doc, "request.schema.json")
    except ValidationError as exc:
        raise _DataError(f"request does not validate: {exc}", exc.path)
    return doc, raw


def _options(doc: dict, args) -> dict:
    opts = dict(doc.get("options") or {})
    if getattr(args, "tol", None) is not None:
        opts["tol"] = args.tol
    if getattr(args, "max_level", None) is not None:
        opts["max_level"] = args.max_level
    if getattr(args, "max_iter", None) is not None:
        opts["max_iter"] = args.max_iter
    if getattr(args, "seed", None) is not None:
        opts["seed"] = args.seed
    if getattr(args, "literal_unweighted", False):
        opts["literal_unweighted"] = True
    opts.setdefault("tol", "auto")
    return opts


def _tol_value(opts):
    tol = opts.get("tol", "auto")
    return tol if tol == "auto" else float(tol)


def _series_budget(opts, per_level: int) -> int:
    budget = config.work_budget()
    if "max_level" in opts:
        budget = min(budget, (int(opts["max_level"]) + 1) * max(per_level, 1))
    return budget


def _dispatch_check(setting: str, payload: dict, opts: dict):
    tol = _tol_value(opts)
    if setting.startswith("disk."):
        from . import disk

        if setting == "disk.fov":
            return disk.pick_fov([ser.complex_from_json(z) for z in payload["points"]],
                                 ser.matrices_from_json(payload["values"]), tol)
        if setting in ("disk.lt", "disk.rt"):
            fn = disk.pick_lt if setting.endswith("lt") else disk.pick_rt
            return fn([ser.complex_from_json(z) for z in payload["points"]],
                      ser.matrices_from_json(payload["directions"]),
                      ser.matrices_from_json(payload["targets"]), tol)
        if setting in ("disk.ltoa", "disk.rtoa"):
            fn = disk.pick_ltoa if setting.endswith("ltoa") else disk.pick_rtoa
            return fn(ser.matrices_from_json(payload["operator_points"]),
                      ser.matrices_from_json(payload["directions"]),
                      ser.matrices_from_json(payload["targets"]), tol)
        if setting == "disk.frd":
            return disk.pick_frd(ser.matrices_from_json(payload["operator_points"]),
                                 ser.matrices_from_json(payload["values"]),
                                 payload.get("basis_dim"), tol)
        if setting in ("disk.ltrd", "disk.rtrd"):
            fn = disk.pick_ltrd if setting.endswith("ltrd") else disk.pick_rtrd
            return fn(ser.matrices_from_json(payload["operator_points"]),
                      ser.matrices_from_json(payload["directions"]),
                      ser.matrices_from_json(payload["targets"]),
                      payload.get("basis_dim"), tol)
        if setting == "disk.nevanlinna_rd":
            return disk.nevanlinna_rd_check(
                ser.matrix_from_json(payload["operator_point"]),
                ser.matrix_from_json(payload["value"]), tol=tol)
    if setting.startswith("ball."):
        from . import ball as ball_mod

        if setting == "ball.da_fov":
            pts = [[ser.complex_from_json(z) for z in row] for row in payload["points"]]
            return ball_mod.pick_da_fov(pts, ser.matrices_from_json(payload["values"]),
                                        tol)
        if setting == "ball.da_lt":
            pts = [[ser.complex_from_json(z) for z in row] for row in payload["points"]]
            return ball_mod.pick_da_lt(pts,
                                       ser.matrices_from_json(payload["directions"]),
                                       ser.matrices_from_json(payload["targets"]), tol)
        if setting in ("ball.da_ltoa", "ball.nc_ltoa"):
            tuples = [ser.matrices_from_json(t) for t in payload["operator_points"]]
            X = ser.matrices_from_json(payload["directions"])
            Y = ser.matrices_from_json(payload["targets"])
            budget = _series_budget(opts, len(tuples[0]))
            if setting == "ball.nc_ltoa":
                return ball_mod.pick_nc_ltoa(tuples, X, Y, tol, budget=budget)
            return ball_mod.pick_da_ltoa(
                tuples, X, Y, tol, budget=budget,
                literal_unweighted=bool(opts.get("literal_unweighted", False)))
        if setting in ("ball.nc_frd", "ball.nc_frd_star"):
            tuples = [ser.matrices_from_json(t) for t in payload["operator_points"]]
            W = ser.matrices_from_json(payload["values"])
            budget = _series_budget(opts, len(tuples[0]))
            fn = (ball_mod.pick_nc_frd if setting.endswith("frd")
                  else ball_mod.pick_nc_frd_star)
            return fn(tuples, W, payload.get("basis_dim"), tol, budget=budget)
    if setting.startswith("quiver."):
        from . import quiver as quiver_mod

        G = ser.quiver_from_json(payload["quiver"])
        dims = ser.grading_from_json(G, payload["quiver"]["dims"])
        budget = _series_budget(opts, len(G.arrows))
        if setting == "quiver.qltt":
            ydims = ser.grading_from_json(G, payload["y_dims"])
            points = [ser.quiver_point_from_json("tensor", p)
                      for p in payload["points"]]
            reports = quiver_mod.pick_qltt(
                G, dims, ydims, points,
                ser.matrices_from_json(payload["directions"]),
                ser.matrices_from_json(payload["targets"]), tol, budget=budget)
            return reports
        if setting == "quiver.qltrd":
            points = [ser.quiver_point_from_json("tensor", p)
                      for p in payload["points"]]
            return quiver_mod.pick_qltrd(
                G, dims, points,
                ser.matrices_from_json(payload["directions"]),
                ser.matrices_from_json(payload["targets"]),
                payload.get("basis_dim"), tol, budget=budget)
        if setting == "quiver.qltoa":
            points = [ser.quiver_point_from_json("operator_argument", p)
                      for p in payload["points"]]
            dirs = [{v: ser.matrix_from_json(M) for v, M in D.items()}
                    for D in payload["directions"]]
            tgts = [{v: ser.matrix_from_json(M) for v, M in D.items()}
                    for D in payload["targets"]]
            return quiver_mod.pick_qltoa(G, dims, points, dirs, tgts, tol,
                                         budget=budget)
    raise _Usage(f"setting {setting!r} is not handled by 'check' "
                 f"(polydisk settings use the 'agler' subcommand)")


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


def _budget_report(exc, setting, opts, raw) -> dict:
    return _envelope(setting, opts, raw, "unknown",
                     error={"code": "budget", "message": str(exc), "path": None})


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
        result = _dispatch_check(setting, doc["payload"], opts)
    except BudgetError as exc:
        return _finish(_budget_report(exc, setting, opts, raw), started)
    return _finish(_check_report(result, setting, opts, raw, args.emit_pick),
                   started)


def _agler_problem(setting: str, payload: dict):
    from . import agler as agler_mod

    if setting == "polydisk.agler_scalar":
        pts = [[ser.complex_from_json(z) for z in row] for row in payload["points"]]
        vals = [ser.complex_from_json(z) for z in payload["values"]]
        return agler_mod.scalar_problem(pts, vals)
    if setting == "polydisk.agler_ltoa":
        tuples = [ser.matrices_from_json(t) for t in payload["operator_points"]]
        return agler_mod.nc_ltoa_problem(
            tuples, ser.matrices_from_json(payload["directions"]),
            ser.matrices_from_json(payload["targets"]))
    if setting == "polydisk.agler_nc_rd":
        tuples = [ser.matrices_from_json(t) for t in payload["operator_points"]]
        return agler_mod.nc_rd_problem(
            tuples, ser.matrices_from_json(payload["values"]),
            payload.get("basis_dim"))
    raise _Usage(f"setting {setting!r} is not an Agler problem")


def cmd_agler(args) -> int:
    from . import agler as agler_mod

    started = time.monotonic()
    doc, raw = _read_request(args.input)
    setting = doc["setting"]
    opts = _options(doc, args)
    tol = opts.get("tol", "auto")
    tol = agler_mod.DEFAULT_TOL if tol == "auto" else float(tol)
    max_iter = int(opts.get("max_iter", agler_mod.DEFAULT_MAX_ITER))
    problem = _agler_problem(setting, doc["payload"])
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


def cmd_sample(args) -> int:
    from . import oracle

    kind = args.kind
    seed = args.seed if args.seed is not None else 0
    if kind == "disk.blaschke":
        sample = oracle.sample_blaschke(args.degree, seed)
    elif kind == "disk.poly":
        sample = oracle.sample_contractive_poly(args.rows, args.cols,
                                                args.degree, "disk", seed)
    elif kind == "ball.poly":
        if args.letters is None:
            raise _Usage("ball.poly needs --letters")
        sample = oracle.sample_contractive_poly(args.rows, args.cols,
                                                args.degree, "ball", seed,
                                                d=args.letters)
    elif kind == "quiver.poly":
        if args.quiver_file is None:
            raise _Usage("quiver.poly needs --quiver-file")
        try:
            with open(args.quiver_file) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _DataError(f"cannot read quiver file: {exc}", args.quiver_file)
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
    res = necessity.run_suite(args.setting, args.trials, args.seed or 0)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _Usage as exc:
        print(json.dumps({"error": {"code": "usage", "message": str(exc),
                                    "path": None}}, sort_keys=True))
        return EXIT_USAGE
    except _DataError as exc:
        print(json.dumps({"error": {"code": "data", "message": str(exc),
                                    "path": exc.path}}, sort_keys=True))
        return EXIT_DATA
    except BudgetError as exc:
        print(json.dumps({"error": {"code": "budget", "message": str(exc),
                                    "path": None}}, sort_keys=True))
        return EXIT_UNKNOWN
    except PicklabError as exc:
        print(json.dumps({"error": {"code": type(exc).__name__, "message": str(exc),
                                    "path": None}}, sort_keys=True))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
