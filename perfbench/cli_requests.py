"""cli_requests: sequential `picklab check` / `picklab agler` subprocesses.

One round is ten requests, one subprocess each, written once per seed:
disk (fov, lt, ltoa), ball (nc_ltoa), quiver (qltoa) and polydisk
(agler_scalar), feasible and infeasible, some with --emit-pick.  The math
in each takes well under a millisecond; the cost is interpreter start,
import, schema validation and encoding, which is what a user of the tool
pays per call.  The infeasible Agler request runs with --max-iter 25, so
it answers "unknown" before the solver's 500-iteration gap window.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import jsonschema
import numpy as np

import reference as ref
from common import OUT, ROOT, Incorrect, NullTracer, Op, child_env, median, metric
from picklab import cli
from picklab import serialize as ser

EXIT = {"feasible": 0, "feasible_with_certificate": 0, "infeasible": 1,
        "infeasible_evidence": 1, "unknown": 2}


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _m(M):
    return [[_c(z) for z in row] for row in np.atleast_2d(M)]


def _doc(setting, payload):
    return {"schema_version": "1", "setting": setting, "payload": payload}


def _disk_fov(rng, feasible):
    lams = ref.spread_points(rng, 3, 0.2, 0.6)
    a = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    w = ref.blaschke1(lams, a, 0.8 * np.exp(2j * np.pi * rng.uniform()))
    if not feasible:
        w[0] = 1.2 * np.exp(2j * np.pi * rng.uniform())
    doc = _doc("disk.fov", {"points": [_c(z) for z in lams], "values": [_m(x) for x in w]})
    return doc, ref.min_eig(ref.pick_fov(lams, w))


def _disk_lt(rng):
    lams = ref.spread_points(rng, 2, 0.2, 0.6)
    C0, C1 = (ref.scaled(ref.cgauss(rng, 2, 2), 0.35) for _ in range(2))
    X = [ref.cgauss(rng, 2, 2) for _ in lams]
    Y = [X[i] @ (C0 + lams[i] * C1) for i in range(2)]
    doc = _doc("disk.lt", {"points": [_c(z) for z in lams],
                           "directions": [_m(M) for M in X], "targets": [_m(M) for M in Y]})
    return doc, ref.min_eig(ref.pick_lt(lams, X, Y))


def _disk_ltoa_infeasible(rng):
    T = [ref.scaled(ref.cgauss(rng, 2, 2), 0.5) for _ in range(2)]
    X = [ref.cgauss(rng, 2, 2) for _ in range(2)]
    Y = [1.5 * X[0], 0.5 * X[1]]
    return _doc("disk.ltoa", {"operator_points": [_m(M) for M in T],
                              "directions": [_m(M) for M in X], "targets": [_m(M) for M in Y]})


def _ball_nc_ltoa(rng, feasible):
    tuples = []
    for _ in range(2):
        mats = [ref.cgauss(rng, 2, 2) for _ in range(2)]
        scale = 0.5 / np.linalg.norm(np.hstack(mats), 2)
        tuples.append([M * scale for M in mats])
    X = [ref.cgauss(rng, 2, 2) for _ in range(2)]
    C = ref.scaled(ref.cgauss(rng, 2, 2), 0.6)   # a constant contractive multiplier
    Y = [X[0] @ C if feasible else 1.5 * X[0], X[1] @ C]
    return _doc("ball.nc_ltoa", {"operator_points": [[_m(M) for M in t] for t in tuples],
                                 "directions": [_m(M) for M in X], "targets": [_m(M) for M in Y]})


def _quiver_qltoa(rng, feasible):
    # Two-vertex quiver: alpha a -> a, beta a -> b; operator-argument blocks
    # map the source space to the range space, scaled to row norm 0.5.
    dims = {"a": 2, "b": 1}
    alpha = ref.cgauss(rng, 2, 2)
    beta = ref.cgauss(rng, 2, 1)
    scale = 0.5 / np.linalg.norm(np.hstack([alpha, beta]), 2)
    X = {v: ref.cgauss(rng, n, n) for v, n in dims.items()}
    c = 0.6 * np.exp(2j * np.pi * rng.uniform())   # a constant contractive multiplier
    Y = {v: (c if feasible else 1.5) * M for v, M in X.items()}
    quiver = {"vertices": ["a", "b"], "dims": dims,
              "arrows": [{"name": "alpha", "src": "a", "rng": "a"},
                         {"name": "beta", "src": "a", "rng": "b"}]}
    return _doc("quiver.qltoa", {
        "quiver": quiver,
        "points": [{"alpha": _m(alpha * scale), "beta": _m(beta * scale)}],
        "directions": [{v: _m(M) for v, M in X.items()}],
        "targets": [{v: _m(M) for v, M in Y.items()}]})


def _agler(rng, feasible):
    pts = np.stack([ref.spread_points(rng, 2, 0.3, 0.6),
                    ref.spread_points(rng, 2, 0.3, 0.6)], axis=1)
    if feasible:
        a, b = 0.5 * np.exp(2j * np.pi * rng.uniform(size=2))
        vals = (ref.blaschke1(pts[:, 0], a, 0.7) * ref.blaschke1(pts[:, 1], b, 0.7))
    else:
        vals = 1.5 * np.exp(2j * np.pi * rng.uniform(size=2))
    doc = _doc("polydisk.agler_scalar", {"points": [[_c(z) for z in row] for row in pts],
                                          "values": [_c(v) for v in vals]})
    return doc, (pts, vals)


def requests(seed):
    """[(name, subcommand flags, request document, expectation)] of one round."""
    rng = np.random.default_rng([seed, 2])
    fov_f, fov_f_min = _disk_fov(rng, True)
    fov_i, fov_i_min = _disk_fov(rng, False)
    lt, lt_min = _disk_lt(rng)
    agler_f, agler_f_data = _agler(rng, True)
    agler_i, _ = _agler(rng, False)
    return [
        ("disk.fov-feasible", ["check"], fov_f, ("feasible", fov_f_min)),
        ("disk.fov-infeasible", ["check", "--emit-pick"], fov_i, ("infeasible", fov_i_min)),
        ("disk.lt-feasible", ["check", "--emit-pick"], lt, ("feasible", lt_min)),
        ("disk.ltoa-infeasible", ["check"], _disk_ltoa_infeasible(rng), ("infeasible", None)),
        ("ball.nc_ltoa-feasible", ["check", "--emit-pick"], _ball_nc_ltoa(rng, True),
         ("feasible", None)),
        ("ball.nc_ltoa-infeasible", ["check"], _ball_nc_ltoa(rng, False), ("infeasible", None)),
        ("quiver.qltoa-feasible", ["check"], _quiver_qltoa(rng, True), ("feasible", None)),
        ("quiver.qltoa-infeasible", ["check", "--emit-pick"], _quiver_qltoa(rng, False),
         ("infeasible", None)),
        ("agler-feasible", ["agler", "--embed-certificate"], agler_f,
         ("feasible_with_certificate", agler_f_data)),
        ("agler-infeasible", ["agler", "--max-iter", "25"], agler_i, ("not_feasible", None)),
    ]


def prepare(seed, out_dir=None):
    reqs = requests(seed)
    with open(os.path.join(ROOT, "schemas", "report.schema.json")) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    state = {"requests": [], "validator": validator, "max_rss_kb": 0, "env": child_env()}
    for k, (name, flags, doc, expect) in enumerate(reqs):
        path = os.path.join(out_dir or OUT, f"cli-{seed}", f"{k:02d}-{name}.json")
        argv = [flags[0], path, *flags[1:]]
        state["requests"].append((name, argv, doc, expect))
        if out_dir is not None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(doc, fh)
    return state


def _subprocess(argv, env):
    """Run one CLI call; return (exit code, stdout, peak RSS in KiB)."""
    proc = subprocess.Popen([sys.executable, "-m", "picklab.cli", *argv], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if err:
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode, out, usage.ru_maxrss


def _check(state, name, expect, result):
    code, out, rss_kb = result
    state["max_rss_kb"] = max(state["max_rss_kb"], rss_kb)
    try:
        doc = json.loads(out)
        state["validator"].validate(doc)
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
        raise Incorrect(f"{name}: report is not a valid report document: {exc}")
    verdict = doc["verdict"]
    if EXIT.get(verdict) != code:
        raise Incorrect(f"{name}: verdict {verdict} with exit code {code}")
    wanted, extra = expect
    if wanted == "not_feasible":
        if verdict in ("feasible", "feasible_with_certificate"):
            raise Incorrect(f"{name}: data with |f| = 1.5 came out {verdict}")
    elif verdict != wanted:
        raise Incorrect(f"{name}: expected {wanted}, got {verdict}")
    if isinstance(extra, float):
        scale = 1.0 + abs(extra)
        if abs(doc["min_eigenvalue"] - extra) > 1e-10 * scale:
            raise Incorrect(f"{name}: min eigenvalue {doc['min_eigenvalue']}, "
                            f"closed form gives {extra}")
    if wanted == "feasible_with_certificate":
        kernels = [np.array(K)[..., 0] + 1j * np.array(K)[..., 1]
                   for K in doc["certificate"]["kernels"]]
        residual, eigs = ref.agler_scalar_check(*extra, kernels)
        if residual > ref.AGLER_CERT_TOL or min(eigs) < -ref.AGLER_CERT_TOL:
            raise Incorrect(f"{name}: certificate residual {residual}, eigenvalue {min(eigs)}")
    return True


def ops(state, r, tracer):
    out = []
    for name, argv, doc, expect in state["requests"]:
        def run(argv=argv):
            with tracer.span("picklab.subprocess"):
                return _subprocess(argv, state["env"])

        out.append(Op(name, run, lambda res, name=name, expect=expect:
                      _check(state, name, expect, res)))
    return out


def peak_rss_kb(state):
    return state["max_rss_kb"]


def _decode(setting, p):
    """The payload decoding `picklab check`/`agler` does, through serialize."""
    cplx, mats = ser.complex_from_json, ser.matrices_from_json
    if setting == "disk.fov":
        return [cplx(z) for z in p["points"]], mats(p["values"])
    if setting == "disk.lt":
        return [cplx(z) for z in p["points"]], mats(p["directions"]), mats(p["targets"])
    if setting == "disk.ltoa":
        return mats(p["operator_points"]), mats(p["directions"]), mats(p["targets"])
    if setting == "ball.nc_ltoa":
        return ([mats(t) for t in p["operator_points"]], mats(p["directions"]),
                mats(p["targets"]))
    if setting == "quiver.qltoa":
        G = ser.quiver_from_json(p["quiver"])
        return (G, ser.grading_from_json(G, p["quiver"]["dims"]),
                [ser.quiver_point_from_json("operator_argument", q) for q in p["points"]],
                [{v: ser.matrix_from_json(M) for v, M in D.items()} for D in p["directions"]],
                [{v: ser.matrix_from_json(M) for v, M in D.items()} for D in p["targets"]])
    return [[cplx(z) for z in row] for row in p["points"]], [cplx(z) for z in p["values"]]


def _timed_wall_ms(argv, count):
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        times.append(1000 * (time.perf_counter() - t0))
    return median(times)


def _importtime(count):
    """Median cumulative numpy and jsonschema import, and summed picklab self time (ms)."""
    samples = []
    for _ in range(count):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import picklab.cli"],
                             cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True).stderr
        found = {"numpy": 0.0, "jsonschema": 0.0, "picklab": 0.0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = (f.strip() for f in line[12:].split("|"))
            if not self_us.isdigit():
                continue
            if module in ("numpy", "jsonschema"):
                found[module] = int(cumulative_us) / 1000
            elif module.split(".")[0] == "picklab":
                found["picklab"] += int(self_us) / 1000
        samples.append(found)
    return {k: median([s[k] for s in samples]) for k in samples[0]}


def _in_process(state, tracer, passes):
    """Warm in-process validate, decode, main and encode for every request.

    The first pass is untimed; returns the mean report size in bytes.
    """
    sizes = []
    for p in range(passes + 1):
        t = tracer if p else NullTracer()
        for name, argv, doc, expect in state["requests"]:
            with t.span("cli.validate_document"):
                cli.validate_document(doc, "request.schema.json")
            with t.span("serialize.decode"):
                _decode(doc["setting"], doc["payload"])
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), t.span("cli.main"):
                cli.main(argv)
            text = buf.getvalue()
            report = json.loads(text)
            with t.span("serialize.encode"):
                if report.get("pick_matrix"):
                    pick = np.array(report["pick_matrix"])
                    ser.matrix_to_json(pick[..., 0] + 1j * pick[..., 1])
                json.dumps(report, sort_keys=True, allow_nan=False)
            if p:
                sizes.append(len(text.encode()))
    return sum(sizes) / len(sizes)


def layer_metrics(state, tracer):
    start = _timed_wall_ms([sys.executable, "-c", "pass"], 5)
    imported = _timed_wall_ms([sys.executable, "-c", "import picklab.cli"], 5)
    split = _importtime(3)
    report_bytes = _in_process(state, tracer, passes=2)
    return {
        "python.start_ms": metric(start, "ms"),
        "cli.import_ms": metric(imported - start, "ms"),
        "import.numpy_ms": metric(split["numpy"], "ms"),
        "import.jsonschema_ms": metric(split["jsonschema"], "ms"),
        "import.picklab_ms": metric(split["picklab"], "ms"),
        "cli.validate_ms": metric(tracer.mean_ms("cli.validate_document"), "ms"),
        "serialize.decode_ms": metric(tracer.mean_ms("serialize.decode"), "ms"),
        "serialize.encode_ms": metric(tracer.mean_ms("serialize.encode"), "ms"),
        "cli.main_ms": metric(tracer.mean_ms("cli.main"), "ms"),
        "cli.report_bytes": metric(report_bytes, "bytes"),
    }
