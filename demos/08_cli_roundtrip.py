"""Driving the JSON command-line interface programmatically.

Requests are single JSON documents validated against shipped schemas;
reports come back as one JSON document on stdout with a deterministic
layout (timings aside).  Exit codes: 0 feasible, 1 infeasible, 2 unknown,
64 usage error, 65 data error.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from picklab import cli


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


tmp = tempfile.TemporaryDirectory()
workdir = Path(tmp.name)

# --- a disk request -----------------------------------------------------
request = {
    "schema_version": "1",
    "setting": "disk.fov",
    "payload": {
        "points": [[0.0, 0.0], [0.5, 0.0]],
        "values": [[[[0.0, 0.0]]], [[[0.5, 0.0]]]],
    },
    "options": {"tol": "auto"},
}
cli.validate_document(request, "request.schema.json")
req_path = workdir / "request.json"
req_path.write_text(json.dumps(request))

code, report = run(["check", str(req_path), "--emit-pick"])
cli.validate_document(report, "report.schema.json")
print("exit code:", code)
print("verdict:", report["verdict"],
      "| min eigenvalue:", report["min_eigenvalue"])
print("Pick matrix:", report["pick_matrix"])

# --- an Agler request with a certificate file ------------------------------
agler_request = {
    "schema_version": "1",
    "setting": "polydisk.agler_scalar",
    "payload": {
        "points": [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
        "values": [[0.0, 0.0], [0.5, 0.0]],
    },
}
agler_path = workdir / "agler.json"
agler_path.write_text(json.dumps(agler_request))
cert_path = workdir / "certificate.json"
code, report = run(["agler", str(agler_path),
                    "--emit-certificate", str(cert_path)])
print("\nagler exit code:", code, "| status:", report["verdict"],
      "| iterations:", report["iterations"])
cert = json.loads(cert_path.read_text())
print("certificate kernels on disk:", len(cert["kernels"]),
      "| residual:", cert["residual_norm"])

# --- deterministic sampling -------------------------------------------------
code, sample = run(["sample", "--kind", "ball.poly", "--degree", "2",
                    "--letters", "2", "--rows", "2", "--cols", "2",
                    "--seed", "123"])
cli.validate_document(sample, "sample.schema.json")
print("\nsample:", sample["setting"], "d =", sample["d"],
      "| coefficients:", len(sample["coefficients"]),
      "| norm bound:", sample["norm_bound"])

# --- a necessity suite from the CLI ------------------------------------------
code, summary = run(["necessity", "quiver.qltoa", "--trials", "5",
                     "--seed", "1"])
print("\nnecessity quiver.qltoa: pass =", summary["passed"],
      "| worst margin = %.2e" % summary["worst_margin"])

tmp.cleanup()
