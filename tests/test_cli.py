import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from picklab import cli

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


class TestExitCodes:
    def test_feasible_is_zero(self, capsys):
        code, doc = run_cli(["check", str(FIXTURES / "disk_fov_feasible.json")],
                            capsys)
        assert code == 0
        assert doc["verdict"] == "feasible"
        assert doc["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_is_one(self, capsys):
        code, doc = run_cli(["check", str(FIXTURES / "disk_fov_infeasible.json")],
                            capsys)
        assert code == 1
        assert doc["verdict"] == "infeasible"

    def test_unknown_setting_is_usage(self, tmp_path, capsys):
        p = tmp_path / "req.json"
        p.write_text(json.dumps({"schema_version": "1", "setting": "disk.nope",
                                 "payload": {}}))
        code, doc = run_cli(["check", str(p)], capsys)
        assert code == 64
        assert doc["error"]["code"] == "usage"

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, doc = run_cli(["check", str(p)], capsys)
        assert code == 65
        assert doc["error"]["code"] == "data"
        assert "message" in doc["error"] and "path" in doc["error"]

    def test_invalid_payload_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "req.json"
        p.write_text(json.dumps({"schema_version": "1", "setting": "disk.fov",
                                 "payload": {"points": [[0.0, 0.0]]}}))
        code, doc = run_cli(["check", str(p)], capsys)
        assert code == 65

    def test_invalid_option_reports_its_path(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "disk_fov_feasible.json").read_text())
        for bad in (0, True, "many", 2.5):
            doc["options"] = {"max_iter": bad}
            p = tmp_path / "req.json"
            p.write_text(json.dumps(doc))
            code, out = run_cli(["check", str(p)], capsys)
            assert code == 65, bad
            assert out["error"]["code"] == "data"
            assert out["error"]["path"] == "/options/max_iter"

    def test_invalid_map_reports_its_path(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "map_transpose.json").read_text())
        doc["in_dim"] = 0
        p = tmp_path / "map.json"
        p.write_text(json.dumps(doc))
        for cmd in ("choi", "cpcheck"):
            code, out = run_cli([cmd, str(p)], capsys)
            assert code == 65
            assert out["error"]["code"] == "data"
            assert out["error"]["path"] == "/in_dim"

    def test_unknown_necessity_setting_is_usage(self, capsys):
        code, doc = run_cli(["necessity", "bogus"], capsys)
        assert code == 64
        assert doc["error"]["code"] == "usage"

    def test_domain_error_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "req.json"
        p.write_text(json.dumps({
            "schema_version": "1", "setting": "disk.fov",
            "payload": {"points": [[2.0, 0.0]], "values": [[[[0.0, 0.0]]]]}}))
        code, doc = run_cli(["check", str(p)], capsys)
        assert code == 65

    def test_non_string_setting_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "req.json"
        for cmd in ("check", "agler"):
            for setting in ([], {}, 3):
                p.write_text(json.dumps({"schema_version": "1", "setting": setting,
                                         "payload": {}}))
                code, doc = run_cli([cmd, str(p)], capsys)
                assert code == 65, (cmd, setting)
                assert doc["error"]["code"] == "data"

    def test_nan_point_is_domain_error(self, tmp_path, capsys):
        nan, zero, one = [float("nan"), 0.0], [0.0, 0.0], [[[1.0, 0.0]]]
        p = tmp_path / "req.json"
        for cmd, setting, payload in [
                ("check", "disk.fov", {"points": [nan, zero], "values": [one, one]}),
                ("check", "ball.da_fov", {"points": [[nan, zero], [zero, zero]],
                                          "values": [one, one]}),
                ("agler", "polydisk.agler_scalar", {"points": [[nan, zero], [zero, zero]],
                                                    "values": [zero, zero]})]:
            p.write_text(json.dumps({"schema_version": "1", "setting": setting,
                                     "payload": payload}))
            code = cli.main([cmd, str(p)])
            captured = capsys.readouterr()
            assert code == 65, setting
            assert json.loads(captured.out)["error"]["code"] == "DomainError"
            assert captured.err == ""

    def test_budget_exhaustion_is_unknown(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PICKLAB_BUDGET", "2")
        code, doc = run_cli(["check", str(FIXTURES / "ball_nc_ltoa_scalar.json")],
                            capsys)
        assert code == 2
        assert doc["verdict"] == "unknown"
        assert doc["error"]["code"] == "budget"

    def test_invalid_budget_is_data_error(self, capsys, monkeypatch):
        for raw in ("0", "-3", "many"):
            monkeypatch.setenv("PICKLAB_BUDGET", raw)
            code, doc = run_cli(["check", str(FIXTURES / "ball_nc_ltoa_scalar.json")],
                                capsys)
            assert code == 65
            assert doc["error"]["code"] == "ArgumentError"

    def test_mismatched_direction_widths_is_data_error(self, tmp_path, capsys):
        z, one = [[[0.3, 0.0]]], [[[1.0, 0.0]]]
        p = tmp_path / "req.json"
        p.write_text(json.dumps({
            "schema_version": "1", "setting": "disk.ltoa",
            "payload": {"operator_points": [z, z],
                        "directions": [one, [[[1.0, 0.0], [0.0, 0.0]]]],
                        "targets": [z, z]}}))
        code, doc = run_cli(["check", str(p)], capsys)
        assert code == 65
        assert doc["error"]["code"] == "DimensionError"

    def test_rd_target_of_other_shape_is_data_error(self, tmp_path, capsys):
        def unit(rows, cols):
            return [[[float(r == k), 0.0] for k in range(cols)] for r in range(rows)]

        Z = [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]]
        p = tmp_path / "req.json"
        for setting, X, Y in [("disk.ltrd", unit(2, 2), unit(3, 2)),   # 3 rows
                              ("disk.rtrd", unit(2, 2), unit(2, 3))]:  # 3 columns
            p.write_text(json.dumps({"schema_version": "1", "setting": setting,
                                     "payload": {"operator_points": [Z],
                                                 "directions": [X], "targets": [Y]}}))
            code = cli.main(["check", str(p)])
            captured = capsys.readouterr()
            assert code == 65, setting
            assert json.loads(captured.out)["error"]["code"] == "DimensionError"
            assert captured.err == ""

    def test_ragged_agler_points_is_data_error(self, tmp_path, capsys):
        z = [0.1, 0.0]
        one, wide = [[z]], [[z, [0.0, 0.0]]]
        p = tmp_path / "req.json"
        for setting, payload in [
                ("polydisk.agler_scalar", {"points": [[z, z], [z]], "values": [z, z]}),
                # directions of widths 1 and 2
                ("polydisk.agler_ltoa", {"operator_points": [[one, one]] * 2,
                                         "directions": [one, wide],
                                         "targets": [one, wide]})]:
            p.write_text(json.dumps({"schema_version": "1", "setting": setting,
                                     "payload": payload}))
            code, doc = run_cli(["agler", str(p)], capsys)
            assert code == 65
            assert doc["error"]["code"] == "DimensionError"

    def test_agler_exit_codes(self, capsys):
        code, doc = run_cli(["agler", str(FIXTURES / "agler_bidisk_feasible.json")],
                            capsys)
        assert code == 0
        assert doc["verdict"] == "feasible_with_certificate"
        code, doc = run_cli(
            ["agler", str(FIXTURES / "agler_forced_infeasible.json")], capsys)
        assert code == 1
        assert doc["verdict"] == "infeasible_evidence"
        assert doc["gap_estimate"] >= 1e-3

    def test_polydisk_under_check_is_usage(self, capsys):
        code, doc = run_cli(["check", str(FIXTURES / "agler_bidisk_feasible.json")],
                            capsys)
        assert code == 64

    def test_bad_flag_is_usage(self, capsys):
        code = cli.main(["check", "--no-such-flag", "x.json"])
        capsys.readouterr()
        assert code == 64


class TestDeterminism:
    def test_check_reports_byte_identical_modulo_timings(self, capsys):
        for argv, expect in [
                (["check", str(FIXTURES / "quiver_qltoa_two_vertex.json"),
                  "--seed", "7"], 0),
                (["agler", str(FIXTURES / "agler_bidisk_feasible.json"),
                  "--embed-certificate"], 0),
                (["agler", str(FIXTURES / "agler_forced_infeasible.json")], 1)]:
            docs = []
            for _ in range(2):
                code, doc = run_cli(argv, capsys)
                assert code == expect
                doc.pop("timings_ms")
                docs.append(json.dumps(doc, sort_keys=True))
            assert docs[0] == docs[1]

    def test_sample_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, doc = run_cli(["sample", "--kind", "disk.poly", "--degree",
                                 "3", "--seed", "11", "--rows", "2",
                                 "--cols", "2"], capsys)
            assert code == 0
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_necessity_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, doc = run_cli(["necessity", "disk.fov", "--trials", "3",
                                 "--seed", "5"], capsys)
            assert code == 0
            doc.pop("timings_ms")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]


class TestSchemas:
    def test_all_fixture_requests_validate(self):
        for name in ["disk_fov_feasible.json", "disk_fov_infeasible.json",
                     "agler_bidisk_feasible.json", "agler_forced_infeasible.json",
                     "quiver_qltoa_two_vertex.json", "ball_nc_ltoa_scalar.json"]:
            doc = json.loads((FIXTURES / name).read_text())
            cli.validate_document(doc, "request.schema.json")

    def test_map_fixture_validates(self):
        doc = json.loads((FIXTURES / "map_transpose.json").read_text())
        cli.validate_document(doc, "map.schema.json")

    def test_emitted_reports_validate(self, capsys):
        for name, cmd in [("disk_fov_feasible.json", "check"),
                          ("disk_fov_infeasible.json", "check"),
                          ("quiver_qltoa_two_vertex.json", "check"),
                          ("agler_forced_infeasible.json", "agler")]:
            _, doc = run_cli([cmd, str(FIXTURES / name)], capsys)
            cli.validate_document(doc, "report.schema.json")

    def test_sample_round_trip(self, capsys, tmp_path):
        out = tmp_path / "sample.json"
        code, doc = run_cli(["sample", "--kind", "ball.poly", "--degree", "2",
                             "--seed", "3", "--letters", "2", "--rows", "2",
                             "--cols", "2", "--out", str(out)], capsys)
        assert code == 0
        cli.validate_document(doc, "sample.schema.json")
        from picklab import serialize
        sample = serialize.sample_from_json(json.loads(out.read_text()))
        doc2 = serialize.sample_to_json(sample)
        assert json.dumps(doc2, sort_keys=True) == json.dumps(doc, sort_keys=True)

    def test_report_pick_matrix_hermitian(self, capsys):
        code, doc = run_cli(["check", str(FIXTURES / "disk_fov_feasible.json"),
                             "--emit-pick"], capsys)
        assert code == 0
        from picklab import matcore, serialize
        M = serialize.matrix_from_json(doc["pick_matrix"])
        assert (matcore.hermitize(M) == M).all()


class TestLiteralUnweightedFlag:
    def test_flag_switches_da_sum(self, tmp_path, capsys):
        req = {
            "schema_version": "1",
            "setting": "ball.da_ltoa",
            "payload": {
                "operator_points": [[[[[0.3, 0.0]]], [[[0.4, 0.0]]]]],
                "directions": [[[[1.0, 0.0]]]],
                "targets": [[[[0.0, 0.0]]]],
            },
        }
        p = tmp_path / "req.json"
        p.write_text(json.dumps(req))
        _, weighted = run_cli(["check", str(p), "--emit-pick"], capsys)
        _, literal = run_cli(["check", str(p), "--emit-pick",
                              "--literal-unweighted"], capsys)
        w = weighted["pick_matrix"][0][0][0]
        l = literal["pick_matrix"][0][0][0]
        # word sum gives 1/(1 - 0.09 - 0.16); literal gives the product kernel
        assert w == pytest.approx(1 / (1 - 0.25), abs=1e-9)
        assert l == pytest.approx(1 / ((1 - 0.09) * (1 - 0.16)), abs=1e-9)


class TestChoiCommands:
    def test_choi_of_transpose(self, capsys):
        code, doc = run_cli(["choi", str(FIXTURES / "map_transpose.json")],
                            capsys)
        assert code == 0
        assert doc["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-12)

    def test_cpcheck_rejects_transpose(self, capsys):
        code, doc = run_cli(["cpcheck", str(FIXTURES / "map_transpose.json"),
                             "--seed", "1"], capsys)
        assert code == 1
        assert not doc["is_cp"]
        assert "witness" in doc

    def test_cpcheck_accepts_identity(self, tmp_path, capsys):
        ident = {"schema_version": "1", "in_dim": 2, "out_dim": 2,
                 "unit_images": [[[[[1.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.0, 0.0]]],
                                  [[[0.0, 0.0], [1.0, 0.0]],
                                   [[0.0, 0.0], [0.0, 0.0]]]],
                                 [[[[0.0, 0.0], [0.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 0.0]]],
                                  [[[0.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [1.0, 0.0]]]]]}
        p = tmp_path / "ident.json"
        p.write_text(json.dumps(ident))
        code, doc = run_cli(["cpcheck", str(p)], capsys)
        assert code == 0
        assert doc["is_cp"]


class TestAglerCertificateEmission:
    def test_certificate_file_written_and_verifies(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code, doc = run_cli(
            ["agler", str(FIXTURES / "agler_bidisk_feasible.json"),
             "--emit-certificate", str(cert_path)], capsys)
        assert code == 0
        cert = json.loads(cert_path.read_text())
        from picklab import agler, serialize
        kernels = [serialize.matrix_from_json(K) for K in cert["kernels"]]
        prob = agler.scalar_problem([[0.0, 0.0], [0.5, 0.0]], [0.0, 0.5])
        res, eigs = agler.verify_certificate(prob, kernels)
        assert res <= 2e-6
        assert min(eigs) >= -2e-6


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "picklab.cli", "check",
         str(FIXTURES / "disk_fov_feasible.json")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "feasible"
    assert proc.stderr == ""


# scipy.linalg and jsonschema each cost about as much to import as a whole
# small request; a request loads only the modules of its own setting
_NOT_LOADED = {
    ("check", "disk_fov_feasible.json"): (
        "scipy", "jsonschema", "picklab.agler", "picklab.cp", "picklab.oracle",
        "picklab.necessity", "picklab.quiver"),
    ("agler", "agler_bidisk_feasible.json"): (
        "scipy", "jsonschema", "picklab.cp", "picklab.oracle", "picklab.necessity"),
}


def test_cli_subcommands_load_only_their_modules():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for (command, fixture), forbidden in _NOT_LOADED.items():
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "picklab.cli", command,
             str(FIXTURES / fixture)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout
        loaded = {line.rsplit("|", 1)[-1].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "numpy" in loaded and "picklab.serialize" in loaded
        bad = sorted(m for m in loaded
                     if any(m == p or m.startswith(p + ".") for p in forbidden))
        assert bad == [], (command, fixture, bad)
