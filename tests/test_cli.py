import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from picklab import agler, ball, cli, cp, disk, quiver, serialize

FIXTURES = Path(__file__).parent / "fixtures"


_C, _ONE = [1.0, 0.0], [[[1.0, 0.0]]]  # a complex scalar, a 1 x 1 matrix


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

    # one case per reader: request, map, quiver file
    @pytest.mark.parametrize("argv", [["check"], ["choi"],
                                      ["sample", "--kind", "quiver.poly", "--degree",
                                       "1", "--quiver-file"]], ids="_".join)
    def test_undecodable_bytes_are_data_error(self, argv, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe\xfd")
        code = cli.main(argv + [str(p)])
        captured = capsys.readouterr()
        assert code == 65
        error = json.loads(captured.out)["error"]
        assert (error["code"], error["path"]) == ("data", str(p))
        assert captured.err == ""

    # one case per output file: the Agler certificate, the sample
    @pytest.mark.parametrize("argv", [
        ["agler", str(FIXTURES / "agler_bidisk_feasible.json"), "--emit-certificate"],
        ["sample", "--kind", "disk.poly", "--degree", "2", "--seed", "1", "--out"]],
        ids=lambda argv: argv[0])
    def test_unwritable_output_is_data_error(self, argv, tmp_path, capsys):
        p = tmp_path / "missing" / "out.json"
        code = cli.main(argv + [str(p)])
        captured = capsys.readouterr()
        assert code == 65
        error = json.loads(captured.out)["error"]
        assert (error["code"], error["path"]) == ("data", str(p))
        assert error["message"].startswith("cannot write ")
        assert captured.err == ""
        assert not p.parent.exists()

    def test_invalid_payload_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "req.json"
        p.write_text(json.dumps({"schema_version": "1", "setting": "disk.fov",
                                 "payload": {"points": [[0.0, 0.0]]}}))
        code, doc = run_cli(["check", str(p)], capsys)
        assert code == 65

    def test_invalid_option_reports_its_path(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "disk_fov_feasible.json").read_text())
        for name, bad in [("max_iter", 0), ("max_iter", True), ("max_iter", "many"),
                          ("max_iter", 2.5), ("tol", float("nan")),
                          ("tol", float("inf"))]:
            doc["options"] = {name: bad}
            p = tmp_path / "req.json"
            p.write_text(json.dumps(doc))
            code, out = run_cli(["check", str(p)], capsys)
            assert code == 65, bad
            assert out["error"]["code"] == "data"
            assert out["error"]["path"] == f"/options/{name}"

    @pytest.mark.parametrize("argv, path", [
        (["agler", "--tol", "-1", "agler_bidisk_feasible.json"], "/options/tol"),
        (["agler", "--tol", "nan", "agler_bidisk_feasible.json"], "/options/tol"),
        (["agler", "--tol", "inf", "agler_bidisk_feasible.json"], "/options/tol"),
        (["agler", "--max-iter", "-3", "agler_bidisk_feasible.json"],
         "/options/max_iter"),
        (["check", "--tol", "-1", "disk_fov_feasible.json"], "/options/tol"),
        (["check", "--tol", "nan", "disk_fov_feasible.json"], "/options/tol"),
        (["check", "--tol", "inf", "disk_fov_feasible.json"], "/options/tol"),
        (["check", "--max-level", "-1", "disk_fov_feasible.json"],
         "/options/max_level"),
        (["sample", "--kind", "quiver.poly", "--degree", "1", "--quiver-file",
          "quiver.json"], "/arrows/0"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else v)
    def test_bad_flag_or_quiver_file_reports_its_path(self, argv, path, tmp_path,
                                                       capsys):
        # a quiver file whose arrows use other keys than src and rng
        (tmp_path / "quiver.json").write_text(json.dumps({
            "vertices": ["a"], "arrows": [{"name": "x", "source": "a", "target": "a"}],
            "in_dims": {"a": 1}, "out_dims": {"a": 1}}))
        code = cli.main([str(tmp_path / a) if a == "quiver.json"
                         else str(FIXTURES / a) if a.endswith(".json") else a
                         for a in argv])
        captured = capsys.readouterr()
        assert code == 65
        error = json.loads(captured.out)["error"]
        assert (error["code"], error["path"]) == ("data", path)
        assert captured.err == ""

    def test_zero_tol_never_calls_feasible_data_infeasible(self, capsys):
        code, doc = run_cli(["agler", "--tol", "0",
                             str(FIXTURES / "agler_bidisk_feasible.json")], capsys)
        assert doc["verdict"] != "infeasible_evidence"
        assert code != 1

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

    @pytest.mark.parametrize("in_dim, out_dim, images, path", [
        (2, 1, [[_ONE, _ONE]], "/unit_images"),
        (2, 1, [[_ONE, _ONE], [_ONE]], "/unit_images/1"),
        # the shallowest level speaks: row 0's image is too wide, row 1 short
        (2, 1, [[[[_C, _C]], _ONE], [_ONE]], "/unit_images/1"),
        # a 1 x 1 image, or two rows of width 1, in a 2 x 2 slot
        (1, 2, [[_ONE]], "/unit_images/0/0"),
        (1, 2, [[[[_C], [_C]]]], "/unit_images/0/0"),
    ])
    def test_map_of_wrong_shape_reports_its_path(self, in_dim, out_dim, images,
                                                 path, tmp_path, capsys):
        p = tmp_path / "map.json"
        p.write_text(json.dumps({"schema_version": "1", "in_dim": in_dim,
                                 "out_dim": out_dim, "unit_images": images}))
        for cmd in ("choi", "cpcheck"):
            code = cli.main([cmd, str(p)])
            captured = capsys.readouterr()
            assert code == 65
            error = json.loads(captured.out)["error"]
            assert (error["code"], error["path"]) == ("data", path)
            assert captured.err == ""

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_map_with_non_finite_entry_reports_its_path(self, bad, tmp_path,
                                                        capsys):
        # Python's JSON reader accepts these; the first such image is named
        p = tmp_path / "map.json"
        nonfinite = f"[[[{bad}, 0.0]]]"
        p.write_text('{"schema_version": "1", "in_dim": 2, "out_dim": 1, '
                     f'"unit_images": [[{json.dumps(_ONE)}, {json.dumps(_ONE)}], '
                     f'[{nonfinite}, {nonfinite}]]}}')
        for cmd in ("choi", "cpcheck"):
            code = cli.main([cmd, str(p)])
            captured = capsys.readouterr()
            assert code == 65
            error = json.loads(captured.out)["error"]
            assert (error["code"], error["path"]) == ("data", "/unit_images/1/0")
            assert captured.err == ""

    @pytest.mark.parametrize("argv", [
        ["sample", "--kind", "disk.poly", "--degree", "2", "--rows", "0"],
        ["sample", "--kind", "disk.poly", "--degree", "2", "--cols", "-1"],
        ["sample", "--kind", "disk.poly", "--degree", "-1"],
        ["sample", "--kind", "ball.poly", "--degree", "1", "--letters", "2",
         "--rows", "0"],
        ["sample", "--kind", "disk.poly", "--degree", "2", "--seed", "-1"],
        ["sample", "--kind", "disk.blaschke", "--degree", "2", "--seed", "-1"],
        ["necessity", "disk.fov", "--trials", "0"],
        ["necessity", "disk.fov", "--trials", "-3"],
        ["necessity", "disk.fov", "--seed", "-1"],
    ], ids="_".join)
    def test_bad_size_trials_or_seed_is_argument_error(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 65
        assert json.loads(captured.out)["error"]["code"] == "ArgumentError"
        assert captured.err == ""

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
        # budget 2 over 2 arrows allows level 1: M = 1 and r^2 = 1/2, so the
        # bound is r^2 / (1 - r^2) * ||C_1|| = 1 * 1/2
        assert doc["error"]["achieved_bound"] == pytest.approx(0.5)

    def test_max_level_caps_the_levels_summed(self, tmp_path, capsys):
        # 2 conditions, d = 2, 2 x 2 blocks of row norm 0.5: the sum reaches
        # series_tol at level 21, whatever the number of condition pairs
        s = 0.5 / np.sqrt(2)
        points = [[s * np.eye(2), s * np.eye(2)],
                  [s * np.diag([1, -1]), s * np.diag([1j, 1])]]
        p = tmp_path / "req.json"
        mats = serialize.matrix_to_json
        p.write_text(json.dumps({"schema_version": "1", "setting": "ball.nc_ltoa",
                                 "payload": {
            "operator_points": [[mats(M) for M in Z] for Z in points],
            "directions": [mats(k * np.eye(2)) for k in (1, 2)],
            "targets": [mats(k * np.eye(2)) for k in (0.1, 0.2)]}}))
        code, doc = run_cli(["check", str(p), "--max-level", "21"], capsys)
        assert (code, doc["verdict"], doc["method"]) == (0, "feasible",
                                                         "truncated_series")
        code, doc = run_cli(["check", str(p), "--max-level", "20"], capsys)
        assert (code, doc["verdict"], doc["error"]["code"]) == (2, "unknown", "budget")

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

    @pytest.mark.parametrize("where", ["dims", "point", "direction"])
    def test_unknown_quiver_name_is_data_error(self, where, tmp_path, capsys):
        doc = json.loads((FIXTURES / "quiver_qltoa_two_vertex.json").read_text())
        payload, block = doc["payload"], [[[0.5, 0.0]]]
        if where == "dims":
            payload["quiver"]["dims"]["zz"] = 1
        elif where == "point":
            payload["points"][0]["gamma"] = block
        else:
            payload["directions"][0]["zz"] = block
        p = tmp_path / "req.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["check", str(p)], capsys)
        assert code == 65
        assert out["error"]["code"] == "ShapeError"

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
        assert doc["error"]["message"] == ("setting 'polydisk.agler_scalar' is "
                                           "handled by the 'agler' subcommand")

    @pytest.mark.parametrize("fixture, setting", [
        ("disk_fov_feasible.json", "disk.fov"),
        ("quiver_qltoa_two_vertex.json", "quiver.qltoa"),
    ])
    def test_non_polydisk_under_agler_is_usage(self, fixture, setting, capsys):
        code, doc = run_cli(["agler", str(FIXTURES / fixture)], capsys)
        assert code == 64
        assert doc["error"]["code"] == "usage"
        assert doc["error"]["message"] == (f"setting {setting!r} is handled by "
                                           f"the 'check' subcommand")

    def test_agler_over_the_schur_budget_is_unknown(self, tmp_path, capsys):
        # d = 2 and N = 513 scalar points: the start's kernels would hold
        # 2 N^2 entries, more than the budget
        N = 513
        assert 2 * N * N > agler.SCHUR_BUDGET
        p = tmp_path / "req.json"
        p.write_text(json.dumps({
            "schema_version": "1", "setting": "polydisk.agler_scalar",
            "payload": {"points": [[[0.1, 0.0], [0.0, 0.2]]] * N,
                        "values": [[0.0, 0.0]] * N}}))
        code, doc = run_cli(["agler", str(p)], capsys)
        assert code == 2
        assert doc["verdict"] == "unknown"
        assert doc["error"]["code"] == "budget"
        cli.validate_document(doc, "report.schema.json")

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

    def test_valid_quiver_file_gives_a_sample(self, capsys, tmp_path):
        quiver_file = tmp_path / "quiver.json"
        quiver_file.write_text(json.dumps({
            "vertices": ["a", "b"],
            "arrows": [{"name": "x", "src": "a", "rng": "b"},
                       {"name": "y", "src": "b", "rng": "a"}],
            "in_dims": {"a": 1, "b": 2}, "out_dims": {"a": 2, "b": 1}}))
        code, doc = run_cli(["sample", "--kind", "quiver.poly", "--degree", "2",
                             "--quiver-file", str(quiver_file)], capsys)
        assert code == 0
        cli.validate_document(doc, "sample.schema.json")
        assert doc["in_dims"] == {"a": 1, "b": 2}

    def test_report_pick_matrix_hermitian(self, capsys):
        code, doc = run_cli(["check", str(FIXTURES / "disk_fov_feasible.json"),
                             "--emit-pick"], capsys)
        assert code == 0
        from picklab import matcore, serialize
        M = serialize.matrix_from_json(doc["pick_matrix"])
        assert (matcore.hermitize(M) == M).all()


def _to_json(obj):
    """Encode test data: arrays as matrices, complex numbers as [re, im]."""
    if isinstance(obj, np.ndarray):
        return serialize.matrix_to_json(obj)
    if isinstance(obj, complex):
        return serialize.complex_to_json(obj)
    if isinstance(obj, list):
        return [_to_json(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _to_json(v) for k, v in obj.items()}
    return obj


def _mat(rows):
    return np.array(rows, dtype=complex)


_I2 = np.eye(2, dtype=complex)
_Z = [_mat([[0.3, 0.1], [0, -0.2]]), _mat([[0.1j, 0], [0.2, 0.4]])]
_W = _mat([[0.2, 0.1], [0, 0.1]])
_GAMMA = quiver.two_vertex_example()[0]
_QUIVER = serialize.quiver_to_json(_GAMMA, {"a": 1, "b": 1})
_BALL_POINTS = [[0.3 + 0j, 0.2j], [-0.1 + 0j, 0.4 + 0j]]
_DISK_OA = {"operator_points": _Z, "directions": [_I2, _I2],
            "targets": [_mat([[0.3, 0], [0, 0.2]]), _mat([[0.1, 0.2], [0, 0.3]])]}
_NC = {"operator_points": [_Z, [_mat([[0.2, 0], [0, 0.1]]), _mat([[0.1, 0], [0.3, 0]])]],
       "directions": [_I2, _I2], "targets": [_mat([[0.2, 0], [0, 0.1]]), _W]}
# one small valid payload per setting, feasible and infeasible ones both
_PAYLOADS = {
    "disk.fov": {"points": [0.3 + 0j, 0.5j], "values": [_mat([[0.1]]), _mat([[0.2 + 0.1j]])]},
    "disk.lt": {"points": [0.3 + 0j, -0.4j], "directions": [_mat([[1, 0]]), _mat([[0, 1]])],
                "targets": [_mat([[0.5]]), _mat([[0.2j]])]},
    "disk.rt": {"points": [0.3 + 0j, -0.4j], "directions": [_mat([[1], [0]]), _mat([[0], [1]])],
                "targets": [_mat([[0.5]]), _mat([[0.2j]])]},
    "disk.ltoa": _DISK_OA,
    "disk.rtoa": _DISK_OA,
    "disk.frd": {"operator_points": _Z[:1], "values": [_W]},
    "disk.ltrd": {"operator_points": _Z[:1], "directions": [_I2], "targets": [_W]},
    "disk.rtrd": {"operator_points": _Z[:1], "directions": [_I2], "targets": [_W],
                  "basis_dim": 2},
    "disk.nevanlinna_rd": {"operator_point": _mat([[1.0, 0.3], [0, 0.5]]),
                           "value": _mat([[0.8, 0.1], [0, 0.4]])},
    "ball.da_fov": {"points": _BALL_POINTS, "values": [_mat([[0.1]]), _mat([[0.3]])]},
    "ball.da_lt": {"points": _BALL_POINTS, "directions": [_mat([[1]]), _mat([[1]])],
                   "targets": [_mat([[0.1]]), _mat([[0.3]])]},
    "ball.da_ltoa": {"operator_points": [[_mat([[0.3, 0], [0, 0.1]]),
                                          _mat([[0.2j, 0], [0, -0.3]])]],
                     "directions": [_I2], "targets": [_mat([[0.2, 0], [0, 0.1]])]},
    "ball.nc_ltoa": _NC,
    "ball.nc_frd": {"operator_points": [_Z], "values": [_W]},
    "ball.nc_frd_star": {"operator_points": [_Z], "values": [_W], "basis_dim": 2},
    "quiver.qltt": {"quiver": _QUIVER, "y_dims": {"a": 1, "b": 1},
                    "points": [{"alpha": _mat([[0.5]]), "beta": _mat([[0.3]])},
                               {"alpha": _mat([[0.2j]]), "beta": _mat([[-0.4]])}],
                    "directions": [_mat([[1, 0]]), _mat([[0, 1]])],
                    "targets": [_mat([[0.3, 0]]), _mat([[0.1, 0.2]])]},
    "quiver.qltrd": {"quiver": _QUIVER,
                     "points": [{"alpha": _mat([[0.5]]), "beta": _mat([[0.3]])}],
                     "directions": [_I2], "targets": [_mat([[0.2, 0.1], [0, 0.3]])]},
    "quiver.qltoa": {"quiver": _QUIVER,
                     "points": [{"alpha": _mat([[0.5]]), "beta": _mat([[0.5]])}],
                     "directions": [{"a": _mat([[0.5]]), "b": _mat([[0.5]])}],
                     "targets": [{"a": _mat([[0.25]]), "b": _mat([[0.25]])}]},
    "polydisk.agler_scalar": {"points": [[0j, 0j], [0.5 + 0j, 0j]], "values": [0j, 0.3 + 0j]},
    "polydisk.agler_ltoa": {"operator_points": [[_mat([[0]]), _mat([[0]])],
                                                [_mat([[0.3]]), _mat([[0]])]],
                            "directions": [_mat([[1]]), _mat([[1]])],
                            "targets": [_mat([[0]]), _mat([[0.9]])]},
    "polydisk.agler_nc_rd": {"operator_points": [[_mat([[0.3]]), _mat([[0.2]])]],
                             "values": [_mat([[0.1]])]},
}


def _direct_call(setting, p):
    """The library call that `setting` stands for, on the unencoded payload."""
    dims = quiver.Grading(_GAMMA, {"a": 1, "b": 1})

    def points(kind):
        return [quiver.QuiverPoint(kind, b) for b in p["points"]]

    calls = {
        "disk.fov": lambda: disk.pick_fov(p["points"], p["values"]),
        "disk.lt": lambda: disk.pick_lt(p["points"], p["directions"], p["targets"]),
        "disk.rt": lambda: disk.pick_rt(p["points"], p["directions"], p["targets"]),
        "disk.ltoa": lambda: disk.pick_ltoa(*_DISK_OA.values()),
        "disk.rtoa": lambda: disk.pick_rtoa(*_DISK_OA.values()),
        "disk.frd": lambda: disk.pick_frd(p["operator_points"], p["values"]),
        "disk.ltrd": lambda: disk.pick_ltrd(p["operator_points"], p["directions"],
                                            p["targets"]),
        "disk.rtrd": lambda: disk.pick_rtrd(p["operator_points"], p["directions"],
                                            p["targets"], 2),
        "disk.nevanlinna_rd": lambda: disk.nevanlinna_rd_check(p["operator_point"],
                                                               p["value"]),
        "ball.da_fov": lambda: ball.pick_da_fov(p["points"], p["values"]),
        "ball.da_lt": lambda: ball.pick_da_lt(p["points"], p["directions"], p["targets"]),
        "ball.da_ltoa": lambda: ball.pick_da_ltoa(p["operator_points"], p["directions"],
                                                  p["targets"]),
        "ball.nc_ltoa": lambda: ball.pick_nc_ltoa(*_NC.values()),
        "ball.nc_frd": lambda: ball.pick_nc_frd(p["operator_points"], p["values"]),
        "ball.nc_frd_star": lambda: ball.pick_nc_frd_star(p["operator_points"],
                                                          p["values"], 2),
        "quiver.qltt": lambda: quiver.pick_qltt(
            _GAMMA, dims, quiver.Grading(_GAMMA, p["y_dims"]), points("tensor"),
            p["directions"], p["targets"]),
        "quiver.qltrd": lambda: quiver.pick_qltrd(_GAMMA, dims, points("tensor"),
                                                  p["directions"], p["targets"]),
        "quiver.qltoa": lambda: quiver.pick_qltoa(
            _GAMMA, dims, points("operator_argument"), p["directions"], p["targets"]),
        "polydisk.agler_scalar": lambda: agler.scalar_problem(p["points"], p["values"]),
        "polydisk.agler_ltoa": lambda: agler.nc_ltoa_problem(
            p["operator_points"], p["directions"], p["targets"]),
        "polydisk.agler_nc_rd": lambda: agler.nc_rd_problem(p["operator_points"],
                                                            p["values"]),
    }
    return calls[setting]()


_SETTING_ENUM = cli._schema("request.schema.json")["properties"]["setting"]["enum"]


def test_settings_table_is_the_schema_enum():
    assert set(cli._SETTINGS) == set(_SETTING_ENUM) == set(_PAYLOADS)
    assert len(cli._SETTINGS) == len(_SETTING_ENUM) == 21


@pytest.mark.parametrize("setting", _SETTING_ENUM)
def test_every_setting_reports_its_library_call(setting, tmp_path, capsys):
    """One valid request per setting through cli.main gives the verdict,
    smallest eigenvalue, method, tail and Pick matrix of the direct call
    (status and iterations for the Agler settings)."""
    payload = _PAYLOADS[setting]
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"schema_version": "1", "setting": setting,
                                "payload": _to_json(payload)}))
    expected = _direct_call(setting, payload)
    if setting.startswith("polydisk."):
        rep = agler.solve_feasibility(expected)
        code, doc = run_cli(["agler", str(path)], capsys)
        assert (doc["verdict"], doc["iterations"]) == (rep.status, rep.iterations)
        assert code == (0 if rep.status == "feasible_with_certificate" else 1)
        return
    code, doc = run_cli(["check", str(path), "--emit-pick"], capsys)
    reps = expected if isinstance(expected, dict) else {None: expected}
    worst = min(reps.values(), key=lambda r: r.min_eigenvalue)
    feasible = all(r.feasible for r in reps.values())
    assert code == (0 if feasible else 1)
    assert doc["verdict"] == ("feasible" if feasible else "infeasible")
    assert doc["min_eigenvalue"] == worst.min_eigenvalue
    assert doc["method"] == worst.method
    assert doc["tail_bound"] == max(r.tail_bound for r in reps.values())
    if isinstance(expected, dict):
        assert {v: d["min_eigenvalue"] for v, d in doc["vertex_verdicts"].items()} \
            == {v: r.min_eigenvalue for v, r in expected.items()}
    else:
        assert np.array_equal(serialize.matrix_from_json(doc["pick_matrix"]),
                              expected.pick)


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

    @pytest.mark.parametrize("extra", [[], ["--max-level", "5"]])
    def test_near_boundary_literal_sum_is_one_stein_solve(self, tmp_path, capsys,
                                                          extra):
        # |lam_2| = 0.85 needs hundreds of multi-index levels; the nested
        # one-arrow solve takes no budget, so --max-level does not apply
        req = {
            "schema_version": "1",
            "setting": "ball.da_ltoa",
            "payload": {
                "operator_points": [[[[[0.7, 0.0]]], [[[0.0, 0.7]]]],
                                    [[[[0.0, -0.5]]], [[[0.85, 0.0]]]]],
                "directions": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]],
                "targets": [[[[0.3, 0.0]]], [[[0.2, 0.0]]]],
            },
        }
        p = tmp_path / "req.json"
        p.write_text(json.dumps(req))
        code, doc = run_cli(["check", str(p), "--literal-unweighted"] + extra,
                            capsys)
        assert code == 0
        assert doc["method"] == "stein_solve"
        pts = np.array([[0.7, 0.7j], [-0.5j, 0.85]])
        y = np.array([0.3, 0.2])
        kern = np.prod(1 / (1 - pts[:, None, :] * pts[None, :, :].conj()), axis=2)
        expect = np.linalg.eigvalsh(kern * (1 - np.outer(y, y)))[0]
        assert doc["min_eigenvalue"] == pytest.approx(expect, rel=1e-12)


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


    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_cpcheck_bad_tol_is_data_error(self, tol, tmp_path, capsys):
        # a completely positive map, which --tol nan used to reject with a
        # witness and --tol inf accepts whatever the map
        phi = cp.blockwise_conditional_expectation([1, 1], 1)
        p = tmp_path / "map.json"
        p.write_text(json.dumps({
            "schema_version": "1", "in_dim": phi.in_dim, "out_dim": phi.out_dim,
            "unit_images": [[serialize.matrix_to_json(image) for image in row]
                            for row in phi.unit_images]}))
        code = cli.main(["cpcheck", str(p), "--tol", tol])
        captured = capsys.readouterr()
        assert code == 65
        error = json.loads(captured.out)["error"]
        assert error["code"] == "ArgumentError"
        assert "tolerance" in error["message"]
        assert captured.err == ""


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
# small request, and numpy.fft (reached only through np.fft inside the
# oracle) about 1 ms more; a request loads only the modules of its own setting
_NOT_LOADED = {
    ("check", "disk_fov_feasible.json"): (
        "scipy", "jsonschema", "numpy.fft", "picklab.agler", "picklab.cp",
        "picklab.oracle", "picklab.necessity", "picklab.quiver"),
    ("agler", "agler_bidisk_feasible.json"): (
        "scipy", "jsonschema", "numpy.fft", "picklab.cp", "picklab.oracle",
        "picklab.necessity"),
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
