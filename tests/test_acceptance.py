"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is fixed here, not calibrated elsewhere.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from picklab import agler, ball, cli, cp, disk, matcore, necessity, oracle
from picklab import quiver as qv
from picklab.cp import LinearMapOnMatrices
from picklab.quiver import Grading, QuiverPoint
from picklab.reports import basis_columns
from reference import stein_series, stein_tail_bound

FIXTURES = Path(__file__).parent / "fixtures"


def _line(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def contraction(rng, n, bound=0.6):
    M = cg(rng, n, n)
    return M * (bound / matcore.operator_norm(M))


def test_criterion_1_necessity_suites():
    started = time.monotonic()
    failures = []
    for setting in necessity.SETTINGS:
        res = necessity.run_suite(setting, trials=20, seed=20260809)
        if not res.passed:
            failures.append((setting, res.worst_margin))
    elapsed = time.monotonic() - started
    print(f"  necessity: 13 settings x 20 trials in {elapsed:.1f}s")
    _line(1, "necessity suites", not failures and elapsed < 60.0)


def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(2)
    ok = True
    tol = 1e-12

    # FOV = LT with X_i = I
    lams = [0.1 + 0.2j, -0.3 + 0.1j]
    W = [cg(rng, 2, 3) * 0.4 for _ in range(2)]
    ok &= np.max(np.abs(disk.pick_fov(lams, W).pick
                        - disk.pick_lt(lams, [np.eye(2)] * 2, W).pick)) <= tol

    # LT = LTOA at T_i = lam_i I
    X = [cg(rng, 3, 2) for _ in range(2)]
    Y = [cg(rng, 3, 4) for _ in range(2)]
    ok &= np.max(np.abs(disk.pick_lt(lams, X, Y).pick
                        - disk.pick_ltoa([l * np.eye(3) for l in lams],
                                         X, Y).pick)) <= tol

    # RD variants equal their Cartesian-product expansions
    Z = [contraction(rng, 2, 0.5) for _ in range(2)]
    Wv = [cg(rng, 2, 2) * 0.4 for _ in range(2)]
    ok &= np.max(np.abs(disk.pick_frd(Z, Wv).pick
                        - disk.pick_ltoa(*basis_columns(
                            Z, [np.eye(2)] * 2, Wv)).pick)) <= tol
    Xr = [cg(rng, 3, 2) for _ in range(2)]
    Yr = [cg(rng, 3, 2) for _ in range(2)]
    # LTRD expands over the rows of X_i, Y_i: the columns of their transposes
    pts, xs, ys = basis_columns(Z, [M.T for M in Xr], [M.T for M in Yr])
    ok &= np.max(np.abs(disk.pick_ltrd(Z, Xr, Yr).pick
                        - disk.pick_rtoa(pts, [x.T for x in xs],
                                         [y.T for y in ys]).pick)) <= tol
    U = [cg(rng, 2, 3) for _ in range(2)]
    V = [cg(rng, 2, 3) for _ in range(2)]
    ok &= np.max(np.abs(disk.pick_rtrd(Z, U, V).pick
                        - disk.pick_ltoa(*basis_columns(Z, U, V)).pick)) <= tol

    # sharp duality: LT <-> RT and LTOA <-> RTOA onto entrywise
    # adjoint-transposes (for these Hermitian matrices, onto themselves)
    plt = disk.pick_lt(lams, X, Y).pick
    prt = disk.pick_rt(*disk.sharp_lt_to_rt(lams, X, Y)).pick
    ok &= np.max(np.abs(plt - prt)) <= tol
    ok &= np.max(np.abs(prt - prt.conj().T)) <= tol
    T = [contraction(rng, 3, 0.5) for _ in range(2)]
    pl = disk.pick_ltoa(T, X, Y).pick
    pr = disk.pick_rtoa(*disk.sharp_ltoa_to_rtoa(T, X, Y)).pick
    ok &= np.max(np.abs(pl - pr)) <= tol

    # d = 1 ball = disk
    Z1 = [[contraction(rng, 3, 0.5)] for _ in range(2)]
    rb = ball.pick_nc_ltoa(Z1, X, Y, series_tol=1e-14)
    rd = disk.pick_ltoa([z[0] for z in Z1], X, Y)
    ok &= np.max(np.abs(rb.pick - rd.pick)) <= tol + rb.tail_bound

    # single-vertex quiver = ball
    G1 = qv.Quiver(("v",), ("l0", "l1"), {"l0": "v", "l1": "v"},
                   {"l0": "v", "l1": "v"})
    xd = Grading(G1, {"v": 3})
    pts, Xq, Yq = [], [], []
    for _ in range(2):
        mats = [cg(rng, 3, 3) for _ in range(2)]
        s = 0.5 / matcore.operator_norm(np.hstack(mats))
        pts.append(QuiverPoint("operator_argument",
                               {"l0": mats[0] * s, "l1": mats[1] * s}))
        Xq.append({"v": cg(rng, 3, 2)})
        Yq.append({"v": cg(rng, 3, 2)})
    repq = qv.pick_qltoa(G1, xd, pts, Xq, Yq, series_tol=1e-14)
    repb = ball.pick_nc_ltoa([[p.blocks["l0"], p.blocks["l1"]] for p in pts],
                             [x["v"] for x in Xq], [y["v"] for y in Yq],
                             series_tol=1e-14)
    ok &= np.max(np.abs(repq.pick - repb.pick)) \
        <= tol + repq.tail_bound + repb.tail_bound

    _line(2, "reduction identities", bool(ok))


def test_criterion_3_stein_lyapunov_solvers():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        A = cg(rng, n, n)
        B = cg(rng, n, n)
        A *= rng.uniform(0.1, 0.9) / max(matcore.operator_norm(A), 1e-12)
        B *= rng.uniform(0.1, 0.9) / max(matcore.operator_norm(B), 1e-12)
        Q = cg(rng, n, n)
        P = matcore.solve_stein(A, Q, B)
        res = np.linalg.norm(P - A @ P @ B.conj().T - Q, 2)
        ok &= res <= 1e-12 * np.linalg.norm(Q, 2)
        L = int(rng.integers(4, 40))
        series = stein_series(A, Q, B, L)
        ok &= (np.linalg.norm(P - series, 2)
               <= stein_tail_bound(A, Q, B, L) + 1e-13)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        Z = cg(rng, n, n) + 3 * np.eye(n)
        Q = matcore.hermitize(cg(rng, n, n))
        P = matcore.solve_lyapunov_rhp(Z, Q)
        res = np.linalg.norm(P @ Z.conj().T + Z @ P - Q, 2)
        ok &= res <= 1e-10 * max(np.linalg.norm(Q, 2), 1e-30)
    _line(3, "Stein/Lyapunov residuals", bool(ok))


def test_criterion_4_hand_checked_fixtures():
    ok = True
    tol = 1e-10

    # disk feasible / infeasible golden pair
    feas = disk.pick_fov([0.0, 0.5], [[[0.0]], [[0.5]]])
    ok &= np.max(np.abs(feas.pick - np.array([[1, 1], [1, 1]]))) <= tol
    ok &= feas.feasible
    infeas = disk.pick_fov([0.0, 0.5], [[[0.0]], [[1.0]]])
    ok &= np.max(np.abs(infeas.pick - np.array([[1, 1], [1, 0]]))) <= tol
    ok &= abs(infeas.min_eigenvalue - (1 - np.sqrt(5)) / 2) <= tol
    ok &= not infeas.feasible

    # Lyapunov z = 1, w = +/- 1 pair
    ok &= abs(disk.nevanlinna_rd_check([[1.0]], [[1.0]]).pick[0, 0] - 1.0) <= tol
    ok &= abs(disk.nevanlinna_rd_check([[1.0]], [[-1.0]]).pick[0, 0] + 1.0) <= tol

    # quiver two-vertex path set
    G, _, _ = qv.two_vertex_example()
    ok &= [p.label for p in qv.paths_up_to(G, 2)] == \
        ["a", "b", "alpha", "beta", "alphaalpha", "betaalpha"]

    # two-vertex QLTOA permutes exactly into the displayed block pair
    rng = np.random.default_rng(4)
    na = nb = 2
    xd = Grading(G, {"a": na, "b": nb})
    N = 2
    points, X, Y = [], [], []
    for _ in range(N):
        Ta, Tb = cg(rng, na, na), cg(rng, na, nb)
        s = 0.6 / matcore.operator_norm(np.hstack([Ta, Tb]))
        points.append(QuiverPoint("operator_argument",
                                  {"alpha": Ta * s, "beta": Tb * s}))
        X.append({"a": cg(rng, na, 2), "b": cg(rng, nb, 1)})
        Y.append({"a": cg(rng, na, 2), "b": cg(rng, nb, 1)})
    rep = qv.pick_qltoa(G, xd, points, X, Y, series_tol=1e-14)
    P1 = np.zeros((N * na, N * na), dtype=complex)
    P2 = np.zeros((N * nb, N * nb), dtype=complex)
    for i in range(N):
        Tbi = points[i].blocks["beta"]
        for j in range(N):
            Tbj = points[j].blocks["beta"]
            M = (X[i]["a"] @ X[j]["a"].conj().T
                 + Tbi @ X[i]["b"] @ X[j]["b"].conj().T @ Tbj.conj().T
                 - Y[i]["a"] @ Y[j]["a"].conj().T
                 - Tbi @ Y[i]["b"] @ Y[j]["b"].conj().T @ Tbj.conj().T)
            P1[i * na:(i + 1) * na, j * na:(j + 1) * na] = matcore.solve_stein(
                points[i].blocks["alpha"], M, points[j].blocks["alpha"])
            P2[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] = (
                X[i]["b"] @ X[j]["b"].conj().T - Y[i]["b"] @ Y[j]["b"].conj().T)
    xdim = xd.total
    perm = [i * xdim + r for i in range(N) for r in range(na)]
    perm += [i * xdim + na + r for i in range(N) for r in range(nb)]
    permuted = rep.pick[np.ix_(perm, perm)]
    target = np.zeros_like(permuted)
    target[:N * na, :N * na] = P1
    target[N * na:, N * na:] = P2
    ok &= np.max(np.abs(permuted - matcore.hermitize(target))) \
        <= tol + rep.tail_bound
    # structural zeros off the two blocks are exact
    ok &= np.max(np.abs(permuted[:N * na, N * na:])) == 0.0

    _line(4, "hand-checked fixtures", bool(ok))


def test_criterion_5_agler_solver():
    started = time.monotonic()
    ok = True

    # d = 1 verdict equivalence on 50 random instances (band 1e-6)
    rng = np.random.default_rng(5)
    for t in range(50):
        lams = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        if t % 2 == 0:
            s = oracle.sample_contractive_poly(1, 1, 2, "disk", seed=500 + t)
            vals = [oracle.eval_point(s, l)[0, 0] for l in lams]
        else:
            vals = list(rng.uniform(1.2, 2.0, 2)
                        * np.exp(2j * np.pi * rng.uniform(0, 1, 2)))
        pick = disk.pick_fov(lams, [[[v]] for v in vals])
        prob = agler.scalar_problem(lams.reshape(-1, 1), vals)
        rep = agler.solve_feasibility(prob, tol=1e-6, max_iter=3000)
        if pick.min_eigenvalue >= 1e-6:
            ok &= rep.status == "feasible_with_certificate"
        elif pick.min_eigenvalue <= -1e-6:
            ok &= rep.status != "feasible_with_certificate"

    # feasible bidisk fixture within budget
    prob = agler.scalar_problem([[0.0, 0.0], [0.5, 0.0]], [0.0, 0.5])
    rep = agler.solve_feasibility(prob, tol=1e-6, max_iter=10000)
    ok &= rep.status == "feasible_with_certificate"
    ok &= rep.iterations <= 10000
    res, eigs = agler.verify_certificate(prob, rep.certificate.kernels)
    ok &= res <= 1e-6 + 1e-12
    ok &= min(eigs) >= -2e-6

    # forced-indefinite-sum fixture
    prob2 = agler.scalar_problem([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.5])
    rep2 = agler.solve_feasibility(prob2, tol=1e-6, max_iter=10000)
    ok &= rep2.status == "infeasible_evidence"
    ok &= rep2.gap_estimate >= 1e-3

    elapsed = time.monotonic() - started
    print(f"  agler: 50 equivalence instances + fixtures in {elapsed:.1f}s")
    _line(5, "Agler solver", bool(ok) and elapsed < 120.0)


def test_criterion_6_choi_machinery():
    ok = True
    rng = np.random.default_rng(6)

    # transpose rejected at -1 +/- 1e-12; identity and V.V* accepted
    transp = LinearMapOnMatrices.from_callable(lambda A: A.T, 2)
    v = cp.cp_check(transp)
    ok &= (not v.is_cp) and abs(v.choi_min_eig + 1.0) <= 1e-12
    ok &= cp.cp_check(LinearMapOnMatrices.from_callable(lambda A: A, 3)).is_cp
    Vm = cg(rng, 3, 2)
    ok &= cp.cp_check(LinearMapOnMatrices.from_callable(
        lambda A: Vm @ A @ Vm.conj().T, 2)).is_cp

    # phi / phi* verdict duality on 30 random instances
    for t in range(30):
        Z = [contraction(rng, 2, 0.4) for _ in range(2)]
        if t % 2 == 0:
            s = oracle.sample_contractive_poly(1, 1, 2, "disk", seed=600 + t)
            X = [cg(rng, 2, 2) for _ in range(2)]
            Y = [X[i] @ oracle.eval_tensor(s, Z[i]) for i in range(2)]
        else:
            X = [cg(rng, 2, 2) for _ in range(2)]
            Y = [cg(rng, 2, 2) for _ in range(2)]
        a = cp.cp_check(cp.build_phi_disk(Z, X, Y), tol=1e-9).is_cp
        b = cp.cp_check(cp.build_phi_star_disk(Z, X, Y), tol=1e-9).is_cp
        ok &= a == b

    # Choi(phi_bar) permutation-similar to the QLTT direct sum at 1e-12
    G, _, _ = qv.two_vertex_example()
    zd = Grading(G, {"a": 2, "b": 1})
    vd = Grading(G, {"a": 1, "b": 1})
    N = 2
    edim = sum(vd[w] * zd[w] for w in G.vertices)
    pts, X, Y = [], [], []
    for _ in range(N):
        Za = contraction(rng, 2, 0.5)
        Zb = cg(rng, 1, 2)
        Zb *= 0.5 / matcore.operator_norm(Zb)
        pts.append(QuiverPoint("tensor", {"alpha": Za, "beta": Zb}))
        X.append(cg(rng, 2, edim))
        Y.append(cg(rng, 2, edim))
    phib = cp.build_phi_bar_quiver(G, zd, vd, pts, X, Y)
    Cb, leak = cp.condition_compression(phib, N)
    picks = qv.pick_qltt(G, zd, vd, pts, X, Y, series_tol=1e-13)
    gdim, c = zd.total, 2
    perm = []
    for w in G.vertices:
        for i in range(N):
            for t in range(zd[w]):
                base = (i * gdim + zd.offsets[w] + t) * c
                perm.extend(range(base, base + c))
    permuted = Cb[np.ix_(perm, perm)]
    target = np.zeros_like(permuted)
    off = 0
    for w in G.vertices:
        P = picks[w].pick
        target[off:off + P.shape[0], off:off + P.shape[0]] = P
        off += P.shape[0]
    ok &= leak == 0.0
    ok &= np.max(np.abs(permuted - target)) <= 1e-12

    _line(6, "Choi machinery", bool(ok))


def test_criterion_7_determinism_and_interface(tmp_path, capsys):
    ok = True

    # fixed-seed CLI runs byte-identical with timings excluded
    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out.strip()
        return code, out

    reports = []
    for _ in range(2):
        code, out = run(["check", str(FIXTURES / "quiver_qltoa_two_vertex.json"),
                         "--seed", "3"])
        ok &= code == 0
        doc = json.loads(out)
        doc.pop("timings_ms", None)
        reports.append(json.dumps(doc, sort_keys=True).encode())
    ok &= reports[0] == reports[1]

    samples = []
    for _ in range(2):
        code, out = run(["sample", "--kind", "disk.blaschke", "--degree", "2",
                         "--seed", "9"])
        ok &= code == 0
        samples.append(out.encode())
    ok &= samples[0] == samples[1]

    # exit-code contract: 0, 1, 2, 64, 65
    code, _ = run(["check", str(FIXTURES / "disk_fov_feasible.json")])
    ok &= code == 0
    code, _ = run(["check", str(FIXTURES / "disk_fov_infeasible.json")])
    ok &= code == 1
    import os
    os.environ["PICKLAB_BUDGET"] = "2"
    try:
        code, _ = run(["check", str(FIXTURES / "ball_nc_ltoa_scalar.json")])
        ok &= code == 2
    finally:
        del os.environ["PICKLAB_BUDGET"]
    badset = tmp_path / "unknown.json"
    badset.write_text(json.dumps({"schema_version": "1",
                                  "setting": "disk.unknown", "payload": {}}))
    code, _ = run(["check", str(badset)])
    ok &= code == 64
    badjson = tmp_path / "bad.json"
    badjson.write_text("{oops")
    code, _ = run(["check", str(badjson)])
    ok &= code == 65

    # shipped fixtures round-trip through the schemas
    for name in sorted(FIXTURES.iterdir()):
        doc = json.loads(name.read_text())
        schema = ("map.schema.json" if name.name.startswith("map_")
                  else "request.schema.json")
        cli.validate_document(doc, schema)
    for name, cmd in [("disk_fov_feasible.json", "check"),
                      ("agler_forced_infeasible.json", "agler")]:
        code, out = run([cmd, str(FIXTURES / name)])
        cli.validate_document(json.loads(out), "report.schema.json")

    _line(7, "determinism and interface", bool(ok))
