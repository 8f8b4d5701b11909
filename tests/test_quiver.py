import numpy as np
import pytest

from picklab import ball, disk, matcore
from picklab import quiver as qv
from picklab.errors import DomainError, PathError, ShapeError
from picklab.quiver import Grading, Quiver, QuiverPoint


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def loops_quiver(d):
    return Quiver(("v",), tuple(f"l{k}" for k in range(d)),
                  {f"l{k}": "v" for k in range(d)},
                  {f"l{k}": "v" for k in range(d)})


def tensor_point(rng, G, dims, bound=0.6):
    blocks = {a: cg(rng, dims[G.rng[a]], dims[G.src[a]]) for a in G.arrows}
    rep = qv.disk_membership(G, dims, QuiverPoint("tensor", blocks))
    s = bound / max(rep.worst_row_norm, 1e-12)
    return QuiverPoint("tensor", {a: M * s for a, M in blocks.items()})


def oa_point(rng, G, dims, bound=0.6):
    blocks = {a: cg(rng, dims[G.src[a]], dims[G.rng[a]]) for a in G.arrows}
    rep = qv.disk_membership(G, dims, QuiverPoint("operator_argument", blocks))
    s = bound / max(rep.worst_row_norm, 1e-12)
    return QuiverPoint("operator_argument", {a: M * s for a, M in blocks.items()})


class TestPaths:
    def test_two_vertex_golden_path_set(self):
        G, _, _ = qv.two_vertex_example()
        labels = [p.label for p in qv.paths_up_to(G, 2)]
        assert labels == ["a", "b", "alpha", "beta", "alphaalpha", "betaalpha"]

    def test_loops_quiver_counts_match_free_words(self):
        G = loops_quiver(3)
        for L in range(4):
            paths = qv.paths_up_to(G, L)
            by_len = {}
            for p in paths:
                by_len[p.length] = by_len.get(p.length, 0) + 1
            for n in range(L + 1):
                assert by_len[n] == 3 ** n

    def test_counts_equal_adjacency_power_sums(self):
        rng = np.random.default_rng(0)
        verts = ("u", "v", "w")
        arrows, src, trg = [], {}, {}
        for k in range(5):
            a = f"e{k}"
            arrows.append(a)
            src[a] = verts[rng.integers(0, 3)]
            trg[a] = verts[rng.integers(0, 3)]
        G = Quiver(verts, tuple(arrows), src, trg)
        A = G.adjacency_matrix()
        paths = qv.paths_up_to(G, 4)
        for n in range(5):
            count = sum(1 for p in paths if p.length == n)
            assert count == int((np.linalg.matrix_power(A, n)).sum())

    def test_composability_enforced(self):
        G, _, _ = qv.two_vertex_example()
        with pytest.raises(PathError):
            G.path(["beta", "beta"])  # beta ends at b, no arrow leaves b


class TestMembership:
    def test_zero_blocks_member(self):
        G, _, _ = qv.two_vertex_example()
        dims = Grading(G, {"a": 2, "b": 1})
        pt = QuiverPoint("tensor", {"alpha": np.zeros((2, 2)),
                                    "beta": np.zeros((1, 2))})
        rep = qv.disk_membership(G, dims, pt)
        assert rep.is_member and rep.worst_row_norm == 0.0

    def test_two_vertex_rows_per_definition(self):
        # row at a collects arrows with range a (only alpha); row at b only beta
        G, _, _ = qv.two_vertex_example()
        dims = Grading(G, {"a": 1, "b": 1})
        pt = QuiverPoint("tensor", {"alpha": [[0.6]], "beta": [[0.6]]})
        rep = qv.disk_membership(G, dims, pt)
        assert rep.row_norms["a"] == pytest.approx(0.6)
        assert rep.row_norms["b"] == pytest.approx(0.6)
        assert rep.is_member

    def test_norm_one_not_member(self):
        G, _, _ = qv.two_vertex_example()
        dims = Grading(G, {"a": 1, "b": 1})
        pt = QuiverPoint("tensor", {"alpha": [[1.0]], "beta": [[0.0]]})
        assert not qv.disk_membership(G, dims, pt).is_member

    def test_shape_mismatch(self):
        G, _, _ = qv.two_vertex_example()
        dims = Grading(G, {"a": 2, "b": 1})
        pt = QuiverPoint("tensor", {"alpha": np.zeros((2, 2)),
                                    "beta": np.zeros((2, 2))})
        with pytest.raises(ShapeError):
            qv.disk_membership(G, dims, pt)


class TestPathPower:
    def test_vertex_path_identity(self):
        G, _, _ = qv.two_vertex_example()
        dims = Grading(G, {"a": 3, "b": 2})
        rng = np.random.default_rng(1)
        pt = tensor_point(rng, G, dims)
        assert np.array_equal(qv.path_power(pt, G.vertex_path("a"), dims),
                              np.eye(3))

    def test_beta_alpha_product(self):
        G, _, _ = qv.two_vertex_example()
        dims = Grading(G, {"a": 2, "b": 2})
        rng = np.random.default_rng(2)
        pt = tensor_point(rng, G, dims)
        path = G.path(["alpha", "beta"])  # chronological: alpha then beta
        assert path.label == "betaalpha"
        expect = pt.blocks["beta"] @ pt.blocks["alpha"]
        assert np.allclose(qv.path_power(pt, path, dims), expect)

    def test_loops_quiver_matches_word_power(self):
        G = loops_quiver(2)
        dims = Grading(G, {"v": 3})
        rng = np.random.default_rng(3)
        pt = tensor_point(rng, G, dims)
        Z = [pt.blocks["l0"], pt.blocks["l1"]]
        # word (2,1) as written corresponds to chronological arrows (l0, l1)
        path = G.path(["l0", "l1"])
        assert np.allclose(qv.path_power(pt, path, dims),
                           ball.word_power(Z, (2, 1)))


class TestPickQltoa:
    def test_zero_points_block_diagonal_gram(self):
        G, _, _ = qv.two_vertex_example()
        xd = Grading(G, {"a": 2, "b": 1})
        rng = np.random.default_rng(4)
        pt = QuiverPoint("operator_argument", {"alpha": np.zeros((2, 2)),
                                               "beta": np.zeros((2, 1))})
        X = [{"a": cg(rng, 2, 2), "b": cg(rng, 1, 1)}]
        Y = [{"a": cg(rng, 2, 2), "b": cg(rng, 1, 1)}]
        rep = qv.pick_qltoa(G, xd, [pt], X, Y)
        expect = np.zeros((3, 3), dtype=complex)
        expect[:2, :2] = X[0]["a"] @ X[0]["a"].conj().T - Y[0]["a"] @ Y[0]["a"].conj().T
        expect[2:, 2:] = X[0]["b"] @ X[0]["b"].conj().T - Y[0]["b"] @ Y[0]["b"].conj().T
        assert np.max(np.abs(rep.pick - matcore.hermitize(expect))) <= 1e-14

    def test_two_vertex_permutes_into_displayed_pair(self):
        G, _, _ = qv.two_vertex_example()
        na = nb = 2
        xd = Grading(G, {"a": na, "b": nb})
        rng = np.random.default_rng(5)
        N = 2
        points = [oa_point(rng, G, xd) for _ in range(N)]
        X = [{"a": cg(rng, na, 2), "b": cg(rng, nb, 1)} for _ in range(N)]
        Y = [{"a": cg(rng, na, 2), "b": cg(rng, nb, 1)} for _ in range(N)]
        rep = qv.pick_qltoa(G, xd, points, X, Y, series_tol=1e-14)
        P1 = np.zeros((N * na, N * na), dtype=complex)
        P2 = np.zeros((N * nb, N * nb), dtype=complex)
        for i in range(N):
            Tb_i = points[i].blocks["beta"]
            for j in range(N):
                Tb_j = points[j].blocks["beta"]
                M = (X[i]["a"] @ X[j]["a"].conj().T
                     + Tb_i @ X[i]["b"] @ X[j]["b"].conj().T @ Tb_j.conj().T
                     - Y[i]["a"] @ Y[j]["a"].conj().T
                     - Tb_i @ Y[i]["b"] @ Y[j]["b"].conj().T @ Tb_j.conj().T)
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
        assert np.max(np.abs(permuted - matcore.hermitize(target))) \
            <= 1e-10 + rep.tail_bound

    def test_cross_vertex_blocks_exactly_zero(self):
        G, _, _ = qv.two_vertex_example()
        xd = Grading(G, {"a": 2, "b": 1})
        rng = np.random.default_rng(6)
        points = [oa_point(rng, G, xd) for _ in range(2)]
        X = [{"a": cg(rng, 2, 1), "b": cg(rng, 1, 1)} for _ in range(2)]
        Y = [{"a": cg(rng, 2, 1), "b": cg(rng, 1, 1)} for _ in range(2)]
        rep = qv.pick_qltoa(G, xd, points, X, Y)
        for i in range(2):
            for j in range(2):
                blk = rep.pick[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3]
                assert np.max(np.abs(blk[:2, 2:])) < 1e-14
                assert np.max(np.abs(blk[2:, :2])) < 1e-14

    def test_single_vertex_equals_ball(self):
        G = loops_quiver(2)
        xd = Grading(G, {"v": 3})
        rng = np.random.default_rng(7)
        N = 2
        points = [oa_point(rng, G, xd) for _ in range(N)]
        X = [{"v": cg(rng, 3, 2)} for _ in range(N)]
        Y = [{"v": cg(rng, 3, 2)} for _ in range(N)]
        repq = qv.pick_qltoa(G, xd, points, X, Y, series_tol=1e-14)
        repb = ball.pick_nc_ltoa(
            [[p.blocks["l0"], p.blocks["l1"]] for p in points],
            [x["v"] for x in X], [y["v"] for y in Y], series_tol=1e-14)
        assert np.max(np.abs(repq.pick - repb.pick)) \
            <= 1e-12 + repq.tail_bound + repb.tail_bound
        # one loop is the disk: the one-arrow fixed point, solved exactly
        G = loops_quiver(1)
        points = [oa_point(rng, G, xd) for _ in range(N)]
        repq = qv.pick_qltoa(G, xd, points, X, Y, budget=1)
        repd = disk.pick_ltoa([p.blocks["l0"] for p in points],
                              [x["v"] for x in X], [y["v"] for y in Y])
        assert (repq.method, repq.tail_bound) == ("stein_solve", 0.0)
        assert np.max(np.abs(repq.pick - repd.pick)) <= 1e-12

    def test_membership_enforced(self):
        G, _, _ = qv.two_vertex_example()
        xd = Grading(G, {"a": 1, "b": 1})
        pt = QuiverPoint("operator_argument", {"alpha": [[0.9]], "beta": [[0.9]]})
        with pytest.raises(DomainError):
            qv.pick_qltoa(G, xd, [pt], [{"a": [[1.0]], "b": [[1.0]]}],
                          [{"a": [[0.0]], "b": [[0.0]]}])


class TestPickQltrd:
    def test_zero_point_equal_data_zero(self):
        G, _, _ = qv.two_vertex_example()
        zd = Grading(G, {"a": 1, "b": 1})
        pt = QuiverPoint("tensor", {"alpha": [[0.0]], "beta": [[0.0]]})
        rng = np.random.default_rng(8)
        X = [cg(rng, 2, 2)]
        rep = qv.pick_qltrd(G, zd, [pt], X, X)
        assert np.max(np.abs(rep.pick)) <= 1e-14

    def test_two_vertex_splits_into_displayed_pair(self):
        G, _, _ = qv.two_vertex_example()
        za, zb = 2, 1
        zd = Grading(G, {"a": za, "b": zb})
        zdim = zd.total
        kappa = 2
        rng = np.random.default_rng(9)
        N = 2
        points = [tensor_point(rng, G, zd, 0.5) for _ in range(N)]
        X = [cg(rng, kappa, zdim) for _ in range(N)]
        Y = [cg(rng, kappa, zdim) for _ in range(N)]
        rep = qv.pick_qltrd(G, zd, points, X, Y, series_tol=1e-14)
        e = np.eye(kappa, dtype=complex)
        P1 = np.zeros((N * kappa * za, N * kappa * za), dtype=complex)
        P2 = np.zeros((N * kappa * zb, N * kappa * zb), dtype=complex)
        for i in range(N):
            Zai, Zbi = points[i].blocks["alpha"], points[i].blocks["beta"]
            Xai, Xbi = X[i][:, :za], X[i][:, za:]
            Yai, Ybi = Y[i][:, :za], Y[i][:, za:]
            for j in range(N):
                Zaj, Zbj = points[j].blocks["alpha"], points[j].blocks["beta"]
                Xaj, Xbj = X[j][:, :za], X[j][:, za:]
                Yaj, Ybj = Y[j][:, :za], Y[j][:, za:]
                for ip in range(kappa):
                    for jp in range(kappa):
                        E = e[:, ip:ip + 1] @ e[:, jp:jp + 1].conj().T
                        M = (Xai.conj().T @ E @ Xaj
                             + Zbi.conj().T @ Xbi.conj().T @ E @ Xbj @ Zbj
                             - Yai.conj().T @ E @ Yaj
                             - Zbi.conj().T @ Ybi.conj().T @ E @ Ybj @ Zbj)
                        S = matcore.solve_stein(Zai.conj().T, M, Zaj.conj().T)
                        r0 = (i * kappa + ip) * za
                        c0 = (j * kappa + jp) * za
                        P1[r0:r0 + za, c0:c0 + za] = S
                        E2 = (Xbi.conj().T @ E @ Xbj
                              - Ybi.conj().T @ E @ Ybj)
                        r2 = (i * kappa + ip) * zb
                        c2 = (j * kappa + jp) * zb
                        P2[r2:r2 + zb, c2:c2 + zb] = E2
        perm = [t * zdim + r for t in range(N * kappa) for r in range(za)]
        perm += [t * zdim + za + r for t in range(N * kappa) for r in range(zb)]
        permuted = rep.pick[np.ix_(perm, perm)]
        target = np.zeros_like(permuted)
        target[:N * kappa * za, :N * kappa * za] = P1
        target[N * kappa * za:, N * kappa * za:] = P2
        assert np.max(np.abs(permuted - matcore.hermitize(target))) \
            <= 1e-10 + rep.tail_bound


    def test_single_vertex_matches_word_enumeration(self):
        # d-loop degeneration: the criterion is an adjoint-side word sum,
        # checked against direct enumeration of the free semigroup
        G = loops_quiver(2)
        zd = Grading(G, {"v": 2})
        rng = np.random.default_rng(15)
        N, kappa = 2, 2
        points = [tensor_point(rng, G, zd, 0.4) for _ in range(N)]
        X = [cg(rng, kappa, 2) for _ in range(N)]
        Y = [cg(rng, kappa, 2) for _ in range(N)]
        rep = qv.pick_qltrd(G, zd, points, X, Y, series_tol=1e-14)
        tuples = [[p.blocks["l0"], p.blocks["l1"]] for p in points]
        words = ball.words_up_to(2, 12)  # (0.4^2)^13/(1-0.16) ~ 5e-11 tail
        e = np.eye(kappa, dtype=complex)
        direct = np.zeros((N * kappa * 2, N * kappa * 2), dtype=complex)
        pows = [{w: ball.word_power(tuples[i], w) for w in words}
                for i in range(N)]
        for i in range(N):
            for ip in range(kappa):
                for j in range(N):
                    for jp in range(kappa):
                        E = e[:, ip:ip + 1] @ e[:, jp:jp + 1].conj().T
                        M0 = (X[i].conj().T @ E @ X[j]
                              - Y[i].conj().T @ E @ Y[j])
                        S = sum(pows[i][w].conj().T @ M0 @ pows[j][w]
                                for w in words)
                        r0, c0 = (i * kappa + ip) * 2, (j * kappa + jp) * 2
                        direct[r0:r0 + 2, c0:c0 + 2] = S
        assert np.max(np.abs(rep.pick - matcore.hermitize(direct))) <= 1e-9

    def test_tail_bound_certifies_adjoint_side_sum(self):
        # the letters placed(Z)_a* have row norm ||[Z_alpha; Z_beta]|| > 1 while
        # the point's row norms stay below 1; the tail must still bound the
        # truncation.  Its factor sqrt(dim Z) is the trace-duality one: the
        # level map contracts blocks by r_i r_j in trace norm, and a dim
        # Z-square block has ||.||_1 <= sqrt(dim Z) ||.||_F
        G, _, _ = qv.two_vertex_example()
        rng = np.random.default_rng(16)
        cases = [(Grading(G, {"a": 1, "b": 1}),
                  [QuiverPoint("tensor", {"alpha": [[0.9]], "beta": [[0.9]]})],
                  [np.array([[1.0, 1.0]])], [np.zeros((1, 2))])]
        zd = Grading(G, {"a": 2, "b": 1})
        pts = [tensor_point(rng, G, zd, 0.9) for _ in range(2)]
        cases.append((zd, pts, [cg(rng, 2, 3) for _ in pts],
                      [0.5 * cg(rng, 2, 3) for _ in pts]))
        for zd, pts, X, Y in cases:
            assert max(matcore.operator_norm(np.vstack(
                [p.blocks["alpha"], p.blocks["beta"]])) for p in pts) > 1
            rep = qv.pick_qltrd(G, zd, pts, X, Y, series_tol=1e-8)
            deep = adjoint_side_fixed_point(zd, pts, X, Y)
            assert np.linalg.norm(rep.pick - deep, 2) <= rep.tail_bound + 1e-12


def adjoint_side_fixed_point(zd, points, X, Y, sweeps=3000):
    """The qltrd matrix of the two-vertex quiver by plain fixed-point sweeps
    P <- M + sum_a A_a,i* P A_a,j on blocks ((i, i'), (j, j'))."""
    na, n = zd["a"], zd.total
    A = np.zeros((len(points), 2, n, n), dtype=complex)
    for k, p in enumerate(points):
        A[k, 0, :na, :na] = p.blocks["alpha"]
        A[k, 1, na:, :na] = p.blocks["beta"]
    kappa = X[0].shape[0]
    A = np.repeat(A, kappa, axis=0)
    x = np.conj(np.array(X)).reshape(-1, n)
    y = np.conj(np.array(Y)).reshape(-1, n)
    same_vertex = np.equal.outer(np.arange(n) < na, np.arange(n) < na)
    M = (np.einsum("pi,qj->pqij", x, x.conj())
         - np.einsum("pi,qj->pqij", y, y.conj())) * same_vertex
    P = M.copy()
    for _ in range(sweeps):
        P = M + np.einsum("paji,pqjk,qakl->pqil", A.conj(), P, A)
    m = len(x) * n
    return matcore.hermitize(P.transpose(0, 2, 1, 3).reshape(m, m))


def one_arrow_quivers():
    """(one-arrow quiver, the same with an extra loop, dims) pairs."""
    a_to_b = Quiver(("a", "b"), ("beta",), {"beta": "a"}, {"beta": "b"})
    return {"loop": (loops_quiver(1), loops_quiver(2), {"v": 2}),
            "a_to_b": (a_to_b, qv.two_vertex_example()[0], {"a": 2, "b": 1})}


def quiver_picks(criterion, G, dims, points, X, Y, **kw):
    dims = Grading(G, dims)
    if criterion == "qltoa":
        return [qv.pick_qltoa(G, dims, points, X, Y, **kw)]
    if criterion == "qltt":
        ones = Grading(G, {v: 1 for v in G.vertices})
        return list(qv.pick_qltt(G, dims, ones, points, X, Y, **kw).values())
    return [qv.pick_qltrd(G, dims, points, X, Y, **kw)]


@pytest.mark.parametrize("criterion", ["qltoa", "qltt", "qltrd"])
@pytest.mark.parametrize("shape", ["loop", "a_to_b"])
def test_one_arrow_is_stein_solve(criterion, shape):
    """One arrow is the Stein solve at any budget, and agrees with the level
    recursion on the same data with an extra zero loop.  On a -> b the
    recursion reaches an exactly zero level, so it is a finite sum."""
    G, G2, d = one_arrow_quivers()[shape]
    loop = (set(G2.arrows) - set(G.arrows)).pop()
    zero = np.zeros((d[G2.src[loop]],) * 2)
    rng = np.random.default_rng(17)
    if criterion == "qltoa":
        points = [oa_point(rng, G, Grading(G, d), 0.8) for _ in range(3)]
        X = [{v: cg(rng, d[v], 2) for v in G.vertices} for _ in range(3)]
        Y = [{v: 0.5 * cg(rng, d[v], 2) for v in G.vertices} for _ in range(3)]
    else:
        points = [tensor_point(rng, G, Grading(G, d), 0.8) for _ in range(3)]
        X = [cg(rng, 2, sum(d.values())) for _ in range(3)]
        Y = [0.5 * cg(rng, 2, sum(d.values())) for _ in range(3)]
    points2 = [QuiverPoint(p.kind, {**p.blocks, loop: zero}) for p in points]
    one = quiver_picks(criterion, G, d, points, X, Y, budget=1)
    several = quiver_picks(criterion, G2, d, points2, X, Y, series_tol=1e-14)
    assert len(one) == len(several)
    for r1, r2 in zip(one, several):
        assert (r1.method, r1.tail_bound) == ("stein_solve", 0.0)
        assert r2.method == ("closed_form" if shape == "a_to_b" else "truncated_series")
        assert np.max(np.abs(r1.pick - r2.pick)) <= 1e-12 + r2.tail_bound


class TestPickQltt:
    def test_zero_points_basis_insertions_psd_when_equal(self):
        G, _, _ = qv.two_vertex_example()
        zd = Grading(G, {"a": 2, "b": 1})
        ones = Grading(G, {"a": 1, "b": 1})
        rng = np.random.default_rng(10)
        pt = QuiverPoint("tensor", {"alpha": np.zeros((2, 2)),
                                    "beta": np.zeros((1, 2))})
        edim = sum(ones[v] * zd[v] for v in G.vertices)
        X = [cg(rng, 2, edim)]
        reports = qv.pick_qltt(G, zd, ones, [pt], X, X)
        assert all(r.feasible for r in reports.values())

    def test_single_vertex_matches_ball_basis_expansion(self):
        G = loops_quiver(2)
        zd = Grading(G, {"v": 2})
        ones = Grading(G, {"v": 1})
        rng = np.random.default_rng(11)
        N = 2
        points = [tensor_point(rng, G, zd, 0.5) for _ in range(N)]
        X = [cg(rng, 2, 2) for _ in range(N)]
        Y = [cg(rng, 2, 2) for _ in range(N)]
        reports = qv.pick_qltt(G, zd, ones, points, X, Y, series_tol=1e-14)
        assert set(reports) == {"v"}
        # ball analogue: expand over the kappa = 2 basis of the tuple space
        tuples = [[p.blocks["l0"], p.blocks["l1"]] for p in points]
        e = np.eye(2, dtype=complex)
        expect = np.zeros((N * 2 * 2, N * 2 * 2), dtype=complex)
        for i in range(N):
            for ip in range(2):
                for j in range(N):
                    for jp in range(2):
                        M0 = e[:, ip:ip + 1] @ e[:, jp:jp + 1].conj().T
                        acc = M0.copy()
                        cur = M0.copy()
                        for _ in range(60):
                            cur = sum(tuples[i][k] @ cur @ tuples[j][k].conj().T
                                      for k in range(2))
                            acc += cur
                        blk = X[i] @ acc @ X[j].conj().T - Y[i] @ acc @ Y[j].conj().T
                        r0, c0 = (i * 2 + ip) * 2, (j * 2 + jp) * 2
                        expect[r0:r0 + 2, c0:c0 + 2] = blk
        assert np.max(np.abs(reports["v"].pick - matcore.hermitize(expect))) \
            <= 1e-10


class TestConstantMultiplier:
    def test_equal_data_delta_one(self):
        rng = np.random.default_rng(12)
        X = [cg(rng, 2, 3) for _ in range(2)]
        res = qv.constant_multiplier_check(X, X)
        assert res.verdict.is_psd
        assert res.delta == pytest.approx(1.0)

    def test_orthogonal_data_infeasible(self):
        X = [np.array([[1.0, 0.0]])]
        Y = [np.array([[0.0, 1.0]])]
        res = qv.constant_multiplier_check(X, Y)
        assert np.allclose(res.pick, [[1, 0], [0, -1]])
        assert not res.verdict.is_psd
        assert res.delta is None

    def test_half_scaling(self):
        X = [np.array([[1.0, 0.0]])]
        Y = [np.array([[0.5, 0.0]])]
        res = qv.constant_multiplier_check(X, Y)
        assert np.allclose(res.pick, [[0.75, 0], [0, 0]])
        assert res.verdict.is_psd
        assert res.delta == pytest.approx(0.5)

    def test_rank_one_form_same_spectrum(self):
        rng = np.random.default_rng(13)
        X = [cg(rng, 2, 2) for _ in range(2)]
        Y = [0.3 * M for M in X]
        res = qv.constant_multiplier_check(X, Y)
        a = np.sort(np.linalg.eigvalsh(res.pick))
        b = np.sort(np.linalg.eigvalsh(res.rank_one_form))
        assert np.max(np.abs(a - b)) <= 1e-10
        assert res.delta == pytest.approx(0.3)

    def test_all_zero_returns_zero_delta(self):
        res = qv.constant_multiplier_check([np.zeros((1, 2))], [np.zeros((1, 2))])
        assert res.verdict.is_psd and res.delta == 0.0


class TestTwoVertexToeplitzNorm:
    def test_identity_multiplier(self):
        assert qv.two_vertex_toeplitz_norm([[[1.0]]], [], [[1.0]], 3) \
            == pytest.approx(1.0)

    def test_constant_b0(self):
        assert qv.two_vertex_toeplitz_norm([], [], [[0.3]], 2) \
            == pytest.approx(0.3)

    def test_shift_multiplier(self):
        for L in (1, 2, 5):
            val = qv.two_vertex_toeplitz_norm([[[0.0]], [[1.0]]], [], [[0.0]], L)
            assert val == pytest.approx(1.0)

    def test_monotone_in_truncation(self):
        rng = np.random.default_rng(14)
        V = [cg(rng, 1, 1) for _ in range(3)]
        W = [cg(rng, 1, 1) for _ in range(2)]
        B0 = cg(rng, 1, 1)
        vals = [qv.two_vertex_toeplitz_norm(V, W, B0, L) for L in range(1, 6)]
        assert all(vals[k + 1] >= vals[k] - 1e-12 for k in range(len(vals) - 1))


def test_necessity_quiver_variants():
    from picklab import necessity
    for setting in ["quiver.qltt", "quiver.qltrd", "quiver.qltoa"]:
        res = necessity.run_suite(setting, 5, seed=321)
        assert res.passed, (setting, res.worst_margin)
