import numpy as np
import pytest

from picklab import cp, disk, matcore, oracle
from picklab import quiver as qv
from picklab.cp import LinearMapOnMatrices
from picklab.errors import ArgumentError, MapError
from picklab.quiver import Grading, QuiverPoint


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def contraction(rng, n, bound=0.5):
    M = cg(rng, n, n)
    return M * (bound / matcore.operator_norm(M))


class TestChoi:
    def test_identity_map_maximally_entangled(self):
        phi = LinearMapOnMatrices.from_callable(lambda A: A, 2)
        C = cp.choi_matrix(phi)
        eigs = np.linalg.eigvalsh(C)
        assert np.allclose(eigs, [0, 0, 0, 2], atol=1e-12)
        # rank-one: vec(I) vec(I)*
        u = np.eye(2).reshape(-1, 1)
        assert np.max(np.abs(C - u @ u.T)) <= 1e-14

    def test_transpose_map_swap_spectrum(self):
        phi = LinearMapOnMatrices.from_callable(lambda A: A.T, 2)
        C = cp.choi_matrix(phi)
        eigs = np.sort(np.linalg.eigvalsh(C))
        assert np.allclose(eigs, [-1, 1, 1, 1], atol=1e-12)

    def test_v_sandwich_rank_one(self):
        rng = np.random.default_rng(0)
        V = cg(rng, 3, 2)
        phi = LinearMapOnMatrices.from_callable(lambda A: V @ A @ V.conj().T, 2)
        C = cp.choi_matrix(phi)
        eigs = np.linalg.eigvalsh(C)
        assert eigs[0] >= -1e-12
        assert np.sum(eigs > 1e-10) == 1

    def test_hermiticity_preservation_enforced(self):
        phi = LinearMapOnMatrices.from_callable(lambda A: 1j * A, 2)
        with pytest.raises(MapError):
            cp.choi_matrix(phi)

    def test_linearity_of_stored_map(self):
        rng = np.random.default_rng(1)
        V = cg(rng, 2, 2)
        phi = LinearMapOnMatrices.from_callable(lambda A: V @ A @ V.conj().T, 2)
        A, B = cg(rng, 2, 2), cg(rng, 2, 2)
        assert np.max(np.abs(phi(2 * A - 1j * B)
                             - (2 * phi(A) - 1j * phi(B)))) <= 1e-13


class TestCpCheck:
    def test_identity_cp(self):
        phi = LinearMapOnMatrices.from_callable(lambda A: A, 3)
        v = cp.cp_check(phi)
        assert v.is_cp and v.witness is None

    def test_transpose_not_cp_with_witness(self):
        phi = LinearMapOnMatrices.from_callable(lambda A: A.T, 2)
        v = cp.cp_check(phi, tol=1e-12)
        assert not v.is_cp
        assert v.choi_min_eig == pytest.approx(-1.0, abs=1e-12)
        assert v.witness is not None
        assert v.witness["output_min_eigenvalue"] < 0
        # the witness is a genuine PSD input whose amplified image fails
        B = v.witness["input"]
        assert matcore.min_eigenvalue(B) >= -1e-10

    def test_witness_reproduces_choi_eigenvalue(self):
        # Choi's witness: the amplified image of the PSD input is the Choi
        # matrix itself, so its smallest eigenvalue is the Choi one
        rng = np.random.default_rng(4)
        V = cg(rng, 3, 3)
        maps = [LinearMapOnMatrices.from_callable(lambda A: A.T, n) for n in (2, 3)]
        maps.append(LinearMapOnMatrices.from_callable(
            lambda A: V @ A @ V.conj().T - 2 * np.trace(A) * np.eye(3), 3))
        for phi in maps:
            v = cp.cp_check(phi)
            assert not v.is_cp
            w = v.witness
            assert matcore.min_eigenvalue(w["input"]) >= -1e-14
            image = cp.amplified_apply(phi, w["input"], w["level"])
            assert matcore.min_eigenvalue(image) == v.choi_min_eig
            assert w["output_min_eigenvalue"] == v.choi_min_eig

    def test_conditional_expectation_cp_random_gradings(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            sizes = rng.integers(1, 3, size=rng.integers(1, 4))
            psi = cp.conditional_expectation_map(list(sizes))
            assert cp.cp_check(psi).is_cp

    def test_choi_exactness_against_sampling(self):
        # randomized k-positivity sampling never contradicts the Choi verdict
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            V = cg(rng, n, n)
            phi_cp = LinearMapOnMatrices.from_callable(
                lambda A: V @ A @ V.conj().T, n)
            for _ in range(20):
                k = int(rng.integers(1, n + 1))
                G = cg(rng, n * k, n * k)
                B = G @ G.conj().T
                lam = matcore.min_eigenvalue(cp.amplified_apply(phi_cp, B, k))
                assert lam >= -1e-8 * matcore.operator_norm(B)


class TestPhiDisk:
    def test_zero_points_single_term(self):
        rng = np.random.default_rng(4)
        X = [cg(rng, 2, 2) for _ in range(2)]
        Y = [cg(rng, 2, 2) for _ in range(2)]
        Z = [np.zeros((1, 1))] * 2
        phi = cp.build_phi_disk(Z, X, Y)
        rngB = np.random.default_rng(5)
        B = matcore.hermitize(cg(rngB, 2, 2))
        out = phi(B)
        for i in range(2):
            for j in range(2):
                expect = B[i, j] * (X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T)
                assert np.max(np.abs(out[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                                     - expect)) <= 1e-13

    def test_lt_case_choi_is_pick(self):
        rng = np.random.default_rng(6)
        lams = [0.2 + 0.1j, -0.4]
        X = [cg(rng, 3, 3) for _ in range(2)]
        Y = [cg(rng, 3, 3) for _ in range(2)]
        phi = cp.build_phi_disk([[[l]] for l in lams], X, Y)
        C, leak = cp.condition_compression(phi, 2)
        pick = disk.pick_lt(lams, X, Y)
        assert leak == 0.0
        assert np.max(np.abs(C - pick.pick)) <= 1e-12
        assert cp.cp_check(phi).is_cp == pick.verdict.is_psd

    def test_oracle_data_is_cp(self):
        rng = np.random.default_rng(7)
        s = oracle.sample_contractive_poly(2, 2, 2, "disk", seed=17)
        Z = [contraction(rng, 2) for _ in range(2)]
        X = [cg(rng, 4, 4) for _ in range(2)]
        Y = [X[i] @ oracle.eval_tensor(s, Z[i]) for i in range(2)]
        phi = cp.build_phi_disk(Z, X, Y)
        assert cp.cp_check(phi, tol=1e-8).is_cp


class TestPhiStarDisk:
    def test_zero_points_single_term(self):
        rng = np.random.default_rng(8)
        X = [cg(rng, 2, 3) for _ in range(2)]
        Y = [cg(rng, 2, 3) for _ in range(2)]
        Z = [np.zeros((3, 3))] * 2
        phi = cp.build_phi_star_disk(Z, X, Y)
        B = matcore.hermitize(cg(rng, 4, 4))
        out = phi(B)
        for i in range(2):
            for j in range(2):
                Bij = B[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                expect = (X[i].conj().T @ Bij @ X[j]
                          - Y[i].conj().T @ Bij @ Y[j])
                assert np.max(np.abs(out[3 * i:3 * i + 3, 3 * j:3 * j + 3]
                                     - expect)) <= 1e-13

    def test_choi_equals_pick_ltrd(self):
        rng = np.random.default_rng(9)
        Z = [contraction(rng, 2, 0.4) for _ in range(2)]
        X = [cg(rng, 3, 2) for _ in range(2)]
        Y = [cg(rng, 3, 2) for _ in range(2)]
        phi = cp.build_phi_star_disk(Z, X, Y)
        C, leak = cp.condition_compression(phi, 2)
        pick = disk.pick_ltrd(Z, X, Y)
        assert leak == 0.0
        assert np.max(np.abs(C - pick.pick)) <= 1e-12

    def test_trace_duality_verdict_equality(self):
        # CP(phi) == CP(phi*) across instances; half generated feasible from
        # oracle data, half arbitrary (typically infeasible)
        rng = np.random.default_rng(10)
        agree = 0
        trials = 10
        for t in range(trials):
            Z = [contraction(rng, 2, 0.4) for _ in range(2)]
            if t % 2 == 0:
                s = oracle.sample_contractive_poly(1, 1, 2, "disk", seed=70 + t)
                X = [cg(rng, 2, 2) for _ in range(2)]
                Y = [X[i] @ oracle.eval_tensor(s, Z[i]) for i in range(2)]
            else:
                X = [cg(rng, 2, 2) for _ in range(2)]
                Y = [cg(rng, 2, 2) for _ in range(2)]
            a = cp.cp_check(cp.build_phi_disk(Z, X, Y), tol=1e-9).is_cp
            b = cp.cp_check(cp.build_phi_star_disk(Z, X, Y), tol=1e-9).is_cp
            agree += (a == b)
            if t % 2 == 0:
                assert a and b
        assert agree == trials


class TestPhiQuiver:
    def test_single_vertex_agrees_with_phi_disk(self):
        G = qv.Quiver(("v",), ("l0",), {"l0": "v"}, {"l0": "v"})
        zd = Grading(G, {"v": 2})
        vd = Grading(G, {"v": 2})
        rng = np.random.default_rng(11)
        pts = [QuiverPoint("tensor", {"l0": contraction(rng, 2)})
               for _ in range(2)]
        X = [cg(rng, 4, 4) for _ in range(2)]
        Y = [cg(rng, 4, 4) for _ in range(2)]
        phi_q = cp.build_phi_quiver(G, zd, vd, pts, X, Y)
        phi_d = cp.build_phi_disk([p.blocks["l0"] for p in pts], X, Y)
        assert np.max(np.abs(phi_q.unit_images - phi_d.unit_images)) <= 1e-10

    def test_choi_permutes_to_qltt_direct_sum(self):
        G, _, _ = qv.two_vertex_example()
        zd = Grading(G, {"a": 2, "b": 1})
        vd = Grading(G, {"a": 1, "b": 1})
        rng = np.random.default_rng(12)
        N = 2
        edim = sum(vd[v] * zd[v] for v in G.vertices)
        pts, X, Y = [], [], []
        for _ in range(N):
            Za = contraction(rng, 2)
            Zb = cg(rng, 1, 2)
            Zb *= 0.5 / matcore.operator_norm(Zb)
            pts.append(QuiverPoint("tensor", {"alpha": Za, "beta": Zb}))
            X.append(cg(rng, 2, edim))
            Y.append(cg(rng, 2, edim))
        phib = cp.build_phi_bar_quiver(G, zd, vd, pts, X, Y)
        Cb, leak = cp.condition_compression(phib, N)
        assert leak == 0.0
        picks = qv.pick_qltt(G, zd, vd, pts, X, Y, series_tol=1e-13)
        gdim, c = zd.total, 2
        perm = []
        for v in G.vertices:
            for i in range(N):
                for t in range(zd[v]):
                    base = (i * gdim + zd.offsets[v] + t) * c
                    perm.extend(range(base, base + c))
        permuted = Cb[np.ix_(perm, perm)]
        target = np.zeros_like(permuted)
        off = 0
        for v in G.vertices:
            P = picks[v].pick
            target[off:off + P.shape[0], off:off + P.shape[0]] = P
            off += P.shape[0]
        assert np.max(np.abs(permuted - target)) <= 1e-12

    def test_phi_vs_phi_bar_verdicts(self):
        G, _, _ = qv.two_vertex_example()
        zd = Grading(G, {"a": 1, "b": 1})
        vd = Grading(G, {"a": 1, "b": 1})
        rng = np.random.default_rng(13)
        pts, X, Y = [], [], []
        for _ in range(2):
            pts.append(QuiverPoint("tensor", {
                "alpha": contraction(rng, 1), "beta": contraction(rng, 1)}))
            X.append(cg(rng, 1, 2))
            Y.append(cg(rng, 1, 2))
        phi = cp.build_phi_quiver(G, zd, vd, pts, X, Y)
        phib = cp.build_phi_bar_quiver(G, zd, vd, pts, X, Y)
        # the Szego kernel reads only vertex-diagonal blocks, so the two maps
        # coincide extensionally and the verdicts agree exactly
        assert np.max(np.abs(phi.unit_images - phib.unit_images)) == 0.0
        assert cp.cp_check(phi).is_cp == cp.cp_check(phib).is_cp

    def test_operator_argument_points_rejected(self):
        # the map is built from tensor points; operator arguments would be
        # read as transposed blocks
        G, _, _ = qv.two_vertex_example()
        zd = Grading(G, {"a": 1, "b": 1})
        pt = QuiverPoint("operator_argument", {"alpha": [[0.1]], "beta": [[0.2]]})
        with pytest.raises(ArgumentError):
            cp.build_phi_bar_quiver(G, zd, zd, [pt], [np.ones((1, 2))],
                                    [np.zeros((1, 2))])

    def test_oracle_quiver_data_cp(self):
        G, _, _ = qv.two_vertex_example()
        ones = Grading(G, {"a": 1, "b": 1})
        zd = Grading(G, {"a": 2, "b": 1})
        s = oracle.sample_contractive_poly(1, 1, 2, "quiver", seed=14,
                                           quiver=G, in_dims=ones, out_dims=ones)
        rng = np.random.default_rng(14)
        edim = sum(ones[v] * zd[v] for v in G.vertices)
        pts, X, Y = [], [], []
        for _ in range(2):
            Za = contraction(rng, 2)
            Zb = cg(rng, 1, 2)
            Zb *= 0.4 / matcore.operator_norm(Zb)
            pt = QuiverPoint("tensor", {"alpha": Za, "beta": Zb})
            Xi = cg(rng, 2, edim)
            pts.append(pt)
            X.append(Xi)
            Y.append(Xi @ oracle.eval_quiver_tensor(s, pt, zd))
        phi = cp.build_phi_bar_quiver(G, zd, ones, pts, X, Y)
        assert cp.cp_check(phi, tol=1e-8).is_cp


class TestFiniteSections:
    def test_zero_kernel_cp(self):
        v = cp.finite_section_kernel_check(
            lambda i, j, E: np.zeros((2, 2)), [0, 1], 1, sections=2)
        assert v.is_cp

    def test_szego_type_kernel_cp_at_two_sections(self):
        s = oracle.sample_contractive_poly(1, 1, 2, "disk", seed=15)
        lams = [0.1, -0.3 + 0.2j]
        vals = [oracle.eval_point(s, l)[0, 0] for l in lams]

        def kern(i, j, E):
            return E * (1 - vals[i] * np.conj(vals[j])) / (
                1 - lams[i] * np.conj(lams[j]))

        for k in (1, 2):
            assert cp.finite_section_kernel_check(kern, [0, 1], 1, k).is_cp

    def test_infeasible_pick_kernel_fails_at_one_section(self):
        lams = [0.0, 0.5]
        vals = [0.0, 1.0]

        def kern(i, j, E):
            return E * (1 - vals[i] * np.conj(vals[j])) / (
                1 - lams[i] * np.conj(lams[j]))

        v = cp.finite_section_kernel_check(kern, [0, 1], 1, sections=1)
        assert not v.is_cp
        # the section Choi matrix is exactly the failing Pick matrix
        assert v.choi_min_eig == pytest.approx((1 - np.sqrt(5)) / 2, abs=1e-12)


def test_blockwise_conditional_expectation_is_cp():
    psi = cp.blockwise_conditional_expectation([2, 1], copies=2)
    assert cp.cp_check(psi).is_cp
