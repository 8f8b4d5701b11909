import numpy as np
import pytest

from picklab import disk, matcore, oracle
from picklab.errors import ArgumentError, DimensionError, DomainError
from picklab.reports import basis_columns
from reference import stein_series

GOLDEN_NEG_EIG = (1 - np.sqrt(5)) / 2


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def contraction(rng, n, bound=0.6):
    M = cg(rng, n, n)
    return M * (bound / matcore.operator_norm(M))


class TestPickFov:
    def test_feasible_golden_pair(self):
        rep = disk.pick_fov([0.0, 0.5], [[[0.0]], [[0.5]]])
        assert np.allclose(rep.pick, [[1, 1], [1, 1]])
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-14)
        assert rep.feasible  # s(lam) = lam interpolates

    def test_infeasible_golden_pair(self):
        rep = disk.pick_fov([0.0, 0.5], [[[0.0]], [[1.0]]])
        assert np.allclose(rep.pick, [[1, 1], [1, 0]])
        assert rep.min_eigenvalue == pytest.approx(GOLDEN_NEG_EIG, abs=1e-12)
        assert not rep.feasible

    def test_single_zero_point(self):
        rep = disk.pick_fov([0.0], [np.zeros((3, 2))])
        assert np.allclose(rep.pick, np.eye(3))
        assert rep.feasible

    def test_point_outside_disk(self):
        with pytest.raises(DomainError):
            disk.pick_fov([1.0], [[[0.0]]])
        with pytest.raises(DomainError):
            disk.pick_fov([0.3, 1.2j], [[[0.0]], [[0.0]]])


class TestPickLtRt:
    def test_fov_is_lt_with_identity_directions(self):
        rng = np.random.default_rng(0)
        lams = [0.1 + 0.2j, -0.3 + 0.1j]
        W = [cg(rng, 2, 3) * 0.4 for _ in range(2)]
        fov = disk.pick_fov(lams, W).pick
        lt = disk.pick_lt(lams, [np.eye(2)] * 2, W).pick
        assert np.array_equal(fov, lt)

    def test_zero_targets_szego_positivity(self):
        rng = np.random.default_rng(1)
        lams = [0.2, -0.4 + 0.3j, 0.1j]
        X = [cg(rng, 2, 3) for _ in range(3)]
        rep = disk.pick_lt(lams, X, [np.zeros((2, 2))] * 3)
        assert rep.feasible  # Cauchy-kernel Schur product of PSD matrices

    def test_sharp_duality_lt_rt(self):
        rng = np.random.default_rng(2)
        lams = [0.3 - 0.2j, 0.5j]
        X = [cg(rng, 3, 2) for _ in range(2)]
        Y = [cg(rng, 3, 4) for _ in range(2)]
        lt = disk.pick_lt(lams, X, Y).pick
        rt = disk.pick_rt(*disk.sharp_lt_to_rt(lams, X, Y)).pick
        # both Hermitian, and the duality maps one onto the other exactly
        assert np.max(np.abs(lt - rt)) == 0.0
        assert np.allclose(lt, lt.conj().T)


class TestPickLtoaRtoa:
    def test_single_zero_point_truncates(self):
        rng = np.random.default_rng(3)
        X = [cg(rng, 2, 2)]
        Y = [cg(rng, 2, 3)]
        rep = disk.pick_ltoa([np.zeros((2, 2))], X, Y)
        assert np.allclose(rep.pick,
                           matcore.hermitize(X[0] @ X[0].conj().T
                                             - Y[0] @ Y[0].conj().T))

    def test_scalar_geometric_series(self):
        # data from s(lam) = lam: T=1/2, X=1, Y=1/2 -> (1 - 1/4) / (1 - 1/4) = 1
        rep = disk.pick_ltoa([[[0.5]]], [[[1.0]]], [[[0.5]]])
        assert rep.pick[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert rep.feasible

    def test_scalar_argument_reduces_to_lt(self):
        rng = np.random.default_rng(4)
        lams = [0.25 - 0.3j, -0.1 + 0.6j]
        X = [cg(rng, 3, 2) for _ in range(2)]
        Y = [cg(rng, 3, 4) for _ in range(2)]
        lt = disk.pick_lt(lams, X, Y).pick
        ltoa = disk.pick_ltoa([l * np.eye(3) for l in lams], X, Y).pick
        assert np.max(np.abs(lt - ltoa)) <= 1e-12

    def test_sharp_duality_ltoa_rtoa(self):
        rng = np.random.default_rng(5)
        T = [contraction(rng, 3) for _ in range(2)]
        X = [cg(rng, 3, 2) for _ in range(2)]
        Y = [cg(rng, 3, 4) for _ in range(2)]
        ltoa = disk.pick_ltoa(T, X, Y).pick
        rtoa = disk.pick_rtoa(*disk.sharp_ltoa_to_rtoa(T, X, Y)).pick
        assert np.max(np.abs(ltoa - rtoa)) == 0.0

    def test_blocks_match_truncated_series(self):
        rng = np.random.default_rng(6)
        T = [contraction(rng, 3, 0.7) for _ in range(2)]
        X = [cg(rng, 3, 2) for _ in range(2)]
        Y = [cg(rng, 3, 2) for _ in range(2)]
        # points of different dimensions, the second non-normal with
        # spectral radius 0.5 < 1 < its norm
        T2 = [contraction(rng, 2, 0.7),
              np.array([[0.5, 3.0, 0.0], [0.0, -0.4, 2.0], [0.0, 0.0, 0.3j]])]
        X2 = [cg(rng, 2, 2), cg(rng, 3, 2)]
        Y2 = [cg(rng, 2, 4), cg(rng, 3, 4)]
        for T, X, Y in ((T, X, Y), (T2, X2, Y2)):
            rep = disk.pick_ltoa(T, X, Y)
            off = np.cumsum([0] + [t.shape[0] for t in T])
            for i in range(2):
                for j in range(2):
                    M0 = X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T
                    series = stein_series(T[i], M0, T[j], 200)
                    blk = rep.pick[off[i]:off[i + 1], off[j]:off[j + 1]]
                    assert np.max(np.abs(blk - series)) <= 1e-10

    def test_congruence_invariance(self):
        # rescaling a condition by invertible C_i (directions, targets, and
        # the operator point by similarity) transforms the Pick matrix by
        # blockwise congruence, leaving the PSD verdict unchanged
        rng = np.random.default_rng(7)
        T = [contraction(rng, 2) for _ in range(2)]
        X = [cg(rng, 2, 2) for _ in range(2)]
        Y = [cg(rng, 2, 2) for _ in range(2)]
        base = disk.pick_ltoa(T, X, Y)
        C = [cg(rng, 2, 2) + 2 * np.eye(2) for _ in range(2)]
        Cinv = [np.linalg.inv(Ci) for Ci in C]
        scaled = disk.pick_ltoa([C[i] @ T[i] @ Cinv[i] for i in range(2)],
                                [C[i] @ X[i] for i in range(2)],
                                [C[i] @ Y[i] for i in range(2)])
        D = np.block([[C[0], np.zeros((2, 2))], [np.zeros((2, 2)), C[1]]])
        assert np.max(np.abs(scaled.pick - D @ base.pick @ D.conj().T)) <= 1e-10
        assert scaled.verdict.is_psd == base.verdict.is_psd
        assert np.sign(scaled.min_eigenvalue) == np.sign(base.min_eigenvalue)

    def test_spectral_radius_precondition(self):
        with pytest.raises(DomainError):
            disk.pick_ltoa([np.eye(2)], [np.eye(2)], [np.eye(2)])

    @pytest.mark.parametrize("sizes", [(2, 2, 2), (2, 3, 2)])
    def test_domain_error_names_first_offending_radius(self, sizes):
        # one shape takes one batched eigvals, mixed shapes one call per point
        T = [np.diag(np.r_[0.5, np.zeros(n - 1)]) for n in sizes]
        T[1][-1, -1], T[2][0, 0] = 1.25, 3.0
        with pytest.raises(DomainError, match=r"spectral radius 1\.25 >= 1"):
            disk.pick_ltoa(T, [np.eye(n) for n in sizes], [np.eye(n) for n in sizes])


class TestRdExpansion:
    def test_kappa_one_is_relabeling(self):
        rng = np.random.default_rng(8)
        Z = [contraction(rng, 1)]
        U = [cg(rng, 1, 1)]
        V = [cg(rng, 1, 1)]
        points, dirs, targets = basis_columns(Z, U, V, basis_dim=1)
        assert len(points) == 1
        assert np.allclose(dirs[0], U[0])
        assert np.allclose(targets[0], V[0])

    def test_frd_expansion_uses_basis_columns(self):
        rng = np.random.default_rng(9)
        Z = [contraction(rng, 3)]
        W = [cg(rng, 3, 3) * 0.4]
        points, dirs, targets = basis_columns(Z, [np.eye(3)], W)
        assert len(points) == 3
        for k in range(3):
            e = np.zeros((3, 1))
            e[k, 0] = 1.0
            assert np.array_equal(points[k], Z[0])
            assert np.allclose(dirs[k], e)
            assert np.allclose(targets[k], W[0] @ e)

    def test_expanded_pipeline_matches_pick_frd(self):
        rng = np.random.default_rng(10)
        Z = [contraction(rng, 2)]
        W = [cg(rng, 2, 2) * 0.5]
        via_op = disk.pick_frd(Z, W)
        via_exp = disk.pick_ltoa(*basis_columns(Z, [np.eye(2)], W))
        assert np.max(np.abs(via_op.pick - via_exp.pick)) == 0.0

    def test_zero_basis_dim_rejected(self):
        with pytest.raises(ArgumentError):
            basis_columns([np.zeros((1, 1))], [np.eye(1)], [np.zeros((1, 1))],
                          basis_dim=0)


class TestRdPicks:
    def test_frd_zero_point_gram_of_basis(self):
        rep = disk.pick_frd([np.zeros((2, 2))], [np.zeros((2, 2))])
        # blocks e_i' e_j'* assemble a PSD Gram matrix
        assert rep.feasible
        assert rep.pick.shape == (4, 4)

    def test_frd_scalar_closed_form(self):
        z, w = 0.4 + 0.1j, 0.3 - 0.2j
        rep = disk.pick_frd([[[z]]], [[[w]]])
        expect = (1 - abs(w) ** 2) / (1 - abs(z) ** 2)
        assert rep.pick[0, 0] == pytest.approx(expect, abs=1e-14)

    def test_frd_necessity_from_blaschke(self):
        rng = np.random.default_rng(11)
        sample = oracle.sample_blaschke(2, seed=77)
        Z = [contraction(rng, 2, 0.5) for _ in range(2)]
        W = [oracle.eval_tensor(sample, Zi) for Zi in Z]
        rep = disk.pick_frd(Z, W)
        # truncated Taylor data differs from the true inner function by the
        # stored tail; the Pick matrix absorbs it up to a data-error term
        data_slack = 4 * sample.tail_bound / (1 - 0.25) + 1e-8
        assert rep.min_eigenvalue >= -(rep.tail_bound + data_slack)

    def test_ltrd_rtrd_brute_force_formula(self):
        rng = np.random.default_rng(12)
        N, z, c = 2, 2, 3
        Z = [contraction(rng, z, 0.4) for _ in range(N)]
        X = [cg(rng, c, z) for _ in range(N)]
        Y = [cg(rng, c, z) for _ in range(N)]
        rep = disk.pick_ltrd(Z, X, Y)
        e = np.eye(c, dtype=complex)
        brute = np.zeros((N * c * z, N * c * z), dtype=complex)
        for i in range(N):
            for ip in range(c):
                for j in range(N):
                    for jp in range(c):
                        E = e[:, ip:ip + 1] @ e[:, jp:jp + 1].conj().T
                        M0 = (X[i].conj().T @ E @ X[j]
                              - Y[i].conj().T @ E @ Y[j])
                        S = sum(np.linalg.matrix_power(Z[i].conj().T, n) @ M0
                                @ np.linalg.matrix_power(Z[j], n)
                                for n in range(160))
                        r0, c0 = (i * c + ip) * z, (j * c + jp) * z
                        brute[r0:r0 + z, c0:c0 + z] = S
        assert np.max(np.abs(rep.pick - brute)) <= 1e-12
        U = [cg(rng, z, c) for _ in range(N)]
        V = [cg(rng, z, c) for _ in range(N)]
        rep_r = disk.pick_rtrd(Z, U, V)
        brute_r = np.zeros((N * c * z, N * c * z), dtype=complex)
        for i in range(N):
            for ip in range(c):
                for j in range(N):
                    for jp in range(c):
                        E = e[:, ip:ip + 1] @ e[:, jp:jp + 1].conj().T
                        M0 = U[i] @ E @ U[j].conj().T - V[i] @ E @ V[j].conj().T
                        S = sum(np.linalg.matrix_power(Z[i], n) @ M0
                                @ np.linalg.matrix_power(Z[j].conj().T, n)
                                for n in range(160))
                        r0, c0 = (i * c + ip) * z, (j * c + jp) * z
                        brute_r[r0:r0 + z, c0:c0 + z] = S
        assert np.max(np.abs(rep_r.pick - brute_r)) <= 1e-12


class TestNevanlinnaRd:
    def test_scalar_golden_pair(self):
        rep = disk.nevanlinna_rd_check([[1.0]], [[1.0]])
        assert rep.pick[0, 0] == pytest.approx(1.0)
        assert rep.feasible  # f(lam) = lam interpolates
        rep2 = disk.nevanlinna_rd_check([[1.0]], [[-1.0]])
        assert rep2.pick[0, 0] == pytest.approx(-1.0)
        assert not rep2.feasible

    def test_identity_data_choi_of_identity(self):
        rep = disk.nevanlinna_rd_check(np.eye(2), np.eye(2))
        # blocks (e_i' e_j'*) form the Choi matrix of the identity, PSD
        assert rep.feasible
        assert rep.pick.shape == (4, 4)
        eigs = np.linalg.eigvalsh(rep.pick)
        assert eigs[-1] == pytest.approx(2.0, abs=1e-12)

    def test_entrywise_oracle(self):
        # diag Z: each block solves p (z_i' + conj(z_j')) = rhs entrywise
        Z = np.diag([1.0, 2.0])
        W = np.array([[0.5, 0.1], [0.0, 0.3]])
        rep = disk.nevanlinna_rd_check(Z, W)
        e = np.eye(2)
        for ip in range(2):
            for jp in range(2):
                rhs = (e[:, [ip]] @ e[:, [jp]].T @ W.conj().T
                       + W @ e[:, [ip]] @ e[:, [jp]].T)
                blk = rep.pick[2 * ip:2 * ip + 2, 2 * jp:2 * jp + 2]
                lam = np.diag(Z)
                expect = rhs / (lam[:, None] + lam[None, :].conj())
                assert np.max(np.abs(blk - expect)) <= 1e-12

    def test_spectrum_must_be_rhp(self):
        with pytest.raises(DomainError):
            disk.nevanlinna_rd_check([[-1.0]], [[0.0]])

    def test_zero_basis_dim_rejected(self):
        # 0 is a dimension, not "unset": the same error as pick_frd
        for call in (
                lambda: disk.nevanlinna_rd_check(np.eye(2), np.eye(2), basis_dim=0),
                lambda: disk.pick_frd([np.zeros((2, 2))], [np.eye(2)], basis_dim=0)):
            with pytest.raises(ArgumentError, match="basis dimension must be positive"):
                call()
        assert disk.nevanlinna_rd_check(np.eye(2), np.eye(2),
                                        basis_dim=2).method == "closed_form"


def test_necessity_all_disk_variants():
    from picklab import necessity
    for setting in ["disk.fov", "disk.lt", "disk.rt", "disk.ltoa",
                    "disk.rtoa", "disk.frd", "disk.ltrd", "disk.rtrd"]:
        res = necessity.run_suite(setting, 5, seed=99)
        assert res.passed, (setting, res.worst_margin)


def test_repeated_points_allowed():
    rep = disk.pick_fov([0.3, 0.3], [[[0.2]], [[0.2]]])
    assert rep.feasible


def test_mismatched_lengths_raise():
    with pytest.raises(DimensionError):
        disk.pick_fov([0.1, 0.2], [[[0.0]]])
