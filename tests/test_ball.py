import itertools
import math

import numpy as np
import pytest

from picklab import ball, disk, matcore
from picklab.ball import OperatorTuple, as_operator_tuple, word_power, words_up_to
from picklab.errors import ArgumentError, BudgetError, DomainError


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def row_tuple(rng, n, d, bound=0.7):
    mats = [cg(rng, n, n) for _ in range(d)]
    s = bound / matcore.operator_norm(np.hstack(mats))
    return [M * s for M in mats]


def commuting_tuple(rng, n, d, bound=0.7):
    Q, _ = np.linalg.qr(cg(rng, n, n))
    diags = rng.uniform(-1, 1, (d, n)) + 1j * rng.uniform(-1, 1, (d, n))
    s = bound / np.max(np.sqrt(np.sum(np.abs(diags) ** 2, axis=0)))
    return [Q @ np.diag(s * diags[k]) @ Q.conj().T for k in range(d)]


class TestWords:
    def test_d1_is_nonneg_integers(self):
        assert words_up_to(1, 3) == [(), (1,), (1, 1), (1, 1, 1)]

    def test_d2_l2_seven_words(self):
        ws = words_up_to(2, 2)
        assert len(ws) == (2 ** 3 - 1) // (2 - 1)
        assert ws == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_l0(self):
        assert words_up_to(3, 0) == [()]

    def test_count_formula(self):
        for d in (2, 3):
            for L in (0, 1, 2, 3):
                assert len(words_up_to(d, L)) == (d ** (L + 1) - 1) // (d - 1)

    def test_budget(self):
        with pytest.raises(BudgetError):
            words_up_to(10, 8, budget=1000)


class TestWordPower:
    def test_empty_word_is_identity(self):
        rng = np.random.default_rng(0)
        Z = row_tuple(rng, 3, 2)
        assert np.array_equal(word_power(Z, ()), np.eye(3))

    def test_order_conventions(self):
        rng = np.random.default_rng(1)
        Z = row_tuple(rng, 3, 2)
        # word written g = (2, 1): Z^g = Z_2 Z_1; transposed = Z_1 Z_2
        assert np.allclose(word_power(Z, (2, 1)), Z[1] @ Z[0])
        assert np.allclose(word_power(Z, (2, 1), transpose=True), Z[0] @ Z[1])

    def test_commuting_tuple_transpose_equal(self):
        rng = np.random.default_rng(2)
        Z = commuting_tuple(rng, 3, 2)
        for w in words_up_to(2, 3)[1:]:
            assert np.max(np.abs(word_power(Z, w)
                                 - word_power(Z, w, transpose=True))) <= 1e-13

    def test_letter_validation(self):
        with pytest.raises(ArgumentError):
            word_power([np.eye(2)], (2,))


class TestOperatorTuple:
    def test_row_norm_cached(self):
        Z = OperatorTuple((np.zeros((2, 2)), np.eye(2) * 0.5))
        assert Z.row_norm == pytest.approx(0.5)

    def test_commutativity_flag(self):
        rng = np.random.default_rng(3)
        assert as_operator_tuple(commuting_tuple(rng, 3, 2)).commutator_defect() <= 1e-12
        Z = row_tuple(rng, 3, 2)
        assert as_operator_tuple(Z).commutator_defect() > 1e-12


class TestPickNcLtoa:
    def test_zero_tuple(self):
        rng = np.random.default_rng(4)
        X = [cg(rng, 2, 2)]
        Y = [cg(rng, 2, 2)]
        rep = ball.pick_nc_ltoa([[np.zeros((2, 2))] * 2], X, Y)
        expect = matcore.hermitize(X[0] @ X[0].conj().T - Y[0] @ Y[0].conj().T)
        assert np.allclose(rep.pick, expect)

    def test_d1_reduces_to_disk(self):
        rng = np.random.default_rng(5)
        Z = [row_tuple(rng, 3, 1) for _ in range(2)]
        X = [cg(rng, 3, 2) for _ in range(2)]
        Y = [cg(rng, 3, 2) for _ in range(2)]
        rb = ball.pick_nc_ltoa(Z, X, Y, series_tol=1e-14)
        rd = disk.pick_ltoa([z[0] for z in Z], X, Y)
        assert np.max(np.abs(rb.pick - rd.pick)) <= 1e-12 + rb.tail_bound
        # d = 1 is the one-arrow fixed point: exact Stein solve, also for
        # points of different dimensions
        Z.insert(0, row_tuple(rng, 2, 1))
        X.insert(0, cg(rng, 2, 2))
        Y.insert(0, cg(rng, 2, 2))
        rb = ball.pick_nc_ltoa(Z, X, Y, budget=1)
        rd = disk.pick_ltoa([z[0] for z in Z], X, Y)
        assert (rb.method, rb.tail_bound) == ("stein_solve", 0.0)
        assert np.max(np.abs(rb.pick - rd.pick)) <= 1e-12

    def test_scalar_commuting_closed_form(self):
        rep = ball.pick_nc_ltoa([[np.array([[0.5]]), np.array([[0.5]])]],
                                [np.array([[1.0]])], [np.array([[0.0]])],
                                series_tol=1e-13)
        assert rep.pick[0, 0].real == pytest.approx(2.0, abs=1e-11)

    def test_level_recursion_vs_word_enumeration(self):
        rng = np.random.default_rng(6)
        # (d, dim Z_i, dim Z_j, non-normal first letter of Z_i with spectral
        # radius < 1 < norm)
        cases = [(d, 2, 2, False) for d in (2, 3)] + [(2, 2, 3, False),
                                                     (2, 3, 2, True)]
        for d, ni, nj, nonnormal in cases:
            Zi = as_operator_tuple(row_tuple(rng, ni, d))
            if nonnormal:
                Zi = as_operator_tuple(
                    [np.array([[0.3, 2.0, 0.0], [0.0, -0.2, 1.5], [0.0, 0.0, 0.1j]])]
                    + list(Zi.mats[1:]))
            Zj = as_operator_tuple(row_tuple(rng, nj, d))
            M0 = cg(rng, ni, nj)
            L = 6 if d == 2 else 5
            direct = np.zeros((ni, nj), dtype=complex)
            for w in words_up_to(d, L):
                direct += word_power(Zi, w) @ M0 @ word_power(Zj, w).conj().T
            acc = M0.copy()
            cur = M0.copy()
            for _ in range(L):
                cur = sum(Zi.mats[k] @ cur @ Zj.mats[k].conj().T
                          for k in range(d))
                acc += cur
            assert np.max(np.abs(acc - direct)) <= 1e-12
            # the stacked kernel: L_k = blockdiag(Z_k^(i), Z_k^(j))
            Ls = [matcore.block_diag([Zi.mats[k], Zj.mats[k]]) for k in range(d)]
            M = np.zeros((ni + nj, ni + nj), dtype=complex)
            M[:ni, ni:] = M0
            stacked = matcore.level_sum(Ls, M, [ni, nj], np.ones((2, 2)), 0.0, L)[0]
            assert np.max(np.abs(stacked[:ni, ni:] - direct)) <= 1e-12

    def test_tail_bound_honored(self):
        rng = np.random.default_rng(7)
        Z = [row_tuple(rng, 2, 2, 0.8) for _ in range(2)]
        X = [cg(rng, 2, 2) for _ in range(2)]
        Y = [cg(rng, 2, 2) for _ in range(2)]
        loose = ball.pick_nc_ltoa(Z, X, Y, series_tol=1e-6)
        tight = ball.pick_nc_ltoa(Z, X, Y, series_tol=1e-13)
        assert np.max(np.abs(loose.pick - tight.pick)) <= loose.tail_bound + 1e-12

    def test_row_norm_precondition(self):
        with pytest.raises(DomainError):
            ball.pick_nc_ltoa([[np.eye(2), np.eye(2)]], [np.eye(2)], [np.eye(2)])

    def test_budget_error_reports_achieved_bound(self):
        rng = np.random.default_rng(8)
        Z = [row_tuple(rng, 2, 2, 0.95)]
        with pytest.raises(BudgetError) as err:
            ball.pick_nc_ltoa(Z, [cg(rng, 2, 2)], [cg(rng, 2, 2)],
                              series_tol=1e-14, budget=4)
        assert err.value.achieved_bound is not None


class TestPickDa:
    def test_d1_fov_equals_disk(self):
        rng = np.random.default_rng(9)
        lams = np.array([[0.2 + 0.1j], [-0.4j]])
        W = [cg(rng, 2, 2) * 0.4 for _ in range(2)]
        rb = ball.pick_da_fov(lams, W)
        rd = disk.pick_fov(lams.reshape(-1), W)
        assert np.array_equal(rb.pick, rd.pick)

    def test_single_origin_point(self):
        rep = ball.pick_da_fov(np.zeros((1, 3)), [np.zeros((2, 2))])
        assert np.allclose(rep.pick, np.eye(2))

    def test_golden_two_point(self):
        # lam1 = (0,0), lam2 = (0.5, 0.5), scalar values 0 and 0.5
        rep = ball.pick_da_fov(np.array([[0, 0], [0.5, 0.5]]),
                               [[[0.0]], [[0.5]]])
        assert np.allclose(rep.pick, [[1.0, 1.0], [1.0, 1.5]])
        # 2x2 quadratic-formula oracle on entries (1, 1, 1.5)
        expect_min = (2.5 - np.sqrt((1.0 - 1.5) ** 2 + 4 * 1.0)) / 2
        assert rep.min_eigenvalue == pytest.approx(expect_min, abs=1e-12)
        assert expect_min > 0 and rep.feasible

    def test_point_outside_ball(self):
        with pytest.raises(DomainError):
            ball.pick_da_fov(np.array([[0.8, 0.7]]), [[[0.0]]])

    def test_da_ltoa_scalar_tuples_reduce_to_lt(self):
        # includes the multinomial weights reproducing 1/(1 - <lam, zeta>)
        rng = np.random.default_rng(10)
        pts = np.array([[0.1 + 0.1j, 0.2], [0.3, -0.2 + 0.1j]])
        X = [cg(rng, 2, 2) for _ in range(2)]
        Y = [cg(rng, 2, 2) for _ in range(2)]
        tuples = [[pts[i, k] * np.eye(2) for k in range(2)] for i in range(2)]
        da = ball.pick_da_ltoa(tuples, X, Y, series_tol=1e-14)
        lt = ball.pick_da_lt(pts, X, Y)
        assert np.max(np.abs(da.pick - lt.pick)) <= 1e-12 + da.tail_bound

    def test_da_ltoa_equal_directions_zero(self):
        rng = np.random.default_rng(11)
        tuples = [commuting_tuple(rng, 2, 2)]
        X = [cg(rng, 2, 2)]
        rep = ball.pick_da_ltoa(tuples, X, X)
        assert np.max(np.abs(rep.pick)) == 0.0

    def test_commutativity_enforced(self):
        rng = np.random.default_rng(12)
        Z = row_tuple(rng, 3, 2)
        with pytest.raises(DomainError):
            ball.pick_da_ltoa([Z], [cg(rng, 3, 2)], [cg(rng, 3, 2)])

    def test_literal_unweighted_gives_polydisk_kernel(self):
        rng = np.random.default_rng(13)
        pts = np.array([[0.2, 0.1j], [-0.3j, 0.25]])
        X = [cg(rng, 2, 2) for _ in range(2)]
        Y = [cg(rng, 2, 2) for _ in range(2)]
        tuples = [[pts[i, k] * np.eye(2) for k in range(2)] for i in range(2)]
        rep = ball.pick_da_ltoa(tuples, X, Y, series_tol=1e-14,
                                literal_unweighted=True)
        expect = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                kern = np.prod([1 / (1 - pts[i, k] * np.conj(pts[j, k]))
                                for k in range(2)])
                expect[2 * i:2 * i + 2, 2 * j:2 * j + 2] = kern * (
                    X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T)
        assert np.max(np.abs(rep.pick - matcore.hermitize(expect))) \
            <= 1e-11 + rep.tail_bound

    @pytest.mark.parametrize("d, sizes, seed", [(2, [2, 3], 15), (3, [1, 3], 16),
                                                (3, [2, 2, 1], 17)])
    def test_literal_unweighted_matches_multi_index_sum(self, d, sizes, seed):
        # non-normal commuting tuples S diag S^-1, conditions of unequal size;
        # reference: sum over n in Z_+^d, |n| < L, of Z^n M Z^n* on the
        # stacked blocks, cut with the geometric tail
        # ||M|| sum_{m >= L} C(m + d - 1, d - 1) r^(2m), r the largest row norm
        rng = np.random.default_rng(seed)
        tuples = []
        for n in sizes:
            S = np.eye(n) + 0.3 * cg(rng, n, n)
            diags = rng.uniform(-1, 1, (d, n)) + 1j * rng.uniform(-1, 1, (d, n))
            mats = [S @ np.diag(z) @ np.linalg.inv(S) for z in diags]
            scale = 0.6 / matcore.operator_norm(np.hstack(mats))
            tuples.append([M * scale for M in mats])
        X = [cg(rng, n, 2) for n in sizes]
        Y = [cg(rng, n, 2) for n in sizes]
        rep = ball.pick_da_ltoa(tuples, X, Y, literal_unweighted=True)
        assert (rep.method, rep.tail_bound) == ("stein_solve", 0.0)

        Ls = [matcore.block_diag([Z[k] for Z in tuples]) for k in range(d)]
        Xs, Ys = np.vstack(X), np.vstack(Y)
        M = Xs @ Xs.conj().T - Ys @ Ys.conj().T
        L = 40
        powers = [[np.linalg.matrix_power(Lk, e) for e in range(L)] for Lk in Ls]
        ref = np.zeros_like(M)
        for n in itertools.product(range(L), repeat=d):
            if sum(n) < L:
                Ln = np.linalg.multi_dot([powers[k][e] for k, e in enumerate(n)])
                ref += Ln @ M @ Ln.conj().T
        r = max(matcore.operator_norm(np.hstack(Z)) for Z in tuples)
        tail = matcore.operator_norm(M) * sum(
            math.comb(m + d - 1, d - 1) * r ** (2 * m) for m in range(L, 400))
        err = matcore.operator_norm(rep.pick - matcore.hermitize(ref))
        assert err <= 1e-12 * matcore.operator_norm(ref) + tail

    def test_literal_unweighted_near_boundary_is_one_stein_solve(self):
        # coordinates of modulus up to 0.999 need thousands of multi-index
        # levels; the nested one-arrow solve takes no budget
        pts = np.array([[0.999, 0.0], [0.0, 0.999j], [0.7, 0.7j], [-0.5j, 0.85]])
        rng = np.random.default_rng(18)
        X = [cg(rng, 1, 2) for _ in pts]
        Y = [0.1 * cg(rng, 1, 2) for _ in pts]
        tuples = [[[[z]] for z in p] for p in pts]
        rep = ball.pick_da_ltoa(tuples, X, Y, budget=1, literal_unweighted=True)
        assert (rep.method, rep.tail_bound) == ("stein_solve", 0.0)
        kern = np.prod(1 / (1 - pts[:, None, :] * pts[None, :, :].conj()), axis=2)
        Xs, Ys = np.vstack(X), np.vstack(Y)
        expect = matcore.hermitize(kern * (Xs @ Xs.conj().T - Ys @ Ys.conj().T))
        assert matcore.operator_norm(rep.pick - expect) \
            <= 1e-12 * matcore.operator_norm(expect)

    def test_abelianization_word_sum_permutation_invariant(self):
        # for commuting tuples the enumerated word sum groups into
        # multi-indices: permuting letters within each word changes nothing
        rng = np.random.default_rng(14)
        Z = as_operator_tuple(commuting_tuple(rng, 2, 2))
        M0 = cg(rng, 2, 2)
        L = 4
        total = np.zeros((2, 2), dtype=complex)
        total_perm = np.zeros((2, 2), dtype=complex)
        for w in words_up_to(2, L):
            total += word_power(Z, w) @ M0 @ word_power(Z, w).conj().T
            wp = tuple(sorted(w))
            total_perm += word_power(Z, wp) @ M0 @ word_power(Z, wp).conj().T
        assert np.max(np.abs(total - total_perm)) <= 1e-12


class TestPickFrd:
    def test_zero_tuples_basis_gram(self):
        Z = [[np.zeros((2, 2))] * 2]
        rep = ball.pick_nc_frd(Z, [np.zeros((2, 2))])
        assert rep.feasible

    def test_frd_star_matches_direct_formula(self):
        # the conjugation reduction (adjoint tuples, adjoint values) produces
        # exactly the adjoint-side word-sum Pick matrix
        rng = np.random.default_rng(15)
        Z = [row_tuple(rng, 2, 2, 0.4) for _ in range(2)]
        W = [cg(rng, 2, 2) * 0.3 for _ in range(2)]
        star = ball.pick_nc_frd_star(Z, W, series_tol=1e-14)
        e = np.eye(2, dtype=complex)
        words = words_up_to(2, 12)  # tail <= 0.16^13 / (1 - 0.16) ~ 6e-11
        powers = [{w: word_power(Z[i], w) for w in words} for i in range(2)]
        direct = np.zeros((8, 8), dtype=complex)
        for i in range(2):
            for ip in range(2):
                for j in range(2):
                    for jp in range(2):
                        E = e[:, ip:ip + 1] @ e[:, jp:jp + 1].conj().T
                        M0 = E - W[i].conj().T @ E @ W[j]
                        S = sum(powers[i][w].conj().T @ M0 @ powers[j][w]
                                for w in words)
                        r0, c0 = (i * 2 + ip) * 2, (j * 2 + jp) * 2
                        direct[r0:r0 + 2, c0:c0 + 2] = S
        assert np.max(np.abs(star.pick - matcore.hermitize(direct))) <= 2e-10

    def test_basis_dim_must_match(self):
        Z = [[np.zeros((2, 2))] * 2]
        with pytest.raises(Exception):
            ball.pick_nc_frd(Z, [np.zeros((2, 2))], basis_dim=3)


def test_necessity_ball_variants():
    from picklab import necessity
    for setting in ["ball.nc_ltoa", "ball.da_ltoa"]:
        res = necessity.run_suite(setting, 5, seed=123)
        assert res.passed, (setting, res.worst_margin)
