"""The copy-free matcore kernels against their allocating forms, bit for bit.

solve_stein, hermitize, operator_norm and level_sum reorder no arithmetic:
they write the same products into reused or in-place buffers, skip work
that is exact when B is A, and sum arrows in the same order.  So each must
equal its form in tests/reference.py exactly (np.array_equal), and on this
data the signs of zeros agree as well.
"""

import numpy as np
import pytest

from picklab import matcore, reports
from reference import doubling_by_sandwich, halved_sum, level_sum_by_arrows, norm_2


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def scaled_stack(rng, N, n, rho):
    """N blocks n x n, each of spectral norm rho."""
    T = cg(rng, N, n, n)
    return T * (rho / np.linalg.norm(T, 2, axis=(1, 2)))[:, None, None]


def assert_bitwise(got, expect):
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got.view(np.float64)),
                          np.signbit(expect.view(np.float64)))


class TestSolveStein:
    def test_order_256_stack(self):
        rng = np.random.default_rng(0)
        T = scaled_stack(rng, 32, 8, 0.6)
        X, Y = cg(rng, 256, 2), cg(rng, 256, 2)
        M = X @ X.conj().T - Y @ Y.conj().T
        assert_bitwise(matcore.solve_stein(T, M, T), doubling_by_sandwich(T, M, T))

    @pytest.mark.parametrize("N, n, K, q", [(5, 3, 3, 4), (2, 1, 6, 2), (1, 4, 3, 1)])
    def test_rectangular_stacks(self, N, n, K, q):
        rng = np.random.default_rng(N * n + K * q)
        A, B = scaled_stack(rng, N, n, 0.7), scaled_stack(rng, K, q, 0.5)
        Q = cg(rng, N * n, K * q)
        assert_bitwise(matcore.solve_stein(A, Q, B), doubling_by_sandwich(A, Q, B))

    @pytest.mark.parametrize("stacked", [True, False])
    def test_same_letters_match_a_copy(self, stacked):
        # B is A skips the second norm, the rebalancing and the second
        # squaring; a copy of A runs them all with balance 1
        rng = np.random.default_rng(3)
        T = scaled_stack(rng, 6, 4, 0.8) if stacked else scaled_stack(rng, 1, 5, 0.8)[0]
        Q = cg(rng, 24, 24) if stacked else cg(rng, 5, 5)
        same = matcore.solve_stein(T, Q, T)
        assert_bitwise(same, matcore.solve_stein(T, Q, T.copy()))
        assert_bitwise(same, doubling_by_sandwich(T, Q, T))

    def test_rebalanced_path(self):
        # spectral_radius(A) > 1 > spectral_radius(A) spectral_radius(B), and
        # ||A||_F / ||B||_F far from 1, so the first step rescales by 2^s, s != 0
        rng = np.random.default_rng(4)
        A = 1.5 * np.eye(3) + np.triu(cg(rng, 3, 3), 1)
        B = 0.2 * np.eye(2) + np.triu(cg(rng, 2, 2), 1) / 8
        assert round(0.5 * np.log2(np.linalg.norm(A) / np.linalg.norm(B))) != 0
        Q = cg(rng, 3, 2)
        P = matcore.solve_stein(A, Q, B)
        assert_bitwise(P, doubling_by_sandwich(A, Q, B))
        assert np.max(np.abs(P - A @ P @ B.conj().T - Q)) <= 1e-12 * np.abs(P).max()


def test_fixed_point_of_equal_blocks_is_the_doubling_of_the_stack():
    rng = np.random.default_rng(5)
    T = scaled_stack(rng, 16, 4, 0.6)
    X = cg(rng, 64, 3)
    M = X @ X.conj().T
    P, tails = reports.fixed_point([[Ti] for Ti in T], M, None)
    assert tails is None
    assert_bitwise(P, doubling_by_sandwich(T, M, T))


class TestHermitize:
    @pytest.mark.parametrize("shape", [(256, 256), (1, 1), (7, 7)])
    def test_matrix(self, shape):
        A = cg(np.random.default_rng(shape[0]), *shape)
        assert_bitwise(matcore.hermitize(A), halved_sum(A))

    def test_stacks(self):
        rng = np.random.default_rng(6)
        for S in (cg(rng, 5, 3, 3), rng.standard_normal((4, 2, 2)),
                  np.arange(18).reshape(2, 3, 3)):
            H = matcore.hermitize(S)
            assert H.dtype == halved_sum(S).dtype
            assert np.array_equal(H, halved_sum(S))


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (1, 1), (1, 5), (64, 64),
                                   (0, 3), (3, 0), (0, 0)])
def test_operator_norm(shape):
    A = cg(np.random.default_rng(sum(shape)), *shape)
    assert matcore.operator_norm(A) == norm_2(A)


@pytest.mark.parametrize("arrows, blocks, levels", [(2, (3, 3, 3), 8), (3, (2, 1, 4), 5),
                                                    (1, (4,), 6)])
def test_level_sum(arrows, blocks, levels):
    # block-diagonal letters with zero blocks, as the stacked criteria build
    rng = np.random.default_rng(arrows)
    Ls = [matcore.block_diag([0.5 * cg(rng, b, b) if (a + k) % 3 != 2 else np.zeros((b, b))
                              for k, b in enumerate(blocks)]) for a in range(arrows)]
    X = cg(rng, sum(blocks), 2)
    M = X @ X.conj().T
    # series_tol 0 never stops early on this data, so all levels are summed
    P, _ = matcore.level_sum(Ls, M, blocks, np.ones((len(blocks),) * 2), 0.0, levels)
    assert_bitwise(P, level_sum_by_arrows(Ls, M, levels))
