import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picklab import matcore
from picklab.errors import (
    ArgumentError,
    DimensionError,
    DivergenceError,
    DomainError,
    RegularityError,
)
from reference import stein_series, stein_tail_bound

# Independent oracle: eigenvalues of a 2x2 Hermitian [[a, b], [conj(b), d]]
# by the quadratic formula.
def eig2_oracle(a, b, d):
    tr = a + d
    disc = np.sqrt((a - d) ** 2 + 4 * abs(b) ** 2)
    return (tr - disc) / 2, (tr + disc) / 2


GOLDEN_MIN_EIG = eig2_oracle(1.0, 1.0, 0.0)[0]  # (1 - sqrt(5))/2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(0, np.inf), complex(np.nan, 1.0)])
def test_as_complex_matrix_rejects_nonfinite(bad):
    with pytest.raises(DimensionError, match="finite"):
        matcore.as_complex_matrix([[1.0, bad]])


def test_hermitize_forced_values():
    out = matcore.hermitize([[0, 1], [0, 0]])
    assert np.allclose(out, [[0, 0.5], [0.5, 0]])
    assert np.allclose(matcore.hermitize(np.eye(3)), np.eye(3))
    H = np.array([[1, 1j], [-1j, 1]])
    assert np.allclose(matcore.hermitize(H), H)


def test_hermitize_idempotent_and_rejects_nonsquare():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    once = matcore.hermitize(M)
    assert np.array_equal(matcore.hermitize(once), once)
    with pytest.raises(DimensionError):
        matcore.hermitize(np.zeros((2, 3)))


def test_min_eigenvalue_examples():
    assert matcore.min_eigenvalue(np.diag([1.0, 2.0, 3.0])) == pytest.approx(1.0)
    assert matcore.min_eigenvalue([[1, 1], [1, 1]]) == pytest.approx(0.0, abs=1e-14)
    assert matcore.min_eigenvalue([[1, 1], [1, 0]]) == pytest.approx(
        GOLDEN_MIN_EIG, abs=1e-12)
    assert GOLDEN_MIN_EIG == pytest.approx(-0.6180339887, abs=1e-9)


def test_min_eigenvalue_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        H = matcore.hermitize(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        assert matcore.min_eigenvalue(Q @ H @ Q.conj().T) == pytest.approx(
            matcore.min_eigenvalue(H), abs=1e-10)


def test_is_psd_examples():
    assert matcore.is_psd(np.zeros((2, 2)), 1e-12).is_psd
    v = matcore.is_psd([[1, 1], [1, 0]], 1e-9)
    assert not v.is_psd
    assert v.min_eigenvalue == pytest.approx(GOLDEN_MIN_EIG, abs=1e-12)
    auto = matcore.is_psd(np.zeros((4, 4)), "auto")
    assert auto.is_psd
    with pytest.raises(ArgumentError):
        matcore.is_psd(np.eye(2), -1.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, "abc", 1j, None])
def test_is_psd_rejects_tolerance_not_finite_nonnegative(tol):
    # a NaN tolerance used to call the identity not PSD, and an infinite one
    # to call every matrix PSD
    with pytest.raises(ArgumentError, match="tolerance"):
        matcore.is_psd(np.eye(2), tol)


def test_psd_verdicts_hermitize_once(monkeypatch):
    from picklab import cp, disk
    calls = []
    real = matcore.hermitize

    def counting(M):
        calls.append(np.shape(M))
        return real(M)

    monkeypatch.setattr(matcore, "hermitize", counting)
    rep = disk.pick_fov([0.0, 0.5], [[[0.0]], [[0.5]]])
    assert calls == [(2, 2)]
    calls.clear()
    cp.cp_check(cp.LinearMapOnMatrices.from_callable(lambda A: A.T, 2))
    assert calls == [(4, 4)]
    # the verdict on the hermitized matrix is the public one, bit for bit
    monkeypatch.undo()
    assert rep.verdict == matcore.is_psd(rep.pick)
    assert rep.min_eigenvalue == matcore.min_eigenvalue(rep.pick)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_zero_rows_are_deflated_to_exact_zeros(n):
    # a zero row of a Hermitian matrix is a zero column: its unit vector is
    # an eigenvector for 0, and LAPACK sees only the rows that carry data
    rng = np.random.default_rng(40 + n)
    for k in sorted({1, n // 2, n - 1}):
        B = matcore.hermitize(rng.standard_normal((n - k, n - k))
                              + 1j * rng.standard_normal((n - k, n - k)))
        live = np.sort(rng.choice(n, n - k, replace=False))
        A = np.zeros((n, n), dtype=complex)
        A[np.ix_(live, live)] = B
        lam = matcore._eigenvalues(A)
        expect = np.sort(np.concatenate([np.linalg.eigvalsh(B), np.zeros(k)]))
        norm = np.linalg.norm(A, 2)
        assert np.max(np.abs(lam - expect)) <= 1e-13 * norm
        assert np.count_nonzero(lam == 0.0) >= k
        assert matcore.min_eigenvalue(A) == lam[0]
        # the auto tolerance keeps the full dimension, zero rows included
        v = matcore.psd_verdict(A)
        assert v.min_eigenvalue == lam[0]
        assert v.tolerance_used == n * np.finfo(float).eps * max(-lam[0], lam[-1])


@pytest.mark.parametrize("n", [1, 4])
def test_all_zero_matrix_is_psd_without_lapack(n, monkeypatch):
    def refuse(A):
        raise AssertionError("eigvalsh called on a zero matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    v = matcore.is_psd(np.zeros((n, n)))
    assert v.is_psd and v.min_eigenvalue == 0.0 and v.tolerance_used == 0.0
    assert matcore.min_eigenvalue(np.zeros((n, n))) == 0.0


@pytest.mark.parametrize("n", [1, 3, 12])
def test_no_zero_row_is_plain_eigvalsh(n):
    rng = np.random.default_rng(60 + n)
    A = matcore.hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert np.array_equal(matcore._eigenvalues(A), np.linalg.eigvalsh(A))


def test_is_psd_verdict_invariant_and_monotone():
    rng = np.random.default_rng(3)
    H = matcore.hermitize(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    lam = matcore.min_eigenvalue(H)
    for tol in [0.0, 1e-6, 1.0, 10.0]:
        v = matcore.is_psd(H, tol)
        assert v.is_psd == (v.min_eigenvalue >= -v.tolerance_used)
    # monotone in tol
    tols = [0.0, abs(lam) / 2, abs(lam), 2 * abs(lam) + 1]
    verdicts = [matcore.is_psd(H, t).is_psd for t in tols]
    assert verdicts == sorted(verdicts)
    # shifting by -lam makes it PSD
    assert matcore.is_psd(H + (abs(lam) + 1e-12) * np.eye(4), 1e-10).is_psd


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
def test_hermitize_composition_property(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = matcore.hermitize(M)
    assert np.array_equal(matcore.hermitize(H), H)
    assert np.allclose(H, H.conj().T)


def test_operator_norm_and_spectral_radius():
    assert matcore.operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0)
    assert matcore.spectral_radius([[0, 1], [0, 0]]) == pytest.approx(0.0, abs=1e-12)
    D = np.diag([0.5, -0.25])
    assert matcore.operator_norm(D) == pytest.approx(0.5)
    assert matcore.spectral_radius(D) == pytest.approx(0.5)
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert matcore.spectral_radius(M) <= matcore.operator_norm(M) + 1e-12


def test_solve_stein_trivial_and_scalar():
    Q = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[0.5, 0.1], [0.0, 0.2]])
    assert np.allclose(matcore.solve_stein(np.zeros((2, 2)), Q, B), Q)
    # scalar a=b=1/2, q=1 -> geometric series 1/(1 - 1/4) = 4/3
    p = matcore.solve_stein([[0.5]], [[1.0]], [[0.5]])
    assert p[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_solve_stein_matches_truncated_series():
    rng = np.random.default_rng(21)
    for _ in range(5):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A *= 0.8 / matcore.operator_norm(A)
        B *= 0.8 / matcore.operator_norm(B)
        Q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        P = matcore.solve_stein(A, Q, B)
        series = stein_series(A, Q, B, 200)
        rel = np.linalg.norm(P - series) / np.linalg.norm(Q)
        assert rel <= 1e-10
    # spectral radii 1.5 and 0.4: rho(A) > 1 > rho(A) rho(B)
    S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
    A = S @ np.diag([1.5, -0.7, 0.3j, 0.1]) @ np.linalg.inv(S)
    B = np.diag([0.4, 0.2, -0.3, 0.1j]) + np.diag([0.5, 0.5, 0.5], 1)
    assert matcore.spectral_radius(A) > 1.0
    P = matcore.solve_stein(A, Q, B)
    series = stein_series(A, Q, B, 200)
    rel = np.linalg.norm(P - series) / np.linalg.norm(series)
    assert rel <= 1e-10
    # the same series with A scaled by 2^60 and B by 2^-60: unbalanced
    # doubling would overflow
    P = matcore.solve_stein(2.0 ** 60 * A, Q, 2.0 ** -60 * B)
    rel = np.linalg.norm(P - series) / np.linalg.norm(series)
    assert rel <= 1e-10


def test_solve_stein_residual_contract():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 9)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A *= rng.uniform(0.1, 0.9) / max(matcore.operator_norm(A), 1e-12)
        B *= rng.uniform(0.1, 0.9) / max(matcore.operator_norm(B), 1e-12)
        Q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        P = matcore.solve_stein(A, Q, B)
        res = np.linalg.norm(P - A @ P @ B.conj().T - Q, 2)
        assert res <= 1e-12 * np.linalg.norm(Q, 2)
    # block stacks (N, n, n) stand for blockdiag and match the dense solve
    for N, K, n, m in [(3, 2, 2, 3), (4, 4, 3, 3), (1, 5, 2, 1)]:
        A = rng.normal(size=(N, n, n)) + 1j * rng.normal(size=(N, n, n))
        B = rng.normal(size=(K, m, m)) + 1j * rng.normal(size=(K, m, m))
        A *= 0.8 / np.linalg.norm(A, 2, axis=(1, 2))[:, None, None]
        B *= 0.8 / np.linalg.norm(B, 2, axis=(1, 2))[:, None, None]
        Q = rng.normal(size=(N * n, K * m)) + 1j * rng.normal(size=(N * n, K * m))
        P = matcore.solve_stein(A, Q, B)
        dense = matcore.solve_stein(matcore.block_diag(A), Q, matcore.block_diag(B))
        assert np.linalg.norm(P - dense) <= 1e-13 * np.linalg.norm(dense)


def test_sandwich_rectangular_blocks():
    rng = np.random.default_rng(8)
    for (N, m, n), (K, p, q) in [((3, 2, 4), (2, 5, 3)), ((1, 3, 3), (4, 1, 2))]:
        A = rng.normal(size=(N, m, n)) + 1j * rng.normal(size=(N, m, n))
        B = rng.normal(size=(K, p, q)) + 1j * rng.normal(size=(K, p, q))
        P = rng.normal(size=(N * n, K * q)) + 1j * rng.normal(size=(N * n, K * q))
        dense = matcore.block_diag(A) @ P @ matcore.block_diag(B).conj().T
        assert np.max(np.abs(matcore.sandwich(A, P, B) - dense)) <= 1e-13
    # a matrix is a one-block stack
    A, P, B = A[0], P[:n, :q], B[0]
    assert np.max(np.abs(matcore.sandwich(A, P, B) - A @ P @ B.conj().T)) <= 1e-13


def test_solve_stein_divergence_error():
    with pytest.raises(DivergenceError):
        matcore.solve_stein(np.eye(2), np.eye(2), np.eye(2))


def test_solve_stein_series_fallback_agrees():
    # A size whose vec dimension (4900) is far beyond dense Kronecker solves.
    rng = np.random.default_rng(9)
    n = 70
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A *= 0.5 / matcore.operator_norm(A)
    B *= 0.5 / matcore.operator_norm(B)
    Q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P = matcore.solve_stein(A, Q, B)
    res = np.linalg.norm(P - A @ P @ B.conj().T - Q, 2)
    assert res <= 1e-12 * np.linalg.norm(Q, 2)


def test_stein_series_tail_bound_honored():
    rng = np.random.default_rng(33)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A *= 0.7 / matcore.operator_norm(A)
    B *= 0.7 / matcore.operator_norm(B)
    Q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    P = matcore.solve_stein(A, Q, B)
    for L in [5, 10, 20]:
        series = stein_series(A, Q, B, L)
        bound = stein_tail_bound(A, Q, B, L)
        assert np.linalg.norm(P - series, 2) <= bound + 1e-13


def test_solve_lyapunov_scalar_and_diag():
    assert matcore.solve_lyapunov_rhp([[1.0]], [[2.0]])[0, 0] == pytest.approx(1.0)
    assert matcore.solve_lyapunov_rhp([[1.0]], [[-2.0]])[0, 0] == pytest.approx(-1.0)
    # entrywise oracle: p_ij (lam_i + conj(lam_j)) = q_ij
    Z = np.diag([1.0, 2.0])
    Q = np.array([[2.0, 3.0], [3.0, 4.0]])
    P = matcore.solve_lyapunov_rhp(Z, Q)
    assert np.allclose(P, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)


def test_solve_lyapunov_residual_and_hermitian():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = rng.integers(1, 9)
        Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
        Q = matcore.hermitize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        P = matcore.solve_lyapunov_rhp(Z, Q)
        res = np.linalg.norm(P @ Z.conj().T + Z @ P - Q, 2)
        assert res <= 1e-10 * max(np.linalg.norm(Q, 2), 1e-30)
        assert np.allclose(P, P.conj().T)


def test_solve_lyapunov_regularity_error():
    Z = np.diag([1.0, -1.0])  # 1 + conj(-1) = 0
    with pytest.raises(RegularityError) as err:
        matcore.solve_lyapunov_rhp(Z, np.eye(2))
    assert err.value.eigenvalue_pair is not None
