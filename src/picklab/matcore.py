"""Dense complex linear algebra kernels.

Hermitian eigenvalues and PSD verdicts, operator norms, the Lyapunov solver,
and the fixed-point kernel behind every operator-argument Pick matrix:
P = M + sum_a L_a P L_a* on the whole condition-stacked matrix, with L_a
block diagonal over the conditions.  Block-diagonal operators are kept as
block stacks (N, m, n) and applied by :func:`sandwich`.  One arrow is a
Stein equation, solved by Smith doubling on the stacks (:func:`solve_stein`);
several arrows are summed by the level recursion (:func:`level_sum`),
truncated at levels planned with certified geometric tails
(:func:`plan_levels`).  :func:`stein_series` and
:func:`stein_tail_bound` are independent oracles for tests.  All functions
are pure; matrices are numpy complex arrays, and Hermitian outputs are
always symmetrized explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    BudgetError,
    DimensionError,
    DivergenceError,
    NumericError,
    RegularityError,
)

_EPS = np.finfo(np.float64).eps


def as_complex_matrix(M) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise DimensionError("matrix entries must be finite")
    return A


def _require_square(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {A.shape}")
    return A


def hermitize(M) -> np.ndarray:
    """(M + M*)/2 of a matrix, or of each block of a stack (N, n, n).
    Idempotent on Hermitian input."""
    A = M if np.ndim(M) == 3 else _require_square(as_complex_matrix(M))
    return (A + A.conj().swapaxes(-1, -2)) / 2.0


def min_eigenvalue(H) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return _lowest_eigenvalue(hermitize(H))


def _lowest_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of a matrix that is already Hermitian."""
    if A.shape[0] == 0:
        raise DimensionError("empty matrix has no eigenvalues")
    try:
        return float(np.linalg.eigvalsh(A)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}")


def operator_norm(M) -> float:
    """Largest singular value."""
    A = as_complex_matrix(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    A = _require_square(as_complex_matrix(M))
    if A.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


def auto_tolerance(H: np.ndarray) -> float:
    """Backward-error PSD tolerance: dim * eps * spectral norm."""
    return H.shape[0] * _EPS * operator_norm(H)


def is_psd(H, tol="auto") -> PsdVerdict:
    """PSD verdict for a Hermitian matrix at the given tolerance."""
    return psd_verdict(hermitize(H), tol)


def psd_verdict(A: np.ndarray, tol="auto") -> PsdVerdict:
    """:func:`is_psd` for a matrix that is already Hermitian (e.g. the output
    of :func:`hermitize`); it is not copied or symmetrized again."""
    if tol == "auto":
        tol = auto_tolerance(A)
    tol = float(tol)
    if tol < 0:
        raise ArgumentError("tolerance must be nonnegative")
    lam = _lowest_eigenvalue(A)
    return PsdVerdict(is_psd=bool(lam >= -tol), min_eigenvalue=lam, tolerance_used=tol)


def stein_series(A, Q, B, terms: int) -> np.ndarray:
    """Truncated series sum_{n=0}^{terms} A^n Q B*^n (independent oracle)."""
    A = as_complex_matrix(A)
    B = as_complex_matrix(B)
    Q = as_complex_matrix(Q)
    P = Q.copy()
    term = Q.copy()
    Bh = B.conj().T
    for _ in range(terms):
        term = A @ term @ Bh
        P += term
    return P


def stein_tail_bound(A, Q, B, terms: int) -> float:
    """Geometric bound on the dropped tail of :func:`stein_series`."""
    r = spectral_radius(as_complex_matrix(A)) * spectral_radius(as_complex_matrix(B))
    if r >= 1.0:
        raise DivergenceError(f"spectral-radius product {r:.6g} >= 1")
    # ||A^n Q B*^n|| <= C r^n eventually; the crude bound with operator norms
    # is adequate for a test oracle on small matrices.
    na = operator_norm(A)
    nb = operator_norm(B)
    s = na * nb
    if s < 1.0:
        return operator_norm(Q) * s ** (terms + 1) / (1.0 - s)
    # Fall back on the spectral bound with a non-normality safety factor from
    # the actual last computed term.
    last = Q
    Bh = as_complex_matrix(B).conj().T
    for _ in range(terms + 1):
        last = as_complex_matrix(A) @ last @ Bh
    return operator_norm(last) / (1.0 - r)


def _as_stack(A) -> np.ndarray:
    """A stack (N, m, n) of blocks; a matrix is a stack of one block."""
    if np.ndim(A) == 3:
        return np.asarray(A, dtype=np.complex128)
    return as_complex_matrix(A)[None]


def sandwich(A, P, B) -> np.ndarray:
    """Block (i, j) of P mapped to A_i P_ij B_j*.

    A (N, m, n) and B (K, p, q) are block stacks standing for blockdiag(A_i)
    and blockdiag(B_j) (a matrix is a stack of one block; blocks may be
    rectangular) and P is (N n) x (K q); computed with N block-row and K
    block-column products instead of two dense products.
    """
    A, B = _as_stack(A), _as_stack(B)
    (N, m, n), (K, p, q) = A.shape, B.shape
    P = A @ np.reshape(P, (N, n, K * q))
    P = P.reshape(N * m, K, q).transpose(1, 0, 2) @ B.conj().transpose(0, 2, 1)
    return P.transpose(1, 0, 2).reshape(N * m, K * p)


def solve_stein(A, Q, B):
    """Solve P - A P B* = Q, i.e. P = sum_n A^n Q B*^n, by Smith doubling.

    A and B are square matrices or stacks (N, n, n) of square blocks standing
    for blockdiag(A_i); the doubling squares the blocks batched and applies
    A_k P B_k* through :func:`sandwich`.  After k doublings P holds the first
    2^k terms; the loop stops once ||A^(2^k)||_F ||B^(2^k)||_F <= eps, where
    the dropped tail is below rounding relative to P.  A and B are
    rebalanced by a power of two at every step (exact, and the product
    A_k P B_k* is unchanged), so inputs with
    spectral_radius(A) > 1 > spectral_radius(A) * spectral_radius(B)
    converge too.  DivergenceError when the norms stop being finite or 64
    doublings do not converge.
    """
    A, B = _as_stack(A), _as_stack(B)
    for S, what in ((A, "A"), (B, "B")):
        if S.shape[1] != S.shape[2]:
            raise DimensionError(f"{what} blocks must be square, got shape {S.shape[1:]}")
    Q = as_complex_matrix(Q)
    if Q.shape != (A.shape[0] * A.shape[1], B.shape[0] * B.shape[1]):
        raise DimensionError(
            f"Q shape {Q.shape} does not conform to A {A.shape}, B {B.shape}")
    P = Q.copy()
    for _ in range(64):
        na = np.linalg.norm(A)
        nb = np.linalg.norm(B)
        if not math.isfinite(na * nb):
            break
        if na * nb <= _EPS:
            return P
        s = 2.0 ** round(0.5 * math.log2(na / nb))
        A = A / s
        B = B * s
        P += sandwich(A, P, B)
        A = A @ A
        B = B @ B
    raise DivergenceError(
        "Stein doubling did not converge; spectral_radius(A) * "
        "spectral_radius(B) must be < 1")


def level_sum(Ls, M, levels: int) -> np.ndarray:
    """sum_{n=0}^{levels} Phi^n(M) for the completely positive map
    Phi(P) = sum_a L_a P L_a*.

    The truncated fixed point P = M + Phi(P) of every several-arrow Pick
    criterion: each L_a is block diagonal over the conditions (and, for
    quivers, placed by vertex), so one recursion on the whole stacked
    matrix replaces one per pair of conditions.
    """
    cur = as_complex_matrix(M)
    acc = cur.copy()
    for _ in range(levels):
        cur = sum(L @ cur @ L.conj().T for L in Ls)
        acc += cur
    return acc


def block_diag(mats) -> np.ndarray:
    """Block-diagonal matrix with the given (possibly rectangular) blocks."""
    mats = [as_complex_matrix(M) for M in mats]
    out = np.zeros((sum(M.shape[0] for M in mats), sum(M.shape[1] for M in mats)),
                   dtype=np.complex128)
    r = c = 0
    for M in mats:
        out[r:r + M.shape[0], c:c + M.shape[1]] = M
        r += M.shape[0]
        c += M.shape[1]
    return out


def stack_rows(mats, what: str) -> np.ndarray:
    """vstack of the per-condition matrices (already coerced by
    :func:`as_complex_matrix`), which must share one width."""
    widths = sorted({M.shape[1] for M in mats})
    if len(widths) > 1:
        raise DimensionError(
            f"{what}s of different conditions must share one width, got {widths}")
    return np.vstack(mats)


def as_point_rows(points) -> np.ndarray:
    """Scalar d-variable points as an (N, d) complex array; a flat list is d = 1."""
    try:
        pts = np.asarray(points, dtype=np.complex128)
    except ValueError as exc:
        raise DimensionError(f"points must share one number of coordinates: {exc}")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise DimensionError(
            f"points must be a list of coordinate lists, got ndim={pts.ndim}")
    return pts


def basis_expansion(points, values, dim: int, basis_dim=None):
    """Functional-calculus data as operator-argument data over a basis.

    Condition (i, k), k < dim, carries point i, direction e_k and target
    W_i e_k; returns the expanded points, directions and targets, point-major.
    basis_dim, when given, must equal dim.
    """
    if (basis_dim or dim) != dim:
        raise DimensionError("basis dimension must equal the tuple space dimension")
    basis = list(np.eye(dim, dtype=np.complex128)[:, :, None])
    return ([p for p in points for _ in basis], basis * len(points),
            [W @ e for W in values for e in basis])


def required_levels(r: float, norm0: float, series_tol: float) -> int:
    """Smallest L with geometric tail norm0 * r^(L+1) / (1-r) <= series_tol."""
    if norm0 == 0.0 or r == 0.0:
        return 0
    return max(0, int(math.ceil(math.log(series_tol * (1.0 - r) / norm0)
                                / math.log(r))))


def plan_levels(entries, per_level_cost: int, series_tol: float, budget: int):
    """Choose truncation levels for a family of geometric sums at once.

    entries is a list of (ratio, norm0) pairs; the whole family must fit in
    the per-dataset work budget, measured in matrix multiplications.  On
    overflow the BudgetError carries the tail achievable with the budget
    spread evenly over the family.
    """
    levels = [required_levels(r, n, series_tol) for r, n in entries]
    cost = per_level_cost * sum(L + 1 for L in levels)
    if cost > budget:
        per_entry = max(budget // (max(len(entries), 1) * max(per_level_cost, 1))
                        - 1, 0)
        achieved = max(
            (n * r ** (per_entry + 1) / (1.0 - r)
             for r, n in entries if 0.0 < r < 1.0 and n > 0.0),
            default=0.0)
        raise BudgetError(
            f"series truncation needs {cost} multiplications, over budget "
            f"{budget}", achieved_bound=achieved)
    tails = [n * r ** (L + 1) / (1.0 - r) if 0.0 < r < 1.0 and n > 0.0 else 0.0
             for (r, n), L in zip(entries, levels)]
    return levels, tails


def lyapunov_regularity_margin(Z) -> tuple[float, tuple[complex, complex]]:
    """min |lam_i + conj(lam_j)| over eigenvalue pairs, with the argmin pair."""
    Z = _require_square(as_complex_matrix(Z))
    lam = np.linalg.eigvals(Z)
    S = np.abs(lam[:, None] + lam[None, :].conj())
    i, j = np.unravel_index(np.argmin(S), S.shape)
    return float(S[i, j]), (complex(lam[i]), complex(lam[j]))


def solve_lyapunov_rhp(Z, Q):
    """Solve P Z* + Z P = Q.

    Z must be Lyapunov regular: no eigenvalue pair with lam + conj(mu) = 0.
    Q is one matrix or a stack (k, n, n) of right-hand sides, all solved with
    one factorisation.  Each solution is hermitized when its Q is Hermitian
    (the exact solution is).
    """
    Z = _require_square(as_complex_matrix(Z), "Z")
    stacked = np.ndim(Q) == 3
    Qs = (np.asarray(Q, dtype=np.complex128) if stacked
          else as_complex_matrix(Q)[None])
    if Qs.shape[1:] != Z.shape:
        raise DimensionError(f"Q shape {Qs.shape[1:]} does not match Z {Z.shape}")
    margin, pair = lyapunov_regularity_margin(Z)
    scale = max(spectral_radius(Z), 1.0)
    if margin <= 1e-12 * scale:
        raise RegularityError(
            f"Z is Lyapunov-singular: eigenvalues {pair[0]:.6g} and {pair[1]:.6g} "
            f"satisfy lam + conj(mu) ~ 0 (margin {margin:.3g})",
            eigenvalue_pair=pair,
        )
    n = Z.shape[0]
    # Row-major vec: vec(Z P) = (Z kron I) vec(P), vec(P Z*) = (I kron conj(Z)) vec(P).
    K = np.kron(Z, np.eye(n)) + np.kron(np.eye(n), Z.conj())
    P = np.linalg.solve(K, Qs.reshape(len(Qs), -1).T).T.reshape(Qs.shape)
    for k, Qk in enumerate(Qs):
        if np.allclose(Qk, Qk.conj().T, rtol=0.0,
                       atol=1e-13 * max(operator_norm(Qk), 1.0)):
            P[k] = hermitize(P[k])
    return P if stacked else P[0]
