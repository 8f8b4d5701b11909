"""Dense complex linear algebra kernels.

Hermitian eigenvalues and PSD verdicts, operator norms, the Lyapunov solver,
and the fixed-point kernel behind every operator-argument Pick matrix:
P = M + sum_a L_a P L_a* on the whole condition-stacked matrix, with L_a
block diagonal over the conditions.  Block-diagonal operators are kept as
block stacks (N, m, n) and applied by :func:`sandwich`.  One arrow is a
Stein equation, solved by Smith doubling on the stacks in workspaces
allocated once per call (:func:`solve_stein`); several arrows are summed
by the level recursion over the stacked letters (:func:`level_sum`),
which stops at the first level whose computed block norms bound the rest
of the series below the tolerance.  Within picklab only
:func:`picklab.reports.fixed_point` calls the two solvers.  All functions
are pure; matrices are numpy complex arrays, and Hermitian outputs are
always symmetrized explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
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
    Idempotent on Hermitian input.  Computed in place on a copy of M*."""
    A = M if np.ndim(M) == 3 else _require_square(as_complex_matrix(M))
    H = np.conj(A.swapaxes(-1, -2), order="C", dtype=np.result_type(A, 0.5))
    H += A
    H *= 0.5
    return H


def min_eigenvalue(H) -> float:
    """Smallest eigenvalue of a Hermitian matrix; rows of exact zeros are
    deflated as in :func:`_eigenvalues`."""
    return float(_eigenvalues(hermitize(H))[0])


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix that is already Hermitian.

    A row of exact zeros of a Hermitian matrix is also a zero column, so its
    unit vector is an eigenvector for the exact eigenvalue 0.  Such rows are
    deflated: LAPACK runs on the rows that carry data, and one exact 0 per
    zero row joins that spectrum.  With no zero row this is
    np.linalg.eigvalsh(A) bit for bit; with no nonzero row LAPACK is not
    called.  (The structural zeros of a Choi matrix are such rows.)
    """
    n = A.shape[0]
    if n == 0:
        raise DimensionError("empty matrix has no eigenvalues")
    if not np.isfinite(A).all():
        raise DimensionError("matrix entries must be finite")
    live = A.any(axis=1)
    k = int(np.count_nonzero(live))
    try:
        if k == n:
            return np.linalg.eigvalsh(A)
        lam = np.linalg.eigvalsh(A[np.ix_(live, live)]) if k else np.zeros(0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericError(f"Hermitian eigensolver failed to converge: {exc}")
    return np.insert(lam, np.searchsorted(lam, 0.0), np.zeros(n - k))


def operator_norm(M) -> float:
    """Largest singular value."""
    A = as_complex_matrix(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


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


def is_psd(H, tol="auto") -> PsdVerdict:
    """PSD verdict for a Hermitian matrix at the given tolerance."""
    return psd_verdict(hermitize(H), tol)


def psd_verdict(A: np.ndarray, tol="auto") -> PsdVerdict:
    """:func:`is_psd` for a matrix that is already Hermitian (e.g. the output
    of :func:`hermitize`); it is not copied or symmetrized again.  Rows of
    exact zeros are deflated (:func:`_eigenvalues`), so they contribute exact
    zero eigenvalues.  The auto tolerance is the backward error
    dim * eps * ||A||, dim the full dimension of A, zero rows included, with
    the spectral norm max(|lam_min|, |lam_max|) read off the same
    eigenvalues."""
    try:
        valid = tol == "auto" or 0.0 <= float(tol) < math.inf
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ArgumentError(
            f"tolerance must be 'auto' or finite and nonnegative, got {tol!r}")
    lam = _eigenvalues(A)
    tol = float(A.shape[0] * _EPS * max(abs(lam[0]), abs(lam[-1]))
                if tol == "auto" else tol)
    return PsdVerdict(is_psd=bool(lam[0] >= -tol), min_eigenvalue=float(lam[0]),
                      tolerance_used=tol)


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
    for blockdiag(A_i); the doubling squares the blocks batched and adds
    A_k P B_k* to P in place, the products of :func:`sandwich` written into
    workspaces allocated once per call.  After k doublings P holds the first
    2^k terms; the loop stops once ||A^(2^k)||_F ||B^(2^k)||_F <= eps, where
    the dropped tail is below rounding relative to P.  A and B are
    rebalanced by a power of two at every step (exact, and the product
    A_k P B_k* is unchanged), so inputs with
    spectral_radius(A) > 1 > spectral_radius(A) * spectral_radius(B)
    converge too; when B is A (every Pick criterion) the balance is 1, and
    B's norm, the rebalancing and B's squaring are skipped.  DivergenceError
    when the norms stop being finite or 64 doublings do not converge.
    """
    same = B is A
    A = _as_stack(A)
    B = A if same else _as_stack(B)
    for S, what in ((A, "A"), (B, "B")):
        if S.shape[1] != S.shape[2]:
            raise DimensionError(f"{what} blocks must be square, got shape {S.shape[1:]}")
    (N, n, _), (K, q, _) = A.shape, B.shape
    Q = as_complex_matrix(Q)
    if Q.shape != (N * n, K * q):
        raise DimensionError(
            f"Q shape {Q.shape} does not conform to A {A.shape}, B {B.shape}")
    P = Q.copy()
    rows, cols = P.reshape(N, n, K * q), P.reshape(N * n, K, q)
    AP = np.empty(rows.shape, dtype=np.complex128)
    APB = np.empty((K, N * n, q), dtype=np.complex128)
    Bc = np.empty(B.shape, dtype=np.complex128)
    for _ in range(64):
        na = np.linalg.norm(A)
        nb = na if same else np.linalg.norm(B)
        if not math.isfinite(na * nb):
            break
        if na * nb <= _EPS:
            return P
        if not same:
            s = 2.0 ** round(0.5 * math.log2(na / nb))
            A = A / s
            B = B * s
        np.matmul(A, rows, out=AP)
        np.matmul(AP.reshape(N * n, K, q).swapaxes(0, 1),
                  np.conj(B, out=Bc).swapaxes(1, 2), out=APB)
        cols += APB.swapaxes(0, 1)
        A = A @ A
        B = A if same else B @ B
    raise DivergenceError(
        "Stein doubling did not converge; spectral_radius(A) * "
        "spectral_radius(B) must be < 1")


def level_sum(Ls, M, sizes, q, series_tol: float, max_levels: int):
    """(sum_{n=0}^{K} Phi^n(M), tails) for the completely positive map
    Phi(P) = sum_a L_a P L_a*, stopped on its own computed tail.

    The truncated fixed point P = M + Phi(P) of every several-arrow Pick
    criterion: each L_a is block diagonal over the conditions of the given
    sizes (and, for quivers, placed by vertex), so one recursion on the
    whole stacked matrix replaces one per pair of conditions.  The letters
    are stacked, and their adjoints formed, once; a level is one batched
    product.  After level K (level 0 is M) the block tails are
    tails_ij = q_ij ||C_K,ij||_F, C_K = Phi^K(M), all N^2 Frobenius norms
    one reduction over a float view of C_K; the sum stops at the first K
    where every tail is <= series_tol, or at K = max_levels.  A caller
    whose letters contract block (i, j) by rho_ij per level, in a norm
    that the Frobenius norm bounds, passes q_ij >= rho_ij / (1 - rho_ij),
    so that the tails bound the dropped levels.
    """
    acc = as_complex_matrix(M).copy()
    cur = acc
    Ls = np.asarray(Ls, dtype=np.complex128)
    Lh = Ls.conj().swapaxes(1, 2)
    rows = np.cumsum([0, *sizes[:-1]])
    for level in range(max(max_levels, 0) + 1):
        if level:
            cur = np.add.reduce(Ls @ cur @ Lh)
            acc += cur
        F = cur.view(np.float64)
        sq = np.add.reduceat(np.add.reduceat(F * F, rows, axis=0), 2 * rows, axis=1)
        tails = q * np.sqrt(sq)
        if tails.max() <= series_tol:
            break
    return acc, tails


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
    if not Z.size:
        raise DimensionError("Z must be at least 1 x 1")
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
