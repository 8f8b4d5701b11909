"""Independent numpy computations the workloads check the program against.

Nothing here imports picklab: each function follows the closed form or the
series definition of the quantity it computes.
"""

from __future__ import annotations

import numpy as np


AGLER_CERT_TOL = 1e-5   # ten times the Agler solver's default tolerance


def cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def scaled(M, norm):
    """M rescaled to the given spectral norm."""
    return M * (norm / np.linalg.norm(M, 2))


def spread_points(rng, n, rmin, rmax, stride=1):
    """n points of the disk with radii in [rmin, rmax] and spread arguments."""
    radii = rng.uniform(rmin, rmax, n)
    angles = 2 * np.pi * ((np.arange(n) * stride) % n) / n + rng.uniform(-0.3, 0.3, n)
    return radii * np.exp(1j * angles)


def blaschke1(z, a, c):
    """c (z - a) / (1 - conj(a) z), a degree-1 Blaschke product times c."""
    return c * (z - a) / (1 - np.conj(a) * z)


def min_eig(H):
    return float(np.linalg.eigvalsh((H + H.conj().T) / 2)[0])


def pick_fov(lams, w):
    """Scalar Pick matrix [(1 - w_i conj(w_j)) / (1 - lam_i conj(lam_j))]."""
    lams = np.asarray(lams)
    w = np.asarray(w)
    return (1 - np.outer(w, w.conj())) / (1 - np.outer(lams, lams.conj()))


def pick_lt(lams, X, Y):
    """[(X_i X_j* - Y_i Y_j*) / (1 - lam_i conj(lam_j))], X_i, Y_i c x p."""
    N, c = len(lams), X[0].shape[0]
    P = np.zeros((N * c, N * c), dtype=complex)
    for i in range(N):
        for j in range(N):
            P[i * c:(i + 1) * c, j * c:(j + 1) * c] = (
                (X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T)
                / (1 - lams[i] * np.conj(lams[j])))
    return P


def _block_diag(mats):
    n = sum(M.shape[0] for M in mats)
    D = np.zeros((n, n), dtype=complex)
    k = 0
    for M in mats:
        D[k:k + M.shape[0], k:k + M.shape[0]] = M
        k += M.shape[0]
    return D


def pick_ltoa_series(T, X, Y, tol=1e-15):
    """[sum_n T_i^n (X_i X_j* - Y_i Y_j*) T_j*^n] by a truncated series.

    With D = diag(T_i) and rho = ||D|| < 1, the dropped tail is at most
    ||M|| rho^(2(L+1)) / (1 - rho^2); L is the first level that brings it
    below tol * ||M||.  Returns the matrix and that tail bound.
    """
    D = _block_diag(T)
    Xc = np.vstack(X)
    Yc = np.vstack(Y)
    M = Xc @ Xc.conj().T - Yc @ Yc.conj().T
    rho2 = np.linalg.norm(D, 2) ** 2
    L = int(np.ceil(np.log(tol * (1 - rho2)) / np.log(rho2)))
    P = M.copy()
    term = M
    Dh = D.conj().T
    for _ in range(L):
        term = D @ term @ Dh
        P += term
    tail = np.linalg.norm(M, 2) * rho2 ** (L + 1) / (1 - rho2)
    return P, tail


def frd_conditions(Z, W):
    """s(Z_i) = W_i as operator-argument conditions (Z_i, e_k, W_i e_k)."""
    T, X, Y = [], [], []
    for Zi, Wi in zip(Z, W):
        for k in range(Zi.shape[0]):
            e = np.zeros((Zi.shape[0], 1), dtype=complex)
            e[k] = 1
            T.append(Zi)
            X.append(e)
            Y.append(Wi @ e)
    return T, X, Y


def agler_scalar_check(points, values, kernels):
    """Residual and kernel eigenvalues of a bidisk Agler certificate.

    The decomposition reads 1 - f_i conj(f_j) = sum_k (1 - z_k^(i)
    conj(z_k^(j))) K_k(i, j) with every K_k positive semidefinite.
    """
    pts = np.asarray(points)
    f = np.asarray(values)
    R = 1 - np.outer(f, f.conj())
    S = sum((1 - np.outer(pts[:, k], pts[:, k].conj())) * np.asarray(K)
            for k, K in enumerate(kernels))
    return float(np.linalg.norm(S - R)), [min_eig(np.asarray(K)) for K in kernels]
