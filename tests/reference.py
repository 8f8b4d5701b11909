"""Reference implementations that tests compare picklab against.

Each is a direct transcription of a definition, independent of the kernel
it checks: the Stein series and its tail bound for
:func:`picklab.matcore.solve_stein`, the amplification of a stored map
for the witness of :func:`picklab.cp.cp_check`, and the np.kron
accumulations that :func:`picklab.oracle.eval_tensor` and
:func:`picklab.oracle.eval_quiver_tensor` must match bit for bit.  The
allocating forms of the matcore kernels (doubling by sandwich products,
(A + A*)/2, np.linalg.norm(A, 2) and the generator level sum) are the
references that the copy-free kernels must match bit for bit.  The quiver
operator-argument matrix summed path by path is the exact answer on
acyclic quivers.
"""

import math

import numpy as np

from picklab.cp import LinearMapOnMatrices
from picklab.errors import DimensionError, DivergenceError
from picklab.matcore import as_complex_matrix, operator_norm, sandwich, spectral_radius
from picklab.quiver import path_power, paths_up_to


def stein_series(A, Q, B, terms: int) -> np.ndarray:
    """Truncated series sum_{n=0}^{terms} A^n Q B*^n."""
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


def amplified_apply(phi: LinearMapOnMatrices, B: np.ndarray, k: int) -> np.ndarray:
    """(phi tensor id_k)(B) for B an (n k)-square matrix of k x k of n-blocks."""
    B = as_complex_matrix(B)
    n, m = phi.in_dim, phi.out_dim
    if B.shape != (n * k, n * k):
        raise DimensionError(f"amplified argument has shape {B.shape}")
    out = np.einsum("aibj,ijxy->axby", B.reshape(k, n, k, n), phi.unit_images)
    return out.reshape(m * k, m * k)


def kron_eval_tensor(sample, Z) -> np.ndarray:
    """S(Z) = sum_n S_n kron Z^n: np.kron of each coefficient with the power
    Z^n = Z @ Z^(n-1), added in key order."""
    Z = as_complex_matrix(Z)
    p, q = sample.shape
    k = Z.shape[0]
    out = np.zeros((p * k, q * k), dtype=np.complex128)
    power = np.eye(k, dtype=np.complex128)
    for n in range(max(sample.coefficients, default=-1) + 1):
        if n in sample.coefficients:
            out += np.kron(sample.coefficients[n], power)
        power = Z @ power
    return out


def kron_eval_quiver_tensor(sample, point, zdims) -> np.ndarray:
    """S(Z) = sum_g np.kron(S_g, Z^g), added in coefficient order into the
    block (target, source) of the vertex-wise tensor product gradings."""
    def offsets(grading):
        off, pos = {}, 0
        for v in grading.quiver.vertices:
            off[v] = pos
            pos += grading[v] * zdims[v]
        return off, pos

    row_off, rows = offsets(sample.out_dims)
    col_off, cols = offsets(sample.in_dims)
    out = np.zeros((rows, cols), dtype=np.complex128)
    for path, C in sample.coefficients.items():
        blk = np.kron(C, path_power(point, path, zdims))
        r, c = row_off[path.target], col_off[path.source]
        out[r:r + blk.shape[0], c:c + blk.shape[1]] += blk
    return out


def doubling_by_sandwich(A, Q, B) -> np.ndarray:
    """Smith doubling with a fresh :func:`picklab.matcore.sandwich` product
    per step: every step rebalances A and B by a power of two, also when B
    is A, adds A_k P B_k* to P and squares both stacks."""
    A = np.asarray(A, dtype=np.complex128).reshape((-1,) + np.shape(A)[-2:])
    B = np.asarray(B, dtype=np.complex128).reshape((-1,) + np.shape(B)[-2:])
    P = np.array(Q, dtype=np.complex128)
    for _ in range(64):
        na, nb = np.linalg.norm(A), np.linalg.norm(B)
        if na * nb <= np.finfo(np.float64).eps:
            return P
        s = 2.0 ** round(0.5 * math.log2(na / nb))
        A, B = A / s, B * s
        P += sandwich(A, P, B)
        A, B = A @ A, B @ B
    raise DivergenceError("Stein doubling did not converge")


def halved_sum(A) -> np.ndarray:
    """(A + A*)/2 of a matrix or of each block of a stack."""
    return (A + A.conj().swapaxes(-1, -2)) / 2.0


def norm_2(A) -> float:
    """Largest singular value by np.linalg.norm(A, 2); 0 for an empty matrix."""
    A = np.asarray(A, dtype=np.complex128)
    return 0.0 if A.size == 0 else float(np.linalg.norm(A, 2))


def level_sum_by_arrows(Ls, M, levels: int) -> np.ndarray:
    """sum_{n=0}^{levels} Phi^n(M), each level a generator sum over the
    arrows of L_a cur L_a*."""
    cur = np.array(M, dtype=np.complex128)
    acc = cur.copy()
    for _ in range(levels):
        cur = sum(L @ cur @ L.conj().T for L in Ls)
        acc += cur
    return acc


def qltoa_by_paths(G, dims, points, X, Y, max_length: int) -> np.ndarray:
    """Block (i, j) of :func:`picklab.quiver.pick_qltoa` as the sum over the
    paths g (source s, target t) of length <= max_length of
    T_i^g (X_i[t] X_j[t]* - Y_i[t] Y_j[t]*) T_j^g*, placed at vertex s."""
    N, n = len(points), dims.total
    P = np.zeros((N * n, N * n), dtype=np.complex128)
    for g in paths_up_to(G, max_length):
        s, t = dims.block_slice(g.source), g.target
        powers = [path_power(p, g, dims) for p in points]
        for i in range(N):
            for j in range(N):
                M = X[i][t] @ X[j][t].conj().T - Y[i][t] @ Y[j][t].conj().T
                P[i * n:(i + 1) * n, j * n:(j + 1) * n][s, s] += (
                    powers[i] @ M @ powers[j].conj().T)
    return (P + P.conj().T) / 2.0
