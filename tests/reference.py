"""Reference implementations that tests compare picklab against.

Each is a direct transcription of a definition, independent of the kernel
it checks: the Stein series and its tail bound for
:func:`picklab.matcore.solve_stein`, and the amplification of a stored map
for the witness of :func:`picklab.cp.cp_check`.
"""

import numpy as np

from picklab.cp import LinearMapOnMatrices
from picklab.errors import DimensionError, DivergenceError
from picklab.matcore import as_complex_matrix, operator_norm, spectral_radius


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
