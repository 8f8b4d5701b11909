"""Complete-positivity machinery: Choi matrices and map constructors.

Linear maps on matrix algebras are stored extensionally by their images of
the matrix units, so the Choi block matrix [phi(e_ij)] is exact and
serializable.  Finite-dimensionally, complete positivity is equivalent to
the Choi matrix being PSD; the constructors below build the maps whose
complete positivity is equivalent to the disk and quiver Pick criteria
(their Choi matrices reproduce those Pick matrices after an index
permutation).  The disk maps make one stacked Stein solve; the quiver maps
embed the vertex matrices of :func:`picklab.quiver.pick_qltt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import matcore
from . import quiver as quiver_mod
from .errors import ArgumentError, DimensionError, DomainError, MapError
from .matcore import as_complex_matrix
from .quiver import Grading, Quiver


@dataclass(eq=False)
class LinearMapOnMatrices:
    """Linear map L(C^n) -> L(C^m), stored by its n^2 unit images."""

    in_dim: int
    out_dim: int
    unit_images: np.ndarray  # shape (n, n, m, m); unit_images[i, j] = phi(e_ij)

    def __post_init__(self):
        arr = np.asarray(self.unit_images, dtype=np.complex128)
        n, m = self.in_dim, self.out_dim
        if arr.shape != (n, n, m, m):
            raise DimensionError(
                f"unit image array has shape {arr.shape}, expected {(n, n, m, m)}")
        self.unit_images = arr

    @classmethod
    def from_callable(cls, func: Callable[[np.ndarray], np.ndarray],
                      in_dim: int) -> "LinearMapOnMatrices":
        images = []
        out_dim = None
        for i in range(in_dim):
            row = []
            for j in range(in_dim):
                unit = np.zeros((in_dim, in_dim), dtype=np.complex128)
                unit[i, j] = 1.0
                img = as_complex_matrix(func(unit))
                if out_dim is None:
                    out_dim = img.shape[0]
                row.append(img)
            images.append(row)
        return cls(in_dim, out_dim, np.array(images))

    def __call__(self, A) -> np.ndarray:
        A = as_complex_matrix(A)
        if A.shape != (self.in_dim, self.in_dim):
            raise DimensionError(
                f"argument has shape {A.shape}, expected square of {self.in_dim}")
        return np.tensordot(A, self.unit_images, axes=([0, 1], [0, 1]))

    def preserves_adjoints(self, atol: float = 1e-12) -> bool:
        """phi(A*) == phi(A)* for all A, checked on the matrix units."""
        U = self.unit_images
        scale = max(float(np.max(np.abs(U))), 1.0)
        return np.allclose(U, U.conj().transpose(1, 0, 3, 2), rtol=0.0,
                           atol=atol * scale)

    def compose_inner(self, inner: "LinearMapOnMatrices") -> "LinearMapOnMatrices":
        """self after inner (unit images pushed through inner first)."""
        if inner.out_dim != self.in_dim:
            raise DimensionError("composition dimensions do not match")
        images = np.einsum("ijab,abxy->ijxy", inner.unit_images, self.unit_images)
        return LinearMapOnMatrices(inner.in_dim, self.out_dim, images)


@dataclass(frozen=True)
class CpVerdict:
    is_cp: bool
    choi_min_eig: float
    witness: Optional[dict] = None


def choi_matrix(phi: LinearMapOnMatrices) -> np.ndarray:
    """Block matrix [phi(e_ij)]_{ij}, hermitized.

    Requires phi to preserve adjoints (checked on the units), so the Choi
    matrix is Hermitian up to roundoff.
    """
    if not phi.preserves_adjoints():
        raise MapError("map does not preserve adjoints; Choi matrix undefined")
    nm = phi.in_dim * phi.out_dim
    return matcore.hermitize(phi.unit_images.transpose(0, 2, 1, 3).reshape(nm, nm))


def condition_compression(phi: LinearMapOnMatrices, conditions: int
                          ) -> Tuple[np.ndarray, float]:
    """Compress the Choi matrix onto matching condition pairs.

    For maps acting blockwise on N x N condition grids (unit e_(i,a)(j,b)
    maps into output block (i, j) only), the Choi matrix is the compressed
    matrix below padded with structural zeros.  Returns the compressed
    matrix, indexed by ((i, a), r), together with the largest modulus found
    outside the compression (0 up to roundoff for blockwise maps).
    """
    n, m = phi.in_dim, phi.out_dim
    if n % conditions or m % conditions:
        raise DimensionError("dimensions are not divisible by the condition count")
    a = n // conditions
    b = m // conditions
    C = choi_matrix(phi)
    rows = [(i * a + ap) * m + (i * b + r)
            for i in range(conditions) for ap in range(a) for r in range(b)]
    keep = np.ix_(rows, rows)
    compressed = C[keep]
    mask = np.ones(C.shape, dtype=bool)
    mask[keep] = False
    leak = float(np.max(np.abs(C[mask]))) if mask.any() else 0.0
    return compressed, leak


def amplified_apply(phi: LinearMapOnMatrices, B: np.ndarray, k: int) -> np.ndarray:
    """(phi tensor id_k)(B) for B an (n k)-square matrix of k x k of n-blocks."""
    B = as_complex_matrix(B)
    n, m = phi.in_dim, phi.out_dim
    if B.shape != (n * k, n * k):
        raise DimensionError(f"amplified argument has shape {B.shape}")
    out = np.einsum("aibj,ijxy->axby", B.reshape(k, n, k, n), phi.unit_images)
    return out.reshape(m * k, m * k)


def cp_check(phi: LinearMapOnMatrices, tol="auto") -> CpVerdict:
    """Complete positivity via the Choi matrix; finite case is exact.

    A negative verdict carries Choi's witness: at amplification level n the
    PSD input Omega = sum_ab e_ab tensor e_ab (rank one) has the Choi matrix
    as its image, so the image's smallest eigenvalue is the Choi one.
    """
    C = choi_matrix(phi)
    verdict = matcore.psd_verdict(C, tol)
    if verdict.is_psd:
        return CpVerdict(True, verdict.min_eigenvalue)
    n = phi.in_dim
    omega = np.eye(n, dtype=np.complex128).reshape(-1, 1)
    return CpVerdict(False, verdict.min_eigenvalue,
                     {"level": n, "input": omega @ omega.T,
                      "output_min_eigenvalue": verdict.min_eigenvalue})


def conditional_expectation_map(block_dims: Sequence[int]) -> LinearMapOnMatrices:
    """Compression to the block diagonal of the given decomposition."""
    return blockwise_conditional_expectation(block_dims, 1)


def build_phi_disk(operator_points, directions, targets) -> LinearMapOnMatrices:
    """CP-test map for tensor-calculus disk interpolation X_i S(Z_i) = Y_i.

    phi([B_ij]) = [sum_n X_i (I kron Z_i^n B_ij Z_j*^n) X_j*
                   - Y_i (I kron Z_i^n B_ij Z_j*^n) Y_j*], with the inner
    geometric sums for all units computed exactly by one stacked Stein
    solve.  Its Choi matrix collapses to the standard tangential Pick matrix
    when the tensor factor is trivial.
    """
    Z = [as_complex_matrix(M) for M in operator_points]
    X = [as_complex_matrix(M) for M in directions]
    Y = [as_complex_matrix(M) for M in targets]
    N = len(Z)
    if not (len(X) == len(Y) == N) or not N:
        raise DimensionError("need one direction and one target per point, "
                             "and at least one point")
    g = Z[0].shape[0]
    for M in Z:
        if M.shape != (g, g):
            raise DimensionError("operator points must share one square dimension")
        if matcore.spectral_radius(M) >= 1.0:
            raise DomainError("operator points must have spectral radius < 1")
    e = X[0].shape[0]
    if e % g != 0:
        raise DimensionError("direction dimension must be a multiple of dim Z")
    v = e // g
    for M in X + Y:
        if M.shape != (e, e):
            raise DimensionError("directions/targets must be square of V kron Z size")
    # conditions (i, a): point Z_i with the unit vector e_a, so block
    # ((i, a), (j, b)) of the stacked solve is sum_n Z_i^n e_ab Z_j*^n
    units = np.tile(np.eye(g, dtype=np.complex128), (N, 1)).reshape(-1, 1)
    Zs = np.repeat(np.array(Z), g, axis=0)
    S = matcore.solve_stein(Zs, units @ units.T, Zs)
    out = 0
    for k in range(v):
        for F, sign in ((X, 1.0), (Y, -1.0)):
            R = np.repeat(np.array(F)[:, :, k * g:(k + 1) * g], g, axis=0)
            out = out + sign * matcore.sandwich(R, S, R)
    return _condition_blockwise_map(out, N, g, e)


def build_phi_star_disk(operator_points, directions, targets) -> LinearMapOnMatrices:
    """Adjoint-side CP-test map for scalar functional-calculus interpolation.

    phi*([C_ij]) = [sum_n Z_i*^n (X_i* C_ij X_j - Y_i* C_ij Y_j) Z_j^n]; its
    Choi matrix equals the functional-calculus tangential Pick matrix after
    the (i, i') index identification.
    """
    Z = [as_complex_matrix(M) for M in operator_points]
    X = [as_complex_matrix(M) for M in directions]
    Y = [as_complex_matrix(M) for M in targets]
    N = len(Z)
    if not (len(X) == len(Y) == N) or not N:
        raise DimensionError("need one direction and one target per point, "
                             "and at least one point")
    z = Z[0].shape[0]
    c = X[0].shape[0]
    for M in Z:
        if M.shape != (z, z):
            raise DimensionError("operator points must share one square dimension")
        if matcore.spectral_radius(M) >= 1.0:
            raise DomainError("operator points must have spectral radius < 1")
    for M in X + Y:
        if M.shape != (c, z):
            raise DimensionError("directions/targets must map the Z space to C")
    # conditions (i, a): block ((i, a), (j, b)) of the stacked middle is
    # X_i* e_ab X_j - Y_i* e_ab Y_j
    x = np.concatenate([M.conj().ravel() for M in X]).reshape(-1, 1)
    y = np.concatenate([M.conj().ravel() for M in Y]).reshape(-1, 1)
    Zs = np.repeat(np.array(Z).conj().transpose(0, 2, 1), c, axis=0)
    S = matcore.solve_stein(Zs, x @ x.conj().T - y @ y.conj().T, Zs)
    return _condition_blockwise_map(S, N, c, z)


def _condition_blockwise_map(stacked, N: int, n: int, m: int) -> LinearMapOnMatrices:
    """Map whose unit e_(i,a),(j,b) goes to block (i, j), holding the
    ((i, a), (j, b)) m-block of the stacked matrix; zero elsewhere."""
    blocks = stacked.reshape(N, n, m, N, n, m)
    eye = np.eye(N)
    images = np.einsum("iaxjby,ik,jl->iajbkxly", blocks, eye, eye)
    return LinearMapOnMatrices(N * n, N * m, images.reshape(N * n, N * n, N * m, N * m))


def build_phi_bar_quiver(G: Quiver, zdims: Grading, vdims: Grading,
                         operator_points, directions, targets,
                         series_tol: float = 1e-13) -> LinearMapOnMatrices:
    """Szego-kernel CP-test map, extended from block-diagonal to all of L(G-space).

    phi_bar([B_ij]) = [X_i K(Z_i, Z_j)[psi(B_ij)] X_j* - Y_i (...) Y_j*] with
    psi the vertex-block-diagonal compression; cross-vertex units map to 0.
    The Choi matrix permutes into the direct sum over vertices of the
    tensor-calculus quiver Pick matrices, so the map embeds the vertex
    matrices of :func:`picklab.quiver.pick_qltt` (with its checks, errors
    and work budget).
    """
    picks = quiver_mod.pick_qltt(G, zdims, vdims, operator_points, directions,
                                 targets, series_tol=series_tol)
    N, gdim = len(operator_points), zdims.total
    c = as_complex_matrix(directions[0]).shape[0]
    # the Szego kernel only reads diagonal blocks: cross-vertex units map to 0
    out = np.zeros((N, gdim, c, N, gdim, c), dtype=np.complex128)
    for v, rep in picks.items():
        s, kv = zdims.block_slice(v), zdims[v]
        out[:, s, :, :, s, :] = rep.pick.reshape(N, kv, c, N, kv, c)
    return _condition_blockwise_map(out.reshape(N * gdim * c, -1), N, gdim, c)


def blockwise_conditional_expectation(block_dims: Sequence[int],
                                      copies: int) -> LinearMapOnMatrices:
    """Apply the block-diagonal compression inside each of copies^2 sub-blocks.

    The input space is C^(copies * n); each (i, j) sub-block of size n is
    compressed to the diagonal of the given decomposition.  This is an
    amplification of a conditional expectation, hence completely positive.
    """
    dims = [int(b) for b in block_dims]
    if any(b < 0 for b in dims) or sum(dims) <= 0:
        raise ArgumentError("block dimensions must be nonnegative with positive sum")
    block_of = np.tile(np.repeat(np.arange(len(dims)), dims), copies)
    total = block_of.size
    r, c = np.nonzero(block_of[:, None] == block_of[None, :])
    images = np.zeros((total, total, total, total), dtype=np.complex128)
    images[r, c, r, c] = 1.0
    return LinearMapOnMatrices(total, total, images)


def build_phi_quiver(G: Quiver, zdims: Grading, vdims: Grading,
                     operator_points, directions, targets,
                     series_tol: float = 1e-13) -> LinearMapOnMatrices:
    """Szego-kernel CP-test map on the block-diagonal point algebra.

    Stored extensionally (the Choi construction needs full matrix units) as
    the composition of the extended map with the blockwise conditional
    expectation; on block-diagonal inputs it is the plain Szego-kernel
    sandwich map, and its unit images coincide with the extended map's
    because the Szego kernel only reads the vertex-diagonal blocks.
    """
    phi_bar = build_phi_bar_quiver(G, zdims, vdims, operator_points,
                                   directions, targets, series_tol)
    psi = blockwise_conditional_expectation(
        [zdims[v] for v in G.vertices], len(operator_points))
    return phi_bar.compose_inner(psi)


def finite_section_kernel_check(kernel: Callable[[int, int, np.ndarray], np.ndarray],
                                points: Sequence, unit_dim: int,
                                sections: int = 1, tol="auto") -> CpVerdict:
    """CP test of a kernel through its repeated-point finite sections.

    kernel(i, j, E) evaluates K(w_i, w_j)[E] on a matrix unit E.  The
    kN-point section map (points repeated `sections` times) is tested for
    complete positivity via its Choi matrix.
    """
    if sections < 1:
        raise ArgumentError("sections must be >= 1")
    idx = list(range(len(points))) * sections
    n = len(idx) * unit_dim
    out_blocks = {}
    m = None
    for ii, pi in enumerate(idx):
        for jj, pj in enumerate(idx):
            for a in range(unit_dim):
                for b in range(unit_dim):
                    unit = np.zeros((unit_dim, unit_dim), dtype=np.complex128)
                    unit[a, b] = 1.0
                    img = as_complex_matrix(kernel(pi, pj, unit))
                    if m is None:
                        m = img.shape[0]
                    out_blocks[(ii * unit_dim + a, jj * unit_dim + b)] = img
    C = np.zeros((n * m, n * m), dtype=np.complex128)
    for (r, ccol), img in out_blocks.items():
        C[r * m:(r + 1) * m, ccol * m:(ccol + 1) * m] = img
    verdict = matcore.psd_verdict(matcore.hermitize(C), tol)
    return CpVerdict(verdict.is_psd, verdict.min_eigenvalue)
