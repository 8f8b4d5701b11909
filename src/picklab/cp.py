"""Complete-positivity machinery: Choi matrices and map constructors.

Linear maps on matrix algebras are stored extensionally by their images of
the matrix units, so the Choi block matrix [phi(e_ij)] is exact and
serializable.  Finite-dimensionally, complete positivity is equivalent to
the Choi matrix being PSD (:func:`cp_check`, whose negative verdict carries
Choi's witness).  The constructors below build the maps whose complete
positivity is equivalent to the disk and quiver Pick criteria (their Choi
matrices reproduce those Pick matrices after an index permutation, and
:func:`condition_compression` drops the structural zeros).  They solve
nothing themselves but embed Pick builders: the adjoint-side disk map the
fixed point of :func:`picklab.disk.pick_ltrd`, the disk map the vertex
matrix of :func:`picklab.quiver.qltt_vertex_matrix` on the one-loop quiver,
and the quiver map the vertex matrices of :func:`picklab.quiver.pick_qltt`.
The structural zeros are whole rows: of the (N n)(N m) Choi rows of such a
map on N conditions only N n m carry data, and the eigenvalue step deflates
the rest, so :func:`cp_check` decides at Pick-matrix size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import disk, matcore
from . import quiver as quiver_mod
from .errors import ArgumentError, DimensionError, MapError
from .matcore import as_complex_matrix
from .quiver import Grading, Quiver
from .reports import basis_columns, fixed_point, stacked_middle


@dataclass(eq=False)
class LinearMapOnMatrices:
    """Linear map L(C^n) -> L(C^m), stored by its n^2 unit images."""

    in_dim: int
    out_dim: int
    unit_images: np.ndarray  # shape (n, n, m, m); unit_images[i, j] = phi(e_ij)

    def __post_init__(self):
        arr = np.asarray(self.unit_images, dtype=np.complex128)
        n, m = self.in_dim, self.out_dim
        if n < 1 or m < 1:
            raise DimensionError(f"dimensions must be at least 1, got {n} and {m}")
        if arr.shape != (n, n, m, m):
            raise DimensionError(
                f"unit image array has shape {arr.shape}, expected {(n, n, m, m)}")
        if not np.isfinite(arr).all():
            raise DimensionError("unit images must be finite")
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

    def preserves_adjoints(self) -> bool:
        """phi(A*) == phi(A)* for all A, checked on the matrix units: every
        entry of phi(e_ij) - phi(e_ji)* is at most 1e-12 of the units'
        largest modulus (at least 1), in one max-abs pass."""
        U = self.unit_images
        scale = max(float(np.max(np.abs(U))), 1.0)
        gap = float(np.max(np.abs(U - U.conj().transpose(1, 0, 3, 2))))
        return gap <= 1e-12 * scale


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


def cp_check(phi: LinearMapOnMatrices, tol="auto") -> CpVerdict:
    """Complete positivity via the Choi matrix; finite case is exact.

    The verdict is :func:`picklab.matcore.psd_verdict` on the full Choi
    matrix: its zero rows are deflated, so they add exact zero eigenvalues
    (choi_min_eig is at most 0 when there are any) and LAPACK runs only on
    the rows that carry data; the auto tolerance uses the full dimension.
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


def _disk_points(operator_points) -> list:
    """Operator points of one square dimension, each of spectral radius < 1."""
    Z = disk._check_strict_ops(operator_points)
    if any(M.shape != Z[0].shape for M in Z):
        raise DimensionError("operator points must share one square dimension")
    return Z


def build_phi_disk(operator_points, directions, targets) -> LinearMapOnMatrices:
    """CP-test map for tensor-calculus disk interpolation X_i S(Z_i) = Y_i.

    phi([B_ij]) = [sum_n X_i (I kron Z_i^n B_ij Z_j*^n) X_j*
                   - Y_i (I kron Z_i^n B_ij Z_j*^n) Y_j*]: the disk is the
    one-vertex, one-loop quiver, so the matrix is the vertex matrix of
    :func:`picklab.quiver.qltt_vertex_matrix` (one arrow, so it needs no tail
    factor, and the points need spectral radius < 1, not row norm < 1).  Its
    Choi matrix collapses to the standard tangential Pick matrix when the
    tensor factor is trivial.
    """
    Z = _disk_points(operator_points)
    X = [as_complex_matrix(M) for M in directions]
    Y = [as_complex_matrix(M) for M in targets]
    N = len(Z)
    if not (len(X) == len(Y) == N) or not N:
        raise DimensionError("need one direction and one target per point, "
                             "and at least one point")
    g, e = Z[0].shape[0], X[0].shape[0]
    if e % g != 0:
        raise DimensionError("direction dimension must be a multiple of dim Z")
    for M in X + Y:
        if M.shape != (e, e):
            raise DimensionError("directions/targets must be square of V kron Z size")
    G = Quiver(("v",), ("z",), {"z": "v"}, {"z": "v"})
    pick, _ = quiver_mod.qltt_vertex_matrix(
        G, Grading(G, {"v": g}), Grading(G, {"v": e // g}),
        np.array(Z)[:, None], X, Y, "v", None)
    return _condition_blockwise_map(pick, N, g, e)


def build_phi_star_disk(operator_points, directions, targets) -> LinearMapOnMatrices:
    """Adjoint-side CP-test map for scalar functional-calculus interpolation.

    phi*([C_ij]) = [sum_n Z_i*^n (X_i* C_ij X_j - Y_i* C_ij Y_j) Z_j^n]; its
    Choi matrix is the Pick matrix of :func:`picklab.disk.pick_ltrd` after
    the (i, i') index identification.  So its unit images are that
    criterion's fixed point on the same :func:`picklab.reports.basis_columns`
    data, without the report's PSD verdict (the CP check takes its own).
    """
    Z = _disk_points(operator_points)
    points, X, Y = basis_columns(*disk.sharp_ltoa_to_rtoa(Z, directions, targets))
    letters = [[A] for A in points]
    P = fixed_point(letters, stacked_middle(letters, X, Y), None)[0]
    N, z = len(Z), Z[0].shape[0]
    return _condition_blockwise_map(P, N, len(P) // (N * z), z)


def _condition_blockwise_map(stacked, N: int, n: int, m: int) -> LinearMapOnMatrices:
    """Map whose unit e_(i,a),(j,b) goes to block (i, j), holding the
    ((i, a), (j, b)) m-block of the stacked matrix; zero elsewhere."""
    blocks = np.reshape(stacked, (N, n, m, N, n, m))
    images = np.zeros((N, n, N, n, N, m, N, m), dtype=np.complex128)
    i, j = np.arange(N)[:, None], np.arange(N)[None, :]
    # mixed advanced indices put the (i, j) axes first: (i, j, a, b, x, y)
    images[i, :, j, :, i, :, j, :] = blocks.transpose(0, 3, 1, 4, 2, 5)
    return LinearMapOnMatrices(N * n, N * m, images.reshape(N * n, N * n, N * m, N * m))


def build_phi_bar_quiver(G: Quiver, zdims: Grading, vdims: Grading,
                         operator_points, directions, targets) -> LinearMapOnMatrices:
    """Szego-kernel CP-test map, extended from block-diagonal to all of L(G-space).

    phi_bar([B_ij]) = [X_i K(Z_i, Z_j)[psi(B_ij)] X_j* - Y_i (...) Y_j*] with
    psi the vertex-block-diagonal compression; cross-vertex units map to 0.
    The Choi matrix permutes into the direct sum over vertices of the
    tensor-calculus quiver Pick matrices, so the map embeds the vertex
    matrices of :func:`picklab.quiver.pick_qltt` (with its checks, errors
    and work budget), summed to series tolerance 1e-13.
    """
    picks = quiver_mod.pick_qltt(G, zdims, vdims, operator_points, directions,
                                 targets, series_tol=1e-13)
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
