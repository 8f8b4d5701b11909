"""Directed-graph (quiver) Toeplitz-algebra interpolation criteria.

A quiver is a finite directed graph; its composable arrow sequences index a
graded Toeplitz algebra.  Points live in generalized disks whose per-vertex
row blocks are strict contractions, and three Pick-matrix criteria decide
tensor-calculus, functional-calculus and operator-argument interpolation.
All three are the fixed point of :func:`picklab.reports.fixed_point` on the
condition-stacked matrix, with one letter per quiver arrow placed by
vertex: a Stein solve for one arrow, otherwise a level recursion that stops
once its computed levels bound the rest below the series tolerance; on an
acyclic quiver a level becomes exactly zero and the sum is finite.  The
criteria only assemble its letters, middle and tail factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import config, matcore
from .errors import (
    ArgumentError,
    BudgetError,
    DomainError,
    PathError,
    ShapeError,
)
from .matcore import as_complex_matrix
from .reports import (
    FeasibilityReport,
    basis_columns,
    fixed_point,
    fixed_point_report,
    kernel_report,
    series_report,
    stacked_middle,
)


@dataclass(frozen=True)
class Quiver:
    """Finite directed graph: vertices Q0, arrows Q1, source and range maps."""

    vertices: Tuple[str, ...]
    arrows: Tuple[str, ...]
    src: Mapping[str, str]
    rng: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        object.__setattr__(self, "src", dict(self.src))
        object.__setattr__(self, "rng", dict(self.rng))
        if not self.vertices or not self.arrows:
            raise ArgumentError("quiver needs at least one vertex and one arrow")
        if len(set(self.vertices)) != len(self.vertices):
            raise ArgumentError("vertex names must be unique")
        if len(set(self.arrows)) != len(self.arrows):
            raise ArgumentError("arrow names must be unique")
        vs = set(self.vertices)
        for a in self.arrows:
            if a not in self.src or a not in self.rng:
                raise ArgumentError(f"source/range not defined for arrow {a!r}")
            if self.src[a] not in vs or self.rng[a] not in vs:
                raise ArgumentError(f"arrow {a!r} references an unknown vertex")

    def arrows_out_of(self, v: str) -> List[str]:
        return [a for a in self.arrows if self.src[a] == v]

    def arrows_into(self, v: str) -> List[str]:
        return [a for a in self.arrows if self.rng[a] == v]

    def adjacency_matrix(self) -> np.ndarray:
        """A[t, s] counts arrows from vertex s to vertex t."""
        idx = {v: k for k, v in enumerate(self.vertices)}
        A = np.zeros((len(self.vertices), len(self.vertices)), dtype=np.int64)
        for a in self.arrows:
            A[idx[self.rng[a]], idx[self.src[a]]] += 1
        return A

    def vertex_path(self, v: str) -> "Path":
        if v not in self.vertices:
            raise PathError(f"unknown vertex {v!r}")
        return Path((), v, v)

    def path(self, arrows: Sequence[str]) -> "Path":
        """Path from a chronological arrow sequence (first arrow leaves the source)."""
        arrows = tuple(arrows)
        if not arrows:
            raise PathError("empty arrow sequence; use vertex_path for length 0")
        for a in arrows:
            if a not in self.src:
                raise PathError(f"unknown arrow {a!r}")
        for a, b in zip(arrows, arrows[1:]):
            if self.rng[a] != self.src[b]:
                raise PathError(f"arrows {a!r} -> {b!r} are not composable")
        return Path(arrows, self.src[arrows[0]], self.rng[arrows[-1]])


@dataclass(frozen=True)
class Path:
    """Composable arrow sequence; length-0 paths sit at a single vertex.

    Arrows are stored chronologically (arrows[0] leaves the source), so the
    conventional right-to-left path word is the reversed arrow tuple.
    """

    arrows: Tuple[str, ...]
    source: str
    target: str

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def label(self) -> str:
        if not self.arrows:
            return self.source
        return "".join(reversed(self.arrows))


def paths_up_to(G: Quiver, max_length: int, budget: Optional[int] = None) -> List[Path]:
    """All paths of length <= max_length, grouped by length.

    Counts per length equal the entry sums of adjacency-matrix powers; a
    BudgetError is raised before enumeration would exceed the work budget.
    """
    if max_length < 0:
        raise ArgumentError("max_length must be >= 0")
    budget = config.work_budget() if budget is None else budget
    A = G.adjacency_matrix()
    total = len(G.vertices)
    power = np.eye(len(G.vertices), dtype=np.int64)
    for _ in range(max_length):
        power = power @ A
        total += int(power.sum())
        if total > budget:
            raise BudgetError(
                f"path enumeration would produce more than {budget} paths",
                achieved_bound=total)
    out: List[Path] = [G.vertex_path(v) for v in G.vertices]
    level = out[:]
    for _ in range(max_length):
        nxt: List[Path] = []
        for p in level:
            for a in G.arrows_out_of(p.target):
                nxt.append(Path(p.arrows + (a,), p.source, G.rng[a]))
        out.extend(nxt)
        level = nxt
    return out


class Grading:
    """Vertex-graded dimension assignment with fixed index offsets."""

    def __init__(self, G: Quiver, dims: Mapping[str, int]):
        missing = set(G.vertices) - set(dims)
        if missing:
            raise ShapeError(f"missing dimensions for vertices {sorted(missing)}")
        unknown = set(dims) - set(G.vertices)
        if unknown:
            raise ShapeError(f"dimensions for unknown vertices {sorted(unknown)}")
        self.quiver = G
        self.dims = {v: int(dims[v]) for v in G.vertices}
        if any(n < 0 for n in self.dims.values()):
            raise ShapeError("vertex dimensions must be >= 0")
        self.total = sum(self.dims.values())
        if self.total <= 0:
            raise ShapeError("total graded dimension must be positive")
        self.offsets: Dict[str, int] = {}
        pos = 0
        for v in G.vertices:
            self.offsets[v] = pos
            pos += self.dims[v]

    def __getitem__(self, v: str) -> int:
        return self.dims[v]

    def block_slice(self, v: str) -> slice:
        return slice(self.offsets[v], self.offsets[v] + self.dims[v])


@dataclass(frozen=True, eq=False)
class QuiverPoint:
    """Arrow-indexed operator tuple; a point of a generalized disk.

    kind "tensor" uses blocks Z_a : dims[src(a)] -> dims[rng(a)]; kind
    "operator_argument" uses blocks T_a : dims[rng(a)] -> dims[src(a)]
    (a point of the transposed-quiver disk).
    """

    kind: str
    blocks: Mapping[str, np.ndarray]

    def __post_init__(self):
        if self.kind not in ("tensor", "operator_argument"):
            raise ArgumentError(f"unknown point kind {self.kind!r}")
        object.__setattr__(
            self, "blocks", {a: as_complex_matrix(M) for a, M in self.blocks.items()})


@dataclass(frozen=True)
class MembershipReport:
    is_member: bool
    worst_row_norm: float
    row_norms: Dict[str, float]


def _expected_block_shape(G: Quiver, dims: Grading, kind: str, a: str):
    if kind == "tensor":
        return (dims[G.rng[a]], dims[G.src[a]])
    return (dims[G.src[a]], dims[G.rng[a]])


def disk_membership(G: Quiver, dims: Grading, point: QuiverPoint) -> MembershipReport:
    """Strict-contraction test of the per-vertex row blocks."""
    unknown = set(point.blocks) - set(G.arrows)
    if unknown:
        raise ShapeError(f"blocks for unknown arrows {sorted(unknown)}")
    for a in G.arrows:
        if a not in point.blocks:
            raise ShapeError(f"missing block for arrow {a!r}")
        want = _expected_block_shape(G, dims, point.kind, a)
        got = point.blocks[a].shape
        if got != want:
            raise ShapeError(f"block for arrow {a!r} has shape {got}, expected {want}")
    row_norms: Dict[str, float] = {}
    for v in G.vertices:
        if point.kind == "tensor":
            members = [point.blocks[a] for a in G.arrows_into(v)]
        else:
            members = [point.blocks[a] for a in G.arrows_out_of(v)]
        members = [M for M in members if M.size]
        if members:
            row_norms[v] = matcore.operator_norm(np.hstack(members))
        else:
            row_norms[v] = 0.0
    worst = max(row_norms.values())
    return MembershipReport(worst < 1.0, worst, row_norms)


def path_power(point: QuiverPoint, path: Path, dims: Grading) -> np.ndarray:
    """Ordered block product along a path.

    Tensor points give Z^gamma : dims[source] -> dims[target]; operator
    arguments give the transposed-word power T_(a1) ... T_(an) :
    dims[target] -> dims[source].
    """
    for a in path.arrows:
        if a not in point.blocks:
            raise PathError(f"point has no block for arrow {a!r}")
    if point.kind == "tensor":
        M = np.eye(dims[path.source], dtype=np.complex128)
        for a in path.arrows:
            M = point.blocks[a] @ M
        return M
    M = np.eye(dims[path.target], dtype=np.complex128)
    for a in reversed(path.arrows):
        M = point.blocks[a] @ M
    return M


def _check_points(G, dims, points, kind) -> List[float]:
    """Worst row norm of each point, all of the given kind and in the disk."""
    norms = []
    for k, P in enumerate(points):
        if P.kind != kind:
            raise ArgumentError(f"point {k} has kind {P.kind!r}, expected {kind!r}")
        rep = disk_membership(G, dims, P)
        if not rep.is_member:
            raise DomainError(
                f"point {k} is not in the generalized disk "
                f"(worst row norm {rep.worst_row_norm:.6g})")
        norms.append(rep.worst_row_norm)
    return norms


def pick_qltt(G: Quiver, zdims: Grading, ydims: Grading, points, directions,
              targets, tol="auto", series_tol=1e-12,
              budget: Optional[int] = None) -> Dict[str, FeasibilityReport]:
    """Per-vertex Pick matrices for tensor-calculus tangential interpolation.

    Data: points Z^(i) in the generalized disk over zdims, directions X_i and
    targets Y_i in L(Q, C) with Q = sum_v (Y_v tensor Z_v) and a shared
    output/input grading ydims.  For each vertex v the matrix over index
    pairs ((i, i'), (j, j')), i' <= zdims[v], sums over paths with source v
    the embedded blocks X_i (I tensor Z^g e_i' e_j'* Z^g*) X_j* minus the
    same with Y.  The problem is solvable iff every vertex matrix is PSD.
    With several arrows each vertex sum stops on its own computed tail:
    block (i, j) of a vertex matrix is X_i (I tensor K_ij) X_j* minus the
    same with Y, so a bound on K_ij scales by ||X_i|| ||X_j|| + ||Y_i|| ||Y_j||.
    """
    r, X, Y = _tensor_data(G, zdims, points, directions, targets,
                           sum(ydims[v] * zdims[v] for v in G.vertices))
    xn, yn = np.linalg.norm(np.array([X, Y]), 2, axis=(-2, -1))
    rate = np.outer(r, r)
    q = (np.outer(xn, xn) + np.outer(yn, yn)) * rate / (1.0 - rate)
    placed = _placed_arrows(G, zdims, points)
    return {v: series_report(*qltt_vertex_matrix(G, zdims, ydims, placed, X, Y, v,
                                                 q, series_tol, budget), tol)
            for v in G.vertices if zdims[v]}


def _tensor_data(G: Quiver, zdims: Grading, points, directions, targets, width):
    """Row norms of tensor points, and one direction and one target per point,
    all acting on dimension width with one output dimension."""
    norms = _check_points(G, zdims, points, "tensor")
    X = [as_complex_matrix(M) for M in directions]
    Y = [as_complex_matrix(M) for M in targets]
    if not (len(X) == len(Y) == len(points) > 0):
        raise ShapeError("need one direction and one target per point, "
                         "and at least one point")
    for M in X + Y:
        if M.shape[1] != width:
            raise ShapeError(
                f"direction/target acts on dimension {M.shape[1]}, expected {width}")
    if any(M.shape[0] != X[0].shape[0] for M in X + Y):
        raise ShapeError("directions and targets must share one output dimension")
    return norms, X, Y


def _placed_arrows(G: Quiver, dims: Grading, points) -> np.ndarray:
    """Each point's arrow blocks on the whole graded space, shape
    (points, arrows, dim, dim).

    The block for arrow a sits at rows rng(a), columns src(a) (tensor points)
    or rows src(a), columns rng(a) (operator arguments).
    """
    out = np.zeros((len(points), len(G.arrows), dims.total, dims.total),
                   dtype=np.complex128)
    for Ls, P in zip(out, points):
        for L, a in zip(Ls, G.arrows):
            rows, cols = ((G.rng[a], G.src[a]) if P.kind == "tensor"
                          else (G.src[a], G.rng[a]))
            L[dims.block_slice(rows), dims.block_slice(cols)] = P.blocks[a]
    return out


def qltt_vertex_matrix(G: Quiver, zdims: Grading, ydims: Grading, placed,
                       directions, targets, v: str, q, series_tol=1e-12,
                       budget=None):
    """Vertex-v matrix of :func:`pick_qltt` and its block tails (None for one
    arrow).

    placed holds each point's arrows from :func:`_placed_arrows`, shape
    (N, arrows, dim, dim).  The path sums K_(i,i'),(j,j') = sum_g Z_i^g e_i'
    e_j'* Z_j^g* (paths g with source v) are the fixed point of
    :func:`picklab.reports.fixed_point` on the stacked unit matrices, with
    the (N, N) tail factor q repeated over the basis pairs (i', j'); the block
    X_i (I tensor K) X_j* - Y_i (I tensor K) Y_j* is then summed over the
    (vertex w, copy k) summands Y_w tensor Z_w of Q.
    """
    kv, N, zdim = zdims[v], len(placed), zdims.total
    units = np.zeros((N * kv, zdim))
    units[np.arange(N * kv), zdims.offsets[v] + np.tile(np.arange(kv), N)] = 1.0
    units = units.reshape(-1, 1)
    if q is not None:
        q = np.kron(q, np.ones((kv, kv)))
    K, tails = fixed_point(np.repeat(placed, kv, axis=0), units @ units.T, q,
                           series_tol, budget)
    X, Y = np.array(directions), np.array(targets)
    c = X.shape[1]
    pick = np.zeros((N * kv * c, N * kv * c), dtype=np.complex128)
    q0 = 0
    for w in G.vertices:
        for _ in range(ydims[w]):
            cols = slice(q0, q0 + zdims[w])
            q0 += zdims[w]
            for F, sign in ((X, 1.0), (Y, -1.0)):
                R = np.zeros((N, c, zdim), dtype=np.complex128)
                R[:, :, zdims.block_slice(w)] = F[:, :, cols]
                R = np.repeat(R, kv, axis=0)
                pick += sign * matcore.sandwich(R, K, R)
    return pick, tails


def pick_qltrd(G: Quiver, zdims: Grading, points, directions, targets,
               basis_dim: Optional[int] = None, tol="auto", series_tol=1e-12,
               budget: Optional[int] = None) -> FeasibilityReport:
    """Pick matrix for functional-calculus tangential interpolation.

    Data: points Z^(i) over zdims and X_i, Y_i in L(Z, C) with dim C = kappa.
    The matrix over ((i, i'), (j, j')) sums, over all paths, the adjoint-side
    conjugations Z_i^g* [X_i* e_i' e_j'* X_j - Y_i* e_i' e_j'* Y_j] Z_j^g,
    embedded per source vertex, giving one (N kappa dimZ)-square matrix.

    It is the fixed point of :func:`picklab.reports.fixed_point` with
    condition (i, i') carrying the letters placed(Z_i)_a* and the direction
    blockdiag_v (X_i* e_i')[v] (target likewise with Y), so the middle is
    already vertex-diagonal.  r_i bounds the row norm of Z_i, which is the
    adjoint row norm of the letters, not their own row norm ||[Z_a; ...]||
    (which may exceed 1).  So the level map Phi contracts block (i, j) by
    r_i r_j in trace norm, not in spectral norm: for ||U|| <= 1,
    |tr(U* Phi(B)_ij)| = |tr((Z_i (I tensor U) Z_j*)* B_ij)| <= r_i r_j ||B_ij||_1.
    After level K the dropped levels sum to at most
    sum_{n>K} ||C_n,ij||_1 <= r_i r_j / (1 - r_i r_j) ||C_K,ij||_1, and a
    dim Z-square block has ||.||_1 <= sqrt(dim Z) ||.||_F; the spectral
    norm of the tail is at most its trace norm, so the tail factor is
    sqrt(dim Z) r_i r_j / (1 - r_i r_j).
    """
    zdim = zdims.total
    norms, X, Y = _tensor_data(G, zdims, points, directions, targets, zdim)
    N, kappa = len(X), X[0].shape[0]
    if basis_dim is not None and basis_dim != kappa:
        raise ShapeError("basis_dim must equal the common output dimension of X, Y")
    letters = np.repeat(_placed_arrows(G, zdims, points).conj().swapaxes(-1, -2),
                        kappa, axis=0)
    vertex = np.repeat(np.arange(len(G.vertices)), [zdims[v] for v in G.vertices])

    def vertex_columns(F):
        # row i' of F_i, conjugated, as blockdiag_v (F_i* e_i')[v]
        D = np.zeros((N, kappa, zdim, len(G.vertices)), dtype=np.complex128)
        D[:, :, np.arange(zdim), vertex] = np.conj(F)
        return list(D.reshape(N * kappa, zdim, -1))

    M = stacked_middle(letters, vertex_columns(X), vertex_columns(Y))
    r = np.repeat(norms, kappa)
    rate = np.outer(r, r)
    return series_report(*fixed_point(letters, M, np.sqrt(zdim) * rate / (1.0 - rate),
                                      series_tol, budget), tol)


def pick_qltoa(G: Quiver, xdims: Grading, points, directions, targets,
               tol="auto", series_tol=1e-12,
               budget: Optional[int] = None) -> FeasibilityReport:
    """Pick matrix for operator-argument tangential interpolation.

    Data: points T^(i) in the transposed-quiver disk over xdims, and
    block-diagonal directions/targets given per vertex (dicts v -> X_v, Y_v
    with X_v : Y_v-space -> X_v-space).  Block (i, j) sums over paths g the
    transposed-word conjugations T_i^gT (X_r(g) X_r(g)* - Y_r(g) Y_r(g)*)
    T_j^gT*, embedded per source vertex; the result is N dim(X) square.
    """
    norms = _check_points(G, xdims, points, "operator_argument")
    X = [_as_vertex_family(G, D, xdims, "direction") for D in directions]
    Y = [_as_vertex_family(G, D, xdims, "target") for D in targets]
    return fixed_point_report(_placed_arrows(G, xdims, points),
                              _vertex_blocks(G, X, "direction"),
                              _vertex_blocks(G, Y, "target"), norms, tol,
                              series_tol, budget)


def _vertex_blocks(G: Quiver, F, what: str) -> List[np.ndarray]:
    """blockdiag_v F_i[v] per condition; the blocks at each vertex share one width."""
    for v in G.vertices:
        widths = sorted({D[v].shape[1] for D in F})
        if len(widths) > 1:
            raise ShapeError(f"{what}s at vertex {v!r} must share one width, got {widths}")
    return [matcore.block_diag([D[v] for v in G.vertices]) for D in F]


def _as_vertex_family(G, D, xdims: Grading, what: str) -> Dict[str, np.ndarray]:
    if not isinstance(D, Mapping):
        raise ShapeError(f"{what} must be a vertex -> matrix mapping, "
                         f"one block per vertex")
    unknown = set(D) - set(G.vertices)
    if unknown:
        raise ShapeError(f"{what} has blocks for unknown vertices {sorted(unknown)}")
    out = {}
    for v in G.vertices:
        if v not in D:
            raise ShapeError(f"{what} missing block for vertex {v!r}")
        M = as_complex_matrix(D[v])
        if M.shape[0] != xdims[v]:
            raise ShapeError(
                f"{what} block at {v!r} has {M.shape[0]} rows, expected {xdims[v]}")
        out[v] = M
    return out


@dataclass(frozen=True, eq=False)
class ConstantMultiplierResult:
    verdict: matcore.PsdVerdict
    delta: Optional[complex]
    pick: np.ndarray
    rank_one_form: np.ndarray


def constant_multiplier_check(directions, targets, tol="auto") -> ConstantMultiplierResult:
    """Decide existence of a scalar |delta| <= 1 with delta X_i = Y_i.

    Builds the basis-indexed matrix [X_i e_i' e_j'* X_j* - Y_i e_i' e_j'* Y_j*]
    and its rank-one permutation uu* - vv*; PSD of either is equivalent to the
    existence of the constant multiplier, with witnessing
    delta = <vec Y, vec X> / ||vec X||^2.
    """
    X = [as_complex_matrix(M) for M in directions]
    Y = [as_complex_matrix(M) for M in targets]
    if len(X) != len(Y) or not X:
        raise ShapeError("need equally many directions and targets")
    shape = X[0].shape
    if any(M.shape != shape for M in X + Y):
        raise ShapeError("all directions and targets must share one shape")
    Xs = np.vstack(X)
    Ys = np.vstack(Y)
    u = Xs.flatten(order="F").reshape(-1, 1)
    v = Ys.flatten(order="F").reshape(-1, 1)
    rank_one = u @ u.conj().T - v @ v.conj().T
    # condition (i, i') carries column i' of X_i and of Y_i, at lambda = 0
    points, xs, ys = basis_columns(np.zeros((len(X), 1)), X, Y)
    report = kernel_report(np.array(points), xs, ys, tol)
    delta: Optional[complex] = None
    if report.verdict.is_psd:
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            delta = 0.0 + 0.0j
        else:
            cand = complex((u.conj().T @ v)[0, 0] / nu**2)
            resid = float(np.linalg.norm(cand * u - v))
            if abs(cand) <= 1.0 + 1e-10 and resid <= 1e-8 * max(1.0, nu):
                delta = cand
    return ConstantMultiplierResult(report.verdict, delta, report.pick,
                                    matcore.hermitize(rank_one))


def two_vertex_example() -> Tuple[Quiver, str, str]:
    """The two-vertex quiver with a loop at a and an arrow a -> b."""
    G = Quiver(("a", "b"), ("alpha", "beta"),
               {"alpha": "a", "beta": "a"}, {"alpha": "a", "beta": "b"})
    return G, "alpha", "beta"


def two_vertex_toeplitz_norm(v_coeffs, w_coeffs, b0, truncation: int) -> float:
    """Norm of the truncated multiplication operator [[M_V, 0], [M_W, M_B0]].

    Taylor indices 0..truncation are kept in both Hardy-space components; the
    value increases monotonically in the truncation and lower-bounds the true
    multiplier norm.
    """
    if truncation < 0:
        raise ArgumentError("truncation must be >= 0")
    V = [as_complex_matrix(M) for M in v_coeffs]
    W = [as_complex_matrix(M) for M in w_coeffs]
    B0 = as_complex_matrix(b0)
    da = V[0].shape[0] if V else (W[0].shape[1] if W else 1)
    db = B0.shape[0]
    L = truncation + 1
    def toeplitz(coeffs, rows, cols):
        T = np.zeros((L * rows, L * cols), dtype=np.complex128)
        for n, C in enumerate(coeffs):
            if n >= L:
                break
            for r in range(n, L):
                T[r * rows:(r + 1) * rows, (r - n) * cols:(r - n + 1) * cols] = C
        return T
    TV = toeplitz(V, da, da)
    TW = toeplitz(W, db, da)
    TB = np.kron(np.eye(L), B0)
    top = np.hstack([TV, np.zeros((L * da, L * db))])
    bot = np.hstack([TW, TB])
    return matcore.operator_norm(np.vstack([top, bot]))
