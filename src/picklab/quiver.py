"""Directed-graph (quiver) Toeplitz-algebra interpolation criteria.

A quiver is a finite directed graph; its composable arrow sequences index a
graded Toeplitz algebra.  Points live in generalized disks whose per-vertex
row blocks are strict contractions, and three Pick-matrix criteria decide
tensor-calculus, functional-calculus and operator-argument interpolation.
Path sums are one level recursion on the condition-stacked matrix, with each
arrow block placed by vertex, truncated with certified geometric tails; the
operator-argument criterion is the fixed point of
:func:`picklab.reports.fixed_point_report` with one arrow per quiver arrow.
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
from .reports import FeasibilityReport, fixed_point_report, series_report


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

    def transposed(self) -> "Quiver":
        """Same graph with source and range maps interchanged."""
        return Quiver(self.vertices, self.arrows, dict(self.rng), dict(self.src))

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


def _check_points(G, dims, points, kind):
    reports = []
    for k, P in enumerate(points):
        if P.kind != kind:
            raise ArgumentError(f"point {k} has kind {P.kind!r}, expected {kind!r}")
        rep = disk_membership(G, dims, P)
        if not rep.is_member:
            raise DomainError(
                f"point {k} is not in the generalized disk "
                f"(worst row norm {rep.worst_row_norm:.6g})")
        reports.append(rep)
    return reports


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
    """
    budget = config.work_budget() if budget is None else budget
    reports = _check_points(G, zdims, points, "tensor")
    N = len(points)
    X = [as_complex_matrix(M) for M in directions]
    Y = [as_complex_matrix(M) for M in targets]
    if not (len(X) == len(Y) == N):
        raise ShapeError("need one direction and one target per point")
    qdim = sum(ydims[v] * zdims[v] for v in G.vertices)
    for M in X + Y:
        if M.shape[1] != qdim:
            raise ShapeError(
                f"direction/target acts on dimension {M.shape[1]}, expected {qdim}")
    c = X[0].shape[0]
    if any(M.shape[0] != c for M in X + Y):
        raise ShapeError("directions and targets must share one output dimension")
    xnorm = [matcore.operator_norm(M) for M in X]
    ynorm = [matcore.operator_norm(M) for M in Y]

    # one geometric plan per (vertex, i, j, basis pair): ratios repeat per
    # (i, j), unit-rank starting norms are 1
    pair_entries = [(reports[i].worst_row_norm * reports[j].worst_row_norm, 1.0)
                    for i in range(N) for j in range(N)]
    kv_total = sum(zdims[v] ** 2 for v in G.vertices)
    levels_ij, tails_ij = matcore.plan_levels(
        [e for e in pair_entries for _ in range(kv_total)], len(G.arrows),
        series_tol, budget)
    levels = max(levels_ij[::max(kv_total, 1)])
    tails_ij = np.array(tails_ij[::max(kv_total, 1)]).reshape(N, N) * (
        np.outer(xnorm, xnorm) + np.outer(ynorm, ynorm))

    out: Dict[str, FeasibilityReport] = {}
    for v in G.vertices:
        kv = zdims[v]
        if kv == 0:
            continue
        pick = qltt_vertex_matrix(G, zdims, ydims, points, X, Y, v, levels)
        tails = np.kron(tails_ij, np.ones((kv, kv)))
        out[v] = series_report(pick, tails, tol)
    return out


def _placed_arrows(G: Quiver, dims: Grading, P: QuiverPoint) -> np.ndarray:
    """P's arrow blocks on the whole graded space, shape (arrows, dim, dim).

    The block for arrow a sits at rows rng(a), columns src(a) (tensor points)
    or rows src(a), columns rng(a) (operator arguments).
    """
    out = np.zeros((len(G.arrows), dims.total, dims.total), dtype=np.complex128)
    for L, a in zip(out, G.arrows):
        rows, cols = ((G.rng[a], G.src[a]) if P.kind == "tensor"
                      else (G.src[a], G.rng[a]))
        L[dims.block_slice(rows), dims.block_slice(cols)] = P.blocks[a]
    return out


def qltt_vertex_matrix(G: Quiver, zdims: Grading, ydims: Grading, points,
                       directions, targets, v: str, levels: int) -> np.ndarray:
    """Vertex-v matrix of :func:`pick_qltt`, path sums truncated at `levels`.

    The path sums K_(i,i'),(j,j') = sum_g Z_i^g e_i' e_j'* Z_j^g* (paths g
    with source v) come from one level recursion on the stacked unit
    matrices; the block X_i (I tensor K) X_j* - Y_i (I tensor K) Y_j* is then
    summed over the (vertex w, copy k) summands Y_w tensor Z_w of Q.
    """
    kv, N, zdim = zdims[v], len(points), zdims.total
    units = np.zeros((N * kv, zdim))
    units[np.arange(N * kv), zdims.offsets[v] + np.tile(np.arange(kv), N)] = 1.0
    units = units.reshape(-1, 1)
    placed = np.array([_placed_arrows(G, zdims, P) for P in points])
    Ls = [matcore.block_diag(np.repeat(placed[:, k], kv, axis=0))
          for k in range(len(G.arrows))]
    K = matcore.level_sum(Ls, units @ units.T, levels)
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
    return pick


def pick_qltrd(G: Quiver, zdims: Grading, points, directions, targets,
               basis_dim: Optional[int] = None, tol="auto", series_tol=1e-12,
               budget: Optional[int] = None) -> FeasibilityReport:
    """Pick matrix for functional-calculus tangential interpolation.

    Data: points Z^(i) over zdims and X_i, Y_i in L(Z, C) with dim C = kappa.
    The matrix over ((i, i'), (j, j')) sums, over all paths, the adjoint-side
    conjugations Z_i^g* [X_i* e_i' e_j'* X_j - Y_i* e_i' e_j'* Y_j] Z_j^g,
    embedded per source vertex, giving one (N kappa dimZ)-square matrix.
    """
    budget = config.work_budget() if budget is None else budget
    reports = _check_points(G, zdims, points, "tensor")
    N = len(points)
    X = [as_complex_matrix(M) for M in directions]
    Y = [as_complex_matrix(M) for M in targets]
    if not (len(X) == len(Y) == N):
        raise ShapeError("need one direction and one target per point")
    zdim = zdims.total
    for M in X + Y:
        if M.shape[1] != zdim:
            raise ShapeError(
                f"direction/target acts on dimension {M.shape[1]}, expected {zdim}")
    kappa = X[0].shape[0]
    if any(M.shape[0] != kappa for M in X + Y):
        raise ShapeError("directions and targets must share one output dimension")
    if basis_dim is not None and basis_dim != kappa:
        raise ShapeError("basis_dim must equal the common output dimension of X, Y")

    n = N * kappa
    # stacked rows (i, i') of X_i* e_i' and Y_i* e_i'
    x = np.concatenate([M.conj().ravel() for M in X]).reshape(-1, 1)
    y = np.concatenate([M.conj().ravel() for M in Y]).reshape(-1, 1)
    M = x @ x.conj().T - y @ y.conj().T
    blocks = M.reshape(N, kappa, zdim, N, kappa, zdim)
    entries = []
    for i in range(N):
        for j in range(N):
            r = reports[i].worst_row_norm * reports[j].worst_row_norm
            for ip in range(kappa):
                for jp in range(kappa):
                    # adjoint-side recursion: trace argument adds a dim factor
                    entries.append((r, zdim * matcore.operator_norm(
                        blocks[i, ip, :, j, jp, :])))
    levels, tail_list = matcore.plan_levels(entries, len(G.arrows), series_tol,
                                            budget)
    # the path sums start from the vertex-diagonal blocks of each M0
    vertex = np.repeat(np.arange(len(G.vertices)),
                       [zdims[v] for v in G.vertices])
    M *= np.kron(np.ones((n, n)), vertex[:, None] == vertex[None, :])
    placed = np.array([_placed_arrows(G, zdims, P) for P in points])
    Ls = [matcore.block_diag(np.repeat(placed[:, k], kappa, axis=0)).conj().T
          for k in range(len(G.arrows))]
    pick = matcore.level_sum(Ls, M, max(levels))
    tails = np.array(tail_list).reshape(N, N, kappa, kappa).transpose(
        0, 2, 1, 3).reshape(n, n)
    return series_report(pick, tails, tol)


def split_block_diagonal(M, row_grading: Grading, col_grading: Grading,
                         atol: float = 0.0) -> Dict[str, np.ndarray]:
    """Split a vertex-block-diagonal matrix; ShapeError on off-diagonal mass."""
    M = as_complex_matrix(M)
    if M.shape != (row_grading.total, col_grading.total):
        raise ShapeError(f"matrix shape {M.shape} does not match the gradings")
    out = {}
    mask = np.ones(M.shape, dtype=bool)
    for v in row_grading.quiver.vertices:
        rs, cs = row_grading.block_slice(v), col_grading.block_slice(v)
        out[v] = M[rs, cs]
        mask[rs, cs] = False
    if np.any(np.abs(M[mask]) > atol):
        raise ShapeError("matrix is not block-diagonal over the vertex grading")
    return out


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
    reports = _check_points(G, xdims, points, "operator_argument")
    X = [_as_vertex_family(G, D, xdims, "direction") for D in directions]
    Y = [_as_vertex_family(G, D, xdims, "target") for D in targets]
    return fixed_point_report([_placed_arrows(G, xdims, P) for P in points],
                              _vertex_blocks(G, X, "direction"),
                              _vertex_blocks(G, Y, "target"),
                              [r.worst_row_norm for r in reports], tol,
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
        raise ShapeError(f"{what} must be a vertex -> matrix mapping "
                         f"(use split_block_diagonal for full matrices)")
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
    N = len(X)
    k, kappa = shape
    Xs = np.vstack(X)
    Ys = np.vstack(Y)
    u = Xs.flatten(order="F").reshape(-1, 1)
    v = Ys.flatten(order="F").reshape(-1, 1)
    rank_one = u @ u.conj().T - v @ v.conj().T
    size = N * kappa * k
    pick = np.zeros((size, size), dtype=np.complex128)
    for i in range(N):
        for ip in range(kappa):
            ri = (i * kappa + ip) * k
            for j in range(N):
                for jp in range(kappa):
                    cj = (j * kappa + jp) * k
                    pick[ri:ri + k, cj:cj + k] = (
                        X[i][:, ip:ip + 1] @ X[j][:, jp:jp + 1].conj().T
                        - Y[i][:, ip:ip + 1] @ Y[j][:, jp:jp + 1].conj().T)
    verdict = matcore.is_psd(pick, tol)
    delta: Optional[complex] = None
    if verdict.is_psd:
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            delta = 0.0 + 0.0j
        else:
            cand = complex((u.conj().T @ v)[0, 0] / nu**2)
            resid = float(np.linalg.norm(cand * u - v))
            if abs(cand) <= 1.0 + 1e-10 and resid <= 1e-8 * max(1.0, nu):
                delta = cand
    return ConstantMultiplierResult(verdict, delta, matcore.hermitize(pick),
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
