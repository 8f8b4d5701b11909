"""Pick criteria on the commutative and noncommutative unit ball.

Free words over d letters index the noncommutative Toeplitz algebra; points
are operator d-tuples whose block row is a strict contraction.  Pick blocks
are geometric word sums: the fixed point of
:func:`picklab.reports.fixed_point_report` with one arrow per letter,
L_k = blockdiag_i Z_k^(i).  The commutative (Drury-Arveson) criteria at
scalar points are the closed form of :func:`picklab.reports.kernel_report`
with the kernel 1/(1 - <lam_i, lam_j>) (FOV is LT with X_i = I); at
operator tuples they reuse the word sum, which equals the
multinomial-weighted multi-index sum; the literal unweighted multi-index
sum is available behind a flag for comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import config, matcore
from .errors import ArgumentError, BudgetError, DimensionError, DomainError
from .matcore import as_complex_matrix
from .reports import (
    FeasibilityReport,
    block_entries,
    fixed_point_report,
    fov_as_lt,
    kernel_report,
    series_report,
    stacked_middle,
)

Word = Tuple[int, ...]


def words_up_to(d: int, max_length: int, budget: Optional[int] = None) -> List[Word]:
    """All words over {1..d} of length <= max_length, length-then-lex ordered."""
    if d < 1:
        raise ArgumentError("alphabet size must be >= 1")
    if max_length < 0:
        raise ArgumentError("max_length must be >= 0")
    budget = config.work_budget() if budget is None else budget
    count = max_length + 1 if d == 1 else (d ** (max_length + 1) - 1) // (d - 1)
    if count > budget:
        raise BudgetError(f"word enumeration would produce {count} words",
                          achieved_bound=count)
    out: List[Word] = []
    for n in range(max_length + 1):
        out.extend(itertools.product(range(1, d + 1), repeat=n))
    return out


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """d square matrices of a common dimension; a noncommutative ball point."""

    mats: Tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_complex_matrix(M) for M in self.mats)
        if not mats:
            raise ArgumentError("operator tuple must have at least one entry")
        n = mats[0].shape[0]
        for M in mats:
            if M.shape != (n, n):
                raise DimensionError(
                    f"tuple entries must be square of one dimension, got {M.shape}")
        object.__setattr__(self, "mats", mats)
        object.__setattr__(
            self, "row_norm", matcore.operator_norm(np.hstack(mats)))

    row_norm: float = 0.0

    @property
    def d(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    def commutator_defect(self) -> float:
        worst = 0.0
        for a, b in itertools.combinations(self.mats, 2):
            worst = max(worst, matcore.operator_norm(a @ b - b @ a))
        return worst

    def is_commutative(self, tol: float = 1e-12) -> bool:
        return self.commutator_defect() <= tol

    def adjoint(self) -> "OperatorTuple":
        return OperatorTuple(tuple(M.conj().T for M in self.mats))


def as_operator_tuple(Z) -> OperatorTuple:
    if isinstance(Z, OperatorTuple):
        return Z
    return OperatorTuple(tuple(as_complex_matrix(M) for M in Z))


def word_power(Z, word: Word, transpose: bool = False) -> np.ndarray:
    """Z^gamma = Z_{i_N} ... Z_{i_1} for gamma = (i_N, ..., i_1) as written.

    With transpose=True the letters multiply in reversed (transposed-word)
    order Z_{i_1} ... Z_{i_N}.
    """
    Z = as_operator_tuple(Z)
    for k in word:
        if not 1 <= k <= Z.d:
            raise ArgumentError(f"letter {k} outside alphabet 1..{Z.d}")
    M = np.eye(Z.dim, dtype=np.complex128)
    letters = tuple(reversed(word)) if transpose else word
    for k in letters:
        M = M @ Z.mats[k - 1]
    return M


def _check_strict_row(tuples) -> List[OperatorTuple]:
    out = []
    for k, Z in enumerate(tuples):
        Z = as_operator_tuple(Z)
        if Z.row_norm >= 1.0:
            raise DomainError(
                f"tuple {k} has block-row norm {Z.row_norm:.6g} >= 1")
        out.append(Z)
    return out


def pick_nc_ltoa(operator_points, directions, targets, tol="auto",
                 series_tol=1e-12, budget: Optional[int] = None) -> FeasibilityReport:
    """Pick matrix [sum_g Z_i^g (X_i X_j* - Y_i Y_j*) Z_j^g*] over free words.

    The fixed point with one arrow per letter, L_k = blockdiag_i Z_k^(i).
    """
    Zs = _check_strict_row(operator_points)
    return fixed_point_report([Z.mats for Z in Zs], directions, targets,
                              [Z.row_norm for Z in Zs], tol, series_tol, budget)


def _check_ball_points(points) -> np.ndarray:
    pts = matcore.as_point_rows(points)
    norms2 = np.sum(np.abs(pts) ** 2, axis=1)
    if not (norms2 < 1.0).all():
        raise DomainError(
            f"point with squared norm {norms2.max():.6g} lies outside the ball")
    return pts


def pick_da_fov(points, values, tol="auto") -> FeasibilityReport:
    """Pick matrix [(I - W_i W_j*) / (1 - <lam_i, lam_j>)] on the ball: DA-LT
    with X_i = I."""
    return pick_da_lt(points, *fov_as_lt(values), tol)


def pick_da_lt(points, directions, targets, tol="auto") -> FeasibilityReport:
    """Pick matrix [(X_i X_j* - Y_i Y_j*) / (1 - <lam_i, lam_j>)] on the ball."""
    return kernel_report(_check_ball_points(points), directions, targets, tol)


def pick_da_ltoa(operator_points, directions, targets, tol="auto",
                 series_tol=1e-12, budget: Optional[int] = None,
                 literal_unweighted: bool = False,
                 commutativity_tol: float = 1e-12) -> FeasibilityReport:
    """Drury-Arveson operator-argument Pick matrix for commuting tuples.

    Computed as the free word sum, equivalently the multi-index sum with
    multinomial weights |n|!/n! (the weights reproduce the kernel
    1/(1 - <lam, zeta>) under scalar reduction).  literal_unweighted=True
    instead computes the plain sum over multi-indices.
    """
    budget = config.work_budget() if budget is None else budget
    Zs = _check_strict_row(operator_points)
    for k, Z in enumerate(Zs):
        defect = Z.commutator_defect()
        if defect > commutativity_tol:
            raise DomainError(
                f"tuple {k} is not commutative (commutator norm {defect:.3g})")
    if not literal_unweighted:
        return pick_nc_ltoa(Zs, directions, targets, tol, series_tol, budget)
    X, Y, M = stacked_middle([Z.mats for Z in Zs], directions, targets)
    d = Zs[0].d
    plan = [_unweighted_level(r, norm0, d, series_tol, budget)
            for r, norm0 in block_entries(X, Y, [Z.row_norm for Z in Zs])]
    Ls = [matcore.block_diag([Z.mats[k] for Z in Zs]) for k in range(d)]
    pick = _unweighted_multi_index_sum(Ls, M, max(m for m, _ in plan))
    return series_report(pick, np.reshape([t for _, t in plan], (len(Zs), len(Zs))),
                         tol)


def _unweighted_level(r, norm0, d, series_tol, budget):
    """Stopping level and tail of one block of the unweighted multi-index sum.

    BudgetError once the multi-indices the block needs exceed the budget.
    """
    if norm0 == 0.0:
        return 0, 0.0
    m = 0
    work = 0
    while True:
        # tail bound: sum_{m' > m} C(m'+d-1, d-1) r^m' norm0, via ratio test
        head = math.comb(m + d, d - 1) * r ** (m + 1) * norm0
        q = r * (m + d) / (m + 1)
        if q < 1.0 and head / (1.0 - q) <= series_tol:
            return m, head / (1.0 - q)
        work += math.comb(m + d, d - 1)  # multi-indices of size m + 1
        if work > budget:
            raise BudgetError(
                "unweighted multi-index sum exceeded the work budget",
                achieved_bound=head)
        m += 1


def _unweighted_multi_index_sum(Ls, M, levels):
    """sum over n in Z_+^d, |n| <= levels (coefficient 1) of L^n M L^n*."""
    d = len(Ls)
    acc = M.copy()
    level = {(0,) * d: M}
    for m in range(levels):
        nxt = {}
        for n in itertools.combinations_with_replacement(range(d), m + 1):
            counts = [0] * d
            for k in n:
                counts[k] += 1
            idx = tuple(counts)
            k = next(p for p, c in enumerate(counts) if c > 0)
            prev = tuple(c - (1 if p == k else 0) for p, c in enumerate(counts))
            nxt[idx] = Ls[k] @ level[prev] @ Ls[k].conj().T
            acc += nxt[idx]
        level = nxt
    return acc


def pick_nc_frd(operator_points, values, basis_dim: Optional[int] = None,
                tol="auto", series_tol=1e-12,
                budget: Optional[int] = None) -> FeasibilityReport:
    """Free-ball Pick matrix for transposed functional-calculus interpolation.

    Blocks over ((i, i'), (j, j')) are word sums of
    Z_i^g (e_i' e_j'* - W_i e_i' e_j'* W_j*) Z_j^g*.
    """
    Zs = _check_strict_row(operator_points)
    W = [as_complex_matrix(M) for M in values]
    if len(W) != len(Zs) or not Zs:
        raise DimensionError("need one value per point, and at least one point")
    dim = Zs[0].dim
    for Z, Wi in zip(Zs, W):
        if Z.dim != dim or Wi.shape != (dim, dim):
            raise DimensionError("values and tuples must share one square dimension")
    ex_points, ex_dirs, ex_targets = matcore.basis_expansion(Zs, W, dim, basis_dim)
    return pick_nc_ltoa(ex_points, ex_dirs, ex_targets, tol, series_tol, budget)


def pick_nc_frd_star(operator_points, values, basis_dim: Optional[int] = None,
                     tol="auto", series_tol=1e-12,
                     budget: Optional[int] = None) -> FeasibilityReport:
    """Free-ball Pick matrix for plain functional-calculus interpolation.

    Blocks are word sums of Z_i^g* (e e* - W_i* e e* W_j) Z_j^g; computed by
    the conjugation reduction, i.e. as pick_nc_frd on the adjoint tuples and
    adjoint values.
    """
    Zs = [as_operator_tuple(Z).adjoint() for Z in operator_points]
    W = [as_complex_matrix(M).conj().T for M in values]
    return pick_nc_frd(Zs, W, basis_dim, tol, series_tol, budget)
