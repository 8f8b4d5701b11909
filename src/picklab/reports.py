"""Feasibility reports, and the one fixed-point builder behind every
operator-argument Pick matrix (disk, free ball, quiver)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, matcore
from .errors import DimensionError
from .matcore import PsdVerdict


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Outcome of one Pick-matrix criterion.

    pick        hermitized Pick matrix
    verdict     PSD verdict at the tolerance used
    method      "closed_form" (finite formula or a finite level sum),
                "stein_solve" (one-arrow fixed point by Smith doubling, run
                until the dropped tail is below rounding) or
                "truncated_series" (several-arrow level recursion cut at a
                planned level).  The arrow count decides: a free-ball point
                with d = 1 or a quiver with one arrow is a one-arrow fixed
                point, so it reports "stein_solve" with tail 0 and never
                raises BudgetError.
    tail_bound  certified bound on the dropped series tail (0 unless
                "truncated_series")
    """

    pick: np.ndarray
    verdict: PsdVerdict
    method: str
    tail_bound: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.verdict.is_psd

    @property
    def min_eigenvalue(self) -> float:
        return self.verdict.min_eigenvalue


def make_report(pick, method: str, tail_bound: float = 0.0, tol="auto") -> FeasibilityReport:
    H = matcore.hermitize(pick)
    return FeasibilityReport(
        pick=H,
        verdict=matcore.psd_verdict(H, tol),
        method=method,
        tail_bound=float(tail_bound),
    )


def series_report(pick, tails, tol="auto") -> FeasibilityReport:
    """Report for a level sum cut with a tail bound per (i, j) block.

    The matrix of block tails bounds the dropped tail in spectral norm.
    """
    tails = np.asarray(tails, dtype=float)
    method = "closed_form" if tails.max() == 0 else "truncated_series"
    return make_report(pick, method, float(np.linalg.norm(tails, 2)), tol)


def stacked_middle(letters, X, Y):
    """Shape checks of a fixed-point criterion; X_i, Y_i and M = Xs Xs* - Ys Ys*.

    Condition i's directions X_i and targets Y_i map into the space of its
    arrow blocks letters[i], and every condition has the same arrows.  M is
    also the target of the Agler constraint, with letters[i] condition i's
    polydisk tuple.
    """
    X = [matcore.as_complex_matrix(M) for M in X]
    Y = [matcore.as_complex_matrix(M) for M in Y]
    if not (len(X) == len(Y) == len(letters)) or not letters:
        raise DimensionError("need one direction and one target per point, "
                             "and at least one point")
    for i, L in enumerate(letters):
        if len(L) != len(letters[0]):
            raise DimensionError("all points must have the same number of arrows")
        if X[i].shape[0] != len(L[0]) or Y[i].shape[0] != len(L[0]):
            raise DimensionError(
                f"condition {i}: directions/targets must map into the space "
                f"of the point")
    Xs = matcore.stack_rows(X, "direction")
    Ys = matcore.stack_rows(Y, "target")
    return X, Y, Xs @ Xs.conj().T - Ys @ Ys.conj().T


def block_entries(X, Y, row_norms):
    """(r_i r_j, ||X_i X_j* - Y_i Y_j*||) per (i, j) block, row-major: the
    ratio and starting norm of each block's geometric level sum."""
    N = len(X)
    return [(row_norms[i] * row_norms[j],
             matcore.operator_norm(X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T))
            for i in range(N) for j in range(N)]


def fixed_point_report(letters, X, Y, row_norms, tol="auto", series_tol=1e-12,
                       budget=None) -> FeasibilityReport:
    """Report on the fixed point P = M + sum_a L_a P L_a* of a Pick criterion.

    letters[i] lists condition i's arrow blocks, L_a = blockdiag_i
    letters[i][a], M = Xs Xs* - Ys Ys* with Xs = vstack(X_i), and row_norms[i]
    bounds the block row of letters[i].  One arrow is solved by stacked
    Smith doubling ("stein_solve", tail 0; blocks of unequal size are
    zero-padded and the padding dropped afterwards).  Several arrows run the
    level recursion to the largest level planned from :func:`block_entries`
    ("truncated_series", BudgetError past the budget).
    """
    X, Y, M = stacked_middle(letters, X, Y)
    N, arrows = len(letters), len(letters[0])
    if arrows == 1:
        sizes = np.array([len(L[0]) for L in letters])
        n = sizes.max()
        T = np.zeros((N, n, n), dtype=np.complex128)
        for Ti, L, k in zip(T, letters, sizes):
            Ti[:k, :k] = L[0]
        keep = np.flatnonzero(np.arange(n) < sizes[:, None])
        Q = np.zeros((N * n, N * n), dtype=np.complex128)
        Q[np.ix_(keep, keep)] = M
        pick = matcore.solve_stein(T, Q, T)[np.ix_(keep, keep)]
        return make_report(pick, "stein_solve", 0.0, tol)
    budget = config.work_budget() if budget is None else budget
    levels, tails = matcore.plan_levels(block_entries(X, Y, row_norms), arrows,
                                        series_tol, budget)
    Ls = [matcore.block_diag([L[a] for L in letters]) for a in range(arrows)]
    return series_report(matcore.level_sum(Ls, M, max(levels)),
                         np.reshape(tails, (N, N)), tol)
