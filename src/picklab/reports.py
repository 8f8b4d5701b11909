"""Feasibility reports, and the two Pick builders every criterion assembles
data for: :func:`kernel_report`, the closed form at scalar ball points
(disk and Drury-Arveson FOV/LT/RT, the constant-multiplier test), and
:func:`fixed_point`, the fixed point P = M + sum_a L_a P L_a* behind every
other Pick matrix except the Lyapunov criterion.  Disk, free-ball and quiver
operator-argument criteria reach it through :func:`fixed_point_report`;
the quiver tensor and functional-calculus criteria (and so the quiver CP
map) call it with plans of their own."""

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
    method      "closed_form" (the kernel formula of :func:`kernel_report`,
                the Lyapunov criterion, or a finite level sum),
                "stein_solve" (one-arrow fixed point by Smith doubling, run
                until the dropped tail is below rounding) or
                "truncated_series" (several-arrow level recursion cut at a
                planned level).  The arrow count decides: a free-ball point
                with d = 1, or a quiver with one arrow under any of the
                three quiver criteria (qltt, qltrd, qltoa), is a one-arrow
                fixed point, so it reports "stein_solve" with tail 0 and
                never raises BudgetError.
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

    The matrix of block tails bounds the dropped tail in spectral norm;
    tails None is the one-arrow Stein solve of :func:`fixed_point`.
    """
    if tails is None:
        return make_report(pick, "stein_solve", 0.0, tol)
    tails = np.asarray(tails, dtype=float)
    method = "closed_form" if tails.max() == 0 else "truncated_series"
    return make_report(pick, method, float(np.linalg.norm(tails, 2)), tol)


def kernel_report(points, X, Y, tol="auto") -> FeasibilityReport:
    """Report on the Pick matrix [(X_i X_j* - Y_i Y_j*) / (1 - <lam_i, lam_j>)].

    points is an (N, d) array of scalar points in the open unit ball (d = 1
    is the disk and its Szego kernel); X_i and Y_i share a row count, the
    X's share one width and so do the Y's.  Computed on the stacks
    Xs = vstack(X_i), Ys = vstack(Y_i) as (Xs Xs* - Ys Ys*) / (1 - points
    points*) with each kernel entry repeated over its condition block
    ("closed_form", tail 0).
    """
    X = [matcore.as_complex_matrix(M) for M in X]
    Y = [matcore.as_complex_matrix(M) for M in Y]
    N = points.shape[0]
    if not (len(X) == len(Y) == N) or N == 0:
        raise DimensionError("need one direction and one target per point, "
                             "and at least one point")
    rows = [M.shape[0] for M in X]
    if rows != [M.shape[0] for M in Y]:
        raise DimensionError("each direction and its target must share the output space")
    Xs = matcore.stack_rows(X, "direction")
    Ys = matcore.stack_rows(Y, "target")
    cond = np.repeat(np.arange(N), rows)
    kernel = (1.0 - points @ points.conj().T)[np.ix_(cond, cond)]
    return make_report((Xs @ Xs.conj().T - Ys @ Ys.conj().T) / kernel,
                       "closed_form", 0.0, tol)


def fov_as_lt(values):
    """FOV values W_i as LT data X_i = I, Y_i = W_i; all W_i share one shape."""
    W = [matcore.as_complex_matrix(M) for M in values]
    shapes = {M.shape for M in W}
    if len(shapes) > 1:
        raise DimensionError(f"values must share one shape, got {shapes}")
    return [np.eye(M.shape[0], dtype=np.complex128) for M in W], W


def stacked_middle(letters, X, Y):
    """Shape checks of a fixed-point criterion; X_i, Y_i and M = Xs Xs* - Ys Ys*.

    Condition i's directions X_i and targets Y_i map into the space of its
    arrow blocks letters[i], and every condition has the same arrows.  M is
    also the target of the Agler constraint, with letters[i] condition i's
    polydisk tuple.
    """
    X = [matcore.as_complex_matrix(M) for M in X]
    Y = [matcore.as_complex_matrix(M) for M in Y]
    if not (len(X) == len(Y) == len(letters) > 0):
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


def fixed_point(letters, M, plan):
    """The fixed point P = M + sum_a L_a P L_a*, L_a = blockdiag_i letters[i][a].

    Returns (P, tails).  One arrow is solved by stacked Smith doubling
    (blocks of unequal size are zero-padded and the padding dropped
    afterwards); tails is None and plan is never called.  Several arrows
    run the level recursion to the largest level of levels, tails = plan(),
    so only several-arrow inputs pay for the plan's norms or its BudgetError.
    """
    N, arrows = len(letters), len(letters[0])
    if arrows > 1:
        levels, tails = plan()
        Ls = [matcore.block_diag([L[a] for L in letters]) for a in range(arrows)]
        return matcore.level_sum(Ls, M, max(levels)), tails
    sizes = np.array([len(L[0]) for L in letters])
    n = sizes.max()
    T = np.zeros((N, n, n), dtype=np.complex128)
    for Ti, L, k in zip(T, letters, sizes):
        Ti[:k, :k] = L[0]
    keep = np.flatnonzero(np.arange(n) < sizes[:, None])
    Q = np.zeros((N * n, N * n), dtype=np.complex128)
    Q[np.ix_(keep, keep)] = M
    return matcore.solve_stein(T, Q, T)[np.ix_(keep, keep)], None


def fixed_point_report(letters, X, Y, row_norms, tol="auto", series_tol=1e-12,
                       budget=None) -> FeasibilityReport:
    """Report on the fixed point P = M + sum_a L_a P L_a* of a Pick criterion.

    letters[i] lists condition i's arrow blocks, L_a = blockdiag_i
    letters[i][a], M = Xs Xs* - Ys Ys* with Xs = vstack(X_i), and row_norms[i]
    bounds the block row of letters[i].  Solved by :func:`fixed_point`;
    several arrows plan their levels from :func:`block_entries`.
    """
    X, Y, M = stacked_middle(letters, X, Y)

    def plan():
        levels, tails = matcore.plan_levels(
            block_entries(X, Y, row_norms), len(letters[0]), series_tol,
            config.work_budget() if budget is None else budget)
        return levels, np.reshape(tails, (len(X), len(X)))

    return series_report(*fixed_point(letters, M, plan), tol)
