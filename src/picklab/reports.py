"""Feasibility report structures shared by the Pick-matrix builders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
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
                planned level)
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
        verdict=matcore.is_psd(H, tol),
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
