"""Single-variable Pick-matrix criteria on the unit disk.

Covers the full operator-valued problem and the left/right tangential
variants (the Szego-kernel closed form of
:func:`picklab.reports.kernel_report`; FOV is LT with X_i = I and RT is LT
on the sharp data), operator-argument variants (the one-arrow fixed point
of :func:`picklab.reports.fixed_point_report`), the three
functional-calculus variants with a finite basis expansion, and the
right-half-plane Lyapunov criterion for the Nevanlinna class.  Each
criterion returns a FeasibilityReport whose Pick matrix is positive
semidefinite exactly when the interpolation problem is solvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import matcore
from .errors import ArgumentError, DimensionError, DomainError
from .matcore import as_complex_matrix
from .reports import (
    FeasibilityReport,
    fixed_point_report,
    fov_as_lt,
    kernel_report,
    make_report,
)


def _check_disk_points(lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    outside = ~(np.abs(lams) < 1.0)
    if outside.any():
        raise DomainError(f"point {lams[outside][0]} is not in the open unit disk")
    return lams

def _check_strict_ops(points, what="operator point") -> list[np.ndarray]:
    mats = [as_complex_matrix(P) for P in points]
    for P in mats:
        if P.shape[0] != P.shape[1]:
            raise DimensionError(f"{what} must be square, got {P.shape}")
        r = matcore.spectral_radius(P)
        if r >= 1.0:
            raise DomainError(f"{what} has spectral radius {r:.6g} >= 1")
    return mats


def pick_fov(points, values, tol="auto") -> FeasibilityReport:
    """Pick matrix [(I - W_i W_j*) / (1 - lam_i conj(lam_j))]: LT with X_i = I."""
    return pick_lt(points, *fov_as_lt(values), tol)


def pick_lt(points, directions, targets, tol="auto") -> FeasibilityReport:
    """Pick matrix [(X_i X_j* - Y_i Y_j*) / (1 - lam_i conj(lam_j))].

    X_i and Y_i may map into an output space of their own per condition.
    """
    return kernel_report(_check_disk_points(points)[:, None], directions, targets, tol)


def pick_rt(points, directions, targets, tol="auto") -> FeasibilityReport:
    """Pick matrix [(U_i* U_j - V_i* V_j) / (1 - conj(lam_i) lam_j)].

    LT on the sharp data (conj(lam_i), U_i*, V_i*), so U_i and V_i may act on
    an input space of their own per condition.
    """
    return pick_lt(*sharp_lt_to_rt(points, directions, targets), tol)


def pick_ltoa(operator_points, directions, targets, tol="auto") -> FeasibilityReport:
    """Pick matrix [sum_n T_i^n (X_i X_j* - Y_i Y_j*) T_j*^n].

    The one-arrow fixed point P = Xs Xs* - Ys Ys* + Tb P Tb* with
    Tb = blockdiag(T_i) and Xs = vstack(X_i).
    """
    T = _check_strict_ops(operator_points)
    return fixed_point_report([[Ti] for Ti in T], directions, targets, None, tol)


def pick_rtoa(operator_points, directions, targets, tol="auto") -> FeasibilityReport:
    """Pick matrix [sum_n A_i*^n (U_i* U_j - V_i* V_j) A_j^n].

    LTOA on the adjoint data (A_i*, U_i*, V_i*), so the sharp duality with
    :func:`pick_ltoa` is exact.
    """
    return pick_ltoa(*sharp_ltoa_to_rtoa(operator_points, directions, targets), tol)


@dataclass(frozen=True)
class DiskDataset:
    """Data for one disk interpolation problem.

    variant      FOV | LT | RT | LTOA | RTOA | FRD | LTRD | RTRD
    points       complex scalars (FOV/LT/RT) or square matrices (others)
    directions   X_i (left variants) or U_i (right variants), None for FOV/FRD
    targets      Y_i or V_i, None for FOV/FRD
    values       W_i for FOV/FRD
    basis_dim    kappa for the functional-calculus variants
    """

    variant: str
    points: Sequence
    directions: Optional[Sequence] = None
    targets: Optional[Sequence] = None
    values: Optional[Sequence] = None
    basis_dim: Optional[int] = None


def _basis_columns(dim: int):
    return [np.eye(dim, dtype=np.complex128)[:, k:k + 1] for k in range(dim)]


def expand_rd_to_ltoa(dataset: DiskDataset) -> DiskDataset:
    """Cartesian basis expansion of the functional-calculus variants.

    FRD and RTRD become LTOA datasets with N*kappa conditions
    (T_(i,j) = Z_i, x_(i,j) = U_i e_j, y_(i,j) = V_i e_j); LTRD becomes an
    RTOA dataset through the mirror expansion by basis rows.
    """
    variant = dataset.variant.upper()
    Z = [as_complex_matrix(P) for P in dataset.points]
    if not Z:
        raise DimensionError("need at least one point")
    if dataset.basis_dim is not None and dataset.basis_dim == 0:
        raise ArgumentError("basis dimension must be positive")
    if variant == "FRD":
        kappa = dataset.basis_dim or Z[0].shape[0]
        if kappa != Z[0].shape[0]:
            raise DimensionError("FRD basis dimension must equal dim of the Z space")
        U = [np.eye(kappa, dtype=np.complex128)] * len(Z)
        return expand_rd_to_ltoa(DiskDataset("RTRD", Z, U, dataset.values,
                                             basis_dim=kappa))
    if variant not in ("RTRD", "LTRD"):
        raise ArgumentError(f"variant {dataset.variant!r} has no basis expansion")
    # the basis runs over the input space of U_i (RTRD) or the output space
    # of X_i (LTRD): condition (i, k) keeps column (row) k of U_i, V_i (X_i, Y_i)
    axis = 1 if variant == "RTRD" else 0
    X = [as_complex_matrix(M) for M in dataset.directions]
    Y = [as_complex_matrix(M) for M in dataset.targets]
    if not (len(X) == len(Y) == len(Z)) or any(
            Xi.shape != Yi.shape for Xi, Yi in zip(X, Y)):
        raise DimensionError("need one direction and one target of the same "
                             "shape per point")
    kappa = dataset.basis_dim or X[0].shape[axis]
    if any(M.shape[axis] != kappa for M in X):
        raise DimensionError(f"{variant} basis dimension must equal the "
                             f"{'U input' if axis else 'X output'} space")
    points, xs, ys = zip(*[(Zi, np.take(Xi, [k], axis), np.take(Yi, [k], axis))
                           for Zi, Xi, Yi in zip(Z, X, Y) for k in range(kappa)])
    return DiskDataset("LTOA" if axis else "RTOA", list(points), list(xs), list(ys))


def pick_frd(operator_points, values, basis_dim=None, tol="auto") -> FeasibilityReport:
    """Pick matrix of s(Z_i) = W_i interpolation (Riesz-Dunford calculus)."""
    ds = expand_rd_to_ltoa(
        DiskDataset("FRD", operator_points, values=values, basis_dim=basis_dim))
    return pick_ltoa(ds.points, ds.directions, ds.targets, tol)


def pick_ltrd(operator_points, directions, targets, basis_dim=None, tol="auto"):
    """Pick matrix of X_i s(Z_i) = Y_i interpolation."""
    ds = expand_rd_to_ltoa(
        DiskDataset("LTRD", operator_points, directions, targets, basis_dim=basis_dim))
    return pick_rtoa(ds.points, ds.directions, ds.targets, tol)


def pick_rtrd(operator_points, directions, targets, basis_dim=None, tol="auto"):
    """Pick matrix of s(Z_i) U_i = V_i interpolation."""
    ds = expand_rd_to_ltoa(
        DiskDataset("RTRD", operator_points, directions, targets, basis_dim=basis_dim))
    return pick_ltoa(ds.points, ds.directions, ds.targets, tol)


def nevanlinna_rd_check(operator_point, value, basis_dim=None, tol="auto"):
    """Right-half-plane criterion for f(Z) = W with f in the Nevanlinna class.

    Each block P_(i'j') is the unique solution of the Lyapunov equation
    P Z* + Z P = e_i' e_j'* W* + W e_i' e_j'*, all kappa^2 of them solved
    with one factorisation; the assembled kappa x kappa block matrix is PSD
    exactly when an interpolant exists.
    """
    Z = as_complex_matrix(operator_point)
    W = as_complex_matrix(value)
    if Z.shape != W.shape or Z.shape[0] != Z.shape[1]:
        raise DimensionError("Z and W must be square with equal shapes")
    kappa = basis_dim or Z.shape[0]
    if kappa != Z.shape[0]:
        raise DimensionError("basis dimension must equal dim of the Z space")
    eigs = np.linalg.eigvals(Z)
    if np.any(eigs.real <= 0):
        raise DomainError(
            f"spectrum must lie in the open right half-plane, got eigenvalue "
            f"{eigs[np.argmin(eigs.real)]:.6g}")
    cols = _basis_columns(kappa)
    units = [e @ f.conj().T for e in cols for f in cols]
    Wh = W.conj().T
    P = matcore.solve_lyapunov_rhp(Z, np.array([E @ Wh + W @ E for E in units]))
    n = kappa * Z.shape[0]
    pick = P.reshape(kappa, kappa, Z.shape[0], -1).transpose(0, 2, 1, 3).reshape(n, n)
    return make_report(pick, "closed_form", 0.0, tol)


def sharp_lt_to_rt(points, directions, targets):
    """LT data for S maps to RT data for S#(lam) = S(conj(lam))*."""
    lams = np.conj(np.asarray(points, dtype=np.complex128).reshape(-1))
    U = [as_complex_matrix(X).conj().T for X in directions]
    V = [as_complex_matrix(Y).conj().T for Y in targets]
    return lams, U, V


def sharp_ltoa_to_rtoa(operator_points, directions, targets):
    """LTOA data for S maps to RTOA data for S#."""
    A = [as_complex_matrix(T).conj().T for T in operator_points]
    U = [as_complex_matrix(X).conj().T for X in directions]
    V = [as_complex_matrix(Y).conj().T for Y in targets]
    return A, U, V
