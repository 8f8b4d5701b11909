"""Single-variable Pick-matrix criteria on the unit disk.

Covers the full operator-valued problem, left/right tangential variants,
operator-argument variants (the one-arrow fixed point of
:func:`picklab.reports.fixed_point_report`), the three functional-calculus variants
with a finite basis expansion, and the right-half-plane Lyapunov criterion
for the Nevanlinna class.  Each criterion returns a FeasibilityReport whose Pick matrix is
positive semidefinite exactly when the interpolation problem is solvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import matcore
from .errors import ArgumentError, DimensionError, DomainError
from .matcore import as_complex_matrix
from .reports import FeasibilityReport, fixed_point_report, make_report


def _check_disk_points(lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    if np.any(np.abs(lams) >= 1.0):
        bad = lams[np.abs(lams) >= 1.0][0]
        raise DomainError(f"point {bad} is not in the open unit disk")
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


def _common_shape(ops, name) -> list[np.ndarray]:
    mats = [as_complex_matrix(M) for M in ops]
    shapes = {M.shape for M in mats}
    if len(shapes) > 1:
        raise DimensionError(f"{name} operators must share one shape, got {shapes}")
    return mats


def pick_fov(points, values, tol="auto") -> FeasibilityReport:
    """Pick matrix [(I - W_i W_j*) / (1 - lam_i conj(lam_j))]."""
    lams = _check_disk_points(points)
    W = _common_shape(values, "value")
    if len(W) != lams.size:
        raise DimensionError("need one value per point")
    p = W[0].shape[0]
    eye = np.eye(p, dtype=np.complex128)
    N = lams.size
    blocks = [[(eye - W[i] @ W[j].conj().T) / (1.0 - lams[i] * np.conj(lams[j]))
               for j in range(N)] for i in range(N)]
    return make_report(np.block(blocks), "closed_form", 0.0, tol)


def pick_lt(points, directions, targets, tol="auto") -> FeasibilityReport:
    """Pick matrix [(X_i X_j* - Y_i Y_j*) / (1 - lam_i conj(lam_j))]."""
    lams = _check_disk_points(points)
    X = _common_shape(directions, "direction")
    Y = _common_shape(targets, "target")
    N = lams.size
    if not (len(X) == len(Y) == N):
        raise DimensionError("need one direction and one target per point")
    if X[0].shape[0] != Y[0].shape[0]:
        raise DimensionError("directions and targets must share the output space")
    blocks = [[(X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T)
               / (1.0 - lams[i] * np.conj(lams[j]))
               for j in range(N)] for i in range(N)]
    return make_report(np.block(blocks), "closed_form", 0.0, tol)


def pick_rt(points, directions, targets, tol="auto") -> FeasibilityReport:
    """Pick matrix [(U_i* U_j - V_i* V_j) / (1 - conj(lam_i) lam_j)]."""
    lams = _check_disk_points(points)
    U = _common_shape(directions, "direction")
    V = _common_shape(targets, "target")
    N = lams.size
    if not (len(U) == len(V) == N):
        raise DimensionError("need one direction and one target per point")
    if U[0].shape[1] != V[0].shape[1]:
        raise DimensionError("directions and targets must share the input space")
    blocks = [[(U[i].conj().T @ U[j] - V[i].conj().T @ V[j])
               / (1.0 - np.conj(lams[i]) * lams[j])
               for j in range(N)] for i in range(N)]
    return make_report(np.block(blocks), "closed_form", 0.0, tol)


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
    if dataset.basis_dim is not None and dataset.basis_dim == 0:
        raise ArgumentError("basis dimension must be positive")
    if variant == "FRD":
        W = [as_complex_matrix(M) for M in dataset.values]
        kappa = dataset.basis_dim or Z[0].shape[0]
        if kappa != Z[0].shape[0]:
            raise DimensionError("FRD basis dimension must equal dim of the Z space")
        U = [np.eye(kappa, dtype=np.complex128)] * len(Z)
        return expand_rd_to_ltoa(DiskDataset("RTRD", Z, U, W, basis_dim=kappa))
    if variant == "RTRD":
        U = [as_complex_matrix(M) for M in dataset.directions]
        V = [as_complex_matrix(M) for M in dataset.targets]
        kappa = dataset.basis_dim or U[0].shape[1]
        if kappa != U[0].shape[1]:
            raise DimensionError("RTRD basis dimension must equal the U input space")
        cols = _basis_columns(kappa)
        points, xs, ys = [], [], []
        for i in range(len(Z)):
            for e in cols:
                points.append(Z[i])
                xs.append(U[i] @ e)
                ys.append(V[i] @ e)
        return DiskDataset("LTOA", points, xs, ys)
    if variant == "LTRD":
        X = [as_complex_matrix(M) for M in dataset.directions]
        Y = [as_complex_matrix(M) for M in dataset.targets]
        kappa = dataset.basis_dim or X[0].shape[0]
        if kappa != X[0].shape[0]:
            raise DimensionError("LTRD basis dimension must equal the X output space")
        rows = [e.conj().T for e in _basis_columns(kappa)]
        points, us, vs = [], [], []
        for i in range(len(Z)):
            for e in rows:
                points.append(Z[i])
                us.append(e @ X[i])
                vs.append(e @ Y[i])
        return DiskDataset("RTOA", points, us, vs)
    raise ArgumentError(f"variant {dataset.variant!r} has no basis expansion")


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
