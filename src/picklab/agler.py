"""Semidefinite feasibility for Agler decompositions on the polydisk.

The decision is whether the target blocks R(i,j) (1 - f_i conj(f_j) in the
scalar case, X_i X_j* - Y_i Y_j* in the operator-argument case) can be
written as sum_k (K_k(i,j) - T_k^(i) K_k(i,j) T_k^(j)*) with every kernel
K_k positive semidefinite.  The solver alternates projections between the
affine constraint set (per-block dense least squares, pseudoinverse factored
once) and the product of PSD cones (eigenvalue clipping), with a Dykstra
correction on the cone side so the iterates converge into the intersection
when it is nonempty.  A stable positive gap between the two sets is reported
as infeasibility evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import matcore
from .errors import ArgumentError, BudgetError, DimensionError, DomainError
from .matcore import as_complex_matrix

VARIABLE_BUDGET = 20000
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10000
_GAP_WINDOW = 500


@dataclass(eq=False)
class AglerProblem:
    """Polydisk interpolation data in operator-argument normal form.

    Each condition carries a d-tuple of strict contractions T^(i) on a
    common block space, a direction X_i and a target Y_i.  Scalar point data
    and basis-expanded functional-calculus data are normalized to this form
    by the constructors below.
    """

    d: int
    tuples: List[List[np.ndarray]]
    directions: List[np.ndarray]
    targets: List[np.ndarray]
    variant: str = "nc_ltoa"

    def __post_init__(self):
        if self.d < 1:
            raise ArgumentError("need at least one variable")
        self.tuples = [[as_complex_matrix(T) for T in tup] for tup in self.tuples]
        self.directions = [as_complex_matrix(X) for X in self.directions]
        self.targets = [as_complex_matrix(Y) for Y in self.targets]
        if not self.tuples:
            raise ArgumentError("need at least one interpolation condition")
        if not (len(self.tuples) == len(self.directions) == len(self.targets)):
            raise DimensionError("tuples, directions and targets must align")
        m = self.tuples[0][0].shape[0]
        for tup in self.tuples:
            if len(tup) != self.d:
                raise DimensionError("every condition needs one operator per variable")
            for T in tup:
                if T.shape != (m, m):
                    raise DimensionError("all tuple entries must share one dimension")
                if matcore.operator_norm(T) >= 1.0:
                    raise DomainError(
                        "tuple entries must be strict contractions per coordinate")
        for M in self.directions + self.targets:
            if M.shape[0] != m:
                raise DimensionError("directions/targets must map into the tuple space")

    @property
    def conditions(self) -> int:
        return len(self.tuples)

    @property
    def block_dim(self) -> int:
        return self.tuples[0][0].shape[0]


def scalar_problem(points, values) -> AglerProblem:
    """Scalar polydisk points lam^(i) with target values f_i."""
    pts = matcore.as_point_rows(points)
    vals = np.asarray(values, dtype=np.complex128).reshape(-1)
    if pts.shape[0] != vals.size:
        raise DimensionError("need one value per point")
    if np.any(np.abs(pts) >= 1.0):
        raise DomainError("points must lie in the open polydisk")
    tuples = [[np.array([[z]]) for z in row] for row in pts]
    X = [np.array([[1.0 + 0.0j]])] * pts.shape[0]
    Y = [np.array([[v]]) for v in vals]
    return AglerProblem(pts.shape[1], tuples, X, Y, variant="scalar_points")


def nc_ltoa_problem(tuples, directions, targets) -> AglerProblem:
    """Operator-argument data on the noncommutative polydisk."""
    return AglerProblem(len(tuples[0]), list(tuples), list(directions),
                        list(targets), variant="nc_ltoa")


def nc_rd_problem(tuples, values, basis_dim: Optional[int] = None) -> AglerProblem:
    """Functional-calculus data, expanded over a finite basis.

    Conditions are indexed by (i, i'); the direction is the basis column
    e_i' and the target W_i e_i', so the constraint target blocks become
    e_i' e_j'* - W_i e_i' e_j'* W_j*.
    """
    tuples = [[as_complex_matrix(T) for T in tup] for tup in tuples]
    values = [as_complex_matrix(W) for W in values]
    dim = tuples[0][0].shape[0]
    kappa = basis_dim or dim
    if kappa != dim:
        raise DimensionError("basis dimension must equal the tuple space dimension")
    eye = np.eye(dim, dtype=np.complex128)
    ex_tuples, ex_dirs, ex_targets = [], [], []
    for tup, W in zip(tuples, values):
        for k in range(kappa):
            ex_tuples.append(tup)
            ex_dirs.append(eye[:, k:k + 1])
            ex_targets.append(W @ eye[:, k:k + 1])
    return AglerProblem(len(tuples[0]), ex_tuples, ex_dirs, ex_targets,
                        variant="nc_rd")


def constraint_rhs(problem: AglerProblem) -> np.ndarray:
    """Hermitian block target [X_i X_j* - Y_i Y_j*]."""
    N, m = problem.conditions, problem.block_dim
    R = np.zeros((N * m, N * m), dtype=np.complex128)
    for i in range(N):
        for j in range(N):
            R[i * m:(i + 1) * m, j * m:(j + 1) * m] = (
                problem.directions[i] @ problem.directions[j].conj().T
                - problem.targets[i] @ problem.targets[j].conj().T)
    return matcore.hermitize(R)


def apply_constraint(kernels, problem: AglerProblem) -> np.ndarray:
    """sum_k (K_k(i,j) - T_k^(i) K_k(i,j) T_k^(j)*), blockwise and linear."""
    N, m = problem.conditions, problem.block_dim
    kernels = [as_complex_matrix(K) for K in kernels]
    if len(kernels) != problem.d:
        raise DimensionError(f"need {problem.d} kernels")
    out = np.zeros((N * m, N * m), dtype=np.complex128)
    for k, K in enumerate(kernels):
        if K.shape != (N * m, N * m):
            raise DimensionError(f"kernel {k} has shape {K.shape}")
        for i in range(N):
            for j in range(N):
                blk = K[i * m:(i + 1) * m, j * m:(j + 1) * m]
                out[i * m:(i + 1) * m, j * m:(j + 1) * m] += (
                    blk - problem.tuples[i][k] @ blk @ problem.tuples[j][k].conj().T)
    return out


@dataclass(eq=False)
class AglerCertificate:
    kernels: List[np.ndarray]
    residual_norm: float
    iterations: int


@dataclass(eq=False)
class AglerReport:
    status: str  # feasible_with_certificate | infeasible_evidence | unknown
    certificate: Optional[AglerCertificate]
    gap_estimate: float
    iterations: int
    history: List[float] = field(default_factory=list)


class _AffineProjector:
    """Per-(i,j)-block orthogonal projector onto {apply_constraint(K) = R}."""

    def __init__(self, problem: AglerProblem):
        N, m, d = problem.conditions, problem.block_dim, problem.d
        self.N, self.m, self.d = N, m, d
        self.ops = {}
        self.pinvs = {}
        eye = np.eye(m * m, dtype=np.complex128)
        for i in range(N):
            for j in range(N):
                cols = [eye - np.kron(problem.tuples[i][k],
                                      problem.tuples[j][k].conj())
                        for k in range(d)]
                A = np.hstack(cols)
                self.ops[i, j] = A
                self.pinvs[i, j] = np.linalg.pinv(A, rcond=1e-12)

    def lstsq_point(self, R: np.ndarray) -> Tuple[List[np.ndarray], float]:
        """Least-squares solution of the linear system and its residual."""
        kernels = [np.zeros((self.N * self.m,) * 2, dtype=np.complex128)
                   for _ in range(self.d)]
        worst = 0.0
        for (i, j), A in self.ops.items():
            r = R[i * self.m:(i + 1) * self.m, j * self.m:(j + 1) * self.m]
            x = self.pinvs[i, j] @ r.reshape(-1)
            worst = max(worst, float(np.linalg.norm(A @ x - r.reshape(-1))))
            for k in range(self.d):
                kernels[k][i * self.m:(i + 1) * self.m,
                           j * self.m:(j + 1) * self.m] = (
                    x[k * self.m * self.m:(k + 1) * self.m * self.m]
                    .reshape(self.m, self.m))
        return kernels, worst

    def project(self, kernels, R) -> List[np.ndarray]:
        out = [K.copy() for K in kernels]
        for (i, j), A in self.ops.items():
            sl_i = slice(i * self.m, (i + 1) * self.m)
            sl_j = slice(j * self.m, (j + 1) * self.m)
            x = np.concatenate([out[k][sl_i, sl_j].reshape(-1)
                                for k in range(self.d)])
            resid = A @ x - R[sl_i, sl_j].reshape(-1)
            x = x - self.pinvs[i, j] @ resid
            for k in range(self.d):
                out[k][sl_i, sl_j] = (
                    x[k * self.m * self.m:(k + 1) * self.m * self.m]
                    .reshape(self.m, self.m))
        return out


def _project_psd(kernels) -> List[np.ndarray]:
    out = []
    for K in kernels:
        H = matcore.hermitize(K)
        lam, V = np.linalg.eigh(H)
        lam = np.clip(lam, 0.0, None)
        out.append((V * lam) @ V.conj().T)
    return out


def _psd_violation(kernels) -> float:
    total = 0.0
    for K in kernels:
        lam = np.linalg.eigvalsh(matcore.hermitize(K))
        total += float(np.sum(np.minimum(lam, 0.0) ** 2))
    return float(np.sqrt(total))


def _stack_norm(As, Bs) -> float:
    return float(np.sqrt(sum(np.linalg.norm(A - B) ** 2 for A, B in zip(As, Bs))))


def solve_feasibility(problem: AglerProblem, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      keep_history: bool = False) -> AglerReport:
    """Decide Agler-decomposability by Dykstra-corrected alternating projections.

    feasible_with_certificate: an iterate satisfies both the affine
    constraint and positivity within tol.  infeasible_evidence: the affine
    least-squares system itself is inconsistent, or the inter-set gap
    (distance between consecutive projected iterates) stabilizes above
    10*tol over a 500-iteration window.  unknown otherwise.
    """
    nvar = problem.d * (problem.conditions * problem.block_dim) ** 2
    if nvar > VARIABLE_BUDGET:
        raise BudgetError(
            f"variable dimension {nvar} exceeds the dense-operator budget "
            f"{VARIABLE_BUDGET}")
    R = constraint_rhs(problem)
    proj = _AffineProjector(problem)
    scale = max(float(np.linalg.norm(R)), 1.0)
    x, lin_residual = proj.lstsq_point(R)
    if lin_residual > tol * scale:
        return AglerReport("infeasible_evidence", None,
                           gap_estimate=float(lin_residual), iterations=0)
    corr = [np.zeros_like(K) for K in x]
    history: List[float] = []
    gaps: List[float] = []
    for it in range(1, max_iter + 1):
        shifted = [K + P for K, P in zip(x, corr)]
        y = _project_psd(shifted)
        corr = [S - Y for S, Y in zip(shifted, y)]
        x = proj.project(y, R)
        gap = _stack_norm(x, y)
        gaps.append(gap)
        if keep_history:
            # combined squared distance at the affine iterate: the affine
            # residual vanishes there, so only the PSD violation remains
            history.append(_psd_violation(x))
        viol_x = _psd_violation(x)
        if viol_x <= tol:
            cert = AglerCertificate([matcore.hermitize(K) for K in x],
                                    residual_norm=residual_norm(problem, x),
                                    iterations=it)
            return AglerReport("feasible_with_certificate", cert,
                               gap_estimate=gap, iterations=it, history=history)
        resid_y = float(np.linalg.norm(apply_constraint(y, problem) - R))
        if resid_y <= tol:
            cert = AglerCertificate([matcore.hermitize(K) for K in y],
                                    residual_norm=resid_y, iterations=it)
            return AglerReport("feasible_with_certificate", cert,
                               gap_estimate=gap, iterations=it, history=history)
        if len(gaps) >= _GAP_WINDOW:
            window = gaps[-_GAP_WINDOW:]
            lo, hi = min(window), max(window)
            if lo > 10 * tol and hi - lo <= max(tol, 1e-3 * lo):
                return AglerReport("infeasible_evidence", None,
                                   gap_estimate=gap, iterations=it,
                                   history=history)
    return AglerReport("unknown", None,
                       gap_estimate=gaps[-1] if gaps else 0.0,
                       iterations=max_iter, history=history)


def residual_norm(problem: AglerProblem, kernels) -> float:
    return float(np.linalg.norm(apply_constraint(kernels, problem)
                                - constraint_rhs(problem)))


def verify_certificate(problem: AglerProblem, kernels
                       ) -> Tuple[float, List[float]]:
    """Independent re-check: constraint residual and per-kernel min eigenvalues."""
    res = residual_norm(problem, kernels)
    eigs = [matcore.min_eigenvalue(K) for K in kernels]
    return res, eigs
