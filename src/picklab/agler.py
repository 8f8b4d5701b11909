"""Semidefinite feasibility for Agler decompositions on the polydisk.

The decision is whether the target blocks R(i,j) (1 - f_i conj(f_j) in the
scalar case, X_i X_j* - Y_i Y_j* in the operator-argument case) can be
written as sum_k (K_k(i,j) - T_k^(i) K_k(i,j) T_k^(j)*) with every kernel
K_k positive semidefinite.  The solver runs Dykstra's alternating
projections on the stack of kernels: onto the affine constraint set (the
N^2 block systems and their pseudoinverses held as one array each, applied
batched) and onto the product of PSD cones (batched eigenvalue clipping),
with the Dykstra correction on the cone side so the iterates converge into
the intersection when it is nonempty.  A stable positive gap between the
two sets is reported as infeasibility evidence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import matcore
from .errors import ArgumentError, BudgetError, DimensionError, DomainError
from .matcore import as_complex_matrix
from .reports import basis_columns, stacked_middle

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
    if not (np.abs(pts) < 1.0).all():
        raise DomainError("points must lie in the open polydisk")
    tuples = [[np.array([[z]]) for z in row] for row in pts]
    X = [np.array([[1.0 + 0.0j]])] * pts.shape[0]
    Y = [np.array([[v]]) for v in vals]
    return AglerProblem(pts.shape[1], tuples, X, Y, variant="scalar_points")


def _arity(tuples) -> int:
    """Variables per condition, the first tuple's length; no tuple may be empty."""
    if not tuples or not all(len(tup) for tup in tuples):
        raise DimensionError("need at least one condition, each with a nonempty tuple")
    return len(tuples[0])


def nc_ltoa_problem(tuples, directions, targets) -> AglerProblem:
    """Operator-argument data on the noncommutative polydisk."""
    return AglerProblem(_arity(tuples), list(tuples), list(directions),
                        list(targets), variant="nc_ltoa")


def nc_rd_problem(tuples, values, basis_dim: Optional[int] = None) -> AglerProblem:
    """Functional-calculus data, expanded over a finite basis.

    Conditions are indexed by (i, i'); the direction is the basis column
    e_i' and the target W_i e_i', so the constraint target blocks become
    e_i' e_j'* - W_i e_i' e_j'* W_j*.
    """
    d = _arity(tuples)
    tuples = [[as_complex_matrix(T) for T in tup] for tup in tuples]
    identities = [np.eye(len(tup[0]), dtype=np.complex128) for tup in tuples]
    ex_tuples, ex_dirs, ex_targets = basis_columns(tuples, identities, values,
                                                   basis_dim)
    return AglerProblem(d, ex_tuples, ex_dirs, ex_targets, variant="nc_rd")


def constraint_rhs(problem: AglerProblem) -> np.ndarray:
    """Hermitian block target [X_i X_j* - Y_i Y_j*]."""
    return matcore.hermitize(
        stacked_middle(problem.tuples, problem.directions, problem.targets)[2])


def apply_constraint(kernels, problem: AglerProblem) -> np.ndarray:
    """sum_k (K_k - T_k K_k T_k*), T_k the stack of condition blocks T_k^(i)."""
    N, m = problem.conditions, problem.block_dim
    kernels = [as_complex_matrix(K) for K in kernels]
    if len(kernels) != problem.d:
        raise DimensionError(f"need {problem.d} kernels")
    for k, K in enumerate(kernels):
        if K.shape != (N * m, N * m):
            raise DimensionError(f"kernel {k} has shape {K.shape}")
    T = np.array(problem.tuples)
    return sum(K - matcore.sandwich(T[:, k], K, T[:, k])
               for k, K in enumerate(kernels))


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


def _blocks(S: np.ndarray, N: int, m: int) -> np.ndarray:
    """A stack (d, N m, N m) as per-(i, j)-block vectors (N, N, d m^2),
    kernel-major and row-major within a block."""
    return S.reshape(-1, N, m, N, m).transpose(1, 3, 0, 2, 4).reshape(N, N, -1)


def _stack(x: np.ndarray, N: int, m: int) -> np.ndarray:
    """Inverse of :func:`_blocks`."""
    return x.reshape(N, N, -1, m, m).transpose(2, 0, 3, 1, 4).reshape(-1, N * m, N * m)


def _certificate(problem, kernels, it) -> AglerCertificate:
    return AglerCertificate(list(matcore.hermitize(kernels)),
                            residual_norm=residual_norm(problem, kernels),
                            iterations=it)


def solve_feasibility(problem: AglerProblem, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      keep_history: bool = False) -> AglerReport:
    """Decide Agler-decomposability by Dykstra-corrected alternating projections.

    The kernels are one stack (d, N m, N m).  Block (i, j) of the constraint
    is A_ij x_ij = r_ij, with x_ij the d kernels' (i, j) blocks as one vector
    and A_ij = [I - T_1^(i) (x) conj(T_1^(j)), ..., I - T_d^(i) (x)
    conj(T_d^(j))]; all N^2 systems and their pseudoinverses are one array
    each, so a step is one batched eigh (PSD projection), two batched
    products (affine projection) and one batched eigvalsh (PSD violation).

    feasible_with_certificate: an iterate satisfies both the affine
    constraint and positivity within tol.  infeasible_evidence: the affine
    least-squares system itself is inconsistent, or the inter-set gap
    (distance between consecutive projected iterates) stabilizes above
    10*tol over a 500-iteration window.  unknown otherwise.
    """
    N, m, d = problem.conditions, problem.block_dim, problem.d
    nvar = d * (N * m) ** 2
    if nvar > VARIABLE_BUDGET:
        raise BudgetError(
            f"variable dimension {nvar} exceeds the dense-operator budget "
            f"{VARIABLE_BUDGET}")
    R = constraint_rhs(problem)
    r = _blocks(R, N, m)
    T = np.array(problem.tuples)
    A = np.tile(np.eye(m * m), d) - np.einsum(
        "ikac,jkbe->ijabkce", T, T.conj()).reshape(N, N, m * m, d * m * m)
    A_pinv = np.linalg.pinv(A, rcond=1e-12)
    scale = max(float(np.linalg.norm(R)), 1.0)
    x = np.einsum("ijab,ijb->ija", A_pinv, r)
    lin_residual = float(np.linalg.norm(
        np.einsum("ijab,ijb->ija", A, x) - r, axis=-1).max())
    if lin_residual > tol * scale:
        return AglerReport("infeasible_evidence", None,
                           gap_estimate=lin_residual, iterations=0)
    K = _stack(x, N, m)
    corr = np.zeros_like(K)
    history: List[float] = []
    gaps: deque = deque(maxlen=_GAP_WINDOW)
    for it in range(1, max_iter + 1):
        shifted = K + corr
        lam, V = np.linalg.eigh(matcore.hermitize(shifted))
        Y = (V * np.clip(lam, 0.0, None)[:, None, :]) @ V.conj().swapaxes(1, 2)
        corr = shifted - Y
        y = _blocks(Y, N, m)
        resid = np.einsum("ijab,ijb->ija", A, y) - r
        x = y - np.einsum("ijab,ijb->ija", A_pinv, resid)
        K = _stack(x, N, m)
        gap = float(np.linalg.norm(x - y))
        gaps.append(gap)
        # combined squared distance at the affine iterate: the affine
        # residual vanishes there, so only the PSD violation remains
        violation = float(np.sqrt(np.sum(
            np.minimum(np.linalg.eigvalsh(matcore.hermitize(K)), 0.0) ** 2)))
        if keep_history:
            history.append(violation)
        if violation <= tol:
            return AglerReport("feasible_with_certificate",
                               _certificate(problem, K, it),
                               gap_estimate=gap, iterations=it, history=history)
        if np.linalg.norm(resid) <= tol:
            return AglerReport("feasible_with_certificate",
                               _certificate(problem, Y, it),
                               gap_estimate=gap, iterations=it, history=history)
        if len(gaps) == _GAP_WINDOW:
            lo, hi = min(gaps), max(gaps)
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
