"""Semidefinite feasibility for Agler decompositions on the polydisk.

The decision is whether the target blocks R(i,j) (1 - f_i conj(f_j) in the
scalar case, X_i X_j* - Y_i Y_j* in the operator-argument case) can be
written as sum_k (K_k(i,j) - T_k^(i) K_k(i,j) T_k^(j)*) with every kernel
K_k positive semidefinite.  The solver is a primal-dual interior-point
method on the phase-1 SDP `max t` with every K_k - t I PSD.  Its dual
iterate is the Farkas witness of infeasibility, a Hermitian Lam with
Lam - T_k* Lam T_k PSD for every k and tr(Lam R) < 0, reported only once
checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import matcore
from .errors import ArgumentError, BudgetError, DimensionError, DomainError
from .matcore import as_complex_matrix
from .reports import basis_columns, stacked_middle

SCHUR_BUDGET = 2 ** 19  # entries: the start's block systems, the Schur complement
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10000
_STEP_FRACTION = 0.98  # of the way to the cone boundary, per Newton step


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
        if not m:
            raise DimensionError("tuple entries must be at least 1 x 1")
        for tup in self.tuples:
            if len(tup) != self.d:
                raise DimensionError("every condition needs one operator per variable")
            if any(T.shape != (m, m) for T in tup):
                raise DimensionError("all tuple entries must share one dimension")
        if (np.linalg.norm(np.array(self.tuples), 2, axis=(-2, -1)) >= 1.0).any():
            raise DomainError("tuple entries must be strict contractions per coordinate")
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
    return AglerProblem(pts.shape[1], tuples, X, Y)


def _arity(tuples) -> int:
    """Variables per condition, the first tuple's length; no tuple may be empty."""
    if not tuples or not all(len(tup) for tup in tuples):
        raise DimensionError("need at least one condition, each with a nonempty tuple")
    return len(tuples[0])


def nc_ltoa_problem(tuples, directions, targets) -> AglerProblem:
    """Operator-argument data on the noncommutative polydisk."""
    return AglerProblem(_arity(tuples), list(tuples), list(directions),
                        list(targets))


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
    return AglerProblem(d, ex_tuples, ex_dirs, ex_targets)


def constraint_rhs(problem: AglerProblem) -> np.ndarray:
    """Hermitian block target [X_i X_j* - Y_i Y_j*]."""
    return matcore.hermitize(
        stacked_middle(problem.tuples, problem.directions, problem.targets))


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
    witness: Optional[np.ndarray] = None  # Farkas witness of infeasible_evidence


def _block_diagonals(T: np.ndarray) -> np.ndarray:
    """The condition blocks T (N, d, m, m) as d dense blockdiag_i T_k^(i)."""
    N, d, m = T.shape[:3]
    return np.einsum("ij,ikab->kiajb", np.eye(N), T).reshape(d, N * m, N * m)


def _equal_kernels(T: np.ndarray, R: np.ndarray) -> np.ndarray:
    """K solving sum_k (K_ij - T_k^(i) K_ij T_k^(j)*) = R_ij for every block,
    batched; d I - sum_k T_k^(i) (x) conj(T_k^(j)) is invertible because
    every T_k^(i) is a strict contraction."""
    N, d, m = T.shape[:3]
    E = np.einsum("ikac,jkbe->ijabce", T, T.conj()).reshape(N, N, m * m, m * m)
    r = R.reshape(N, m, N, m).transpose(0, 2, 1, 3).reshape(N, N, m * m, 1)
    x = np.linalg.solve(d * np.eye(m * m) - E, r)
    return matcore.hermitize(
        x.reshape(N, N, m, m).transpose(0, 2, 1, 3).reshape(N * m, N * m))


def _is_witness(Z: np.ndarray, Lam: np.ndarray, R: np.ndarray, rho: float) -> bool:
    """Whether Lam passes the witness check of :func:`solve_feasibility`:
    every Z_k = Lam - T_k* Lam T_k of the iterate has no negative
    eigenvalue and tr(Lam R) < -margin; rho = max ||T_k^(i)||."""
    n, eps = R.shape[0], np.finfo(float).eps
    lift = max(float(np.trace(R).real), 0.0) / (1.0 - rho ** 2)
    norm_lam = float(np.linalg.norm(Lam))
    margin = 4 * n * eps * norm_lam * lift \
        + n * n * eps * norm_lam * float(np.linalg.norm(R))
    return bool(np.linalg.eigvalsh(matcore.hermitize(Z))[:, 0].min() >= 0.0
                and np.vdot(Lam, R).real < -margin)


def solve_feasibility(problem: AglerProblem, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      keep_history: bool = False) -> AglerReport:
    """Decide Agler-decomposability with a primal-dual interior-point method.

    With A(K) = sum_k (K_k - T_k K_k T_k*), T_k = blockdiag_i T_k^(i), this
    is Mehrotra's predictor-corrector method with the HKM direction on the
    phase-1 SDP  max t  s.t.  A(S) + t A(I) = R, S_k PSD, K_k = S_k + t I.
    Its dual is  min tr(Lam R)  s.t.  Z_k = Lam - T_k* Lam T_k PSD and
    tr(Lam A(I)) = 1.  The data are decomposable exactly when t* >= 0, and
    t <= t* <= tr(Lam R) at every feasible pair.  Both sides start strictly
    feasible: every K_k the equal-kernel solution of the block systems, t
    its least eigenvalue minus its spectral norm, and Lam = I / tr A(I),
    whose Z_k = (I - T_k* T_k) / tr A(I) are positive definite.  A Newton
    step solves the dense (N m)^2-square Schur complement
    sum_k A_k (S_k (x) conj(Z_k^-1)) A_k* (four Kronecker terms per k),
    averaged with its conjugate under X -> X*, for the predictor and for
    the corrector.  The primal residual R - A(K) is carried in the
    right-hand side, so that rounding and short steps do not leave it
    behind.  `iterations` counts iterates, the start being the first;
    `history` holds the duality gap tr(Lam R) - t of each.  BudgetError:
    the start's arrays, or the Schur complement once a step is due, exceed
    SCHUR_BUDGET entries.

    feasible_with_certificate: the kernels K_k = S_k + t I have PSD
    violation (the 2-norm of their negative eigenvalues) <= tol and residual
    ||R - A(K)|| <= max(tol, n eps (||R|| + 2 ||K||)), the rounding level of
    forming it (n = N m, eps the machine epsilon, norms Frobenius);
    gap_estimate is the duality gap.

    infeasible_evidence: the dual iterate Lam, returned as `witness` once
    checked: Lam Hermitian, every Lam - T_k* Lam T_k PSD, tr(Lam R) < 0.
    For PSD kernels with A(K) = R it would give
    0 > tr(Lam R) = sum_k tr(K_k (Lam - T_k* Lam T_k)) >= 0.  gap_estimate
    is -tr(Lam R), a lower bound on -t*.  Rounding margin (first order in
    eps, with n for LAPACK's backward-error constant): forming the iterate's
    Z_k = Lam - T_k* Lam T_k by dense n-square products with the block
    diagonal T_k, in which a zero term adds exactly, so that each entry is
    still a sum of m nonzero products with ||T_k^(i)|| < 1, and eigvalsh's
    backward error on ||Z_k|| <= 2 ||Lam||, each move an eigenvalue of Z_k
    by at most 2 n eps ||Lam||, so a computed least eigenvalue >= 0 leaves
    the exact one >= -delta, delta = 4 n eps ||Lam||.  Any feasible K has
    sum_k tr K_k <= tr R / (1 - rho^2), rho = max ||T_k^(i)||, since
    tr R = sum_k tr(K_k (I - T_k* T_k)); so feasibility would force
    tr(Lam R) >= -delta max(tr R, 0) / (1 - rho^2).  The computed trace, an
    n^2-term sum, is within n^2 eps ||Lam|| ||R|| of the exact one.  The
    witness is accepted only when the computed trace is below minus the sum
    of these two terms.

    unknown otherwise: max_iter iterates gave neither, the duality gap fell
    to n^2 eps ||Lam|| ||R||, the rounding level of tr(Lam R), or rounding
    left no step (tol = 0 on extremal data); gap_estimate is the last gap.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ArgumentError(f"tol must be finite and >= 0, got {tol!r}")
    if max_iter < 1:
        raise ArgumentError(f"max_iter must be >= 1, got {max_iter!r}")
    N, m, d = problem.conditions, problem.block_dim, problem.d
    n, eps = N * m, np.finfo(float).eps
    if max(N * N * m ** 4, d * n * n) > SCHUR_BUDGET:
        raise BudgetError("the start's block systems or kernels have more "
                          f"entries than the budget {SCHUR_BUDGET}")
    R = constraint_rhs(problem)
    T = np.array(problem.tuples)
    Td = _block_diagonals(T)
    TdH = Td.conj().swapaxes(-1, -2)
    rho = None  # max ||T_k^(i)||, once per solve, when a witness is first checked

    def op(S):  # A on a stack (d, n, n)
        return (S - Td @ S @ TdH).sum(axis=0)

    def adj(Lam):  # A*, a stack (d, n, n)
        return Lam - TdH @ Lam @ Td

    I = np.eye(n)
    B = op(np.broadcast_to(I, (d, n, n)))
    K0 = _equal_kernels(T, R)
    ev = np.linalg.eigvalsh(K0)
    t = float(ev[0] - (np.abs(ev).max() or 1.0))
    S = np.repeat((K0 - t * I)[None], d, axis=0)
    Lam = I / np.trace(B).real
    history: List[float] = []
    for it in range(1, max_iter + 1):
        K, Z = S + t * I, adj(Lam)
        dual = float(np.vdot(Lam, R).real)
        gap = float(dual - t)
        if keep_history:
            history.append(gap)
        violation = float(np.linalg.norm(np.minimum(np.linalg.eigvalsh(K), 0.0)))
        residual = float(np.linalg.norm(R - op(K)))
        floor = n * eps * (np.linalg.norm(R) + 2 * np.linalg.norm(K))
        if violation <= tol and residual <= max(tol, floor):
            return AglerReport("feasible_with_certificate", AglerCertificate(
                list(K), residual, it), gap, it, history)
        if dual < 0:
            if rho is None:
                rho = float(np.linalg.norm(T, 2, axis=(-2, -1)).max())
            if _is_witness(Z, Lam, R, rho):
                return AglerReport("infeasible_evidence", None, -dual, it, history, Lam)
        if it == max_iter or gap <= n * n * eps * np.linalg.norm(Lam) \
                * np.linalg.norm(R):
            break
        if n ** 4 > SCHUR_BUDGET:
            raise BudgetError(f"the dense Schur complement, (N m)^2 = {n * n} square,"
                              f" has more entries than the budget {SCHUR_BUDGET}")
        w, V = np.linalg.eigh(np.concatenate([S, Z]))
        if w[:, 0].min() <= 0:
            break  # rounding has pushed an iterate out of its cone
        root = (V / np.sqrt(w)[:, None, :]) @ V.conj().swapaxes(-1, -2)
        Zi = root[d:] @ root[d:]
        TS, TZi = Td @ S, Td @ Zi
        P = np.stack([S, -TS, -S @ TdH, TS @ TdH]).reshape(4 * d, n * n)
        Q = np.stack([Zi, TZi, Zi @ TdH, TZi @ TdH]).conj().reshape(4 * d, n * n)
        M = (P.T @ Q).reshape(n, n, n, n).transpose(0, 2, 1, 3)
        M = ((M + M.conj().transpose(1, 0, 3, 2)) / 2).reshape(n * n, n * n)
        mu = float(np.vdot(S, Z).real) / (d * n)

        def direction(G):  # A(dS) + dt A(I) = R - A(K), tr((Lam + dLam) B) = 1
            u, v = np.linalg.solve(M, np.stack([G.ravel(), B.ravel()], 1)).T
            dt = (1 - np.vdot(B, Lam + u.reshape(n, n)).real) / np.vdot(B, v).real
            dLam = matcore.hermitize((u + dt * v).reshape(n, n))
            return dt, dLam, adj(dLam)

        def steps(dS, dZ):  # primal and dual, at most 1, short of the boundary
            low = np.linalg.eigvalsh(matcore.hermitize(
                root @ np.concatenate([dS, dZ]) @ root))[:, 0]
            alpha = _STEP_FRACTION / np.maximum(-low, _STEP_FRACTION)
            return alpha[:d].min(), alpha[d:].min()

        try:
            dt, dLam, dZ = direction(t * B - R)
            dS = matcore.hermitize(-S - S @ dZ @ Zi)
            ap, ad = steps(dS, dZ)
            sigma = (np.vdot(S + ap * dS, Z + ad * dZ).real / (d * n * mu)) ** 3
            C = matcore.hermitize(dS @ dZ @ Zi)
            dt, dLam, dZ = direction(op(sigma * mu * Zi - C) + t * B - R)
        except np.linalg.LinAlgError:
            break  # the Schur complement is singular to working precision
        dS = matcore.hermitize(sigma * mu * Zi - S - C - S @ dZ @ Zi)
        ap, ad = steps(dS, dZ)
        S, t, Lam = S + ap * dS, t + ap * dt, Lam + ad * dLam
    return AglerReport("unknown", None, gap, it, history)


def residual_norm(problem: AglerProblem, kernels) -> float:
    return float(np.linalg.norm(apply_constraint(kernels, problem)
                                - constraint_rhs(problem)))


def verify_certificate(problem: AglerProblem, kernels
                       ) -> Tuple[float, List[float]]:
    """Independent re-check: constraint residual and per-kernel min eigenvalues."""
    res = residual_norm(problem, kernels)
    eigs = [matcore.min_eigenvalue(K) for K in kernels]
    return res, eigs


def verify_witness(problem: AglerProblem, Lam) -> Tuple[float, List[float]]:
    """Independent re-check of a Farkas witness: tr(Lam R) and, per variable
    k, the least eigenvalue of Lam - T_k* Lam T_k with T_k = blockdiag_i
    T_k^(i) formed densely.  The witness proves infeasibility when the
    trace is negative and every eigenvalue is nonnegative."""
    Lam = matcore.hermitize(Lam)
    N, m = problem.conditions, problem.block_dim
    if Lam.shape != (N * m, N * m):
        raise DimensionError(f"witness has shape {Lam.shape}")
    dense = _block_diagonals(np.array(problem.tuples))
    W = Lam - dense.conj().swapaxes(1, 2) @ Lam @ dense
    eigs = np.linalg.eigvalsh(matcore.hermitize(W))[:, 0]
    return float(np.trace(Lam @ constraint_rhs(problem)).real), eigs.tolist()
