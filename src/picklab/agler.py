"""Semidefinite feasibility for Agler decompositions on the polydisk.

The decision is whether the target blocks R(i,j) (1 - f_i conj(f_j) in the
scalar case, X_i X_j* - Y_i Y_j* in the operator-argument case) can be
written as sum_k (K_k(i,j) - T_k^(i) K_k(i,j) T_k^(j)*) with every kernel
K_k positive semidefinite.  The solver runs Dykstra's alternating
projections on the stack of kernels: onto the affine constraint set (the
N^2 block systems and their pseudoinverses held as one array each, applied
batched) and onto the product of PSD cones (batched eigenvalue clipping),
with the Dykstra correction on the cone side so the iterates converge into
the intersection when it is nonempty.  The affine set is never empty, so
infeasibility is a positive gap between the two sets; it is reported only
with a checked Farkas witness, a Hermitian Lam with Lam - T_k* Lam T_k PSD
for every k and tr(Lam R) < 0, read off the affine step's displacement and
shifted by a multiple of the identity into exact dual feasibility.
"""

from __future__ import annotations

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
    witness: Optional[np.ndarray] = None  # Farkas witness of infeasible_evidence


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


def _farkas_witness(T, A, R, resid, step, trace, gain, lift
                    ) -> Optional[np.ndarray]:
    """The checked Farkas witness Lam' of one affine step, or None.

    `step` holds Y - K = A*(Lam), Lam the stack of G resid with
    G = (A A*)^-1, and `trace` is tr(Lam R).  Lam' = Lam + s I with
    s = (max(0, -mu) + 4 n eps ||Lam||) / gain, mu = min eig (Y - K): the
    second term is a rounding-sized slack, so that the check below does not
    hinge on the sign of a rounding error.  Lam' is formed only when
    trace + max(0, -mu) lift < 0, and returned when every
    W_k = Lam' - T_k* Lam' T_k, formed directly from the condition blocks
    T (N, d, m, m), has no negative eigenvalue and tr(Lam' R) < -margin
    (see :func:`solve_feasibility`).
    """
    N, m = T.shape[0], T.shape[-1]
    mu = float(np.linalg.eigvalsh(_stack(step, N, m))[:, 0].min())
    if trace - min(0.0, mu) * lift >= 0:
        return None
    G = np.linalg.inv(A @ A.conj().swapaxes(-1, -2))
    Lam = matcore.hermitize(_stack(np.einsum("ijab,ijb->ija", G, resid), N, m)[0])
    n, eps = R.shape[0], np.finfo(float).eps
    shift = (max(0.0, -mu) + 4 * n * eps * np.linalg.norm(Lam)) / gain
    Lam = Lam + shift * np.eye(n)
    W = Lam - np.stack([matcore.sandwich(Tk, Lam, Tk)
                        for Tk in T.conj().swapaxes(-1, -2).swapaxes(0, 1)])
    norm_lam = float(np.linalg.norm(Lam))
    margin = 4 * n * eps * norm_lam * max(lift, 0.0) \
        + n * n * eps * norm_lam * float(np.linalg.norm(R))
    if (np.linalg.eigvalsh(matcore.hermitize(W))[:, 0].min() >= 0.0
            and float(np.vdot(Lam, R).real) < -margin):
        return Lam
    return None


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
    The first block of A_ij is invertible because every T_k^(i) is a strict
    contraction, so A_ij has full row rank and the affine set is never
    empty.

    feasible_with_certificate: an iterate satisfies both the affine
    constraint and positivity within tol.

    infeasible_evidence: a checked Farkas witness, returned as `witness`: a
    Hermitian Lam' with Lam' - T_k* Lam' T_k PSD for every k and
    tr(Lam' R) < 0.  For any PSD kernels with A(K) = R it would give
    0 > tr(Lam' R) = sum_k tr(K_k (Lam' - T_k* Lam' T_k)) >= 0.  The witness
    comes from the affine step x = y - A_pinv resid: with G = (A A*)^-1,
    A_pinv = A* G, so Y - K = A*(Lam) for Lam the stack of G resid, and
    tr(Lam R) = <A*(Lam), K> = <Y - K, Y> - ||Y - K||^2.  On infeasible
    data Y - K tends to the minimal displacement between the two sets
    (Bauschke-Borwein), which is PSD and orthogonal to Y, so
    tr(Lam R) -> -||Y - K||^2.  Lam is shifted by max(0, -mu) / (1 - rho^2)
    times I, mu the least eigenvalue of Y - K, to make every
    Lam - T_k* Lam T_k PSD (see :func:`_farkas_witness`).  While the gap
    exceeds 10*tol, each iteration screens for a witness without an
    eigenvalue call: the Rayleigh quotient <Y - K, Y> / tr Y bounds mu from
    above, hence the shifted trace from below when tr R >= 0.  Only when
    that bound is negative are mu, G and the shifted Lam formed.

    Rounding margin (n = N m, eps the machine epsilon, norms Frobenius, to
    first order in eps, with n for LAPACK's backward-error constant):
    forming W_k = Lam' - T_k* Lam' T_k, m-term block products with
    ||T_k^(i)|| < 1, and eigvalsh's backward error on ||W_k|| <= 2 ||Lam'||
    each move an eigenvalue of W_k by at most 2 n eps ||Lam'||, so a
    computed least eigenvalue >= 0 leaves the exact one >= -delta,
    delta = 4 n eps ||Lam'||.  Any feasible K has
    sum_k tr K_k <= tr R / (1 - rho^2), rho = max ||T_k^(i)||, since
    tr R = sum_k tr(K_k A*(I)_k).  So feasibility would force
    tr(Lam' R) >= -delta max(tr R, 0) / (1 - rho^2), and the computed trace,
    an n^2-term sum, is within n^2 eps ||Lam'|| ||R|| of the exact one.  A
    witness is accepted only when the computed trace is below minus the sum
    of these two terms.

    unknown otherwise: no witness within max_iter iterations; gap_estimate
    is then the last gap ||x - y||.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ArgumentError(f"tol must be finite and >= 0, got {tol!r}")
    if max_iter < 1:
        raise ArgumentError(f"max_iter must be >= 1, got {max_iter!r}")
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
    gain = 1.0 - float(np.linalg.norm(T, 2, axis=(-2, -1)).max()) ** 2
    lift = float(np.trace(R).real) / gain  # d tr(Lam' R) / d max(0, -mu)
    x = np.einsum("ijab,ijb->ija", A_pinv, r)
    K = _stack(x, N, m)
    corr = np.zeros_like(K)
    history: List[float] = []
    for it in range(1, max_iter + 1):
        shifted = K + corr
        lam, V = np.linalg.eigh(matcore.hermitize(shifted))
        lam = np.clip(lam, 0.0, None)
        Y = (V * lam[:, None, :]) @ V.conj().swapaxes(1, 2)
        corr = shifted - Y
        y = _blocks(Y, N, m)
        resid = np.einsum("ijab,ijb->ija", A, y) - r
        x = y - np.einsum("ijab,ijb->ija", A_pinv, resid)
        K = _stack(x, N, m)
        step = y - x
        gap = float(np.linalg.norm(step))
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
        if gap > 10 * tol:
            # tr(Lam R) = <Y - K, K> = <Y - K, Y> - gap^2, and the Rayleigh
            # quotient <Y - K, Y> / tr Y bounds min eig (Y - K) from above
            inner, tr_Y = float(np.vdot(step, y).real), float(lam.sum())
            trace = inner - gap ** 2
            rayleigh = inner / tr_Y if tr_Y > 0 else 0.0
            if lift < 0 or trace - min(0.0, rayleigh) * lift < 0:
                witness = _farkas_witness(T, A, R, resid, step, trace, gain,
                                          lift)
                if witness is not None:
                    return AglerReport("infeasible_evidence", None,
                                       gap_estimate=gap, iterations=it,
                                       history=history, witness=witness)
    return AglerReport("unknown", None, gap_estimate=gap,
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


def verify_witness(problem: AglerProblem, Lam) -> Tuple[float, List[float]]:
    """Independent re-check of a Farkas witness: tr(Lam R) and, per variable
    k, the least eigenvalue of Lam - T_k* Lam T_k with T_k = blockdiag_i
    T_k^(i) formed densely.  The witness proves infeasibility when the
    trace is negative and every eigenvalue is nonnegative."""
    Lam = matcore.hermitize(Lam)
    N, m = problem.conditions, problem.block_dim
    if Lam.shape != (N * m, N * m):
        raise DimensionError(f"witness has shape {Lam.shape}")
    T = np.array(problem.tuples)
    dense = np.einsum("ij,ikab->kiajb", np.eye(N), T).reshape(-1, N * m, N * m)
    W = Lam - dense.conj().swapaxes(1, 2) @ Lam @ dense
    eigs = np.linalg.eigvalsh(matcore.hermitize(W))[:, 0]
    return float(np.trace(Lam @ constraint_rhs(problem)).real), eigs.tolist()
