"""Agler decompositions on the polydisk as semidefinite feasibility.

On the polydisk there is no single Pick matrix: solvability of
interpolation in the Schur-Agler class asks instead for d positive kernels
K_1..K_d with sum_k (1 - lam_k conj(zeta_k)) K_k = 1 - f conj(f).  That is
a semidefinite feasibility problem; the solver runs a primal-dual
interior-point method (Mehrotra predictor-corrector steps) and returns
either a verifiable certificate or a verifiable Farkas witness of
infeasibility.
"""

import numpy as np

from picklab import agler, matcore

# --- a feasible bidisk problem -------------------------------------------
# f(lam) = lam_1 interpolates the data below; the hand-checkable
# certificate is K_1 = all-ones (the kernel of the function lam_1 itself)
# and K_2 = 0.
problem = agler.scalar_problem([[0.0, 0.0], [0.5, 0.0]], [0.0, 0.5])
report = agler.solve_feasibility(problem, tol=1e-6)
print("status:", report.status, "after", report.iterations - 1, "Newton steps")
print("K_1 ~ ones:", np.round(report.certificate.kernels[0].real, 4).tolist())
print("K_2 ~ zero:", np.round(report.certificate.kernels[1].real, 4).tolist())

# certificates are re-checked independently of the solver
residual, min_eigs = agler.verify_certificate(problem,
                                              report.certificate.kernels)
print("independent re-check: residual %.2e, kernel min eigs %s"
      % (residual, ["%.1e" % e for e in min_eigs]))

# --- a forced-infeasible problem -------------------------------------------
# With both points at the origin the constraint forces K_1 + K_2 to equal
# [[1, 1], [1, 3/4]], whose least eigenvalue is negative -- no sum of PSD
# kernels can achieve it.  Within a few Newton steps the dual iterate is a
# Farkas witness Lam (Lam - T_k* Lam T_k PSD for every k, tr(Lam R) < 0),
# which the solver checks before it reports infeasible_evidence;
# agler.verify_witness re-checks it independently.  The gap estimate is
# -tr(Lam R), a lower bound on how far the data are from decomposable.
problem = agler.scalar_problem([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.5])
forced = np.array([[1.0, 1.0], [1.0, 0.75]])
print("\nforced sum min eig:", matcore.min_eigenvalue(forced))
report = agler.solve_feasibility(problem, tol=1e-6)
print("status:", report.status, "| gap estimate %.4f" % report.gap_estimate)
trace, witness_eigs = agler.verify_witness(problem, report.witness)
print("independent re-check: tr(Lam R) %.4f, min eig of Lam - T_k* Lam T_k %.2e"
      % (trace, min(witness_eigs)))

# --- one variable is just the disk -----------------------------------------
# For d = 1 the affine set pins K_1 to the classical Pick kernel, so the
# solver and the disk criterion always agree.
from picklab import disk

lams = [0.2, -0.4 + 0.3j]
vals = [0.1, -0.2]
pick = disk.pick_fov(lams, [[[v]] for v in vals])
rep1 = agler.solve_feasibility(
    agler.scalar_problem([[l] for l in lams], vals), tol=1e-6)
print("\nd=1: disk verdict %s, solver %s"
      % (pick.feasible, rep1.status))
print("recovered kernel equals the Pick matrix:",
      np.max(np.abs(rep1.certificate.kernels[0] - pick.pick)) < 1e-6)
