"""Interpolating at matrix arguments: s(Z) = W.

A scalar Schur function evaluated on a strict contraction Z through its
power series poses a different problem from point interpolation: the data
lives in matrix space.  The criterion expands everything over a basis of
that space, turning one matrix condition into kappa tangential conditions
with operator argument.  A right-half-plane variant does the same for the
Nevanlinna class via Lyapunov equations.
"""

import numpy as np

from picklab import disk, matcore, oracle, reports

rng = np.random.default_rng(7)

# --- build honestly solvable data ----------------------------------------
# Sample a genuine Blaschke product b and a strict contraction Z; then
# W := b(Z) is interpolated by construction and the criterion must accept.
b = oracle.sample_blaschke(2, seed=13)
Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
Z *= 0.5 / matcore.operator_norm(Z)
W = oracle.eval_tensor(b, Z)  # b(Z) through the power series
report = disk.pick_frd([Z], [W])
print("W = b(Z) data: min eig %.3g (tail %.1e) -> feasible: %s"
      % (report.min_eigenvalue, report.tail_bound, report.feasible))

# Perturbing W outside the reachable set flips the verdict.
report_bad = disk.pick_frd([Z], [W + 0.8 * np.eye(2)])
print("perturbed W   : min eig %.3g -> feasible: %s"
      % (report_bad.min_eigenvalue, report_bad.feasible))

# --- the basis expansion, made explicit ----------------------------------
# FRD is RTRD with U = I: condition k carries Z, e_k and W e_k.
points, directions, targets = reports.basis_columns([Z], [np.eye(2)], [W])
print("one matrix condition became", len(points),
      "tangential conditions (kappa = dim Z)")
pipeline = disk.pick_ltoa(points, directions, targets)
print("expansion reproduces the criterion exactly:",
      np.array_equal(pipeline.pick, report.pick))

# --- Nevanlinna class on the right half-plane -----------------------------
# For f holomorphic with nonnegative real part, f(Z) = W is decided by a
# Lyapunov equation per basis pair: P Z* + Z P = e_i e_j* W* + W e_i e_j*.
print("\nRight half-plane (Nevanlinna class):")
print("  z=1, w=+1 ->", disk.nevanlinna_rd_check([[1.0]], [[1.0]]).feasible,
      " (f(lam) = lam works)")
print("  z=1, w=-1 ->", disk.nevanlinna_rd_check([[1.0]], [[-1.0]]).feasible,
      "(negative real part is unreachable)")
Zr = np.array([[2.0, 1.0], [0.0, 1.5]])
Wr = 2.0 * Zr + np.eye(2)  # f(lam) = 2 lam + 1 maps RHP into RHP
print("  f(Z) for f(lam) = 2 lam + 1 ->",
      disk.nevanlinna_rd_check(Zr, Wr).feasible)
