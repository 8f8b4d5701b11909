"""agler_bidisk: in-process agler.solve_feasibility on scalar bidisk data.

Each round draws fresh problems from (seed, round): feasible problems with
N = 2, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5, 6, 6 and infeasible ones with N = 2
and N = 3.  The five N = 4 problems put the median inside one cluster of
similar solve times, and the infeasible N = 2 problem holds the 90th
percentile, so neither falls in a gap between clusters.  Feasible
values are products s(z1) t(z2) of disk Schur functions, which are Agler by
Ando's theorem; infeasible values all have modulus 1.5.  Points are spread
around circles of radius 0.3 to 0.6 so that no single problem needs
thousands of iterations, and the infeasible problems stop at the solver's
500-iteration gap window.  Nearly all the time is in the Dykstra loop.
"""

from __future__ import annotations


import numpy as np

import reference as ref
from common import Incorrect, Op, metric
from picklab import agler

FEASIBLE_N = (2, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5, 6, 6)
INFEASIBLE_N = (2, 3)


def _points(rng, N):
    return np.stack([ref.spread_points(rng, N, 0.3, 0.6, stride=1),
                     ref.spread_points(rng, N, 0.3, 0.6, stride=3)], axis=1)


def _schur_factor(rng):
    """0.7 e^(i theta) (z - a) / (1 - conj(a) z) with |a| <= 0.5."""
    a = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    c = 0.7 * np.exp(2j * np.pi * rng.uniform())
    return lambda z: ref.blaschke1(z, a, c)


def problems(seed, r):
    """[(points, values, feasible)] of round r."""
    rng = np.random.default_rng([seed, r, 3])
    out = []
    for N in FEASIBLE_N:
        pts = _points(rng, N)
        s, t = _schur_factor(rng), _schur_factor(rng)
        out.append((pts, s(pts[:, 0]) * t(pts[:, 1]), True))
    for N in INFEASIBLE_N:
        pts = _points(rng, N)
        out.append((pts, 1.5 * np.exp(2j * np.pi * rng.uniform(size=N)), False))
    return out


def prepare(seed, out_dir=None):
    # iterations: (round, problem) -> iteration count; certificates: the
    # latest round's feasible certificates, re-timed by layer_metrics.
    return {"seed": seed, "iterations": {}, "certificates": []}


def _check(state, key, pts, vals, feasible, rep):
    state["iterations"][key] = rep.iterations
    if not feasible:
        if rep.status == "feasible_with_certificate":
            raise Incorrect("data with |f| = 1.5 got an Agler certificate")
        return True
    if rep.status != "feasible_with_certificate":
        raise Incorrect(f"product of Schur functions came out {rep.status}")
    residual, eigs = ref.agler_scalar_check(pts, vals, rep.certificate.kernels)
    if residual > ref.AGLER_CERT_TOL or min(eigs) < -ref.AGLER_CERT_TOL:
        raise Incorrect(f"certificate residual {residual}, kernel eigenvalue {min(eigs)}")
    state["certificates"].append((pts, vals, rep.certificate.kernels))
    del state["certificates"][:-len(FEASIBLE_N)]
    return True


def ops(state, r, tracer):
    out = []
    for i, (pts, vals, feasible) in enumerate(problems(state["seed"], r)):
        problem = agler.scalar_problem(pts, vals)

        def run(problem=problem):
            with tracer.span("agler.solve_feasibility"):
                return agler.solve_feasibility(problem)

        def check(rep, key=(r, i), pts=pts, vals=vals, feasible=feasible):
            return _check(state, key, pts, vals, feasible, rep)

        out.append(Op(f"agler N={len(vals)} {'feasible' if feasible else 'infeasible'}",
                      run, check))
    return out


def layer_metrics(state, tracer):
    for pts, vals, kernels in state["certificates"]:
        problem = agler.scalar_problem(pts, vals)
        with tracer.span("agler.apply_constraint"):
            agler.apply_constraint(kernels, problem)
        with tracer.span("agler.verify_certificate"):
            agler.verify_certificate(problem, kernels)
    solve = tracer.durations_ms("agler.solve_feasibility")
    return {
        "agler.solve_ms": metric(sum(solve) / len(solve), "ms"),
        "agler.iterations": metric(sum(n for (r, _), n in state["iterations"].items()
                                       if r == 0), "count"),
        "agler.ms_per_iteration": metric(sum(solve) / sum(state["iterations"].values()), "ms"),
        "agler.apply_constraint_ms": metric(tracer.mean_ms("agler.apply_constraint"), "ms"),
        "agler.verify_ms": metric(tracer.mean_ms("agler.verify_certificate"), "ms"),
    }
