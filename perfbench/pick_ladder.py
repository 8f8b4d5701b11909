"""pick_ladder: in-process Pick-matrix builders over a fixed size ladder.

Every round calls disk.pick_ltoa, disk.pick_frd, ball.pick_nc_ltoa,
quiver.pick_qltoa and the complete-positivity route (cp.build_phi_disk and
cp.build_phi_star_disk, each followed by cp.cp_check) once for every size of
the ladder, from small to large.  Each size has feasible data and a copy with
Y_0 = 1.5 X_0; a round takes one of the two, alternating from size to size
and from round to round, so a round is half feasible and each item is timed
in every other round.  Stein solves, word sums, path sums and the eigenvalue
step dominate; there is no import, schema validation or JSON in the timed
region.
"""

from __future__ import annotations


import numpy as np

import reference as ref
from common import Incorrect, Op, metric
from picklab import ball, cp, disk, matcore, oracle, quiver
from picklab.quiver import Grading, QuiverPoint

# (conditions N, block size n): the disk Pick matrix is N*n square, up to 256.
DISK_LTOA = ((4, 2), (8, 4), (16, 4), (16, 8), (32, 8), (8, 16))
# (N, n): N*n*n square after the basis expansion.
DISK_FRD = ((2, 4), (4, 4), (4, 8))
# (N, letters d), 2 x 2 tuple entries.
BALL_NC = tuple((N, d) for N in (4, 8, 16) for d in (2, 3, 4))
# (N, (dim at vertex a, dim at vertex b)) on the two-vertex quiver.
QUIVER = tuple((N, dims) for N in (2, 4, 6) for dims in ((2, 1), (3, 2)))
# (N, dim of Z) for the CP route.
CP_ROUTE = ((2, 2), (4, 2), (4, 3))

RHO = 0.6       # spectral norm of operator points, row norm of tuples and quiver points
SLACK = 1e-8    # the necessity slack of picklab's own acceptance suite


def _feasible_and_not(items, kind, size, args, spoil):
    """Append the feasible item and its copy with Y_0 = 1.5 X_0."""
    items.append((kind, size, True, args))
    items.append((kind, size, False, spoil(args)))


def _spoil_last(args):
    """Replace the first target of the last argument list by 1.5 x the first direction."""
    *head, X, Y = args
    Y = list(Y)
    Y[0] = 1.5 * X[0] if not isinstance(X[0], dict) else {v: 1.5 * M for v, M in X[0].items()}
    return (*head, X, Y)


def _oa_point(rng, G, dims):
    blocks = {a: ref.cgauss(rng, dims[G.src[a]], dims[G.rng[a]]) for a in G.arrows}
    norm = quiver.disk_membership(G, dims, QuiverPoint("operator_argument", blocks)).worst_row_norm
    return QuiverPoint("operator_argument", {a: M * (RHO / norm) for a, M in blocks.items()})


def prepare(seed, out_dir=None):
    rng = np.random.default_rng([seed, 1])

    def sub_seed():
        return int(rng.integers(2**31))

    items = []
    s_disk = oracle.sample_contractive_poly(2, 2, 3, "disk", sub_seed())
    for N, n in DISK_LTOA:
        T = [ref.scaled(ref.cgauss(rng, n, n), RHO) for _ in range(N)]
        X = [ref.cgauss(rng, n, 2) for _ in range(N)]
        Y = [oracle.eval_ltoa(s_disk, X[i], T[i]) for i in range(N)]
        _feasible_and_not(items, "disk.pick_ltoa", f"N={N} n={n}", (T, X, Y), _spoil_last)

    s_scalar = oracle.sample_contractive_poly(1, 1, 4, "disk", sub_seed())
    for N, n in DISK_FRD:
        Z = [ref.scaled(ref.cgauss(rng, n, n), RHO) for _ in range(N)]
        W = [oracle.eval_tensor(s_scalar, Zi) for Zi in Z]
        spoiled = [1.5 * np.eye(n)] + W[1:]
        items.append(("disk.pick_frd", f"N={N} n={n}", True, (Z, W)))
        items.append(("disk.pick_frd", f"N={N} n={n}", False, (Z, spoiled)))

    for N, d in BALL_NC:
        s_ball = oracle.sample_contractive_poly(2, 2, 2, "ball", sub_seed(), d=d)
        Z = []
        for _ in range(N):
            mats = [ref.cgauss(rng, 2, 2) for _ in range(d)]
            scale = RHO / np.linalg.norm(np.hstack(mats), 2)
            Z.append([M * scale for M in mats])
        X = [ref.cgauss(rng, 2, 2) for _ in range(N)]
        Y = [oracle.eval_ball_ltoa(s_ball, X[i], Z[i]) for i in range(N)]
        _feasible_and_not(items, "ball.pick_nc_ltoa", f"N={N} d={d}", (Z, X, Y), _spoil_last)

    G = quiver.two_vertex_example()[0]
    ones = Grading(G, {"a": 1, "b": 1})
    s_quiver = oracle.sample_contractive_poly(1, 1, 3, "quiver", sub_seed(),
                                              quiver=G, in_dims=ones, out_dims=ones)
    for N, (da, db) in QUIVER:
        dims = Grading(G, {"a": da, "b": db})
        pts = [_oa_point(rng, G, dims) for _ in range(N)]
        X = [{v: ref.cgauss(rng, dims[v], 1) for v in G.vertices} for _ in range(N)]
        Y = []
        for i in range(N):
            full = oracle.eval_quiver_ltoa(s_quiver, X[i], pts[i], dims)
            Y.append({v: full[dims.block_slice(v), k:k + 1] for k, v in enumerate(G.vertices)})
        _feasible_and_not(items, "quiver.pick_qltoa", f"N={N} dims={da},{db}",
                          (G, dims, pts, X, Y), _spoil_last)

    s_cp = oracle.sample_contractive_poly(1, 1, 2, "disk", sub_seed())
    for N, g in CP_ROUTE:
        Z = [ref.scaled(ref.cgauss(rng, g, g), 0.5) for _ in range(N)]
        X = [ref.cgauss(rng, g, g) for _ in range(N)]
        Y = [X[i] @ oracle.eval_tensor(s_cp, Z[i]) for i in range(N)]
        _feasible_and_not(items, "cp", f"N={N} g={g}", (Z, X, Y), _spoil_last)

    # picks: item -> its latest Pick matrix; dims: (round, item) -> Pick dimension
    return {"items": items, "picks": {}, "dims": {}}


_BUILDERS = {
    "disk.pick_ltoa": disk.pick_ltoa,
    "disk.pick_frd": disk.pick_frd,
    "ball.pick_nc_ltoa": ball.pick_nc_ltoa,
    "quiver.pick_qltoa": quiver.pick_qltoa,
}


def _cp_route(tracer, Z, X, Y):
    verdicts = []
    for build in ("build_phi_disk", "build_phi_star_disk"):
        with tracer.span(f"cp.{build}"):
            phi = getattr(cp, build)(Z, X, Y)
        with tracer.span("cp.cp_check"):
            verdicts.append(cp.cp_check(phi))
    return verdicts


def _check_cp(feasible, verdicts):
    a, b = verdicts
    if a.is_cp != b.is_cp:
        raise Incorrect(f"phi says CP={a.is_cp}, phi* says CP={b.is_cp}")
    if feasible and min(a.choi_min_eig, b.choi_min_eig) < -SLACK:
        raise Incorrect(f"oracle data has Choi eigenvalue {min(a.choi_min_eig, b.choi_min_eig)}")
    if not feasible and a.is_cp:
        raise Incorrect("data with Y_0 = 1.5 X_0 reported completely positive")
    return True


def _reference_pick(kind, args):
    if kind == "disk.pick_ltoa":
        return ref.pick_ltoa_series(*args)
    return ref.pick_ltoa_series(*ref.frd_conditions(*args))


def _check_pick(state, key, kind, feasible, args, rep):
    state["picks"][key[1]] = rep.pick
    state["dims"][key] = rep.pick.shape[0]
    if feasible:
        bound = rep.tail_bound + rep.verdict.tolerance_used + SLACK
        if rep.min_eigenvalue < -bound:
            raise Incorrect(f"oracle data has min eigenvalue {rep.min_eigenvalue} < -{bound}")
    elif rep.feasible:
        raise Incorrect("data with Y_0 = 1.5 X_0 reported feasible")
    if kind in ("disk.pick_ltoa", "disk.pick_frd"):
        P, tail = _reference_pick(kind, args)
        err = float(np.max(np.abs(rep.pick - (P + P.conj().T) / 2)))
        if err > tail + 1e-10 * (1 + np.linalg.norm(P)):
            raise Incorrect(f"Pick matrix differs from the series by {err}")
    return True


def ops(state, r, tracer):
    out = []
    for index, (kind, size, feasible, args) in enumerate(state["items"]):
        if index % 2 != (index // 2 + r) % 2:
            continue
        name = f"{kind} {size} {'feasible' if feasible else 'infeasible'}"
        if kind == "cp":
            run = (lambda args=args: _cp_route(tracer, *args))
            check = (lambda res, feasible=feasible: _check_cp(feasible, res))
        else:
            def run(kind=kind, args=args):
                with tracer.span(kind):
                    return _BUILDERS[kind](*args)

            def check(rep, key=(r, index), kind=kind, feasible=feasible, args=args):
                return _check_pick(state, key, kind, feasible, args, rep)
        out.append(Op(name, run, check))
    return out


def layer_metrics(state, tracer):
    m = {f"{name}_ms": metric(tracer.mean_ms(name), "ms")
         for name in ("disk.pick_ltoa", "disk.pick_frd", "ball.pick_nc_ltoa",
                      "quiver.pick_qltoa", "cp.build_phi_disk", "cp.cp_check")}
    # Direct Stein solves on the blocks of the largest disk item.
    T, X, Y = max((args for kind, _, feasible, args in state["items"]
                   if kind == "disk.pick_ltoa" and feasible),
                  key=lambda a: sum(t.shape[0] for t in a[0]))
    for i in range(len(T)):
        for j in range(len(T)):
            M = X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T
            with tracer.span("matcore.solve_stein"):
                matcore.solve_stein(T[i], M, T[j])
    for P in state["picks"].values():
        with tracer.span("matcore.is_psd"):
            matcore.is_psd(P)
    m["matcore.solve_stein_ms"] = metric(tracer.mean_ms("matcore.solve_stein"), "ms")
    m["matcore.is_psd_ms"] = metric(tracer.mean_ms("matcore.is_psd"), "ms")
    m["pick.dim_total"] = metric(sum(n for (r, _), n in state["dims"].items() if r == 0),
                                 "count")
    return m
