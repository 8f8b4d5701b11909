"""Several-arrow level sums stop on their computed tail.

matcore.level_sum stops at the first level K whose block tails
q_ij ||Phi^K(M)_ij||_F are all below series_tol, and reports.fixed_point
turns a tail still above it at the budget's last level into BudgetError.
The tail bound must cover the gap to a deep sweep on every several-arrow
criterion; on acyclic quivers a level is exactly zero, so the sum is
finite and exact at any budget that reaches it.
"""

import numpy as np
import pytest

from picklab import ball, matcore
from picklab import quiver as qv
from picklab.errors import ArgumentError, BudgetError
from picklab.quiver import Grading, Quiver, QuiverPoint
from reference import level_sum_by_arrows, qltoa_by_paths
from test_quiver import cg, oa_point, tensor_point


def row_tuple(rng, n, d, bound):
    mats = [cg(rng, n, n) for _ in range(d)]
    return [M * (bound / np.linalg.norm(np.hstack(mats), 2)) for M in mats]


def test_level_sum_tails_are_block_frobenius_norms():
    # conditions of unequal size; tails are q_ij ||C_K,ij||_F at the last level
    rng = np.random.default_rng(11)
    sizes = [1, 3, 2, 3]
    Ls = [matcore.block_diag([0.4 * cg(rng, k, k) for k in sizes]) for _ in range(2)]
    X = cg(rng, sum(sizes), 2)
    M = X @ X.conj().T
    q = rng.uniform(0.5, 2.0, (4, 4))
    P, tails = matcore.level_sum(Ls, M, sizes, q, 0.0, 3)
    C = M
    for _ in range(3):
        C = sum(L @ C @ L.conj().T for L in Ls)
    edges = np.cumsum([0] + sizes)
    for i in range(4):
        for j in range(4):
            blk = C[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]
            assert abs(tails[i, j] - q[i, j] * np.linalg.norm(blk)) \
                <= 1e-14 * q[i, j] * np.linalg.norm(blk)
    assert np.array_equal(P, level_sum_by_arrows(Ls, M, 3))


def test_level_sum_stops_on_its_tail():
    Ls = [0.5 * np.eye(2), 0.5 * np.eye(2)]
    M = np.eye(2, dtype=complex)
    # C_K = 2^-K I: 1 x 1 blocks and q = 1, so the tail 2^-K <= 1e-3 first at K = 10
    P, tails = matcore.level_sum(Ls, M, [1, 1], np.ones((2, 2)), 1e-3, 50)
    assert tails.max() == 2.0 ** -10
    assert np.array_equal(P, level_sum_by_arrows(Ls, M, 10))
    # the cap binds first: the sum ends at level 4 with its tail
    P, tails = matcore.level_sum(Ls, M, [1, 1], np.ones((2, 2)), 1e-3, 4)
    assert tails.max() == 2.0 ** -4


def test_series_tol_and_budget_out_of_range():
    # Z = (1/2, 1/2) has r^2 = 1/2, so q = 1 and level 0 (M = 1) has tail 1
    args = ([[np.array([[0.5]]), np.array([[0.5]])]], [np.eye(1)], [np.zeros((1, 1))])
    for tol in (-1e-12, float("nan")):
        with pytest.raises(ArgumentError):
            ball.pick_nc_ltoa(*args, series_tol=tol)
    with pytest.raises(BudgetError) as err:
        ball.pick_nc_ltoa(*args, budget=-3)
    assert err.value.achieved_bound == pytest.approx(1.0)


def deep_sweep(monkeypatch, build, levels=400):
    """The criterion's matrix with every level sum run to a fixed deep level
    by the generator sum, whatever its tail."""
    with monkeypatch.context() as m:
        m.setattr(matcore, "level_sum", lambda Ls, M, sizes, *_: (
            level_sum_by_arrows(Ls, M, levels), np.zeros((len(sizes),) * 2)))
        return build()


def nc_ltoa_case(rng, **kw):
    # points of dimensions 1, 3 and 2: condition blocks of unequal size
    Z = [row_tuple(rng, n, 2, 0.9) for n in (1, 3, 2)]
    X = [cg(rng, n, 2) for n in (1, 3, 2)]
    Y = [0.5 * cg(rng, n, 2) for n in (1, 3, 2)]
    return [ball.pick_nc_ltoa(Z, X, Y, **kw)]


def qltoa_case(rng, **kw):
    G, _, _ = qv.two_vertex_example()
    xd = Grading(G, {"a": 2, "b": 1})
    points = [oa_point(rng, G, xd, 0.9) for _ in range(3)]
    X = [{"a": cg(rng, 2, 2), "b": cg(rng, 1, 1)} for _ in range(3)]
    Y = [{"a": 0.5 * cg(rng, 2, 2), "b": 0.5 * cg(rng, 1, 1)} for _ in range(3)]
    return [qv.pick_qltoa(G, xd, points, X, Y, **kw)]


def qltt_case(rng, **kw):
    G, _, _ = qv.two_vertex_example()
    zd, yd = Grading(G, {"a": 2, "b": 1}), Grading(G, {"a": 1, "b": 2})
    points = [tensor_point(rng, G, zd, 0.9) for _ in range(2)]
    width = sum(yd[v] * zd[v] for v in G.vertices)
    X = [cg(rng, 2, width) for _ in points]
    Y = [0.5 * cg(rng, 2, width) for _ in points]
    return list(qv.pick_qltt(G, zd, yd, points, X, Y, **kw).values())


def qltrd_case(rng, **kw):
    G = Quiver(("a", "b"), ("alpha", "beta", "gamma"),
               {"alpha": "a", "beta": "a", "gamma": "b"},
               {"alpha": "a", "beta": "b", "gamma": "a"})
    zd = Grading(G, {"a": 2, "b": 2})
    points = [tensor_point(rng, G, zd, 0.9) for _ in range(2)]
    X = [cg(rng, 2, 4) for _ in points]
    Y = [0.5 * cg(rng, 2, 4) for _ in points]
    return [qv.pick_qltrd(G, zd, points, X, Y, **kw)]


@pytest.mark.parametrize("case", [nc_ltoa_case, qltoa_case, qltt_case, qltrd_case])
def test_tail_bound_certifies_the_gap_to_a_deep_sweep(monkeypatch, case):
    seed = 20 + [nc_ltoa_case, qltoa_case, qltt_case, qltrd_case].index(case)
    reps = case(np.random.default_rng(seed), series_tol=1e-6)
    deep = deep_sweep(monkeypatch, lambda: case(np.random.default_rng(seed)))
    assert len(reps) == len(deep)
    # qltt's vertex b starts no path, so its sum is finite
    assert any(r.method == "truncated_series" and r.tail_bound > 0 for r in reps)
    for rep, ref in zip(reps, deep):
        gap = np.linalg.norm(rep.pick - ref.pick, 2)
        assert gap <= rep.tail_bound + 1e-12


def line_quiver(n):
    vs = tuple(f"v{k}" for k in range(n))
    arrows = tuple(f"e{k}" for k in range(n - 1))
    return Quiver(vs, arrows, {a: vs[k] for k, a in enumerate(arrows)},
                  {a: vs[k + 1] for k, a in enumerate(arrows)})


def parallel_arrows():
    return Quiver(("a", "b"), ("p", "q"), {"p": "a", "q": "a"}, {"p": "b", "q": "b"})


def acyclic_case(G, rng):
    """Operator-argument points at row norm 0.999999 and vertex data."""
    dims = Grading(G, {v: 1 for v in G.vertices} if len(G.vertices) > 2
                   else {"a": 2, "b": 1})
    if len(G.vertices) > 2:
        points = [QuiverPoint("operator_argument",
                              {a: [[0.999999 * np.exp(2j * np.pi * rng.uniform())]]
                               for a in G.arrows}) for _ in range(2)]
    else:
        points = [oa_point(rng, G, dims, 0.999999) for _ in range(2)]
    X = [{v: cg(rng, dims[v], 1) for v in G.vertices} for _ in points]
    Y = [{v: 0.5 * cg(rng, dims[v], 1) for v in G.vertices} for _ in points]
    return dims, points, X, Y


@pytest.mark.parametrize("G, longest", [(line_quiver(4), 3), (parallel_arrows(), 1)],
                         ids=["line", "parallel"])
def test_acyclic_quiver_is_a_finite_sum(G, longest):
    dims, points, X, Y = acyclic_case(G, np.random.default_rng(30 + longest))
    rep = qv.pick_qltoa(G, dims, points, X, Y, budget=200)
    assert (rep.method, rep.tail_bound) == ("closed_form", 0.0)
    expect = qltoa_by_paths(G, dims, points, X, Y, longest)
    assert np.max(np.abs(rep.pick - expect)) <= 1e-12
    # the functional-calculus and tensor criteria end on a zero level as well
    rng = np.random.default_rng(40 + longest)
    tensor = [tensor_point(rng, G, dims, 0.999999) for _ in range(2)]
    Xt = [cg(rng, 1, dims.total) for _ in tensor]
    for r in [qv.pick_qltrd(G, dims, tensor, Xt, [0.5 * x for x in Xt], budget=200),
              *qv.pick_qltt(G, dims, Grading(G, {v: 1 for v in G.vertices}), tensor,
                            Xt, [0.5 * x for x in Xt], budget=200).values()]:
        assert (r.method, r.tail_bound) == ("closed_form", 0.0)


def test_cycle_still_raises_when_the_cap_binds():
    # the loop alpha at a decays by 0.99^2 a level: 100 levels leave it far
    # above series_tol, while a larger budget reaches it
    G, _, _ = qv.two_vertex_example()
    dims = Grading(G, {"a": 1, "b": 1})
    points = [QuiverPoint("operator_argument",
                          {"alpha": [[0.99 * u]], "beta": [[0.01]]}) for u in (1, 1j)]
    X = [{"a": [[1.0]], "b": [[1.0]]}] * 2
    Y = [{"a": [[0.5]], "b": [[0.5]]}] * 2
    with pytest.raises(BudgetError) as err:
        qv.pick_qltoa(G, dims, points, X, Y, budget=200)
    assert err.value.achieved_bound > 1e-12
    rep = qv.pick_qltoa(G, dims, points, X, Y, budget=10**4)
    assert rep.method == "truncated_series" and rep.tail_bound <= 2e-12


def test_qltrd_tail_carries_the_trace_norm_factor(monkeypatch):
    # arrows beta_k: a -> b with Z = r e_k and gamma_k: b -> a with
    # Z = (r / sqrt(m)) e_k*: on the adjoint side a level r^4 I at b goes to
    # r^2 m at a, so its trace, not its Frobenius norm, sets the next level;
    # without the sqrt(dim Z) factor the tail would undercount it 2.2 times
    m, r = 16, 0.9
    src = {**{f"b{k}": "a" for k in range(m)}, **{f"g{k}": "b" for k in range(m)}}
    G = Quiver(("a", "b"), tuple(src), src, {a: "b" if s == "a" else "a"
                                             for a, s in src.items()})
    zd = Grading(G, {"a": 1, "b": m})
    e = np.eye(m)
    pt = QuiverPoint("tensor", {
        **{f"b{k}": r * e[:, k:k + 1] for k in range(m)},
        **{f"g{k}": r / np.sqrt(m) * e[k:k + 1] for k in range(m)}})
    X = [np.r_[0.0, np.ones(m)][None] / np.sqrt(m)]
    deep = deep_sweep(monkeypatch, lambda: qv.pick_qltrd(G, zd, [pt], X, [0.5 * X[0]]),
                      levels=600)
    for tol in (1e-3, 1e-6):
        rep = qv.pick_qltrd(G, zd, [pt], X, [0.5 * X[0]], series_tol=tol)
        gap = np.linalg.norm(rep.pick - deep.pick, 2)
        assert np.sqrt(m + 1) * gap > 2 * rep.tail_bound
        assert gap <= rep.tail_bound + 1e-12
