"""Seeded necessity suites: oracle-generated data must pass every criterion.

Each trial samples a certified Schur-class element, evaluates it on random
admissible data to manufacture interpolation conditions, and builds the
corresponding Pick matrix.  Because the sampled element genuinely solves the
interpolation problem, the criterion's necessity direction forces the Pick
matrix to be PSD up to the reported series tail; the per-trial margin is
min_eigenvalue + tail_bound + slack, which must be nonnegative.  The trial
is the same in every setting, so each setting is one row of one table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ball as ball_mod
from . import disk as disk_mod
from . import matcore, oracle
from . import quiver as quiver_mod
from .errors import ArgumentError
from .quiver import Grading, QuiverPoint

SLACK = 1e-8


@dataclass(frozen=True)
class TrialResult:
    min_eigenvalue: float
    tail_bound: float

    @property
    def margin(self) -> float:
        return self.min_eigenvalue + self.tail_bound + SLACK


@dataclass(frozen=True)
class SuiteResult:
    setting: str
    trials: int
    results: tuple
    seed: int

    @property
    def worst_margin(self) -> float:
        return min(r.margin for r in self.results)

    @property
    def worst_min_eigenvalue(self) -> float:
        return min(r.min_eigenvalue for r in self.results)

    @property
    def passed(self) -> bool:
        return self.worst_margin >= 0.0


# Every trial has two conditions, and its matrices are 2 x 2 where a size is free.
_cg = oracle.complex_gaussian
_G = quiver_mod.two_vertex_example()[0]
_ONES = Grading(_G, {"a": 1, "b": 1})
_DIMS = Grading(_G, {"a": 2, "b": 1})  # point grading of every quiver row


def _contraction(rng, bound=0.7):
    M = _cg(rng, 2, 2)
    return M * (bound * rng.uniform(0.3, 1.0) / matcore.operator_norm(M))


def _disk_points(rng, n, radius=0.8):
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    return r * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def _row_tuple(rng, bound=0.7):
    mats = [_cg(rng, 2, 2) for _ in range(2)]
    s = bound * rng.uniform(0.4, 1.0) / matcore.operator_norm(np.hstack(mats))
    return [M * s for M in mats]


def _commuting_tuple(rng, bound=0.7):
    Q, _ = np.linalg.qr(_cg(rng, 2, 2))
    diags = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    scale = bound * rng.uniform(0.4, 1.0) / np.max(
        np.sqrt(np.sum(np.abs(diags) ** 2, axis=0)))
    return [Q @ np.diag(scale * diags[k]) @ Q.conj().T for k in range(2)]


def _quiver_point(rng, kind):
    """A "tensor" or "operator_argument" point at _DIMS, row norm in [0.28, 0.7]."""
    blocks = {}
    for a in _G.arrows:
        shape = (_DIMS[_G.rng[a]], _DIMS[_G.src[a]])
        blocks[a] = _cg(rng, *(shape if kind == "tensor" else shape[::-1]))
    rep = quiver_mod.disk_membership(_G, _DIMS, QuiverPoint(kind, blocks))
    scale = 0.7 * rng.uniform(0.4, 1.0) / max(rep.worst_row_norm, 1e-12)
    return QuiverPoint(kind, {a: M * scale for a, M in blocks.items()})


def _each(draw):
    """(rng, n) -> n successive draws of `draw(rng)`."""
    return lambda rng, n: [draw(rng) for _ in range(n)]


def _tensor_target(s, X, Z):
    return X @ oracle.eval_quiver_tensor(s, Z, _DIMS)


def _oa_target(s, X, T):
    """eval_quiver_ltoa split into its per-vertex target columns."""
    full = oracle.eval_quiver_ltoa(s, X, T, _DIMS)
    return {v: full[_DIMS.block_slice(v), k:k + 1] for k, v in enumerate(_G.vertices)}


_DISK = {"p": 2, "q": 2, "degree": 3, "kind": "disk"}
_DISK_SCALAR = {"p": 1, "q": 1, "degree": 4, "kind": "disk"}
_BALL = {"p": 2, "q": 2, "degree": 2, "kind": "ball", "d": 2}
_QUIVER = {"p": 1, "q": 1, "degree": 3, "kind": "quiver", "quiver": _G,
           "in_dims": _ONES, "out_dims": _ONES}
_SQUARE = _each(lambda rng: _cg(rng, 2, 2))
_WIDE = _each(lambda rng: _cg(rng, 2, _DIMS.total))
_CONTRACTIONS = _each(_contraction)
_TENSOR_POINTS = _each(lambda rng: _quiver_point(rng, "tensor"))

# setting -> (sample spec, point draw, direction draw or None,
#             target (sample, direction, point) -> value, criterion).
# Targets look the oracle up at call time, so patching oracle.<name> reaches them.
_TRIALS = {
    "disk.fov": (_DISK, _disk_points, None,
                 lambda s, _, lam: oracle.eval_point(s, lam), disk_mod.pick_fov),
    "disk.lt": (_DISK, _disk_points, _SQUARE,
                lambda s, X, lam: X @ oracle.eval_point(s, lam), disk_mod.pick_lt),
    "disk.rt": (_DISK, _disk_points, _SQUARE,
                lambda s, U, lam: oracle.eval_point(s, lam) @ U, disk_mod.pick_rt),
    "disk.ltoa": (_DISK, _CONTRACTIONS, _SQUARE,
                  lambda s, X, T: oracle.eval_ltoa(s, X, T), disk_mod.pick_ltoa),
    "disk.rtoa": (_DISK, _CONTRACTIONS, _SQUARE,
                  lambda s, U, A: oracle.eval_rtoa(s, U, A), disk_mod.pick_rtoa),
    "disk.frd": (_DISK_SCALAR, _CONTRACTIONS, None,
                 lambda s, _, Z: oracle.eval_tensor(s, Z), disk_mod.pick_frd),
    "disk.ltrd": (_DISK_SCALAR, _CONTRACTIONS, _SQUARE,
                  lambda s, X, Z: X @ oracle.eval_tensor(s, Z), disk_mod.pick_ltrd),
    "disk.rtrd": (_DISK_SCALAR, _CONTRACTIONS, _SQUARE,
                  lambda s, U, Z: oracle.eval_tensor(s, Z) @ U, disk_mod.pick_rtrd),
    "ball.nc_ltoa": (_BALL, _each(_row_tuple), _SQUARE,
                     lambda s, X, Z: oracle.eval_ball_ltoa(s, X, Z),
                     ball_mod.pick_nc_ltoa),
    "ball.da_ltoa": (_BALL, _each(_commuting_tuple), _SQUARE,
                     lambda s, X, Z: oracle.eval_ball_ltoa(s, X, Z),
                     ball_mod.pick_da_ltoa),
    "quiver.qltt": (_QUIVER, _TENSOR_POINTS, _WIDE, _tensor_target,
                    functools.partial(quiver_mod.pick_qltt, _G, _DIMS, _ONES)),
    "quiver.qltrd": (_QUIVER, _TENSOR_POINTS, _WIDE, _tensor_target,
                     functools.partial(quiver_mod.pick_qltrd, _G, _DIMS)),
    "quiver.qltoa": (_QUIVER, _each(lambda rng: _quiver_point(rng, "operator_argument")),
                     _each(lambda rng: {v: _cg(rng, _DIMS[v], 1) for v in _G.vertices}),
                     _oa_target,
                     functools.partial(quiver_mod.pick_qltoa, _G, _DIMS)),
}
SETTINGS = tuple(_TRIALS)


def run_trial(setting: str, seed: int) -> TrialResult:
    """Sample from `seed`, draw all points and then all directions from a
    generator seeded alike, evaluate the targets and run the criterion; a
    per-vertex family (quiver.qltt) gives its worst vertex and largest tail."""
    if setting not in _TRIALS:
        raise ArgumentError(f"unknown necessity setting {setting!r}; "
                            f"choose from {', '.join(SETTINGS)}")
    spec, draw_points, draw_directions, target, criterion = _TRIALS[setting]
    rng = np.random.default_rng(seed)
    sample = oracle.sample_contractive_poly(seed=seed, **spec)
    pts = draw_points(rng, 2)
    X = draw_directions(rng, 2) if draw_directions else [None, None]
    Y = [target(sample, x, p) for x, p in zip(X, pts)]
    result = criterion(pts, X, Y) if draw_directions else criterion(pts, Y)
    reps = list(result.values()) if isinstance(result, dict) else [result]
    return TrialResult(min(r.min_eigenvalue for r in reps),
                       max(r.tail_bound for r in reps))


def run_suite(setting: str, trials: int, seed: int) -> SuiteResult:
    if trials < 1 or seed < 0:
        raise ArgumentError(f"need trials >= 1 and seed >= 0, got {trials}, {seed}")
    seeds = np.random.SeedSequence(seed).generate_state(trials)
    results = tuple(run_trial(setting, int(s)) for s in seeds)
    return SuiteResult(setting, trials, results, seed)
