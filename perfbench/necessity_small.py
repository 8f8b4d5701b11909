"""necessity_small: seeded necessity trials plus a fixed extremal slice.

Each round runs necessity.run_trial for all 13 settings at 2 x 2 sizes,
ten trials each with fresh trial seeds drawn from (seed, round), then
disk.pick_fov on the extremal slice.  With 130 trials and 30 extremal
draws a round, the median and the 90th percentile both fall inside the
broad band of the ten disk and quiver settings whose trials take 6 to 11
ms, not in the gap below it.  About half of a trial's time goes to oracle
sampling and certification; the rest is the fixed per-call overhead of the
Pick-matrix kernels.

The extremal slice holds the same 30 draws in every run, whatever the seed:
a degree-1 Blaschke product with |c| = 1, evaluated in closed form at six
nodes with |lambda| < 0.97.  Its Pick matrix is rank one and PSD, so every
"infeasible" verdict on it is wrong and counts as a failed operation.  The
program's auto tolerance dim * eps * ||H|| ignores the rounding in
(1 - w_i conj(w_j)) / (1 - lambda_i conj(lambda_j)), so a few of these
draws come out infeasible; the count is fixed because the draws are.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from common import Incorrect, Op, metric
from picklab import disk, necessity, oracle

TRIALS_PER_SETTING = 10
EXTREMAL_DRAWS = 30
EXTREMAL_SEED = 0
EVALS = ("eval_point", "eval_ltoa", "eval_rtoa", "eval_tensor", "eval_ball_ltoa",
         "eval_quiver_tensor", "eval_quiver_ltoa")


def extremal_slice():
    rng = np.random.default_rng(EXTREMAL_SEED)
    out = []
    for _ in range(EXTREMAL_DRAWS):
        a = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        c = np.exp(2j * np.pi * rng.uniform())
        lams = 0.97 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))
        out.append((lams, [np.array([[w]]) for w in ref.blaschke1(lams, a, c)]))
    return out


def prepare(seed, out_dir=None):
    return {"seed": seed, "extremal": extremal_slice()}


def _check_trial(setting, res):
    margin = res.min_eigenvalue + res.tail_bound + necessity.SLACK
    if margin < 0:
        raise Incorrect(f"{setting}: necessity margin {margin} < 0")
    return True


def ops(state, r, tracer):
    seeds = np.random.SeedSequence([state["seed"], r, 4]).generate_state(
        len(necessity.SETTINGS) * TRIALS_PER_SETTING)
    out = []
    for k, trial_seed in enumerate(seeds):
        setting = necessity.SETTINGS[k % len(necessity.SETTINGS)]

        def run(setting=setting, trial_seed=int(trial_seed)):
            with tracer.span("necessity.run_trial"):
                return necessity.run_trial(setting, trial_seed)

        out.append(Op(f"necessity {setting}", run,
                      lambda res, setting=setting: _check_trial(setting, res)))
    for lams, values in state["extremal"]:
        def run(lams=lams, values=values):
            with tracer.span("disk.pick_fov"):
                return disk.pick_fov(lams, values)

        out.append(Op("disk.pick_fov extremal", run, lambda rep: rep.feasible))
    return out


def patches(tracer):
    return tracer.patched(oracle, ("sample_contractive_poly", "disk_sup_norm_bound") + EVALS,
                          "oracle")


def layer_metrics(state, tracer):
    return {
        "oracle.sample_ms": metric(tracer.mean_ms("oracle.sample_contractive_poly"), "ms"),
        "oracle.sup_norm_ms": metric(tracer.mean_ms("oracle.disk_sup_norm_bound"), "ms"),
        "oracle.eval_ms": metric(tracer.mean_ms(*(f"oracle.{e}" for e in EVALS)), "ms"),
        "necessity.trial_ms": metric(tracer.mean_ms("necessity.run_trial"), "ms"),
        "disk.pick_fov_ms": metric(tracer.mean_ms("disk.pick_fov"), "ms"),
    }
