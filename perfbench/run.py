"""Benchmark entry point: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a picklab source checkout: the program is imported
from ./src, and everything the run writes goes under ./.bench_out.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured with tracing off; with --trace 1 they are the
per-layer ones, taken from spans, and the tracing overhead.
"""

import os

# One BLAS thread everywhere, children included: the loop is closed with a
# single client, and on a shared two-core machine a second BLAS thread on
# matrices of at most 256 rows adds noise, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from common import OUT, SRC, NullTracer, Tracer, child_env, dump_json, median, metric, p90  # noqa: E402

WORKLOADS = ("cli_requests", "pick_ladder", "agler_bidisk", "necessity_small")
MIN_OPS = 100       # so that at least ten samples lie above the reported p90
SETUP_PROBES = 7    # fresh interpreters per run; setup_s is their median


def load_program():
    """Import picklab from ./src, or exit non-zero if this is not a checkout."""
    if not os.path.isfile(os.path.join(SRC, "picklab", "__init__.py")):
        sys.exit(f"run.py: no picklab sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import picklab
    if os.path.dirname(os.path.dirname(os.path.abspath(picklab.__file__))) != SRC:
        sys.exit(f"run.py: picklab was imported from {picklab.__file__}, not from {SRC}")


@dataclass
class Measured:
    latencies: list = field(default_factory=list)   # seconds, one per operation
    failed: int = 0
    incorrect: list = field(default_factory=list)
    rounds: int = 0

    @property
    def busy(self):
        return sum(self.latencies)


def run_rounds(wl, state, tracer, seconds=0.0, min_ops=0, rounds=None, between=None):
    """Run whole rounds until `rounds` are done, or until at least `seconds`
    have passed and `min_ops` operations are done.  `between(elapsed)` runs
    after each round, outside the timed operations."""
    m = Measured()
    start = time.perf_counter()
    while True:
        for op in wl.ops(state, m.rounds, tracer):
            tracer.op += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                m.latencies.append(time.perf_counter() - t0)
                m.failed += 1
                traceback.print_exc()
                continue
            m.latencies.append(time.perf_counter() - t0)
            try:
                if not op.check(result):
                    m.failed += 1
            except Exception as exc:   # Incorrect, or a check that could not read the output
                m.incorrect.append(f"{op.name}: {type(exc).__name__}: {exc}")
        m.rounds += 1
        elapsed = time.perf_counter() - start
        if between is not None:
            between(elapsed)
        if rounds is not None:
            if m.rounds >= rounds:
                return m
        elif len(m.latencies) >= min_ops and elapsed >= seconds:
            return m


def setup_probe(workload, seed):
    """Wall time of a fresh interpreter that imports and prepares the workload."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--setup-only"],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def end_to_end(workload, seed, seconds):
    """End-to-end metrics, tracing off.

    The set-up probes are spread over the run, between rounds, so that
    their median covers the same stretch of machine time as the latencies.
    """
    wl = importlib.import_module(workload)
    state = wl.prepare(seed, OUT)
    setup_probe(workload, seed)   # fills the bytecode cache; not counted
    setup = []

    def probes_due(elapsed):
        while len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe(workload, seed))

    m = run_rounds(wl, state, NullTracer(), seconds=seconds, min_ops=MIN_OPS,
                   between=probes_due)
    probes_due(float("inf"))
    rss_kb = (wl.peak_rss_kb(state) if hasattr(wl, "peak_rss_kb")
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "latency_p50_ms": metric(1000 * median(m.latencies), "ms"),
        "latency_p90_ms": metric(1000 * p90(m.latencies), "ms"),
        "throughput_ops_s": metric(len(m.latencies) / m.busy, "1/s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        "setup_s": metric(median(setup), "s"),
    }
    return m, metrics


def patches(wl, tracer):
    """Spans a workload records from inside picklab, by wrapping module functions."""
    return wl.patches(tracer) if hasattr(wl, "patches") else contextlib.nullcontext()


def traced(workload, seed, seconds):
    """Per-layer metrics of every workload, and the tracing overhead of this one.

    The requested workload runs whole rounds untraced for half the time, then
    the same rounds traced; the other workloads run one traced round each, so
    every per-layer metric comes from its home workload's inputs.
    """
    metrics, spans, incorrect = {}, {}, []
    own = None
    for name in WORKLOADS:
        wl = importlib.import_module(name)
        state = wl.prepare(seed, OUT)
        tracer = Tracer()
        if name == workload:
            base = run_rounds(wl, state, NullTracer(), seconds=seconds / 2)
            with patches(wl, tracer):
                m = run_rounds(wl, state, tracer, rounds=base.rounds)
            metrics["trace.overhead_pct"] = metric(100 * (m.busy / base.busy - 1), "%")
            own = Measured(base.latencies + m.latencies, base.failed + m.failed,
                           base.incorrect + m.incorrect, base.rounds + m.rounds)
        else:
            with patches(wl, tracer):
                m = run_rounds(wl, state, tracer, rounds=1)
            incorrect += m.incorrect
        metrics.update(wl.layer_metrics(state, tracer))
        spans[name] = tracer.as_json()
    dump_json(os.path.join(OUT, f"spans-{workload}-{seed}.json"), spans)
    own.incorrect += incorrect
    return own, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and prepare the workload, then exit (set-up probe)")
    args = parser.parse_args(argv)

    load_program()
    if args.setup_only:
        importlib.import_module(args.workload).prepare(args.seed)
        return 0
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        m, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        m, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for line in m.incorrect:
        print(f"incorrect: {line}", file=sys.stderr)
    print(json.dumps({"correct": not m.incorrect, "attempted": len(m.latencies),
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
