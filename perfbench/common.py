"""Pieces shared by the workloads: operations, checks, spans and statistics."""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable


ROOT = os.getcwd()   # the benchmark runs from the root of a source checkout
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def child_env():
    """Environment of every interpreter the benchmark starts.

    picklab comes from ./src, and bytecode is cached under .bench_out, as an
    installed package's would be, whatever the caller's bytecode settings.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Incorrect(Exception):
    """An output contradicts an independent computation or a required property."""


@dataclass
class Op:
    """One timed operation of a round.

    run    does the work and returns its result; only this call is timed.
    check  inspects the result outside the timed region.  It returns False
           for a wrong verdict on the known-fault slice (counted as a failed
           operation) and raises Incorrect for any other wrong output.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a null context."""

    op = 0

    def span(self, name):
        return _NULL


class Tracer:
    """Spans kept in memory as (op, id, parent, name, start_ns, end_ns).

    Spans of one operation share its op number; nesting gives the parent.
    """

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, name, t0, t1)

    @contextlib.contextmanager
    def patched(self, module, names, prefix):
        """Record a span around every call of module.<name>, from any caller."""
        originals = {n: getattr(module, n) for n in names}

        def wrap(label, fn):
            def traced(*args, **kwargs):
                with self.span(label):
                    return fn(*args, **kwargs)
            return traced

        for n, fn in originals.items():
            setattr(module, n, wrap(f"{prefix}.{n}", fn))
        try:
            yield
        finally:
            for n, fn in originals.items():
                setattr(module, n, fn)

    def durations_ms(self, *names):
        return [(s[5] - s[4]) / 1e6 for s in self.spans if s[3] in names]

    def mean_ms(self, *names):
        d = self.durations_ms(*names)
        if not d:
            raise RuntimeError(f"no spans named {names}")
        return sum(d) / len(d)

    def as_json(self):
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns")
        return [dict(zip(keys, s)) for s in self.spans]


def p90(values):
    """Nearest-rank 90th percentile: with n samples, n - ceil(0.9 n) lie above."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def median(values):
    return statistics.median(values)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def dump_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
