"""Module layering: reports.fixed_point is the one fixed-point solver, so no
other picklab module calls the Stein doubling or the level recursion."""

import ast
from pathlib import Path

import picklab

SOLVERS = {"solve_stein", "level_sum"}


def _solver_callers():
    callers = set()
    for path in Path(picklab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in SOLVERS:
                callers.add(path.name)
    return callers


def test_only_reports_calls_the_fixed_point_kernels():
    assert _solver_callers() == {"reports.py"}
