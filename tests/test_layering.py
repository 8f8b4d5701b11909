"""Module layering.

reports.fixed_point is the one fixed-point solver, so no other picklab
module calls the Stein doubling or the level recursion.  And the package
keeps only what the system runs: every public function, class and method
has a caller in picklab or in perfbench/, or is documented API named in
README.md.  Test oracles live in tests/reference.py, not in the package.
And the CLI is one request pipeline: one reader parses every JSON input
file and main alone writes stdout.
"""

import ast
from pathlib import Path

import picklab
from picklab import cli

SOLVERS = {"solve_stein", "level_sum"}

SRC = Path(picklab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in picklab or perfbench/ calls, kept because
# users, demos and tests do; each is named in README.md.
DOCUMENTED_API = {
    "agler.verify_witness",
    "cp.LinearMapOnMatrices.from_callable",
    "cp.blockwise_conditional_expectation",
    "cp.build_phi_bar_quiver",
    "cp.condition_compression",
    "oracle.toeplitz_truncation_norm",
    "quiver.constant_multiplier_check",
    "quiver.two_vertex_toeplitz_norm",
    "serialize.sample_from_json",
}


def _solver_callers():
    callers = set()
    for path in SRC.glob("*.py"):
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


def _public_defs():
    """(module, qualified name, node) of every public top-level function and
    class and every public method in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield path.stem, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path.stem, f"{node.name}.{sub.name}", sub


def _uses(path, strings=False):
    """(name, line) of every name and attribute used in a file, and of every
    string constant if asked."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _callerless():
    src_uses = {}  # name -> {(module, line)}
    for path in SRC.glob("*.py"):
        for name, line in _uses(path):
            src_uses.setdefault(name, set()).add((path.stem, line))
    cli_entries = {entry for _, entry, _ in cli._SETTINGS.values()}
    perfbench = {name for path in (ROOT / "perfbench").glob("*.py")
                 for name, _ in _uses(path, strings=True)}
    found = set()
    for module, qualname, node in _public_defs():
        name = qualname.rsplit(".", 1)[-1]
        outside = any(m != module or not node.lineno <= line <= node.end_lineno
                      for m, line in src_uses.get(name, ()))
        if not (outside or name in cli_entries or name in perfbench):
            found.add(f"{module}.{qualname}")
    return found


def test_every_public_name_has_a_caller_or_is_documented():
    assert _callerless() - DOCUMENTED_API == set()


def test_documented_api_is_defined_and_in_readme():
    readme = (ROOT / "README.md").read_text()
    assert DOCUMENTED_API <= {f"{m}.{q}" for m, q, _ in _public_defs()}
    for dotted in DOCUMENTED_API:
        assert f"`{dotted}`" in readme, dotted


def test_cli_reads_input_and_writes_stdout_in_one_place():
    calls = [ast.unparse(node.func)
             for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
             if isinstance(node, ast.Call)]
    # json.load reads the packaged schemas, json.loads every input file
    assert (calls.count("print"), calls.count("json.loads"),
            calls.count("json.load")) == (1, 1, 1)
