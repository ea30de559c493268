"""Mutation check: every small fault planted in a listed function must fail its tests.

For each (module, function, test files) in `TARGETS`, every mutation site of
the function is changed one at a time in a temporary copy of `src/` and
`tests/`, and the test files run with `pytest -x`.  A mutant is killed when
they fail (or run past the time limit).  A mutant that survives must be
listed in `EQUIVALENT` with the reason it cannot change a result; any other
survivor fails the check, and so does a listed mutant that is killed or no
longer made, so the list stays true.  The checkout itself is never written.

Mutations: + <-> -, * -> +, // -> *, & -> |, < <-> <=, > <-> >=, == <-> !=,
in <-> not in, is <-> is not, and <-> or, `not x` and `~x` -> x, an int
constant plus 1, True <-> False.

Run from the repository root (stdlib only, besides pytest for the tests):

    python3 tests/mutation_check.py
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module under src/galois_span, function name, test files run against each mutant)
TARGETS = [
    ("linalg", "_dense_tail_det", ["tests/test_linalg.py", "tests/test_fuzz_sparse_det.py"]),
    ("groups", "is_irreducibly_represented", ["tests/test_table1_flags.py", "tests/test_fuzz_table1_flags.py"]),
    ("groups", "is_exceptional", ["tests/test_table1_flags.py", "tests/test_fuzz_table1_flags.py"]),
    ("lfunctions", "walk_table", ["tests/test_fuzz_walk_table.py", "tests/test_lfunctions.py"]),
]

# (function, mutant as this script describes it) -> why no test can kill it
EQUIVALENT: dict[tuple[str, str], str] = {
    (
        "walk_table",
        "width = _field_width(length, max(base.degrees(), default=0)) :: `0` -> `1` #0",
    ): "the default is read only for a base with no vertex, which has no edge and"
    " no walk, so every count is 0 whatever the field width",
}

BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult, ast.BitAnd: ast.BitOr}
COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}


class Mutator(ast.NodeTransformer):
    """Numbers the mutation sites in visiting order and applies the one at
    `target` (none when it is -1); `descriptions` names every site by its
    source line (`lines`) and the changed expression."""

    def __init__(self, lines: list[str], target: int = -1):
        self.lines = lines
        self.target = target
        self.descriptions: list[str] = []

    def _site(self, node, mutant):
        index = len(self.descriptions)
        ast.copy_location(mutant, node)
        line = self.lines[node.lineno - 1].strip()
        self.descriptions.append(f"{line} :: `{ast.unparse(node)}` -> `{ast.unparse(mutant)}`")
        return mutant if index == self.target else node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in BINARY:
            mutant = copy.copy(node)
            mutant.op = BINARY[type(node.op)]()
            return self._site(node, mutant)
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE:
                mutant = copy.copy(node)
                mutant.ops = list(node.ops)
                mutant.ops[i] = COMPARE[type(op)]()
                node = self._site(node, mutant)
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        mutant = copy.copy(node)
        mutant.op = BOOLEAN[type(node.op)]()
        return self._site(node, mutant)

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, (ast.Not, ast.Invert)):
            return self._site(node, copy.copy(node.operand))
        return node

    def visit_Constant(self, node):
        if isinstance(node.value, bool):
            return self._site(node, ast.Constant(not node.value))
        if isinstance(node.value, int):
            return self._site(node, ast.Constant(node.value + 1))
        return node


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no top-level function {name}")


def mutants(source: str, name: str) -> list[tuple[str, str]]:
    """(description, module source) of each mutant of the function `name`.

    A description is the site's source line and the changed expression
    before and after, with `#k` counting earlier sites of the same
    description."""
    tree = ast.parse(source)
    fn = _function(tree, name)
    lines = source.splitlines(keepends=True)
    counter = Mutator(lines)
    counter.visit(copy.deepcopy(fn))
    start = min([fn.lineno] + [d.lineno for d in fn.decorator_list]) - 1
    seen: Counter = Counter()
    out = []
    for k, description in enumerate(counter.descriptions):
        mutated = ast.fix_missing_locations(Mutator(lines, k).visit(copy.deepcopy(fn)))
        text = lines[:start] + [ast.unparse(mutated) + "\n"] + lines[fn.end_lineno :]
        out.append((f"{description} #{seen[description]}", "".join(text)))
        seen[description] += 1
    return out


def _run_tests(tree: Path, tests: list[str], timeout: float) -> tuple[bool, float]:
    """(passed, seconds) for pytest -x over the test files in the copy."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def check() -> int:
    problems = []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree / "pyproject.toml")
        for module, name, tests in TARGETS:
            path = tree / "src" / "galois_span" / f"{module}.py"
            source = path.read_text()
            passed, seconds = _run_tests(tree, tests, timeout=600)
            if not passed:
                problems.append(f"{name}: the tests fail on the unchanged code")
                continue
            made = mutants(source, name)
            killed, survived = 0, []
            try:
                for description, text in made:
                    path.write_text(text)
                    passed, _ = _run_tests(tree, tests, timeout=10 * seconds + 30)
                    if passed:
                        survived.append(description)
                    else:
                        killed += 1
            finally:
                path.write_text(source)
            print(f"{module}.{name}: {len(made)} mutants, {killed} killed, {len(survived)} survived")
            listed = {d for f, d in EQUIVALENT if f == name}
            for description in survived:
                reason = EQUIVALENT.get((name, description))
                if reason is None:
                    problems.append(f"{name}: {description} survives")
                else:
                    print(f"  equivalent: {description}: {reason}")
            for description in sorted(listed - set(survived)):
                problems.append(f"{name}: {description} is listed as equivalent but was killed or not made")
    for problem in problems:
        print("FAIL", problem)
    print(f"{'FAIL' if problems else 'ok'} in {time.perf_counter() - started:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(check())
