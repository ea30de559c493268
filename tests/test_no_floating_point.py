"""No floating point anywhere in the library: a syntax-level guard.

Every module of `galois_span` is parsed with `ast` and rejected if it has a
float (or complex) literal, calls `float(...)`, uses a `math` function other
than the integer ones `gcd` and `isqrt`, or imports `cmath`, `decimal` or
`statistics`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "galois_span"
INTEGER_MATH = {"gcd", "isqrt"}
FORBIDDEN_MODULES = {"cmath", "decimal", "statistics"}


def floating_point_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: float(...)")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FORBIDDEN_MODULES:
                    found.append(f"{where}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = (node.module or "").split(".")[0]
            if module in FORBIDDEN_MODULES:
                found.append(f"{where}: from {node.module} import ...")
            elif module == "math":
                found += [
                    f"{where}: from math import {alias.name}"
                    for alias in node.names
                    if alias.name not in INTEGER_MATH
                ]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_floating_point(path):
    assert floating_point_uses(ast.parse(path.read_text(), str(path))) == []


def test_guard_catches_each_kind_of_floating_point():
    source = "\n".join(
        [
            "import cmath",
            "from decimal import Decimal",
            "import statistics.mean",
            "from math import sqrt, gcd",
            "import math",
            "x = 0.5",
            "y = float(3)",
            "z = math.log(2)",
            "w = math.isqrt(9) + math.gcd(4, 6)",
        ]
    )
    found = floating_point_uses(ast.parse(source))
    assert sorted(f.split(": ", 1)[1] for f in found) == sorted(
        [
            "import cmath",
            "from decimal import ...",
            "import statistics.mean",
            "from math import sqrt",
            "literal 0.5",
            "float(...)",
            "math.log",
        ]
    )
