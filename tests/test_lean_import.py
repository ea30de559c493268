"""The library imports no `dataclasses`, so a fresh command starts sooner.

Every `galois-span` command is a fresh process that imports the CLI first.
`dataclasses` would bring `inspect`, `ast`, `dis` and `tokenize` with it and
compile each decorated class's methods at import; the library's values are
plain classes with `__slots__` instead (`frozen.Frozen`).  One check parses
every module and rejects any import of `dataclasses` (the walker is
`helpers.module_imports`, whose own guard test is in
`test_no_random_draws.py`); the other imports the CLI in a fresh isolated
interpreter and lists which of those modules it loaded.  Neither takes a
timing.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import module_imports

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("path", sorted((SRC / "galois_span").glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_dataclasses(path):
    assert module_imports(ast.parse(path.read_text(), str(path)), "dataclasses") == []


def test_a_fresh_cli_import_loads_none_of_the_heavy_modules():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import galois_span.cli; "
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
