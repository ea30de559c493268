"""No random draws in the library outside the one user-seeded sampler.

Every module of `galois_span` is parsed with `ast` and rejected if it has
`import random` or `from random import ...`, except `covers.py`, whose
`random_connected_voltage` draws voltages from the seed its caller gives.
Everything else (character tables above all) is one deterministic
computation per input, so the README's byte-identical output holds.
"""

import ast
from pathlib import Path

import pytest

from helpers import module_imports

SRC = Path(__file__).resolve().parent.parent / "src" / "galois_span"
SEEDED_SAMPLERS = {"covers.py"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name not in SEEDED_SAMPLERS),
    ids=lambda p: p.name,
)
def test_module_draws_nothing_at_random(path):
    assert module_imports(ast.parse(path.read_text(), str(path)), "random") == []


def test_guard_catches_each_kind_of_random_import():
    source = "\n".join(
        [
            "import random",
            "import random as rnd",
            "from random import Random",
            "from .random import helper",
            "import randomness",
            "x = random_connected_voltage",
        ]
    )
    found = module_imports(ast.parse(source), "random")
    assert sorted(f.split(": ", 1)[1] for f in found) == sorted(
        [
            "import random",
            "import random",
            "from random import ...",
        ]
    )
