"""No test-only code in the library: a syntax-level guard.

Every top-level function and class of `galois_span`, and every method of
those classes that is not a dunder, must be referred to somewhere in
`src/galois_span` outside its own definition, `__init__.py` and the
`__all__` lists, so that the CLI or the library's own verifiers can reach
it.  Only names and attributes count: an import is not a reference, and an
`__all__` entry is a string, so a re-export is not a use.  A method counts
as referred to when any attribute of that name is.
Code that only the tests call belongs in `tests/helpers.py`.  `ALLOWED`
names the few exceptions, each with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "galois_span"
ALLOWED = {
    "groups.quotient_group": "ROADMAP item 5: the normal-quotient covers build on it",
    "groups.are_conjugate_subgroups": "ROADMAP item 8: the benchmark tracer wraps it by name",
    "groups.FiniteGroup.conj": "ROADMAP item 8: `perfbench/tracer.py` calls it",
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree, *own: str) -> set[str]:
    """Names and attribute names used in `tree`, apart from those in `own`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out - set(own)


def unreferenced(sources: dict[str, str]) -> list[str]:
    """"module.name" of each top-level function or class, and
    "module.Class.method" of each method that is not a dunder, that no code
    of `sources` (module name -> source text) refers to, outside its own
    definition and `__init__`."""
    defined, referred = [], set()
    for module, text in sources.items():
        if module == "__init__":
            continue
        for top in ast.parse(text).body:
            if not isinstance(top, DEFINITIONS):
                referred |= _references(top)
                continue
            defined.append((f"{module}.{top.name}", top.name))
            if not isinstance(top, ast.ClassDef):
                referred |= _references(top, top.name)
                continue
            for node in top.decorator_list + top.bases + top.keywords + top.body:
                own = ()
                if isinstance(node, DEFINITIONS) and not node.name.startswith("__"):
                    defined.append((f"{module}.{top.name}.{node.name}", node.name))
                    own = (node.name,)
                referred |= _references(node, top.name, *own)
    return [where for where, name in defined if name not in referred]


def library_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_library_function_and_class_has_a_library_caller():
    assert sorted(set(unreferenced(library_sources())) - set(ALLOWED)) == []


def test_every_allowed_name_is_still_defined_and_still_uncalled():
    assert sorted(ALLOWED) == sorted(unreferenced(library_sources()))


def test_guard_catches_a_function_with_no_caller():
    sources = library_sources()
    sources["linalg"] += "\n\ndef planted(n):\n    return planted(n - 1) if n else 0\n"
    sources["family"] += '\n__all__ = ["planted"]\n'
    sources["__init__"] += "from .linalg import planted\n"
    sources["posets"] = "from .linalg import planted\n" + sources["posets"]
    assert sorted(set(unreferenced(sources)) - set(ALLOWED)) == ["linalg.planted"]
    # one call from library code is enough
    sources["posets"] += "\n\ndef _uses_planted():\n    return planted(3)\n"
    assert sorted(set(unreferenced(sources)) - set(ALLOWED)) == ["posets._uses_planted"]


def test_guard_catches_a_method_with_no_caller():
    sources = library_sources()
    sources["graphs"] += (
        "\n\nclass Planted:\n"
        "    def __init__(self):\n        self.step()\n"
        "    def step(self):\n        return self.step()\n"
        "    def unused(self):\n        return self.unused()\n"
        "\n\ndef _make():\n    return Planted()\n"
    )
    assert sorted(set(unreferenced(sources)) - set(ALLOWED)) == [
        "graphs.Planted.unused",
        "graphs._make",
    ]
