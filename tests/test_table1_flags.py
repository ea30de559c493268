"""Table 1's two flags, read from the group alone, against their oracles.

`groups.is_irreducibly_represented` is Gaschütz's criterion and
`groups.is_exceptional` a sum of the classical Moebius function over the
cyclic subgroups' orders.  Their oracles in `tests/helpers.py` read the same
flags off the exact character table and off the Moebius table of the
cyclic-subgroup poset.  Products of two Table-1 groups are fuzzed in
`test_fuzz_table1_flags.py`.
"""

import pytest

import galois_span.theorems as theorems
from galois_span.groups import is_exceptional, is_irreducibly_represented, parse_group_spec
from galois_span.table1 import TABLE1_FLAGS
from galois_span.theorems import table1_row
from helpers import is_exceptional_by_cyclic_poset, is_irreducibly_represented_by_characters

# groups past Table 1: large orders, non-abelian socles (A5, S5), a cyclic
# A (A5xC2), and products whose A is or is not one class's closure
BEYOND_TABLE1 = [
    "C2xS4", "S5", "A5", "A5xC2", "C4xS4", "C2xC2xS4", "D32", "D64", "C8xC8", "C8xC8xC2",
    "C4xC4xC4", "C3xC3xC3xC3", "C2xC2xC2xC2xC2", "C2xC2xC2xC2xC2xC2",
    "C2xC2xC2xC2xC2xC2xC2", "S3xS3", "Q8xQ8", "D4xD4", "C3xA4", "C2xC2xA4",
]


@pytest.mark.parametrize(
    "spec, irreducibly_represented, exceptional",
    [
        ("C1", True, False),
        ("C4", True, True),
        ("A5", True, False),  # A is trivial: A5 has no abelian minimal normal subgroup
        ("A4", True, False),  # A = V4 is not cyclic, but is the closure of one class
        ("C2xC2", False, False),
        ("Q8", True, True),
        ("S3", True, False),
        ("Dic3", True, True),
        ("C2xC6", False, True),
        ("C2xC2xA4", False, False),  # the centre C2xC2 is not one class's closure
    ],
)
def test_flags(spec, irreducibly_represented, exceptional):
    g = parse_group_spec(spec)
    assert is_irreducibly_represented(g) is irreducibly_represented
    assert is_exceptional(g) is exceptional


@pytest.mark.parametrize("spec", sorted(TABLE1_FLAGS) + BEYOND_TABLE1)
def test_closed_forms_agree_with_the_table_oracles(spec):
    g = parse_group_spec(spec)
    assert is_irreducibly_represented(g) is is_irreducibly_represented_by_characters(g)
    assert is_exceptional(g) is is_exceptional_by_cyclic_poset(g)


def test_the_exceptional_flag_is_kept_on_the_group():
    g = parse_group_spec("C2xC6")
    assert is_exceptional(g) is True
    g._cache["is_exceptional"] = False
    assert is_exceptional(g) is False


@pytest.mark.parametrize("spec", ["S3", "Q8", "C2xC2xS3", "S5", "C8xC8"])
def test_table1_row_builds_no_character_or_mobius_table(monkeypatch, spec):
    parsed = []

    def parse_and_keep(text):
        parsed.append(parse_group_spec(text))
        return parsed[-1]

    monkeypatch.setattr(theorems, "parse_group_spec", parse_and_keep)
    row = table1_row(spec)
    (g,) = parsed
    assert "character_table" not in g._cache and "cyclic_poset" not in g._cache
    assert row.irreducibly_represented is is_irreducibly_represented_by_characters(g)
    assert row.exceptional is is_exceptional_by_cyclic_poset(g)
