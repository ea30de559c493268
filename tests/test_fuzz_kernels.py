"""Fuzz the character kernels read from the group alone on products of fixture atoms.

The atoms are the non-trivial factors of Table 1's groups, and a product
takes up to four of them while its order stays at most 128.
`posets.kernel_subgroups` must equal its oracle in `tests/helpers.py`, which
reads the kernels off the exact character table.  Examples are derandomized
so a failure reproduces.
"""

import pytest

from galois_span.groups import is_irreducibly_represented, parse_group_spec
from galois_span.posets import kernel_subgroups
from galois_span.table1 import TABLE1_FLAGS
from helpers import kernel_subgroups_by_characters

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
ATOMS = sorted({atom for spec in TABLE1_FLAGS for atom in spec.split("x")} - {"C1"})
ORDER = {atom: parse_group_spec(atom).order for atom in ATOMS}


@st.composite
def products(draw) -> str:
    atoms, order = [], 1
    for _ in range(draw(st.integers(1, 4))):
        fits = [a for a in ATOMS if order * ORDER[a] <= 128]
        if not fits:
            break
        atom = draw(st.sampled_from(fits))
        atoms.append(atom)
        order *= ORDER[atom]
    return "x".join(atoms)


@FUZZ
@hypothesis.given(spec=products())
def test_kernels_agree_with_the_table_oracle_on_products_of_atoms(spec):
    g = parse_group_spec(spec)
    kernels = kernel_subgroups(g)
    assert dict(kernels) == kernel_subgroups_by_characters(g)
    assert ((g.identity,) in kernels) is is_irreducibly_represented(g)
