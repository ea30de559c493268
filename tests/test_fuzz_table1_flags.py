"""Fuzz Table 1's two closed-form flags on products of two Table-1 groups.

The pairs are the ordered pairs of Table-1 groups whose product has order at
most 128.  `groups.is_irreducibly_represented` and `groups.is_exceptional`
must equal their oracles in `tests/helpers.py`, which read the flags off the
exact character table and off the Moebius table of the cyclic-subgroup
poset.  Examples are derandomized so a failure reproduces.
"""

import pytest

from galois_span.groups import is_exceptional, is_irreducibly_represented, parse_group_spec
from galois_span.table1 import TABLE1_FLAGS
from helpers import is_exceptional_by_cyclic_poset, is_irreducibly_represented_by_characters

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
ORDER = {spec: parse_group_spec(spec).order for spec in TABLE1_FLAGS}
PAIRS = sorted((a, b) for a in TABLE1_FLAGS for b in TABLE1_FLAGS if ORDER[a] * ORDER[b] <= 128)


@FUZZ
@hypothesis.given(pair=st.sampled_from(PAIRS))
def test_closed_forms_agree_on_products_of_two_table1_groups(pair):
    g = parse_group_spec("x".join(pair))
    assert is_irreducibly_represented(g) is is_irreducibly_represented_by_characters(g)
    assert is_exceptional(g) is is_exceptional_by_cyclic_poset(g)
