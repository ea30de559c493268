"""Fuzz `lfunctions.walk_table` against the walk from one start edge at a time.

Each base has three vertices joined by random edges, loops and multi-edges
among them, a fourth vertex of degree 1 hanging off vertex 0 and a fifth
with no edge.  Voltages are random elements of C1, C2, S3, C2xC2 or Q8, so
a cover need be neither connected nor Galois, and walks run to length 40.
The packed table must equal `helpers.walk_table_by_start` exactly.
Examples are derandomized so a failure reproduces.
"""

import pytest

from galois_span.covers import VoltageAssignment, derived_graph
from galois_span.graphs import build_graph
from galois_span.groups import parse_group_spec
from galois_span.lfunctions import walk_table
from helpers import walk_table_by_start

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
GROUPS = {spec: parse_group_spec(spec) for spec in ("C1", "C2", "S3", "C2xC2", "Q8")}


@FUZZ
@hypothesis.given(
    spec=st.sampled_from(sorted(GROUPS)),
    edges=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=5),
    volts=st.lists(st.integers(0, 7), min_size=6, max_size=6),
    length=st.integers(0, 40),
)
@hypothesis.example(
    spec="Q8", edges=[(0, 0), (1, 2), (1, 2), (2, 2)], volts=[1, 2, 3, 4, 5, 6], length=40
)
@hypothesis.example(spec="S3", edges=[], volts=[1] * 6, length=3)
def test_packed_walk_table_on_random_bases(spec, edges, volts, length):
    g = GROUPS[spec]
    # vertex 3 hangs off vertex 0 by one edge; vertex 4 has none
    base = build_graph(5, [*edges, (0, 3)])
    volt = tuple(x % g.order for x in volts[: base.geometric_edge_count])
    cover = derived_graph(VoltageAssignment(base=base, group=g, volt=volt))
    assert walk_table(cover, length) == walk_table_by_start(cover, length)
