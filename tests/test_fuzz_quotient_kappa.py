"""Fuzz `covers.intermediate_kappa` against quotients built by representatives.

Each base has three vertices, a path 0-1-2 so that it is connected, and random
extra edges, loops and multi-edges among them.  Voltages are random elements
of C2, C4, S3, C2xC2, D4 or Q8.  A Galois cover must give, for every subgroup
H, the kappa of `helpers.kappa_by_representatives`; a cover that is not
Galois has a disconnected derived graph and every request is refused.
Examples are derandomized so a failure reproduces.
"""

import pytest

from galois_span.covers import VoltageAssignment, derived_graph, intermediate_kappa, is_galois
from galois_span.errors import NotGaloisError
from galois_span.graphs import build_graph
from galois_span.groups import all_subgroups, parse_group_spec
from helpers import kappa_by_representatives

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
GROUPS = {spec: parse_group_spec(spec) for spec in ("C2", "C4", "S3", "C2xC2", "D4", "Q8")}


@FUZZ
@hypothesis.given(
    spec=st.sampled_from(sorted(GROUPS)),
    edges=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4),
    volts=st.lists(st.integers(0, 7), min_size=6, max_size=6),
)
@hypothesis.example(spec="Q8", edges=[(0, 0), (1, 2), (2, 2)], volts=[1, 2, 3, 4, 5, 6])
@hypothesis.example(spec="S3", edges=[(0, 2)], volts=[0, 0, 1, 3, 0, 0])
def test_plan_kappas_on_random_bases(spec, edges, volts):
    g = GROUPS[spec]
    base = build_graph(3, [(0, 1), (1, 2), *edges])
    volt = tuple(x % g.order for x in volts[: base.geometric_edge_count])
    alpha = VoltageAssignment(base=base, group=g, volt=volt)
    c = derived_graph(alpha)
    if not is_galois(alpha):
        assert not c.derived.is_connected()
        with pytest.raises(NotGaloisError):
            intermediate_kappa(c, all_subgroups(g)[-1])
        return
    for h in all_subgroups(g):
        assert intermediate_kappa(c, h) == kappa_by_representatives(alpha, h), h.describe()
