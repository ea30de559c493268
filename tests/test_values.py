"""Value semantics of the library's immutable classes (`frozen.Frozen`).

Equality and hashing are written by hand: a subgroup is its parent and its
element set, whatever order the elements came in; the kept answers
(`_kappa`, `_galois`, `_kappas`) never take part in equality; and no
attribute of a value can be assigned or deleted after construction.
"""

import pytest

from galois_span.characters import character_table
from galois_span.covers import (
    VoltageAssignment,
    derived_graph,
    intermediate_graph,
    intermediate_kappa,
    is_galois,
)
from galois_span.family import FamilySpec
from galois_span.frozen import Frozen
from galois_span.graphs import bouquet, cycle_graph
from galois_span.groups import Subgroup, cyclic_group, parse_group_spec
from galois_span.report import VerificationReport
from galois_span.theorems import SuiteSummary, table1_row


def test_subgroup_equality_and_hash_ignore_the_order_of_the_elements():
    g = parse_group_spec("S3")
    a = next(x for x in range(g.order) if x != g.identity and g.mul(x, x) == g.identity)
    first, second = Subgroup(g, (a, g.identity)), Subgroup(g, (g.identity, a))
    assert first == second and hash(first) == hash(second)
    assert first != Subgroup(g, (g.identity,))
    assert len({first, second, Subgroup._trusted(g, [a, g.identity])}) == 1


def test_subgroups_of_different_parents_are_unequal():
    # the trivial subgroups of C2 and C4 have the same element tuple (0,)
    c2, c4 = cyclic_group(2), cyclic_group(4)
    assert Subgroup(c2, (0,)).elements == Subgroup(c4, (0,)).elements
    assert Subgroup(c2, (0,)) != Subgroup(c4, (0,))
    # two parses of one spec are two groups
    assert Subgroup(cyclic_group(2), (0, 1)) != Subgroup(c2, (0, 1))


def test_filling_a_kept_answer_leaves_equality_unchanged():
    g = parse_group_spec("C2xC2")

    def fresh():
        return VoltageAssignment(base=bouquet(2), group=g, volt=(1, 2))

    graph, other_graph = cycle_graph(4), cycle_graph(4)
    assert graph.spanning_tree_count() == 4 and graph._kappa == 4
    assert other_graph._kappa is None and graph == other_graph

    alpha = fresh()
    assert is_galois(alpha) and alpha._galois is True
    assert fresh()._galois is None and alpha == fresh()

    cover, other_cover = derived_graph(fresh()), derived_graph(fresh())
    h = Subgroup(g, (0, 1))
    assert intermediate_kappa(cover, h) > 0 and cover._kappas
    assert not other_cover._kappas and cover == other_cover

    assert alpha != VoltageAssignment(base=bouquet(2), group=g, volt=(2, 1))
    assert graph != cycle_graph(5)


def _frozen_values():
    g = parse_group_spec("C2xC2")
    cover = derived_graph(VoltageAssignment(base=bouquet(2), group=g, volt=(1, 2)))
    h = Subgroup(g, (0, 1))
    return [
        character_table(g).characters[1],
        cover.voltage,
        cover,
        intermediate_graph(cover, h),
        FamilySpec(primes=(2,), s=(2,), b=(1,)),
        cover.derived,
        h,
        VerificationReport.compare("x = x", "none", 1, 1),
        table1_row("C2"),
    ]


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda v: type(v).__name__)
def test_no_attribute_of_a_value_can_be_assigned_or_deleted(value):
    assert isinstance(value, Frozen) and not hasattr(value, "__dict__")
    for name in type(value).__slots__ + ("planted",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_every_frozen_class_is_checked():
    import galois_span  # noqa: F401  (imports every module, so every subclass exists)

    assert {type(v) for v in _frozen_values()} == set(Frozen.__subclasses__())
    assert len(Frozen.__subclasses__()) == 9 and not issubclass(SuiteSummary, Frozen)


def test_suite_summary_stays_mutable():
    summary = SuiteSummary(seed=0, iterations=1)
    summary.failures += 1
    summary.entries.append({})
    assert summary.to_json_dict()["failures"] == 1 and not summary.all_passed
    assert SuiteSummary(seed=0, iterations=1).entries == []
