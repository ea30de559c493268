import random
import re
import time
from itertools import combinations

import pytest

from galois_span.errors import (
    ClosureTooLargeError,
    InvalidTableError,
    NotNormalError,
    OrderTooLargeError,
)
from galois_span.groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    alternating_group,
    are_conjugate_subgroups,
    canonical_spec_name,
    cyclic_group,
    cyclic_subgroups,
    dicyclic_group,
    dihedral_group,
    direct_product,
    from_cayley_table,
    from_permutations,
    generated_subgroup,
    left_cosets,
    parse_group_spec,
    quotient_group,
    symmetric_group,
)
from galois_span.table1 import TABLE1_FLAGS
from helpers import associativity_failure, random_loop_table, subgroups_by_pairwise_joins


def test_cyclic_trivial():
    g = cyclic_group(1)
    assert g.order == 1 and g.identity == 0
    assert g.exponent() == 1


def test_constructor_orders():
    assert direct_product(cyclic_group(2), cyclic_group(6)).order == 12
    assert dihedral_group(4).order == 8
    assert dicyclic_group(2).order == 8
    assert symmetric_group(3).order == 6
    assert alternating_group(4).order == 12


def test_symmetric_conjugacy_classes():
    s3 = symmetric_group(3)
    classes = s3.conjugacy_classes()
    assert len(classes) == 3
    assert classes[0] == (s3.identity,)
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_q8_structure():
    q8 = dicyclic_group(2)
    assert q8.order == 8
    # one element of order 2 (the center), six of order 4
    orders = sorted(q8.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(cyclic_subgroups(q8)) == 5
    assert len(all_subgroups(q8)) == 6


def test_subgroup_counts():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert len(all_subgroups(klein)) == 5
    z2z6 = direct_product(cyclic_group(2), cyclic_group(6))
    assert len(all_subgroups(z2z6)) == 10
    assert len(cyclic_subgroups(symmetric_group(3))) == 5
    assert len(cyclic_subgroups(cyclic_group(7))) == 2


def _subgroups_by_filtering(g):
    """Oracle: test every subset whose size divides |G|."""
    elements = list(range(g.order))
    found = set()
    for size in range(1, g.order + 1):
        if g.order % size:
            continue
        for subset in combinations(elements, size):
            elems = set(subset)
            if g.identity not in elems:
                continue
            if all(g.mul(a, b) in elems for a in elems for b in elems):
                found.add(tuple(sorted(elems)))
    return found


def test_all_subgroups_against_exhaustive_filtering():
    for g in (
        dihedral_group(4),
        direct_product(cyclic_group(2), cyclic_group(6)),
        alternating_group(4),
        direct_product(cyclic_group(2), cyclic_group(8)),
    ):
        expected = _subgroups_by_filtering(g)
        got = {h.elements for h in all_subgroups(g)}
        assert got == expected


@pytest.mark.parametrize("spec", sorted(TABLE1_FLAGS) + ["C2xS4"])
def test_all_subgroups_equals_pairwise_join_oracle(spec):
    g = parse_group_spec(spec)
    assert all_subgroups(g) == subgroups_by_pairwise_joins(g)


@pytest.mark.parametrize("m, count", [(5, 374), (6, 2825)])
def test_elementary_abelian_lattice_gaussian_binomial_counts(m, count):
    # sum over k of the Gaussian binomial [m, k]_2
    g = parse_group_spec("x".join(["C2"] * m))
    started = time.perf_counter()
    subs = all_subgroups(g)
    assert time.perf_counter() - started < 10.0
    assert len(subs) == count


def test_lagrange_and_conjugation_closure():
    for g in (symmetric_group(3), dihedral_group(4), dicyclic_group(3)):
        subs = all_subgroups(g)
        keys = {h.elements for h in subs}
        for h in subs:
            assert g.order % h.order == 0
            for x in range(g.order):
                assert h.conjugate_by(x).elements in keys


def test_s3_conjugate_transposition_subgroups():
    s3 = symmetric_group(3)
    order2 = [h for h in cyclic_subgroups(s3) if h.order == 2]
    assert len(order2) == 3
    for h1, h2 in combinations(order2, 2):
        assert are_conjugate_subgroups(h1, h2)
    order3 = [h for h in cyclic_subgroups(s3) if h.order == 3]
    assert not are_conjugate_subgroups(order2[0], order3[0])


def test_index_cosets_quotient():
    g = direct_product(cyclic_group(2), cyclic_group(6))
    triv = generated_subgroup(g, [])
    assert triv.index() == 12
    h4 = generated_subgroup(
        g, [g.element_by_label("(1,0)"), g.element_by_label("(0,3)")]
    )
    assert h4.order == 4
    cosets = left_cosets(h4)
    assert len(cosets) == 3
    assert all(len(c) == 4 for c in cosets)
    q, proj = quotient_group(h4)
    assert q.order == 3
    assert q.element_order(1 - proj[g.identity] + proj[g.identity]) in (1, 3)
    assert sorted(q.element_order(x) for x in range(3)) == [1, 3, 3]


def test_quotient_requires_normal():
    s3 = symmetric_group(3)
    h = [x for x in cyclic_subgroups(s3) if x.order == 2][0]
    with pytest.raises(NotNormalError):
        quotient_group(h)


def test_exponent_and_abelian():
    g = direct_product(cyclic_group(2), cyclic_group(6))
    assert g.exponent() == 6
    assert g.is_abelian()
    assert not symmetric_group(3).is_abelian()
    # exponent = lcm of element orders
    s4 = symmetric_group(4)
    lcm = 1
    for x in range(s4.order):
        o = s4.element_order(x)
        from math import gcd

        lcm = lcm * o // gcd(lcm, o)
    assert s4.exponent() == lcm == 12


def test_invalid_table():
    with pytest.raises(InvalidTableError):
        from_cayley_table([[0, 1], [0, 1]])
    with pytest.raises(InvalidTableError):
        from_cayley_table([[0, 1], [1, 1]])


# a loop of order 5 (Latin square with identity 0, every element its own
# inverse); every group of order 5 is cyclic, so it is not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _product_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    return [
        [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(n1) for b2 in range(n2)]
        for a1 in range(n1)
        for a2 in range(n2)
    ]


def _assert_rejected_at_failing_triple(table):
    with pytest.raises(InvalidTableError, match="associativity fails") as info:
        from_cayley_table(table)
    a, b, c = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(info.value)).groups())
    assert table[table[a][b]][c] != table[a][table[b][c]]


@pytest.mark.parametrize("spec", sorted(TABLE1_FLAGS) + ["C4xS4", "D64"])
def test_light_associativity_test_accepts_what_the_exhaustive_oracle_accepts(spec):
    g = parse_group_spec(spec)
    assert associativity_failure(g.cayley) is None
    FiniteGroup(g.cayley)._validate()


def test_non_associative_loops_are_rejected():
    assert associativity_failure(LOOP5) is not None
    _assert_rejected_at_failing_triple(LOOP5)
    # order 80: the old check only sampled triples above order 64
    big = _product_table(LOOP5, cyclic_group(16).cayley)
    assert len(big) > 64
    _assert_rejected_at_failing_triple(big)


def test_light_associativity_test_agrees_with_oracle_on_random_loops():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(200):
        table = random_loop_table(rng, rng.randrange(2, 9))
        try:
            g = FiniteGroup(table, validate=False)
        except InvalidTableError:
            continue  # some element has no two-sided inverse
        associative = associativity_failure(table) is None
        seen[associative] += 1
        if associative:
            g._validate()
        else:
            _assert_rejected_at_failing_triple(table)
    assert seen[True] >= 10 and seen[False] >= 10


def test_permutation_closure_bound():
    with pytest.raises(ClosureTooLargeError):
        from_permutations([tuple(range(1, 9)) + (0,), (1, 0) + tuple(range(2, 9))], bound=100)


def test_order_bound(monkeypatch):
    monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", "8")
    with pytest.raises(OrderTooLargeError):
        all_subgroups(direct_product(cyclic_group(4), cyclic_group(4)))


def test_group_spec_grammar():
    assert parse_group_spec("C12").order == 12
    assert parse_group_spec("D6").order == 12
    assert parse_group_spec("Q8").order == 8
    assert parse_group_spec("Q16").order == 16
    assert parse_group_spec("Dic3").order == 12
    assert parse_group_spec("S4").order == 24
    assert parse_group_spec("A4").order == 12
    assert parse_group_spec("C2xC6").order == 12
    assert parse_group_spec("C2xC2xC2").order == 8
    g = parse_group_spec("perm:(0 1 2);(0 1)")
    assert g.order == 6
    with pytest.raises(ValueError):
        parse_group_spec("Z5")


def test_group_spec_table_file(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text("[[0,1,2,3],[1,0,3,2],[2,3,0,1],[3,2,1,0]]")
    g = parse_group_spec(f"table:{path}")
    assert g.order == 4
    assert g.exponent() == 2


def test_canonical_spec_name():
    assert canonical_spec_name("C6xC2") == "C2xC6"
    assert canonical_spec_name("Dic2") == "Q8"
    assert canonical_spec_name("Dic4") == "Q16"
    assert canonical_spec_name("A4xC2") == "C2xA4"
    assert canonical_spec_name("perm:(0 1)") is None


def test_subgroup_rejects_non_subgroup():
    s3 = symmetric_group(3)
    with pytest.raises(InvalidTableError):
        Subgroup(s3, (0, 1, 2))  # two transpositions, not closed


def test_permutation_composition_convention():
    s3 = symmetric_group(3)
    a = s3.element_by_label("(0 1)")
    b = s3.element_by_label("(0 1 2)")
    # (0 1) after (0 1 2): 0 -> 1 -> 0, 1 -> 2, 2 -> 0 -> 1 = (1 2)
    assert s3.label(s3.mul(a, b)) == "(1 2)"
