import random
import re
import time
from itertools import combinations

import pytest

from galois_span import groups
from galois_span.errors import (
    ClosureTooLargeError,
    GaloisSpanError,
    GroupConstructionError,
    GroupSpecError,
    InvalidTableError,
    NotNormalError,
    OrderTooLargeError,
    SettingError,
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
    from_permutations,
    generated_subgroup,
    left_cosets,
    parse_group_spec,
    quotient_group,
    symmetric_group,
)
from galois_span.table1 import TABLE1_FLAGS
from helpers import (
    associativity_failure,
    class_key_by_products,
    conjugacy_classes_by_products,
    conjugate_by_products,
    is_normal_by_products,
    random_loop_table,
    subgroups_by_pairwise_joins,
)


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


@pytest.mark.parametrize("spec", ["C2xC2xC2xC2xC2", "C2xS4", "C4xS4", "D32", "S5", "C8xC8"])
def test_is_cyclic_agrees_with_the_closure_of_each_element(spec):
    g = parse_group_spec(spec)
    subgroups = all_subgroups(g)
    flags = [h.is_cyclic() for h in subgroups]
    assert flags == [
        any(len(groups._closure(g, [g.identity], [a])) == h.order for a in h.elements)
        for h in subgroups
    ]
    assert sum(flags) == len(cyclic_subgroups(g))


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
        g, [g.element("(1,0)"), g.element("(0,3)")]
    )
    assert h4.order == 4
    cosets = left_cosets(h4)
    assert len(cosets) == 3
    assert all(len(c) == 4 for c in cosets)
    q, proj = quotient_group(h4)
    assert q.order == 3
    assert q.element_order(1 - proj[g.identity] + proj[g.identity]) in (1, 3)
    assert sorted(q.element_order(x) for x in range(3)) == [1, 3, 3]


@pytest.mark.parametrize("spec", ["S3", "D4", "Q8", "C2xC6", "A4", "S4"])
def test_left_cosets_are_the_cosets_Hx_in_order_of_least_element(spec):
    # the oracle: the coset of each element by products, sorted, deduplicated
    g = parse_group_spec(spec)
    for h in all_subgroups(g):
        expected = sorted({tuple(sorted(g.mul(a, x) for a in h.elements)) for x in range(g.order)})
        assert left_cosets(h) == expected, h.describe()


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
        FiniteGroup([[0, 1], [0, 1]])
    with pytest.raises(InvalidTableError):
        FiniteGroup([[0, 1], [1, 1]])


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
        FiniteGroup(table)
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
        # a Latin square: a's one right inverse is row.index(0)
        if any(table[row.index(0)][a] != 0 for a, row in enumerate(table)):
            continue  # some element has no two-sided inverse
        associative = associativity_failure(table) is None
        seen[associative] += 1
        if associative:
            FiniteGroup(table)
        else:
            _assert_rejected_at_failing_triple(table)
    assert seen[True] >= 10 and seen[False] >= 10


def test_permutation_closure_bound():
    with pytest.raises(ClosureTooLargeError):
        from_permutations([tuple(range(1, 9)) + (0,), (1, 0) + tuple(range(2, 9))])


def test_order_bound(monkeypatch):
    monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", "8")
    with pytest.raises(OrderTooLargeError):
        all_subgroups(direct_product(cyclic_group(4), cyclic_group(4)))


def test_order_bound_reads_a_positive_decimal_integer(monkeypatch):
    for value, bound in (("", 128), ("1", 1), ("0007", 7), ("9" * 4300, int("9" * 4300))):
        monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", value)
        assert groups.max_group_order() == bound
    for value in ("abc", "0", "000", "-5", "+5", " 12", "1_000", "1e3", "١٢", "9" * 4301):
        monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", value)
        with pytest.raises(SettingError, match=re.escape(repr(value))) as exc:
            groups.max_group_order()
        assert isinstance(exc.value, GaloisSpanError)



@pytest.fixture
def atoms_refused(monkeypatch):
    """Every atom maker raises, so a spec that reaches one fails at once."""

    def refuse(n):
        raise AssertionError(f"an atom of size {n} was built")

    monkeypatch.delenv("GALOIS_SPAN_MAX_ORDER", raising=False)
    for kind in groups._ATOM_MAKERS:
        monkeypatch.setitem(groups._ATOM_MAKERS, kind, refuse)


@pytest.mark.parametrize(
    "spec", ["S333", "A6", "C1000", "C100xC100", "D65", "Dic33", "Q132", "C2xC2xC2xC2xC2xC2xC2xC2"]
)
def test_a_spec_above_the_order_bound_is_refused_before_any_atom_is_built(atoms_refused, spec):
    message = f"group spec {spec!r} has order above 128, the bound set by GALOIS_SPAN_MAX_ORDER"
    with pytest.raises(OrderTooLargeError, match=re.escape(message)):
        parse_group_spec(spec)


def test_every_atom_is_validated_before_the_order_bound(atoms_refused):
    with pytest.raises(GroupSpecError, match="'Z5'"):
        parse_group_spec("S333xZ5")
    with pytest.raises(AssertionError):  # within the bound the makers are reached
        parse_group_spec("S5")


def test_the_spec_order_bound_follows_the_environment(monkeypatch):
    monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", "8")
    assert parse_group_spec("C2xC2xC2").order == 8
    with pytest.raises(OrderTooLargeError, match="above 8"):
        parse_group_spec("C3xC3")


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
    a = s3.element("(0 1)")
    b = s3.element("(0 1 2)")
    # (0 1) after (0 1 2): 0 -> 1 -> 0, 1 -> 2, 2 -> 0 -> 1 = (1 2)
    assert s3.label(s3.mul(a, b)) == "(1 2)"


# group, name -> the element it names; an index is an int or ASCII digits
ELEMENT_ACCEPTS = [
    ("C2", 1, 1),
    ("C2", "1", 1),
    ("C2", "0", 0),
    ("C2", "00", 0),
    ("S3", 5, 5),
    ("S3", "5", 5),
    ("S3", "e", 0),
    ("S3", "(0 1 2)", 3),
    ("C2xC2", "(1,0)", 2),
    ("C2xC2", "3", 3),
    ("Q8", "a0b", 4),
]
# group, name -> the start of the error message
ELEMENT_REFUSES = [
    ("S3", 99, "element 99 out of range: S3 has order 6"),
    ("S3", "99", "element 99 out of range: S3 has order 6"),
    ("C2", "3", "element 3 out of range: C2 has order 2"),
    ("C2", -1, "element -1 out of range"),
    ("C2", "-1", "no element labelled '-1' in C2"),
    ("C2", "+1", "no element labelled '+1'"),
    ("C2", " 1", "no element labelled ' 1'"),
    ("C2", "\u0661", "no element labelled"),  # an Arabic-Indic digit one
    ("C2", "", "no element labelled ''"),
    ("C2xC2", "(1", "no element labelled '(1'"),
    ("S3", "(0 1 3)", "no element labelled"),
    ("C2", True, "element must be an integer, got True"),
    ("C2", 1.0, "element must be an integer, got 1.0"),
    ("C2", None, "element must be an integer, got None"),
    ("C2", [1], "element must be an integer, got [1]"),
    ("C2", "9" * 5000, "element has too many digits for C2"),  # past int()'s digit limit
]


@pytest.mark.parametrize("spec, name, index", ELEMENT_ACCEPTS)
def test_element_accepts_an_index_below_the_order_or_a_label(spec, name, index):
    assert parse_group_spec(spec).element(name) == index


@pytest.mark.parametrize("spec, name, message", ELEMENT_REFUSES)
def test_element_refuses_everything_else(spec, name, message):
    with pytest.raises(GaloisSpanError) as exc:
        parse_group_spec(spec).element(name)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("spec", sorted(TABLE1_FLAGS) + ["C2xS4", "C4xS4"])
def test_conjugation_table_agrees_with_products(spec):
    g = parse_group_spec(spec)
    n = g.order
    expected = [[conjugate_by_products(g, x, a) for a in range(n)] for x in range(n)]
    assert [list(row) for row in g.conjugation()] == expected
    assert all(g.conj(x, a) == expected[x][a] for x in range(n) for a in range(n))
    assert g.conjugacy_classes() == conjugacy_classes_by_products(g)
    for h in all_subgroups(g):
        assert h.class_key() == class_key_by_products(h)
        assert h.is_normal() == is_normal_by_products(h)
        for x in range(n):
            conjugate = sorted(conjugate_by_products(g, x, a) for a in h.elements)
            assert list(h.conjugate_by(x).elements) == conjugate


@pytest.mark.parametrize("spec", ["S4", "C2xS4"])
def test_one_class_key_request_keeps_the_key_of_every_conjugate(spec):
    g = parse_group_spec(spec)
    subgroups = all_subgroups(g)
    h = next(h for h in subgroups if not h.is_normal())
    key = h.class_key()
    members = {x.elements for x in subgroups if class_key_by_products(x) == key}
    assert len(members) > 1
    assert g._cache["class_keys"] == dict.fromkeys(members, key)
    assert {x.class_key() for x in subgroups} == {class_key_by_products(x) for x in subgroups}


@pytest.mark.parametrize("spec", ["S4", "D6", "C2xQ8"])
def test_subgroup_lists_kept_on_the_group_cannot_be_changed_by_a_caller(spec):
    g = parse_group_spec(spec)
    for listing in (all_subgroups, cyclic_subgroups):
        expected = [h.elements for h in listing(parse_group_spec(spec))]
        first = listing(g)
        first.reverse()
        first.append(Subgroup(g, (g.identity,)))
        listing(g).clear()
        again = listing(g)
        assert again is not first
        assert [h.elements for h in again] == expected
        assert all(h.parent is g for h in again)


def test_the_order_bound_is_read_on_every_subgroup_request(monkeypatch):
    g = parse_group_spec("S4")
    assert len(all_subgroups(g)) == 30
    monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", "12")
    with pytest.raises(OrderTooLargeError):
        all_subgroups(g)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cyclic_group(0), "cyclic group needs n >= 1"),
        (lambda: dihedral_group(0), "dihedral group needs n >= 1"),
        (lambda: dicyclic_group(0), "dicyclic group needs n >= 1"),
        (lambda: symmetric_group(0), "symmetric group needs n >= 1"),
        (lambda: alternating_group(0), "alternating group needs n >= 1"),
        (lambda: from_permutations([]), "need at least one generator"),
        (
            lambda: from_permutations([(1, 0), (0, 2, 1)]),
            "generators must be permutations of the same domain",
        ),
        (
            lambda: from_permutations([(0, 0)]),
            "generators must be permutations of the same domain",
        ),
    ],
)
def test_group_constructor_refusals_are_typed(call, message):
    with pytest.raises(GroupConstructionError) as exc:
        call()
    assert isinstance(exc.value, GaloisSpanError) and isinstance(exc.value, ValueError)
    assert str(exc.value) == message
