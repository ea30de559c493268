import random
from fractions import Fraction

import pytest

from galois_span.characters import character_table
from galois_span.errors import GaloisSpanError, InvariantError, PosetError
from galois_span.groups import (
    cyclic_group,
    dicyclic_group,
    direct_product,
    parse_group_spec,
    symmetric_group,
)
from galois_span.numtheory import classical_mobius
from galois_span.posets import (
    BOTTOM_KEY,
    TOP_KEY,
    MobiusTable,
    Poset,
    adjoin_bottom,
    adjoin_top,
    cyclic_poset,
    hasse_dot,
    kernel_poset,
    kernel_subgroups,
    mobius,
)
from helpers import divisor_poset, mobius_inversion_check, random_poset


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset([0, 1], ["0", "1"], [[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(ValueError):
        Poset([0, 1], ["0", "1"], [[False, False], [False, True]])  # not reflexive
    with pytest.raises(ValueError):
        Poset(
            [0, 1, 2],
            list("012"),
            [
                [True, True, False],
                [False, True, True],
                [False, False, True],
            ],
        )  # not transitive


T, F = True, False


@pytest.mark.parametrize(
    "call, message",
    [
        # the fields: keys, labels and relation rows must line up
        (lambda: Poset([0, 0], ["a", "b"], [[T, T], [T, T]]), "duplicate poset keys"),
        (lambda: Poset([0, 1], ["0"], [[T, F], [F, T]]), "poset field lengths disagree"),
        (lambda: Poset([0, 1], ["0", "1"], [[T, F]]), "poset field lengths disagree"),
        (lambda: Poset([0, 1], ["0", "1"], [[T], [F, T]]), "leq matrix is not square"),
        # the order axioms
        (lambda: Poset([0, 1], ["0", "1"], [[F, F], [F, T]]), "relation is not reflexive"),
        (lambda: Poset([0, 1], ["0", "1"], [[T, T], [T, T]]), "relation is not antisymmetric"),
        (
            lambda: Poset([0, 1, 2], list("012"), [[T, T, F], [F, T, T], [F, F, T]]),
            "relation is not transitive",
        ),
        # adjoined bounds need a fresh key
        (
            lambda: adjoin_bottom(Poset([BOTTOM_KEY], ["x"], [[T]])),
            f"key {BOTTOM_KEY!r} already present",
        ),
        (lambda: adjoin_top(Poset([TOP_KEY], ["x"], [[T]])), f"key {TOP_KEY!r} already present"),
    ],
    ids=[
        "duplicate-keys",
        "short-labels",
        "short-matrix",
        "ragged-matrix",
        "not-reflexive",
        "not-antisymmetric",
        "not-transitive",
        "bottom-key-taken",
        "top-key-taken",
    ],
)
def test_poset_refusals_are_typed(call, message):
    with pytest.raises(PosetError) as exc:
        call()
    assert isinstance(exc.value, GaloisSpanError) and isinstance(exc.value, ValueError)
    assert str(exc.value) == message


def test_chain_mobius():
    chain = Poset.from_leq([0, 1, 2], list("012"), lambda a, b: a <= b)
    mu = mobius(chain)
    assert mu.mu(0, 0) == 1
    assert mu.mu(0, 1) == -1
    assert mu.mu(0, 2) == 0
    assert mu.mu(1, 0) == 0  # incomparable direction


def _mu_by_keys(p):
    table = mobius(p)
    return {(a, b): table.mu(a, b) for a in p.keys for b in p.keys}


def test_mobius_does_not_depend_on_the_order_of_the_keys():
    keys = [d for d in range(360, 0, -1) if 360 % d == 0]  # the top, 360, first
    top_first = Poset.from_leq(keys, map(str, keys), lambda a, b: b % a == 0)
    assert _mu_by_keys(top_first) == _mu_by_keys(divisor_poset(360))
    rng = random.Random(26)
    for _ in range(40):
        p = random_poset(rng, max_elements=8)
        order = list(range(len(p)))
        rng.shuffle(order)
        shuffled = Poset(
            [p.keys[i] for i in order],
            [p.labels[i] for i in order],
            [[p.leq_matrix[i][j] for j in order] for i in order],
        )
        assert _mu_by_keys(shuffled) == _mu_by_keys(p)


def test_mobius_recursions_that_disagree_raise_naming_the_pair():
    chain = Poset.from_leq(range(4), "0123", lambda a, b: a <= b)
    # 0 <= 2 dropped after validation: the lower-interval recursion gives
    # mu(0, 3) = -(mu(0, 0) + mu(0, 1)) = 0, the upper one
    # -(mu(3, 3) + mu(1, 3)) = -1, as mu(1, 3) = 0
    chain.leq_matrix = tuple(
        tuple(i <= j and (i, j) != (0, 2) for j in range(4)) for i in range(4)
    )
    with pytest.raises(InvariantError, match=r"^Moebius recursions disagree at \(0,3\): 0 vs -1$"):
        MobiusTable(chain)


def test_classical_mobius():
    assert classical_mobius(1) == 1
    assert classical_mobius(6) == 1
    assert classical_mobius(12) == 0
    assert classical_mobius(30) == -1
    values = [classical_mobius(n) for n in range(1, 13)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_divisor_poset_matches_classical():
    for n in (6, 12, 30, 36):
        p = divisor_poset(n)
        mu = mobius(p)
        assert mu.mu(1, n) == classical_mobius(n)
        for d in [k for k in range(1, n + 1) if n % k == 0]:
            assert mu.mu(d, n) == classical_mobius(n // d)


def test_adjoin_bottom_top():
    p = Poset.from_leq([], [], lambda a, b: True)
    single = adjoin_bottom(p)
    assert len(single) == 1
    both = adjoin_top(adjoin_bottom(Poset.from_leq([1], ["1"], lambda a, b: True)))
    assert len(both) == 3
    mu = mobius(both)
    assert mu.mu(BOTTOM_KEY, TOP_KEY) == 0  # chain of length 2


def test_adjoin_rejects_duplicate():
    p = adjoin_bottom(Poset.from_leq(["x"], ["x"], lambda a, b: True))
    with pytest.raises(ValueError):
        adjoin_bottom(p)


def test_kernel_poset_elementary_abelian():
    for m in (2, 3):
        g = parse_group_spec("x".join(["C2"] * m))
        poset = kernel_poset(character_table(g))
        mu = mobius(poset)
        whole = tuple(range(g.order))
        assert mu.mu(BOTTOM_KEY, whole) == 2**m - 2
        index_two = [k for k in poset.keys if k not in (BOTTOM_KEY, whole)]
        assert len(index_two) == 2**m - 1
        for k in index_two:
            assert mu.mu(BOTTOM_KEY, k) == -1


def test_kernel_poset_cyclic_group_degenerates():
    g = cyclic_group(6)
    poset = kernel_poset(character_table(g))
    mu = mobius(poset)
    assert (g.identity,) in poset.keys
    for key in poset.keys:
        if key in (BOTTOM_KEY, (g.identity,)):
            continue
        assert mu.mu(BOTTOM_KEY, key) == 0


def test_kernel_poset_trivial_group():
    g = cyclic_group(1)
    poset = kernel_poset(character_table(g))
    assert len(poset) == 2  # bottom and G


def test_cyclic_poset_elementary_abelian_and_q8():
    for m in (2, 3):
        g = parse_group_spec("x".join(["C2"] * m))
        poset = cyclic_poset(g)
        mu = mobius(poset)
        assert mu.mu((g.identity,), TOP_KEY) == 2**m - 2
        for key in poset.keys:
            if key in ((g.identity,), TOP_KEY):
                continue
            assert mu.mu(key, TOP_KEY) == -1
    q8 = dicyclic_group(2)
    mu = mobius(cyclic_poset(q8))
    assert mu.mu((q8.identity,), TOP_KEY) == 0


def test_cyclic_poset_matches_classical_mobius():
    # interior values of the cyclic-subgroup poset of Z/n follow mu([B:C])
    for n in range(2, 61):
        g = cyclic_group(n)
        poset = cyclic_poset(g)
        mu = mobius(poset)
        subs = [k for k in poset.keys if k != TOP_KEY]
        for c in subs:
            for b in subs:
                if set(c) <= set(b):
                    assert mu.mu(c, b) == classical_mobius(len(b) // len(c))


def test_unit_partition_identity():
    # -sum_C mu(C, top)/[G:C] = 1 for every supported group
    for spec in ("C1", "C6", "C2xC2", "S3", "Q8", "A4", "D4", "C2xC6", "Dic3"):
        g = parse_group_spec(spec)
        poset = cyclic_poset(g)
        mu = mobius(poset)
        total = Fraction(0)
        for key in poset.keys:
            if key == TOP_KEY:
                continue
            total -= Fraction(mu.mu(key, TOP_KEY) * len(key), g.order)
        assert total == 1, spec


def test_mobius_inversion_randomized():
    rng = random.Random(13)
    for _ in range(40):
        p = random_poset(rng, max_elements=6)
        f = {k: Fraction(rng.randrange(-5, 6)) for k in p.keys}
        n = len(p)
        g_up = {
            p.keys[x]: sum(
                (f[p.keys[y]] for y in range(n) if p.leq_matrix[x][y]), start=Fraction(0)
            )
            for x in range(n)
        }
        assert mobius_inversion_check(p, f, g_up)


def test_mobius_inversion_constant_on_antichain():
    p = Poset.from_leq([0, 1, 2], list("012"), lambda a, b: a == b)
    f = {k: Fraction(1) for k in p.keys}
    assert mobius_inversion_check(p, f, dict(f))


def test_hasse_dot_shapes():
    chain = Poset.from_leq([0, 1, 2], list("012"), lambda a, b: a <= b)
    dot = hasse_dot(chain)
    assert dot.count("->") == 2
    s3 = symmetric_group(3)
    dot = hasse_dot(cyclic_poset(s3))
    # {1} covered by the 4 nontrivial cyclic subgroups, each covered by top
    assert dot.count("->") == 8
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    from galois_span.groups import all_subgroups
    from galois_span.posets import subgroup_poset

    diamond = subgroup_poset(all_subgroups(klein))
    dot = hasse_dot(diamond)
    assert dot.count("->") == 6  # bottom to 3 atoms, 3 atoms to top


def test_posets_and_mobius_tables_are_kept_and_read_only():
    g = parse_group_spec("S4")
    table = character_table(g)
    assert cyclic_poset(g) is cyclic_poset(g)
    assert kernel_poset(table) is kernel_poset(table)
    for poset in (cyclic_poset(g), kernel_poset(table)):
        mu = mobius(poset)
        assert mobius(poset) is mu
        with pytest.raises(TypeError):
            mu.values[(0, 0)] = 5
        # the kept table equals one computed on an equal, fresh poset
        fresh = Poset(poset.keys, poset.labels, poset.leq_matrix)
        assert dict(mobius(fresh).values) == dict(mu.values)


def test_kept_kernels_are_handed_out_read_only():
    from galois_span.covers import derived_graph, random_connected_voltage
    from galois_span.graphs import bouquet
    from galois_span.groups import Subgroup
    from galois_span.theorems import verify_kuroda

    def kuroda_outputs(g):
        table = character_table(g)
        poset = kernel_poset(table)
        cover = derived_graph(random_connected_voltage(bouquet(2), g, seed=3))
        return poset.keys, poset.leq_matrix, verify_kuroda(cover).to_json_dict()

    g = parse_group_spec("S4")
    kernels = kernel_subgroups(character_table(g))
    whole = Subgroup._trusted(g, range(g.order))
    key = next(iter(kernels))
    with pytest.raises(TypeError):
        kernels[key] = whole
    with pytest.raises(TypeError):
        del kernels[key]
    assert kernel_subgroups(character_table(g)) == kernels
    assert kuroda_outputs(g) == kuroda_outputs(parse_group_spec("S4"))
