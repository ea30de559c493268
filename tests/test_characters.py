import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from galois_span import characters
from galois_span.characters import (
    Character,
    CharacterTable,
    _dixon_characters,
    _hessenberg_mod,
    _hessenberg_nullspace_mod,
    _rref_mod,
    _table_order,
    _undo_similarity_mod,
    _verify_table,
    character_table,
    induced_trivial_values,
    inner_product,
)
from galois_span.cyclotomic import CyclotomicInt
from galois_span.errors import InvariantError
from galois_span.groups import (
    all_subgroups,
    cyclic_group,
    cyclic_subgroups,
    dicyclic_group,
    direct_product,
    generated_subgroup,
    parse_group_spec,
    symmetric_group,
)
from galois_span.posets import TOP_KEY, cyclic_poset, mobius
from galois_span.table1 import TABLE1_FLAGS
from galois_span.theorems import verify_eq3
from helpers import (
    artin_coefficients,
    character_inner_product,
    character_kernel,
    induced_trivial_values_by_products,
    is_irreducibly_represented_by_characters,
    linear_reps,
    nullspace_mod,
)

SMALL_GROUPS = ["C1", "C2", "C5", "C6", "C2xC2", "C2xC6", "S3", "D4", "Q8", "A4", "Dic3", "C3xC3"]


def test_s3_degrees_and_values():
    table = character_table(symmetric_group(3))
    assert [c.degree for c in table.characters] == [1, 1, 2]
    two = table.characters[2]
    # value 0 at transpositions, -1 at 3-cycles
    assert two.value_cyclo(1) == 0
    assert two.value_cyclo(2) == -1


def test_abelian_tables_all_degree_one():
    for spec in ("C6", "C2xC6", "C3xC3", "C2xC2xC2"):
        g = parse_group_spec(spec)
        table = character_table(g)
        assert len(table.characters) == g.order
        assert all(c.degree == 1 for c in table.characters)


def test_q8_degrees():
    table = character_table(dicyclic_group(2))
    assert sorted(c.degree for c in table.characters) == [1, 1, 1, 1, 2]
    assert sum(c.degree**2 for c in table.characters) == 8


def test_tables_are_kept_and_reproducible():
    g = symmetric_group(3)
    t1 = character_table(g)
    assert character_table(g) is t1  # kept on the group
    g2 = symmetric_group(3)
    assert [c.values for c in character_table(g2).characters] == [c.values for c in t1.characters]
    # Dixon's method called directly sorts to the same characters
    t3 = sorted(_dixon_characters(g2, g2.exponent()), key=_table_order)
    assert [c.values for c in t3] == [c.values for c in t1.characters]


def test_row_and_column_orthogonality():
    for spec in SMALL_GROUPS:
        g = parse_group_spec(spec)
        table = character_table(g)
        chars = table.characters
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                assert character_inner_product(chi, psi) == (1 if i == j else 0)
        # column orthogonality: sum_i chi_i(g) chi_i(h^-1) = |C_G(g)| delta
        r = table.class_count
        for a in range(r):
            for b in range(r):
                total = CyclotomicInt.zero(table.e)
                for chi in chars:
                    total = total + chi.value_cyclo(a) * chi.value_at_inverse(b)
                expected = g.order // table.class_sizes[a] if a == b else 0
                assert total == expected


def test_kernels_are_normal_and_conjugation_invariant():
    for spec in ("S3", "D4", "Q8", "A4", "C2xC6"):
        g = parse_group_spec(spec)
        table = character_table(g)
        for chi in table.characters:
            k = character_kernel(table, chi)
            assert k.is_normal()


def test_kernel_examples():
    g = direct_product(cyclic_group(2), cyclic_group(6))
    table = character_table(g)
    kernels = {character_kernel(table, c).elements for c in table.characters}
    assert len(kernels) == 8
    assert tuple(range(12)) in kernels  # trivial character -> G
    orders = sorted(len(k) for k in kernels)
    assert orders == [2, 2, 2, 4, 6, 6, 6, 12]
    cn = cyclic_group(5)
    t5 = character_table(cn)
    assert any(character_kernel(t5, c).is_trivial() for c in t5.characters)


def test_induced_trivial_character_values():
    s3 = symmetric_group(3)
    whole = generated_subgroup(s3, range(6))
    assert induced_trivial_values(whole) == (1, 1, 1)
    triv = generated_subgroup(s3, [])
    assert induced_trivial_values(triv) == (6, 0, 0)
    c2 = [h for h in cyclic_subgroups(s3) if h.order == 2][0]
    assert induced_trivial_values(c2) == (3, 1, 0)


def test_induction_decompositions():
    s3 = symmetric_group(3)
    table = character_table(s3)
    c2 = [h for h in cyclic_subgroups(s3) if h.order == 2][0]
    ind = induced_trivial_values(c2)
    decomposition = [inner_product(ind, chi) for chi in table.characters]
    assert decomposition == [1, 0, 1]
    # regular character decomposes with multiplicities = degrees
    triv = generated_subgroup(s3, [])
    reg = induced_trivial_values(triv)
    assert [inner_product(reg, chi) for chi in table.characters] == [
        chi.degree for chi in table.characters
    ]


def test_frobenius_reciprocity():
    for spec in ("S3", "D4", "Q8", "A4"):
        g = parse_group_spec(spec)
        table = character_table(g)
        for h in cyclic_subgroups(g):
            ind = induced_trivial_values(h)
            for chi in table.characters:
                lhs = inner_product(ind, chi)
                total = CyclotomicInt.zero(table.e)
                for x in h.elements:
                    total = total + chi.value_at_inverse(table.class_of[x])
                assert lhs == Fraction(total.as_int(), h.order)


def test_inner_product_with_a_class_function_that_is_no_virtual_character_raises():
    # 1 at the identity and 0 elsewhere pairs with the trivial character to 1/6
    table = character_table(symmetric_group(3))
    with pytest.raises(InvariantError, match="not an integer"):
        inner_product((1, 0, 0), table.characters[0])


def test_artin_coefficients_trivial_character():
    for spec in ("S3", "Q8", "C6", "A4", "D4"):
        g = parse_group_spec(spec)
        table = character_table(g)
        coeffs = artin_coefficients(table, [1] * table.class_count)
        mu = mobius(cyclic_poset(g))
        for c in cyclic_subgroups(g):
            assert coeffs[c.elements] == Fraction(-mu.mu(c.elements, TOP_KEY), c.index())


def test_artin_coefficients_cyclic_trivial():
    g = cyclic_group(6)
    table = character_table(g)
    coeffs = artin_coefficients(table, [1] * table.class_count)
    whole = tuple(range(6))
    assert coeffs[whole] == 1
    assert all(v == 0 for k, v in coeffs.items() if k != whole)


def test_verify_eq3_small_groups():
    for spec in SMALL_GROUPS:
        report = verify_eq3(parse_group_spec(spec))
        assert report.passed, (spec, report.notes)


def test_one_dim_characters():
    # the degree-one characters of a table, read element by element (as
    # `verify_factorization` reads them): homomorphisms with the table's kernels
    for spec, count in (("C2", 2), ("C4", 4), ("C2xC6", 12), ("S3", 2), ("A4", 3), ("Q8", 4)):
        g = parse_group_spec(spec)
        table = character_table(g)
        reps = linear_reps(g)
        linear = [chi for chi in table.characters if chi.degree == 1]
        assert len(reps) == len(linear) == count
        for values, chi in zip(reps, linear):
            pairs = ((a, b) for a in range(g.order) for b in range(g.order))
            assert all(values[a] * values[b] == values[g.mul(a, b)] for a, b in pairs)
            one = CyclotomicInt.one(table.e)
            kernel = tuple(x for x in range(g.order) if values[x] == one)
            assert kernel == character_kernel(table, chi).elements
    assert linear_reps(cyclic_group(2)) == [
        (1, 1),
        (1, -1),
    ]


def test_character_table_json_dump():
    table = character_table(symmetric_group(3))
    data = table.to_json_dict()
    assert data["order"] == 6
    assert [c["size"] for c in data["classes"]] == [1, 3, 2]
    assert [c["degree"] for c in data["characters"]] == [1, 1, 2]
    import json

    json.dumps(data)


def test_charpoly_mod_against_polynomial_determinant():
    import random as _random

    from galois_span.polynomials import IntPoly
    from helpers import charpoly_mod, det_ring

    rng = _random.Random(17)
    p = 97
    for _ in range(25):
        n = rng.randrange(1, 6)
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        got = charpoly_mod(a, p)
        # oracle: det(xI - A) over Z[x], reduced mod p
        mat = [
            [
                (IntPoly((0, 1)) if i == j else IntPoly()) - IntPoly((a[i][j],))
                for j in range(n)
            ]
            for i in range(n)
        ]
        expected = det_ring(mat, IntPoly((1,)))
        want = [c % p for c in expected.coeffs] + [0] * (n + 1 - len(expected.coeffs))
        assert [c % p for c in got] == want


def _mat_mul_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _inverse_mod(a, p):
    n = len(a)
    rref, pivots = _rref_mod([row + [int(i == j) for j in range(n)] for i, row in enumerate(a)], p)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rref]


def _random_diagonalizable(rng, n, p):
    """P D P^-1 mod p with eigenvalues drawn from a few values, so most repeat."""
    while True:
        q = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        q_inv = _inverse_mod(q, p)
        if q_inv is not None:
            break
    values = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
    d = [[rng.choice(values) if i == j else 0 for j in range(n)] for i in range(n)]
    return _mat_mul_mod(_mat_mul_mod(q, d, p), q_inv, p)


def _assert_hessenberg_nullspaces_match_dense(a, p, lams):
    h, ops = _hessenberg_mod(a, p)
    n = len(a)
    assert all(h[i][j] == 0 for i in range(n) for j in range(i - 1))
    for lam in lams:
        dense = nullspace_mod([[(a[i][j] - lam * (i == j)) % p for j in range(n)] for i in range(n)], p)
        vecs = [_undo_similarity_mod(v, ops, p) for v in _hessenberg_nullspace_mod(h, lam, p)]
        assert len(vecs) == len(dense)
        if dense:
            assert _rref_mod(vecs, p) == _rref_mod(dense, p)


def test_hessenberg_nullspace_matches_dense_on_diagonalizable_matrices():
    rng = random.Random(29)
    for p in (17, 97):
        for _ in range(40):
            a = _random_diagonalizable(rng, rng.randrange(1, 9), p)
            _assert_hessenberg_nullspaces_match_dense(a, p, range(p))


def test_hessenberg_nullspace_matches_dense_on_random_matrices():
    rng = random.Random(31)
    p = 13
    for _ in range(60):
        n = rng.randrange(1, 8)
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        _assert_hessenberg_nullspaces_match_dense(a, p, range(p))


def test_hessenberg_nullspace_with_zero_subdiagonal():
    p = 17
    rng = random.Random(37)
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    scalar = [[7 * int(i == j) for j in range(6)] for i in range(6)]
    blocks = []
    for sizes in ((2, 3), (1, 1, 4), (3, 1, 2, 2)):
        n = sum(sizes)
        a = [[0] * n for _ in range(n)]
        start = 0
        for size in sizes:
            block = _random_diagonalizable(rng, size, p)
            for i in range(size):
                a[start + i][start : start + size] = block[i]
            start += size
        blocks.append(a)
    for a in [identity, scalar] + blocks:
        h, _ = _hessenberg_mod(a, p)
        assert any(h[i][i - 1] == 0 for i in range(1, len(a)))
        _assert_hessenberg_nullspaces_match_dense(a, p, range(p))


DIGESTS = json.loads((Path(__file__).parent / "character_table_digests.json").read_text())


@pytest.mark.parametrize("spec", sorted(DIGESTS))
def test_character_tables_are_byte_identical_to_recorded_dumps(spec):
    """sha256 over the sorted-key JSON dump, twice, each followed by a newline.

    The digests were recorded when Dixon's method still drew a random split,
    over the dumps at two seeds, which always agreed.
    """
    g = parse_group_spec(spec)
    dump = json.dumps(character_table(g).to_json_dict(), sort_keys=True).encode() + b"\n"
    assert hashlib.sha256(dump + dump).hexdigest() == DIGESTS[spec]


DIXON_SPECS = [
    spec
    for spec in sorted(DIGESTS)
    if not parse_group_spec(spec).is_abelian()
]


@pytest.mark.parametrize("spec", DIXON_SPECS)
def test_dixon_tables_equal_the_kept_table(spec):
    g = parse_group_spec(spec)
    table = character_table(g)
    dixon = sorted(_dixon_characters(g, g.exponent()), key=_table_order)
    assert tuple(dixon) == table.characters


def test_a_split_without_roots_is_refused_as_not_diagonalizable(monkeypatch):
    def no_root(h, p):
        # x^2 - c for a non-square c has no root in F_p
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        return [-c % p, 0, 1]

    monkeypatch.setattr(characters, "_hessenberg_charpoly_mod", no_root)
    g = symmetric_group(3)
    with pytest.raises(InvariantError) as refusal:
        _dixon_characters(g, g.exponent())
    assert str(refusal.value) == "class matrix not diagonalizable mod p"


def test_spaces_that_never_split_are_refused(monkeypatch):
    # the whole space for the first root of each split, nothing for the rest
    last = []

    def whole_space(h, lam, p):
        if last and last[-1] is h:
            return []
        last.append(h)
        return [[int(i == j) for j in range(len(h))] for i in range(len(h))]

    monkeypatch.setattr(characters, "_hessenberg_nullspace_mod", whole_space)
    g = symmetric_group(3)
    with pytest.raises(InvariantError) as refusal:
        _dixon_characters(g, g.exponent())
    assert str(refusal.value) == "failed to split eigenspaces of the class matrices"
    assert len(last) > 1  # more than one class matrix was tried


ABELIAN_SPECS = sorted(s for s in TABLE1_FLAGS if parse_group_spec(s).is_abelian()) + [
    "C8xC8",
    "C2xC2xC2xC2xC2",
    "C4xC4xC2",
]


@pytest.mark.parametrize("spec", ABELIAN_SPECS)
def test_abelian_tables_from_the_dual_group_equal_dixon_tables(spec, monkeypatch):
    g = parse_group_spec(spec)
    dixon = tuple(sorted(_dixon_characters(g, g.exponent()), key=_table_order))

    def refuse(group, e):
        raise AssertionError("an abelian group went through Dixon's method")

    monkeypatch.setattr(characters, "_dixon_characters", refuse)
    assert character_table(g).characters == dixon


def test_a_direct_product_takes_dixons_route_on_the_product_itself(monkeypatch):
    g = parse_group_spec("C2xC2xS3")
    calls = []
    for route in ("_dual_group_characters", "_dixon_characters"):

        def logged(group, *args, original=getattr(characters, route), route=route):
            calls.append((route, group))
            return original(group, *args)

        monkeypatch.setattr(characters, route, logged)
    character_table(g)
    assert calls == [("_dixon_characters", g)]


def test_a_table_file_gives_the_table_of_the_spec_it_was_written_from(tmp_path):
    """The table depends on the group alone, not on how it was built."""
    product = parse_group_spec("C2xS4")
    path = tmp_path / "c2xs4.json"
    path.write_text(json.dumps({"table": product.cayley, "labels": product.labels}))
    expected, table = character_table(product), character_table(parse_group_spec(f"table:{path}"))
    assert table.group is not product
    assert table.classes == expected.classes
    assert [chi.degree for chi in table.characters] == [chi.degree for chi in expected.characters]
    assert [chi.values for chi in table.characters] == [chi.values for chi in expected.characters]


def test_sqrt_mod_roundtrip():
    import random as _random

    from galois_span.characters import _sqrt_mod

    rng = _random.Random(23)
    for p in (13, 73, 97, 193):
        for _ in range(20):
            x = rng.randrange(1, p)
            r = _sqrt_mod(x * x % p, p)
            assert r * r % p == x * x % p
    with pytest.raises(ArithmeticError):
        _sqrt_mod(5, 13)  # 5 is not a QR mod 13


def test_sqrt_mod_gives_the_root_at_most_half_p_or_raises_on_every_small_prime():
    # every Dixon prime of the Table-1 and benchmark groups lies in 5 ... 97
    from galois_span.characters import _sqrt_mod
    from galois_span.numtheory import is_prime

    for p in filter(is_prime, range(5, 98)):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            if a in squares:
                r = _sqrt_mod(a, p)
                assert r * r % p == a and r <= p // 2
            else:
                with pytest.raises(InvariantError, match=f"^{a} is not a square mod {p}$"):
                    _sqrt_mod(a, p)


def _orthogonality_by_inner_products(table):
    """Oracle: the r^2/2 pairwise CyclotomicInt inner products."""
    chars = table.characters
    for i, chi in enumerate(chars):
        for j in range(i, len(chars)):
            if character_inner_product(chi, chars[j]) != (1 if i == j else 0):
                raise ArithmeticError(f"row orthogonality fails at ({i},{j})")


def _with_values(table, changes):
    """Copy of the table with some characters' value vectors replaced."""
    chars = list(table.characters)
    for index, values in changes.items():
        chi = chars[index]
        chars[index] = Character(chi.group, chi.e, chi.degree, tuple(values))
    return CharacterTable(table.group, table.classes, table.e, tuple(chars))


@pytest.mark.parametrize("spec", SMALL_GROUPS + ["C8xC8", "D32"])
def test_packed_orthogonality_check_accepts_tables(spec):
    _verify_table(character_table(parse_group_spec(spec)))


@pytest.mark.parametrize(
    "spec",
    [
        "C6",
        "C2xC6",
        "D4",
        "Q8",
        "A4",
        "Dic3",
        "C3xC3",
        "S4",
        "C8xC8",
        "C2xC2xC2xC2xC2",
        "C3xS3",
        "S3xS3",
        "C2xC2xA4",
    ],
)
def test_packed_orthogonality_check_rejects_corrupted_tables(spec):
    table = character_table(parse_group_spec(spec))
    chars, r = table.characters, table.class_count
    # one eigenvalue of a non-trivial character moves from zeta^0 to zeta^1
    i, k = next(
        (i, k)
        for i in range(1, r)
        for k in range(1, r)
        if chars[i].values[k][0] > 0
    )
    values = [list(v) for v in chars[i].values]
    values[k][0] -= 1
    values[k][1] += 1
    moved = _with_values(table, {i: map(tuple, values)})
    # two characters of one degree exchange their vectors at one class; they
    # must differ at another class too, or the swap only relabels the rows
    i, j, k = next(
        (i, j, k)
        for i in range(r)
        for j in range(i + 1, r)
        if chars[i].degree == chars[j].degree
        for k in range(1, r)
        if sum(a != b for a, b in zip(chars[i].values, chars[j].values)) > 1
        and chars[i].values[k] != chars[j].values[k]
    )
    a, b = list(chars[i].values), list(chars[j].values)
    a[k], b[k] = b[k], a[k]
    swapped = _with_values(table, {i: a, j: b})
    for corrupt in (moved, swapped):
        with pytest.raises(ArithmeticError):
            _verify_table(corrupt)
        with pytest.raises(ArithmeticError):
            _orthogonality_by_inner_products(corrupt)


def test_packed_orthogonality_check_sees_irrational_parts():
    # in Z[zeta_6], zeta^5 = 1 - zeta: moving an eigenvalue of the trivial
    # character from zeta^0 to zeta^5 keeps every rational part of the Gram matrix
    table = character_table(parse_group_spec("C6"))
    trivial = table.characters[0]
    for k in range(1, table.class_count):
        values = list(trivial.values)
        values[k] = (0, 0, 0, 0, 0, 1)
        corrupt = _with_values(table, {0: values})
        with pytest.raises(ArithmeticError):
            _verify_table(corrupt)
        with pytest.raises(ArithmeticError):
            _orthogonality_by_inner_products(corrupt)


@pytest.mark.parametrize("spec", sorted(TABLE1_FLAGS) + ["C8xC8", "D32", "C2xC2xC2xC2xC2"])
def test_faithfulness_from_class_values_agrees_with_the_kernel_subgroup(spec):
    g = parse_group_spec(spec)
    table = character_table(g)
    expected = any(character_kernel(table, chi).is_trivial() for chi in table.characters)
    assert is_irreducibly_represented_by_characters(g) is expected


@pytest.mark.parametrize("spec", sorted(TABLE1_FLAGS) + ["C2xS4"])
def test_induced_trivial_characters_agree_with_products(spec):
    g = parse_group_spec(spec)
    table = character_table(g)
    for h in all_subgroups(g):
        expected = induced_trivial_values_by_products(table, h)
        values = induced_trivial_values(h)
        assert list(values) == expected and all(type(v) is int for v in values)
