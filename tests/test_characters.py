import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from galois_span.characters import (
    CharacterTable,
    ClassFunction,
    _hessenberg_mod,
    _hessenberg_nullspace_mod,
    _rref_mod,
    _undo_similarity_mod,
    _verify_table,
    artin_coefficients,
    character_table,
    induced_trivial_character,
    inner_product,
    is_exceptional,
    is_irreducibly_represented,
    one_dim_characters,
    verify_eq3,
)
from galois_span.cyclotomic import CyclotomicInt
from galois_span.errors import (
    GeneratorDependentError,
    MismatchedGroupError,
    NotAbelianError,
    NotRationalValuedError,
)
from galois_span.groups import (
    cyclic_group,
    cyclic_subgroups,
    dicyclic_group,
    direct_product,
    generated_subgroup,
    parse_group_spec,
    symmetric_group,
)
from galois_span.posets import TOP_KEY, cyclic_poset, mobius
from helpers import nullspace_mod

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


def test_tables_are_reproducible_and_seedable():
    g = symmetric_group(3)
    t1 = character_table(g, seed=0)
    t2 = character_table(g, seed=0)
    assert t1 is t2  # cached
    g2 = symmetric_group(3)
    t3 = character_table(g2, seed=5)
    assert [c.values for c in t1.characters] == [c.values for c in t3.characters]


def test_row_and_column_orthogonality():
    for spec in SMALL_GROUPS:
        g = parse_group_spec(spec)
        table = character_table(g)
        chars = table.characters
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                assert inner_product(chi, psi) == (1 if i == j else 0)
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
            k = table.kernel_of(chi)
            assert k.is_normal()


def test_kernel_examples():
    g = direct_product(cyclic_group(2), cyclic_group(6))
    table = character_table(g)
    kernels = {table.kernel_of(c).elements for c in table.characters}
    assert len(kernels) == 8
    assert tuple(range(12)) in kernels  # trivial character -> G
    orders = sorted(len(k) for k in kernels)
    assert orders == [2, 2, 2, 4, 6, 6, 6, 12]
    cn = cyclic_group(5)
    t5 = character_table(cn)
    assert any(t5.kernel_of(c).is_trivial() for c in t5.characters)


def test_flags():
    assert is_irreducibly_represented(cyclic_group(4))
    assert not is_irreducibly_represented(parse_group_spec("C2xC2"))
    assert is_irreducibly_represented(symmetric_group(3))
    assert not is_exceptional(symmetric_group(3))
    assert is_exceptional(dicyclic_group(2))
    assert is_exceptional(parse_group_spec("C2xC6"))
    assert not is_exceptional(parse_group_spec("C2xC2"))


def test_induced_trivial_character_values():
    s3 = symmetric_group(3)
    table = character_table(s3)
    whole = generated_subgroup(s3, range(6))
    assert induced_trivial_character(table, whole).values == (1, 1, 1)
    triv = generated_subgroup(s3, [])
    assert induced_trivial_character(table, triv).values == (6, 0, 0)
    c2 = [h for h in cyclic_subgroups(s3) if h.order == 2][0]
    assert induced_trivial_character(table, c2).values == (3, 1, 0)


def test_induction_decompositions():
    s3 = symmetric_group(3)
    table = character_table(s3)
    c2 = [h for h in cyclic_subgroups(s3) if h.order == 2][0]
    ind = induced_trivial_character(table, c2)
    decomposition = [inner_product(ind, chi) for chi in table.characters]
    assert decomposition == [1, 0, 1]
    # regular character decomposes with multiplicities = degrees
    triv = generated_subgroup(s3, [])
    reg = induced_trivial_character(table, triv)
    assert [inner_product(reg, chi) for chi in table.characters] == [
        chi.degree for chi in table.characters
    ]


def test_frobenius_reciprocity():
    for spec in ("S3", "D4", "Q8", "A4"):
        g = parse_group_spec(spec)
        table = character_table(g)
        for h in cyclic_subgroups(g):
            ind = induced_trivial_character(table, h)
            for chi in table.characters:
                lhs = inner_product(ind, chi)
                total = CyclotomicInt.zero(table.e)
                for x in h.elements:
                    total = total + chi.value_at_inverse(table.class_of[x])
                assert lhs == Fraction(total.as_int(), h.order)


def test_inner_product_group_mismatch():
    t1 = character_table(symmetric_group(3))
    t2 = character_table(cyclic_group(6))
    with pytest.raises(MismatchedGroupError):
        inner_product(t1.characters[0], t2.characters[0])


def test_artin_coefficients_trivial_character():
    from galois_span.posets import cyclic_poset, mobius

    for spec in ("S3", "Q8", "C6", "A4", "D4"):
        g = parse_group_spec(spec)
        table = character_table(g)
        triv = ClassFunction(group=g, values=tuple(Fraction(1) for _ in range(table.class_count)))
        coeffs = artin_coefficients(table, triv)
        mu = mobius(cyclic_poset(g))
        for c in cyclic_subgroups(g):
            assert coeffs[c.elements] == Fraction(-mu.mu(c.elements, TOP_KEY), c.index())


def test_artin_coefficients_cyclic_trivial():
    g = cyclic_group(6)
    table = character_table(g)
    triv = ClassFunction(group=g, values=tuple(Fraction(1) for _ in range(table.class_count)))
    coeffs = artin_coefficients(table, triv)
    whole = tuple(range(6))
    assert coeffs[whole] == 1
    assert all(v == 0 for k, v in coeffs.items() if k != whole)


def test_artin_rejects_irrational_and_generator_dependent():
    g = cyclic_group(5)
    table = character_table(g)
    nontrivial = table.characters[1]
    with pytest.raises(NotRationalValuedError):
        artin_coefficients(table, nontrivial)
    # rational values that depend on the generator within a cyclic subgroup
    c5 = cyclic_group(5)
    t5 = character_table(c5)
    lopsided = ClassFunction(
        group=c5, values=tuple(Fraction(k) for k in range(t5.class_count))
    )
    with pytest.raises(GeneratorDependentError):
        artin_coefficients(t5, lopsided)


def test_verify_eq3_small_groups():
    for spec in SMALL_GROUPS:
        report = verify_eq3(parse_group_spec(spec))
        assert report.passed, (spec, report.notes)


def test_one_dim_characters():
    c2 = cyclic_group(2)
    chars = one_dim_characters(c2)
    assert chars == [(0, 0), (0, 1)]
    c4 = cyclic_group(4)
    chars4 = one_dim_characters(c4)
    assert (0, 1, 2, 3) in chars4
    g = parse_group_spec("C2xC6")
    table = character_table(g)
    maps = one_dim_characters(g)
    assert len(maps) == 12
    # kernels from the exponent maps match the table kernels
    for exps, chi in zip(maps, table.characters):
        kernel = tuple(x for x in range(g.order) if exps[x] == 0)
        assert kernel == table.kernel_of(chi).elements
    with pytest.raises(NotAbelianError):
        one_dim_characters(symmetric_group(3))


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

    from galois_span.characters import _charpoly_mod
    from galois_span.linalg import det_ring
    from galois_span.polynomials import IntPoly

    rng = _random.Random(17)
    p = 97
    for _ in range(25):
        n = rng.randrange(1, 6)
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        got = _charpoly_mod(a, p)
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
    """sha256 over the sorted-key JSON dumps at seeds 0 and 1, each followed by a newline."""
    g = parse_group_spec(spec)
    digest = hashlib.sha256()
    for seed in (0, 1):
        dump = json.dumps(character_table(g, seed).to_json_dict(), sort_keys=True)
        digest.update(dump.encode() + b"\n")
    assert digest.hexdigest() == DIGESTS[spec]


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


def _orthogonality_by_inner_products(table):
    """Oracle: the r^2/2 pairwise CyclotomicInt inner products."""
    chars = table.characters
    for i, chi in enumerate(chars):
        for j in range(i, len(chars)):
            if inner_product(chi, chars[j]) != (1 if i == j else 0):
                raise ArithmeticError(f"row orthogonality fails at ({i},{j})")


def _with_values(table, changes):
    """Copy of the table with some characters' value vectors replaced."""
    chars = list(table.characters)
    for index, values in changes.items():
        chars[index] = replace(chars[index], values=tuple(values))
    return CharacterTable(table.group, table.classes, table.e, table.prime, tuple(chars))


@pytest.mark.parametrize("spec", SMALL_GROUPS + ["C8xC8", "D32"])
def test_packed_orthogonality_check_accepts_tables(spec):
    _verify_table(character_table(parse_group_spec(spec)))


@pytest.mark.parametrize("spec", ["C6", "C2xC6", "D4", "Q8", "A4", "Dic3", "C3xC3", "S4"])
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
