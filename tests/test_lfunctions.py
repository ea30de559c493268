import json
import random

import pytest

from galois_span.covers import VoltageAssignment, derived_graph, is_galois, random_connected_voltage
from galois_span.errors import (
    EulerZeroError,
    InvariantError,
    MismatchedGroupError,
    NotAbelianError,
)
from galois_span.graphs import (
    bouquet,
    build_graph,
    complete_graph,
    cycle_graph,
    hashimoto_check,
    path_graph,
    zeta_numerator,
)
from galois_span.groups import (
    Subgroup,
    all_subgroups,
    cyclic_group,
    parse_group_spec,
    symmetric_group,
)
from galois_span.characters import character_table
from galois_span.cli import main
from galois_span.polynomials import IntPoly
from galois_span.cyclotomic import CyclotomicInt
from galois_span.lfunctions import (
    character_h_polys,
    derived_h_poly,
    h_from_traces,
    h_poly,
    verify_factorization,
    verify_inter_rel,
    verify_prop_formula,
    walk_table,
)
from helpers import (
    bouquet_h_formula,
    conjugate,
    dense_zeta_numerator_at,
    derived_walk_counts,
    det_ring,
    linear_reps,
    root,
    theta_graph,
    twisted_adjacency,
    walk_table_by_start,
)


def simple_cover(group_spec="C4", loops=2, volt=(1, 2)):
    g = parse_group_spec(group_spec)
    alpha = VoltageAssignment(base=bouquet(loops), group=g, volt=volt)
    return derived_graph(alpha)


def trivial_values(g):
    """The trivial character's value at every element, in Z[zeta_e] for e = exp(G)."""
    return (CyclotomicInt.one(g.exponent()),) * g.order


def test_trivial_rep_reduces_to_base_matrices():
    for cover in (simple_cover(), simple_cover("S3", 2, (2, 3))):
        a = twisted_adjacency(cover, trivial_values(cover.group))
        assert [[x.as_int() for x in row] for row in a] == cover.base.adjacency_matrix()


def test_regular_rep_matches_derived_graph():
    # the regular representation splits into chi(1) copies of each chi; the
    # linear ones go through the twisted determinant
    for spec, volt in (("C4", (1, 2)), ("S3", (2, 3)), ("C2xC2", (1, 2))):
        cover = simple_cover(spec, 2, volt)
        table = character_table(cover.group)
        product = IntPoly.const(1)
        for chi, h in zip(table.characters, character_hs(cover)):
            if chi.degree == 1:
                values = tuple(chi.value_cyclo(i) for i in table.class_of)
                h = h_poly(cover, values, table.e)
            for _ in range(chi.degree):
                product = product * h
        assert product == cover.derived.ihara_h_poly()


def test_zeta_numerator_matches_dense_determinants_on_twisted_integer_matrices():
    covers = [
        simple_cover("S3", 2, (2, 3)),
        derived_graph(random_connected_voltage(theta_graph(), parse_group_spec("D4"), 3)),
        derived_graph(random_connected_voltage(complete_graph(4), parse_group_spec("C2xC2"), 5)),
    ]
    checked = 0
    for cover in covers:
        # every linear character of S3, D4 and C2xC2 takes the values +-1
        e = character_table(cover.group).e
        for values in linear_reps(cover.group):
            ints = [[x.as_int() for x in row] for row in twisted_adjacency(cover, values)]
            d = cover.base.degrees()
            h = zeta_numerator(ints, d)
            assert h_poly(cover, values, e) == h
            for u in range(2 * len(ints) + 2):
                assert h(u) == dense_zeta_numerator_at(ints, d, u)
            checked += 1
    assert checked == 10


def test_h_poly_trivial_is_base_h():
    cover = simple_cover("C2xC2", 2, (1, 2))
    g = cover.group
    twisted, base = h_poly(cover, trivial_values(g), g.exponent()), cover.base.ihara_h_poly()
    assert twisted == base
    # cyclotomic coefficients with rational values hash as their ints
    assert hash(twisted) == hash(base)
    assert len({twisted, base}) == 1


def character_hs(cover):
    """h(u, chi) for every chi of the cover's character table, by the character route."""
    table = character_table(cover.group)
    return character_h_polys(cover, table, table.characters)


def test_single_loop_z4_example():
    g = cyclic_group(4)
    cover = derived_graph(VoltageAssignment(base=bouquet(1), group=g, volt=(1,)))
    values = sorted(h(1).as_int() for h in character_hs(cover))
    # 2 - zeta^k - zeta^-k over k = 0..3: 0, 2, 4, 2
    assert values == [0, 2, 2, 4]


def test_bouquet_formula_matches_h_at_one():
    # h(1, chi) of the character route against the closed form, chi by chi
    rng = random.Random(1)
    for spec in ("C2", "C4", "C6", "C2xC2", "C2xC6", "S3"):
        g = parse_group_spec(spec)
        volt = tuple(rng.randrange(g.order) for _ in range(2))
        cover = derived_graph(VoltageAssignment(base=bouquet(2), group=g, volt=volt))
        table = character_table(g)
        linear = character_h_polys(cover, table, [x for x in table.characters if x.degree == 1])
        reps = linear_reps(g)
        assert len(reps) == len(linear) == (2 if spec == "S3" else g.order)
        for values, h in zip(reps, linear):
            assert bouquet_h_formula(cover, values) == h(1)


def test_bouquet_formula_c2_all_ones():
    g = cyclic_group(2)
    cover = derived_graph(VoltageAssignment(base=bouquet(2), group=g, volt=(1, 1)))
    nontrivial = linear_reps(g)[1]
    assert bouquet_h_formula(cover, nontrivial).as_int() == 8


def test_conjugate_character_pair_product_is_integer():
    cover = simple_cover("C6", 2, (1, 4))
    for h in character_hs(cover):
        value = h(1)
        conj = conjugate(value)
        prod = value * conj
        assert prod.is_rational_integer()
        assert prod.as_int() >= 0


def test_factorization_trivial_group():
    g = cyclic_group(1)
    cover = derived_graph(VoltageAssignment(base=bouquet(2), group=g, volt=(0, 0)))
    report = verify_factorization(cover)
    assert report.passed


def test_factorization_small_covers():
    cases = [
        ("C2", bouquet(2), (1, 0)),
        ("C6", bouquet(2), (1, 5)),
        ("C2xC2", bouquet(3), (1, 2, 3)),
    ]
    for spec, base, volt in cases:
        g = parse_group_spec(spec)
        cover = derived_graph(VoltageAssignment(base=base, group=g, volt=volt))
        assert verify_factorization(cover).passed


def test_factorization_multivertex_base():
    g = parse_group_spec("C2xC6")
    alpha = random_connected_voltage(theta_graph(), g, seed=3)
    assert verify_factorization(derived_graph(alpha)).passed


def test_irrational_character_product_is_an_invariant_error(monkeypatch, capsys):
    import galois_span.lfunctions as lfunctions

    def irrational_h_poly(c, values, e):
        # 1 + zeta_4 u for chi_0, chi_1, chi_2, and chi_3 = conj(chi_1) takes the
        # conjugate 1 - zeta_4 u: the product has the coefficient 2 zeta_4
        return IntPoly((CyclotomicInt.one(e), root(e)))

    monkeypatch.setattr(lfunctions, "h_poly", irrational_h_poly)
    with pytest.raises(InvariantError, match="not a rational integer"):
        verify_factorization(simple_cover("C4", 2, (1, 2)))
    argv = ["lfun", "verify-factor", "--base", "bouquet:2", "--group", "C4", "--voltage", "1;2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: CyclotomicInt(e=4, ")


def test_prop_formula_examples():
    fig2 = derived_graph(
        VoltageAssignment(
            base=bouquet(2),
            group=parse_group_spec("C2xC6"),
            volt=(
                parse_group_spec("C2xC6").element("(1,0)"),
                parse_group_spec("C2xC6").element("(0,1)"),
            ),
        )
    )
    report = verify_prop_formula(fig2)
    assert report.passed
    assert report.left == 12 * 117600


def test_prop_formula_random_abelian():
    rng = random.Random(2)
    for spec in ("C2", "C3", "C4", "C2xC4", "C3xC3"):
        g = parse_group_spec(spec)
        alpha = random_connected_voltage(bouquet(2), g, seed=rng.randrange(10**6))
        assert verify_prop_formula(derived_graph(alpha)).passed


def test_prop_formula_guards():
    g = cyclic_group(3)
    cover = derived_graph(VoltageAssignment(base=cycle_graph(3), group=g, volt=(1, 0, 0)))
    with pytest.raises(EulerZeroError):
        verify_prop_formula(cover)
    # every finite G: the nonabelian S3 is no longer refused
    s3 = derived_graph(VoltageAssignment(base=bouquet(2), group=symmetric_group(3), volt=(2, 3)))
    assert verify_prop_formula(s3).passed
    # verify-factor alone stays abelian
    with pytest.raises(NotAbelianError):
        verify_factorization(s3)


def test_inter_rel_fig2():
    g = parse_group_spec("C2xC6")
    lab = g.element
    cover = derived_graph(
        VoltageAssignment(base=bouquet(2), group=g, volt=(lab("(1,0)"), lab("(0,1)")))
    )
    from galois_span.groups import generated_subgroup

    h4 = generated_subgroup(g, [lab("(1,0)"), lab("(0,3)")])
    report = verify_inter_rel(cover, h4)
    assert report.passed and report.left == 9
    for h in all_subgroups(g):
        assert verify_inter_rel(cover, h).passed


def _det_ring_h_poly(cover, values, e):
    """Oracle: det(I - A_chi u + (D - I) u^2) by Laplace expansion over Z[zeta_e][u]."""
    a, d_diag = twisted_adjacency(cover, values), cover.base.degrees()
    m = len(a)
    one = IntPoly.const(CyclotomicInt.one(e))
    u = IntPoly((CyclotomicInt.zero(e), CyclotomicInt.one(e)))
    mat = [
        [
            (one + (d_diag[i] - 1) * u * u if i == j else IntPoly()) - IntPoly.const(a[i][j]) * u
            for j in range(m)
        ]
        for i in range(m)
    ]
    return det_ring(mat, one)


def _det_ring_h_at_one(cover, values, e):
    """Oracle: det(D - A_chi) by Laplace expansion over Z[zeta_e]."""
    a, d_diag = twisted_adjacency(cover, values), cover.base.degrees()
    m = len(a)
    mat = [[(d_diag[i] if i == j else 0) - a[i][j] for j in range(m)] for i in range(m)]
    return det_ring(mat, CyclotomicInt.one(e))


@pytest.mark.parametrize("spec", ["C3", "C4", "C5", "C7", "C8", "C12", "C3xC4", "C2xC4"])
def test_cyclotomic_route_matches_laplace_oracle(spec):
    g = parse_group_spec(spec)
    covers = [
        derived_graph(random_connected_voltage(base, g, seed))
        for base, seed in ((bouquet(2), 3), (complete_graph(4), 5), (cycle_graph(3), 7))
        if base.euler_characteristic() != 0 or g.is_cyclic()
    ]
    e = character_table(g).e
    conductors = set()
    for cover in covers:
        for values, h_chi in zip(linear_reps(g), character_hs(cover)):
            h = h_poly(cover, values, e)
            assert h == _det_ring_h_poly(cover, values, e) == h_chi
            assert h_chi(1) == _det_ring_h_at_one(cover, values, e) == h(1)
            conductors.update({e, *(c.e for c in h.coeffs), *(c.e for c in h_chi.coeffs)})
    assert conductors == {g.exponent()}


@pytest.mark.parametrize("n, spec, volt", [(2, "C5", (4,)), (3, "C3", (2, 0))])
def test_twisted_determinant_on_a_tree_is_one_minus_u_squared(n, spec, volt):
    # W is nilpotent on a tree, so Ihara-Bass gives h(u, chi) = 1 - u^2 for
    # every chi; the lifted determinant is 1 - a(x) b(x) u^2 with a(zeta)
    # b(zeta) = 1, and at an x where a(x) b(x) = 0 its sample is the
    # constant 1, shorter than the others: the missing coefficients are 0
    g = parse_group_spec(spec)
    cover = derived_graph(VoltageAssignment(base=path_graph(n), group=g, volt=volt))
    e = character_table(g).e
    for values in linear_reps(g):
        h = h_poly(cover, values, e)
        assert h == IntPoly((1, 0, -1)) == _det_ring_h_poly(cover, values, e)


# -- h_Y(u) from closed non-backtracking walks in the base ----------------------------

# a loop at 0, an edge 0-1, a loop at 1 and a leaf 2
LEAF_BASE = build_graph(3, [(0, 0), (0, 1), (1, 1), (1, 2)])

# (base, group, inline voltages or a seed for random_connected_voltage); at most 48
# vertices in Y, so the dense h_Y(u) of `ihara_h_poly` stays an affordable oracle
WALK_CASES = {
    "readme-C2xC6": (bouquet(2), "C2xC6", "(1,0);(0,1)"),
    "readme-S3": (bouquet(2), "S3", "(0 1);(0 1 2)"),
    "readme-Q8": (bouquet(2), "Q8", "a1;a0b"),
    "readme-C2xC2": (bouquet(2), "C2xC2", "(1,0);(0,1)"),
    "readme-C4-cycle3": (cycle_graph(3), "C4", "1;0;0"),
    "seeded-A4-bouquet3": (bouquet(3), "A4", 5),
    "seeded-C3xS3-bouquet2": (bouquet(2), "C3xS3", 7),
    "seeded-D4-complete4": (complete_graph(4), "D4", 11),
    "seeded-C2xS4-bouquet2": (bouquet(2), "C2xS4", 19),
    "seeded-C2xC6-complete4": (complete_graph(4), "C2xC6", 13),
    "seeded-C2x4-bouquet4": (bouquet(4), "C2xC2xC2xC2", 17),
    "single-loop-C5": (bouquet(1), "C5", "2"),
    "theta-D4": (theta_graph(), "D4", 3),
    "leaf-S3": (LEAF_BASE, "S3", "(0 1);(0 1 2);1;(1 2)"),
    "not-galois-C2xC2": (bouquet(2), "C2xC2", "(1,0);(1,0)"),
    "tree-trivial": (path_graph(3), "C1", "0;0"),
}


def walk_cover(name):
    base, spec, voltage = WALK_CASES[name]
    g = parse_group_spec(spec)
    if isinstance(voltage, int):
        return derived_graph(random_connected_voltage(base, g, voltage))
    volt = tuple(g.element(x) for x in voltage.split(";"))
    return derived_graph(VoltageAssignment(base=base, group=g, volt=volt))


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_walk_route_h_y_equals_the_dense_h_of_the_derived_graph(name):
    cover = walk_cover(name)
    assert derived_h_poly(cover) == cover.derived.ihara_h_poly()



@pytest.mark.parametrize(
    "name", sorted(n for n in WALK_CASES if parse_group_spec(WALK_CASES[n][1]).is_abelian())
)
def test_linear_twisted_determinants_multiply_to_the_dense_h_of_the_derived_graph(name):
    # for abelian G the regular representation is the direct sum of the |G|
    # linear characters, so their n x n determinants multiply to h_Y(u),
    # here the dense determinant of the derived graph
    cover = walk_cover(name)
    e = character_table(cover.group).e
    reps = linear_reps(cover.group)
    assert len(reps) == cover.group.order
    product = IntPoly.const(CyclotomicInt.one(e))
    for values in reps:
        product = product * h_poly(cover, values, e)
    assert IntPoly([c.as_int() for c in product.coeffs]) == cover.derived.ihara_h_poly()


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_walk_table_summed_over_the_group_gives_the_base_h(name):
    cover = walk_cover(name)
    base = cover.base
    rows = walk_table(cover, 2 * base.vertex_count)
    excess = base.geometric_edge_count - base.vertex_count
    assert h_from_traces([sum(row) for row in rows], excess) == base.ihara_h_poly()


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_packed_walk_table_equals_the_walk_from_one_start_at_a_time(name):
    cover = walk_cover(name)
    length = 2 * cover.derived.vertex_count
    assert walk_table(cover, length) == walk_table_by_start(cover, length)


@pytest.mark.parametrize(
    "name", ["readme-S3", "leaf-S3", "theta-D4", "seeded-D4-complete4", "seeded-C2xC6-complete4"]
)
def test_a_field_narrower_than_the_counts_corrupts_the_packed_table(monkeypatch, name):
    import galois_span.lfunctions as lfunctions

    # fields of half the bits of the largest count: carries and borrows cross
    # fields, and the masks cut counts
    cover = walk_cover(name)
    length = 2 * cover.derived.vertex_count
    expected = walk_table_by_start(cover, length)
    bits = max(max(row) for row in expected).bit_length()
    assert bits > 16
    monkeypatch.setattr(lfunctions, "_field_width", lambda k, d_max: bits // 2)
    assert walk_table(cover, length) != expected


@pytest.mark.parametrize("name", ["readme-S3", "theta-D4", "leaf-S3", "not-galois-C2xC2"])
def test_walk_table_matches_the_hashimoto_matrix_of_the_derived_graph(name):
    # every net voltage, not only the identity that h_Y reads
    cover = walk_cover(name)
    assert walk_table(cover, 8) == derived_walk_counts(cover, 8)


def test_walk_route_covers_trees_and_disconnected_covers():
    assert derived_h_poly(walk_cover("tree-trivial")) == IntPoly((1, 0, -1))
    assert not is_galois(walk_cover("not-galois-C2xC2").voltage)


def test_walk_route_derivative_at_one_matches_hashimoto_on_a_120_vertex_cover():
    cover = derived_graph(random_connected_voltage(complete_graph(5), symmetric_group(4), 1))
    assert cover.derived.vertex_count == 120
    report = hashimoto_check(cover.derived)
    assert report.passed
    assert derived_h_poly(cover).derivative()(1) == report.left


def test_corrupted_power_sum_is_an_invariant_error(monkeypatch, capsys):
    import galois_span.lfunctions as lfunctions

    # Y has 4 vertices of degree 4, so h_Y has degree 8 and leading coefficient 3^4
    cover = simple_cover("C4", 2, (1, 2))
    real = lfunctions.walk_table

    def corrupted(by):
        def table(c, length):
            rows = real(c, length)
            rows[-1][c.group.identity] += by
            return rows

        return table

    # tr(W_Y^8) one |G| too large: 8 c_8 = -(... + 4) is not a multiple of 8
    monkeypatch.setattr(lfunctions, "walk_table", corrupted(1))
    with pytest.raises(InvariantError, match="does not divide exactly at k = 8"):
        derived_h_poly(cover)
    # 8 too large: the division is exact and the leading coefficient drops by 1
    monkeypatch.setattr(lfunctions, "walk_table", corrupted(2))
    with pytest.raises(InvariantError, match="u\\^8 coefficient 80, not 81"):
        derived_h_poly(cover)
    argv = ["lfun", "verify-factor", "--base", "bouquet:2", "--group", "C4", "--voltage", "1;2"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "internal error: h_Y has u^8 coefficient 80, not 81\n"
    # a polynomial whose leading coefficient is right but whose value at 1 is not
    monkeypatch.setattr(lfunctions, "walk_table", real)
    real_newton = lfunctions.h_from_traces
    monkeypatch.setattr(lfunctions, "h_from_traces", lambda q, m: real_newton(q, m) + 1)
    with pytest.raises(InvariantError, match="h_Y\\(1\\) is 1, not 0"):
        derived_h_poly(cover)


def test_factorization_takes_one_h_per_conjugate_pair(monkeypatch):
    import galois_span.lfunctions as lfunctions

    cover = walk_cover("readme-C2xC6")
    e = character_table(cover.group).e
    old_product = IntPoly.const(1)
    for values in linear_reps(cover.group):
        old_product = old_product * h_poly(cover, values, e)
    calls = []
    real = lfunctions.h_poly
    monkeypatch.setattr(lfunctions, "h_poly", lambda c, v, e: calls.append(v) or real(c, v, e))
    report = verify_factorization(cover)
    assert report.passed
    # C2xC6 has 4 real characters and 4 conjugate pairs
    assert len(calls) == 8
    assert report.details["product_coeffs"] == [str(x.as_int()) for x in old_product.coeffs]


@pytest.mark.parametrize(
    "spec, volt, h_calls",
    [
        # C5: the 4 nontrivial characters are one orbit of zeta -> zeta^a
        ("C5", (1, 1), 2),
        # C8: orbits {1}, {chi^4}, {chi^2, chi^6} and {chi, chi^3, chi^5, chi^7}
        ("C8", (1, 2), 4),
    ],
)
def test_factorization_takes_one_h_per_galois_orbit(monkeypatch, spec, volt, h_calls):
    import galois_span.lfunctions as lfunctions

    cover = simple_cover(spec, 2, volt)
    e = character_table(cover.group).e
    old_product = IntPoly.const(1)
    for values in linear_reps(cover.group):
        old_product = old_product * h_poly(cover, values, e)
    calls = []
    real = lfunctions.h_poly
    monkeypatch.setattr(lfunctions, "h_poly", lambda c, v, e: calls.append(v) or real(c, v, e))
    report = verify_factorization(cover)
    assert report.passed
    assert len(calls) == h_calls
    assert report.details["product_coeffs"] == [str(x.as_int()) for x in old_product.coeffs]


def test_factorization_refuses_a_corrupted_orbit_member(monkeypatch):
    # h(u, chi^3) is taken as h(u, chi) under zeta -> zeta^3; shifting its
    # irrational coefficients by 1 leaves an orbit product that is not rational
    cover = simple_cover("C5", 2, (1, 1))
    assert verify_factorization(cover).passed
    roots = {root(5, k) for k in range(5)}
    real = CyclotomicInt.galois

    def galois(x, k):
        image = real(x, k)
        return image + 1 if k == 3 and x not in roots and not x.is_rational_integer() else image

    monkeypatch.setattr(CyclotomicInt, "galois", galois)
    with pytest.raises(InvariantError, match="not a rational integer"):
        verify_factorization(cover)


@pytest.mark.parametrize("which", [0, 2])
def test_factorization_fails_on_one_corrupted_linear_character_value(monkeypatch, capsys, which):
    # no homomorphism check stands between the values and the determinant:
    # chi(g) -> -chi(g) at the generator, for the trivial character or the
    # real chi^2 of C4, leaves integer values and a rational product that
    # no longer equals h_Y(u)
    import galois_span.lfunctions as lfunctions

    cover = simple_cover("C4", 2, (1, 2))
    target = linear_reps(cover.group)[which]
    real = lfunctions.h_poly

    def corrupted(c, values, e):
        if tuple(values) == target:
            values = list(values)
            values[1] = -values[1]
        return real(c, values, e)

    monkeypatch.setattr(lfunctions, "h_poly", corrupted)
    report = verify_factorization(cover)
    assert not report.passed
    argv = ["lfun", "verify-factor", "--base", "bouquet:2", "--group", "C4", "--voltage", "1;2"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.parametrize(
    "spec, volt",
    [
        ("C2", (1, 1)),
        ("C3", (1, 2)),
        ("C5", (1, 1)),
        ("C2xC2", (1, 2)),
        ("C6", (1, 2)),
        ("C2xC4", (1, 2)),
    ],
)
def test_factorization_fails_on_a_corrupted_value_of_every_character_it_reads(
    monkeypatch, spec, volt
):
    # verify-factor takes h(u, chi) from the twisted determinant for one
    # character of each Galois orbit; chi(x) -> -chi(x) at the element 1 of
    # any one of them leaves a product that is not h_Y(u)
    import galois_span.lfunctions as lfunctions

    cover = simple_cover(spec, 2, volt)
    real, read = lfunctions.h_poly, []
    monkeypatch.setattr(lfunctions, "h_poly", lambda c, v, e: read.append(v) or real(c, v, e))
    assert verify_factorization(cover).passed
    assert read and {tuple(v) for v in read} <= set(linear_reps(cover.group))
    for target in map(tuple, read):

        def corrupted(c, values, e, target=target):
            if tuple(values) == target:
                values = list(values)
                values[1] = -values[1]
            return real(c, values, e)

        monkeypatch.setattr(lfunctions, "h_poly", corrupted)
        assert not verify_factorization(cover).passed


# -- h(u, chi) for every irreducible chi from the walk table ---------------------------


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_character_route_equals_the_twisted_determinant_on_every_linear_character(name):
    cover = walk_cover(name)
    table = character_table(cover.group)
    linear = [chi for chi in table.characters if chi.degree == 1]
    reps = linear_reps(cover.group)
    assert len(reps) == len(linear) >= 1
    for values, h in zip(reps, character_h_polys(cover, table, linear)):
        assert h == h_poly(cover, values, table.e)
        assert all(c.e == table.e for c in h.coeffs)


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_character_route_product_is_the_dense_h_of_the_derived_graph(name):
    # prod_chi h(u, chi)^chi(1) = h_Y(u): the regular representation splits
    # into chi(1) copies of each chi
    cover = walk_cover(name)
    table = character_table(cover.group)
    product = IntPoly.const(1)
    for chi, h in zip(table.characters, character_h_polys(cover, table, table.characters)):
        top = 2 * cover.base.vertex_count * chi.degree
        leading = 1
        for d in cover.base.degrees():
            leading *= (d - 1) ** chi.degree
        assert h.degree <= top and (h.coeffs[top] if h.degree == top else 0) == leading
        for _ in range(chi.degree):
            product = product * h
    assert IntPoly([c.as_int() for c in product.coeffs]) == cover.derived.ihara_h_poly()


def test_character_route_refuses_a_table_of_another_group():
    cover = simple_cover("C4", 2, (1, 2))
    table = character_table(parse_group_spec("C2xC2"))
    with pytest.raises(MismatchedGroupError):
        character_h_polys(cover, table, table.characters)


@pytest.mark.parametrize(
    "spec, volt",
    [("C4", "1;2"), ("S3", "(0 1);(0 1 2)"), ("Q8", "a1;a0b"), ("C2xC6", "(1,0);(0,1)")],
)
def test_character_route_takes_the_table_of_the_cover_group_object_only(spec, volt):
    # a table is the cover's when it was built on the same group object: an
    # equal group parsed again from the same spec is another group
    g = parse_group_spec(spec)
    cover = derived_graph(
        VoltageAssignment(base=bouquet(2), group=g, volt=tuple(map(g.element, volt.split(";"))))
    )
    own = character_table(g)
    hs = character_h_polys(cover, own, own.characters)
    assert len(hs) == len(own.characters)
    other = character_table(parse_group_spec(spec))
    assert other.group is not g and other.group.order == g.order
    with pytest.raises(MismatchedGroupError, match="^character table of a different group$"):
        character_h_polys(cover, other, other.characters)


@pytest.mark.parametrize(
    "base, spec, seed",
    [
        (bouquet(2), "S3", 1),
        (bouquet(2), "Q8", 1),
        (complete_graph(5), "S4", 1),
        (complete_graph(5), "C2xS4", 1),
        (complete_graph(5), "A5", 1),
    ],
)
def test_prop_formula_holds_on_nonabelian_covers(base, spec, seed):
    cover = derived_graph(random_connected_voltage(base, parse_group_spec(spec), seed))
    report = verify_prop_formula(cover)
    assert report.passed
    assert report.left == cover.group.order * cover.derived.spanning_tree_count()


def test_inter_rel_holds_on_every_subgroup_class_of_c2xs4(monkeypatch):
    # the cover keeps h(1, chi) for every chi: the 33 checks take one walk table
    import galois_span.lfunctions as lfunctions

    g = parse_group_spec("C2xS4")
    cover = derived_graph(random_connected_voltage(complete_graph(5), g, 1))
    classes = {}
    for h in all_subgroups(g):
        classes.setdefault(h.class_key(), h)
    assert len(classes) == 33
    real, lengths = lfunctions.walk_table, []
    monkeypatch.setattr(lfunctions, "walk_table", lambda c, n: lengths.append(n) or real(c, n))
    for h in classes.values():
        assert verify_inter_rel(cover, h).passed, h.describe()
    # 2 n max chi(1): five vertices, largest degree 3
    assert lengths == [30]


def test_verify_prop_and_inter_exit_zero_on_s3_from_the_cli(capsys):
    cover = ["--base", "bouquet:2", "--group", "S3", "--voltage", "(0 1);(0 1 2)"]
    for argv in (["verify-prop"], ["verify-inter", "--subgroup", "(0 1)"]):
        assert main(["lfun", *argv, *cover]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]


def test_lfun_h_chi_prints_the_two_dimensional_character_of_s3(capsys):
    cover = walk_cover("readme-S3")
    argv = ["lfun", "h", "--base", "bouquet:2", "--group", "S3", "--voltage", "(0 1);(0 1 2)"]
    outputs = []
    for k in range(3):
        assert main([*argv, "--chi", str(k)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert [out["degree"] for out in outputs] == [2, 2, 4]
    assert {out["conductor"] for out in outputs} == {6}
    h = [IntPoly([CyclotomicInt(6, map(int, c)) for c in out["coefficients"]]) for out in outputs]
    # h(u, 1) h(u, sign) h(u, chi_2)^2 is h(u) of the regular representation: h_Y(u)
    assert h[0] * h[1] * h[2] * h[2] == cover.derived.ihara_h_poly()
    assert main([*argv, "--chi", "3"]) == 2
    assert capsys.readouterr().err == "error: --chi must be in 0..2, got 3\n"


@pytest.mark.parametrize("name", ["readme-S3", "readme-Q8", "seeded-A4-bouquet3"])
def test_corrupted_walk_table_never_passes_verify_prop(monkeypatch, name):
    # one N_k(g) one too large, at every (k, g): verify-prop raises or fails
    # whenever some trace reads the entry, that is when chi(g) != 0 for a
    # nontrivial chi whose h(u, chi) takes row k; an entry no trace reads
    # leaves every h(u, chi) as it was
    import galois_span.lfunctions as lfunctions

    cover = walk_cover(name)
    assert verify_prop_formula(cover).passed
    table = character_table(cover.group)
    n = cover.base.vertex_count
    real = lfunctions.walk_table
    outcomes = {True: set(), False: set()}
    for k in range(2 * n * max(chi.degree for chi in table.characters)):
        for x in range(cover.group.order):

            def corrupted(c, length, k=k, x=x):
                rows = real(c, length)
                rows[k][x] += 1
                return rows

            read = any(
                chi.value_cyclo(table.class_of[x]) != 0
                for chi in table.characters
                if not chi.is_trivial() and k < 2 * n * chi.degree
            )
            monkeypatch.setattr(lfunctions, "walk_table", corrupted)
            # a fresh cover: the checked one keeps the h(1, chi) of the real table
            fresh = derived_graph(cover.voltage)
            try:
                outcome = "PASS" if verify_prop_formula(fresh).passed else "FAIL"
            except InvariantError:
                outcome = "InvariantError"
            outcomes[read].add(outcome)
    assert outcomes[True] and outcomes[True] <= {"FAIL", "InvariantError"}
    assert outcomes[False] <= {"PASS"}
