"""Acceptance suite: every criterion as an exact integer identity.

Each test prints one PASS line with its elapsed time; tolerances are exact
equality throughout, and each criterion asserts its own wall-clock budget.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction

from galois_span.covers import (
    VoltageAssignment,
    derived_graph,
    intermediate_kappa,
    random_connected_voltage,
)
from galois_span.family import (
    FamilySpec,
    degree_formula,
    exponent_grid,
    kappa_degree_in_t,
    lemma_matrix_check,
    nonexistence_certificate,
)
from galois_span.graphs import (
    bouquet,
    cycle_graph,
    hashimoto_check,
)
from galois_span.groups import (
    cyclic_group,
    cyclic_subgroups,
    generated_subgroup,
    parse_group_spec,
)
from galois_span.lfunctions import verify_factorization, verify_inter_rel, verify_prop_formula
from galois_span.posets import mobius
from galois_span.theorems import (
    table1_row,
    verify_brauer_kuroda,
    verify_eq3,
    verify_euler_zero,
    verify_hmsv,
    verify_kuroda,
)
from galois_span.groups import all_subgroups
from helpers import (
    brute_force_spanning_trees,
    dumbbell_graph,
    family_kappa,
    mobius_inversion_check,
    random_connected_graph,
    random_poset,
    theta_graph,
)


def _report(number: int, name: str, started: float, limit: float):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s < {limit:.0f}s)")


def _fig2_cover():
    g = parse_group_spec("C2xC6")
    lab = g.element
    return derived_graph(
        VoltageAssignment(base=bouquet(2), group=g, volt=(lab("(1,0)"), lab("(0,1)")))
    )


def test_criterion_01_z2z6_example():
    started = time.perf_counter()
    c = _fig2_cover()
    g = c.group
    lab = g.element
    k1 = intermediate_kappa(c, generated_subgroup(g, [lab("(1,0)")]))
    k2 = intermediate_kappa(c, generated_subgroup(g, [lab("(1,3)")]))
    k3 = intermediate_kappa(c, generated_subgroup(g, [lab("(0,3)")]))
    k4 = intermediate_kappa(c, generated_subgroup(g, [lab("(1,0)"), lab("(0,3)")]))
    assert (k1, k2, k3, k4) == (6, 300, 294, 3)
    kappa_y = c.derived.spanning_tree_count()
    assert kappa_y == 117600
    # reduced formula 2 k1 k2 k3 / k4^2 = kappa(Y), as exact integers
    assert 2 * k1 * k2 * k3 == kappa_y * k4**2
    assert verify_kuroda(c).passed
    _report(1, "Z/2xZ/6 worked example", started, 5.0)


def test_criterion_02_s3_example():
    started = time.perf_counter()
    g = parse_group_spec("S3")
    lab = g.element
    c = derived_graph(
        VoltageAssignment(base=bouquet(2), group=g, volt=(lab("(0 1)"), lab("(0 1 2)")))
    )
    kappa_x = c.base.spanning_tree_count()
    kappa_y = c.derived.spanning_tree_count()
    assert kappa_x == 1 and kappa_y == 294
    by_order = {}
    for h in cyclic_subgroups(g):
        by_order.setdefault(h.order, []).append(intermediate_kappa(c, h))
    # the index-2 intermediate graph has kappa 2, the index-3 ones have kappa 7
    kappa2 = by_order[3][0]
    kappa5 = by_order[2][0]
    assert kappa2 == 2 and by_order[2] == [7, 7, 7]
    assert 3 * kappa2 * kappa5**2 == kappa_y * kappa_x**2 == 294
    assert verify_brauer_kuroda(c).passed
    _report(2, "S3 worked example", started, 5.0)


def test_criterion_03_q8_exceptional_relation():
    started = time.perf_counter()
    g = parse_group_spec("Q8")
    for i in range(20):
        loops = 2 + i % 3
        alpha = random_connected_voltage(bouquet(loops), g, seed=9000 + i)
        c = derived_graph(alpha)
        ks = {h.elements: intermediate_kappa(c, h) for h in cyclic_subgroups(g)}
        k2 = next(v for k, v in ks.items() if len(k) == 2)
        k4 = [v for k, v in ks.items() if len(k) == 4]
        kx = c.base.spanning_tree_count()
        assert k2 * kx**2 == 2 * k4[0] * k4[1] * k4[2]
        report = verify_brauer_kuroda(c)
        assert report.passed
        assert report.details["exceptional"] is True
        trivial_term = next(t for t in report.details["terms"] if t["index"] == 8)
        assert trivial_term["cleared_exponent"] == 0  # kappa(Y) absent
    _report(3, "Q8 exceptional relation, 20 covers", started, 60.0)


CORPUS_GROUPS = ["C2xC2", "C2xC4", "C2xC6", "C3xC3", "S3", "D4", "Q8", "A4", "Dic3"]


def _corpus_covers():
    groups = [parse_group_spec(s) for s in CORPUS_GROUPS]
    bases = [bouquet(2), bouquet(3)]
    covers = []
    for i in range(50):
        g = groups[i % len(groups)]
        base = bases[i % len(bases)]
        alpha = random_connected_voltage(base, g, seed=4000 + i)
        covers.append(derived_graph(alpha))
    return covers


def test_criterion_04_main1_random_corpus():
    started = time.perf_counter()
    covers = _corpus_covers()
    results = [verify_kuroda(c) for c in covers]
    assert all(r.passed for r in results)
    _report(4, "kernel-poset formula on 50 covers", started, 300.0)


def test_criterion_05_main2_random_corpus():
    started = time.perf_counter()
    covers = _corpus_covers()
    results = [verify_brauer_kuroda(c) for c in covers]
    assert all(r.passed for r in results)
    _report(5, "cyclic-subgroup formula on 50 covers", started, 300.0)


def test_criterion_06_hmsv_special_case():
    started = time.perf_counter()
    for m, seed_base in ((2, 6000), (3, 7000)):
        g = parse_group_spec("x".join(["C2"] * m))
        for i in range(10):
            # the cover can only connect when the voltages generate G, so the
            # bouquet needs at least m loops
            alpha = random_connected_voltage(bouquet(m + i % 2), g, seed_base + i)
            c = derived_graph(alpha)
            hm = verify_hmsv(c)
            ku = verify_kuroda(c)
            bk = verify_brauer_kuroda(c)
            assert hm.passed and ku.passed and bk.passed
            # the elementary-abelian formula and the kernel formula predict the
            # same kappa(Y): both sides verified against the same cover
            kappa_y = c.derived.spanning_tree_count()
            kx = c.base.spanning_tree_count()
            prod = 1
            for h in all_subgroups(g):
                if h.index() == 2:
                    prod *= intermediate_kappa(c, h)
            assert kappa_y * kx ** (2**m - 2) == 2 ** (2**m - m - 1) * prod
    _report(6, "(Z/2)^m special case, m=2,3", started, 120.0)


TABLE1_MINIMUM = (
    [f"C{n}" for n in range(1, 25)]
    + ["C2xC2", "C2xC2xC2", "C2xC4", "C2xC6", "C3xC3", "C4xC4"]
    + [f"D{n}" for n in range(4, 13)]
    + ["Q8", "Q16", "Dic3", "Dic5", "Dic6", "S3", "S4", "A4", "C2xA4", "C3xS3"]
)


def test_criterion_07_table1_rows():
    started = time.perf_counter()
    for spec in TABLE1_MINIMUM:
        row = table1_row(spec)
        assert row.fixture_status == "match", (spec, row)
    _report(7, f"classification flags for {len(TABLE1_MINIMUM)} groups", started, 120.0)


def test_criterion_08_eq3_identities():
    started = time.perf_counter()
    for spec in TABLE1_MINIMUM:
        report = verify_eq3(parse_group_spec(spec))
        assert report.passed, (spec, report.notes)
    _report(8, "unit partition + annihilation identities", started, 120.0)


def test_criterion_09_degree_lemma():
    started = time.perf_counter()
    cases = [
        ((2,), (2,), (1,)),
        ((2,), (3,), (2,)),
        ((3,), (2,), (1,)),
        ((2, 3), (1, 1), (0, 1)),
    ]
    for p, s, b in cases:
        spec = FamilySpec(primes=p, s=s, b=b)
        for a in exponent_grid(s):
            if not any(a):
                continue
            assert kappa_degree_in_t(spec, a) == degree_formula(p, a, b)
    pointwise = FamilySpec(primes=(2,), s=(2,), b=(1,))
    for t in range(6):
        assert family_kappa(pointwise, t) == (2 + 4 * t) ** 2
    _report(9, "degree-in-t lemma, 4 parameter sets", started, 180.0)


def test_criterion_10_matrix_lemma():
    started = time.perf_counter()
    expected_sign = {
        ((2,), (1,)): True,
        ((2,), (2,)): False,
        ((3,), (1,)): True,
        ((2, 3), (1, 1)): True,
        ((2,), (3,)): False,
    }
    for (p, s), sign_matches in expected_sign.items():
        report = lemma_matrix_check(p, s)
        assert report.passed
        assert report.details["nonzero"] is True
        assert report.details["magnitude_matches"] is True
        assert report.details["sign_matches_paper"] is sign_matches
    # the known discrepancy at ((2),(2)) is recorded without failing the suite
    discrepancy = lemma_matrix_check((2,), (2,))
    assert discrepancy.details["det"] == Fraction(-1, 4)
    assert "sign differs" in discrepancy.notes
    _report(10, "matrix lemma determinants, 5 parameter sets", started, 30.0)


def test_criterion_11_nonexistence_certificates():
    started = time.perf_counter()
    for n in (2, 3, 4, 6, 12, 30):
        report = nonexistence_certificate(n)
        assert report.passed
        assert report.details["rank"] == report.details["matrix_size"]
    _report(11, "non-existence certificates, n in {2,3,4,6,12,30}", started, 60.0)


# ordered so that the rank-3 group lands on the three-loop bouquet
ABELIAN_CORPUS = [
    "C2",
    "C3",
    "C4",
    "C2xC2",
    "C5",
    "C6",
    "C7",
    "C2xC4",
    "C8",
    "C3xC3",
    "C9",
    "C10",
    "C2xC6",
    "C2xC2xC2",
    "C12",
    "C11",
    "C2xC2xC3",
    "C4xC3",
    "C2xC5",
    "C3xC4",
]


def _abelian_covers():
    bases = [bouquet(2), bouquet(3), theta_graph(), dumbbell_graph()]
    covers = []
    for i, spec in enumerate(ABELIAN_CORPUS):
        g = parse_group_spec(spec)
        base = bases[i % len(bases)]
        alpha = random_connected_voltage(base, g, seed=8000 + i)
        covers.append(derived_graph(alpha))
    return covers


def test_criterion_12_property_suites():
    started = time.perf_counter()
    # (a) Matrix-Tree vs brute force on 200 seeded graphs
    rng = random.Random(1234)
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=5, max_edges=9)
        assert g.spanning_tree_count() == brute_force_spanning_trees(g)
    # (b) Hashimoto identity on 100 seeded connected graphs
    rng = random.Random(99)
    for _ in range(100):
        g = random_connected_graph(rng, max_vertices=6, max_edges=9)
        assert hashimoto_check(g).passed
    # (c) Moebius inversion on 100 random posets (dual recursion checked inside)
    rng = random.Random(55)
    for _ in range(100):
        p = random_poset(rng, max_elements=7)
        mobius(p)
        f = {k: Fraction(rng.randrange(-4, 5)) for k in p.keys}
        n = len(p)
        g_up = {
            p.keys[x]: sum(
                (f[p.keys[y]] for y in range(n) if p.leq_matrix[x][y]), start=Fraction(0)
            )
            for x in range(n)
        }
        assert mobius_inversion_check(p, f, g_up)
    # (d) abelian L-function factorization as exact polynomials, 20 covers
    covers = _abelian_covers()
    for c in covers:
        assert verify_factorization(c).passed
    # (e) the product formula and the subgroup formula on the same corpus
    for c in covers:
        assert verify_prop_formula(c).passed
        for h in all_subgroups(c.group):
            assert verify_inter_rel(c, h).passed
    # (f) chi = 0 covers satisfy kappa(Y) = |G| kappa(X)
    for n, order in ((3, 2), (3, 4), (4, 3), (5, 2), (5, 5), (6, 6)):
        g = cyclic_group(order)
        alpha = random_connected_voltage(cycle_graph(n), g, seed=n * 100 + order)
        report = verify_euler_zero(derived_graph(alpha))
        assert report.passed
    _report(12, "property suites (a)-(f)", started, 300.0)
