import json
import random

import pytest

import galois_span.theorems as theorems
from galois_span.characters import character_table
from galois_span.covers import (
    VoltageAssignment,
    derived_graph,
    intermediate_kappa,
    random_connected_voltage,
)
from galois_span.cyclotomic import CyclotomicInt
from galois_span.errors import (
    EulerZeroError,
    InvariantError,
    NotABrauerRelationError,
    NotGaloisError,
    WrongGroupError,
)
from galois_span.graphs import bouquet, complete_graph, cycle_graph
from galois_span.groups import (
    cyclic_group,
    cyclic_subgroups,
    generated_subgroup,
    is_exceptional,
    is_irreducibly_represented,
    parse_group_spec,
    symmetric_group,
)
from galois_span.posets import mobius
from galois_span.table1 import TABLE1_FLAGS
from galois_span.theorems import (
    checked_relation,
    random_suite,
    table1_row,
    verify_brauer_kuroda,
    verify_custom_relation,
    verify_euler_zero,
    verify_hmsv,
    verify_kuroda,
)
from helpers import artin_coefficients, induced_trivial_values_by_products


def fig2_cover():
    g = parse_group_spec("C2xC6")
    lab = g.element
    return derived_graph(
        VoltageAssignment(base=bouquet(2), group=g, volt=(lab("(1,0)"), lab("(0,1)")))
    )


def s3_cover():
    g = symmetric_group(3)
    lab = g.element
    return derived_graph(
        VoltageAssignment(base=bouquet(2), group=g, volt=(lab("(0 1)"), lab("(0 1 2)")))
    )


def test_kuroda_fig2():
    c = fig2_cover()
    report = verify_kuroda(c)
    assert report.passed and not report.trivial
    # reduced form: kappa(Y) = 2 k1 k2 k3 / k4^2
    g = c.group
    lab = g.element
    k1 = intermediate_kappa(c, generated_subgroup(g, [lab("(1,0)")]))
    k2 = intermediate_kappa(c, generated_subgroup(g, [lab("(1,3)")]))
    k3 = intermediate_kappa(c, generated_subgroup(g, [lab("(0,3)")]))
    k4 = intermediate_kappa(c, generated_subgroup(g, [lab("(1,0)"), lab("(0,3)")]))
    assert 2 * k1 * k2 * k3 == 117600 * k4**2
    assert c.derived.spanning_tree_count() == 117600


def test_kuroda_trivial_for_irreducibly_represented():
    report = verify_kuroda(s3_cover())
    assert report.passed and report.trivial
    g = cyclic_group(6)
    alpha = random_connected_voltage(bouquet(2), g, seed=0)
    report = verify_kuroda(derived_graph(alpha))
    assert report.passed and report.trivial


def test_kuroda_reuses_the_kernels_checked_with_the_kernel_poset(monkeypatch):
    # kernel_of checks each kernel once, when the table's kernel poset is built;
    # later Kuroda checks of covers of the same group check no subgroup again
    from galois_span.groups import Subgroup

    g = parse_group_spec("C2xC6")
    first = derived_graph(random_connected_voltage(bouquet(2), g, seed=1))
    checks = []
    check = Subgroup.__post_init__
    monkeypatch.setattr(Subgroup, "__post_init__", lambda h: checks.append(h) or check(h))
    assert verify_kuroda(first).passed
    assert len(checks) == len(character_table(g).characters)
    checks.clear()
    for seed in (2, 3):
        assert verify_kuroda(derived_graph(random_connected_voltage(bouquet(2), g, seed))).passed
    assert checks == []


def test_brauer_kuroda_s3():
    c = s3_cover()
    report = verify_brauer_kuroda(c)
    assert report.passed and not report.trivial
    # Eq.(6): kappa(Y) = 3 * kappa(order-3 quotient) * kappa(order-2 quotient)^2
    g = c.group
    by_order = {}
    for h in cyclic_subgroups(g):
        by_order.setdefault(h.order, []).append(intermediate_kappa(c, h))
    assert by_order[3] == [2]
    assert by_order[2] == [7, 7, 7]
    assert 3 * by_order[3][0] * by_order[2][0] ** 2 == 294


@pytest.mark.parametrize("spec", ["C1", "S3", "Q8", "C2xC6", "C2xC2"])
def test_brauer_kuroda_refuses_a_wrong_exceptional_flag(spec):
    # the kept flag is read back; flipped, it disagrees with mu({1}, top)
    g = parse_group_spec(spec)
    c = derived_graph(random_connected_voltage(bouquet(2), g, seed=1))
    assert verify_brauer_kuroda(c).details["exceptional"] is is_exceptional(g)
    g._cache["is_exceptional"] = not is_exceptional(g)
    with pytest.raises(InvariantError, match=r"^is_exceptional\(.*\) is .*, but mu\(\{1\}, top\) is -?\d+$"):
        verify_brauer_kuroda(c)


def test_brauer_kuroda_trivial_for_cyclic():
    g = cyclic_group(5)
    alpha = random_connected_voltage(bouquet(2), g, seed=1)
    report = verify_brauer_kuroda(derived_graph(alpha))
    assert report.passed and report.trivial


def test_brauer_kuroda_q8_relation():
    rng = random.Random(0)
    g = parse_group_spec("Q8")
    for i in range(5):
        loops = 2 + i % 3
        alpha = random_connected_voltage(bouquet(loops), g, seed=100 + i)
        c = derived_graph(alpha)
        report = verify_brauer_kuroda(c)
        assert report.passed
        assert report.details["exceptional"] is True
        # kappa(Y) absent: the trivial subgroup's cleared exponent vanishes
        triv_terms = [
            t for t in report.details["terms"] if t["index"] == g.order
        ]
        assert triv_terms[0]["cleared_exponent"] == 0
        ks = {
            h.elements: intermediate_kappa(c, h) for h in cyclic_subgroups(g)
        }
        k2 = next(v for h, v in ks.items() if len(h) == 2)
        k4s = [v for h, v in ks.items() if len(h) == 4]
        kx = c.base.spanning_tree_count()
        assert k2 * kx**2 == 2 * k4s[0] * k4s[1] * k4s[2]


@pytest.mark.parametrize("spec, classes, subgroups", [("S4", 5, 17), ("C2xS4", 10, 34)])
def test_brauer_kuroda_one_kappa_per_conjugacy_class(monkeypatch, spec, classes, subgroups):
    g = parse_group_spec(spec)
    c = derived_graph(random_connected_voltage(complete_graph(5), g, seed=1))
    calls = []
    monkeypatch.setattr(
        theorems,
        "intermediate_kappa",
        lambda cover, h: calls.append(h) or intermediate_kappa(cover, h),
    )
    report = verify_brauer_kuroda(c)
    assert report.passed
    # kappa(X) is the kappa of the G term, a class of its own for non-cyclic G
    assert len(calls) == classes + 1 and calls[0].is_whole_group()
    assert len({h.class_key() for h in calls}) == classes + 1
    terms = report.details["terms"]
    cyclic = cyclic_subgroups(g)
    assert len(terms) == len(cyclic) == subgroups
    # the reused values are the ones computed subgroup by subgroup
    assert [t["kappa"] for t in terms] == [intermediate_kappa(c, h) for h in cyclic]


def test_hmsv_m2_m3():
    for m, seed_base in ((2, 40), (3, 50)):
        g = parse_group_spec("x".join(["C2"] * m))
        for i in range(3):
            alpha = random_connected_voltage(bouquet(m + i % 2), g, seed_base + i)
            c = derived_graph(alpha)
            assert verify_hmsv(c).passed
            assert verify_kuroda(c).passed
            assert verify_brauer_kuroda(c).passed


@pytest.mark.parametrize("m, seed", [(4, 60), (5, 70)])
def test_hmsv_m4_m5(m, seed):
    g = parse_group_spec("x".join(["C2"] * m))
    c = derived_graph(random_connected_voltage(bouquet(m), g, seed))
    assert verify_hmsv(c).passed
    assert verify_kuroda(c).passed
    assert verify_brauer_kuroda(c).passed


def test_hmsv_wrong_group():
    c = s3_cover()
    with pytest.raises(WrongGroupError):
        verify_hmsv(c)


def test_hmsv_euler_zero_degenerate():
    g = cyclic_group(2)
    alpha = VoltageAssignment(base=cycle_graph(5), group=g, volt=(1, 0, 0, 0, 0))
    c = derived_graph(alpha)
    report = verify_hmsv(c)
    assert report.passed and report.trivial
    ez = verify_euler_zero(c)
    assert ez.passed
    assert c.derived.spanning_tree_count() == 2 * c.base.spanning_tree_count()


def test_custom_relation_artin_s3():
    c = s3_cover()
    g = c.group
    # 6 * chi_triv = 6 * sum a_C Ind_C with integer coefficients
    coeffs = artin_coefficients(character_table(g), [1, 1, 1])
    relation = {}
    for h in cyclic_subgroups(g):
        value = coeffs[h.elements] * 6
        assert value.denominator == 1
        relation[h] = int(value)
    whole = generated_subgroup(g, range(g.order))
    relation[whole] = relation.get(whole, 0) - 6
    assert verify_custom_relation(c, relation).passed


def test_custom_relation_q8_exceptional():
    g = parse_group_spec("Q8")
    alpha = random_connected_voltage(bouquet(3), g, seed=77)
    c = derived_graph(alpha)
    relation = {generated_subgroup(g, range(g.order)): 2}
    for h in cyclic_subgroups(g):
        if h.order == 2:
            relation[h] = 1
        elif h.order == 4:
            relation[h] = -1
    assert verify_custom_relation(c, relation).passed


def test_custom_relation_rejects_non_relation():
    c = s3_cover()
    g = c.group
    bad = {generated_subgroup(g, range(g.order)): 1}
    with pytest.raises(NotABrauerRelationError, match=r"^sum n_H Ind_H\^G\(1\) != 0: 1, 1, 1$"):
        verify_custom_relation(c, bad)
    # the regular character (6, 0, 0) plus Ind from C2 (3, 1, 0), by class
    bad = {generated_subgroup(g, []): 1, generated_subgroup(g, [g.element("(0 1)")]): 1}
    with pytest.raises(NotABrauerRelationError, match=r"^sum n_H Ind_H\^G\(1\) != 0: 9, 1, 0$"):
        verify_custom_relation(c, bad)


def test_custom_relation_trivial_zero():
    c = s3_cover()
    relation = {h: 0 for h in cyclic_subgroups(c.group)}
    report = verify_custom_relation(c, relation)
    assert report.passed and report.trivial


def test_euler_zero_cycles():
    for n, order, seed in ((3, 4, 0), (5, 2, 1), (4, 6, 2)):
        g = cyclic_group(order)
        alpha = random_connected_voltage(cycle_graph(n), g, seed)
        c = derived_graph(alpha)
        report = verify_euler_zero(c)
        assert report.passed
        assert report.left == order * n
    with pytest.raises(EulerZeroError):
        verify_euler_zero(s3_cover())


def test_a_non_cyclic_cover_of_a_chi_zero_base_is_a_library_fault(monkeypatch):
    # pi_1 of cycle:3 is Z, so no connected cover has the group C2xC2; past a
    # Galois test that is wrong, the verifier reports a failed invariant
    g = parse_group_spec("C2xC2")
    volt = tuple(g.element(x) for x in ("(1,0)", "(0,1)", "(0,0)"))
    c = derived_graph(VoltageAssignment(base=cycle_graph(3), group=g, volt=volt))
    with pytest.raises(NotGaloisError):
        verify_euler_zero(c)
    monkeypatch.setattr(theorems, "is_galois", lambda alpha: True)
    with pytest.raises(InvariantError, match="non-cyclic group"):
        verify_euler_zero(c)


def test_not_galois_errors():
    g = cyclic_group(4)
    alpha = VoltageAssignment(base=bouquet(1), group=g, volt=(2,))
    c = derived_graph(alpha)
    with pytest.raises(NotGaloisError):
        verify_kuroda(c)
    with pytest.raises(NotGaloisError):
        verify_brauer_kuroda(c)


def test_table1_rows():
    for spec, expected in (
        ("C2xC2", (False, False)),
        ("Q8", (True, True)),
        ("C2xC6", (False, True)),
        ("S3", (True, False)),
    ):
        row = table1_row(spec)
        assert (row.irreducibly_represented, row.exceptional) == expected
        assert row.fixture_status == "match"


def test_table1_c1_disagreement_is_documented():
    row = table1_row("C1")
    assert row.fixture_status == "match"
    assert row.exceptional is False
    assert "published list" in row.note


def test_table1_unsupported():
    row = table1_row("perm:(0 1 2 3 4);(0 1)")  # S5, order 120: no fixture row
    assert row.fixture_status == "unsupported"


def test_random_suite_reproducible():
    bases = [bouquet(2)]
    s1 = random_suite(3, 4, [parse_group_spec(s) for s in ("S3", "C2xC2")], bases)
    s2 = random_suite(3, 4, [parse_group_spec(s) for s in ("S3", "C2xC2")], bases)
    assert s1.to_json_dict() == s2.to_json_dict()
    assert s1.all_passed
    assert len(s1.entries) == 16  # 4 iterations x 4 checks
    empty = random_suite(0, 5, [], bases)
    assert empty.entries == []


def test_random_suite_on_shared_warm_groups_matches_a_cold_run(monkeypatch):
    # two runs in one process on the same group objects: the second reads every
    # coset plan, subgroup list and kept relation the first left, checks no
    # voltage action again, and writes the same JSON as a run on fresh groups
    import galois_span.covers as covers

    specs = ("S3", "D4", "Q8", "A4", "C2xC2")
    bases = [bouquet(2), bouquet(3)]
    shared = [parse_group_spec(s) for s in specs]
    first = json.dumps(random_suite(5, 15, shared, bases).to_json_dict())
    checked = []
    action = covers._voltage_action

    def counting_action(g, coset_of, reps, a):
        checked.append(a)
        return action(g, coset_of, reps, a)

    monkeypatch.setattr(covers, "_voltage_action", counting_action)
    second = json.dumps(random_suite(5, 15, shared, bases).to_json_dict())
    assert checked == []
    assert all(g._cache["coset_plans"] for g in shared)
    fresh = [parse_group_spec(s) for s in specs]
    cold = json.dumps(random_suite(5, 15, fresh, bases).to_json_dict())
    assert checked  # the fresh groups check their actions anew
    assert first == second == cold
    assert json.loads(cold)["all_passed"]


def test_abelian_noncyclic_formulas_are_nontrivial():
    # structural assertion: the exponent vectors are nonzero for both formulas
    for spec, seed in (("C2xC2", 11), ("C2xC6", 12), ("C2xC4", 13)):
        g = parse_group_spec(spec)
        alpha = random_connected_voltage(bouquet(2), g, seed)
        c = derived_graph(alpha)
        ku = verify_kuroda(c)
        assert ku.passed and not ku.trivial
        assert any(t["exponent"] != 0 for t in ku.details["terms"])
        bk = verify_brauer_kuroda(c)
        assert bk.passed and not bk.trivial
        assert any(t["cleared_exponent"] != 0 for t in bk.details["terms"])


def test_hmsv_trivial_group():
    g = cyclic_group(1)
    alpha = VoltageAssignment(base=bouquet(2), group=g, volt=(0, 0))
    report = verify_hmsv(derived_graph(alpha))
    assert report.passed and report.trivial
    assert isinstance(report.left, int) and isinstance(report.right, int)


def _merged(terms):
    """The coefficients summed within each conjugacy class of subgroups."""
    merged = {}
    for h, n in terms:
        merged[h.class_key()] = merged.get(h.class_key(), 0) + n
    return merged


def _vanishes_on_characters(g, terms) -> bool:
    """sum n_H Ind_H^G(1) = 0 at every class, each value counted by products."""
    table = character_table(g)
    total = [0] * table.class_count
    for h, n in terms:
        for i, value in enumerate(induced_trivial_values_by_products(table, h)):
            total[i] += n * value
    return not any(total)


@pytest.mark.parametrize("spec", sorted(TABLE1_FLAGS) + ["C2xS4", "C4xS4", "S5"])
def test_kuroda_and_brauer_kuroda_vectors_are_brauer_relations(spec):
    # each merged vector is zero exactly for the group the formula degenerates on
    g = parse_group_spec(spec)
    for terms, degenerate in (
        (theorems._kuroda_terms(g), is_irreducibly_represented(g)),
        (theorems._brauer_kuroda_terms(g), g.is_cyclic()),
    ):
        assert _vanishes_on_characters(g, terms)
        assert checked_relation(g, terms) == tuple(terms)
        assert (not any(_merged(terms).values())) == degenerate


@pytest.mark.parametrize("m", range(5))
def test_hmsv_vector_is_a_brauer_relation(m):
    g = parse_group_spec("x".join(["C2"] * m) or "C1")
    terms = theorems._hmsv_terms(g)
    assert len(terms) == 2 + 2**m - 1
    assert _vanishes_on_characters(g, terms)
    assert checked_relation(g, terms) == tuple(terms)
    assert (not any(_merged(terms).values())) == (m <= 1)


@pytest.mark.parametrize("verify, spec", [(verify_kuroda, "C2xC6"), (verify_brauer_kuroda, "S3")])
def test_wrong_moebius_values_are_not_a_brauer_relation(monkeypatch, verify, spec):
    # doubling every Moebius value breaks both poset formulas; a freshly
    # parsed group has no checked relation kept yet
    class Doubled:
        def __init__(self, table):
            self.table = table

        def mu(self, a, b):
            return 2 * self.table.mu(a, b)

    monkeypatch.setattr(theorems, "mobius", lambda poset: Doubled(mobius(poset)))
    c = derived_graph(random_connected_voltage(bouquet(2), parse_group_spec(spec), seed=1))
    with pytest.raises(NotABrauerRelationError, match=r"^sum n_H Ind_H\^G\(1\) != 0: "):
        verify(c)


@pytest.mark.parametrize(
    "verify, builder, spec",
    [
        (verify_kuroda, "_kuroda_terms", "S3"),
        (verify_brauer_kuroda, "_brauer_kuroda_terms", "C2xC2"),
        (verify_hmsv, "_hmsv_terms", "C2xC2"),
    ],
)
def test_a_wrong_coefficient_in_a_named_formula_is_not_a_brauer_relation(
    monkeypatch, verify, builder, spec
):
    build = getattr(theorems, builder)

    def one_off(g):
        *head, (h, n) = build(g)
        return head + [(h, n + 1)]

    monkeypatch.setattr(theorems, builder, one_off)
    g = parse_group_spec(spec)
    c = derived_graph(random_connected_voltage(bouquet(2), g, seed=1))
    with pytest.raises(NotABrauerRelationError):
        verify(c)
    monkeypatch.setattr(theorems, builder, build)
    assert verify(c).passed  # nothing wrong was kept on the group


def _two_conjugate_c2(g):
    lab = g.element
    return generated_subgroup(g, [lab("(0 1)")]), generated_subgroup(g, [lab("(1 2)")])


def test_custom_relation_takes_kappa_once_per_conjugacy_class(monkeypatch):
    # [1] + 2[S3] - [C3] - [C2] - [C2'] with two conjugate C2 listed apart
    c = s3_cover()
    g = c.group
    c2, c2_conjugate = _two_conjugate_c2(g)
    assert c2.class_key() == c2_conjugate.class_key() and c2 != c2_conjugate
    relation = {
        generated_subgroup(g, []): 1,
        generated_subgroup(g, range(g.order)): 2,
        generated_subgroup(g, [g.element("(0 1 2)")]): -1,
        c2: -1,
        c2_conjugate: -1,
    }
    calls = []
    monkeypatch.setattr(
        theorems, "intermediate_kappa", lambda cover, h: calls.append(h) or intermediate_kappa(cover, h)
    )
    report = verify_custom_relation(c, relation)
    assert report.passed and not report.trivial
    assert len(calls) == 4 and c2_conjugate not in calls
    assert report.left == report.right == 6 * 294 * 1


def test_custom_relation_takes_no_kappa_for_a_zero_coefficient(monkeypatch):
    c = s3_cover()
    calls = []
    monkeypatch.setattr(
        theorems, "intermediate_kappa", lambda cover, h: calls.append(h) or intermediate_kappa(cover, h)
    )
    report = verify_custom_relation(c, {h: 0 for h in cyclic_subgroups(c.group)})
    assert report.passed and report.trivial and calls == []


def test_custom_relation_of_two_conjugates_is_trivially_true():
    c = s3_cover()
    c2, c2_conjugate = _two_conjugate_c2(c.group)
    report = verify_custom_relation(c, {c2: 1, c2_conjugate: -1})
    assert report.passed and report.trivial and report.status() == "trivially true"
    assert report.left == report.right == 3 * 7


def test_custom_relation_refuses_a_subgroup_of_another_group_with_coefficient_zero():
    c = s3_cover()
    other = parse_group_spec("S3")
    relation = {generated_subgroup(c.group, []): 0, generated_subgroup(other, []): 0}
    with pytest.raises(WrongGroupError, match="^subgroup of a different group$"):
        verify_custom_relation(c, relation)


ARTIN_GROUPS = ["S3", "S4", "C2xS4", "A5", "C12", "C2xC2xC2", "Q8", "C3xS3", "C4xS4", "S5"]


@pytest.mark.parametrize("spec", ARTIN_GROUPS)
def test_brauer_kuroda_vector_is_artin_induction_of_the_trivial_character(spec):
    # |G| [G] - |G| sum_C a_C [C] with 1 = sum_C a_C Ind_C^G(1), a_C from the
    # classical Moebius function over cyclic overgroups, subgroup by subgroup
    g = parse_group_spec(spec)
    terms = theorems._brauer_kuroda_terms(g)
    coeffs = artin_coefficients(character_table(g), [1] * len(g.conjugacy_classes()))
    assert (terms[0][0].elements, terms[0][1]) == (tuple(range(g.order)), g.order)
    assert [h.elements for h, _ in terms[1:]] == [c.elements for c in cyclic_subgroups(g)]
    for h, n in terms[1:]:
        assert n == -g.order * coeffs[h.elements], h.describe()


@pytest.mark.parametrize("spec", ["S3", "Q8", "A4", "C2xS4"])
def test_verify_eq3_reports_a_perturbed_coefficient_without_raising(monkeypatch, spec):
    g = parse_group_spec(spec)
    table = character_table(g)
    assert theorems.verify_eq3(g).passed
    real = theorems._brauer_kuroda_terms
    cyclic = real(g)[-1][0]

    def perturbed(group):
        terms = real(group)
        h, n = terms[-1]
        return terms[:-1] + [(h, n + 1)]

    monkeypatch.setattr(theorems, "_brauer_kuroda_terms", perturbed)
    report = theorems.verify_eq3(g)
    assert report.status() == "FAIL"
    # the pairing moves by <Ind_C^G 1, rho> = (1/|C|) sum_(x in C) rho(x), Frobenius reciprocity
    failing = []
    for idx, rho in enumerate(table.characters):
        total = sum((rho.value_cyclo(table.class_of[x]) for x in cyclic.elements), CyclotomicInt.zero(table.e))
        if total.as_int():
            failing.append("unit partition" if rho.is_trivial() else f"character {idx}")
    assert failing[0] == "unit partition"
    assert [note.split(":")[0] for note in report.notes.split("; ")] == failing
    assert report.left == len(table.characters)
    assert report.right == len(table.characters) - len(failing)
