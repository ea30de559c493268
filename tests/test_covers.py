import json
import random
from collections import Counter
from itertools import combinations

import pytest

from galois_span.covers import (
    Cover,
    VoltageAssignment,
    _CosetPlan,
    _coset_quotient,
    conjugate_kappa_check,
    cover_to_json_dict,
    derived_graph,
    intermediate_graph,
    intermediate_kappa,
    is_galois,
    random_connected_voltage,
    voltage_from_json_dict,
)
from galois_span.errors import (
    DisconnectedGraphError,
    EulerZeroError,
    GraphError,
    InvariantError,
    MismatchedGroupError,
    NoConnectedAssignmentFoundError,
    NotGaloisError,
    VoltageError,
)
from galois_span.graphs import (
    bouquet,
    build_graph,
    complete_graph,
    cycle_graph,
    hashimoto_check,
    path_graph,
)
from galois_span.groups import (
    all_subgroups,
    are_conjugate_subgroups,
    cyclic_group,
    cyclic_subgroups,
    dihedral_group,
    direct_product,
    generated_subgroup,
    left_cosets,
    parse_group_spec,
    symmetric_group,
)
from galois_span.linalg import det_int
from helpers import (
    _validate_covering,
    base_projection_by_full_covering_check,
    coset_quotient_by_representatives,
    cycle_nets,
    dumbbell_graph,
    kappa_by_representatives,
    laplacian,
    projection_by_full_covering_check,
    random_connected_voltage_by_derived_graph,
    set_partitions,
    theta_graph,
    voltage_by_orientation_slot,
)


def fig2_cover() -> Cover:
    g = parse_group_spec("C2xC6")
    alpha = VoltageAssignment(
        base=bouquet(2),
        group=g,
        volt=(g.element("(1,0)"), g.element("(0,1)")),
    )
    return derived_graph(alpha)


def s3_cover() -> Cover:
    g = symmetric_group(3)
    alpha = VoltageAssignment(
        base=bouquet(2),
        group=g,
        volt=(g.element("(0 1)"), g.element("(0 1 2)")),
    )
    return derived_graph(alpha)


def test_derived_graph_shape():
    c = fig2_cover()
    assert c.derived.vertex_count == 12
    assert c.derived.edge_count == 4 * 12
    assert c.derived.euler_characteristic() == -12
    assert c.derived.is_connected()
    assert is_galois(c.voltage)


def test_cayley_cover_of_single_loop():
    g = cyclic_group(5)
    alpha = VoltageAssignment(base=bouquet(1), group=g, volt=(1,))
    c = derived_graph(alpha)
    assert c.derived.vertex_count == 5
    assert c.derived.spanning_tree_count() == 5  # 5-cycle


def test_voltage_extension_rule():
    g = cyclic_group(4)
    alpha = VoltageAssignment(base=bouquet(2), group=g, volt=(1, 3))
    base = alpha.base
    for e in base.orientation():
        assert alpha.voltage_of(base.inverse[e]) == g.inv(alpha.voltage_of(e))


def test_not_galois_when_voltages_generate_proper_subgroup():
    g = cyclic_group(4)
    alpha = VoltageAssignment(base=bouquet(1), group=g, volt=(2,))  # <2> = C2 < C4
    c = derived_graph(alpha)
    assert not is_galois(c.voltage)
    with pytest.raises(NotGaloisError):
        intermediate_graph(c, generated_subgroup(g, []))


def test_is_galois_names_its_argument_type():
    c = derived_graph(VoltageAssignment(base=bouquet(1), group=cyclic_group(2), volt=(1,)))
    with pytest.raises(TypeError, match="takes a VoltageAssignment, got Cover"):
        is_galois(c)


def test_disconnected_identity_voltage_two_vertices():
    base = build_graph(2, [(0, 1)])
    g = cyclic_group(2)
    alpha = VoltageAssignment(base=base, group=g, volt=(0,))
    assert not is_galois(alpha)
    assert not derived_graph(alpha).derived.is_connected()


def test_fig2_intermediate_kappas():
    c = fig2_cover()
    g = c.group
    kappas = {h.elements: intermediate_kappa(c, h) for h in all_subgroups(g)}
    lab = g.element
    h1 = generated_subgroup(g, [lab("(1,0)")]).elements
    h2 = generated_subgroup(g, [lab("(1,3)")]).elements
    h3 = generated_subgroup(g, [lab("(0,3)")]).elements
    h4 = generated_subgroup(g, [lab("(1,0)"), lab("(0,3)")]).elements
    assert kappas[h1] == 6
    assert kappas[h2] == 300
    assert kappas[h3] == 294
    assert kappas[h4] == 3
    assert c.derived.spanning_tree_count() == 117600


def test_s3_intermediate_kappas():
    c = s3_cover()
    g = c.group
    assert c.derived.spanning_tree_count() == 294
    assert c.base.spanning_tree_count() == 1
    kappas = sorted(
        (h.order, intermediate_kappa(c, h)) for h in cyclic_subgroups(g)
    )
    # order-2 subgroups give 7 (conjugate), the order-3 subgroup gives 2
    assert kappas == [(1, 294), (2, 7), (2, 7), (2, 7), (3, 2)]


def test_whole_group_quotient_is_base():
    c = fig2_cover()
    whole = generated_subgroup(c.group, range(c.group.order))
    inter = intermediate_graph(c, whole)
    assert inter.graph.vertex_count == c.base.vertex_count
    assert inter.graph.spanning_tree_count() == c.base.spanning_tree_count()
    triv = generated_subgroup(c.group, [])
    assert (
        intermediate_graph(c, triv).graph.spanning_tree_count()
        == c.derived.spanning_tree_count()
    )


def test_trivial_quotient_is_the_derived_graph():
    covers = [
        fig2_cover(),
        s3_cover(),
        derived_graph(random_connected_voltage(complete_graph(4), symmetric_group(4), 3)),
        derived_graph(random_connected_voltage(dumbbell_graph(), dihedral_group(4), 7)),
    ]
    for c in covers:
        inter = intermediate_graph(c, generated_subgroup(c.group, []))
        assert inter.coset_count == c.group.order
        assert inter.coset_of == tuple(range(c.group.order))
        assert inter.graph.origin == c.derived.origin
        assert inter.graph.terminus == c.derived.terminus
        assert inter.graph.inverse == c.derived.inverse
        assert [name.replace(",H", ",") for name in inter.graph.vertex_names] == list(
            c.derived.vertex_names
        )


def test_intermediate_counts_and_degrees():
    c = s3_cover()
    g = c.group
    for h in all_subgroups(g):
        inter = intermediate_graph(c, h)
        assert inter.graph.vertex_count == c.base.vertex_count * h.index()
        assert inter.graph.geometric_edge_count == c.base.geometric_edge_count * h.index()
        # covering maps preserve degrees
        k = inter.coset_count
        degrees = inter.graph.degrees()
        base_degrees = c.base.degrees()
        for w in range(inter.graph.vertex_count):
            assert degrees[w] == base_degrees[w // k]


def test_euler_characteristic_multiplies_by_index():
    c = fig2_cover()
    for h in all_subgroups(c.group):
        inter = intermediate_graph(c, h)
        assert inter.graph.euler_characteristic() == h.index() * c.base.euler_characteristic()


def test_tower_consistency():
    c = fig2_cover()
    g = c.group
    subs = all_subgroups(g)
    for h in subs:
        for hp in subs:
            if not set(h.elements) <= set(hp.elements):
                continue
            lower = intermediate_graph(c, h)
            upper = intermediate_graph(c, hp)
            k_low, k_up = lower.coset_count, upper.coset_count
            # canonical map (v, H sigma) -> (v, H' sigma) via coset representatives
            vmap = []
            for w in range(lower.graph.vertex_count):
                v, ci = w // k_low, w % k_low
                rep = [x for x in range(g.order) if lower.coset_of[x] == ci][0]
                vmap.append(v * k_up + upper.coset_of[rep])
            emap = []
            for d in range(lower.graph.edge_count):
                e, ci = d // k_low, d % k_low
                rep = [x for x in range(g.order) if lower.coset_of[x] == ci][0]
                emap.append(e * k_up + upper.coset_of[rep])
            _validate_covering(lower.graph, upper.graph, vmap, emap)


def test_covering_check_refuses_a_map_that_is_not_a_local_bijection():
    # both loops of a one-vertex graph onto the first loop of bouquet:2: endpoints
    # and inversion commute, but the vertex's four edges cover only two
    top, bottom = bouquet(2), bouquet(2)
    with pytest.raises(InvariantError, match="restriction at vertex 0 is not a bijection"):
        _validate_covering(top, bottom, vmap=[0], emap=[0, 1, 0, 1])


@pytest.mark.parametrize(
    "base_name, spec, seed",
    [
        ("bouquet:2", "S3", 0),
        ("bouquet:2", "Q8", 1),
        ("complete:4", "S4", 2),
        ("bouquet:2", "C2xS4", 3),
    ],
)
def test_projection_check_accepts_as_the_full_covering_check(base_name, spec, seed):
    # every quotient the builder returns passes both full covering checks: X_H -> X
    # and Y -> X_H, with maps over every vertex and edge and every star sorted
    g = parse_group_spec(spec)
    c = derived_graph(random_connected_voltage(GENERATION_BASES[base_name], g, seed))
    base_projection_by_full_covering_check(c.derived, c.base)
    for h in all_subgroups(g):
        inter = intermediate_graph(c, h)
        base_projection_by_full_covering_check(inter.graph, c.base)
        projection_by_full_covering_check(c, inter.graph, inter.coset_of)


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except InvariantError:
        return False
    return True


@pytest.mark.parametrize(
    "base_name, spec, seed",
    [
        ("bouquet:2", "S3", 0),
        ("complete:4", "S3", 1),
        ("bouquet:2", "C6", 0),
        ("bouquet:2", "D4", 0),
    ],
)
def test_projection_check_agrees_with_the_full_check_on_every_partition(base_name, spec, seed):
    # on every partition of G the builder's verdict (a graph, or InvariantError) is
    # the oracle's: the arrays built from block representatives form a Serre graph
    # and both projections pass the full covering check.  Both accept exactly the
    # coset partitions of subgroups, with the same arrays.
    g = parse_group_spec(spec)
    alpha = random_connected_voltage(GENERATION_BASES[base_name], g, seed)
    c = derived_graph(alpha)
    accepted = serre_but_refused = 0
    for blocks in set_partitions(list(range(g.order))):
        try:
            expected, coset_of = coset_quotient_by_representatives(alpha, blocks)
        except GraphError:
            oracle = False  # the arrays are not a Serre graph (inversion not an involution)
        else:
            oracle = _accepts(projection_by_full_covering_check, c, expected, coset_of)
            oracle = oracle and _accepts(base_projection_by_full_covering_check, expected, c.base)
            serre_but_refused += not oracle
        try:
            plan = _CosetPlan(g, blocks)
            graph = _coset_quotient(alpha, plan, "H")
        except InvariantError:
            graph = None
        assert (graph is not None) == oracle, blocks
        if oracle:
            assert list(plan.coset_of) == coset_of
            assert (graph.origin, graph.terminus, graph.inverse) == (
                expected.origin,
                expected.terminus,
                expected.inverse,
            )
            accepted += 1
    assert accepted == len(all_subgroups(g))
    assert serre_but_refused > 0


def test_projection_check_refuses_a_partition_not_stable_under_right_multiplication():
    # the sigma*H cosets of a non-normal subgroup of S3: right multiplication by the
    # voltages does not permute them.  The builder refuses them in its per-voltage
    # pass, before any array is built; the arrays built from block representatives
    # are not a Serre graph at all (inversion not an involution).
    c = s3_cover()
    g = c.group
    h = generated_subgroup(g, [g.element("(0 1)")])
    assert not h.is_normal()
    blocks = sorted({tuple(sorted(g.mul(s, x) for x in h.elements)) for s in range(g.order)})
    with pytest.raises(InvariantError, match="does not commute with endpoints"):
        _coset_quotient(c.voltage, _CosetPlan(g, blocks), "H")
    with pytest.raises(GraphError, match="inversion not an involution"):
        coset_quotient_by_representatives(c.voltage, blocks)


def test_kappa_path_refuses_a_partition_not_stable_under_right_multiplication(monkeypatch):
    # the same sigma*H cosets, handed to intermediate_kappa in place of the left
    # cosets: the per-voltage check refuses them before any determinant runs
    import galois_span.covers as covers
    import galois_span.graphs as graphs

    c = s3_cover()
    g = c.group
    h = generated_subgroup(g, [g.element("(0 1)")])
    blocks = sorted({tuple(sorted(g.mul(s, x) for x in h.elements)) for s in range(g.order)})
    dets = []
    monkeypatch.setattr(covers, "left_cosets", lambda subgroup: blocks)
    monkeypatch.setattr(graphs, "det_int_sparse_spd", lambda rows: dets.append(rows) or 1)
    with pytest.raises(InvariantError, match="does not commute with endpoints"):
        intermediate_kappa(c, h)
    assert dets == []
    assert h.elements not in c._kappas


def test_kappas_of_every_subgroup_build_no_graph_beyond_the_derived_graph(monkeypatch):
    # kappa(X_H) goes from the checked quotient arrays straight to the reduced
    # Laplacian: no names, no SerreGraph; the derived graph is the one graph built
    import galois_span.graphs as graphs

    g = parse_group_spec("C2xS4")
    alpha = random_connected_voltage(bouquet(2), g, 3)
    built = []
    init = graphs.SerreGraph.__init__

    def counting_init(self, vertex_count, *args, **kwargs):
        built.append(vertex_count)
        init(self, vertex_count, *args, **kwargs)

    monkeypatch.setattr(graphs.SerreGraph, "__init__", counting_init)
    c = derived_graph(alpha)
    subgroups = all_subgroups(g)
    kappas = [intermediate_kappa(c, h) for h in subgroups]
    assert built == [g.order]
    assert len(subgroups) == 98 and min(kappas) > 0
    # the oracle: the labelled quotient's own count, built outside the kappa path
    built.clear()
    for h, kappa in zip(subgroups, kappas):
        assert intermediate_graph(c, h).graph.spanning_tree_count() == kappa
    assert len(built) == len(subgroups)


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([(0, 1, 2), (3, 4)], "cosets do not partition the group"),  # 5 is missing
        ([(0, 1, 2), (2, 3, 4, 5)], "element 2 is not in exactly one coset"),
        ([(0, 1, 2), (3, 4, 5), ()], "cosets do not partition the group"),
        ([(0, 1, 2), (3, 4, 5, 6)], "element 6 is not in exactly one coset"),
        ([(0, 1, 2), (3, 4, -1)], "element -1 is not in exactly one coset"),
    ],
    ids=["missing", "repeated", "empty-block", "too-large", "negative"],
)
def test_coset_quotient_refuses_a_list_that_is_not_a_partition(blocks, message):
    c = s3_cover()
    with pytest.raises(InvariantError, match=message):
        _coset_quotient(c.voltage, _CosetPlan(c.group, blocks), "H")


def test_kuroda_on_an_s4_cover_eliminates_the_cover_once(monkeypatch):
    # kappa(X_{e}) is kappa(Y): one 119-row determinant, not one per quotient and one for Y
    import galois_span.graphs as graphs
    from galois_span.theorems import verify_kuroda

    sizes = []
    det = graphs.det_int_sparse_spd

    def counting_det(rows):
        sizes.append(len(rows))
        return det(rows)

    monkeypatch.setattr(graphs, "det_int_sparse_spd", counting_det)
    c = derived_graph(random_connected_voltage(complete_graph(5), symmetric_group(4), 3))
    assert verify_kuroda(c).passed
    assert c.derived.vertex_count == 120
    assert sizes.count(119) == 1


def test_voltage_refusals_are_typed():
    g = symmetric_group(3)
    refusals = [
        (
            lambda: VoltageAssignment(base=bouquet(2), group=g, volt=(0,)),
            "need one voltage per geometric edge",
        ),
        (
            lambda: VoltageAssignment(base=bouquet(2), group=g, volt=(0, 6)),
            "voltage 6 out of range",
        ),
        (
            lambda: voltage_from_json_dict(
                bouquet(2), {"group": "S3", "assignments": [{"edge": 2, "element": "e"}]}
            ),
            "edge index 2 out of range",
        ),
    ]
    for call, message in refusals:
        with pytest.raises(VoltageError) as exc:
            call()
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == message




def test_conjugate_kappa_check():
    report = conjugate_kappa_check(s3_cover())
    assert report.passed
    assert report.left == report.right > 0
    # abelian group: no nontrivial conjugate pairs, vacuous pass
    report = conjugate_kappa_check(fig2_cover())
    assert report.passed and report.left == 0
    # dihedral: conjugate reflections give equal kappa
    d4 = dihedral_group(4)
    alpha = random_connected_voltage(bouquet(2), d4, seed=9)
    assert conjugate_kappa_check(derived_graph(alpha)).passed


def test_quotient_kappas_equal_dense_minor_on_s4_cover():
    g = symmetric_group(4)
    c = derived_graph(random_connected_voltage(complete_graph(5), g, seed=3))
    for h in cyclic_subgroups(g):
        graph = intermediate_graph(c, h).graph
        minor = [row[1:] for row in laplacian(graph)[1:]]
        assert graph.spanning_tree_count() == det_int(minor)
        assert intermediate_kappa(c, h) == det_int(minor)


@pytest.mark.parametrize("spec, seed", [("S3", 1), ("S4", 2), ("C2xS4", 3)])
def test_conjugate_kappa_check_pairs_are_the_conjugate_pairs(spec, seed):
    g = parse_group_spec(spec)
    c = derived_graph(random_connected_voltage(bouquet(2), g, seed=seed))
    subs = all_subgroups(g)
    conjugate_pairs = sum(
        are_conjugate_subgroups(subs[i], subs[j])
        for i in range(len(subs))
        for j in range(i + 1, len(subs))
    )
    report = conjugate_kappa_check(c)
    assert report.passed
    assert report.left == conjugate_pairs > 0


def test_conjugate_kappa_check_computes_every_subgroup(monkeypatch):
    import galois_span.covers as covers

    calls = []
    original = covers.intermediate_kappa
    monkeypatch.setattr(
        covers, "intermediate_kappa", lambda cover, h: calls.append(h) or original(cover, h)
    )
    c = s3_cover()
    assert conjugate_kappa_check(c).passed
    assert [h.elements for h in calls] == [h.elements for h in all_subgroups(c.group)]


def test_random_connected_voltage_determinism():
    g = symmetric_group(3)
    a1 = random_connected_voltage(bouquet(2), g, seed=0)
    a2 = random_connected_voltage(bouquet(2), g, seed=0)
    assert a1.volt == a2.volt
    assert derived_graph(a1).derived.is_connected()


GENERATION_BASES = {
    "bouquet:2": bouquet(2),
    "bouquet:3": bouquet(3),
    "cycle:3": cycle_graph(3),
    "complete:4": complete_graph(4),
    "dumbbell": dumbbell_graph(),
    "theta": theta_graph(),
    "leaf-loop-double": build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 2), (2, 3)]),
    "path:3": path_graph(3),
}
GENERATION_GROUPS = ("C2", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4", "C2xC2xC2", "C3xS3")


def test_generation_test_equals_connectivity_of_the_derived_graph():
    # the fundamental-cycle nets generate G exactly when the built derived graph
    # is connected; uniform voltages give both outcomes on every base
    rng = random.Random(29)
    outcomes = {True: 0, False: 0}
    for spec in GENERATION_GROUPS:
        g = parse_group_spec(spec)
        for base in GENERATION_BASES.values():
            for _ in range(8):
                volt = tuple(rng.randrange(g.order) for _ in range(base.geometric_edge_count))
                alpha = VoltageAssignment(base=base, group=g, volt=volt)
                generates = generated_subgroup(g, cycle_nets(alpha)).order == g.order
                assert generates == derived_graph(alpha).derived.is_connected(), (spec, volt)
                assert generates == is_galois(alpha)
                outcomes[generates] += 1
    assert sum(outcomes.values()) >= 500
    assert min(outcomes.values()) >= 100, outcomes


def test_voltage_of_agrees_with_the_orientation_bisect():
    rng = random.Random(31)
    for spec in GENERATION_GROUPS:
        g = parse_group_spec(spec)
        for base in GENERATION_BASES.values():
            volt = tuple(rng.randrange(g.order) for _ in range(base.geometric_edge_count))
            alpha = VoltageAssignment(base=base, group=g, volt=volt)
            edges = range(base.edge_count)
            assert [alpha.voltage_of(e) for e in edges] == [
                voltage_by_orientation_slot(alpha, e) for e in edges
            ], (spec, volt)


@pytest.mark.parametrize(
    "base",
    [
        build_graph(2, [(0, 0), (1, 1)]),  # two components, each with a loop
        build_graph(3, [(0, 1), (1, 1)]),  # an isolated vertex
        build_graph(0, []),
    ],
    ids=["two-loops", "isolated-vertex", "empty"],
)
@pytest.mark.parametrize("spec", ["C1", "C2", "S3"])
def test_generation_test_refuses_every_disconnected_base(base, spec):
    g = parse_group_spec(spec)
    for x in range(g.order):
        alpha = VoltageAssignment(base=base, group=g, volt=(x,) * base.geometric_edge_count)
        assert not is_galois(alpha)
        assert not derived_graph(alpha).derived.is_connected()


def test_generation_test_over_the_trivial_group_is_connectivity_of_the_base():
    g = parse_group_spec("C1")
    for base in GENERATION_BASES.values():
        alpha = VoltageAssignment(base=base, group=g, volt=(0,) * base.geometric_edge_count)
        assert is_galois(alpha)
        assert derived_graph(alpha).derived.is_connected()


def test_three_generator_group_never_generates_over_bouquet2():
    g = parse_group_spec("C2xC2xC2")
    for a in range(g.order):
        for b in range(g.order):
            alpha = VoltageAssignment(base=bouquet(2), group=g, volt=(a, b))
            assert generated_subgroup(g, cycle_nets(alpha)).order < g.order
            assert not is_galois(alpha)
            assert not derived_graph(alpha).derived.is_connected()
    with pytest.raises(NoConnectedAssignmentFoundError) as exc:
        random_connected_voltage(bouquet(2), g, seed=0)
    # byte-identical to the message in the random-corpus seed-0 digest
    assert str(exc.value) == "no connected assignment found in 200 attempts"


def test_cycle_nets_on_a_bouquet_and_a_tree():
    # bouquet: every loop is a fundamental cycle and its net is its voltage
    g = parse_group_spec("S3")
    alpha = VoltageAssignment(base=bouquet(3), group=g, volt=(1, 4, 0))
    assert cycle_nets(alpha) == [1, 4, 0]
    # a tree has no cycles
    assert cycle_nets(VoltageAssignment(base=path_graph(3), group=g, volt=(2, 5))) == []


@pytest.mark.parametrize("base_name", sorted(GENERATION_BASES))
def test_random_connected_voltage_equals_the_derived_graph_reference(base_name):
    base = GENERATION_BASES[base_name]
    for spec in GENERATION_GROUPS:
        g = parse_group_spec(spec)
        if base.euler_characteristic() == 0 and not g.is_cyclic():
            continue
        for seed in range(4):
            try:
                expected = random_connected_voltage_by_derived_graph(base, g, seed)
            except NoConnectedAssignmentFoundError as exc:
                with pytest.raises(NoConnectedAssignmentFoundError) as got:
                    random_connected_voltage(base, g, seed)
                assert str(got.value) == str(exc)
                continue
            assert random_connected_voltage(base, g, seed) == expected


def _count_sampler_work(monkeypatch) -> dict[str, int]:
    """Count the tree walks and the assignments built inside `covers`."""
    import galois_span.covers as covers

    counts = {"walks": 0, "assignments": 0}
    plan, assignment = covers._spanning_tree_plan, covers.VoltageAssignment

    def counting_plan(base):
        counts["walks"] += 1
        return plan(base)

    def counting_assignment(**kwargs):
        counts["assignments"] += 1
        return assignment(**kwargs)

    monkeypatch.setattr(covers, "_spanning_tree_plan", counting_plan)
    monkeypatch.setattr(covers, "VoltageAssignment", counting_assignment)
    return counts


def test_a_refused_voltage_request_walks_the_tree_once_and_builds_no_assignment(monkeypatch):
    # C2xC2xC2 needs three generators and bouquet:2 has two cycles: all 200 draws fail
    counts = _count_sampler_work(monkeypatch)
    with pytest.raises(NoConnectedAssignmentFoundError) as exc:
        random_connected_voltage(bouquet(2), parse_group_spec("C2xC2xC2"), seed=0)
    assert str(exc.value) == "no connected assignment found in 200 attempts"
    assert counts == {"walks": 1, "assignments": 0}


@pytest.mark.parametrize("base_name", ["bouquet:3", "complete:4", "theta"])
def test_an_accepted_voltage_request_builds_one_assignment_that_knows_it_is_galois(
    monkeypatch, base_name
):
    counts = _count_sampler_work(monkeypatch)
    alpha = random_connected_voltage(GENERATION_BASES[base_name], parse_group_spec("C3xS3"), 5)
    assert counts == {"walks": 1, "assignments": 1}
    assert alpha._galois is True
    assert derived_graph(alpha).derived.is_connected()


def test_cycle_nets_refuses_a_disconnected_base():
    base = build_graph(2, [(0, 0), (1, 1)])
    alpha = VoltageAssignment(base=base, group=cyclic_group(2), volt=(1, 1))
    with pytest.raises(DisconnectedGraphError):
        cycle_nets(alpha)


# (base, group) pairs whose seeded covers have at most 48 vertices, so the
# whole h(u) of the cover stays cheap; 14 groups in all
HASHIMOTO_COVERS = [
    *(("bouquet:2", spec) for spec in ("C2xC2", "S3", "D4", "Q8", "C2xC6", "D5", "Dic3")),
    *(("bouquet:3", spec) for spec in ("A4", "C3xS3", "C2xC2xC2", "D6", "C4xC2")),
    *(("complete:4", spec) for spec in ("C2", "C3", "S3", "C2xC2", "C4", "D4", "Q8")),
]


@pytest.mark.parametrize("base_name, spec", HASHIMOTO_COVERS)
def test_hashimoto_left_side_is_the_derivative_of_the_cover_h(base_name, spec):
    base = GENERATION_BASES[base_name]
    for seed in (1, 2):
        cover = derived_graph(random_connected_voltage(base, parse_group_spec(spec), seed))
        report = hashimoto_check(cover.derived)
        assert report.left == cover.derived.ihara_h_poly().derivative()(1)
        assert report.passed, report


def test_hashimoto_check_on_the_s4_cover_of_k5():
    # 120 vertices: h(u) itself would need 241 dense 120x120 determinants
    cover = derived_graph(random_connected_voltage(complete_graph(5), parse_group_spec("S4"), 1))
    assert cover.derived.vertex_count == 120
    assert hashimoto_check(cover.derived).passed


def test_random_voltage_euler_zero_guard():
    with pytest.raises(EulerZeroError):
        random_connected_voltage(cycle_graph(3), symmetric_group(3), seed=0)
    # cyclic group on chi = 0 base is allowed
    alpha = random_connected_voltage(cycle_graph(3), cyclic_group(2), seed=0)
    assert derived_graph(alpha).derived.is_connected()


def test_random_voltage_failure_bound():
    base = build_graph(2, [(0, 1)])  # tree: every cover of C2 disconnects
    with pytest.raises(NoConnectedAssignmentFoundError, match="found in 200 attempts$"):
        random_connected_voltage(base, cyclic_group(2), seed=0)


def test_voltage_json_roundtrip():
    base = bouquet(2)
    data = {
        "group": "C2xC6",
        "assignments": [
            {"edge": 0, "element": "(1,0)"},
            {"edge": 1, "element": "(0,1)"},
        ],
    }
    alpha = voltage_from_json_dict(base, data)
    c = derived_graph(alpha)
    assert c.derived.spanning_tree_count() == 117600
    dump = cover_to_json_dict(c)
    assert dump["derived"]["vertices"] == 12
    assert json.dumps(dump)  # serializable


def test_intermediate_kappa_on_two_vertex_base():
    base = dumbbell_graph()
    g = direct_product(cyclic_group(2), cyclic_group(2))
    alpha = random_connected_voltage(base, g, seed=4)
    c = derived_graph(alpha)
    for h in all_subgroups(g):
        inter = intermediate_graph(c, h)
        assert inter.graph.is_connected()
        assert inter.graph.spanning_tree_count() >= 1


# -- the values a cover, an assignment and a group keep ---------------------------


def _warm(c: Cover) -> None:
    """Every verifier of one selftest iteration, in the selftest's order."""
    from galois_span.theorems import verify_brauer_kuroda, verify_kuroda

    verify_kuroda(c)
    verify_brauer_kuroda(c)
    conjugate_kappa_check(c)
    hashimoto_check(c.derived)


@pytest.mark.parametrize(
    "base_name, spec", HASHIMOTO_COVERS + [("complete:4", "A4"), ("complete:4", "S4")]
)
def test_kept_kappas_equal_the_kappa_of_a_freshly_built_quotient(base_name, spec):
    base, g = GENERATION_BASES[base_name], parse_group_spec(spec)
    alpha = random_connected_voltage(base, g, 1)
    c = derived_graph(alpha)
    _warm(c)
    for h in all_subgroups(g):
        fresh = derived_graph(VoltageAssignment(base=base, group=g, volt=alpha.volt))
        expected = intermediate_graph(fresh, h).graph.spanning_tree_count()
        assert intermediate_kappa(c, h) == expected, (spec, h.describe())
    fresh = derived_graph(VoltageAssignment(base=base, group=g, volt=alpha.volt))
    assert c.derived.spanning_tree_count() == fresh.derived.spanning_tree_count()


def test_guards_still_raise_once_the_kept_values_are_warm():
    g = symmetric_group(3)
    c = s3_cover()
    _warm(c)
    # the same element sets in a structurally equal group: the key matches, the group does not
    twin = symmetric_group(3)
    for h in all_subgroups(twin):
        with pytest.raises(MismatchedGroupError):
            intermediate_kappa(c, h)
        with pytest.raises(MismatchedGroupError):
            intermediate_graph(c, h)
    # a cover that is not Galois refuses every request, the first and the later ones
    alpha = VoltageAssignment(base=bouquet(2), group=g, volt=(g.element("(0 1)"),) * 2)
    not_galois = derived_graph(alpha)
    assert not is_galois(alpha) and not is_galois(alpha)
    for _ in range(2):
        for h in all_subgroups(g):
            with pytest.raises(NotGaloisError):
                intermediate_kappa(not_galois, h)
        with pytest.raises(NotGaloisError):
            conjugate_kappa_check(not_galois)


@pytest.mark.parametrize("spec", ["C2xC2", "S3", "D4", "Q8", "A4", "C3xS3"])
def test_one_selftest_iteration_builds_each_quotient_once(monkeypatch, spec):
    import galois_span.covers as covers
    import galois_span.theorems as theorems

    built = []
    asked = []
    build = covers._edge_actions
    kappa = covers.intermediate_kappa

    def counting_build(alpha, plan):
        built.append(len(plan.reps))
        return build(alpha, plan)

    def recording_kappa(c, h):
        asked.append(h.elements)
        return kappa(c, h)

    monkeypatch.setattr(covers, "_edge_actions", counting_build)
    for module in (covers, theorems):
        monkeypatch.setattr(module, "intermediate_kappa", recording_kappa)
    summary = theorems.random_suite(3, 1, [parse_group_spec(spec)], [bouquet(2)])
    assert summary.all_passed
    subgroups = all_subgroups(parse_group_spec(spec))
    # every subgroup is asked for (the conjugate check asks for all), some more than once
    assert sorted(set(asked)) == sorted(h.elements for h in subgroups)
    assert len(asked) > len(set(asked))
    # one quotient built from the voltage actions per distinct nontrivial subgroup,
    # plus the derived graph; the trivial quotient is never built for its kappa,
    # which is the derived graph's
    assert len(built) == len(set(asked))
    assert built.count(parse_group_spec(spec).order) == 1


# -- the coset plans a group keeps for every cover of it --------------------------


def _coset_index_of(g, cosets) -> tuple[int, ...]:
    return tuple(next(i for i, c in enumerate(cosets) if y in c) for y in range(g.order))


@pytest.mark.parametrize("spec", ["S3", "D4", "A4", "C2xC2xC2"])
def test_two_covers_of_one_group_check_each_voltage_action_once(monkeypatch, spec):
    # the second cover shares the first one's voltages and adds one more edge:
    # each (coset list, voltage) pair is checked once, by whichever cover asks first
    import galois_span.covers as covers

    checked = []
    action = covers._voltage_action

    def counting_action(g, coset_of, reps, a):
        checked.append((coset_of, a))
        return action(g, coset_of, reps, a)

    monkeypatch.setattr(covers, "_voltage_action", counting_action)
    g = parse_group_spec(spec)
    first = random_connected_voltage(bouquet(3), g, 2)
    second = VoltageAssignment(base=bouquet(4), group=g, volt=first.volt + (g.order - 1,))
    per_cover = 0
    for alpha in (first, second):
        c = derived_graph(alpha)
        assert conjugate_kappa_check(c).passed
        per_cover += len(all_subgroups(g)) * len(set(alpha.edge_volt))
    expected = {
        (_coset_index_of(g, left_cosets(h)), a)
        for h in all_subgroups(g)
        for alpha in (first, second)
        for a in alpha.edge_volt
    }
    assert sorted(checked) == sorted(expected)
    assert len(checked) < per_cover
    # the kept actions give the kappas of a group that has kept nothing
    twin = parse_group_spec(spec)
    fresh = derived_graph(VoltageAssignment(base=bouquet(4), group=twin, volt=second.volt))
    warm = derived_graph(second)
    for h, h_twin in zip(all_subgroups(g), all_subgroups(twin)):
        assert intermediate_kappa(warm, h) == intermediate_kappa(fresh, h_twin), h.describe()


@pytest.mark.parametrize(
    "blocks",
    [[(0, 1, 2), (3, 4)], [(0, 1, 2), (2, 3, 4, 5)], [(0, 1, 2), (3, 4, 5), ()]],
    ids=["missing", "repeated", "empty-block"],
)
def test_a_list_that_is_not_a_partition_keeps_no_plan_and_is_refused_again(monkeypatch, blocks):
    # H's plan is built from its coset list on H's first request; a list that is
    # not a partition keeps no plan under H, so every later request is refused again
    import galois_span.covers as covers

    c = s3_cover()
    h = generated_subgroup(c.group, [c.group.element("(0 1)")])
    monkeypatch.setattr(covers, "left_cosets", lambda subgroup: blocks)
    for request in (intermediate_kappa, intermediate_graph, intermediate_kappa):
        with pytest.raises(InvariantError):
            request(c, h)
        assert h.elements not in c.group._cache.get("coset_plans", {})
        assert h.elements not in c._kappas


def test_a_voltage_whose_action_fails_keeps_nothing_and_is_refused_again(monkeypatch):
    # the sigma*H cosets of a non-normal subgroup of S3 partition G, so H's plan is
    # kept, but no voltage action that fails its check; every later request, from
    # this cover or another cover of G, runs the check again
    import galois_span.covers as covers

    c = s3_cover()
    g = c.group
    h = generated_subgroup(g, [g.element("(0 1)")])
    blocks = sorted({tuple(sorted(g.mul(s, x) for x in h.elements)) for s in range(g.order)})
    refused = []
    action = covers._voltage_action

    def recording_action(g, coset_of, reps, a):
        try:
            return action(g, coset_of, reps, a)
        except InvariantError:
            refused.append(a)
            raise

    monkeypatch.setattr(covers, "_voltage_action", recording_action)
    monkeypatch.setattr(covers, "left_cosets", lambda subgroup: blocks)
    other = derived_graph(
        VoltageAssignment(base=bouquet(3), group=g, volt=c.voltage.volt + (g.identity,))
    )
    for cover in (c, c, other):
        with pytest.raises(InvariantError, match="does not commute with endpoints"):
            intermediate_kappa(cover, h)
        assert h.elements not in cover._kappas
    plan = g._cache["coset_plans"][h.elements]
    assert plan.coset_of == tuple(_coset_index_of(g, blocks))
    assert refused and not set(refused) & set(plan.actions)
    assert len(refused) == 3


def test_left_cosets_hands_out_a_fresh_list():
    g = symmetric_group(3)
    h = generated_subgroup(g, [g.element("(0 1)")])
    cosets = left_cosets(h)
    cosets.append((0,))
    cosets[0] = ()
    expected = sorted({tuple(sorted(g.mul(a, x) for a in h.elements)) for x in range(6)})
    assert left_cosets(h) == expected


# -- kappa(X_H) read off the kept plan ---------------------------------------------

PLAN_COVERS = [
    (base_name, spec)
    for spec in ("S3", "D4", "Q8", "A4", "S4", "C2xC2xC2")
    for base_name in ("bouquet:2", "bouquet:3", "complete:4")
    # rank 3 exceeds the Betti number 2 of bouquet:2: no connected cover exists
    if (base_name, spec) != ("bouquet:2", "C2xC2xC2")
]


@pytest.mark.parametrize("base_name, spec", PLAN_COVERS)
def test_plan_kappas_equal_the_kappas_of_quotients_built_by_representatives(base_name, spec):
    # two covers of one group: the first builds every plan and action, the second
    # reads them back and adds the actions of its own new voltages
    base, g = GENERATION_BASES[base_name], parse_group_spec(spec)
    for seed in (0, 1):
        alpha = random_connected_voltage(base, g, seed)
        c = derived_graph(alpha)
        for h in all_subgroups(g):
            assert intermediate_kappa(c, h) == kappa_by_representatives(alpha, h), (
                seed,
                h.describe(),
            )


def _asymmetric_swap(image: tuple[int, ...]):
    """The action with the images of two cosets i < j swapped, for the first
    pair whose change to a bouquet quotient's adjacency, E(i, image[j]) +
    E(j, image[i]) - E(i, image[i]) - E(j, image[j]), is not symmetric off
    coset 0, whose row and column the reduced Laplacian drops; None when no
    pair is."""
    for i, j in combinations(range(len(image)), 2):
        change = Counter([(i, image[j]), (j, image[i])])
        change.subtract([(i, image[i]), (j, image[j])])
        if any(r and c and r != c and n != change[c, r] for (r, c), n in list(change.items())):
            swapped = list(image)
            swapped[i], swapped[j] = image[j], image[i]
            return tuple(swapped)
    return None


@pytest.mark.parametrize("spec", ["S3", "D4", "Q8", "A4", "S4"])
@pytest.mark.parametrize("base_name", ["bouquet:2", "bouquet:3"])
def test_a_corrupted_kept_action_is_refused_by_the_symmetry_check(monkeypatch, base_name, spec):
    # two images swapped in the kept action of a voltage a of order > 2, with the
    # action of a^-1 left alone: the reduced Laplacian is not symmetric, and the
    # elimination refuses it before any kappa comes out
    import galois_span.covers as covers

    base, g = GENERATION_BASES[base_name], parse_group_spec(spec)
    alpha = next(
        alpha
        for alpha in (random_connected_voltage(base, g, seed) for seed in range(20))
        if any(g.inv(a) != a for a in alpha.volt)
    )
    derived_graph(alpha)
    corrupted = 0
    for h in all_subgroups(g):
        if h.is_trivial():
            continue  # kappa(Y) is read from the derived graph, not from a plan
        plan = covers._coset_plan(h)
        covers._edge_actions(alpha, plan)
        for a in sorted(set(alpha.volt)):
            swapped = _asymmetric_swap(plan.actions[a])
            if g.inv(a) == a or swapped is None:
                continue
            monkeypatch.setitem(plan.actions, a, swapped)
            c = derived_graph(VoltageAssignment(base=base, group=g, volt=alpha.volt))
            with pytest.raises(InvariantError, match="matrix is not symmetric"):
                intermediate_kappa(c, h)
            assert h.elements not in c._kappas
            monkeypatch.undo()
            corrupted += 1
    assert corrupted > 0
    # with every action restored, the kappas are the oracle's again
    c = derived_graph(VoltageAssignment(base=base, group=g, volt=alpha.volt))
    for h in all_subgroups(g):
        assert intermediate_kappa(c, h) == kappa_by_representatives(alpha, h), h.describe()
