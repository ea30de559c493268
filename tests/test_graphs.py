import json
import random

import pytest

from galois_span.errors import (
    DisconnectedGraphError,
    GaloisSpanError,
    GraphError,
    InvariantError,
    TooLargeError,
)
from galois_span.graphs import (
    SerreGraph,
    bouquet,
    build_graph,
    complete_graph,
    cycle_graph,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    hashimoto_check,
    matrix_tree_count,
    path_graph,
    zeta_numerator,
)
from galois_span.linalg import det_int
from helpers import (
    brute_force_spanning_trees,
    delete_row_col,
    dense_zeta_numerator_at,
    laplacian,
    random_connected_graph,
)


def test_build_graph_bouquet():
    g = bouquet(2)
    assert g.vertex_count == 1
    assert g.edge_count == 4
    assert g.euler_characteristic() == -1
    assert g.adjacency_matrix() == [[4]]
    assert g.degrees() == [4]


def test_build_graph_validates():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 5)])
    # involution axioms checked at construction
    with pytest.raises(ValueError):
        SerreGraph(1, (0,), (0,), (0,))  # odd count / fixed point


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SerreGraph(1, (0, 0), (0,), (1, 0)), "edge arrays have inconsistent lengths"),
        (lambda: SerreGraph(1, (0,), (0,), (0,)), "directed edge count must be even"),
        (lambda: SerreGraph(1, (0, 1), (1, 0), (1, 0)), "edge 0 endpoint out of range"),
        (
            lambda: SerreGraph(1, (0, 0), (0, 0), (0, 1)),
            "inversion not fixed-point-free at edge 0",
        ),
        (
            lambda: SerreGraph(1, (0,) * 4, (0,) * 4, (1, 2, 3, 0)),
            "inversion not an involution at edge 0",
        ),
        (
            lambda: SerreGraph(2, (0, 0), (1, 1), (1, 0)),
            "inversion does not swap endpoints at edge 0",
        ),
        (lambda: SerreGraph(1, (), (), (), ("a", "b")), "vertex_names length mismatch"),
        (lambda: build_graph(2, [(0, 5)]), r"edge \(0,5\) out of range for 2 vertices"),
        (lambda: cycle_graph(0), "cycle needs at least one vertex"),
    ],
)
def test_graph_refusals_are_typed(build, message):
    with pytest.raises(GraphError, match=f"^{message}$") as exc:
        build()
    assert isinstance(exc.value, GaloisSpanError) and isinstance(exc.value, ValueError)


def test_empty_and_cycle():
    g = build_graph(2, [])
    assert g.edge_count == 0
    assert not g.is_connected()
    c3 = cycle_graph(3)
    assert c3.edge_count == 6
    assert c3.euler_characteristic() == 0
    assert cycle_graph(5).euler_characteristic() == 0


def test_adjacency_cycle3_and_path():
    c3 = cycle_graph(3)
    a = c3.adjacency_matrix()
    assert all(a[i][i] == 0 for i in range(3))
    assert sum(map(sum, a)) == 6
    assert c3.degrees() == [2, 2, 2]
    assert laplacian(path_graph(2)) == [[1, -1], [-1, 1]]


def test_spanning_tree_counts():
    assert cycle_graph(3).spanning_tree_count() == 3
    assert complete_graph(4).spanning_tree_count() == 16
    assert brute_force_spanning_trees(complete_graph(4)) == 16
    assert brute_force_spanning_trees(cycle_graph(4)) == 4
    assert bouquet(1).spanning_tree_count() == 1
    assert brute_force_spanning_trees(bouquet(1)) == 1
    for n in range(3, 13):
        assert cycle_graph(n).spanning_tree_count() == n


def test_disconnected_raises():
    g = build_graph(2, [])
    with pytest.raises(DisconnectedGraphError):
        g.spanning_tree_count()
    with pytest.raises(DisconnectedGraphError):
        hashimoto_check(g)


def test_connectivity_is_walked_once_and_kept():
    assert not SerreGraph(0, (), (), ()).is_connected()
    assert not build_graph(3, [(0, 1)]).is_connected()
    g = complete_graph(4)
    assert g.spanning_tree_count() == 16
    # hashimoto_check reads the kept answer instead of walking the graph again:
    # a forged answer makes it refuse a connected graph
    object.__setattr__(g, "_connected", False)
    with pytest.raises(DisconnectedGraphError):
        hashimoto_check(g)


def test_matrix_tree_count_of_disconnected_arrays_meets_a_non_positive_pivot():
    # the arrays path trusts the caller on connectivity; a disconnected graph
    # still cannot pass as a count, since the elimination refuses its zero pivot
    g = build_graph(4, [(0, 1), (2, 3), (2, 3)])
    with pytest.raises(InvariantError, match="not positive definite"):
        matrix_tree_count(g.vertex_count, zip(g.origin, g.terminus))
    h = complete_graph(5)
    assert matrix_tree_count(h.vertex_count, zip(h.origin, h.terminus)) == 125


def test_brute_force_guard():
    with pytest.raises(TooLargeError):
        brute_force_spanning_trees(complete_graph(7))  # 21 edges


def test_loops_do_not_change_kappa():
    base = cycle_graph(4)
    with_loops = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0), (2, 2)])
    assert base.spanning_tree_count() == with_loops.spanning_tree_count() == 4


def test_laplacian_row_sums_and_cofactors():
    rng = random.Random(0)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        lap = laplacian(g)
        assert all(sum(row) == 0 for row in lap)
        n = g.vertex_count
        cofactors = {
            (-1) ** (i + j) * det_int(delete_row_col(lap, i, j))
            for i in range(n)
            for j in range(n)
        }
        assert len(cofactors) == 1


def test_matrix_tree_equals_brute_force_randomized():
    rng = random.Random(42)
    for _ in range(60):
        g = random_connected_graph(rng)
        assert g.spanning_tree_count() == brute_force_spanning_trees(g)


def test_sparse_matrix_tree_equals_dense_minor_randomized():
    rng = random.Random(8)
    sizes = set()
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=7, max_edges=14)
        sizes.add(g.vertex_count)
        minor = [row[1:] for row in laplacian(g)[1:]]
        assert g.spanning_tree_count() == det_int(minor)
    assert {1, 2} <= sizes


def test_ihara_h_poly_bouquet():
    h = bouquet(2).ihara_h_poly()
    assert h.coeffs == (1, -4, 3)
    assert h(1) == 0
    assert h.derivative()(1) == 2


def test_ihara_h_poly_cycle_and_tree():
    h3 = cycle_graph(3).ihara_h_poly()
    assert h3(1) == 0 and h3.derivative()(1) == 0
    # any tree: h'(1) = -2
    for tree in (path_graph(2), path_graph(4), build_graph(4, [(0, 1), (0, 2), (0, 3)])):
        assert tree.ihara_h_poly().derivative()(1) == -2


def test_zeta_numerator_matches_dense_determinants_on_random_multigraphs():
    rng = random.Random(41)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=6, max_edges=12)
        a, d = g.adjacency_matrix(), g.degrees()
        h = zeta_numerator(a, d)
        assert h == g.ihara_h_poly()
        assert h.degree <= 2 * g.vertex_count
        for u in range(2 * g.vertex_count + 2):
            assert h(u) == dense_zeta_numerator_at(a, d, u)


def test_hashimoto_identity_randomized():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng)
        report = hashimoto_check(g)
        assert report.passed, report


# a triangle with a loop at 0, a double edge 1-2 and a leaf 3
LEAF_LOOP_DOUBLE_EDGE = build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "g",
    [
        path_graph(1),
        path_graph(5),
        build_graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)]),
        cycle_graph(1),
        cycle_graph(6),
        bouquet(3),
        LEAF_LOOP_DOUBLE_EDGE,
        complete_graph(5),
    ],
    ids=["vertex", "path5", "tree5", "loop", "cycle6", "bouquet3", "leaf-loop-double", "K5"],
)
def test_hashimoto_left_side_is_the_derivative_of_h_at_one(g):
    # the dual-number elimination against the whole polynomial h(u)
    report = hashimoto_check(g)
    assert report.left == g.ihara_h_poly().derivative()(1)
    assert report.passed, report


def test_hashimoto_left_side_matches_h_on_random_multigraphs():
    rng = random.Random(13)
    for _ in range(60):
        g = random_connected_graph(rng, max_vertices=7, max_edges=12)
        assert hashimoto_check(g).left == g.ihara_h_poly().derivative()(1)


def test_json_roundtrip_and_dot():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (1, 1)], vertex_names=["a", "b", "c"])
    data = json.loads(json.dumps(graph_to_json_dict(g)))
    g2 = graph_from_json_dict(data)
    assert g2.geometric_edges() == g.geometric_edges()
    assert g2.vertex_names == g.vertex_names
    dot = graph_to_dot(g)
    assert dot.count("--") == 4
    assert "1 -- 1" in dot  # loop rendered explicitly


def test_random_trees_have_kappa_one():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randrange(1, 8)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        tree = build_graph(n, edges)
        assert tree.spanning_tree_count() == 1
