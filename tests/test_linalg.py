import random
import re
from fractions import Fraction

import pytest

from galois_span.covers import derived_graph, random_connected_voltage
from galois_span.cyclotomic import CyclotomicInt
from galois_span.errors import InvariantError, NotSquareError, TooLargeError
from galois_span.graphs import bouquet, complete_graph
from galois_span.groups import parse_group_spec
from galois_span.linalg import (
    _symbolic_phase,
    det_fraction,
    det_int,
    det_int_derivative,
    det_int_poly_matrix,
    det_int_sparse_spd,
    mat_mul,
    rank_fraction,
)
from galois_span.lfunctions import verify_prop_formula
from galois_span.polynomials import IntPoly

from helpers import (
    cauchy_binet_check,
    delete_row_col,
    det_fraction_by_elimination,
    det_ring,
    det_sparse_spd_one_pivot,
    dumbbell_graph,
    kronecker,
    laplacian,
    mat_mul_dense,
    rank_by_fraction_elimination,
    root,
    symbolic_phase_by_heap,
    theta_graph,
)


def test_det_int_small():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_routes_agree_randomized():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 6)
        m = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        d = det_int(m)
        assert det_ring(m, 1) == d
        assert det_fraction(m) == d


def test_det_not_square():
    with pytest.raises(NotSquareError):
        det_int([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), 2.9, 2.0, True, "3"])
def test_det_int_refuses_non_integer_entries(entry):
    # a non-int entry is refused, never truncated: Fraction(1, 2) once gave det 0
    with pytest.raises(InvariantError, match="non-integer entry"):
        det_int([[entry, 0], [0, 2]])
    with pytest.raises(InvariantError, match="non-integer entry"):
        det_int_derivative([[1, 0], [0, 2]], [[0, 0], [entry, 0]])


def test_det_int_derivative_small():
    assert det_int_derivative([], []) == (1, 0)
    assert det_int_derivative([[3]], [[5]]) == (3, 5)
    # det([[2 + t, 1], [1, 1 + 2t]]) = 1 + 5t + 2t^2
    assert det_int_derivative([[2, 1], [1, 1]], [[1, 0], [0, 2]]) == (1, 5)
    with pytest.raises(NotSquareError):
        det_int_derivative([[1, 2], [3, 4]], [[1]])


def _symmetric(rng: random.Random, n: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randrange(-4, 5)
    return m


def test_det_int_derivative_matches_the_polynomial_determinant_randomized():
    # det(A + tB) as a polynomial in t is the oracle for (value, slope) at t = 0
    rng = random.Random(23)
    refused = 0
    for _ in range(300):
        n = rng.randrange(1, 6)
        a, b = _symmetric(rng, n), _symmetric(rng, n)
        p = det_int_poly_matrix([[IntPoly((x, y)) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        if all(det_int([row[:k] for row in a[:k]]) for k in range(1, n)):
            assert det_int_derivative(a, b) == (p(0), p.derivative()(0))
        else:
            refused += 1
            with pytest.raises(InvariantError, match="leading principal minor"):
                det_int_derivative(a, b)
    assert 0 < refused < 300


@pytest.mark.parametrize("which", ["A", "B"])
def test_det_int_derivative_refuses_an_asymmetric_matrix(which):
    # the elimination updates one triangle, so an asymmetric input is refused
    # before any step, naming the first entry that differs from its mirror
    symmetric = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    asymmetric = [[2, 1, 0], [1, 2, 1], [0, 3, 2]]
    a, b = (asymmetric, symmetric) if which == "A" else (symmetric, asymmetric)
    message = rf"entry \(1, 2\) of {which} is 1 but entry \(2, 1\) is 3: matrix is not symmetric"
    with pytest.raises(InvariantError, match=message):
        det_int_derivative(a, b)


def test_det_int_derivative_refuses_a_vanishing_constant_pivot():
    # det A = -1 is fine, but the order-1 leading minor of A is 0: a row
    # exchange would be needed, and the pivot t has no inverse mod t^2
    with pytest.raises(InvariantError, match="order 1 vanishes"):
        det_int_derivative([[0, 1], [1, 0]], [[1, 0], [0, 0]])
    # the order-2 leading minor vanishes before the last step
    a = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    with pytest.raises(InvariantError, match="order 2 vanishes"):
        det_int_derivative(a, [[0] * 3 for _ in range(3)])


def test_det_ring_size_guard():
    identity = [[int(i == j) for j in range(17)] for i in range(17)]
    with pytest.raises(TooLargeError):
        det_ring(identity, 1)


def test_det_int_sparse_spd_small():
    assert det_int_sparse_spd([]) == 1
    assert det_int_sparse_spd([{0: 7}]) == 7
    assert det_int_sparse_spd([{0: 2, 1: -1}, {0: -1, 1: 2}]) == 3
    # a row of fewer entries is eliminated first; the determinant is unchanged
    rows = [{0: 3, 1: -1, 2: -1}, {0: -1, 1: 2}, {0: -1, 2: 2}]
    assert det_int_sparse_spd(rows) == 8
    assert rows[1] == {0: -1, 1: 2}  # the input is not modified


def test_det_int_sparse_spd_matches_dense_randomized():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 9)
        b = [[rng.randrange(-2, 3) * (rng.random() < 0.4) for _ in range(n)] for _ in range(n)]
        # B^T B + I is symmetric positive definite, and sparse when B is
        dense = [
            [sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)
        ]
        rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
        assert det_int_sparse_spd(rows) == det_int(dense)


def test_det_int_sparse_spd_rejects_non_positive_pivot():
    with pytest.raises(ArithmeticError):
        det_int_sparse_spd([{}])
    with pytest.raises(ArithmeticError):
        det_int_sparse_spd([{0: 1, 1: 2}, {0: 2, 1: 1}])



def _sparse_rows(dense):
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def test_det_int_sparse_spd_matches_dense_up_to_thirty_rows():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 31)
        density = rng.choice((0.05, 0.1, 0.2))
        b = [[rng.randrange(-3, 4) * (rng.random() < density) for _ in range(n)] for _ in range(n)]
        # B^T B + I is symmetric positive definite, and sparse when B is
        dense = [
            [sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)
        ]
        assert det_int_sparse_spd(_sparse_rows(dense)) == det_int(dense)


def test_det_int_sparse_spd_keeps_a_fill_entry_that_cancels():
    # every row has two entries off the diagonal, so rows 0 and 1 go first;
    # row 0 fills entry (2, 3) with -1, and row 1, rescaled by the first
    # pivot, brings it back to exactly 0 while the entry keeps its place
    dense = [[2, 0, 1, 1], [0, 2, 1, -1], [1, 1, 3, 0], [1, -1, 0, 3]]
    assert det_int(dense) == 16
    assert det_int_sparse_spd(_sparse_rows(dense)) == 16


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    dense, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            dense[at + i][at : at + len(b)] = row
        at += len(b)
    return dense


def test_det_int_sparse_spd_of_a_block_diagonal_matrix_is_the_product_over_its_blocks():
    # each block ends as its own component, and the determinant multiplies them
    path = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]  # det 4
    star = [[3, -1, -1], [-1, 2, 0], [-1, 0, 5]]  # det 23
    cases = [
        ([[7]], [[5]]),
        (path, star),
        (star, [[1]], path, [[2, 1], [1, 2]], [[9]]),
    ]
    for blocks in cases:
        dense = _block_diagonal(*blocks)
        expected = 1
        for b in blocks:
            expected *= det_int(b)
        assert det_int(dense) == expected
        assert det_int_sparse_spd(_sparse_rows(dense)) == expected
        # the blocks interleaved: the same matrix with its rows and columns permuted
        n = len(dense)
        perm = random.Random(n).sample(range(n), n)
        shuffled = [[dense[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert det_int_sparse_spd(_sparse_rows(shuffled)) == expected


def _reduced_laplacian(n: int, edges, drop: int) -> list[list[int]]:
    """The Laplacian of a multigraph on n vertices, given (u, v, multiplicity),
    with row and column `drop` deleted."""
    lap = [[0] * n for _ in range(n)]
    for u, v, w in edges:
        lap[u][u] += w
        lap[v][v] += w
        lap[u][v] -= w
        lap[v][u] -= w
    keep = [i for i in range(n) if i != drop]
    return [[lap[i][j] for j in keep] for i in keep]


@pytest.mark.parametrize("shape", ["star", "path", "tree"])
def test_det_int_sparse_spd_on_trees_merging_many_components_at_one_pivot(shape):
    # a tree with edge multiplicities w has prod w spanning trees.  A star
    # reduced at a leaf eliminates its other leaves first, each a component
    # of its own, and the centre merges them all at once; a path and a random
    # tree merge components of every size.
    rng = random.Random(shape)
    for n in range(2, 26):
        if shape == "star":
            parents = [0] * n
        elif shape == "path":
            parents = list(range(-1, n - 1))
        else:
            parents = [-1] + [rng.randrange(i) for i in range(1, n)]
        edges = [(parents[v], v, rng.randrange(1, 6)) for v in range(1, n)]
        expected = 1
        for _, _, w in edges:
            expected *= w
        for drop in {0, n - 1, rng.randrange(n)}:
            minor = _reduced_laplacian(n, edges, drop)
            assert det_int(minor) == expected
            assert det_int_sparse_spd(_sparse_rows(minor)) == expected
            # grounded at every vertex: L + I, a tree-patterned matrix with no
            # determinant of 1 to hide a wrong scale
            grounded = [row[:] for row in minor]
            for i in range(n - 1):
                grounded[i][i] += 1
            assert det_int_sparse_spd(_sparse_rows(grounded)) == det_int(grounded)


def test_det_int_sparse_spd_matches_dense_with_planted_blocks():
    # B^T B + I with B nonzero only inside planted blocks of interleaved
    # indices, so the pattern has several components; a few entries between
    # blocks let components merge late
    rng = random.Random(19)
    for case in range(200):
        n = rng.randrange(1, 41)
        block_of = [rng.randrange(rng.randrange(1, 7)) for _ in range(n)]
        density = rng.choice((0.1, 0.2, 0.35))
        bridges = rng.choice((0, 0, 0.01, 0.03))
        b = [
            [
                rng.randrange(-3, 4) * (rng.random() < (density if block_of[i] == block_of[j] else bridges))
                for j in range(n)
            ]
            for i in range(n)
        ]
        dense = [
            [sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) * rng.randrange(1, 3) for j in range(n)]
            for i in range(n)
        ]
        assert det_int_sparse_spd(_sparse_rows(dense)) == det_int(dense), case


def test_det_int_sparse_spd_refuses_at_a_component_determinant():
    # the star's leaves 0 and 1 are eliminated first, each a component of
    # determinant 1; the centre's pivot is the determinant of the merged
    # star, 1 - 2 = -1
    star = [[1, 0, -1], [0, 1, -1], [-1, -1, 1]]
    with pytest.raises(InvariantError, match=r"^pivot -1 at row 2: matrix is not positive definite$"):
        det_int_sparse_spd(_sparse_rows(star))
    # beside a positive definite block the refusal names the same row, shifted
    dense = _block_diagonal([[2, -1], [-1, 2]], star)
    with pytest.raises(InvariantError, match=r"^pivot -1 at row 4: matrix is not positive definite$"):
        det_int_sparse_spd(_sparse_rows(dense))
    # a determinant that is positive as a product of two negative components
    dense = _block_diagonal([[1, 2], [2, 1]], [[1, 2], [2, 1]])
    assert det_int(dense) == 9
    with pytest.raises(InvariantError, match="not positive definite"):
        det_int_sparse_spd(_sparse_rows(dense))


def test_det_int_sparse_spd_on_the_s4_cover_of_k5():
    y = derived_graph(random_connected_voltage(complete_graph(5), parse_group_spec("S4"), 3)).derived
    assert y.vertex_count == 120
    minor = [row[1:] for row in laplacian(y)[1:]]
    assert det_int_sparse_spd(_sparse_rows(minor)) == det_int(minor) == y.spanning_tree_count()


@pytest.mark.parametrize(
    "base, spec, seed",
    [
        ("complete:4", "S3", 0),
        ("complete:4", "C2xC6", 1),
        ("complete:5", "D6", 2),
        ("bouquet:2", "A4", 3),
        ("bouquet:3", "Q16", 4),
        ("theta", "C2xC2", 5),
        ("dumbbell", "C3", 6),
    ],
)
def test_det_int_sparse_spd_on_reduced_laplacians_of_covers(base, spec, seed):
    base_graph = {
        "complete:4": lambda: complete_graph(4),
        "complete:5": lambda: complete_graph(5),
        "bouquet:2": lambda: bouquet(2),
        "bouquet:3": lambda: bouquet(3),
        "theta": theta_graph,
        "dumbbell": dumbbell_graph,
    }[base]()
    y = derived_graph(random_connected_voltage(base_graph, parse_group_spec(spec), seed)).derived
    assert 2 <= y.vertex_count <= 60
    minor = [row[1:] for row in laplacian(y)[1:]]
    assert det_int_sparse_spd(_sparse_rows(minor)) == det_int(minor) == y.spanning_tree_count()


def test_symbolic_phase_cuts_the_dense_tail_as_the_heap_would_take_it():
    rng = random.Random(29)
    patterns = []
    for _ in range(60):
        n = rng.randrange(1, 25)
        density = rng.choice((0.05, 0.15, 0.3, 0.6))
        b = [[rng.randrange(-3, 4) * (rng.random() < density) for _ in range(n)] for _ in range(n)]
        # B^T B + I is symmetric positive definite; dense B gives a dense tail early
        dense = [
            [sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)
        ]
        patterns.append(_sparse_rows(dense))
    for base, spec, seed in [
        (complete_graph(4), "S3", 0),
        (complete_graph(5), "C2xC2xC2", 1),
        (complete_graph(5), "D6", 2),
        (bouquet(2), "A4", 3),
        (bouquet(3), "Q16", 4),
        (theta_graph(), "C2xC2", 5),
    ]:
        y = derived_graph(random_connected_voltage(base, parse_group_spec(spec), seed)).derived
        patterns.append(_sparse_rows([row[1:] for row in laplacian(y)[1:]]))
    patterns.append(_sparse_rows([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]))  # a clique from the start
    # two cliques: no dense tail until the second block
    patterns.append(_sparse_rows(_block_diagonal([[2, -1], [-1, 2]], [[2, -1], [-1, 2]])))
    for rows in patterns:
        order, tail_start, upper = _symbolic_phase(rows)
        assert (order, upper) == symbolic_phase_by_heap(rows)
        # the dense tail: each of its rows is stored with every later one, and
        # the pivot before it was not, or the tail would start there
        tail = order[tail_start:]
        assert tail and all(set(upper[q]) == set(tail[k:]) for k, q in enumerate(tail))
        assert tail_start == 0 or set(upper[order[tail_start - 1]]) != set(order[tail_start - 1 :])


def _clique_with_hangers(rng: random.Random, t: int, hangers: int) -> list[list[int]]:
    """L + D: the Laplacian of a weighted clique on t random vertices with
    paths of 1-3 further vertices hung off single clique vertices, plus a
    positive diagonal D, so symmetric positive definite."""
    n = t + hangers
    clique = rng.sample(range(n), t)
    rest = [v for v in range(n) if v not in clique]
    edges = [(u, v, rng.randrange(1, 4)) for a, u in enumerate(clique) for v in clique[a + 1 :]]
    while rest:
        at, size = rng.choice(clique), rng.randrange(1, 4)
        path, rest = rest[:size], rest[size:]
        for v in path:
            edges.append((at, v, rng.randrange(1, 4)))
            at = v
    dense = [[0] * n for _ in range(n)]
    for u, v, w in edges:
        dense[u][u] += w
        dense[v][v] += w
        dense[u][v] -= w
        dense[v][u] -= w
    for i in range(n):
        dense[i][i] += rng.randrange(1, 3)
    return dense


def _components_next_to_the_tail(rows) -> list[frozenset[int]]:
    """For each row of the dense tail, the connected pieces of the pattern on
    the rows eliminated before the tail that it is next to, each named by its
    first row in the pivot order."""
    order, tail_start, _ = _symbolic_phase(rows)
    done, root = set(order[:tail_start]), {}
    for r in order[:tail_start]:
        if r not in root:
            root[r], stack = r, [r]
            while stack:
                for j in rows[stack.pop()]:
                    if j in done and j not in root:
                        root[j] = r
                        stack.append(j)
    return [frozenset(root[j] for j in rows[i] if j in done) for i in order[tail_start:]]


def test_det_int_sparse_spd_matches_the_one_pivot_oracle_on_dense_tails_of_1_to_9_rows():
    # B^T B + D with B sparse outside a planted dense block: minimum degree
    # leaves a dense tail of every length from 1 to 9
    rng = random.Random(31)
    seen = dict.fromkeys(range(1, 10), 0)
    while min(seen.values()) < 6:
        n = rng.randrange(1, 25)
        block = set(rng.sample(range(n), rng.randrange(1, min(n, 9) + 1)))
        density = rng.choice((0.05, 0.1, 0.2))
        b = [
            [
                rng.randrange(-3, 4) * (i in block and j in block or rng.random() < density)
                for j in range(n)
            ]
            for i in range(n)
        ]
        dense = [
            [sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) * rng.randrange(1, 3) for j in range(n)]
            for i in range(n)
        ]
        rows = _sparse_rows(dense)
        tail = n - _symbolic_phase(rows)[1]
        if tail in seen:
            seen[tail] += 1
            assert det_int_sparse_spd(rows) == det_sparse_spd_one_pivot(rows) == det_int(dense)


@pytest.mark.parametrize("t", range(2, 10))
def test_det_int_sparse_spd_on_tails_whose_rows_start_in_several_components(t):
    # paths hung off a clique are eliminated first, each a component next to
    # one clique row, so the tail's rows start next to different components
    # and take one-pivot steps before the two-pivot passes
    rng = random.Random(t)
    checked = 0
    while checked < 10:
        dense = _clique_with_hangers(rng, t, rng.randrange(2, 9))
        rows = _sparse_rows(dense)
        if len(set(_components_next_to_the_tail(rows))) < 2:
            continue
        checked += 1
        assert det_int_sparse_spd(rows) == det_sparse_spd_one_pivot(rows) == det_int(dense)


@pytest.mark.parametrize(
    "spec, seed, size",
    [
        ("C2xS4", 801, 239),
        ("C2xS4", 2, 239),
        ("S4", 5, 119),
        ("C3xS3", 6, 89),
        ("C2xC2xC2xC2", 7, 79),
        ("D6", 8, 59),
    ],
)
def test_det_int_sparse_spd_matches_the_one_pivot_oracle_on_covers_of_k5(spec, seed, size):
    y = derived_graph(random_connected_voltage(complete_graph(5), parse_group_spec(spec), seed)).derived
    minor = [row[1:] for row in laplacian(y)[1:]]
    assert len(minor) == size
    rows = _sparse_rows(minor)
    assert det_int_sparse_spd(rows) == det_sparse_spd_one_pivot(rows) == y.spanning_tree_count()
    if size <= 60:
        assert det_int_sparse_spd(rows) == det_int(minor)


# Symmetric matrices that are not positive definite, by where the first bad
# pivot falls once the dense tail is eliminated two pivots a pass.  The texts
# are those of one pivot at a time.
REFUSED_AT_A_PIVOT = [
    # a 4-row clique from the start, passes (0, 1) and (2, 3): the first
    # pivot of the second pass, its second, and the second of the first
    ([[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 0, 1], [1, 1, 1, 5]], "pivot -2 at row 2"),
    ([[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 0]], "pivot -3 at row 3"),
    ([[2, 1, 1, 1], [1, 0, 1, 1], [1, 1, 2, 1], [1, 1, 1, 5]], "pivot -1 at row 1"),
    # a 5-row clique: passes (0, 1), (2, 3), then row 4 alone
    (
        [[2, 1, 1, 1, 1], [1, 2, 1, 1, 1], [1, 1, 2, 1, 1], [1, 1, 1, 2, 1], [1, 1, 1, 1, 0]],
        "pivot -4 at row 4",
    ),
    # row 0 hangs off row 1 of the clique {1, 2, 3}, so the tail starts with
    # row 1 next to the component {0} and rows 2, 3 next to none: row 1 takes
    # the one-pivot step, at det A[{0, 1}] = 3 - 4
    ([[1, -2, 0, 0], [-2, 3, 1, 1], [0, 1, 4, 1], [0, 1, 1, 4]], "pivot -1 at row 1"),
    # row 0 hangs off row 1 of the clique {1, 2, 3, 4}; after row 1's step the
    # rest merge at scale det A[{0, 1}] = 2: the second pivot of the pass
    # (2, 3), and row 4 alone after it
    (
        [[1, -1, 0, 0, 0], [-1, 3, 1, 1, 1], [0, 1, 3, 1, 1], [0, 1, 1, -1, 1], [0, 1, 1, 1, 3]],
        "pivot -8 at row 3",
    ),
    (
        [[1, -1, 0, 0, 0], [-1, 3, 1, 1, 1], [0, 1, 3, 1, 1], [0, 1, 1, 3, 1], [0, 1, 1, 1, 0]],
        "pivot -8 at row 4",
    ),
    # a 3-row clique, pass (0, 1) then row 2 alone, with the first pivot
    # exactly 0: singular at the second pivot of the pass, and at the lone
    # last pivot
    ([[2, 2, 1], [2, 2, 1], [1, 1, 3]], "pivot 0 at row 1"),
    ([[1, 1, 1], [1, 2, 1], [1, 1, 1]], "pivot 0 at row 2"),
]


@pytest.mark.parametrize("dense, where", REFUSED_AT_A_PIVOT)
def test_det_int_sparse_spd_refuses_in_the_dense_tail_with_the_one_pivot_text(dense, where):
    message = f"{where}: matrix is not positive definite"
    with pytest.raises(InvariantError) as caught:
        det_int_sparse_spd(_sparse_rows(dense))
    assert str(caught.value) == message
    with pytest.raises(InvariantError) as caught:
        det_sparse_spd_one_pivot(_sparse_rows(dense))
    assert str(caught.value) == message


def test_det_int_sparse_spd_accepts_a_unit_first_pivot_in_a_pass():
    # a 3-row clique whose pass (0, 1) starts at the pivot a_00 = 1
    dense = [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
    assert det_int(dense) == 1
    assert det_int_sparse_spd(_sparse_rows(dense)) == 1


# kappa(Y) of the 480-vertex C4xS4 cover of K5 (`random_connected_voltage`
# seed 1): its reduced Laplacian has 479 rows and a dense tail of 125
C4XS4_KAPPA = int(
    "344237746220551233704448742139631936853083781287421868492524461952289596941279557548353662"
    "935285872996990476838447567738540280250435870995835017160475387490064216880632218699754969"
    "820609455138378240468585982181422014335213224591360000000000000000000000"
)


def test_kappa_of_the_c4xs4_cover_of_k5_through_a_long_tail():
    cover = derived_graph(random_connected_voltage(complete_graph(5), parse_group_spec("C4xS4"), 1))
    y = cover.derived
    rows = _sparse_rows([row[1:] for row in laplacian(y)[1:]])
    assert len(rows) - _symbolic_phase(rows)[1] == 125
    assert y.spanning_tree_count() == C4XS4_KAPPA
    # the character side is an independent oracle for the Matrix-Tree count
    assert verify_prop_formula(cover).passed


@pytest.mark.parametrize(
    "rows, where",
    [
        ([{0: 2, 1: 1}, {1: 2}], "(0, 1)"),  # the pattern is not symmetric
        ([{0: 2}, {0: 1, 1: 2}], "(1, 0)"),
        ([{0: 2, 1: 1}, {0: -1, 1: 2}], "(0, 1)"),  # the values are not symmetric
        ([{0: 2, 2: 1}, {1: 2}], "(0, 2)"),  # a column out of range
        ([{0: 2}, {-1: 1, 1: 2}], "(1, -1)"),
        ([{0: 2, "1": 1}, {1: 2}], "(0, '1')"),
    ],
)
def test_det_int_sparse_spd_refuses_a_malformed_matrix(rows, where):
    with pytest.raises(InvariantError, match=re.escape(where)):
        det_int_sparse_spd(rows)


def test_det_int_sparse_spd_of_at_most_two_rows_is_the_dense_determinant():
    # every symmetric matrix of 0, 1 or 2 rows with entries in [-3, 3]: the
    # positive-definite ones give det_int, the others are refused at a pivot
    matrices = [[]] + [[[a]] for a in range(-3, 4)]
    matrices += [[[a, b], [b, d]] for a in range(-3, 4) for b in range(-3, 4) for d in range(-3, 4)]
    for dense in matrices:
        rows = _sparse_rows(dense)
        if all(det_int([row[:k] for row in dense[:k]]) > 0 for k in range(1, len(dense) + 1)):
            assert det_int_sparse_spd(rows) == det_int(dense)
        else:
            with pytest.raises(InvariantError, match="matrix is not positive definite"):
                det_int_sparse_spd(rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{0: 2, 1: 1}, {1: 2}], "entry (0, 1) is 1 but entry (1, 0) is 0: matrix is not symmetric"),
        ([{0: 2}, {0: 1, 1: 2}], "entry (1, 0) is 1 but entry (0, 1) is 0: matrix is not symmetric"),
        (
            [{0: 2, 1: 1}, {0: -1, 1: 2}],
            "entry (0, 1) is 1 but entry (1, 0) is -1: matrix is not symmetric",
        ),
        ([{0: 2, 2: 1}, {1: 2}], "entry (0, 2) lies outside the 2x2 matrix"),
        ([{0: 2}, {-1: 1, 1: 2}], "entry (1, -1) lies outside the 2x2 matrix"),
        ([{0: 2, "1": 1}, {1: 2}], "entry (0, '1') lies outside the 2x2 matrix"),
        ([{0: 2, True: 1}, {1: 2}], "entry (0, True) lies outside the 2x2 matrix"),
        ([{1: 3}], "entry (0, 1) lies outside the 1x1 matrix"),
        # row 0's pair is checked before row 1's columns, every entry before a pivot
        (
            [{0: 1, 1: 1}, {1: 1, 5: 1}],
            "entry (0, 1) is 1 but entry (1, 0) is 0: matrix is not symmetric",
        ),
        ([{0: -1}, {7: 1}], "entry (1, 7) lies outside the 2x2 matrix"),
        ([{}], "pivot 0 at row 0: matrix is not positive definite"),
        ([{0: -3}], "pivot -3 at row 0: matrix is not positive definite"),
        ([{1: 1}, {0: 1, 1: 5}], "pivot 0 at row 0: matrix is not positive definite"),
        # the row-1 pivot is d when b = 0, ad - b^2 otherwise
        ([{0: 2}, {1: 0}], "pivot 0 at row 1: matrix is not positive definite"),
        ([{0: 2}, {1: -4}], "pivot -4 at row 1: matrix is not positive definite"),
        ([{0: 1, 1: 2}, {0: 2, 1: 1}], "pivot -3 at row 1: matrix is not positive definite"),
        ([{0: 2, 1: 2}, {0: 2, 1: 2}], "pivot 0 at row 1: matrix is not positive definite"),
    ],
)
def test_det_int_sparse_spd_of_at_most_two_rows_refuses_with_the_elimination_text(rows, message):
    with pytest.raises(InvariantError) as caught:
        det_int_sparse_spd(rows)
    assert str(caught.value) == message


def test_poly_matrix_det():
    u = IntPoly.x()
    one = IntPoly.const(1)
    m = [[one - 2 * u, u], [u * u, one]]
    det = det_int_poly_matrix(m)
    # (1 - 2u) - u^3
    assert det == IntPoly([1, -2, 0, -1])
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 5)
        mat = [
            [IntPoly([rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_int_poly_matrix(mat) == det_ring(mat, IntPoly.const(1))


def test_rank_fraction():
    assert rank_fraction([[1, 2], [2, 4]]) == 1
    assert rank_fraction([[1, 0], [0, 1]]) == 2
    assert rank_fraction([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]) == 1


def _random_rational_matrix(rng, rows, cols):
    """Small rationals, one in three zero, then some rows made combinations of
    others, some rows zero and some columns zero."""
    m = [
        [
            Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) if rng.randrange(3) else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    for i in range(rows):
        kind = rng.randrange(6)
        if kind == 0:
            m[i] = [Fraction(0)] * cols
        elif kind == 1 and i >= 2:
            a, b = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)), rng.randrange(-2, 3)
            m[i] = [a * x + b * y for x, y in zip(m[i - 1], m[i - 2])]
    for j in range(cols):
        if rng.randrange(5) == 0:
            for row in m:
                row[j] = Fraction(0)
    return m


def test_rank_and_det_of_random_rational_matrices_match_the_fraction_oracles():
    rng = random.Random(26)
    seen = {"square": 0, "wide": 0, "tall": 0, "deficient": 0, "zero row": 0}
    for _ in range(600):
        rows, cols = rng.randrange(0, 7), rng.randrange(1, 7)
        m = _random_rational_matrix(rng, rows, cols)
        rank = rank_by_fraction_elimination(m)
        assert rank_fraction(m) == rank
        if rows == cols:
            assert det_fraction(m) == det_fraction_by_elimination(m)
            seen["square"] += 1
        seen["wide" if cols > rows else "tall"] += rows != cols
        seen["deficient"] += rank < min(rows, cols)
        seen["zero row"] += any(not any(row) for row in m)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize(
    "m, rank, det",
    [
        # column 1 is zero between the pivot columns 0 and 2
        ([[2, 0, 1], [4, 0, 5], [6, 0, 3]], 2, 0),
        ([[0, 0, 3], [1, 0, 2]], 2, None),
        # column 1 has no pivot below row 0 once column 0 is eliminated
        ([[1, 2, 3], [2, 4, 7]], 2, None),
        ([[1, 2, 3, 1], [2, 4, 7, 0], [3, 6, 10, 1]], 2, None),
        ([[1, 2, 0], [2, 4, 1], [0, 0, 5]], 2, 0),
        # a zero row between the rows, and an exchange past it
        ([[0, 0, 1], [0, 0, 0], [1, 1, 0]], 2, 0),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3, 1),
        ([[0] * 3] * 2, 0, None),
    ],
)
def test_rank_and_det_skip_a_column_with_no_pivot(m, rank, det):
    assert rank_fraction(m) == rank_by_fraction_elimination(m) == rank
    if det is not None:
        assert det_int(m) == det_fraction(m) == det_fraction_by_elimination(m) == det


def test_kronecker_identity():
    i2 = [[1, 0], [0, 1]]
    assert kronecker(i2, i2) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    a = [[1, 2], [3, 4]]
    b = [[0, 5], [6, 7]]
    k = kronecker(a, b)
    # block (i,j) holds a[i][j] * b: entry (i*2+r, j*2+c) = a[i][j] * b[r][c]
    assert k[0][1] == 1 * 5 and k[1][0] == 1 * 6 and k[2][3] == 4 * 5 and k[3][3] == 4 * 7
    assert det_int(k) == det_int(a) ** 2 * det_int(b) ** 2


def test_cauchy_binet_all_minors():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice([3, 4])
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        for m1 in range(1, n + 1):
            for m2 in range(1, n + 1):
                assert cauchy_binet_check(a, b, m1, m2)


def test_delete_row_col_and_mat_mul():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert delete_row_col(m, 0, 1) == [[4, 6], [7, 9]]
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]


# ring name -> (lift of a small integer into the ring, the ring's one)
RINGS = {
    "int": (lambda rng, k: k, 1),
    "fraction": (lambda rng, k: Fraction(k, rng.randrange(1, 5)), Fraction(1)),
    "cyclotomic": (
        lambda rng, k: k * root(12, rng.randrange(12)),
        CyclotomicInt.one(12),
    ),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_mat_mul_matches_dense_oracle(ring):
    lift, one = RINGS[ring]
    rng = random.Random(23)

    def matrix(rows, cols):
        # about half the entries are zero
        return [
            [lift(rng, rng.randrange(-3, 4) if rng.randrange(2) else 0) for _ in range(cols)]
            for _ in range(rows)
        ]

    def permutation(n):
        image = rng.sample(range(n), n)
        return [[one if j == image[i] else one * 0 for j in range(n)] for i in range(n)]

    pairs = [(matrix(1, 1), matrix(1, 1)), ([[one * 0]], matrix(1, 3))]
    for _ in range(25):
        r, k, c = (rng.randrange(1, 5) for _ in range(3))
        a = matrix(r, k)
        a[rng.randrange(r)] = [one * 0] * k  # a zero row
        pairs.append((a, matrix(k, c)))
    for n in (1, 2, 5):
        p, m = permutation(n), matrix(n, n)
        pairs += [(p, m), (m, p), (p, permutation(n))]
    for a, b in pairs:
        product = mat_mul(a, b)
        assert product == mat_mul_dense(a, b)
        # zero rows included, every entry stays in the ring
        assert {type(x) for row in product for x in row} == {type(one)}


def test_det_fraction_matches_elimination_oracle():
    rng = random.Random(29)
    singular = 0
    for _ in range(200):
        n = rng.randrange(0, 6)
        m = [
            [Fraction(rng.randrange(-5, 6), rng.randrange(1, 7)) for _ in range(n)]
            for _ in range(n)
        ]
        if n >= 2 and rng.randrange(3) == 0:
            # row 0 a rational multiple of row 1 makes m singular
            c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
            m[0] = [c * x for x in m[1]]
        expected = det_fraction_by_elimination(m)
        singular += expected == 0
        assert det_fraction(m) == expected
    assert singular >= 30
