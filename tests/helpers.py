"""Shared generators for the randomized (seeded) test corpora."""

import contextlib
import io
import random
from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import prod
from operator import add, sub

from galois_span.characters import (
    _hessenberg_charpoly_mod,
    _hessenberg_mod,
    _rref_mod,
    character_table,
    induced_trivial_values,
)
from galois_span.cli import main
from galois_span.covers import (
    VOLTAGE_ATTEMPTS,
    Cover,
    VoltageAssignment,
    _plan_nets,
    _spanning_tree_plan,
    derived_graph,
)
from galois_span.cyclotomic import CyclotomicInt, _context
from galois_span.errors import (
    DisconnectedGraphError,
    FamilyParameterError,
    InvariantError,
    LengthMismatchError,
    MismatchedGroupError,
    NoConnectedAssignmentFoundError,
    TooLargeError,
)
from galois_span.family import (
    ExponentVector,
    FamilySpec,
    _bouquet_family_kappa,
    exp_pow,
    exp_sub_floor,
    exponent_grid,
)
from galois_span.graphs import SerreGraph, build_graph
from galois_span.groups import FiniteGroup, Subgroup, cyclic_subgroups, left_cosets
from galois_span.lfunctions import MatrixRep
from galois_span.linalg import _check_square, det_fraction, det_int, mat_mul
from galois_span.numtheory import classical_mobius
from galois_span.posets import TOP_KEY, Poset, cyclic_poset, mobius


def root(e: int, k: int = 1) -> CyclotomicInt:
    """zeta_e^k."""
    return CyclotomicInt(e, _context(e).reduce_exponent(k % e))


def conjugate(value: CyclotomicInt) -> CyclotomicInt:
    """The complex conjugate, zeta -> zeta^-1."""
    return value.galois(value.e - 1)


def out_edges(graph: SerreGraph) -> tuple[tuple[int, ...], ...]:
    """Directed edges leaving each vertex, in index order."""
    out: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for e, v in enumerate(graph.origin):
        out[v].append(e)
    return tuple(map(tuple, out))


def random_connected_graph(rng: random.Random, max_vertices=5, max_edges=9) -> SerreGraph:
    """Random spanning tree plus extra edges; loops and multi-edges allowed."""
    n = rng.randrange(1, max_vertices + 1)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    extra = rng.randrange(0, max_edges - len(edges) + 1)
    for _ in range(extra):
        edges.append((rng.randrange(n), rng.randrange(n)))
    return build_graph(n, edges)


def random_poset(rng: random.Random, max_elements=7) -> Poset:
    """Random DAG on a linear extension, transitively closed."""
    n = rng.randrange(1, max_elements + 1)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return Poset(list(range(n)), [str(i) for i in range(n)], leq)


def laplacian(g: SerreGraph) -> list[list[int]]:
    """Dense Laplacian D - A of a graph."""
    a = g.adjacency_matrix()
    d = g.degrees()
    n = g.vertex_count
    return [[(d[i] if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]


def divisor_poset(n: int) -> Poset:
    """Divisors of n ordered by divisibility."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return Poset.from_leq(divisors, [str(d) for d in divisors], lambda a, b: b % a == 0)


def charpoly_mod(matrix: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p via Hessenberg reduction (monic, low first)."""
    return _hessenberg_charpoly_mod(_hessenberg_mod(matrix, p)[0], p)


def linear_reps(g: FiniteGroup) -> list[MatrixRep]:
    """The degree-one characters of `character_table(g)`, in table order, as
    1 x 1 representations; `MatrixRep` checks that each is a homomorphism."""
    table = character_table(g)
    reps = []
    for chi in table.characters:
        if chi.degree == 1:
            values = [chi.value_cyclo(i) for i in range(table.class_count)]
            matrices = tuple(((values[i],),) for i in table.class_of)
            reps.append(MatrixRep(group=g, degree=1, e=table.e, matrices=matrices))
    return reps


def direct_sum(rho: MatrixRep, tau: MatrixRep) -> MatrixRep:
    """Block-diagonal sum of two representations of the same group."""
    if rho.group is not tau.group:
        raise MismatchedGroupError("representations of different groups")
    if rho.e != tau.e:
        raise ValueError("representations over different root orders")
    zero = CyclotomicInt.zero(rho.e)
    d1, d2 = rho.degree, tau.degree
    mats = []
    for x in range(rho.group.order):
        a, b = rho.matrices[x], tau.matrices[x]
        top = [tuple(a[i]) + (zero,) * d2 for i in range(d1)]
        bottom = [(zero,) * d1 + tuple(b[i]) for i in range(d2)]
        mats.append(tuple(top + bottom))
    return MatrixRep(group=rho.group, degree=d1 + d2, e=rho.e, matrices=tuple(mats))


def mat_mul_dense(a, b) -> list[list]:
    """Oracle: matrix product by the dense triple loop."""
    inner, cols = len(b), len(b[0])
    return [
        [
            sum((row[k] * b[k][j] for k in range(1, inner)), start=row[0] * b[0][j])
            for j in range(cols)
        ]
        for row in a
    ]


def det_fraction_by_elimination(matrix) -> Fraction:
    """Oracle: determinant over exact rationals by Gaussian elimination with pivoting."""
    n = _check_square(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            f = m[i][k] / pivot
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def rank_by_fraction_elimination(matrix) -> int:
    """Oracle: rank over the rationals by Gauss-Jordan elimination on `Fraction`s."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot_row = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rows):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pivot
                for j in range(col, cols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        if rank == rows:
            break
    return rank


def _validate_covering(top: SerreGraph, bottom: SerreGraph, vmap, emap) -> None:
    """Oracle: assert that (vmap, emap) is a covering map of Serre graphs, over
    every vertex and edge of `top` with every star sorted."""
    if sorted(set(vmap)) != list(range(bottom.vertex_count)):
        raise InvariantError("projection is not vertex-surjective")
    for e in range(top.edge_count):
        f = emap[e]
        if vmap[top.origin[e]] != bottom.origin[f] or vmap[top.terminus[e]] != bottom.terminus[f]:
            raise InvariantError("projection does not commute with endpoints")
        if emap[top.inverse[e]] != bottom.inverse[f]:
            raise InvariantError("projection does not commute with inversion")
    bottom_out = out_edges(bottom)
    for w, leaving in enumerate(out_edges(top)):
        # bottom_out tuples are strictly increasing, so equality also rules out repeats
        if tuple(sorted(emap[e] for e in leaving)) != bottom_out[vmap[w]]:
            raise InvariantError(f"restriction at vertex {w} is not a bijection")


def base_projection_by_full_covering_check(quotient: SerreGraph, base: SerreGraph) -> None:
    """Oracle for the partition check behind `covers._coset_quotient`
    (`covers._coset_index`): the full covering check of
    (w, d) -> (w // k, d // k) from a quotient onto its base."""
    k = quotient.vertex_count // base.vertex_count
    _validate_covering(
        quotient,
        base,
        vmap=[w // k for w in range(quotient.vertex_count)],
        emap=[d // k for d in range(quotient.edge_count)],
    )


def coset_quotient_by_representatives(alpha: VoltageAssignment, blocks) -> tuple[SerreGraph, list]:
    """Oracle builder: the quotient arrays of `covers._coset_quotient` for any
    partition of G, edge e x B ending at the block of rep(B)*alpha(e) for the
    first element of B, one `g.mul` per edge and block and no check of its own.
    `SerreGraph` refuses arrays whose inversion is not an involution."""
    base, g = alpha.base, alpha.group
    k = len(blocks)
    coset_of = [-1] * g.order
    for i, block in enumerate(blocks):
        for y in block:
            coset_of[y] = i
    origin, terminus, inverse = [], [], []
    for e in range(base.edge_count):
        a = alpha.voltage_of(e)
        o, t, inv = base.origin[e] * k, base.terminus[e] * k, base.inverse[e] * k
        for ci, block in enumerate(blocks):
            target = coset_of[g.mul(block[0], a)]
            origin.append(o + ci)
            terminus.append(t + target)
            inverse.append(inv + target)
    graph = SerreGraph(
        vertex_count=base.vertex_count * k,
        origin=tuple(origin),
        terminus=tuple(terminus),
        inverse=tuple(inverse),
    )
    return graph, coset_of


def kappa_by_representatives(alpha: VoltageAssignment, h: Subgroup) -> int:
    """Oracle for `covers.intermediate_kappa`: kappa of the quotient that
    `coset_quotient_by_representatives` builds from H's left cosets, counted
    by exhaustive enumeration up to 10 geometric edges and by dense Bareiss
    on a cofactor of the Laplacian past that."""
    quotient, _ = coset_quotient_by_representatives(alpha, left_cosets(h))
    if quotient.geometric_edge_count <= 10:
        return brute_force_spanning_trees(quotient)
    return det_int(delete_row_col(laplacian(quotient), 0, 0))


def projection_by_full_covering_check(c: Cover, quotient: SerreGraph, coset_of) -> None:
    """Oracle for the per-voltage action check of `covers._voltage_action`: the
    full covering check of (v, sigma) -> (v, coset_of[sigma]) from the derived
    graph onto `quotient`, with maps over every vertex and edge of the cover
    and every star sorted."""
    n, k = c.group.order, max(coset_of) + 1
    _validate_covering(
        c.derived,
        quotient,
        vmap=[(w // n) * k + coset_of[w % n] for w in range(c.derived.vertex_count)],
        emap=[(d // n) * k + coset_of[d % n] for d in range(c.derived.edge_count)],
    )


def set_partitions(items: list) -> list[list[tuple]]:
    """Every partition of `items` into blocks, each block in the order of `items`."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for partition in set_partitions(rest):
        out.append([(first,)] + partition)
        for i, block in enumerate(partition):
            out.append(partition[:i] + [(first,) + block] + partition[i + 1 :])
    return out


def dumbbell_graph() -> SerreGraph:
    """Two vertices, a loop at each, and one bridge (chi = -1)."""
    return build_graph(2, [(0, 0), (0, 1), (1, 1)])


def dense_zeta_numerator_at(a, degrees, u: int) -> int:
    """Oracle: det(I - A u + (D - I) u^2) at one integer u, by dense Bareiss."""
    n = len(a)
    return det_int(
        [
            [(1 + (degrees[i] - 1) * u * u if i == j else 0) - a[i][j] * u for j in range(n)]
            for i in range(n)
        ]
    )


def det_ring(matrix, one):
    """Oracle: division-free determinant over any commutative ring.

    Laplace expansion with memoization over column subsets: O(2^n * n) ring
    operations, so only suitable for small matrices.  `one` is the ring unit
    used for the empty determinant.
    """
    n = _check_square(matrix)
    if n == 0:
        return one
    if n > 16:
        raise TooLargeError(f"division-free determinant limited to 16x16, got {n}")
    # expand along the top row of the remaining block, top-down:
    # det(rows r.., S) = sum_t (-1)^t a[r][j_t] det(rows r+1.., S - j_t)
    full = (1 << n) - 1
    dp = {full: one}
    for r in range(n):
        row = matrix[r]
        nxt: dict[int, object] = {}
        for mask, val in dp.items():
            pos = 0
            for j in range(n):
                bit = 1 << j
                if not (mask & bit):
                    continue
                entry = row[j]
                term = val * entry
                if pos & 1:
                    term = -term
                sub = mask ^ bit
                if sub in nxt:
                    nxt[sub] = nxt[sub] + term
                else:
                    nxt[sub] = term
                pos += 1
        dp = nxt
    return dp[0]


def interpolate_rational(points) -> list[Fraction]:
    """Oracle: coefficients (low first) of the unique polynomial through the points.

    Newton divided differences over exact rationals; the points must have
    pairwise distinct abscissae.
    """
    xs = [p[0] for p in points]
    ys = [Fraction(p[1]) for p in points]
    n = len(points)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # expand Newton form to monomial coefficients
    out = [Fraction(0)] * n
    basis = [Fraction(1)] + [Fraction(0)] * (n - 1)
    deg = 0
    for k in range(n):
        c = coef[k]
        if c:
            for i in range(deg + 1):
                out[i] += c * basis[i]
        if k < n - 1:
            # basis *= (x - xs[k])
            nxt = [Fraction(0)] * n
            for i in range(deg + 1):
                nxt[i + 1] += basis[i]
                nxt[i] -= xs[k] * basis[i]
            basis = nxt
            deg += 1
    while out and out[-1] == 0:
        out.pop()
    return out


def theta_graph() -> SerreGraph:
    """Two vertices joined by three parallel edges (chi = -1)."""
    return build_graph(2, [(0, 1), (0, 1), (0, 1)])


def subgroups_by_pairwise_joins(g: FiniteGroup) -> list[Subgroup]:
    """Oracle lattice: cyclic subgroups closed under pairwise joins, round by round.

    Every join is closed under products and inverses by its own search and
    passes the validating public `Subgroup` constructor.
    """
    found = {h.elements: h for h in cyclic_subgroups(g)}
    while True:
        keys = list(found)
        new = []
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                elems = {g.identity}
                frontier = [g.identity]
                gens = set(keys[i]) | set(keys[j])
                while frontier:
                    x = frontier.pop()
                    for s in gens:
                        for y in (g.mul(x, s), g.mul(x, g.inv(s))):
                            if y not in elems:
                                elems.add(y)
                                frontier.append(y)
                join = Subgroup(g, tuple(elems))
                if join.elements not in found:
                    found[join.elements] = join
                    new.append(join)
        if not new:
            break
    return sorted(found.values(), key=lambda h: (h.order, h.elements))


def nullspace_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    """Oracle: right null space of a dense matrix mod p from its full RREF."""
    rref, pivots = _rref_mod(mat, p)
    n = len(mat[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(vec)
    return basis


def associativity_failure(table) -> tuple[int, int, int] | None:
    """Oracle: the first triple (a, b, c) with (ab)c != a(bc), by testing all n^3."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def random_loop_table(rng: random.Random, n: int) -> list[list[int]]:
    """Random Latin square with identity 0 (a loop), by randomized backtracking."""
    table = [[0] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [x for x in range(n) if x not in used]
        rng.shuffle(options)
        for x in options:
            table[i][j] = x
            if fill(k + 1):
                return True
        return False

    if not fill(0):
        raise AssertionError("no Latin square completion")
    return table


def random_connected_voltage_by_derived_graph(
    base: SerreGraph, g: FiniteGroup, seed: int
) -> VoltageAssignment:
    """`covers.random_connected_voltage` with each attempt tested on its derived graph.

    The same seeded draws; an attempt is accepted when the built derived
    graph is connected.  Assumes a connected base whose Euler
    characteristic allows G.
    """
    rng = random.Random(seed)
    for _ in range(VOLTAGE_ATTEMPTS):
        volt = tuple(rng.randrange(g.order) for _ in range(base.geometric_edge_count))
        alpha = VoltageAssignment(base=base, group=g, volt=volt)
        if derived_graph(alpha).derived.is_connected():
            return alpha
    raise NoConnectedAssignmentFoundError(
        f"no connected assignment found in {VOLTAGE_ATTEMPTS} attempts"
    )


def conjugate_by_products(g: FiniteGroup, x: int, a: int) -> int:
    """x a x^-1 from two products and an inverse: the oracle for `FiniteGroup.conjugation`."""
    return g.mul(g.mul(x, a), g.inv(x))


def conjugacy_classes_by_products(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Orbits under conjugation, ordered as `FiniteGroup.conjugacy_classes` orders them."""
    orbits = {
        tuple(sorted({conjugate_by_products(g, x, a) for x in range(g.order)}))
        for a in range(g.order)
    }
    return sorted(orbits, key=lambda c: (g.identity not in c, c[0]))


def class_key_by_products(h: Subgroup) -> tuple[int, ...]:
    g = h.parent
    return min(
        tuple(sorted(conjugate_by_products(g, x, a) for a in h.elements)) for x in range(g.order)
    )


def is_normal_by_products(h: Subgroup) -> bool:
    g = h.parent
    elems = set(h.elements)
    return all(conjugate_by_products(g, x, a) in elems for x in range(g.order) for a in elems)


def induced_trivial_values_by_products(table, h: Subgroup) -> list[Fraction]:
    """Ind_H^G(1) at each class: |{x : x^-1 g x in H}| / |H|, by products."""
    g = table.group
    members = set(h.elements)
    return [
        Fraction(sum(g.mul(g.mul(g.inv(x), cls[0]), x) in members for x in range(g.order)), h.order)
        for cls in table.classes
    ]


def voltage_by_orientation_slot(alpha: VoltageAssignment, edge: int) -> int:
    """Voltage of a directed edge by bisecting the canonical orientation for its
    geometric edge: the oracle for `VoltageAssignment.voltage_of`."""
    orientation = alpha.base.orientation()
    inverse = alpha.base.inverse[edge]
    slot = bisect_left(orientation, min(edge, inverse))
    assert orientation[slot] == min(edge, inverse)
    x = alpha.volt[slot]
    return x if edge < inverse else alpha.group.inv(x)


def run_cli(argv: list[str]) -> int:
    """`cli.main(argv)`, asserting exit 0, 1 or 2 (2 with an `error:` or `usage:`
    line) and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an option
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())
    return code


def derived_walk_counts(c, length: int) -> list[list[int]]:
    """Oracle for `lfunctions.walk_table`, from the Hashimoto matrix of the derived graph.

    Edge e x sigma of Y has index e * |G| + sigma.  A closed walk in the base
    from e_0 with net voltage g is a non-backtracking walk in Y from
    (e_0, identity) to (e_0, g), so N_k(g) sums row (e_0, identity) of W_Y^k
    at column (e_0, g) over every base edge e_0.
    """
    y, g = c.derived, c.group
    leaving = out_edges(y)
    counts = [[0] * g.order for _ in range(length)]
    for start in range(c.base.edge_count):
        vector = [0] * y.edge_count
        vector[start * g.order + g.identity] = 1
        for row in counts:
            step = [0] * y.edge_count
            for f, value in enumerate(vector):
                if value:
                    for f2 in leaving[y.terminus[f]]:
                        if f2 != y.inverse[f]:
                            step[f2] += value
            vector = step
            for x in range(g.order):
                row[x] += vector[start * g.order + x]
    return counts


def walk_table_by_start(c, length: int) -> list[list[int]]:
    """Oracle for `lfunctions.walk_table`: the same walk, one start edge at a time.

    A walk from e_0 is kept as one list per directed edge e, indexed by the
    net voltage x of the walk before e.  A step moves e's list to index
    x alpha(e) and adds it into the lists of e's successors: the edges
    leaving t(e), except inverse(e).  Only one edge of each inverse pair is a
    start; its reversed walks are read at alpha h^-1 alpha^-1.
    """
    base, g, alpha = c.base, c.group, c.voltage
    table, inv = g.cayley, g.inverses
    elements, edges = range(g.order), range(base.edge_count)
    moves = [[table[y][inv[alpha.voltage_of(e)]] for y in elements] for e in edges]
    zero = [0] * g.order
    counts = [[0] * g.order for _ in range(length)]
    for start in base.orientation():
        a = alpha.voltage_of(start)
        mirror = [table[table[a][inv[h]]][inv[a]] for h in elements]
        lists = [zero] * base.edge_count
        lists[start] = [int(x == g.identity) for x in elements]
        for k in range(length):
            moved = [[lst[i] for i in move] for lst, move in zip(lists, moves)]
            arriving = [zero] * base.vertex_count
            for e, m in enumerate(moved):
                v = base.terminus[e]
                arriving[v] = list(map(add, arriving[v], m))
            lists = [
                list(map(sub, arriving[base.origin[f]], moved[base.inverse[f]])) for f in edges
            ]
            back = lists[start]
            counts[k] = [n + x + back[i] for n, x, i in zip(counts[k], back, mirror)]
    return counts


# -- oracles and constructions with no caller in the library ------------------------


def is_irreducibly_represented_by_characters(g: FiniteGroup) -> bool:
    """Oracle for `groups.is_irreducibly_represented`: some irreducible
    character of the exact table is faithful.

    The kernel of chi is the union of the classes whose multiplicity vector
    is concentrated at zeta^0 (`CharacterTable.kernel_of`), so chi is
    faithful exactly when the identity's class is the only such class.
    """
    table = character_table(g)
    one = table.class_of[g.identity]
    return any(
        all(i == one or v[0] != chi.degree for i, v in enumerate(chi.values))
        for chi in table.characters
    )


def is_exceptional_by_cyclic_poset(g: FiniteGroup) -> bool:
    """Oracle for `groups.is_exceptional`: mu({1}, top) read off the Moebius
    table of the cyclic-subgroup poset."""
    return mobius(cyclic_poset(g)).mu((g.identity,), TOP_KEY) == 0


def artin_coefficients(table, values) -> dict[tuple[int, ...], Fraction]:
    """Oracle for `theorems._brauer_kuroda_terms`: the a_C with
    phi = sum_C a_C Ind_C^G(1) over the cyclic subgroups C, for a rational
    class function phi given by its value on each class of the table.

    a_C = (1/[G:C]) sum over the cyclic B >= C of mu([B:C]) phi(b), b a
    generator of B and mu the classical Moebius function; the
    reconstruction of phi is asserted.
    """
    g = table.group
    cyclics = cyclic_subgroups(g)

    def value_at_generator(b: Subgroup) -> Fraction:
        found = {values[table.class_of[x]] for x in b.elements if g.element_order(x) == b.order}
        assert len(found) == 1, f"the value depends on the generator of {b.describe()}"
        return Fraction(found.pop())

    coeffs = {}
    for c in cyclics:
        overgroups = (b for b in cyclics if set(c.elements) <= set(b.elements))
        total = sum(classical_mobius(b.order // c.order) * value_at_generator(b) for b in overgroups)
        coeffs[c.elements] = Fraction(total) / c.index()
    recon = [Fraction(0)] * table.class_count
    for c in cyclics:
        for i, v in enumerate(induced_trivial_values(c)):
            recon[i] += coeffs[c.elements] * v
    assert recon == list(values), "Artin induction reconstruction failed"
    return coeffs


def character_inner_product(chi, psi) -> Fraction:
    """Oracle: <chi, psi> = (1/|G|) sum_K |K| chi(K) psi(K^-1) of two characters;
    `InvariantError` when the sum is not rational."""
    g = psi.group
    acc = CyclotomicInt.zero(psi.e)
    for i, cls in enumerate(g.conjugacy_classes()):
        acc = acc + len(cls) * (chi.value_cyclo(i) * psi.value_at_inverse(i))
    return Fraction(acc.as_int(), g.order)


def trivial_rep(g: FiniteGroup) -> MatrixRep:
    one = ((CyclotomicInt.one(g.exponent()),),)
    return MatrixRep(group=g, degree=1, e=g.exponent(), matrices=(one,) * g.order)


def regular_rep(g: FiniteGroup) -> MatrixRep:
    """Right regular representation as permutation matrices: rho(x)[s][t] = [t = s*x]."""
    e = g.exponent()
    one, zero = CyclotomicInt.one(e), CyclotomicInt.zero(e)
    mats = tuple(
        tuple(tuple(one if g.mul(s, x) == t else zero for t in range(g.order)) for s in range(g.order))
        for x in range(g.order)
    )
    return MatrixRep(group=g, degree=g.order, e=e, matrices=mats)


def bouquet_h_formula(c: Cover, rho: MatrixRep) -> CyclotomicInt:
    """Closed form h(1, rho) = sum_s (2 - rho(alpha(s)) - rho(alpha(s))^-1) of a
    degree-one rho over a bouquet base."""
    assert c.base.vertex_count == 1 and rho.degree == 1
    total = CyclotomicInt.zero(rho.e)
    for x in c.voltage.volt:
        total = total + 2 - rho.matrices[x][0][0] - rho.matrices[c.group.inv(x)][0][0]
    return total


def kronecker(a, b) -> list[list]:
    """Kronecker product: block matrix with blocks a[i][j] * b."""
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def delete_row_col(matrix, row: int, col: int) -> list[list]:
    """Submatrix with one row and one column deleted (0-based indices)."""
    return [[x for j, x in enumerate(r) if j != col] for i, r in enumerate(matrix) if i != row]


def cauchy_binet_check(a, b, m1: int, m2: int) -> bool:
    """det((AB)(m1,m2)) == sum_m det(A(m1,m)) det(B(m,m2)), indices 1-based."""
    n = _check_square(a)
    _check_square(b)
    lhs = det_fraction(delete_row_col(mat_mul(a, b), m1 - 1, m2 - 1))
    rhs = sum(
        det_fraction(delete_row_col(a, m1 - 1, m)) * det_fraction(delete_row_col(b, m, m2 - 1))
        for m in range(n)
    )
    return lhs == rhs


def cycle_nets(alpha: VoltageAssignment) -> list[int]:
    """Net voltages of the fundamental cycles of the spanning tree that
    `is_galois` grows from vertex 0; `DisconnectedGraphError` on a
    disconnected base.  Walking from (0, e) in the derived graph reaches
    (0, sigma) exactly for sigma in the subgroup these generate."""
    plan = _spanning_tree_plan(alpha.base)
    if plan is None:
        raise DisconnectedGraphError("fundamental cycles need a connected base")
    return _plan_nets(plan, alpha.group, alpha.volt)


def symbolic_phase_by_heap(rows) -> tuple[list[int], list[dict[int, int]]]:
    """Oracle of `linalg._symbolic_phase`: minimum-degree elimination of the
    pattern, lowest index first among ties, with the heap to the last row."""
    n = len(rows)
    adj = [{j for j, v in row.items() if v and j != i} for i, row in enumerate(rows)]
    heap = [(len(cols), i) for i, cols in enumerate(adj)]
    heapify(heap)
    order, upper = [], [None] * n
    while heap:
        degree, p = heappop(heap)
        if upper[p] is not None or degree != len(adj[p]):
            continue
        order.append(p)
        filled = adj[p]
        upper[p] = {j: rows[p].get(j, 0) for j in filled | {p}}
        for i in filled:
            adj[i] = (adj[i] | filled) - {p, i}
            heappush(heap, (len(adj[i]), i))
    return order, upper


def det_sparse_spd_one_pivot(rows) -> int:
    """Oracle of `linalg.det_int_sparse_spd`: the same pivot order, one pivot
    at a time to the last row, with no two-pivot pass over the dense tail.

    Each row is held over the determinants of the eliminated components next
    to it (one bit per component in an int mask); the determinant is the
    product over the components no pivot merges.  A pivot that is not
    positive raises the same `InvariantError` text.  The input must be
    symmetric; it is not checked here.
    """
    n = len(rows)
    order, upper = symbolic_phase_by_heap(rows)
    comps, scale, live, pivot_row = [0] * n, [1] * n, 0, [0] * n

    def product(mask: int) -> int:
        return prod(scale[k] for k in range(n) if mask >> k & 1)

    for p in order:
        row_p = upper[p]
        pivot = row_p.pop(p)
        if pivot <= 0:
            raise InvariantError(f"pivot {pivot} at row {p}: matrix is not positive definite")
        mask_p, s_p, bit = comps[p], scale[p], 1 << p
        scale[p] = pivot
        live = live & ~mask_p | bit
        for j, v in row_p.items():
            pivot_row[j] = v
        for i, f in row_p.items():
            mask_i = comps[i]
            if mask_i == mask_p:
                d = s_p
                comps[i], scale[i] = bit, pivot
            else:
                s_i = scale[i]
                f = f * s_i // s_p
                d = product(mask_i & mask_p)
                comps[i], scale[i] = mask_i & ~mask_p | bit, s_i // d * pivot
            upper[i] = {j: (v * pivot - f * pivot_row[j]) // d for j, v in upper[i].items()}
        for j in row_p:
            pivot_row[j] = 0
    return product(live)


BRUTE_FORCE_EDGE_LIMIT = 20


def brute_force_spanning_trees(g: SerreGraph) -> int:
    """Count spanning trees by exhaustive enumeration over geometric edges.

    Independent oracle for the Matrix-Tree route; guarded to small graphs.
    """
    m = g.geometric_edge_count
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(f"{m} geometric edges exceeds limit {BRUTE_FORCE_EDGE_LIMIT}")
    n = g.vertex_count
    if n == 0:
        return 0
    if n == 1:
        return 1
    edges = g.geometric_edges()
    count = 0
    for subset in combinations(range(m), n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for idx in subset:
            u, v = edges[idx]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def mobius_inversion_check(p: Poset, f: dict, g: dict) -> bool:
    """Verify both directions of the inversion formula on the given data.

    Each implication is checked as stated: whenever the summation premise
    holds for every element, the inverted identity must hold for every
    element (and conversely).  Values are treated as exact rationals.
    """
    table = mobius(p)
    n = len(p)
    fv = [Fraction(f[k]) for k in p.keys]
    gv = [Fraction(g[k]) for k in p.keys]

    def up_sum(values, x):
        return sum(
            (values[y] for y in range(n) if p.leq_matrix[x][y]), start=Fraction(0)
        )

    def up_mu_sum(values, x):
        return sum(
            (table.values[x, y] * values[y] for y in range(n) if p.leq_matrix[x][y]),
            start=Fraction(0),
        )

    def down_sum(values, y):
        return sum(
            (values[x] for x in range(n) if p.leq_matrix[x][y]), start=Fraction(0)
        )

    def down_mu_sum(values, y):
        return sum(
            (table.values[x, y] * values[x] for x in range(n) if p.leq_matrix[x][y]),
            start=Fraction(0),
        )

    # direction (1): g(x) = sum_{y >= x} f(y)  <=>  f(x) = sum_{y >= x} mu(x,y) g(y)
    premise1 = all(gv[x] == up_sum(fv, x) for x in range(n))
    conclusion1 = all(fv[x] == up_mu_sum(gv, x) for x in range(n))
    # direction (2): g(y) = sum_{x <= y} f(x)  <=>  f(y) = sum_{x <= y} mu(x,y) g(x)
    premise2 = all(gv[y] == down_sum(fv, y) for y in range(n))
    conclusion2 = all(fv[y] == down_mu_sum(gv, y) for y in range(n))
    return premise1 == conclusion1 and premise2 == conclusion2


# -- objects of the non-existence lemmas, checked statement by statement ------


def exp_join(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    if len(a) != len(b):
        raise LengthMismatchError(f"lengths {len(a)} and {len(b)}")
    return tuple(max(x, y) for x, y in zip(a, b))


def exp_meet(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    if len(a) != len(b):
        raise LengthMismatchError(f"lengths {len(a)} and {len(b)}")
    return tuple(min(x, y) for x, y in zip(a, b))


def family_kappa(f: FamilySpec, t: int) -> int:
    """kappa of the proof family over Z/p^s: voltages p^(s-b) on t loops and 1."""
    if t < 0:
        raise FamilyParameterError("t must be nonnegative")
    voltage = exp_pow(f.primes, exp_sub_floor(f.s, f.b))
    return _bouquet_family_kappa(f.modulus, voltage, t)


def mbar_matrix(primes, s: ExponentVector) -> list[list[Fraction]]:
    """Same matrix over the full grid including the zero vector."""
    grid = exponent_grid(s)
    return [
        [
            1 - Fraction(1, exp_pow(primes, tuple(max(x + y - z, 0) for x, y, z in zip(a, b, s))))
            for b in grid
        ]
        for a in grid
    ]


def j_block(s_i: int) -> list[list[Fraction]]:
    return [[Fraction(1)] * (s_i + 1) for _ in range(s_i + 1)]


def k_block(p_i: int, s_i: int) -> list[list[Fraction]]:
    return [
        [Fraction(1, p_i ** max(a + b - s_i, 0)) for b in range(s_i + 1)]
        for a in range(s_i + 1)
    ]


def l_block(s_i: int) -> list[list[Fraction]]:
    out = [[Fraction(0)] * (s_i + 1) for _ in range(s_i + 1)]
    for i in range(s_i + 1):
        out[i][i] = Fraction(1)
        if i > 0:
            out[i][0] = Fraction(-1)
    return out


def r_block(s_i: int) -> list[list[Fraction]]:
    out = [[Fraction(0)] * (s_i + 1) for _ in range(s_i + 1)]
    for i in range(s_i + 1):
        out[i][i] = Fraction(1)
        if i > 0:
            out[0][i] = Fraction(-1)
    return out


def k_prime_block(p_i: int, s_i: int) -> list[list[Fraction]]:
    """L K R: (1,1) entry 1, first row/column otherwise zero, anti-triangular block."""
    return mat_mul(mat_mul(l_block(s_i), k_block(p_i, s_i)), r_block(s_i))
