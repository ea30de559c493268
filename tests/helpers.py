"""Shared generators for the randomized (seeded) test corpora."""

import random

from galois_span.characters import _rref_mod
from galois_span.graphs import SerreGraph, build_graph
from galois_span.groups import FiniteGroup, Subgroup, cyclic_subgroups
from galois_span.posets import Poset


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


def dumbbell_graph() -> SerreGraph:
    """Two vertices, a loop at each, and one bridge (chi = -1)."""
    return build_graph(2, [(0, 0), (0, 1), (1, 1)])


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
