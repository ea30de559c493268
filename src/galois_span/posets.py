"""Finite posets and their Moebius functions.

The Moebius function is computed by memoized recursion in both defining
forms (summing over the lower and the upper half-open interval); the two
computations must agree and the package treats any disagreement as a bug.
Adjoined bounds (a bottom below every kernel, a top above every cyclic
subgroup) are genuine poset elements so that values like mu(bottom, x) come
from the same code path as interior values.  A poset keeps its Moebius
table, a group keeps its cyclic poset and a character table its kernels and
kernel poset, each computed once on first request.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .errors import InvariantError, PosetError
from .groups import FiniteGroup, Subgroup, cyclic_subgroups

BOTTOM_KEY = "∅"
TOP_KEY = "∞"


class Poset:
    """Immutable finite poset over hashable keys."""

    def __init__(self, keys, labels, leq_matrix):
        self.keys = tuple(keys)
        self.labels = tuple(str(l) for l in labels)
        self.leq_matrix = tuple(tuple(bool(x) for x in row) for row in leq_matrix)
        self._index = {k: i for i, k in enumerate(self.keys)}
        n = len(self.keys)
        if len(self._index) != n:
            raise PosetError("duplicate poset keys")
        if len(self.labels) != n or len(self.leq_matrix) != n:
            raise PosetError("poset field lengths disagree")
        self._validate()
        self._mobius: MobiusTable | None = None  # filled by `mobius`

    def _validate(self):
        n = len(self.keys)
        m = self.leq_matrix
        for i in range(n):
            if len(m[i]) != n:
                raise PosetError("leq matrix is not square")
            if not m[i][i]:
                raise PosetError("relation is not reflexive")
        for i in range(n):
            for j in range(n):
                if i != j and m[i][j] and m[j][i]:
                    raise PosetError("relation is not antisymmetric")
                if m[i][j]:
                    for k in range(n):
                        if m[j][k] and not m[i][k]:
                            raise PosetError("relation is not transitive")

    @classmethod
    def from_leq(cls, keys, labels, leq) -> "Poset":
        keys = list(keys)
        matrix = [[leq(a, b) for b in keys] for a in keys]
        return cls(keys, labels, matrix)

    def __len__(self) -> int:
        return len(self.keys)

    def index(self, key) -> int:
        return self._index[key]

    def leq_idx(self, i: int, j: int) -> bool:
        return self.leq_matrix[i][j]

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with i covered by j (nothing strictly between)."""
        n = len(self.keys)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq_matrix[i][j]:
                    continue
                if any(
                    k != i and k != j and self.leq_matrix[i][k] and self.leq_matrix[k][j]
                    for k in range(n)
                ):
                    continue
                out.append((i, j))
        return out


class MobiusTable:
    """Moebius values for all comparable pairs of a poset."""

    def __init__(self, poset: Poset):
        self.poset = poset
        n = len(poset)
        down: dict[tuple[int, int], int] = {}
        up: dict[tuple[int, int], int] = {}

        def mu_down(x: int, y: int) -> int:
            # mu(x,y) = -sum_{x <= z < y} mu(x,z)
            if (x, y) in down:
                return down[(x, y)]
            if x == y:
                value = 1
            else:
                value = -sum(
                    mu_down(x, z)
                    for z in range(n)
                    if z != y and poset.leq_idx(x, z) and poset.leq_idx(z, y)
                )
            down[(x, y)] = value
            return value

        def mu_up(x: int, y: int) -> int:
            # dual form: mu(x,y) = -sum_{x < z <= y} mu(z,y)
            if (x, y) in up:
                return up[(x, y)]
            if x == y:
                value = 1
            else:
                value = -sum(
                    mu_up(z, y)
                    for z in range(n)
                    if z != x and poset.leq_idx(x, z) and poset.leq_idx(z, y)
                )
            up[(x, y)] = value
            return value

        values: dict[tuple[int, int], int] = {}
        for i in range(n):
            for j in range(n):
                if poset.leq_idx(i, j):
                    a, b = mu_down(i, j), mu_up(i, j)
                    if a != b:
                        raise InvariantError(
                            f"Moebius recursions disagree at ({i},{j}): {a} vs {b}"
                        )
                    values[(i, j)] = a
        self.values = MappingProxyType(values)  # read-only: `mobius` shares the table

    def mu(self, a, b) -> int:
        i, j = self.poset.index(a), self.poset.index(b)
        return self.values.get((i, j), 0)

    def mu_idx(self, i: int, j: int) -> int:
        return self.values.get((i, j), 0)

    def to_json_list(self) -> list[dict]:
        out = []
        for (i, j), value in sorted(self.values.items()):
            out.append(
                {
                    "from": self.poset.labels[i],
                    "to": self.poset.labels[j],
                    "mu": str(value),
                }
            )
        return out


def mobius(p: Poset) -> MobiusTable:
    """The poset's Moebius table, both recursions run on the first request."""
    if p._mobius is None:
        p._mobius = MobiusTable(p)
    return p._mobius


def adjoin_bottom(p: Poset) -> Poset:
    if BOTTOM_KEY in p.keys:
        raise PosetError(f"key {BOTTOM_KEY!r} already present")
    keys = (BOTTOM_KEY,) + p.keys
    labels = (BOTTOM_KEY,) + p.labels
    n = len(p)
    matrix = [[True] * (n + 1)]
    for i in range(n):
        matrix.append([False] + list(p.leq_matrix[i]))
    return Poset(keys, labels, matrix)


def adjoin_top(p: Poset) -> Poset:
    if TOP_KEY in p.keys:
        raise PosetError(f"key {TOP_KEY!r} already present")
    keys = p.keys + (TOP_KEY,)
    labels = p.labels + (TOP_KEY,)
    n = len(p)
    matrix = [list(p.leq_matrix[i]) + [True] for i in range(n)]
    matrix.append([False] * n + [True])
    return Poset(keys, labels, matrix)


def subgroup_poset(subgroups: list[Subgroup], label_prefix: str = "H") -> Poset:
    """Inclusion order; elements keyed by sorted element sets so equal subgroups unify."""
    uniq: dict[tuple[int, ...], Subgroup] = {}
    for h in subgroups:
        uniq[h.elements] = h
    ordered = sorted(uniq.values(), key=lambda h: (h.order, h.elements))
    keys = [h.elements for h in ordered]
    labels = []
    for i, h in enumerate(ordered):
        if h.is_whole_group():
            labels.append("G")
        elif h.is_trivial():
            labels.append("1")
        else:
            labels.append(f"{label_prefix}{i}")
    return Poset.from_leq(
        keys, labels, lambda a, b: set(a) <= set(b)
    )


def kernel_subgroups(table) -> dict[tuple[int, ...], Subgroup]:
    """The kernels of the irreducible characters of `table.group`, by element tuple.

    Each comes from `table.kernel_of`, which checks it is a normal subgroup,
    and they are kept on the table, so a verifier that asks again reuses
    them instead of checking them again.
    """
    if "kernel_subgroups" not in table._cache:
        kernels: dict[tuple[int, ...], Subgroup] = {}
        for chi in table.characters:
            h = table.kernel_of(chi)
            kernels.setdefault(h.elements, h)
        table._cache["kernel_subgroups"] = kernels
    return table._cache["kernel_subgroups"]


def kernel_poset(table) -> Poset:
    """Kernels of irreducible characters under inclusion, with a bottom adjoined.

    Kept on the table, as `character_table` keeps the one table of each
    group; its keys are those of `kernel_subgroups`.
    """
    if "kernel_poset" not in table._cache:
        kernels = list(kernel_subgroups(table).values())
        table._cache["kernel_poset"] = adjoin_bottom(subgroup_poset(kernels))
    return table._cache["kernel_poset"]


def cyclic_poset(g: FiniteGroup) -> Poset:
    """Cyclic subgroups under inclusion, with a top adjoined."""
    if "cyclic_poset" not in g._cache:
        cyclics = subgroup_poset(cyclic_subgroups(g), label_prefix="C")
        g._cache["cyclic_poset"] = adjoin_top(cyclics)
    return g._cache["cyclic_poset"]


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
            (values[y] for y in range(n) if p.leq_idx(x, y)), start=Fraction(0)
        )

    def up_mu_sum(values, x):
        return sum(
            (table.mu_idx(x, y) * values[y] for y in range(n) if p.leq_idx(x, y)),
            start=Fraction(0),
        )

    def down_sum(values, y):
        return sum(
            (values[x] for x in range(n) if p.leq_idx(x, y)), start=Fraction(0)
        )

    def down_mu_sum(values, y):
        return sum(
            (table.mu_idx(x, y) * values[x] for x in range(n) if p.leq_idx(x, y)),
            start=Fraction(0),
        )

    # direction (1): g(x) = sum_{y >= x} f(y)  <=>  f(x) = sum_{y >= x} mu(x,y) g(y)
    premise1 = all(gv[x] == up_sum(fv, x) for x in range(n))
    conclusion1 = all(fv[x] == up_mu_sum(gv, x) for x in range(n))
    # direction (2): g(y) = sum_{x <= y} f(x)  <=>  f(y) = sum_{x <= y} mu(x,y) g(x)
    premise2 = all(gv[y] == down_sum(fv, y) for y in range(n))
    conclusion2 = all(fv[y] == down_mu_sum(gv, y) for y in range(n))
    return premise1 == conclusion1 and premise2 == conclusion2


def hasse_dot(p: Poset) -> str:
    """DOT text with covering relations only, drawn bottom-up."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, label in enumerate(p.labels):
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in p.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
