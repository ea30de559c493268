"""Finite posets and their Moebius functions.

The Moebius function is computed by both defining recursions, which must
agree (`MobiusTable`); a disagreement is a bug.  Adjoined bounds (a bottom
below every kernel, a top above every cyclic subgroup) are genuine poset
elements so that values like mu(bottom, x) come from the same code path as
interior values.  A poset keeps its Moebius table and a group its cyclic
poset, its character kernels and its kernel poset, each computed once on
first request.  The kernels are read from the group alone
(`groups.character_kernels`); no character table is built.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .errors import InvariantError, PosetError
from .groups import FiniteGroup, Subgroup, character_kernels, cyclic_subgroups

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
    """Moebius values for all comparable pairs of a poset.

    Each defining recursion is one pass over a linear extension, the
    elements by the size of their down-set; the two must agree on every
    comparable pair, or `InvariantError` names the pair.
    """

    def __init__(self, poset: Poset):
        self.poset = poset
        m = poset.leq_matrix
        n = len(m)
        order = sorted(range(n), key=lambda y: sum(row[y] for row in m))
        down = [{x: 1} for x in range(n)]  # down[x][y]: -sum of mu(x, z), x <= z < y
        for x, row in enumerate(down):
            for y in order:
                if y != x and m[x][y]:
                    row[y] = -sum(v for z, v in row.items() if m[z][y])
        up = [{y: 1} for y in range(n)]  # up[y][x]: -sum of mu(z, y), x < z <= y
        for y, col in enumerate(up):
            for x in reversed(order):
                if x != y and m[x][y]:
                    col[x] = -sum(v for z, v in col.items() if m[x][z])
        values: dict[tuple[int, int], int] = {}
        for i, row in enumerate(down):
            for j, a in sorted(row.items()):
                if a != up[j][i]:
                    raise InvariantError(
                        f"Moebius recursions disagree at ({i},{j}): {a} vs {up[j][i]}"
                    )
                values[(i, j)] = a
        self.values = MappingProxyType(values)  # read-only: `mobius` shares the table

    def mu(self, a, b) -> int:
        i, j = self.poset.index(a), self.poset.index(b)
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


def kernel_subgroups(g: FiniteGroup) -> Mapping[tuple[int, ...], Subgroup]:
    """The kernels of the irreducible characters of g, by element tuple.

    They come from `groups.character_kernels`, which reads them from the
    group alone and checks them, and they are kept on the group, so a
    verifier that asks again reuses them.  Handed out read-only, as a view
    of the kept dict, so no caller can change the kept kernels.
    """
    if "kernel_subgroups" not in g._cache:
        kernels = {h.elements: h for h in character_kernels(g)}
        g._cache["kernel_subgroups"] = MappingProxyType(kernels)
    return g._cache["kernel_subgroups"]


def kernel_poset(g: FiniteGroup) -> Poset:
    """Kernels of irreducible characters under inclusion, with a bottom adjoined.

    Kept on the group; its keys are those of `kernel_subgroups`.
    """
    if "kernel_poset" not in g._cache:
        kernels = list(kernel_subgroups(g).values())
        g._cache["kernel_poset"] = adjoin_bottom(subgroup_poset(kernels))
    return g._cache["kernel_poset"]


def cyclic_poset(g: FiniteGroup) -> Poset:
    """Cyclic subgroups under inclusion, with a top adjoined."""
    if "cyclic_poset" not in g._cache:
        cyclics = subgroup_poset(cyclic_subgroups(g), label_prefix="C")
        g._cache["cyclic_poset"] = adjoin_top(cyclics)
    return g._cache["cyclic_poset"]


def hasse_dot(p: Poset) -> str:
    """DOT text with covering relations only, drawn bottom-up."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, label in enumerate(p.labels):
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in p.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
