"""Finite groups as Cayley tables.

Elements are indices 0..n-1 with a canonical, constructor-defined ordering
(lexicographic tuples for direct products, one-line notation for permutation
groups), so every downstream matrix and poset is deterministic for a given
build sequence.  Subgroups are value objects identified by their sorted
element sets.

The subgroup lattice is built by cyclic extension (Neubüser 1960) on
element bitmasks.  Constructions that guarantee closure (joins, cyclic
closures, conjugates) skip the O(|H|^2) check of the public `Subgroup`
constructor.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import permutations as iter_permutations
from math import gcd

from .errors import (
    ClosureTooLargeError,
    InvalidTableError,
    MismatchedGroupError,
    NotNormalError,
    OrderTooLargeError,
)

DEFAULT_MAX_ORDER = 128
DEFAULT_CLOSURE_BOUND = 512


def max_group_order() -> int:
    """Configured guard for subgroup/character computations."""
    value = os.environ.get("GALOIS_SPAN_MAX_ORDER")
    return int(value) if value else DEFAULT_MAX_ORDER


class FiniteGroup:
    """Group given by an n x n Cayley table of element indices."""

    def __init__(self, cayley, labels=None, name: str = "G", validate: bool = True):
        self.cayley = tuple(tuple(int(x) for x in row) for row in cayley)
        self.order = len(self.cayley)
        self.name = name
        if labels is None:
            labels = [str(i) for i in range(self.order)]
        self.labels = tuple(str(l) for l in labels)
        if len(self.labels) != self.order:
            raise InvalidTableError("label count differs from order")
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
        if validate:
            self._validate()
        self._cache: dict = {}

    # -- construction checks ------------------------------------------------

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            row_ok = all(self.cayley[e][x] == x for x in range(n))
            col_ok = all(self.cayley[x][e] == x for x in range(n))
            if row_ok and col_ok:
                return e
        raise InvalidTableError("no two-sided identity")

    def _find_inverses(self) -> tuple[int, ...]:
        n, e = self.order, self.identity
        inv = [-1] * n
        for a in range(n):
            for b in range(n):
                if self.cayley[a][b] == e and self.cayley[b][a] == e:
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise InvalidTableError(f"element {a} has no two-sided inverse")
        return tuple(inv)

    def _validate(self):
        """Latin-square check, then Light's associativity test.

        The elements s with (a s) c = a (s c) for all a, c are closed under
        the product, so checking every s in a generating set S proves
        associativity in O(n^2 |S|) (Clifford & Preston 1961, section 1.2).
        S is picked greedily: the least element not yet reached is added,
        and the reached set is closed under right multiplication by S.  For
        a group each new generator at least doubles the reached subgroup,
        so |S| <= log2 n.
        """
        n = self.order
        table = self.cayley
        for row in table:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise InvalidTableError("table entries out of range")
            if len(set(row)) != n:
                raise InvalidTableError("table row is not a permutation")
        for col in zip(*table):
            if len(set(col)) != n:
                raise InvalidTableError("table column is not a permutation")
        gens: list[int] = []
        reached = [False] * n
        reached[self.identity] = True
        for s in range(n):
            if reached[s]:
                continue
            gens.append(s)
            frontier = [x for x in range(n) if reached[x]]
            while frontier:
                x = frontier.pop()
                for t in gens:
                    y = table[x][t]
                    if not reached[y]:
                        reached[y] = True
                        frontier.append(y)
        for s in gens:
            s_row = table[s]
            for a, a_row in enumerate(table):
                if table[a_row[s]] != tuple(map(a_row.__getitem__, s_row)):
                    c = next(
                        c for c in range(n) if table[a_row[s]][c] != a_row[s_row[c]]
                    )
                    raise InvalidTableError(f"associativity fails at ({a},{s},{c})")

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        result = self.identity
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def exponent(self) -> int:
        value = 1
        for a in range(self.order):
            o = self.element_order(a)
            value = value * o // gcd(value, o)
        return value

    def is_abelian(self) -> bool:
        return all(
            self.cayley[a][b] == self.cayley[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def is_cyclic(self) -> bool:
        return any(self.element_order(a) == self.order for a in range(self.order))

    def label(self, a: int) -> str:
        return self.labels[a]

    def element_by_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r} in {self.name}")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- conjugacy -----------------------------------------------------------

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Partition of element indices; identity class first, then by least member."""
        if "classes" in self._cache:
            return self._cache["classes"]
        seen = [False] * self.order
        classes = []
        for a in range(self.order):
            if seen[a]:
                continue
            orbit = {self.conj(g, a) for g in range(self.order)}
            for x in orbit:
                seen[x] = True
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: (self.identity not in c, c[0]))
        self._cache["classes"] = classes
        return classes

    def class_index_of(self) -> list[int]:
        """Map element -> index of its conjugacy class."""
        if "class_of" in self._cache:
            return self._cache["class_of"]
        classes = self.conjugacy_classes()
        out = [0] * self.order
        for i, cls in enumerate(classes):
            for x in cls:
                out[x] = i
        self._cache["class_of"] = out
        return out


@dataclass(frozen=True)
class Subgroup:
    """Subgroup as a sorted element set of a parent group."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))
        elems = set(self.elements)
        if self.parent.identity not in elems:
            raise InvalidTableError("subgroup misses the identity")
        for a in self.elements:
            if self.parent.inv(a) not in elems:
                raise InvalidTableError("subgroup not closed under inverse")
            for b in self.elements:
                if self.parent.mul(a, b) not in elems:
                    raise InvalidTableError("subgroup not closed under product")

    @classmethod
    def _trusted(cls, parent: FiniteGroup, elements) -> "Subgroup":
        """Subgroup whose closure the construction guarantees; skips the check."""
        h = object.__new__(cls)
        object.__setattr__(h, "parent", parent)
        object.__setattr__(h, "elements", tuple(sorted(elements)))
        return h

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self) -> int:
        return self.parent.order // self.order

    def contains(self, a: int) -> bool:
        return a in set(self.elements)

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def is_normal(self) -> bool:
        elems = set(self.elements)
        return all(
            self.parent.conj(g, a) in elems for g in range(self.parent.order) for a in elems
        )

    def is_cyclic(self) -> bool:
        return any(
            len(_closure(self.parent, [self.parent.identity], [a])) == self.order
            for a in self.elements
        )

    def conjugate_by(self, g: int) -> "Subgroup":
        # a conjugate of a subgroup is a subgroup
        return Subgroup._trusted(self.parent, [self.parent.conj(g, a) for a in self.elements])

    def key(self) -> tuple[int, ...]:
        return self.elements

    def class_key(self) -> tuple[int, ...]:
        """Least sorted element tuple among the conjugates: equal exactly on a class."""
        g = self.parent
        return min(
            tuple(sorted(g.conj(x, a) for a in self.elements)) for x in range(g.order)
        )

    def describe(self) -> str:
        return "{" + ",".join(self.parent.label(a) for a in self.elements) + "}"


def generated_subgroup(g: FiniteGroup, generators) -> Subgroup:
    """Closure of a set of element indices under multiplication."""
    return Subgroup._trusted(g, _closure(g, [g.identity], list(generators)))


def _closure(g: FiniteGroup, h_elems: list[int], gens: list[int]) -> list[int]:
    """Elements of the subgroup generated by a subgroup H and `gens`.

    The result is a union of right cosets Hy, walked coset by coset over the
    Cayley-table rows of the coset representatives; a finite group needs no
    inverses for its closure.
    """
    table = g.cayley
    seen = bytearray(g.order)
    for a in h_elems:
        seen[a] = 1
    elems = list(h_elems)
    reps = [g.identity]
    for x in reps:
        row = table[x]
        for s in gens:
            y = row[s]
            if not seen[y]:
                reps.append(y)
                for a in h_elems:
                    z = table[a][y]
                    seen[z] = 1
                    elems.append(z)
    return elems


def cyclic_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All subgroups generated by a single element, canonically sorted."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for a in range(g.order):
        elems = tuple(sorted(_closure(g, [g.identity], [a])))
        if elems not in seen:
            seen.add(elems)
            out.append(Subgroup._trusted(g, elems))
    out.sort(key=lambda h: (h.order, h.elements))
    return out


def all_subgroups(g: FiniteGroup, max_order: int | None = None) -> list[Subgroup]:
    """Complete subgroup list by cyclic extension (Neubüser 1960).

    The cyclic subgroups form the first layer.  Each later layer joins every
    subgroup new in the layer before with each cyclic subgroup it does not
    contain.  Every subgroup is the join of its cyclic subgroups, so adding
    them one at a time reaches it.  Element sets are deduplicated as bitmasks.
    """
    bound = max_order if max_order is not None else max_group_order()
    if g.order > bound:
        raise OrderTooLargeError(f"order {g.order} exceeds bound {bound}")
    cyclics = []  # (bitmask, generator)
    found = {}  # bitmask -> (elements, generators)
    for c in cyclic_subgroups(g):
        gen = next(a for a in c.elements if g.element_order(a) == c.order)
        cyclics.append((sum(1 << a for a in c.elements), gen))
        found[cyclics[-1][0]] = (list(c.elements), [gen])
    layer = list(found.items())
    while layer:
        new = []
        for mask, (elems, gens) in layer:
            for c_mask, c_gen in cyclics:
                if c_mask & ~mask:  # C is not inside H
                    join = _closure(g, elems, gens + [c_gen])
                    j_mask = sum(1 << a for a in join)
                    if j_mask not in found:
                        found[j_mask] = (join, gens + [c_gen])
                        new.append((j_mask, found[j_mask]))
        layer = new
    out = [Subgroup._trusted(g, elems) for elems, _ in found.values()]
    out.sort(key=lambda h: (h.order, h.elements))
    return out


def are_conjugate_subgroups(h1: Subgroup, h2: Subgroup) -> bool:
    if h1.parent is not h2.parent:
        raise MismatchedGroupError("subgroups of different groups")
    if h1.order != h2.order:
        return False
    target = set(h2.elements)
    return any(
        set(h1.conjugate_by(g).elements) == target for g in range(h1.parent.order)
    )


def left_cosets(h: Subgroup) -> list[tuple[int, ...]]:
    """Cosets Hg (H multiplied on the left), indexed by least element."""
    g = h.parent
    seen = [False] * g.order
    cosets = []
    for x in range(g.order):
        if seen[x]:
            continue
        coset = tuple(sorted(g.mul(a, x) for a in h.elements))
        for y in coset:
            seen[y] = True
        cosets.append(coset)
    cosets.sort(key=lambda c: c[0])
    return cosets


def quotient_group(h: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Quotient by a normal subgroup, plus the projection element -> coset index."""
    if not h.is_normal():
        raise NotNormalError("quotient by a non-normal subgroup")
    g = h.parent
    cosets = left_cosets(h)
    coset_of = [0] * g.order
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i
    table = [
        [coset_of[g.mul(cosets[i][0], cosets[j][0])] for j in range(len(cosets))]
        for i in range(len(cosets))
    ]
    labels = [f"[{g.label(c[0])}]" for c in cosets]
    quotient = FiniteGroup(table, labels, name=f"{g.name}/{h.describe()}")
    return quotient, coset_of


# -- constructors -------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, [str(i) for i in range(n)], name=f"C{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    table = [
        [
            (g1.mul(a1, b1)) * n2 + g2.mul(a2, b2)
            for b1 in range(n1)
            for b2 in range(n2)
        ]
        for a1 in range(n1)
        for a2 in range(n2)
    ]
    labels = [
        f"({g1.label(a1)},{g2.label(a2)})" for a1 in range(n1) for a2 in range(n2)
    ]
    return FiniteGroup(table, labels, name=f"{g1.name}x{g2.name}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i then reflections r^i s."""
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")

    def idx(rot: int, flip: int) -> int:
        return rot % n + n * flip

    table = []
    for a in range(2 * n):
        i, e = a % n, a // n
        row = []
        for b in range(2 * n):
            j, f = b % n, b // n
            # (r^i s^e)(r^j s^f) = r^(i + (-1)^e j) s^(e+f)
            rot = (i + (j if e == 0 else -j)) % n
            row.append(idx(rot, (e + f) % 2))
        table.append(row)
    labels = [f"r{i}" for i in range(n)] + [f"r{i}s" for i in range(n)]
    return FiniteGroup(table, labels, name=f"D{n}")


def dicyclic_group(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1.

    dicyclic_group(2) is the quaternion group Q8.
    """
    if n < 1:
        raise ValueError("dicyclic group needs n >= 1")
    m = 2 * n

    def idx(i: int, e: int) -> int:
        return i % m + m * e

    table = []
    for a in range(4 * n):
        i, e = a % m, a // m
        row = []
        for b in range(4 * n):
            j, f = b % m, b // m
            if e == 0:
                rot, flip = i + j, f
            else:
                # b a^j = a^-j b, and b^2 = a^n
                rot, flip = i - j, 1 + f
                if flip == 2:
                    rot, flip = rot + n, 0
            row.append(idx(rot, flip % 2))
        table.append(row)
    labels = [f"a{i}" for i in range(m)] + [f"a{i}b" for i in range(m)]
    name = "Q8" if n == 2 else f"Dic{n}"
    return FiniteGroup(table, labels, name=name)


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition p then-after q: (p*q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def _perm_label(p: tuple[int, ...]) -> str:
    n = len(p)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = p[x]
        cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) if cycles else "e"


def _group_from_perms(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_perm_mul(p, q)] for q in perms] for p in perms]
    labels = [_perm_label(p) for p in perms]
    return FiniteGroup(table, labels, name=name)


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    return _group_from_perms(list(iter_permutations(range(n))), name=f"S{n}")


def _perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def alternating_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("alternating group needs n >= 1")
    perms = [p for p in iter_permutations(range(n)) if _perm_sign(p) == 1]
    return _group_from_perms(perms, name=f"A{n}")


def from_permutations(generators, bound: int | None = None, name: str = "perm") -> FiniteGroup:
    """Group generated by permutations (tuples in one-line notation)."""
    limit = bound if bound is not None else DEFAULT_CLOSURE_BOUND
    gens = [tuple(p) for p in generators]
    if not gens:
        raise ValueError("need at least one generator")
    size = len(gens[0])
    if any(len(p) != size or sorted(p) != list(range(size)) for p in gens):
        raise ValueError("generators must be permutations of the same domain")
    identity = tuple(range(size))
    elems = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = _perm_mul(x, s)
            if y not in elems:
                if len(elems) >= limit:
                    raise ClosureTooLargeError(f"closure exceeds bound {limit}")
                elems.add(y)
                frontier.append(y)
    return _group_from_perms(list(elems), name=name)


def from_cayley_table(table, labels=None, name: str = "table") -> FiniteGroup:
    return FiniteGroup(table, labels, name=name)


# -- GroupSpec grammar ---------------------------------------------------------


def _parse_cycles(text: str) -> tuple[int, ...]:
    """Parse one generator like "(0 1 2)(3 4)" into one-line notation."""
    cycles = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            j = text.index(")", i)
            body = text[i + 1 : j].replace(",", " ").split()
            cycles.append([int(x) for x in body])
            i = j + 1
        elif ch.isspace():
            i += 1
        else:
            raise ValueError(f"bad cycle notation near {text[i:]!r}")
    size = max((max(c) for c in cycles if c), default=-1) + 1
    # rightmost cycle acts first: the product is c1 o c2 o ... o ck
    perm = list(range(size))
    for cycle in cycles:
        image = list(perm)
        for k, x in enumerate(cycle):
            image[x] = perm[cycle[(k + 1) % len(cycle)]]
        perm = image
    return tuple(perm)


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build a group from a textual descriptor.

    Grammar: C<n>, D<n> (dihedral of order 2n), Q8 / Q16 (dicyclic), Dic<n>,
    S<n>, A<n>, products joined with 'x' (e.g. C2xC6), perm:(cycles);(cycles),
    or table:<path> pointing at a JSON Cayley table.
    """
    spec = spec.strip()
    if spec.startswith("perm:"):
        body = spec[len("perm:") :]
        gens = [_parse_cycles(part) for part in body.split(";") if part.strip()]
        size = max(len(p) for p in gens)
        gens = [p + tuple(range(len(p), size)) for p in gens]
        return from_permutations(gens, name=spec)
    if spec.startswith("table:"):
        path = spec[len("table:") :]
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            return from_cayley_table(data["table"], data.get("labels"), name=path)
        return from_cayley_table(data, name=path)
    factors = [_parse_atom(tok) for tok in spec.split("x")]
    group = factors[0]
    for extra in factors[1:]:
        group = direct_product(group, extra)
    group.name = canonical_spec_name(spec) or spec
    return group


def _parse_atom(token: str) -> FiniteGroup:
    token = token.strip()
    if token.startswith("Dic"):
        return dicyclic_group(int(token[3:]))
    if token.startswith("Q"):
        n = int(token[1:])
        if n % 4 != 0 or n < 8:
            raise ValueError(f"Q{n} is not a dicyclic order (use multiples of 4, >= 8)")
        return dicyclic_group(n // 4)
    kind, num = token[0], token[1:]
    makers = {
        "C": cyclic_group,
        "D": dihedral_group,
        "S": symmetric_group,
        "A": alternating_group,
    }
    if kind not in makers or not num.isdigit():
        raise ValueError(f"cannot parse group atom {token!r}")
    return makers[kind](int(num))


def _atom_order(token: str) -> int:
    if token.startswith("Dic"):
        return 4 * int(token[3:])
    kind, num = token[0], int(token[1:])
    if kind == "C":
        return num
    if kind == "D":
        return 2 * num
    if kind == "Q":
        return num
    if kind == "S":
        out = 1
        for k in range(2, num + 1):
            out *= k
        return out
    if kind == "A":
        out = 1
        for k in range(2, num + 1):
            out *= k
        return max(1, out // 2)
    raise ValueError(token)


def canonical_spec_name(spec: str) -> str | None:
    """Normalized name for fixture lookups; None for perm:/table: descriptors."""
    spec = spec.strip().replace(" ", "")
    if spec.startswith("perm:") or spec.startswith("table:"):
        return None
    tokens = []
    for tok in spec.split("x"):
        if tok.startswith("Dic"):
            n = int(tok[3:])
            tok = {2: "Q8", 4: "Q16"}.get(n, f"Dic{n}")
        tokens.append(tok)
    try:
        tokens.sort(key=lambda t: (_atom_order(t), t))
    except (ValueError, IndexError):
        return None
    return "x".join(tokens)
