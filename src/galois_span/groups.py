"""Finite groups as Cayley tables.

Elements are indices 0..n-1 with a canonical, constructor-defined ordering
(lexicographic tuples for direct products, one-line notation for permutation
groups), so every downstream matrix and poset is deterministic for a given
build sequence.  `FiniteGroup.element` reads every element name and
`FiniteGroup.conjugation` holds every conjugate.  Subgroups are value
objects identified by their sorted element sets.  A group keeps what is
derived from it alone (conjugation, classes, the normal closure of each
class, subgroup lists, the class key of each subgroup, the exceptional
flag, the character table, the character kernels, posets, and the coset
plan of each subgroup that `covers` builds from `left_cosets`) in its
`_cache`, computed on first request; the subgroup lists are handed
out as fresh lists, so no caller can change the kept one.  A group keeps
nothing of how it was built but its name, so what is derived from it
depends on its Cayley table and labels alone.

Both of Table 1's flags are read from the group alone: whether some
irreducible character is faithful, by Gaschütz's criterion on the minimal
normal subgroups, and whether the group is exceptional, by a sum of the
classical Moebius function over the cyclic subgroups' orders.  The kernels
of the irreducible characters are read from the group alone too: the
normal N for which G/N passes the same criterion.

The subgroup lattice is built by cyclic extension (Neubüser 1960) on
element bitmasks.  Constructions that guarantee closure (joins, cyclic
closures, conjugates) skip the O(|H|^2) check of the public `Subgroup`
constructor.
"""

from __future__ import annotations

import os
from itertools import permutations as iter_permutations
from math import gcd

from .errors import (
    MAX_INT_DIGITS,
    ClosureTooLargeError,
    GaloisSpanError,
    GroupConstructionError,
    GroupSpecError,
    InvalidTableError,
    InvariantError,
    MismatchedGroupError,
    NotNormalError,
    OrderTooLargeError,
    SettingError,
    json_int,
    json_list,
    json_object,
    load_json,
)
from .frozen import Frozen
from .numtheory import classical_mobius, is_prime

DEFAULT_MAX_ORDER = 128
CLOSURE_BOUND = 512


def max_group_order() -> int:
    """Guard for subgroup/character computations: `GALOIS_SPAN_MAX_ORDER`, which
    must be a positive decimal integer, or `DEFAULT_MAX_ORDER` when unset or empty."""
    value = os.environ.get("GALOIS_SPAN_MAX_ORDER")
    if not value:
        return DEFAULT_MAX_ORDER
    digits = value.lstrip("0")
    if not (value.isascii() and value.isdigit() and 0 < len(digits) <= MAX_INT_DIGITS):
        raise SettingError(
            "GALOIS_SPAN_MAX_ORDER must be a positive decimal integer of at most"
            f" {MAX_INT_DIGITS} digits, got {value!r}"
        )
    return int(digits)


class FiniteGroup:
    """Group given by an n x n Cayley table of element indices."""

    def __init__(self, cayley, labels=None, name: str = "G"):
        self.cayley = tuple(tuple(map(int, row)) for row in cayley)
        self.order = len(self.cayley)
        if any(len(row) != self.order for row in self.cayley):
            raise InvalidTableError("Cayley table is not square")
        self.name = name
        if labels is None:
            labels = [str(i) for i in range(self.order)]
        self.labels = tuple(str(l) for l in labels)
        if len(self.labels) != self.order:
            raise InvalidTableError("label count differs from order")
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
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
        the product, so checking every s in the generating set S of
        `generators` proves associativity in O(n^2 |S|) (Clifford & Preston
        1961, section 1.2).
        """
        n = self.order
        table = self.cayley
        for row in table:
            if min(row) < 0 or max(row) >= n:
                raise InvalidTableError("table entries out of range")
            if len(set(row)) != n:
                raise InvalidTableError("table row is not a permutation")
        for col in zip(*table):
            if len(set(col)) != n:
                raise InvalidTableError("table column is not a permutation")
        for s in self.generators():
            s_row = table[s]
            for a, a_row in enumerate(table):
                if table[a_row[s]] != tuple(map(a_row.__getitem__, s_row)):
                    c = next(
                        c for c in range(n) if table[a_row[s]][c] != a_row[s_row[c]]
                    )
                    raise InvalidTableError(f"associativity fails at ({a},{s},{c})")

    def generators(self) -> list[int]:
        """A greedy generating set: every element is a product of them.

        The least element not yet reached is added, and the reached set is
        closed under right multiplication by the chosen elements.  For a
        group each new generator at least doubles the reached subgroup, so
        there are at most log2 n of them.
        """
        n = self.order
        table = self.cayley
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
        return gens

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.conjugation()[g][x]

    def conjugation(self) -> tuple[tuple[int, ...], ...]:
        """Row g is the map x -> g x g^-1, read off the Cayley table once."""
        if "conjugation" not in self._cache:
            table, inv = self.cayley, self.inverses
            self._cache["conjugation"] = tuple(
                tuple(table[gx][inv[g]] for gx in table[g]) for g in range(self.order)
            )
        return self._cache["conjugation"]

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

    def element(self, name, what: str = "element") -> int:
        """An index below the order (an int or ASCII digits) or a label; anything
        else raises `GaloisSpanError` naming `what`."""
        if isinstance(name, str) and not (name.isascii() and name.isdigit()):
            if name not in self.labels:
                raise GaloisSpanError(f"no element labelled {name!r} in {self.name}")
            return self.labels.index(name)
        try:
            index = json_int(int(name) if isinstance(name, str) else name, what)
        except ValueError:  # int() refuses digit strings past Python's conversion limit
            raise GaloisSpanError(f"{what} has too many digits for {self.name}") from None
        if not 0 <= index < self.order:
            message = f"{what} {index} out of range: {self.name} has order {self.order}"
            raise GaloisSpanError(message)
        return index

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- conjugacy -----------------------------------------------------------

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Partition of element indices; identity class first, then by least member."""
        if "classes" in self._cache:
            return list(self._cache["classes"])
        seen = [False] * self.order
        classes = []
        for a, images in enumerate(zip(*self.conjugation())):
            if seen[a]:
                continue
            orbit = set(images)
            for x in orbit:
                seen[x] = True
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: (self.identity not in c, c[0]))
        self._cache["classes"] = tuple(classes)
        return classes

    def class_index_of(self) -> tuple[int, ...]:
        """Map element -> index of its conjugacy class."""
        if "class_of" not in self._cache:
            out = [0] * self.order
            for i, cls in enumerate(self.conjugacy_classes()):
                for x in cls:
                    out[x] = i
            self._cache["class_of"] = tuple(out)
        return self._cache["class_of"]


class Subgroup(Frozen):
    """Subgroup as a sorted element set of a parent group.

    Two subgroups are equal, and hash alike, when they have the same parent
    and the same elements.
    """

    __slots__ = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "elements", tuple(sorted(set(elements))))
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parent == other.parent and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.parent, self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self) -> int:
        return self.parent.order // self.order

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def is_normal(self) -> bool:
        elems = set(self.elements)
        return all(row[a] in elems for row in self.parent.conjugation() for a in elems)

    def is_cyclic(self) -> bool:
        """H is cyclic exactly when some element of H has order |H|."""
        return any(self.parent.element_order(a) == self.order for a in self.elements)

    def conjugate_by(self, g: int) -> "Subgroup":
        # a conjugate of a subgroup is a subgroup
        row = self.parent.conjugation()[g]
        return Subgroup._trusted(self.parent, [row[a] for a in self.elements])

    def class_key(self) -> tuple[int, ...]:
        """Least sorted element tuple among the conjugates: equal exactly on a class.

        The group keeps the key of every member of a class once one member
        is asked, so each class of subgroups is conjugated once per group.
        """
        keys = self.parent._cache.setdefault("class_keys", {})
        if self.elements not in keys:
            conjugates = {
                tuple(sorted(map(row.__getitem__, self.elements)))
                for row in self.parent.conjugation()
            }
            key = min(conjugates)
            keys.update(dict.fromkeys(conjugates, key))
        return keys[self.elements]

    def describe(self) -> str:
        return "{" + ",".join(self.parent.label(a) for a in self.elements) + "}"


def generated_subgroup(g: FiniteGroup, generators) -> Subgroup:
    """Closure of a set of element indices under multiplication."""
    return Subgroup._trusted(g, _closure(g, [g.identity], list(generators)))


def _closure(g: FiniteGroup, h_elems: list[int], gens: list[int]) -> list[int]:
    """Elements of the subgroup generated by a subgroup H and `gens`, when
    `gens` includes generators of H or H is normalized by `gens`.

    The result is a union of right cosets Hy, walked coset by coset over the
    Cayley-table rows of the coset representatives; a finite group needs no
    inverses for its closure.  The walk multiplies representatives by
    `gens` alone, so each Hyh, h in H, must be a coset it reaches; either
    condition makes it so.
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
    if "cyclic_subgroups" in g._cache:
        return list(g._cache["cyclic_subgroups"])
    seen: set[tuple[int, ...]] = set()
    out = []
    for a in range(g.order):
        elems = tuple(sorted(_closure(g, [g.identity], [a])))
        if elems not in seen:
            seen.add(elems)
            out.append(Subgroup._trusted(g, elems))
    out.sort(key=lambda h: (h.order, h.elements))
    g._cache["cyclic_subgroups"] = tuple(out)
    return out


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Complete subgroup list by cyclic extension (Neubüser 1960).

    The cyclic subgroups form the first layer.  Each later layer joins every
    subgroup new in the layer before with each cyclic subgroup it does not
    contain.  Every subgroup is the join of its cyclic subgroups, so adding
    them one at a time reaches it.  Element sets are deduplicated as bitmasks.
    """
    bound = max_group_order()
    if g.order > bound:
        raise OrderTooLargeError(f"order {g.order} exceeds bound {bound}")
    if "all_subgroups" in g._cache:
        return list(g._cache["all_subgroups"])
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
    g._cache["all_subgroups"] = tuple(out)
    return out


def _mask(elements) -> int:
    return sum(1 << a for a in elements)


def abelian_dual(g: FiniteGroup, elements, e: int) -> tuple[dict[int, int], list[list[int]]]:
    """Hom(A, mu_e) of the abelian subgroup A of g with the given elements,
    by cyclic extension; e is a multiple of A's exponent.

    Each character is kept as exponents k with chi(y) = zeta_e^k on the
    subgroup H reached so far, starting from H = 1.  For x outside H, with
    x^m the first power of x in H, each chi of H extends in m ways:
    chi'(h x^j) = chi(h) + j b (mod e) for the m solutions b of
    m b = chi(x^m) (mod e).  They exist because x^m has order o(x)/m and m
    divides o(x), which divides e.  O(|A|^2) in all; no prime is needed.
    Returns (position, exponents): chi(y) = zeta_e^chi[position[y]].
    A repeated product h x^j, which elements that do not commute can give,
    raises `InvariantError`, so the lists never outgrow the group.
    """
    members = [g.identity]
    position = {g.identity: 0}
    exponents = [[0]]
    for x in elements:
        if x in position:
            continue
        powers = [g.identity]
        y = x
        while y not in position:
            powers.append(y)
            y = g.mul(y, x)
        m = len(powers)
        at = position[y]
        members = [g.mul(h, xj) for xj in powers for h in members]
        position = {h: i for i, h in enumerate(members)}
        if len(position) < len(members):
            raise InvariantError("the dual group's elements repeat a product")
        exponents = [
            [(k + j * b) % e for j in range(m) for k in chi]
            for chi in exponents
            for b in range(chi[at] // m, e, e // m)
        ]
    return position, exponents


def _class_closures(g: FiniteGroup) -> dict[int, tuple[list[int], list[int]]]:
    """The normal closure of each non-identity class, kept on the group.

    A class generates its own normal closure, since it is closed under
    conjugation.  Each distinct closure is keyed by its bitmask, smallest
    first, with a few elements of the first class that has it, those added
    greedily while they leave the subgroup reached so far, and its elements.
    """
    if "class_closures" not in g._cache:
        out: dict[int, tuple[list[int], list[int]]] = {}
        for cls in g.conjugacy_classes()[1:]:
            gens, reached = [], [g.identity]
            for x in cls:
                if x not in reached:
                    gens.append(x)
                    reached = _closure(g, reached, gens)
            out.setdefault(_mask(reached), (gens, reached))
        g._cache["class_closures"] = dict(sorted(out.items(), key=lambda item: item[0].bit_count()))
    return g._cache["class_closures"]


def _joins(g: FiniteGroup, n: int, known: dict[int, list[int]]) -> dict[int, list[int]]:
    """<N, C> for each class C outside the normal subgroup N (bitmask n).

    Each join is normal, keyed by its mask, with a few elements that
    generate it over N.  `known` maps the masks of subgroups found so far
    to their elements; it holds N and gains each new join.  No closure is
    walked when N and C's closure together make a known subgroup (a class
    closure holding N, say), which is then the join, or lie in a join of
    prime index over N, which is then the join too, since nothing lies
    strictly between.
    """
    out: dict[int, list[int]] = {}
    atoms: list[int] = []  # the joins of prime index over N
    for closure, (gens, _) in _class_closures(g).items():
        if closure & ~n == 0 or any(closure & ~j == 0 for j in atoms):
            continue
        join = n | closure
        if join not in known:
            elems = _closure(g, known[n], gens)
            join = _mask(elems)
            known.setdefault(join, elems)
        if join not in out:
            out[join] = gens
            if is_prime(join.bit_count() // n.bit_count()):
                atoms.append(join)
    return out


def _faithful_quotient(g: FiniteGroup, n_elems: list[int], joins: dict[int, list[int]]) -> bool:
    """Gaschütz's criterion for G/N, read inside G: G/N has a faithful
    irreducible character exactly when its socle, the product of its
    minimal normal subgroups, is the normal closure of one element.

    `n_elems` lists N's elements and `joins` holds <N, C> for every class
    C outside N (`_joins`).  The minimal joins under inclusion are the M
    with M/N minimal normal, since every normal subgroup of G/N is
    generated by classes of G's images.
    Gaschütz (Math. Nachr. 12, 1954) asks this of A, the product of the
    abelian minimal normal subgroups.  The socle is A x T, T a direct
    product of non-abelian minimal normal subgroups T_i, each with trivial
    centre, and A commutes with T.  For a in A and t with a non-trivial
    part in each T_i, the normal closure L of at holds [at, s] = [t, s]
    for every s in T_i, and these are not all 1, so L meets T_i in a
    non-trivial normal subgroup of G, which is T_i; then L holds t and a.
    So the socle is one element's closure exactly when A is, and no
    commutator needs testing.
    """
    minimal: list[int] = []
    for m in sorted(joins, key=int.bit_count):
        if all(k & ~m for k in minimal):
            minimal.append(m)
    if not minimal:
        return True
    socle = _closure(g, n_elems, [x for m in minimal for x in joins[m]])
    return _mask(socle) in joins


def is_irreducibly_represented(g: FiniteGroup) -> bool:
    """True when some irreducible character of g is faithful: Gaschütz's
    criterion (`_faithful_quotient`) at N = 1, where the minimal normal
    subgroups are the minimal normal closures of single classes.  No
    character table is built."""
    one = 1 << g.identity
    known = {mask: elems for mask, (_, elems) in _class_closures(g).items()}
    known[one] = [g.identity]
    return _faithful_quotient(g, [g.identity], _joins(g, one, known))


def _kernel_candidates(g: FiniteGroup) -> tuple[dict[int, dict], dict[int, list[int]]]:
    """Every normal N of g with Z(G)/(Z(G) meet N) cyclic, with its joins.

    A kernel K of an irreducible character is such an N: G/K has a faithful
    irreducible, so its centre is cyclic, and Z(G)K/K lies in it.  The family
    is closed upward, and its minimal members are the subgroups D of Z(G)
    with cyclic quotient, the kernels of Hom(Z(G), mu_e) (`abelian_dual`).
    Every normal N above D is reached from D by joins with single classes
    (`_joins`), the walk from each mask made once.  Returns (mask -> joins,
    mask -> elements).
    """
    centre = [cls[0] for cls in g.conjugacy_classes() if len(cls) == 1]
    position, exponents = abelian_dual(g, centre, g.exponent())
    known = {mask: elems for mask, (_, elems) in _class_closures(g).items()}
    stack = []
    for chi in exponents:
        elems = [y for y, i in position.items() if chi[i] == 0]
        stack.append(_mask(elems))
        known.setdefault(stack[-1], elems)
    candidates: dict[int, dict] = {}
    while stack:
        n = stack.pop()
        if n not in candidates:
            candidates[n] = _joins(g, n, known)
            stack.extend(candidates[n])
    return candidates, known


def _checked_kernels(g: FiniteGroup, candidates, kernels: list[int]) -> list[int]:
    """The kernel masks, once each candidate equals the meet of the kernels
    above it and there are no more kernels than classes.

    Every normal N is the intersection of the kernels of the irreducible
    characters of G/N (Isaacs, Character Theory of Finite Groups, ch. 2),
    and those are the kernels of G that contain N; G has as many irreducible
    characters as classes.  A failure raises `InvariantError`.
    """
    classes = len(g.conjugacy_classes())
    if len(kernels) > classes:
        raise InvariantError(f"{len(kernels)} character kernels but {classes} classes")
    for n in candidates:
        meet = -1  # every bit set: the meet of no kernel
        for k in kernels:
            if n & ~k == 0:
                meet &= k
        if meet != n:
            raise InvariantError(
                f"a normal subgroup of order {n.bit_count()} is not the meet of the"
                " character kernels that contain it"
            )
    return kernels


def character_kernels(g: FiniteGroup) -> list[Subgroup]:
    """The kernels of the irreducible characters of g, read from the group alone.

    They are the normal N for which G/N has a faithful irreducible
    character: the candidates of `_kernel_candidates` that pass Gaschütz's
    criterion (`_faithful_quotient`), checked by `_checked_kernels`.  Sorted
    by order, then elements.  No character table is built.
    """
    bound = max_group_order()
    if g.order > bound:
        raise OrderTooLargeError(f"order {g.order} exceeds bound {bound}")
    candidates, known = _kernel_candidates(g)
    kernels = [n for n, joins in candidates.items() if _faithful_quotient(g, known[n], joins)]
    out = [Subgroup._trusted(g, known[n]) for n in _checked_kernels(g, candidates, kernels)]
    out.sort(key=lambda h: (h.order, h.elements))
    return out


def is_exceptional(g: FiniteGroup) -> bool:
    """True when mu({1}, top) vanishes in the cyclic-subgroup poset; kept on the group.

    The interval [1, C] of that poset is the divisor lattice of |C|, so
    mu({1}, top) = -sum over the cyclic subgroups C of the classical mu(|C|),
    and no Moebius table is built.
    """
    if "is_exceptional" not in g._cache:
        total = sum(classical_mobius(h.order) for h in cyclic_subgroups(g))
        g._cache["is_exceptional"] = total == 0
    return g._cache["is_exceptional"]


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
    """Cosets Hg (H multiplied on the left), indexed by least element.

    Each coset is read from the Cayley table's rows of H at the least element
    not yet covered, which is then the coset's least element, so the cosets
    come out in order of it.
    """
    g = h.parent
    rows = [g.cayley[a] for a in h.elements]
    seen = [False] * g.order
    cosets = []
    for x in range(g.order):
        if seen[x]:
            continue
        coset = sorted([row[x] for row in rows])
        for y in coset:
            seen[y] = True
        cosets.append(tuple(coset))
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
        raise GroupConstructionError("cyclic group needs n >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, [str(i) for i in range(n)], name=f"C{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """g1 x g2, the element (a1, a2) at index a1 * |g2| + a2."""
    n1, n2 = g1.order, g2.order
    t1, t2 = g1.cayley, g2.cayley
    table = [[x * n2 + y for x in t1[a1] for y in t2[a2]] for a1 in range(n1) for a2 in range(n2)]
    labels = [
        f"({g1.label(a1)},{g2.label(a2)})" for a1 in range(n1) for a2 in range(n2)
    ]
    return FiniteGroup(table, labels, name=f"{g1.name}x{g2.name}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i then reflections r^i s."""
    if n < 1:
        raise GroupConstructionError("dihedral group needs n >= 1")

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
        raise GroupConstructionError("dicyclic group needs n >= 1")
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
        raise GroupConstructionError("symmetric group needs n >= 1")
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
        raise GroupConstructionError("alternating group needs n >= 1")
    perms = [p for p in iter_permutations(range(n)) if _perm_sign(p) == 1]
    return _group_from_perms(perms, name=f"A{n}")


def from_permutations(generators, name: str = "perm") -> FiniteGroup:
    """Group generated by permutations (tuples in one-line notation)."""
    gens = [tuple(p) for p in generators]
    if not gens:
        raise GroupConstructionError("need at least one generator")
    size = len(gens[0])
    if any(len(p) != size or sorted(p) != list(range(size)) for p in gens):
        raise GroupConstructionError("generators must be permutations of the same domain")
    identity = tuple(range(size))
    elems = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = _perm_mul(x, s)
            if y not in elems:
                if len(elems) >= CLOSURE_BOUND:
                    raise ClosureTooLargeError(f"closure exceeds bound {CLOSURE_BOUND}")
                elems.add(y)
                frontier.append(y)
    return _group_from_perms(list(elems), name=name)


# -- GroupSpec grammar ---------------------------------------------------------


def _above(num: str, bound: int) -> bool:
    """Whether a string of ASCII digits names a number above `bound`.

    A string with more significant digits than `bound` is never converted.
    """
    digits = num.lstrip("0")
    return len(digits) > len(str(bound)) or int(num) > bound


def _parse_cycles(text: str, spec: str) -> tuple[int, ...]:
    """Parse one generator like "(0 1 2)(3 4)" into one-line notation.

    Points run from 0 to CLOSURE_BOUND - 1: every element of the closure is
    a tuple as long as the domain, so a larger point is refused unbuilt.
    """
    cycles = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            j = text.find(")", i)
            body = text[i + 1 : j].replace(",", " ").split()
            if j < 0 or not all(x.isascii() and x.isdigit() for x in body):
                raise GroupSpecError(f"bad cycle notation in permutation {text.strip()!r}")
            if any(_above(x, CLOSURE_BOUND - 1) for x in body):
                raise GroupSpecError(
                    f"permutation {text.strip()!r} in group spec {spec!r} names a point"
                    f" above {CLOSURE_BOUND - 1}, the largest point of a perm: domain"
                )
            cycle = [int(x) for x in body]
            if len(set(cycle)) != len(cycle):
                raise GroupSpecError(f"cycle repeats a point in permutation {text.strip()!r}")
            cycles.append(cycle)
            i = j + 1
        elif ch.isspace():
            i += 1
        else:
            raise GroupSpecError(f"bad cycle notation near {text[i:]!r}")
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
    or table:<path> pointing at a JSON Cayley table.  A spec that does not
    parse raises `GroupSpecError` naming the bad piece.  A product spec whose
    order exceeds `max_group_order()` raises `OrderTooLargeError` before any
    factor is built, and so does an atom whose size has more digits than
    that bound.  `perm:` points run below `CLOSURE_BOUND`, which also bounds
    the closure.
    """
    if not isinstance(spec, str):
        raise GroupSpecError(f"group spec must be a string, got {spec!r}")
    spec = spec.strip()
    if spec.startswith("perm:"):
        body = spec[len("perm:") :]
        gens = [_parse_cycles(part, spec) for part in body.split(";") if part.strip()]
        if not gens:
            raise GroupSpecError(f"group spec {spec!r} names no permutation")
        size = max(len(p) for p in gens)
        gens = [p + tuple(range(len(p), size)) for p in gens]
        return from_permutations(gens, name=spec)
    if spec.startswith("table:"):
        path = spec[len("table:") :]
        return _table_from_json(load_json(path, "Cayley table file"), path)
    atoms = [_parse_atom(tok, spec) for tok in spec.split("x")]
    bound = max_group_order()
    order = 1
    for kind, n in atoms:
        order *= _atom_order(kind, n, bound)
        if order > bound:
            raise OrderTooLargeError(
                f"group spec {spec!r} has order above {bound}, "
                "the bound set by GALOIS_SPAN_MAX_ORDER"
            )
    factors = [_ATOM_MAKERS[kind](n) for kind, n in atoms]
    group = factors[0]
    for extra in factors[1:]:
        group = direct_product(group, extra)
    group.name = canonical_spec_name(spec) or spec
    return group


def _table_from_json(data, path: str) -> FiniteGroup:
    """A Cayley-table file: rows of element indices, bare or as {"table": rows, "labels": [...]}."""
    labels = None
    if type(data) is dict:
        labels = data.get("labels")
        data = json_object(data, f"Cayley table file {path}", "table")["table"]
        if labels is not None:
            labels = json_list(labels, "Cayley table labels")
            if not all(isinstance(label, str) for label in labels):
                raise GroupSpecError(f"Cayley table labels must be strings, got {labels!r}")
    rows = [json_list(row, "Cayley table row") for row in json_list(data, f"Cayley table {path}")]
    table = [[json_int(x, "Cayley table entry") for x in row] for row in rows]
    return FiniteGroup(table, labels, name=path)


_ATOM_MAKERS = {
    "Dic": dicyclic_group,
    "C": cyclic_group,
    "D": dihedral_group,
    "S": symmetric_group,
    "A": alternating_group,
    "Q": lambda n: dicyclic_group(n // 4),
}


def _parse_atom(token: str, spec: str) -> tuple[str, int]:
    """One factor of a product spec: its family letter (or Dic) and positive size."""
    token = token.strip()
    kind = "Dic" if token.startswith("Dic") else token[:1]
    num = token[len(kind) :]
    if kind not in _ATOM_MAKERS or not (num.isascii() and num.isdigit()) or not num.strip("0"):
        where = "empty factor" if not token else f"group atom {token!r}"
        raise GroupSpecError(f"cannot parse {where} in group spec {spec!r}")
    bound = max_group_order()
    if len(num.lstrip("0")) > len(str(bound)):
        raise OrderTooLargeError(
            f"group atom {token!r} in group spec {spec!r} has order above {bound},"
            " the bound set by GALOIS_SPAN_MAX_ORDER"
        )
    n = int(num)
    if kind == "Q" and (n % 4 != 0 or n < 8):
        raise GroupSpecError(f"Q{n} is not a dicyclic order (use multiples of 4, >= 8)")
    return kind, n


def _atom_order(kind: str, n: int, cap: int) -> int:
    """The order of a parsed atom, or a number above `cap` once the order passes it.

    S and A stop their factorial at that point, so no huge product is formed.
    """
    if kind in ("C", "Q"):
        return n
    if kind == "D":
        return 2 * n
    if kind == "Dic":
        return 4 * n
    out = 1
    for k in range(3 if kind == "A" else 2, n + 1):  # n!/2 for A, n! for S
        out *= k
        if out > cap:
            break
    return out


def canonical_spec_name(spec: str) -> str | None:
    """Normalized name for fixture lookups; None for perm:/table: descriptors."""
    spec = spec.strip().replace(" ", "")
    if spec.startswith("perm:") or spec.startswith("table:"):
        return None
    try:
        atoms = [_parse_atom(tok, spec) for tok in spec.split("x")]
    except (GroupSpecError, OrderTooLargeError):
        return None
    # orders above the group-order bound compare as capped: such specs are refused
    bound = max_group_order()
    keyed = []
    for kind, n in atoms:
        if kind == "Dic" and n in (2, 4):
            kind, n = "Q", 4 * n
        keyed.append((_atom_order(kind, n, bound), f"{kind}{n}"))
    return "x".join(name for _, name in sorted(keyed))
