"""Artin-Ihara L-functions of a cover: h(u, chi) of its irreducible characters.

h(u, chi) = det(I - A_rho u + (D_rho - I) u^2) for a representation rho
with character chi.  A_rho is the voltage-twisted adjacency: its (v, w)
block sums rho(alpha(e)) over the directed base edges from v to w.  D_rho
is the base degree matrix tensored with the identity.  Ihara-Bass gives
det(I - u W_rho) = (1 - u^2)^((m - n) chi(1)) h(u, chi) for the twisted
non-backtracking edge matrix W_rho.  The determinant depends only on chi
and is multiplicative in rho (Stark & Terras II), so the irreducible
characters answer for every representation.

Every irreducible character chi of `character_table(G)`, for any finite G,
takes one route (`character_h_polys`): tr(W_chi^k) = sum_g chi(g) N_k(g),
where N_k(g) counts the closed non-backtracking walks of length k in the
base with net voltage g (`walk_table`), and Newton's identities turn the
traces into the coefficients with exact divisions, over Z or Z[zeta_e]
(`h_from_traces`).  The table walks from every start edge at once: one
int per (directed edge, group element) packs one bit field per start,
length bitlen(d_max - 1) + 2 bits wide, so a step is one permutation of
ints, one addition and one subtraction, and no carry or borrow crosses a
field.  The same table gives h_Y(u) of the derived graph with
no determinant of Y, from tr(W_Y^k) = |G| N_k(1) (`derived_h_poly`).

A linear character also takes the twisted determinant (`h_poly`) of its
n x n twisted adjacency: each entry of Z[zeta_e] is lifted to the integer
polynomial in x of its coordinates, and `graphs.zeta_numerator` (the
builder and determinant of a graph's own h(u)) is taken at consecutive
integers x, interpolated in x and evaluated at zeta_e.

Each verifier keeps its two sides independent.  `verify_prop_formula` and
`verify_inter_rel` hold for every finite G: Matrix-Tree kappa against
kappa(X) prod_(chi != 1) h(1, chi)^<Ind_H^G 1, chi> from the character
route, every h(1, chi) taken from one walk table and kept on the cover.
`verify_factorization` is abelian only: the twisted determinants
of the linear characters against `derived_h_poly`.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd
from operator import add, sub

from .characters import CharacterTable, character_table, induced_trivial_values, inner_product
from .covers import Cover, intermediate_kappa, is_galois
from .cyclotomic import CyclotomicInt
from .errors import (
    EulerZeroError,
    InvariantError,
    MismatchedGroupError,
    NotAbelianError,
    NotGaloisError,
)
from .graphs import zeta_numerator
from .groups import Subgroup
from .linalg import sample_points
from .polynomials import IntPoly, interpolate_int_poly
from .report import VerificationReport, decimal_text


# -- the twisted determinant of a linear character ----------------------------------


def h_poly(c: Cover, values, e: int) -> IntPoly:
    """Exact determinant det(I - A_chi u + (D - I) u^2) of a linear character chi.

    `values[x]` is chi(x) in Z[zeta_e] for each group element x.  A_chi
    is the n x n twisted adjacency: entry (v, w) sums chi(alpha(d)) over
    the directed base edges d from v to w.  It is lifted to a matrix A(x) over
    Z[x] with A(zeta_e) = A_chi.  The map x -> zeta_e is a ring
    homomorphism and commutes with det, so h is `zeta_numerator(A(x), D)`
    at the `sample_points` of A(x), every u-coefficient interpolated in x
    and then evaluated at zeta_e.  A rational A_chi has degree 0 in x and
    takes the single sample x = 0.  The coefficients are `CyclotomicInt`s
    of conductor e.
    """
    base = c.base
    zero = CyclotomicInt.zero(e)
    a = [[zero] * base.vertex_count for _ in range(base.vertex_count)]
    for edge in range(base.edge_count):
        row = a[base.origin[edge]]
        row[base.terminus[edge]] = row[base.terminus[edge]] + values[c.voltage.voltage_of(edge)]
    lifted = [[IntPoly(entry.coeffs) for entry in row] for row in a]
    xs = sample_points(lifted)
    degrees = base.degrees()
    samples = [zeta_numerator([[p(x) for p in row] for row in lifted], degrees).coeffs for x in xs]
    # each u-coefficient as a polynomial in x, at zeta_e (any length: zeta^e = 1)
    at_root = (interpolate_int_poly(xs.start, v).coeffs for v in zip_longest(*samples, fillvalue=0))
    return IntPoly([CyclotomicInt.from_mult_vector(e, v) for v in at_root])


# -- h_Y(u) from closed non-backtracking walks in the base ---------------------------


def _field_width(length: int, d_max: int) -> int:
    """Bits per start in `walk_table`'s packed ints: every count fits, no carry."""
    return length * (d_max - 1).bit_length() + 2


def walk_table(c: Cover, length: int) -> list[list[int]]:
    """N_k(g) for 1 <= k <= length, as row k - 1: closed walks in the base.

    N_k(g) counts the closed non-backtracking walks e_0 e_1 ... e_(k-1) of
    directed base edges (each edge leaves where the one before ends and is
    not its inverse, and e_0 follows e_(k-1) the same way), one for each
    start edge e_0, whose net voltage alpha(e_0) ... alpha(e_(k-1)) is g.

    Walks are kept as one int per directed edge e and group element x,
    counting the walks that end with e and have net voltage x before e;
    bit field s, W = length bitlen(d_max - 1) + 2 bits wide, holds the
    walks from the s-th start edge of `base.orientation()`.  A step moves
    e's ints to index x alpha(e), the same permutation for every start,
    and gives each edge f the sum of the ints arriving at o(f) less the one
    from inverse(f).  No carry or borrow crosses a field: the subtracted
    int is a summand of the sum, and a field counts distinct walks from
    one start, at most (d_max - 1)^(k - 1) <= 2^(W - 2) at step k.  Each
    start then reads its own field of its own edge's ints.

    Reversing a walk and starting it at inverse(e_0) gives
    N_k(inverse(e_0), h) = N_k(e_0, alpha h^-1 alpha^-1) with alpha =
    alpha(e_0), so only one edge of each inverse pair is a start.
    """
    base, g, alpha = c.base, c.group, c.voltage
    table, inv = g.cayley, g.inverses
    elements, edges = range(g.order), range(base.edge_count)
    # the moved ints of edge e are new[y] = old[y alpha(e)^-1]
    moves = [[table[y][inv[alpha.voltage_of(e)]] for y in elements] for e in edges]
    starts = base.orientation()
    mirrors = []
    for start in starts:
        a = alpha.voltage_of(start)
        mirrors.append([table[table[a][inv[h]]][inv[a]] for h in elements])
    width = _field_width(length, max(base.degrees(), default=0))
    mask = (1 << width) - 1
    ints = [[0] * g.order for _ in edges]
    for s, start in enumerate(starts):
        ints[start][g.identity] = 1 << s * width
    zero = [0] * g.order
    counts = []
    for _ in range(length):
        moved = [[lst[i] for i in move] for lst, move in zip(ints, moves)]
        arriving = [zero] * base.vertex_count
        for e, m in enumerate(moved):
            v = base.terminus[e]
            arriving[v] = list(map(add, arriving[v], m))
        ints = [list(map(sub, arriving[base.origin[f]], moved[base.inverse[f]])) for f in edges]
        row = zero
        for s, (start, mirror) in enumerate(zip(starts, mirrors)):
            shift = s * width
            back = [x >> shift & mask for x in ints[start]]
            row = [n + x + back[i] for n, x, i in zip(row, back, mirror)]
        counts.append(row)
    return counts


def h_from_traces(traces: list, excess: int, one=1) -> IntPoly:
    """h(u) of a graph with m - n = excess from tr(W^k), k = 1, 2, ..., by Newton.

    Ihara-Bass: det(I - uW) = (1 - u^2)^excess h(u).  The power sums of
    (1 - u^2)^excess are 2 excess at even k and 0 at odd k, so h's are
    q_k = tr(W^k) - that, and k c_k = -sum_(i <= k) q_i c_(k-i).  Traces
    in Z[zeta_e] come with `one` of that ring.  Every division by k must be
    exact, or `InvariantError`.
    """
    q = [t - (0 if k % 2 else 2 * excess) for k, t in enumerate(traces, 1)]
    coeffs = [one]
    for k in range(1, len(q) + 1):
        total = -sum(q[i] * coeffs[k - 1 - i] for i in range(k))
        if isinstance(total, CyclotomicInt):
            coeffs.append(total.divide_exact(k))
            continue
        c_k, rest = divmod(total, k)
        if rest:
            raise InvariantError(f"Newton's identity does not divide exactly at k = {k}")
        coeffs.append(c_k)
    return IntPoly(coeffs)


def character_h_polys(c: Cover, table: CharacterTable, chars) -> list[IntPoly]:
    """h(u, chi) for each irreducible chi in `chars`, from one `walk_table`.

    tr(W_chi^k) = sum over the classes K of chi(K) sum_(g in K) N_k(g), and
    the excess is (m - n) chi(1).  h(u, chi) has degree 2 n chi(1), so that
    many traces fix it.  Its coefficients are `CyclotomicInt`s of conductor
    table.e: chi is realised over Q(zeta_e), whose integers are Z[zeta_e].
    """
    if table.group is not c.group:
        raise MismatchedGroupError("character table of a different group")
    base = c.base
    n, excess = base.vertex_count, base.geometric_edge_count - base.vertex_count
    rows = walk_table(c, 2 * n * max((chi.degree for chi in chars), default=0))
    class_sums = [[sum(row[x] for x in cls) for cls in table.classes] for row in rows]
    polys = []
    for chi in chars:
        # each trace as an integer multiplicity vector over zeta_e^0 .. zeta_e^(e-1)
        support = [[(j, m) for j, m in enumerate(v) if m] for v in chi.values]
        traces = []
        for sums in class_sums[: 2 * n * chi.degree]:
            mult = [0] * table.e
            for pairs, s in zip(support, sums):
                for j, m in pairs:
                    mult[j] += m * s
            traces.append(CyclotomicInt.from_mult_vector(table.e, mult))
        polys.append(h_from_traces(traces, excess * chi.degree, CyclotomicInt.one(table.e)))
    return polys


def derived_h_poly(c: Cover) -> IntPoly:
    """h_Y(u) of the derived graph from `walk_table`, with no determinant of Y.

    G acts freely on the left of Y, so a closed walk in the base from e_0
    with net voltage 1 lifts to one closed walk of Y from each (e_0, sigma):
    tr(W_Y^k) = |G| N_k(1), for any voltages, Galois or not.  `InvariantError`
    unless the coefficient of u^(2 n_Y) is prod_v (d_v - 1)^|G| and, on a
    graph with a vertex, h_Y(1) = det(D - A) = 0.
    """
    base, g = c.base, c.group
    n_y = base.vertex_count * g.order
    excess = (base.geometric_edge_count - base.vertex_count) * g.order
    traces = [g.order * row[g.identity] for row in walk_table(c, 2 * n_y)]
    h = h_from_traces(traces, excess)
    top = h.coeffs[2 * n_y] if h.degree == 2 * n_y else 0
    leading = 1
    for d in base.degrees():
        leading *= (d - 1) ** g.order
    if top != leading:
        raise InvariantError(
            f"h_Y has u^{2 * n_y} coefficient {decimal_text(top)}, not {decimal_text(leading)}"
        )
    if n_y and h(1) != 0:
        raise InvariantError(f"h_Y(1) is {decimal_text(h(1))}, not 0")
    return h


# -- verification operations -------------------------------------------------------


def verify_factorization(c: Cover) -> VerificationReport:
    """prod_chi h(u, chi) = h_Y(u) as exact integer polynomials (abelian G).

    The left side takes h(u, chi) from the twisted determinant (`h_poly`)
    of the linear character chi, its values read off the character table,
    once per Galois orbit of characters: A_chi^a is A_chi under zeta -> zeta^a,
    which commutes with det, so h(u, chi^a) is h(u, chi) under
    `CyclotomicInt.galois(a)` coefficientwise.  The product over an orbit
    is fixed by every such map, so it is a rational polynomial: `as_int`
    checks each coefficient (`InvariantError` otherwise), and the orbit
    products are multiplied in integers.  The right side comes from closed
    walks in the base (`derived_h_poly`), so the two sides are independent
    computations.
    """
    g = c.group
    if not g.is_abelian():
        raise NotAbelianError(f"{g.name} is not abelian")
    table = character_table(g)
    units = [a for a in range(2, table.e) if gcd(a, table.e) == 1]
    lhs = IntPoly.const(1)
    seen: set[tuple[CyclotomicInt, ...]] = set()
    for chi in table.characters:
        values = tuple(chi.value_cyclo(i) for i in range(table.class_count))
        if values in seen:
            continue
        h = orbit = h_poly(c, [values[i] for i in table.class_of], table.e)
        seen.add(values)
        for a in units:
            image = tuple(x.galois(a) for x in values)
            if image not in seen:  # orbits are disjoint: a seen image is in this orbit
                seen.add(image)
                orbit = orbit * IntPoly([x.galois(a) for x in h.coeffs])
        lhs = lhs * IntPoly([x.as_int() for x in orbit.coeffs])
    rhs = derived_h_poly(c)
    pairs = list(zip_longest(lhs.coeffs, rhs.coeffs, fillvalue=0))
    return VerificationReport.compare(
        "prod_chi h(u,chi) = h_Y(u)",
        c.describe(),
        len(pairs),
        sum(a == b for a, b in pairs),
        details={
            "product_coeffs": [decimal_text(x) for x in lhs.coeffs],
            "derived_coeffs": [decimal_text(x) for x in rhs.coeffs],
        },
    )


def _h_at_one(c: Cover, table: CharacterTable) -> dict[int, CyclotomicInt]:
    """h(1, chi) for every nontrivial chi, by its index in the table.

    All of them come from one `character_h_polys` call, so from one walk
    table, on the first request; the cover keeps them.
    """
    if not c._h_at_one:
        nontrivial = [(i, chi) for i, chi in enumerate(table.characters) if not chi.is_trivial()]
        polys = character_h_polys(c, table, [chi for _, chi in nontrivial])
        c._h_at_one.update((i, poly(1)) for (i, _), poly in zip(nontrivial, polys))
    return c._h_at_one


def _formula_sides(c: Cover, h: Subgroup, formula: str) -> tuple[int, int]:
    """[G:H] kappa(X_H) by Matrix-Tree, and kappa(X) prod_(chi != 1) h(1, chi)^a_chi
    with a_chi = <Ind_H^G 1, chi> and h(1, chi) kept on the cover (`_h_at_one`)."""
    if c.base.euler_characteristic() == 0:
        raise EulerZeroError(f"the {formula} formula needs chi(X) != 0")
    if not is_galois(c.voltage):
        raise NotGaloisError(f"the {formula} formula needs a Galois cover")
    table = character_table(c.group)
    induced = induced_trivial_values(h)
    product = CyclotomicInt.one(table.e)
    for i, value in _h_at_one(c, table).items():
        a = inner_product(induced, table.characters[i])
        if a < 0:
            raise InvariantError("induction multiplicity must be a nonnegative integer")
        for _ in range(a):
            product = product * value
    if not product.is_rational_integer():
        raise InvariantError("character product did not reduce to a rational integer")
    return h.index() * intermediate_kappa(c, h), c.base.spanning_tree_count() * product.as_int()


def verify_prop_formula(c: Cover) -> VerificationReport:
    """|G| kappa(Y) = kappa(X) prod_{chi != 1} h(1, chi)^chi(1): the case H = 1."""
    sides = _formula_sides(c, Subgroup(c.group, (c.group.identity,)), "product")
    return VerificationReport.compare("|G| kappa(Y) = kappa(X) prod h(1,chi)", c.describe(), *sides)


def verify_inter_rel(c: Cover, h: Subgroup) -> VerificationReport:
    """[G:H] kappa(X_H) = kappa(X) prod_{chi != 1} h(1, chi)^<Ind_H^G 1, chi>."""
    sides = _formula_sides(c, h, "subgroup")
    claim = "[G:H] kappa(X_H) = kappa(X) prod h(1,chi)^a"
    return VerificationReport.compare(claim, f"{c.describe()}, H={h.describe()}", *sides)
