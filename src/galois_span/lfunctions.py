"""Twisted zeta numerators h(u, rho) = det(I - A_rho u + (D_rho - I) u^2).

A_rho is the voltage-twisted adjacency: its (v, w) block sums rho(alpha(e))
over all directed base edges from v to w, and D_rho is the base degree
matrix tensored with the identity.  Two structural checks pin the
construction down: the trivial representation recovers (A_X, D_X) exactly,
and the right regular representation reproduces the derived graph's
matrices entry for entry.

All determinants are exact and go through integer determinants.  Each
entry of Z[zeta_e] is lifted to the integer polynomial in x of its reduced
coordinates; h(u, rho) is `graphs.zeta_numerator`, the same builder and
evaluation-interpolation determinant as a graph's own h(u), at consecutive
integers x, interpolated in x and evaluated at zeta_e.  A matrix with
rational entries takes one sample, which is exactly a graph's h(u).  The
result is an `IntPoly` in u whose coefficients are cyclotomic integers, the
same polynomial class as a graph's h(u).  A representation is checked to be
a homomorphism with `linalg.mat_mul`, the one matrix product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest

from .characters import character_table, induced_trivial_character, inner_product
from .covers import Cover, intermediate_kappa, is_galois
from .cyclotomic import CyclotomicInt
from .errors import (
    EulerZeroError,
    GaloisSpanError,
    InvariantError,
    MismatchedGroupError,
    NotAbelianError,
    NotBouquetError,
    NotGaloisError,
    json_int,
    json_list,
    json_object,
)
from .graphs import zeta_numerator
from .groups import FiniteGroup, Subgroup, parse_group_spec
from .linalg import det_int_poly_matrix, mat_mul, sample_points
from .polynomials import IntPoly, interpolate_int_poly
from .report import VerificationReport


@dataclass(frozen=True)
class MatrixRep:
    """Matrix representation: one d x d cyclotomic matrix per group element."""

    group: FiniteGroup
    degree: int
    e: int
    matrices: tuple  # tuple of d x d tuples of CyclotomicInt

    def __post_init__(self):
        g, d = self.group, self.degree
        if len(self.matrices) != g.order:
            raise ValueError("need one matrix per group element")
        for m in self.matrices:
            if len(m) != d or any(len(row) != d for row in m):
                raise ValueError("matrix degree mismatch")
        ident = self.matrices[g.identity]
        one = CyclotomicInt.one(self.e)
        zero = CyclotomicInt.zero(self.e)
        for i in range(d):
            for j in range(d):
                if ident[i][j] != (one if i == j else zero):
                    raise ValueError("representation does not send identity to identity")
        # homomorphism check, exact: the s with rho(a)rho(s) = rho(a s) for
        # every a are closed under products, so a generating set suffices
        for b in g.generators():
            for a in range(g.order):
                product = mat_mul(self.matrices[a], self.matrices[b])
                if product != [list(row) for row in self.matrices[g.mul(a, b)]]:
                    raise ValueError(f"rho({a})rho({b}) != rho({a}*{b})")


def trivial_rep(g: FiniteGroup, e: int | None = None) -> MatrixRep:
    e = e if e is not None else g.exponent()
    one = ((CyclotomicInt.one(e),),)
    return MatrixRep(group=g, degree=1, e=e, matrices=tuple(one for _ in range(g.order)))


def regular_rep(g: FiniteGroup) -> MatrixRep:
    """Right regular representation as permutation matrices: rho(x)[s][t] = [t = s*x]."""
    e = g.exponent()
    one, zero = CyclotomicInt.one(e), CyclotomicInt.zero(e)
    mats = []
    for x in range(g.order):
        mats.append(
            tuple(
                tuple(one if g.mul(s, x) == t else zero for t in range(g.order))
                for s in range(g.order)
            )
        )
    return MatrixRep(group=g, degree=g.order, e=e, matrices=tuple(mats))


def rep_from_abelian_character(g: FiniteGroup, exponents, e: int | None = None) -> MatrixRep:
    """Degree-1 representation from an exponent map x -> k with chi(x) = zeta_e^k."""
    e = e if e is not None else g.exponent()
    mats = tuple(((CyclotomicInt.root(e, k),),) for k in exponents)
    return MatrixRep(group=g, degree=1, e=e, matrices=mats)


def abelian_reps(g: FiniteGroup) -> list[MatrixRep]:
    from .characters import one_dim_characters

    e = g.exponent()
    return [rep_from_abelian_character(g, exps, e) for exps in one_dim_characters(g)]


def rep_from_json_dict(data: dict) -> MatrixRep:
    """Matrix-rep file: element names (`FiniteGroup.element`) map to matrices
    whose entries are length-e integer vectors (coefficients of zeta^k)."""
    data = json_object(data, "rep file", "group", "degree", "e", "matrices")
    g = parse_group_spec(data["group"])
    d = json_int(data["degree"], "rep degree")
    e = json_int(data["e"], "rep e")
    if e < 1:
        raise GaloisSpanError(f"rep e must be positive, got {e}")
    mats: list = [None] * g.order
    for name, rows in json_object(data["matrices"], "rep matrices").items():
        mats[g.element(name, "rep element")] = tuple(
            tuple(
                CyclotomicInt.from_mult_vector(
                    e, [json_int(c, "rep entry") for c in json_list(entry, "rep entry")]
                )
                for entry in json_list(row, "rep matrix row")
            )
            for row in json_list(rows, "rep matrix")
        )
    if any(m is None for m in mats):
        raise ValueError("matrix file misses some group elements")
    return MatrixRep(group=g, degree=d, e=e, matrices=tuple(mats))


def load_rep(path: str) -> MatrixRep:
    with open(path, "r", encoding="utf-8") as fh:
        return rep_from_json_dict(json.load(fh))


# -- twisted matrices and h ------------------------------------------------------


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    # reps may arrive from files with their own group instance; accept a
    # structurally identical table (same element order, same labels)
    return a is b or (a.cayley == b.cayley and a.labels == b.labels)


def twisted_matrices(c: Cover, rho: MatrixRep):
    """(A_rho, D_rho diagonal) for the cover's base and voltages."""
    if not _same_group(rho.group, c.group):
        raise MismatchedGroupError("representation over a different group")
    base = c.base
    d = rho.degree
    n = base.vertex_count
    zero = CyclotomicInt.zero(rho.e)
    a = [[zero for _ in range(n * d)] for _ in range(n * d)]
    for edge in range(base.edge_count):
        v, w = base.origin[edge], base.terminus[edge]
        m = rho.matrices[c.voltage.voltage_of(edge)]
        for i in range(d):
            row = a[v * d + i]
            mi = m[i]
            for j in range(d):
                row[w * d + j] = row[w * d + j] + mi[j]
    degrees = base.degrees()
    d_rho = [degrees[v] for v in range(n) for _ in range(d)]
    return a, d_rho


def _lift(matrix) -> list[list[IntPoly]]:
    """Each entry of Z[zeta_e] as the polynomial in x of its reduced coordinates."""
    return [[IntPoly(entry.coeffs) for entry in row] for row in matrix]


def _at_root(e: int, poly: IntPoly) -> CyclotomicInt:
    """poly(zeta_e), reduced mod Phi_e; any length is fine because zeta^e = 1."""
    return CyclotomicInt.from_mult_vector(e, poly.coeffs)


def h_poly(c: Cover, rho: MatrixRep) -> IntPoly:
    """Exact determinant det(I - A_rho u + (D_rho - I) u^2).

    A_rho is lifted to a matrix A(x) over Z[x] with A(zeta_e) = A_rho.  The
    map x -> zeta_e is a ring homomorphism and commutes with det, so h is
    `zeta_numerator(A(x), D)` at the `sample_points` of A(x), every
    u-coefficient interpolated in x and then evaluated at zeta_e.  A
    rational A_rho has degree 0 in x and takes the single sample x = 0.
    The coefficients are `CyclotomicInt`s of conductor rho.e.
    """
    a, d_diag = twisted_matrices(c, rho)
    lifted = _lift(a)
    xs = sample_points(lifted)
    samples = [zeta_numerator([[p(x) for p in row] for row in lifted], d_diag).coeffs for x in xs]
    by_power = zip_longest(*samples, fillvalue=0)
    return IntPoly([_at_root(rho.e, interpolate_int_poly(xs.start, v)) for v in by_power])


def h_at_one(c: Cover, rho: MatrixRep) -> CyclotomicInt:
    """h(1, rho) = det(D_rho - A_rho), through the same lift to Z[x]."""
    a, d_diag = twisted_matrices(c, rho)
    rows = enumerate(_lift(a))
    d_minus_a = [[(d_diag[i] if i == j else 0) - p for j, p in enumerate(row)] for i, row in rows]
    return _at_root(rho.e, det_int_poly_matrix(d_minus_a))


def bouquet_h_formula(c: Cover, rho: MatrixRep) -> CyclotomicInt:
    """Closed form sum_s (2 - rho(alpha(s)) - rho(alpha(s))^-1) for bouquet bases."""
    if c.base.vertex_count != 1:
        raise NotBouquetError("closed form needs a single-vertex base")
    if rho.degree != 1:
        raise NotBouquetError("closed form needs a degree-one representation")
    g = c.group
    total = CyclotomicInt.zero(rho.e)
    for x in c.voltage.volt:
        total = (
            total
            + 2
            - rho.matrices[x][0][0]
            - rho.matrices[g.inv(x)][0][0]
        )
    return total


# -- verification operations -------------------------------------------------------


def _abelian_rep_list(g: FiniteGroup) -> list[MatrixRep]:
    if not g.is_abelian():
        raise NotAbelianError(f"{g.name} is not abelian")
    return abelian_reps(g)


def verify_factorization(c: Cover) -> VerificationReport:
    """prod_chi h(u, chi) = h_Y(u) as exact integer polynomials (abelian G)."""
    product = IntPoly.const(1)
    for rho in _abelian_rep_list(c.group):
        product = product * h_poly(c, rho)
    lhs = IntPoly([x.as_int() for x in product.coeffs])
    rhs = c.derived.ihara_h_poly()
    pairs = list(zip_longest(lhs.coeffs, rhs.coeffs, fillvalue=0))
    return VerificationReport.compare(
        "prod_chi h(u,chi) = h_Y(u)",
        c.describe(),
        len(pairs),
        sum(a == b for a, b in pairs),
        details={
            "product_coeffs": [str(x) for x in lhs.coeffs],
            "derived_coeffs": [str(x) for x in rhs.coeffs],
        },
    )


def verify_prop_formula(c: Cover) -> VerificationReport:
    """|G| kappa(Y) = kappa(X) prod_{chi != 1} h(1, chi) for abelian covers."""
    if c.base.euler_characteristic() == 0:
        raise EulerZeroError("the product formula needs chi(X) != 0")
    if not is_galois(c.voltage):
        raise NotGaloisError("the product formula needs a Galois cover")
    reps = _abelian_rep_list(c.group)
    e = reps[0].e
    product = CyclotomicInt.one(e)
    for rho in reps:
        if all(m[0][0] == CyclotomicInt.one(e) for m in rho.matrices):
            continue  # trivial character
        product = product * h_at_one(c, rho)
    if not product.is_rational_integer():
        raise InvariantError("character product did not reduce to a rational integer")
    left = c.group.order * c.derived.spanning_tree_count()
    right = c.base.spanning_tree_count() * product.as_int()
    return VerificationReport.compare(
        "|G| kappa(Y) = kappa(X) prod h(1,chi)",
        c.describe(),
        left,
        right,
    )


def verify_inter_rel(c: Cover, h: Subgroup) -> VerificationReport:
    """[G:H] kappa(X_H) = kappa(X) prod h(1,chi)^{a_{chi,H}} for abelian covers."""
    if c.base.euler_characteristic() == 0:
        raise EulerZeroError("the subgroup formula needs chi(X) != 0")
    if not is_galois(c.voltage):
        raise NotGaloisError("the subgroup formula needs a Galois cover")
    g = c.group
    reps = _abelian_rep_list(g)
    table = character_table(g)
    induced = induced_trivial_character(table, h)
    e = reps[0].e
    product = CyclotomicInt.one(e)
    # abelian_reps follows the table's character order (trivial first)
    for rho, chi in zip(reps, table.characters):
        if chi.is_trivial():
            continue
        a = inner_product(induced, chi)
        if a.denominator != 1 or a < 0:
            raise InvariantError("induction multiplicity must be a nonnegative integer")
        for _ in range(int(a)):
            product = product * h_at_one(c, rho)
    left = h.index() * intermediate_kappa(c, h)
    right = c.base.spanning_tree_count() * product.as_int()
    return VerificationReport.compare(
        "[G:H] kappa(X_H) = kappa(X) prod h(1,chi)^a",
        f"{c.describe()}, H={h.describe()}",
        left,
        right,
    )
