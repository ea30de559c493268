"""Twisted zeta numerators h(u, rho) = det(I - A_rho u + (D_rho - I) u^2).

A_rho is the voltage-twisted adjacency: its (v, w) block sums rho(alpha(e))
over all directed base edges from v to w, and D_rho is the base degree
matrix tensored with the identity.  Two structural checks pin the
construction down: the trivial representation recovers (A_X, D_X) exactly,
and the right regular representation reproduces the derived graph's
matrices entry for entry.

All determinants are exact.  Matrices whose entries are rational integers
take the integer fast path (evaluation-interpolation determinant); genuine
cyclotomic matrices use a division-free expansion, which the small vertex
counts of the bases keep cheap.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .characters import character_table, induced_trivial_character, inner_product
from .covers import Cover, intermediate_kappa
from .cyclotomic import CyclotomicInt, CycloPoly
from .errors import (
    EulerZeroError,
    InvariantError,
    MismatchedGroupError,
    NotAbelianError,
    NotBouquetError,
    NotGaloisError,
)
from .groups import FiniteGroup, Subgroup, parse_group_spec
from .linalg import det_int_poly_matrix, det_ring
from .polynomials import IntPoly
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
        # homomorphism check: exhaustive for small groups, sampled above
        if g.order <= 64:
            pairs = ((a, b) for a in range(g.order) for b in range(g.order))
        else:
            import random

            rng = random.Random(0)
            pairs = (
                (rng.randrange(g.order), rng.randrange(g.order)) for _ in range(2000)
            )
        for a, b in pairs:
            if _mat_mul_cyclo(self.matrices[a], self.matrices[b]) != self.matrices[
                g.mul(a, b)
            ]:
                raise ValueError(f"rho({a})rho({b}) != rho({a}*{b})")

    def matrix(self, element: int):
        return self.matrices[element]


def _mat_mul_cyclo(a, b):
    d = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(1, d)), start=a[i][0] * b[0][j])
            for j in range(d)
        )
        for i in range(d)
    )


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


def rep_from_json_dict(data: dict) -> MatrixRep:
    """Matrix-rep file: entries are length-e integer vectors (coefficients of zeta^k)."""
    g = parse_group_spec(data["group"])
    d = int(data["degree"])
    e = int(data["e"])
    mats: list = [None] * g.order
    for label, rows in data["matrices"].items():
        x = g.element_by_label(label) if not label.isdigit() else int(label)
        mats[x] = tuple(
            tuple(CyclotomicInt.from_mult_vector(e, entry) for entry in row)
            for row in rows
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


def _all_rational(matrix) -> bool:
    return all(entry.is_rational_integer() for row in matrix for entry in row)


def h_poly(c: Cover, rho: MatrixRep) -> CycloPoly:
    """Exact determinant det(I - A_rho u + (D_rho - I) u^2)."""
    a, d_diag = twisted_matrices(c, rho)
    m = len(a)
    e = rho.e
    if _all_rational(a):
        u = IntPoly.x()
        u2 = u * u
        mat = [
            [
                (IntPoly.const(1) if i == j else IntPoly())
                - a[i][j].as_int() * u
                + ((d_diag[i] - 1) * u2 if i == j else IntPoly())
                for j in range(m)
            ]
            for i in range(m)
        ]
        return CycloPoly.from_int_poly(e, det_int_poly_matrix(mat))
    one = CycloPoly.const(CyclotomicInt.one(e))
    u = CycloPoly(e, (CyclotomicInt.zero(e), CyclotomicInt.one(e)))
    u2 = u * u
    mat = [
        [
            (one if i == j else CycloPoly(e))
            - CycloPoly.const(a[i][j]) * u
            + ((d_diag[i] - 1) * u2 if i == j else CycloPoly(e))
            for j in range(m)
        ]
        for i in range(m)
    ]
    return det_ring(mat, one)


def h_at_one(c: Cover, rho: MatrixRep) -> CyclotomicInt:
    """h(1, rho) = det(D_rho - A_rho), evaluated directly."""
    a, d_diag = twisted_matrices(c, rho)
    m = len(a)
    e = rho.e
    mat = [
        [
            (CyclotomicInt.from_int(e, d_diag[i]) if i == j else CyclotomicInt.zero(e))
            - a[i][j]
            for j in range(m)
        ]
        for i in range(m)
    ]
    return det_ring(mat, CyclotomicInt.one(e))


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
    started = time.perf_counter()
    reps = _abelian_rep_list(c.group)
    e = reps[0].e
    product = CycloPoly.const(CyclotomicInt.one(e))
    for rho in reps:
        product = product * h_poly(c, rho)
    lhs = product.to_int_poly()
    rhs = c.derived.ihara_h_poly()
    slots = max(len(lhs.coeffs), len(rhs.coeffs))
    matches = sum(
        1
        for k in range(slots)
        if (lhs.coeffs[k] if k < len(lhs.coeffs) else 0)
        == (rhs.coeffs[k] if k < len(rhs.coeffs) else 0)
    )
    return VerificationReport.compare(
        "prod_chi h(u,chi) = h_Y(u)",
        c.describe(),
        slots,
        matches,
        started=started,
        details={
            "product_coeffs": [str(x) for x in lhs.coeffs],
            "derived_coeffs": [str(x) for x in rhs.coeffs],
        },
    )


def verify_prop_formula(c: Cover) -> VerificationReport:
    """|G| kappa(Y) = kappa(X) prod_{chi != 1} h(1, chi) for abelian covers."""
    started = time.perf_counter()
    if c.base.euler_characteristic() == 0:
        raise EulerZeroError("the product formula needs chi(X) != 0")
    if not c.derived.is_connected():
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
        started=started,
    )


def verify_inter_rel(c: Cover, h: Subgroup) -> VerificationReport:
    """[G:H] kappa(X_H) = kappa(X) prod h(1,chi)^{a_{chi,H}} for abelian covers."""
    started = time.perf_counter()
    if c.base.euler_characteristic() == 0:
        raise EulerZeroError("the subgroup formula needs chi(X) != 0")
    if not c.derived.is_connected():
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
        started=started,
    )
