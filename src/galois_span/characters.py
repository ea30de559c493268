"""Exact character tables of finite groups and the apparatus built on them.

The table is computed by Dixon's finite-field method: class-multiplication
matrices are simultaneously diagonalized over F_p for a prime p = 1 (mod e)
with p > 2*sqrt(|G|) (e the group exponent), degrees are recovered with a
square root mod p, and every character value is lifted to an exact
eigenvalue-multiplicity vector over e-th roots of unity by a discrete
Fourier transform mod p.  No floating point is involved anywhere; row
orthogonality is verified exactly before a table is returned, with every
Gram entry computed as one packed integer dot product and reduced mod
Phi_e.

Eigenspace splitting starts from a seeded random linear combination of the
class matrices and falls back to a deterministic sweep, so tables are
reproducible bit for bit for a given seed.  Each split reduces the matrix
restricted to the eigenspace (t x t) to upper Hessenberg form once; the
eigenvectors for every root of its characteristic polynomial come from
elimination on that form, mapped back through the recorded similarities,
so a split costs O(t^3) in all (Schneider 1990).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from .cyclotomic import CyclotomicInt, _context, reverse_mult_vector
from .errors import (
    GeneratorDependentError,
    InvariantError,
    MismatchedGroupError,
    NoSuitablePrimeError,
    NotAbelianError,
    NotRationalValuedError,
    OrderTooLargeError,
)
from .groups import FiniteGroup, Subgroup, cyclic_subgroups, max_group_order
from .numtheory import factorize, is_prime
from .posets import TOP_KEY, cyclic_poset, mobius
from .report import VerificationReport

_PRIME_SEARCH_LIMIT = 10_000_000


def _dixon_prime(order: int, exponent: int) -> int:
    """Least prime p = 1 (mod exponent) with p > 2*sqrt(order), p odd."""
    floor = max(2 * isqrt(order), 2)
    p = exponent + 1
    while p <= _PRIME_SEARCH_LIMIT:
        if p > floor and is_prime(p):
            return p
        p += exponent
    raise NoSuitablePrimeError(
        f"no prime = 1 mod {exponent} above {floor} within {_PRIME_SEARCH_LIMIT}"
    )


def _primitive_root(p: int) -> int:
    factors = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q, _ in factors):
            return g
    raise InvariantError(f"no primitive root mod {p}")


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root mod an odd prime; raises if a is not a square."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise InvariantError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


# -- F_p linear algebra (dense lists, small sizes) ------------------------------


def _rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots


def _hessenberg_mod(
    matrix: list[list[int]], p: int
) -> tuple[list[list[int]], list[tuple[int, int, int | None]]]:
    """Upper Hessenberg H = S A S^-1 mod p and the similarities making up S.

    Each operation is (a, b, None), swapping rows a, b and columns a, b, or
    (i, k, f), doing row_i -= f row_k and col_k += f col_i; S is their
    product, the first applied rightmost.
    """
    n = len(matrix)
    h = [[x % p for x in row] for row in matrix]
    ops: list[tuple[int, int, int | None]] = []
    for k in range(1, n - 1):
        pivot = next((i for i in range(k, n) if h[i][k - 1]), None)
        if pivot is None:
            continue
        if pivot != k:
            h[k], h[pivot] = h[pivot], h[k]
            for row in h:
                row[k], row[pivot] = row[pivot], row[k]
            ops.append((k, pivot, None))
        inv = pow(h[k][k - 1], p - 2, p)
        for i in range(k + 1, n):
            f = h[i][k - 1] * inv % p
            if f:
                for j in range(n):
                    h[i][j] = (h[i][j] - f * h[k][j]) % p
                for r in range(n):
                    h[r][k] = (h[r][k] + f * h[r][i]) % p
                ops.append((i, k, f))
    return h, ops


def _hessenberg_charpoly_mod(h: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial of an upper Hessenberg matrix (monic, low first)."""
    n = len(h)
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [0] * (k + 1)
        diag = h[k - 1][k - 1]
        for idx, c in enumerate(prev):
            cur[idx + 1] = (cur[idx + 1] + c) % p
            cur[idx] = (cur[idx] - diag * c) % p
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * h[i][i - 1] % p
            coef = h[i - 1][k - 1] * prod % p
            if coef:
                for idx, c in enumerate(polys[i - 1]):
                    cur[idx] = (cur[idx] - coef * c) % p
        polys.append(cur)
    return polys[n]


def _charpoly_mod(matrix: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p via Hessenberg reduction (monic, low first)."""
    return _hessenberg_charpoly_mod(_hessenberg_mod(matrix, p)[0], p)


def _hessenberg_nullspace_mod(h: list[list[int]], lam: int, p: int) -> list[list[int]]:
    """Basis of the right null space of H - lam*I for upper Hessenberg H mod p.

    Column c of H is zero below row c + 1, so the pivot search and the
    elimination in column c only touch the rows from the current pivot row
    to c + 1: at most (free columns so far) + 2 rows, O((d + 2) t^2) for
    nullity d.  One vector per free column by back-substitution.
    """
    t = len(h)
    m = [row[:] for row in h]
    for i in range(t):
        m[i][i] = (m[i][i] - lam) % p
    pivots: list[int] = []
    for c in range(t):
        r = len(pivots)
        last = min(c + 1, t - 1)
        pivot = next((i for i in range(r, last + 1) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        row = m[r] = [x * inv % p for x in m[r]]
        for i in range(r + 1, last + 1):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
        pivots.append(c)
    is_pivot = set(pivots)
    basis = []
    for fc in range(t):
        if fc in is_pivot:
            continue
        vec = [0] * t
        vec[fc] = 1
        # pivot columns right of fc stay 0: every entry right of them is 0
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            if pc < fc:
                row = m[r]
                vec[pc] = -sum(row[j] * vec[j] for j in range(pc + 1, fc + 1)) % p
        basis.append(vec)
    return basis


def _undo_similarity_mod(
    vec: list[int], ops: list[tuple[int, int, int | None]], p: int
) -> list[int]:
    """S^-1 vec for the S of `_hessenberg_mod`.

    Maps a null vector of H - lam*I to one of A - lam*I, undoing the
    operations last to first.
    """
    y = vec[:]
    for i, k, f in reversed(ops):
        if f is None:
            y[i], y[k] = y[k], y[i]
        else:
            y[i] = (y[i] + f * y[k]) % p
    return y


def _poly_eval_mod(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# -- character table -------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """Irreducible character: one multiplicity vector per conjugacy class.

    values[i][k] is the multiplicity of zeta_e^k among the eigenvalues of a
    representing matrix at the i-th class, so each vector sums to the degree.
    """

    group: FiniteGroup
    e: int
    degree: int
    values: tuple[tuple[int, ...], ...]

    def value_cyclo(self, class_index: int) -> CyclotomicInt:
        return CyclotomicInt.from_mult_vector(self.e, self.values[class_index])

    def value_at_inverse(self, class_index: int) -> CyclotomicInt:
        return CyclotomicInt.from_mult_vector(
            self.e, reverse_mult_vector(self.values[class_index])
        )

    def is_trivial(self) -> bool:
        return self.degree == 1 and all(v[0] == 1 for v in self.values)

    def is_rational(self) -> bool:
        return all(self.value_cyclo(i).is_rational_integer() for i in range(len(self.values)))


class CharacterTable:
    """All irreducible characters of a finite group, exactly."""

    def __init__(self, group, classes, e, prime, characters):
        self.group = group
        self.classes = classes
        self.class_sizes = tuple(len(c) for c in classes)
        self.e = e
        self.prime = prime
        self.characters = characters
        class_of = [0] * group.order
        for i, cls in enumerate(classes):
            for x in cls:
                class_of[x] = i
        self.class_of = class_of
        self.inv_class = tuple(
            class_of[group.inv(cls[0])] for cls in classes
        )

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def trivial_character(self) -> Character:
        return self.characters[0]

    def kernel_of(self, chi: Character) -> Subgroup:
        """Elements where the multiplicity vector is concentrated at zeta^0."""
        elems = [
            g
            for g in range(self.group.order)
            if chi.values[self.class_of[g]][0] == chi.degree
        ]
        kernel = Subgroup(self.group, tuple(elems))
        if not kernel.is_normal():
            raise InvariantError("character kernel is not normal: table is corrupt")
        return kernel

    def kernels(self) -> list[Subgroup]:
        return [self.kernel_of(chi) for chi in self.characters]

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.name,
            "order": self.group.order,
            "exponent": self.e,
            "classes": [
                {"representative": self.group.label(cls[0]), "size": len(cls)}
                for cls in self.classes
            ],
            "characters": [
                {"degree": chi.degree, "values": [list(v) for v in chi.values]}
                for chi in self.characters
            ],
        }


def character_table(g: FiniteGroup, seed: int = 0) -> CharacterTable:
    """Compute Irr(G) exactly; results are cached on the group per seed."""
    cache_key = ("character_table", seed)
    if cache_key in g._cache:
        return g._cache[cache_key]
    bound = max_group_order()
    if g.order > bound:
        raise OrderTooLargeError(f"order {g.order} exceeds bound {bound}")

    classes = g.conjugacy_classes()
    r = len(classes)
    reps = [cls[0] for cls in classes]
    class_of = g.class_index_of()
    sizes = [len(cls) for cls in classes]
    e = g.exponent()
    p = _dixon_prime(g.order, e)

    # class multiplication coefficients M_i[j][k] = #{x in K_i : x^-1 z_k in K_j},
    # kept as one (k, j) pair per such x: sum_i |K_i| r = |G| r pairs
    pairs = []
    for i in range(r):
        pairs_i = []
        for k in range(r):
            z = reps[k]
            pairs_i.extend((k, class_of[g.mul(g.inv(x), z)]) for x in classes[i])
        pairs.append(pairs_i)

    def combine(weights):
        """sum_i w_i M_i^T mod p, built from the pairs in O(|G| r)."""
        out = [[0] * r for _ in range(r)]
        for w, pairs_i in zip(weights, pairs):
            if w:
                for k, j in pairs_i:
                    out[k][j] += w
        return [[x % p for x in row] for row in out]

    # common right eigenvectors of all class matrices, as rows against M^T
    spaces: list[tuple[list[list[int]], list[int]]] = [
        ([[1 if i == j else 0 for j in range(r)] for i in range(r)], list(range(r)))
    ]

    def refine(space_list, mat_t):
        out = []
        for basis, pivots in space_list:
            t = len(basis)
            if t == 1:
                out.append((basis, pivots))
                continue
            restricted = []
            for row in basis:
                terms = [(x, mat_t[a]) for a, x in enumerate(row) if x]
                restricted.append([sum(x * m[c] for x, m in terms) % p for c in pivots])
            rt = [[restricted[j][i] for j in range(t)] for i in range(t)]
            h, ops = _hessenberg_mod(rt, p)
            cp = _hessenberg_charpoly_mod(h, p)
            roots = [lam for lam in range(p) if _poly_eval_mod(cp, lam, p) == 0]
            split_dim = 0
            for lam in roots:
                null_vecs = _hessenberg_nullspace_mod(h, lam, p)
                if not null_vecs:
                    continue
                split_dim += len(null_vecs)
                new_rows = []
                for vec in null_vecs:
                    coords = _undo_similarity_mod(vec, ops, p)
                    acc = [0] * r
                    for x, b in zip(coords, basis):
                        if x:
                            acc = [u + x * v for u, v in zip(acc, b)]
                    new_rows.append([u % p for u in acc])
                out.append(_rref_mod(new_rows, p))
            if split_dim != t:
                raise InvariantError("class matrix not diagonalizable mod p")
        return out

    rng = random.Random(seed)
    attempts = 0
    while any(len(b) > 1 for b, _ in spaces) and attempts < 4:
        weights = [rng.randrange(p) for _ in range(r)]
        spaces = refine(spaces, combine(weights))
        attempts += 1
    for i in range(r):
        if all(len(b) == 1 for b, _ in spaces):
            break
        spaces = refine(spaces, combine([int(i == j) for j in range(r)]))
    if not all(len(b) == 1 for b, _ in spaces) or len(spaces) != r:
        raise InvariantError("failed to split eigenspaces of the class matrices")

    # normalize to central characters, recover degrees and values mod p
    inv_class = [class_of[g.inv(rep)] for rep in reps]
    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    order_mod = g.order % p
    chars_mod = []
    for basis, _ in spaces:
        w = basis[0]
        if w[0] % p == 0:
            raise InvariantError("central character vanishes at the identity")
        scale = pow(w[0], p - 2, p)
        omega = [x * scale % p for x in w]
        s = sum(omega[i] * omega[inv_class[i]] * inv_sizes[i] for i in range(r)) % p
        d2 = order_mod * pow(s, p - 2, p) % p
        d = _sqrt_mod(d2, p)
        if d > p - d:
            d = p - d
        chi = [d * omega[i] * inv_sizes[i] % p for i in range(r)]
        chars_mod.append((d, chi))

    # power map on classes and the inverse DFT rows over the fixed
    # primitive e-th root of unity mod p
    pm = []
    for rep in reps:
        row = []
        x = g.identity
        for _ in range(e):
            row.append(class_of[x])
            x = g.mul(x, rep)
        pm.append(row)
    omega_root = pow(_primitive_root(p), (p - 1) // e, p)
    omega_pows = [pow(omega_root, k, p) for k in range(e)]
    dft = [[omega_pows[(-j * k) % e] for j in range(e)] for k in range(e)]
    inv_e = pow(e % p, p - 2, p)

    characters = []
    for d, chi in chars_mod:
        values = []
        for i in range(r):
            series = [chi[c] for c in pm[i]]
            mult = [sum(map(mul, series, row)) % p * inv_e % p for row in dft]
            if sum(mult) != d or any(m > d for m in mult):
                raise InvariantError("character lifting produced invalid multiplicities")
            values.append(tuple(mult))
        characters.append(Character(group=g, e=e, degree=d, values=tuple(values)))

    characters.sort(key=lambda c: (not c.is_trivial(), c.degree, c.values))
    table = CharacterTable(g, classes, e, p, tuple(characters))
    _verify_table(table)
    g._cache[cache_key] = table
    return table


def _verify_table(table: CharacterTable) -> None:
    """Exact row orthogonality: sum_k |K_k| chi_i(k) conj(chi_j(k)) = |G| delta_ij.

    Multiplicity vectors are packed as integers in X = 2^B (Kronecker
    substitution): |K_k| chi_i(k) as sum_a |K_k| m_ik[a] X^a, conj(chi_j(k))
    as sum_b m_jk[b] X^(e-1-b).  A Gram entry is then one integer dot product
    over the classes, whose digit a - b + e - 1 holds the coefficient of
    zeta^(a-b).  Every term is non-negative and X exceeds every coefficient,
    so no carry crosses a digit.  The digits are folded into Z[x]/(x^e - 1)
    and reduced mod Phi_e once.
    """
    g = table.group
    chars = table.characters
    e, sizes = table.e, table.class_sizes
    if len(chars) != table.class_count:
        raise InvariantError("character count differs from class count")
    if sum(c.degree**2 for c in chars) != g.order:
        raise InvariantError("degree squares do not sum to the group order")
    if any(m < 0 for chi in chars for v in chi.values for m in v):
        raise InvariantError("negative eigenvalue multiplicity")
    bound = max(sum(map(sum, chi.values)) for chi in chars) * max(
        sum(size * sum(v) for size, v in zip(sizes, chi.values)) for chi in chars
    )
    nbytes = bound.bit_length() // 8 + 1

    def pack(digits) -> int:
        packed = b"".join(d.to_bytes(nbytes, "little") for d in digits)
        return int.from_bytes(packed, "little")

    rows = [[pack(size * m for m in v) for size, v in zip(sizes, chi.values)] for chi in chars]
    cols = [[pack(reversed(v)) for v in chi.values] for chi in chars]
    width = 2 * e - 1
    ctx = _context(e)
    for i, row in enumerate(rows):
        for j in range(i, len(chars)):
            digits = sum(map(mul, row, cols[j])).to_bytes(nbytes * width, "little")
            folded = [0] * e
            for t in range(width):
                digit = digits[t * nbytes : (t + 1) * nbytes]
                folded[(t + 1 - e) % e] += int.from_bytes(digit, "little")
            value = [0] * ctx.degree
            for m, c in enumerate(folded):
                if c:
                    for idx, x in enumerate(ctx.reduce_exponent(m)):
                        value[idx] += c * x
            if value != [g.order if i == j else 0] + [0] * (ctx.degree - 1):
                raise InvariantError(
                    f"row orthogonality fails at ({i},{j}): |G| times the inner product"
                    f" is {value} mod Phi_{e}"
                )


@dataclass(frozen=True)
class ClassFunction:
    """Rational-valued class function (one value per conjugacy class)."""

    group: FiniteGroup
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))


def induced_trivial_character(table: CharacterTable, h: Subgroup) -> ClassFunction:
    """Character induced from the trivial character of a subgroup.

    Value at g is the number of cosets xH fixed by g, computed as
    |{x : x^-1 g x in H}| / |H|; always a nonnegative integer.
    """
    g = table.group
    if h.parent is not g:
        raise MismatchedGroupError("subgroup of a different group")
    members = set(h.elements)
    values = []
    for cls in table.classes:
        rep = cls[0]
        count = sum(1 for x in range(g.order) if g.mul(g.mul(g.inv(x), rep), x) in members)
        if count % h.order != 0:
            raise InvariantError("induced character value is not integral")
        values.append(Fraction(count // h.order))
    return ClassFunction(group=g, values=tuple(values))


def inner_product(phi, psi: Character) -> Fraction:
    """Exact inner product (1/|G|) sum |K| phi(g) psi(g^-1).

    `phi` may be a Character or a rational ClassFunction; the result is a
    rational number (an integer when phi is a character or an induced
    trivial character).
    """
    g = psi.group
    sizes = [len(cls) for cls in g.conjugacy_classes()]
    if isinstance(phi, Character):
        if phi.group is not g:
            raise MismatchedGroupError("characters of different groups")
        acc = CyclotomicInt.zero(psi.e)
        for i, size in enumerate(sizes):
            acc = acc + size * (phi.value_cyclo(i) * psi.value_at_inverse(i))
        value = acc.as_int()
        return Fraction(value, g.order)
    if isinstance(phi, ClassFunction):
        if phi.group is not g:
            raise MismatchedGroupError("class function on a different group")
        denom = 1
        for v in phi.values:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        scaled = [int(v * denom) for v in phi.values]
        acc = CyclotomicInt.zero(psi.e)
        for i, size in enumerate(sizes):
            acc = acc + (size * scaled[i]) * psi.value_at_inverse(i)
        value = acc.as_int()
        return Fraction(value, g.order * denom)
    raise TypeError(f"cannot take inner product with {type(phi).__name__}")


def artin_coefficients(table: CharacterTable, chi) -> dict[tuple[int, ...], Fraction]:
    """Artin induction coefficients of a rational-valued character.

    Returns a map (cyclic subgroup element-set) -> a_chi(C) such that
    chi = sum_C a_chi(C) * Ind_C^G(trivial); the reconstruction is verified
    exactly before returning.
    """
    g = table.group
    if isinstance(chi, Character):
        if not chi.is_rational():
            raise NotRationalValuedError("character has irrational values")
        values = tuple(
            Fraction(chi.value_cyclo(i).as_int()) for i in range(table.class_count)
        )
        chi = ClassFunction(group=g, values=values)
    if not isinstance(chi, ClassFunction):
        raise NotRationalValuedError("need a rational class function")

    from .posets import classical_mobius

    cyclics = cyclic_subgroups(g)
    by_key = {c.elements: c for c in cyclics}

    def value_at_generator(b: Subgroup) -> Fraction:
        gens = [x for x in b.elements if g.element_order(x) == b.order]
        vals = {chi.values[table.class_of[x]] for x in gens}
        if len(vals) != 1:
            raise GeneratorDependentError(
                f"character value depends on the generator of {b.describe()}"
            )
        return next(iter(vals))

    coeffs: dict[tuple[int, ...], Fraction] = {}
    for c in cyclics:
        total = Fraction(0)
        for b in cyclics:
            if set(c.elements) <= set(b.elements):
                total += classical_mobius(b.order // c.order) * value_at_generator(b)
        coeffs[c.elements] = total / c.index()

    # reconstruction check: sum_C a(C) Ind_C^G(1) = chi pointwise
    recon = [Fraction(0)] * table.class_count
    for key, a in coeffs.items():
        if a == 0:
            continue
        ind = induced_trivial_character(table, by_key[key])
        for i in range(table.class_count):
            recon[i] += a * ind.values[i]
    if tuple(recon) != chi.values:
        raise InvariantError("Artin induction reconstruction failed")
    return coeffs


def is_irreducibly_represented(g: FiniteGroup) -> bool:
    """True when some irreducible character is faithful."""
    table = character_table(g)
    return any(table.kernel_of(chi).is_trivial() for chi in table.characters)


def is_exceptional(g: FiniteGroup) -> bool:
    """True when mu({1}, top) vanishes in the cyclic-subgroup poset."""
    poset = cyclic_poset(g)
    table = mobius(poset)
    trivial_key = (g.identity,)
    return table.mu(trivial_key, TOP_KEY) == 0


def verify_eq3(g: FiniteGroup) -> VerificationReport:
    """Both exact identities behind the cyclic-subgroup spanning-tree formula.

    Checks |G| * (-sum_C mu(C, top)/[G:C]) = |G| and, for every nontrivial
    irreducible rho, sum_C mu(C, top) a_{rho,C} |G|/[G:C] = 0.
    """
    started = time.perf_counter()
    table = character_table(g)
    poset = cyclic_poset(g)
    mu = mobius(poset)
    cyclics = cyclic_subgroups(g)
    checks = []

    lhs = -sum(mu.mu(c.elements, TOP_KEY) * g.order // c.index() for c in cyclics)
    checks.append(("unit partition", lhs, g.order))

    induced = {c.elements: induced_trivial_character(table, c) for c in cyclics}
    for idx, rho in enumerate(table.characters):
        if rho.is_trivial():
            continue
        total = 0
        for c in cyclics:
            a = inner_product(induced[c.elements], rho)
            if a.denominator != 1:
                raise InvariantError("induction multiplicity is not an integer")
            total += mu.mu(c.elements, TOP_KEY) * int(a) * (g.order // c.index())
        checks.append((f"character {idx}", total, 0))

    passed = sum(1 for _, a, b in checks if a == b)
    return VerificationReport.compare(
        "eq3 identities",
        f"group {g.name} (order {g.order})",
        len(checks),
        passed,
        started=started,
        notes="; ".join(f"{name}: {a} vs {b}" for name, a, b in checks if a != b),
        details={"checks": [[name, a, b] for name, a, b in checks]},
    )


def one_dim_characters(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All |G| degree-one characters of an abelian group as exponent maps.

    Entry x of each tuple is k with chi(x) = zeta_e^k, ready to serve as an
    explicit one-dimensional matrix representation.
    """
    if not g.is_abelian():
        raise NotAbelianError(f"{g.name} is not abelian")
    table = character_table(g)
    out = []
    for chi in table.characters:
        exps = []
        for x in range(g.order):
            mult = chi.values[table.class_of[x]]
            exps.append(mult.index(1))
        out.append(tuple(exps))
    return out
