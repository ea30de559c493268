"""Exact character tables of finite groups and the apparatus built on them.

A table takes one of three routes.  An abelian group's table is its dual
group Hom(G, mu_e) (e the group exponent), built by extending characters
one cyclic step at a time.  A non-abelian direct product A x B (built by
`groups.direct_product`) takes the products chi x psi of its factors'
tables.  Any other group's table is computed by Dixon's finite-field method:
class-multiplication matrices are simultaneously diagonalized over F_p for
a prime p = 1 (mod e) with p > 2*sqrt(|G|), degrees are recovered with a
square root mod p, and every character value is lifted to an exact
eigenvalue-multiplicity vector by a discrete Fourier transform mod p.  The
eigenvalues at g are o(g)-th roots of unity, so the transform has length
o(g), and it is taken once for each family of classes that generate
conjugate cyclic subgroups; the other classes of a family permute its
result.  No floating point is involved anywhere.

Whatever the route, row orthogonality is verified exactly before a table
is returned: every Gram entry is one packed integer dot product, folded by
x^e = 1 and reduced mod Phi_e.  Each distinct multiplicity vector is
packed once, and each distinct folded integer is reduced once.

Eigenspaces are split by one class matrix at a time, largest class first,
until each is a line; the class matrices together separate the characters
(Dixon 1967), so the sweep always ends there, and no random draw is made.
The characters are then sorted into one canonical order, so each group has
exactly one table.  Each split reduces the matrix restricted to the
eigenspace (t x t) to upper Hessenberg form once; the eigenvectors for
every root of its characteristic polynomial come from elimination on that
form, mapped back through the recorded similarities, so a split costs
O(t^3) in all (Schneider 1990).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import mul

from .cyclotomic import CyclotomicInt, _context, reverse_mult_vector
from .errors import InvariantError, NoSuitablePrimeError, OrderTooLargeError
# the flags are re-exported under this module's name, by which the benchmark
# tracer (`perfbench/tracer.py`) wraps them
from .groups import FiniteGroup, Subgroup, is_exceptional, is_irreducibly_represented, max_group_order
from .numtheory import factorize, is_prime

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
    """The square root of a mod an odd prime p that is at most p/2, by a scan
    of F_p; raises if a is not a square."""
    a %= p
    for r in range(p // 2 + 1):
        if r * r % p == a:
            return r
    raise InvariantError(f"{a} is not a square mod {p}")


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


class CharacterTable:
    """All irreducible characters of a finite group, exactly."""

    def __init__(self, group, classes, e, characters):
        self.group = group
        self.classes = classes
        self.class_sizes = tuple(len(c) for c in classes)
        self.e = e
        self.characters = characters
        self.class_of = group.class_index_of()
        self._cache: dict = {}  # the kernels and kernel poset, filled by `posets`

    @property
    def class_count(self) -> int:
        return len(self.classes)

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


def character_table(g: FiniteGroup) -> CharacterTable:
    """Compute Irr(G) exactly; the table is kept on the group.

    Three routes: an abelian group (every class a singleton) gets its table
    from the dual group, a non-abelian direct product from its factors'
    tables, and any other group (an atom, a `perm:` or `table:` group, a
    quotient) from Dixon's method.  Characters are sorted on their values,
    trivial first, so the table does not depend on the route.  Every
    table, whatever its route, passes `_verify_table` before it is kept.
    """
    if "character_table" in g._cache:
        return g._cache["character_table"]
    bound = max_group_order()
    if g.order > bound:
        raise OrderTooLargeError(f"order {g.order} exceeds bound {bound}")

    classes = g.conjugacy_classes()
    e = g.exponent()
    if len(classes) == g.order:
        characters = _dual_group_characters(g, e)
    elif g.factors is not None:
        characters = _product_characters(g, e)
    else:
        characters = _dixon_characters(g, e)
    characters.sort(key=_table_order)
    table = CharacterTable(g, classes, e, tuple(characters))
    _verify_table(table)
    g._cache["character_table"] = table
    return table


def _table_order(chi: Character):
    return (not chi.is_trivial(), chi.degree, chi.values)


def _dual_group_characters(g: FiniteGroup, e: int) -> list[Character]:
    """Irr(G) = Hom(G, mu_e) of an abelian group, by cyclic extension.

    Each character is kept as exponents k with chi(y) = zeta_e^k on the
    subgroup H reached so far, starting from H = 1.  For x outside H, with
    x^m the first power of x in H, each chi of H extends in m ways:
    chi'(h x^j) = chi(h) + j b (mod e) for the m solutions b of
    m b = chi(x^m) (mod e).  They exist because x^m has order o(x)/m and m
    divides o(x), which divides the exponent e.  O(|G|^2) in all; no prime
    is needed.
    """
    members = [g.identity]
    position = {g.identity: 0}
    exponents = [[0]]
    for x in range(g.order):
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
        exponents = [
            [(k + j * b) % e for j in range(m) for k in chi]
            for chi in exponents
            for b in range(chi[at] // m, e, e // m)
        ]
    units = [tuple(int(k == j) for j in range(e)) for k in range(e)]
    reps = [position[cls[0]] for cls in g.conjugacy_classes()]
    return [
        Character(group=g, e=e, degree=1, values=tuple(units[chi[i]] for i in reps))
        for chi in exponents
    ]


def _product_characters(g: FiniteGroup, e: int) -> list[Character]:
    """Irr(A x B) = {chi x psi : chi in Irr(A), psi in Irr(B)} (Isaacs, Thm 4.21).

    g = A x B is a direct product (`FiniteGroup.factors`); the factors'
    tables come from `character_table` and are kept on the factors.  The
    eigenvalues of chi x psi at (a, b) are the products of chi's at a and
    psi's at b, so its multiplicity vector there is the convolution mod
    e = lcm(e_A, e_B) of theirs, with exponents scaled by e / e_A and
    e / e_B.  Unsorted.
    """
    a, b = g.factors
    n_b = b.order
    tables = (character_table(a), character_table(b))
    pairs = [divmod(cls[0], n_b) for cls in g.conjugacy_classes()]
    class_pairs = [(tables[0].class_of[x], tables[1].class_of[y]) for x, y in pairs]
    # per factor character and class, the nonzero (scaled exponent, multiplicity)s
    sparse = [
        [
            [[(k * (e // t.e), m) for k, m in enumerate(v) if m] for v in chi.values]
            for chi in t.characters
        ]
        for t in tables
    ]
    characters = []
    for chi, terms_chi in zip(tables[0].characters, sparse[0]):
        for psi, terms_psi in zip(tables[1].characters, sparse[1]):
            values = []
            for i, j in class_pairs:
                vec = [0] * e
                for s, m in terms_chi[i]:
                    for t, k in terms_psi[j]:
                        vec[(s + t) % e] += m * k
                values.append(tuple(vec))
            degree = chi.degree * psi.degree
            characters.append(Character(group=g, e=e, degree=degree, values=tuple(values)))
    return characters


def _dixon_characters(g: FiniteGroup, e: int) -> list[Character]:
    """Irr(G) by Dixon's method over F_p, unsorted.

    The characters of a non-abelian group; for abelian groups the test
    oracle of `_dual_group_characters`.  The class matrices together
    separate the characters, so refining every eigenspace by each M_i^T in
    turn, largest class first (ties by class index), ends with r lines.
    """
    classes = g.conjugacy_classes()
    r = len(classes)
    reps = [cls[0] for cls in classes]
    class_of = g.class_index_of()
    sizes = [len(cls) for cls in classes]
    p = _dixon_prime(g.order, e)

    def class_matrix_t(i):
        """M_i^T, with M_i[j][k] = #{x in K_i : x^-1 z_k in K_j}; O(|K_i| r)."""
        out = [[0] * r for _ in range(r)]
        for row, z in zip(out, reps):
            for x in classes[i]:
                row[class_of[g.mul(g.inv(x), z)]] += 1
        return out

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

    # class 0 is the identity's, whose matrix splits nothing
    for i in sorted(range(1, r), key=lambda i: (-sizes[i], i)):
        if all(len(b) == 1 for b, _ in spaces):
            break
        spaces = refine(spaces, class_matrix_t(i))
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
        chi = [d * omega[i] * inv_sizes[i] % p for i in range(r)]
        chars_mod.append((d, chi))

    # power map on classes: pm[i][j] is the class of g_i^j for j < o(g_i)
    pm = []
    for rep in reps:
        row = [class_of[g.identity]]
        x = rep
        while x != g.identity:
            row.append(class_of[x])
            x = g.mul(x, rep)
        pm.append(row)
    # the class of g_i^a, a prime to o = o(g_i), generates a conjugate of
    # <g_i>: its multiplicity of zeta_o^t is g_i's multiplicity of
    # zeta_o^(t/a).  One DFT per such family, at its least class.
    source: list[tuple[int, int] | None] = [None] * r
    for i, row in enumerate(pm):
        if source[i] is None:
            o = len(row)
            for a in range(o):  # a = 0 only for the identity, o = 1
                if gcd(a, o) == 1 and source[row[a]] is None:
                    source[row[a]] = (i, pow(a, -1, o))
    # inverse DFT rows of length o over zeta_o = zeta_e^(e/o), the fixed
    # primitive e-th root of unity mod p to that power
    omega_root = pow(_primitive_root(p), (p - 1) // e, p)
    omega_pows = [pow(omega_root, k, p) for k in range(e)]
    dfts = {}
    for o in {len(row) for row in pm}:
        step = e // o
        rows = [[omega_pows[-j * t * step % e] for j in range(o)] for t in range(o)]
        dfts[o] = (rows, pow(o, p - 2, p))

    characters = []
    for d, chi in chars_mod:
        lifted = {}
        values = []
        for i, (leader, b) in enumerate(source):
            if leader == i:
                rows, inv_o = dfts[len(pm[i])]
                series = [chi[c] for c in pm[i]]
                mult = [sum(map(mul, series, row)) % p * inv_o % p for row in rows]
                if sum(mult) != d or any(m > d for m in mult):
                    raise InvariantError("character lifting produced invalid multiplicities")
                lifted[i] = mult
            mult = lifted[leader]
            o = len(mult)
            vec = [0] * e
            for t in range(o):
                vec[t * (e // o)] = mult[b * t % o]
            values.append(tuple(vec))
        characters.append(Character(group=g, e=e, degree=d, values=tuple(values)))
    return characters


def _verify_table(table: CharacterTable) -> None:
    """Exact row orthogonality: sum_k |K_k| chi_i(k) conj(chi_j(k)) = |G| delta_ij.

    Multiplicity vectors are packed as integers in X = 2^B (Kronecker
    substitution): m as sum_a m[a] X^a for chi_i, and as
    sum_b m[b] X^(e-1-b) for conj(chi_j).  Each distinct vector is packed
    once; |K_k| chi_i(k) is |K_k| times its packed integer.  A Gram entry is
    then one integer dot product over the classes, whose digit a - b + e - 1
    holds the coefficient of zeta^(a-b).  Every term is non-negative and X
    exceeds the sum of all coefficients, so no carry crosses a digit, not
    even after x^e = 1 adds digit t to digit t + e (both hold zeta^(t+1)):
    one mask, one shift and one add.  Each distinct folded integer is reduced mod Phi_e
    once; the reductions are kept for the call only, keyed by that integer,
    so every one of the r(r+1)/2 entries is still checked exactly.
    """
    g = table.group
    chars = table.characters
    e, sizes = table.e, table.class_sizes
    if len(chars) != table.class_count:
        raise InvariantError("character count differs from class count")
    if sum(c.degree**2 for c in chars) != g.order:
        raise InvariantError("degree squares do not sum to the group order")
    vectors = {v for chi in chars for v in chi.values}
    if min(map(min, vectors)) < 0:
        raise InvariantError("negative eigenvalue multiplicity")
    bound = max(sum(map(sum, chi.values)) for chi in chars) * max(
        sum(size * sum(v) for size, v in zip(sizes, chi.values)) for chi in chars
    )
    nbytes = bound.bit_length() // 8 + 1

    def pack(digits) -> int:
        packed = b"".join(d.to_bytes(nbytes, "little") for d in digits)
        return int.from_bytes(packed, "little")

    packed = {v: pack(v) for v in vectors}
    packed_conj = {v: pack(reversed(v)) for v in vectors}
    rows = [[size * packed[v] for size, v in zip(sizes, chi.values)] for chi in chars]
    cols = [[packed_conj[v] for v in chi.values] for chi in chars]
    digit_bits = 8 * nbytes
    low_bits = digit_bits * (e - 1)
    mask = (1 << low_bits) - 1
    ctx = _context(e)
    zero = (0,) * ctx.degree
    diagonal = (g.order,) + zero[1:]
    reduced: dict[int, tuple[int, ...]] = {}
    for i, row in enumerate(rows):
        for j in range(i, len(chars)):
            gram = sum(map(mul, row, cols[j]))
            # digit m of `folded` is the coefficient of zeta^m
            folded = (gram >> low_bits) + ((gram & mask) << digit_bits)
            value = reduced.get(folded)
            if value is None:
                digits = folded.to_bytes(nbytes * e, "little")
                acc = [0] * ctx.degree
                for m in range(e):
                    c = int.from_bytes(digits[m * nbytes : (m + 1) * nbytes], "little")
                    if c:
                        for idx, x in enumerate(ctx.reduce_exponent(m)):
                            acc[idx] += c * x
                value = reduced[folded] = tuple(acc)
            if value != (diagonal if i == j else zero):
                raise InvariantError(
                    f"row orthogonality fails at ({i},{j}): |G| times the inner product"
                    f" is {list(value)} mod Phi_{e}"
                )


def induced_trivial_values(h: Subgroup) -> tuple[int, ...]:
    """Ind_H^G(1) on each class c of G = h.parent, in `conjugacy_classes()` order.

    The value is the number of cosets xH fixed by an element of c,
    [G:H] |H meet c| / |c|, read off the classes of the elements of H.
    """
    g = h.parent
    class_of = g.class_index_of()
    classes = g.conjugacy_classes()
    meets = [0] * len(classes)
    for a in h.elements:
        meets[class_of[a]] += 1
    values = []
    for meet, cls in zip(meets, classes):
        value, rest = divmod(h.index() * meet, len(cls))
        if rest:
            raise InvariantError("induced character value is not integral")
        values.append(value)
    return tuple(values)


def inner_product(values, psi: Character) -> int:
    """<phi, psi> = (1/|G|) sum_K |K| phi(K) psi(K^-1), for a virtual character
    phi given by its integer value on each class (`induced_trivial_values`).

    The result is an integer; `InvariantError` if |G| does not divide the sum.
    """
    g = psi.group
    acc = CyclotomicInt.zero(psi.e)
    for i, (value, cls) in enumerate(zip(values, g.conjugacy_classes())):
        if value:
            acc = acc + (len(cls) * value) * psi.value_at_inverse(i)
    multiplicity, rest = divmod(acc.as_int(), g.order)
    if rest:
        raise InvariantError("inner product with an irreducible character is not an integer")
    return multiplicity
