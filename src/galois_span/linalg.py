"""Exact linear algebra: fraction-free determinants, rational elimination,
Kronecker products and Cauchy-Binet identities.

Dense matrices are plain lists of lists.  General integer matrices go
through dense Bareiss elimination (the only divisions are exact); sparse
symmetric positive-definite integer matrices, such as reduced Laplacians,
go through the same fraction-free elimination on sparse rows with a
minimum-degree pivot order; rational matrices use ordinary Gaussian
elimination over `fractions.Fraction`; matrices over other commutative
rings (polynomials, cyclotomic integers) use a division-free Laplace
expansion with memoization over column subsets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvariantError, NotSquareError, TooLargeError
from .polynomials import IntPoly, interpolate_int_poly


def _check_square(m: Sequence[Sequence]) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NotSquareError(f"matrix is {n}x{len(row)}")
    return n


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = _check_square(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_int_sparse_spd(rows: Sequence[dict[int, int]]) -> int:
    """Determinant of a symmetric positive-definite integer matrix in sparse rows.

    `rows[i]` maps column index to a nonzero entry.  Fraction-free Bareiss
    elimination with a symmetric pivot order: the pivot is always the
    remaining row with the fewest entries (minimum degree), ties broken by
    index.  Positive definiteness makes every pivot positive, so no row
    exchange is needed and the determinant is the last pivot.

    A row the pivot row does not reach would only gain the factor
    pivot/prev.  These factors telescope, so the row is stored as it was
    and rescaled once, by prev/scale[i], when it is next touched; every
    division is exact because each rescaled entry is a minor.
    """
    n = len(rows)
    live = [dict(r) for r in rows]
    scale = [1] * n
    remaining = set(range(n))
    prev = 1
    for _ in range(n):
        p = min(remaining, key=lambda i: (len(live[i]), i))
        remaining.remove(p)
        row_p = live[p]
        if scale[p] != prev:
            row_p = {j: v * prev // scale[p] for j, v in row_p.items()}
        pivot = row_p.pop(p, 0)
        if pivot <= 0:
            raise InvariantError(f"pivot {pivot} at row {p}: matrix is not positive definite")
        # symmetric pattern: the rows with an entry in column p are row p's columns
        for i, factor in row_p.items():
            row_i = live[i]
            del row_i[p]
            s = scale[i]
            if s == prev:
                updated = {j: v * pivot for j, v in row_i.items()}
            else:
                updated = {j: v * pivot * prev // s for j, v in row_i.items()}
            for j, v in row_p.items():
                updated[j] = updated.get(j, 0) - factor * v
            live[i] = {j: v // prev for j, v in updated.items() if v}
            scale[i] = pivot
        live[p] = {}
        prev = pivot
    return prev


def det_fraction(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant over exact rationals (Gaussian elimination with pivoting)."""
    n = _check_square(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            f = m[i][k] / pivot
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def rank_fraction(matrix: Sequence[Sequence]) -> int:
    """Rank over the rationals via exact row reduction."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot_row = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rows):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pivot
                for j in range(col, cols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        if rank == rows:
            break
    return rank


def det_ring(matrix: Sequence[Sequence], one):
    """Division-free determinant over any commutative ring.

    Laplace expansion with memoization over column subsets: O(2^n * n) ring
    operations, so only suitable for small matrices.  `one` is the ring unit
    used for the empty determinant.
    """
    n = _check_square(matrix)
    if n == 0:
        return one
    if n > 16:
        raise TooLargeError(f"division-free determinant limited to 16x16, got {n}")
    # expand along the top row of the remaining block, top-down:
    # det(rows r.., S) = sum_t (-1)^t a[r][j_t] det(rows r+1.., S - j_t)
    full = (1 << n) - 1
    dp = {full: one}
    for r in range(n):
        row = matrix[r]
        nxt: dict[int, object] = {}
        for mask, val in dp.items():
            pos = 0
            for j in range(n):
                bit = 1 << j
                if not (mask & bit):
                    continue
                entry = row[j]
                term = val * entry
                if pos & 1:
                    term = -term
                sub = mask ^ bit
                if sub in nxt:
                    nxt[sub] = nxt[sub] + term
                else:
                    nxt[sub] = term
                pos += 1
        dp = nxt
    return dp[0]


def det_int_poly_matrix(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Determinant of a matrix of integer polynomials.

    Evaluation-interpolation: the determinant has degree at most the sum of
    the row-wise maximal entry degrees, so it is recovered exactly from
    integer determinants at enough sample points.
    """
    n = _check_square(matrix)
    if n == 0:
        return IntPoly((1,))
    bound = 0
    for row in matrix:
        bound += max((p.degree for p in row if p), default=0)
    if bound < 0:
        return IntPoly()
    points = []
    x0 = -(bound // 2)
    for k in range(bound + 1):
        x = x0 + k
        evaluated = [[p(x) for p in row] for row in matrix]
        points.append((x, det_int(evaluated)))
    return interpolate_int_poly(points)


def kronecker(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Kronecker product: block matrix with blocks a[i][j] * b."""
    rows_a, cols_a = len(a), len(a[0]) if a else 0
    rows_b, cols_b = len(b), len(b[0]) if b else 0
    out = [[None] * (cols_a * cols_b) for _ in range(rows_a * rows_b)]
    for i in range(rows_a):
        for j in range(cols_a):
            for k in range(rows_b):
                for l in range(cols_b):
                    out[i * rows_b + k][j * cols_b + l] = a[i][j] * b[k][l]
    return out


def delete_row_col(matrix: Sequence[Sequence], row: int, col: int) -> list[list]:
    """Submatrix with one row and one column deleted (0-based indices)."""
    return [
        [x for j, x in enumerate(r) if j != col]
        for i, r in enumerate(matrix)
        if i != row
    ]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def cauchy_binet_check(
    a: Sequence[Sequence], b: Sequence[Sequence], m1: int, m2: int
) -> bool:
    """det((AB)(m1,m2)) == sum_m det(A(m1,m)) det(B(m,m2)), indices 1-based."""
    n = _check_square(a)
    _check_square(b)
    ab = mat_mul(a, b)
    lhs = det_fraction(delete_row_col(ab, m1 - 1, m2 - 1))
    rhs = Fraction(0)
    for m in range(n):
        rhs += det_fraction(delete_row_col(a, m1 - 1, m)) * det_fraction(
            delete_row_col(b, m, m2 - 1)
        )
    return lhs == rhs
