"""Exact linear algebra: fraction-free determinants and ranks.

Dense matrices are plain lists of lists.  Integer matrices go through one
fraction-free echelon (`_echelon`), which gives the determinant and the
rank; an entry that is not an `int` is refused, never truncated.
Rational matrices take the same echelon once each row is scaled to
integers (`_scaled_rows`).  Bareiss's step over the dual numbers
Z[t]/(t^2) gives det A and the derivative of det(A + tB) at t = 0 in one
pass (`det_int_derivative`); it takes symmetric A and B only, refuses any
other, and updates one triangle.  Sparse symmetric positive-definite
integer matrices, such as reduced Laplacians, go through fraction-free
elimination in two phases (`det_int_sparse_spd`): a symbolic phase on the
nonzero pattern checks symmetry, fixes the minimum-degree pivot order and
stores each pivot's row as its diagonal and its filled later columns, one
triangle; a numeric phase eliminates in that order and updates each
symmetric pair of entries once.  Its denominators are local: each row is
held over the determinants of the eliminated components of the pattern
next to it, not over the last pivot, and the determinant is the product
over the final components.  Once the rows left are the dense tail of the
order, all next to one component and so at one scale s, they go two pivots
a pass by Bareiss's two-step form of Sylvester's identity: each entry is
rewritten with 3 products and 1 division by s instead of 4 and 2, and the
division is exact because the new entry, a 3x3 determinant of entries over
s^2, is by that identity a minor of the matrix.  Matrices of integer
polynomials go through integer determinants at consecutive integers and
one integer interpolation; cyclotomic matrices reach them after a lift to
Z[x] (`lfunctions`).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Sequence

from .errors import InvariantError, NotSquareError
from .polynomials import IntPoly, interpolate_int_poly


def _check_square(m: Sequence[Sequence]) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NotSquareError(f"matrix is {n}x{len(row)}")
    return n


def _int_rows(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """A mutable copy of an integer matrix; any entry that is not an `int` raises."""
    rows = []
    for row in matrix:
        copy = list(row)
        for x in copy:
            if type(x) is not int:
                raise InvariantError(f"integer determinant of a non-integer entry {x!r}")
        rows.append(copy)
    return rows


def _echelon(m: list[list[int]]) -> tuple[int, int]:
    """Rank and signed last pivot of an integer matrix, eliminated in place.

    Bareiss's step with row exchanges, skipping a column with no pivot:
    every entry stays a minor, so each division is exact.  The signed last
    pivot is the determinant of a square matrix of full rank (1 if empty).
    """
    rows, cols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        if not m[rank][c]:
            r = next((i for i in range(rank + 1, rows) if m[i][c]), None)
            if r is None:
                continue
            m[rank], m[r] = m[r], m[rank]
            sign = -sign
        row_k = m[rank]
        pivot = row_k[c]
        for row_i in m[rank + 1 :]:
            f = row_i[c]
            for j in range(c + 1, cols):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
            row_i[c] = 0
        prev = pivot
        rank += 1
    return rank, sign * prev


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by the fraction-free echelon."""
    n = _check_square(matrix)
    rank, det = _echelon(_int_rows(matrix))
    return det if rank == n else 0


def det_int_derivative(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(det A, d/dt det(A + tB) at t = 0) for symmetric integer matrices A and B.

    Fraction-free Bareiss elimination over the dual numbers Z[t]/(t^2): the
    entry x + ty is held as the pair (x, y), and (n0 + t n1) / (p0 + t p1) is
    q0 = n0 // p0, q1 = (n1 - q0 p1) // p0.  Every entry is a minor of A + tB,
    so both divisions are exact once p0 != 0.  A and B must be symmetric;
    an entry (i, j) that differs from (j, i) in either raises `InvariantError`
    naming (i, j).  Every step then keeps the matrix symmetric, so it updates
    the entries on and after the diagonal only, each symmetric pair once,
    and reads the factor of row i from row k.  There is no row exchange:
    every pivot before the last is a proper leading principal minor, and its
    constant term, a leading principal minor of A, must be nonzero (it is
    positive for a connected graph's Laplacian).  A zero raises
    `InvariantError`.
    """
    n = _check_square(a)
    if _check_square(b) != n:
        raise NotSquareError(f"A is {n}x{n}, B is {len(b)}x{len(b)}")
    if n == 0:
        return 1, 0
    m0, m1 = _int_rows(a), _int_rows(b)
    for name, m in (("A", m0), ("B", m1)):
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise InvariantError(
                        f"entry ({i}, {j}) of {name} is {m[i][j]} but entry ({j}, {i}) is "
                        f"{m[j][i]}: matrix is not symmetric"
                    )
    prev0, prev1 = 1, 0
    for k in range(n - 1):
        row0_k, row1_k = m0[k], m1[k]
        p0, p1 = row0_k[k], row1_k[k]
        if p0 == 0:
            raise InvariantError(f"leading principal minor of order {k + 1} vanishes")
        for i in range(k + 1, n):
            row0_i, row1_i = m0[i], m1[i]
            f0, f1 = row0_k[i], row1_k[i]
            for j in range(i, n):
                x0, y0 = row0_i[j], row0_k[j]
                q0 = (x0 * p0 - f0 * y0) // prev0
                row1_i[j] = (
                    x0 * p1 + row1_i[j] * p0 - f0 * row1_k[j] - f1 * y0 - q0 * prev1
                ) // prev0
                row0_i[j] = q0
        prev0, prev1 = p0, p1
    return m0[n - 1][n - 1], m1[n - 1][n - 1]


def _pattern(rows: Sequence[dict[int, int]]) -> list[set[int] | None]:
    """The off-diagonal nonzero columns of each row, once every column index
    is checked to be in range and entry (i, j) to equal entry (j, i);
    `InvariantError` naming (i, j) otherwise."""
    n = len(rows)
    adj: list[set[int] | None] = []
    for i, row in enumerate(rows):
        cols = set()
        for j, v in row.items():
            if j.__class__ is not int or not 0 <= j < n:
                raise InvariantError(f"entry ({i}, {j!r}) lies outside the {n}x{n} matrix")
            if v and j != i:
                w = rows[j].get(i, 0)
                if w != v:
                    raise InvariantError(
                        f"entry ({i}, {j}) is {v} but entry ({j}, {i}) is {w}: "
                        "matrix is not symmetric"
                    )
                cols.add(j)
        adj.append(cols)
    return adj


def _not_positive_definite(pivot: int, p: int) -> InvariantError:
    """The refusal of a pivot that is not positive; callers test pivot <= 0."""
    return InvariantError(f"pivot {pivot} at row {p}: matrix is not positive definite")


def _symbolic_phase(rows: Sequence[dict[int, int]]) -> tuple[list[int], int, list[dict[int, int]]]:
    """The pivot order, the number of pivots before its dense tail and the
    stored rows of `det_int_sparse_spd`'s symbolic phase.

    stored[p] maps p to its diagonal entry and each of its filled later
    columns to its entry, 0 where the matrix has none.  Once the pivot's
    degree is the number of rows not yet taken less one, every such row has
    that least degree, so they form a clique, the dense tail: minimum degree
    with lowest-index ties would take them in ascending index, each filled
    with all later ones, so they are appended and stored so directly and the
    heap loop ends.  The last row is such a clique, so every order has a
    dense tail.
    """
    n = len(rows)
    adj = _pattern(rows)
    heap = [(len(cols), i) for i, cols in enumerate(adj)]
    heapify(heap)
    order: list[int] = []
    upper: list[dict[int, int] | None] = [None] * n  # a pivot's row: diagonal, later columns
    while True:
        degree, p = heappop(heap)
        if upper[p] is not None or degree != len(adj[p]):
            continue  # a stale entry: p was taken or its degree changed
        filled = adj[p]
        if degree == n - len(order) - 1:  # the dense tail: p is its least index
            tail = [p] + sorted(filled)
            for k, q in enumerate(tail):
                row = rows[q]
                upper[q] = {j: row.get(j, 0) for j in tail[k:]}
            return order + tail, len(order), upper
        order.append(p)
        row = rows[p]
        stored = {j: row.get(j, 0) for j in filled}
        stored[p] = row.get(p, 0)
        upper[p] = stored
        for i in filled:
            cols = adj[i]
            cols.discard(p)
            cols |= filled
            cols.discard(i)
            heappush(heap, (len(cols), i))
        adj[p] = None  # upper[p] holds what the numeric phase needs


def det_int_sparse_spd(rows: Sequence[dict[int, int]]) -> int:
    """Determinant of a symmetric positive-definite integer matrix in sparse rows.

    `rows[i]` maps column index to entry; the input is not modified.
    Fraction-free Bareiss elimination in two phases.

    The symbolic phase works on the nonzero pattern.  One pass over the
    entries checks that every column index is in range and that entry (i, j)
    equals entry (j, i), and raises `InvariantError` naming (i, j) otherwise
    (`_pattern`).
    The pattern is then eliminated in minimum-degree order: the pivot is
    always the remaining row with the fewest entries, ties broken by the
    lowest index, and it joins its remaining columns in every row they name.
    A reduced Laplacian's Schur complements stay M-matrices, so none of its
    entries cancels and this is the order that eliminating the values would
    choose.  When a row is taken as pivot, its filled set of later columns is
    final, and the row is stored as its diagonal and those columns, with 0
    where the matrix has no entry: one triangle, to which the numeric phase
    adds no column.  The rows left once every remaining row is next to every
    other are the dense tail, taken in index order (`_symbolic_phase`).

    The numeric phase takes the pivots in that order.  The eliminated rows
    fall into components, the connected pieces of the pattern restricted to
    them, tracked as one bit per component in an int mask; a row's
    components are those next to it.  Row i is held at its own scale s_i,
    the product of det A[C] over its components C: by Sylvester's identity
    its entry (i, j) is then the minor of A on the rows of those components
    and i against the same rows and j.  Pivot p at scale s_p has the
    diagonal det A[C'], C' being p with its components, a principal minor,
    so it must be positive, or `InvariantError`.  It rewrites each row i it
    reaches in place, in one pass over i and the columns after it, so each
    symmetric pair is updated once:

        f = a_pi s_i // s_p
        a_ij = (a_ij a_pp - f a_pj) // d,  d = prod det A[C], C next to i and p
        s_i = s_i // d * a_pp

    and row i's components lose p's and gain C'.  Every division is exact:
    f is entry (i, p) at row i's scale and the new a_ij is entry (i, j) at
    the new scale, both minors; d is a product of factors of s_i.  When i
    and p have the same components this is the global Bareiss step, d =
    s_p.  A row the pivot does not reach keeps its values and its scale, so
    a pivot's determinant enters only the rows it touches.  Positive
    definiteness makes every pivot positive, so no row exchange is needed,
    and the determinant is the product over the final components.

    A pivot in the dense tail reaches every row left.  Once one leaves its
    component C' the only one next to each of them (or the whole matrix is
    the tail), the rows left share one scale s = det A[C'], and the rest is
    global Bareiss elimination of a dense triangle, two pivots a pass
    (Bareiss's two-step form of Sylvester's identity, `_dense_tail_det`):
    3 products and 1 exact division per entry instead of 4 and 2.  Until
    then tail rows in different components take the one-pivot step above.
    The pivot order, every pivot value and every refusal are those of one
    pivot at a time.  A pivot that reaches no row makes a component that no
    later pivot merges, so the determinant is the product of such pivots and
    the tail's last.

    A matrix of at most two rows takes the same checks and the same pivots,
    a and then ad - b^2 (d when b = 0), with no bookkeeping: its
    determinant is 1, a or ad - b^2.
    """
    n = len(rows)
    if n <= 2:  # 1, a or ad - b^2, with the checks and pivots of the elimination
        _pattern(rows)
        a = rows[0].get(0, 0) if n else 1
        if a <= 0:
            raise _not_positive_definite(a, 0)
        if n < 2:
            return a
        b, d = rows[0].get(1, 0), rows[1].get(1, 0)
        pivot = a * d - b * b if b else d  # row 1 is a component of its own when b = 0
        if pivot <= 0:
            raise _not_positive_definite(pivot, 1)
        return a * d - b * b
    order, tail_start, upper = _symbolic_phase(rows)
    # numeric phase: each row at the scale of the eliminated components next to it
    comps = [0] * n  # a row's adjacent components, bit p for the one pivot p made
    # a row's scale, the product of their determinants, until the row is the
    # pivot; then the determinant of the component it made
    scale = [1] * n
    pivot_row = [0] * n  # the pivot's entries by column, 0 elsewhere
    det = 1  # the product over the components no later pivot merges
    merged = tail_start == 0  # the whole matrix is the tail, no row next to a component
    for k, p in enumerate(order):
        if merged:  # the rows left are the dense tail at one scale
            return det * _dense_tail_det(order[k:], upper, scale[p])
        row_p = upper[p]
        pivot = row_p.pop(p)  # det A[C] for the new component C: p and its components
        if pivot <= 0:
            raise _not_positive_definite(pivot, p)
        if not row_p:  # no later row is next to C, so no pivot merges it
            det *= pivot
        mask_p, s_p, bit = comps[p], scale[p], 1 << p
        scale[p] = pivot
        for j, v in row_p.items():
            pivot_row[j] = v
        # a tail pivot reaches every row left; they have merged once C is
        # the only component next to each of them
        merged = k >= tail_start
        for i, f in row_p.items():
            mask_i = comps[i]
            if mask_i == mask_p:  # the global Bareiss step: s_i = s_p = d
                d = s_p
                comps[i], scale[i] = bit, pivot
            else:
                s_i = scale[i]
                f = f * s_i // s_p  # exact: entry (i, p) at row i's scale, a minor
                d = _product_over_bits(mask_i & mask_p, scale)  # divides s_i
                rest = mask_i & ~mask_p
                merged = merged and not rest
                comps[i], scale[i] = rest | bit, s_i // d * pivot
            row = upper[i]
            for j, v in row.items():  # exact: the new entry at the new scale s_i is a minor
                row[j] = (v * pivot - f * pivot_row[j]) // d
        for j in row_p:
            pivot_row[j] = 0
    return det


def _dense_tail_det(tail: list[int], upper: list, s: int) -> int:
    """The last pivot of Bareiss elimination of a dense triangle, two pivots a pass.

    upper[i] holds the entries of row i at the columns of the tail from i
    on, all at the scale s, the determinant of what was eliminated before.
    A pass takes the pivots p, q of the first two rows.  Row q after p, and
    row p after q, are one-pivot Bareiss steps, so their entries

        x_i = (a_pp a_qi - a_pq a_pi) // s,   y_i = (a_qq a_pi - a_pq a_qi) // s

    are minors by Sylvester's identity, and x_q is q's pivot.  Each later
    entry becomes

        a_ij = (x_q a_ij - x_i a_qj - y_i a_pj) // s,

    the determinant of the 3x3 entries on p, q, i against p, q, j, expanded
    along its last column, over s^2: by Sylvester's identity a minor, so the
    division is exact.  The pivots a_pp and x_q are those of one pivot at a
    time, checked in that order; an odd tail ends with one pivot, and the
    last pivot is the determinant of the tail with the component before it.
    """
    m = len(tail)
    for k in range(0, m - 1, 2):
        p, q = tail[k], tail[k + 1]
        row_p, row_q = upper[p], upper[q]
        a_pp, a_pq, a_qq = row_p[p], row_p[q], row_q[q]
        if a_pp <= 0:
            raise _not_positive_definite(a_pp, p)
        pivot = (a_pp * a_qq - a_pq * a_pq) // s
        if pivot <= 0:
            raise _not_positive_definite(pivot, q)
        for i in tail[k + 2 :]:
            a_pi, a_qi = row_p[i], row_q[i]
            x = (a_pp * a_qi - a_pq * a_pi) // s
            y = (a_qq * a_pi - a_pq * a_qi) // s
            row = upper[i]
            for j, v in row.items():
                row[j] = (pivot * v - x * row_q[j] - y * row_p[j]) // s
        s = pivot
    if m % 2:
        s = upper[tail[-1]][tail[-1]]
        if s <= 0:
            raise _not_positive_definite(s, tail[-1])
    return s


def _product_over_bits(mask: int, values: list[int]) -> int:
    """The product of values[k] over the set bits k of mask."""
    product = 1
    while mask:
        low = mask & -mask
        product *= values[low.bit_length() - 1]
        mask ^= low
    return product


def _scaled_rows(matrix: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each rational row times the lcm of its denominators; the product of the lcms."""
    rows, total = [], 1
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        scale = 1
        for x in fracs:
            scale *= x.denominator // gcd(scale, x.denominator)
        rows.append([x.numerator * (scale // x.denominator) for x in fracs])
        total *= scale
    return rows, total


def det_fraction(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant over the rationals: `det_int` of the scaled rows over their scale."""
    rows, total = _scaled_rows(matrix)
    return Fraction(det_int(rows), total)


def rank_fraction(matrix: Sequence[Sequence]) -> int:
    """Rank over the rationals: the rank of the scaled rows, by `_echelon`."""
    return _echelon(_scaled_rows(matrix)[0])[0]


def sample_points(matrix: Sequence[Sequence[IntPoly]]) -> range:
    """Consecutive integers around 0, enough to interpolate det(matrix).

    The determinant has degree at most the sum of the row-wise maximal entry
    degrees, so that many plus one samples determine it.
    """
    bound = sum(max((p.degree for p in row if p), default=0) for row in matrix)
    return range(-(bound // 2), bound - bound // 2 + 1)


def det_int_poly_matrix(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Determinant of a matrix of integer polynomials.

    Evaluation-interpolation: integer determinants at `sample_points`, then
    one integer interpolation.
    """
    xs = sample_points(matrix)
    values = [det_int([[p(x) for p in row] for row in matrix]) for x in xs]
    return interpolate_int_poly(xs.start, values)
