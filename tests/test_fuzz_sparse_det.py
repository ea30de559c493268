"""Fuzz `linalg.det_int_sparse_spd` against one pivot at a time and `det_int`.

Each matrix is symmetric with 1-9 rows: random entries off the diagonal,
optionally a planted clique so the dense tail is long, and a diagonal that
is often, but not always, large enough for positive definiteness.  The
determinant, or the exact text of the refusal, must be that of
`helpers.det_sparse_spd_one_pivot`, which takes the same pivot order one
pivot at a time with no two-pivot pass; an accepted matrix must also give
`det_int`.  Examples are derandomized so a failure reproduces.
"""

import pytest

from galois_span.errors import InvariantError
from galois_span.linalg import det_int, det_int_sparse_spd
from helpers import det_sparse_spd_one_pivot

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)


def outcome(det, rows):
    try:
        return det(rows)
    except InvariantError as error:
        return str(error)


@FUZZ
@hypothesis.given(
    n=st.integers(1, 9),
    entries=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(-3, 3)), max_size=20
    ),
    clique=st.sets(st.integers(0, 8), max_size=9),
    diagonal=st.lists(st.integers(-1, 24), min_size=9, max_size=9),
)
@hypothesis.example(  # a 5-row clique: two passes and a lone last row
    n=5, entries=[], clique={0, 1, 2, 3, 4}, diagonal=[9] * 9
)
@hypothesis.example(  # rows 0 and 1 hang off the clique {2, 3, 4, 5} at different rows
    n=6, entries=[(0, 2, -2), (1, 3, 1)], clique={2, 3, 4, 5}, diagonal=[3, 2, 9, 9, 8, 9, 0, 0, 0]
)
def test_two_pivot_passes_match_one_pivot_at_a_time(n, entries, clique, diagonal):
    dense = [[0] * n for _ in range(n)]
    for i, j, v in entries:
        if i < n and j < n and i != j:
            dense[i][j] = dense[j][i] = v
    members = sorted(c for c in clique if c < n)
    for a, i in enumerate(members):
        for j in members[a + 1 :]:
            dense[i][j] = dense[j][i] = dense[i][j] or -1
    for i in range(n):
        dense[i][i] = diagonal[i]
    rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
    got = outcome(det_int_sparse_spd, rows)
    assert got == outcome(det_sparse_spd_one_pivot, rows)
    if isinstance(got, int):
        assert got == det_int(dense) > 0
    else:
        assert got.endswith(": matrix is not positive definite")
