"""Fuzz group-spec strings through `cli.main`.

Specs are built from atoms (well formed, near misses and empty pieces) joined
by `x`, from `perm:` generator lists and from `table:` files of random shape,
and go to `group info` and `group subgroups`.  Each run may pass (0), fail (1)
or be refused as bad input (2, with an `error:` line); nothing else, and
never a traceback.  Examples are derandomized so a failure reproduces.
"""

import json
import tempfile
from pathlib import Path

import pytest

from helpers import run_cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
ACTIONS = st.sampled_from(("info", "subgroups"))
# atoms of order at most 8, so a product of three stays cheap to build
GOOD_ATOMS = ("C1", "C2", "C3", "C6", "D1", "D3", "S1", "S3", "A3", "Q8", "Dic1", " C4 ")
BAD_ATOMS = ("", " ", "C", "C0", "D0", "S", "Q", "Q6", "Q12x", "Dic", "Dic0", "c2", "Z3",
             "C-1", "C2.0", "C²", "C٣", "C 2", "perm", "table", "(0 1)")
ATOMS = st.one_of(
    st.sampled_from(GOOD_ATOMS),
    st.sampled_from(BAD_ATOMS),
    st.text(alphabet="CDSAQicx0123-. ", max_size=4),
)
# permutation pieces on at most four points: well formed, malformed and empty
CYCLES = st.one_of(
    st.sampled_from(("(0 1)", "(0 1 2)", "(1 2)(0 3)", "(0,1)", "()", "", " ")),
    st.sampled_from(("(", ")", "(0 0)", "(a)", "(-1 0)", "(0 1", "0 1)", "(0 1))", "((0 1)")),
    st.text(alphabet="()0123 ,;-", max_size=6),
)
TABLE_ENTRIES = st.one_of(st.integers(-1, 3), st.floats(allow_nan=False), st.booleans(), st.none())
TABLE_ROWS = st.lists(st.lists(TABLE_ENTRIES, max_size=3), max_size=3)
TABLES = st.one_of(
    TABLE_ROWS,
    st.just([[0, 1], [1, 0]]),
    st.fixed_dictionaries({"table": TABLE_ROWS}),
    st.fixed_dictionaries({"table": st.just([[0, 1], [1, 0]]), "labels": st.lists(
        st.one_of(st.text(max_size=2), st.integers()), max_size=3)}),
    st.one_of(st.integers(), st.text(max_size=3), st.none(), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)),
)


@FUZZ
@hypothesis.given(atoms=st.lists(ATOMS, min_size=1, max_size=3), action=ACTIONS)
@hypothesis.example(atoms=[""], action="info")
@hypothesis.example(atoms=["C2", ""], action="subgroups")
@hypothesis.example(atoms=["Dic", ""], action="info")
def test_product_specs(atoms, action):
    run_cli(["group", action, "x".join(atoms)])


@FUZZ
@hypothesis.given(pieces=st.lists(CYCLES, max_size=3), action=ACTIONS)
@hypothesis.example(pieces=[], action="info")
@hypothesis.example(pieces=["(0 1"], action="subgroups")
def test_perm_specs(pieces, action):
    run_cli(["group", action, "perm:" + ";".join(pieces)])


@FUZZ
@hypothesis.given(table=TABLES, action=ACTIONS)
@hypothesis.example(table=[[0, 1], [1]], action="info")
@hypothesis.example(table={"labels": ["e"]}, action="subgroups")
def test_table_specs(table, action):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(table))
        run_cli(["group", action, f"table:{path}"])


@pytest.mark.parametrize("spec", ["table:", "table:missing-table.json", "perm:;;", "x"])
def test_specs_naming_nothing_are_refused(spec):
    assert run_cli(["group", "info", spec]) == 2
