"""Fuzz the element names of every CLI input through `cli.main`.

Random tokens go into inline `--voltage` lists, `--subgroup`, `--chi`, and the
element fields of voltage, relation and matrix-representation files.  Each
run may pass (0), fail a verification (1) or be refused as bad input (2,
with an `error:` line); nothing else, and never a traceback.  Examples are
derandomized so a failure reproduces.
"""

import json
import tempfile
from pathlib import Path

import pytest

from helpers import run_cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
GROUPS = ("C2", "C3", "S3", "C2xC2")
# labels of the fuzzed groups, digit strings, and "." (an existing path, a directory)
LABELS = ("e", "(0 1)", "(0 1 2)", "(1,0)", "(0,1)", "(1,1)", "a0b", "0", "1", "2", ".")
# tokens: near-miss indices, real labels, and short strings of awkward characters
TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(LABELS),
    st.text(alphabet="0123456789-+ ()[],;.:/eab١²x", max_size=6),
)
# JSON values: tokens plus every non-string kind a file may hold
JSON_ELEMENTS = st.one_of(
    TOKENS,
    st.integers(-3, 12),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


def with_file(data, argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        return run_cli([*argv, str(path)])


@FUZZ
@hypothesis.given(spec=st.sampled_from(GROUPS), tokens=st.lists(TOKENS, max_size=3))
@hypothesis.example(spec="C2", tokens=["."])
def test_inline_voltage_tokens(spec, tokens):
    cover = ["--base", "bouquet:2", "--group", spec, "--voltage", ";".join(tokens)]
    run_cli(["cover", "kappa", *cover])


@FUZZ
@hypothesis.given(spec=st.sampled_from(GROUPS), tokens=st.lists(TOKENS, max_size=3))
@hypothesis.example(spec="S3", tokens=["99"])
@hypothesis.example(spec="S3", tokens=["-1"])
def test_subgroup_tokens(spec, tokens):
    cover = ["--base", "bouquet:2", "--group", spec, "--voltage", "1;1"]
    run_cli(["cover", "dot", *cover, "--subgroup", ";".join(tokens)])


@FUZZ
@hypothesis.given(spec=st.sampled_from(("C2", "C3", "C2xC2")), token=TOKENS)
@hypothesis.example(spec="C3", token="7")
@hypothesis.example(spec="C3", token="-1")
def test_chi_tokens(spec, token):
    cover = ["--base", "bouquet:2", "--group", spec, "--voltage", "1;0"]
    run_cli(["lfun", "h", *cover, "--chi", token])


@FUZZ
@hypothesis.given(spec=st.sampled_from(GROUPS), elements=st.tuples(JSON_ELEMENTS, JSON_ELEMENTS))
def test_voltage_file_elements(spec, elements):
    assignments = [{"edge": k, "element": x} for k, x in enumerate(elements)]
    data = {"group": spec, "assignments": assignments}
    with_file(data, ["cover", "kappa", "--base", "bouquet:2", "--voltage"])


@FUZZ
@hypothesis.given(elements=st.lists(JSON_ELEMENTS, max_size=4), coefficient=st.integers(-2, 2))
@hypothesis.example(elements=[99], coefficient=1)
def test_relation_file_elements(elements, coefficient):
    # with the identity, so that the subgroup check reaches the other elements
    data = [
        {"elements": ["e", *elements], "coefficient": coefficient},
        {"elements": [0], "coefficient": 1},
    ]
    cover = ["--base", "bouquet:2", "--group", "S3", "--voltage", "(0 1);(0 1 2)"]
    with_file(data, ["verify", "relation", *cover, "--relation"])


@FUZZ
@hypothesis.given(keys=st.lists(TOKENS, min_size=1, max_size=3, unique=True))
@hypothesis.example(keys=["0", "5"])
def test_rep_file_keys(keys):
    # the identity's matrix is 1 and the other element's is zeta_2 = -1
    matrices = {k: [[[1, 0]]] if i == 0 else [[[0, 1]]] for i, k in enumerate(keys)}
    data = {"group": "C2", "degree": 1, "e": 2, "matrices": matrices}
    cover = ["--base", "bouquet:2", "--group", "C2", "--voltage", "1;0"]
    with_file(data, ["lfun", "h", *cover, "--rep"])
