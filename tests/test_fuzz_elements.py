"""Fuzz the element names and whole input files of every CLI input through `cli.main`.

Random tokens go into inline `--voltage` lists, `--subgroup`, `--chi`, and the
element fields of voltage and relation files.  Whole graph, voltage,
relation and `table:` files are random bytes, truncated
JSON, or JSON with one integer of 5000 digits, and `--base kind:token` takes
non-ASCII digits.  Each run may pass (0), fail a verification (1) or be
refused as bad input (2, with an `error:` line); nothing else, and never a
traceback.  Examples are derandomized so a failure reproduces.
"""

import json
import re
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


# kind -> (a valid file of that kind, the command that reads it, path last)
S3_COVER = ["--base", "bouquet:2", "--group", "S3", "--voltage", "(0 1);(0 1 2)"]
FILES = {
    "graph": ({"vertices": 2, "edges": [[0, 1], [0, 0], [1, 1]]}, ["graph", "kappa", "--base"]),
    "voltage": (
        {"group": "C2", "assignments": [{"edge": 0, "element": 1}, {"edge": 1, "element": 0}]},
        ["cover", "kappa", "--base", "bouquet:2", "--voltage"],
    ),
    "relation": (
        [
            {"elements": ["e"], "coefficient": 1},
            {"elements": [0, 1, 2, 3, 4, 5], "coefficient": 2},
            {"elements": ["e", "(0 1 2)", "(0 2 1)"], "coefficient": -1},
            {"elements": [0, "(0 1)"], "coefficient": -2},
        ],
        ["verify", "relation", *S3_COVER, "--relation"],
    ),
    "table": ({"table": [[0, 1], [1, 0]], "labels": ["e", "a"]}, ["group", "info", "table:"]),
}
BIG = "9" * 5000


def run_with_bytes(kind: str, content: bytes) -> int:
    _, argv = FILES[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(content)
        if argv[-1].endswith(":"):
            return run_cli([*argv[:-1], argv[-1] + str(path)])
        return run_cli([*argv, str(path)])


@pytest.mark.parametrize("kind", sorted(FILES))
def test_every_whole_file_fixture_is_accepted(kind):
    data, _ = FILES[kind]
    assert run_with_bytes(kind, json.dumps(data).encode()) in (0, 1)


@FUZZ
@hypothesis.given(kind=st.sampled_from(sorted(FILES)), content=st.binary(max_size=40))
@hypothesis.example(kind="graph", content=b"\xff")
@hypothesis.example(kind="table", content=b"[[0]]\xff")
@hypothesis.example(kind="relation", content=b"\xef\xbb\xbf[]")
@hypothesis.example(kind="voltage", content=b"[" * 100000)
def test_whole_files_of_random_bytes(kind, content):
    run_with_bytes(kind, content)


@FUZZ
@hypothesis.given(kind=st.sampled_from(sorted(FILES)), cut=st.integers(0, 200))
def test_whole_files_of_truncated_json(kind, cut):
    text = json.dumps(FILES[kind][0])
    run_with_bytes(kind, text[: cut % (len(text) + 1)].encode())


@FUZZ
@hypothesis.given(kind=st.sampled_from(sorted(FILES)), which=st.integers(0, 20), sign=st.booleans())
@hypothesis.example(kind="graph", which=0, sign=False)
def test_whole_files_with_a_5000_digit_integer(kind, which, sign):
    text = json.dumps(FILES[kind][0])
    numbers = list(re.finditer(r"-?\d+", text))
    hit = numbers[which % len(numbers)]
    big = ("-" if sign else "") + BIG
    assert run_with_bytes(kind, (text[: hit.start()] + big + text[hit.end() :]).encode()) == 2


@FUZZ
@hypothesis.given(
    kind=st.sampled_from(("bouquet", "cycle", "path", "complete")),
    token=st.text(alphabet="0123²³¹١٢٣४௫𝟙𝟚", min_size=1, max_size=4),
)
@hypothesis.example(kind="complete", token="²")
@hypothesis.example(kind="bouquet", token=BIG)
def test_base_kind_tokens(kind, token):
    run_cli(["graph", "kappa", "--base", f"{kind}:{token}"])
