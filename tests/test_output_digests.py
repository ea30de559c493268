"""Byte-identical CLI output for `cover build`, `cover intermediates`, `cover dot`,
`lfun h`, `graph zeta`, the three `lfun verify-*` commands and `family degree`.

Each case's digest is the sha256 over the stdout of every command run on it,
in order, each followed by a newline.  The digests in `output_digests.json`
were recorded before the derived graph and the intermediate quotients came
from one coset-quotient builder and before both integer zeta numerators came
from `graphs.zeta_numerator`; they pin vertex names, edge order and every
coefficient.  `cover dot --subgroup 1` prints the quotient by the cyclic
subgroup generated by element 1 (its DOT text goes to stderr).

The `zeta-verify:` digests cover `graph zeta` on the base and `lfun
verify-factor`, `verify-prop` and `verify-inter --subgroup 1` on every abelian
case whose base has chi != 0; `family-degree-readme` is the README's `family
degree` example.  They were recorded before every zeta numerator, twisted or
not, went through integer evaluation-interpolation.

The `selftest:` digests pin two seeded selftest runs, and `graph-zeta-irregular`
pins `graph zeta` on a graph with a leaf, a loop and a double edge.  They were
recorded before Hashimoto's h'(1) came from one elimination over Z[t]/(t^2) and
before voltage sampling tested connectivity by generation.  The third,
`selftest:seed2-conjugate-classes`, runs groups with large classes of
non-normal subgroups, whose conjugate check compares many quotients; it was
recorded before each cover kept its kappa(X_H) per subgroup and each group its
subgroup lists, posets and Moebius tables.

`cover-kappa` pins `cover kappa` (with its "galois" field) on every case, and
`verify-relation-S3` pins `verify relation` on the Artin relation
[1] + 2[S3] - [C3] - 2[C2] = 0 of S3 over `bouquet:2`, its elements given
both as indices and as labels.  Both were recorded before element names,
edge voltages, conjugates and the Galois test each came from one routine.

`verify-brauer-kuroda-C4xS4` pins `verify brauer-kuroda` on the 480-vertex
C4xS4 cover of `complete:5` (`random_connected_voltage` seed 1), whose
cleared sides have about 9300 digits, past Python's 4300-digit limit on
int-to-str conversion.  It was recorded once every output integer went
through `report.decimal_text`, and equals the output of the code before that
change run with the limit lifted.

`group-characters` pins `group characters` on S3 and A4: the order of the
characters that `lfun h --chi k` indexes, and their values.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from galois_span.cli import _load_base, main
from galois_span.covers import random_connected_voltage
from galois_span.groups import parse_group_spec

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "galois_span", "fixtures")

# name -> (base, group, inline voltages or a seed for random_connected_voltage, lfun h)
# where lfun h is "chars" (every abelian character), "regular" (the right regular
# representation from a file) or None
CASES = {
    "readme-C2xC6": ("bouquet:2", "C2xC6", "(1,0);(0,1)", "chars"),
    "readme-S3": ("bouquet:2", "S3", "(0 1);(0 1 2)", "regular"),
    "readme-Q8": ("bouquet:2", "Q8", "a1;a0b", "regular"),
    "readme-C2xC2": ("bouquet:2", "C2xC2", "(1,0);(0,1)", "chars"),
    "readme-C4-cycle3": ("cycle:3", "C4", "1;0;0", "chars"),
    "fixture-fig2": ("bouquet2.json", "C2xC6", "fig2_voltage.json", "chars"),
    "fixture-s3": ("bouquet2.json", "S3", "s3_voltage.json", None),
    "seeded-S4-complete4": ("complete:4", "S4", 3, None),
    "seeded-A4-bouquet3": ("bouquet:3", "A4", 5, None),
    "seeded-C3xS3-bouquet2": ("bouquet:2", "C3xS3", 7, None),
    "seeded-D4-complete4": ("complete:4", "D4", 11, "regular"),
    "seeded-C2xS4-bouquet2": ("bouquet:2", "C2xS4", 19, None),
    "seeded-C2xC6-complete4": ("complete:4", "C2xC6", 13, "chars"),
    "seeded-C2x4-bouquet4": ("bouquet:4", "C2xC2xC2xC2", 17, "chars"),
}

# abelian cases whose base has nonzero Euler characteristic
VERIFY_CASES = (
    "readme-C2xC6",
    "readme-C2xC2",
    "fixture-fig2",
    "seeded-C2xC6-complete4",
    "seeded-C2x4-bouquet4",
)
FAMILY_DEGREE_README = ["family", "degree", "--p", "2,3", "--s", "1,1", "--b", "0,1"]
SELFTEST_CASES = {
    "selftest:seed0": ["selftest", "--seed", "0", "--iters", "40"],
    "selftest:seed1-groups": [
        "selftest", "--seed", "1", "--iters", "40", "--groups", "S4,C2xA4,Dic5,C3xS3"
    ],
    "selftest:seed2-conjugate-classes": [
        "selftest", "--seed", "2", "--iters", "40", "--groups", "D4,D6,S4,C2xD4"
    ],
}
S3_ARTIN_RELATION = [
    {"elements": ["e"], "coefficient": 1},
    {"elements": [0, 1, 2, 3, 4, 5], "coefficient": 2},
    {"elements": ["e", "(0 1 2)", "(0 2 1)"], "coefficient": -1},
    {"elements": [0, "(0 1)"], "coefficient": -2},
]
GROUP_CHARACTERS = [["group", "characters", "S3"], ["group", "characters", "A4"]]
# (base, group, seed): a cover whose report has integers of more than 4300 digits
BIG_BRAUER_KURODA = ("complete:5", "C4xS4", 1)
# a triangle with a loop at 0, a double edge 1-2 and a leaf 3: degrees 5, 3, 4, 1
IRREGULAR_GRAPH = {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 0], [0, 0], [1, 2], [2, 3]]}

DIGESTS = json.loads((Path(__file__).parent / "output_digests.json").read_text())


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name) if name.endswith(".json") else name


def _regular_rep_file(spec: str, path: Path) -> str:
    """The right regular representation as a matrix-representation file."""
    g = parse_group_spec(spec)
    e = g.exponent()
    one, zero = [1] + [0] * (e - 1), [0] * e
    matrices = {
        str(x): [[one if g.mul(s, x) == t else zero for t in range(g.order)] for s in range(g.order)]
        for x in range(g.order)
    }
    path.write_text(json.dumps({"group": spec, "degree": g.order, "e": e, "matrices": matrices}))
    return str(path)


def _cover_args(name: str) -> list[str]:
    base, spec, voltage, _ = CASES[name]
    if isinstance(voltage, int):
        alpha = random_connected_voltage(_load_base(base), parse_group_spec(spec), voltage)
        voltage = ";".join(map(str, alpha.volt))
    return ["--base", _fixture(base), "--group", spec, "--voltage", _fixture(voltage)]


def case_commands(name: str, tmp_path: Path) -> list[list[str]]:
    _, spec, _, lfun = CASES[name]
    args = _cover_args(name)
    commands = [
        ["cover", "build", *args],
        ["cover", "intermediates", *args],
        ["cover", "dot", *args, "--subgroup", "1"],
    ]
    if lfun == "chars":
        commands += [
            ["lfun", "h", *args, "--chi", str(k)] for k in range(parse_group_spec(spec).order)
        ]
    elif lfun == "regular":
        rep = _regular_rep_file(spec, tmp_path / "regular.json")
        commands.append(["lfun", "h", *args, "--rep", rep])
    return commands


def verify_commands(name: str) -> list[list[str]]:
    args = _cover_args(name)
    return [
        ["graph", "zeta", "--base", _fixture(CASES[name][0])],
        ["lfun", "verify-factor", *args],
        ["lfun", "verify-prop", *args],
        ["lfun", "verify-inter", *args, "--subgroup", "1"],
    ]


def commands_digest(commands: list[list[str]]) -> str:
    digest = hashlib.sha256()
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        digest.update(out.getvalue().encode() + b"\n")
    return digest.hexdigest()


def test_every_case_has_a_digest():
    names = [
        *CASES,
        *(f"zeta-verify:{n}" for n in VERIFY_CASES),
        "family-degree-readme",
        *SELFTEST_CASES,
        "graph-zeta-irregular",
        "cover-kappa",
        "verify-relation-S3",
        "verify-brauer-kuroda-C4xS4",
        "group-characters",
    ]
    assert sorted(names) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cover_and_lfun_output_is_byte_identical_to_recorded_digest(name, tmp_path):
    assert commands_digest(case_commands(name, tmp_path)) == DIGESTS[name]


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_zeta_and_lfun_verify_output_is_byte_identical_to_recorded_digest(name):
    assert commands_digest(verify_commands(name)) == DIGESTS[f"zeta-verify:{name}"]


def test_family_degree_output_is_byte_identical_to_recorded_digest():
    assert commands_digest([FAMILY_DEGREE_README]) == DIGESTS["family-degree-readme"]


@pytest.mark.parametrize("name", sorted(SELFTEST_CASES))
def test_selftest_output_is_byte_identical_to_recorded_digest(name):
    assert commands_digest([SELFTEST_CASES[name]]) == DIGESTS[name]


def test_graph_zeta_on_irregular_graph_is_byte_identical_to_recorded_digest(tmp_path):
    path = tmp_path / "irregular.json"
    path.write_text(json.dumps(IRREGULAR_GRAPH))
    command = ["graph", "zeta", "--base", str(path)]
    assert commands_digest([command]) == DIGESTS["graph-zeta-irregular"]


def test_cover_kappa_output_is_byte_identical_to_recorded_digest():
    commands = [["cover", "kappa", *_cover_args(name)] for name in sorted(CASES)]
    assert commands_digest(commands) == DIGESTS["cover-kappa"]


def test_verify_relation_output_is_byte_identical_to_recorded_digest(tmp_path):
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(S3_ARTIN_RELATION))
    args = ["--base", "bouquet:2", "--group", "S3", "--voltage", "(0 1);(0 1 2)"]
    command = ["verify", "relation", *args, "--relation", str(path)]
    assert commands_digest([command]) == DIGESTS["verify-relation-S3"]


def test_verify_brauer_kuroda_past_the_digit_limit_is_byte_identical_to_recorded_digest():
    base, spec, seed = BIG_BRAUER_KURODA
    alpha = random_connected_voltage(_load_base(base), parse_group_spec(spec), seed)
    voltage = ";".join(map(str, alpha.volt))
    command = ["verify", "brauer-kuroda", "--base", base, "--group", spec, "--voltage", voltage]
    assert commands_digest([command]) == DIGESTS["verify-brauer-kuroda-C4xS4"]


def test_group_characters_output_is_byte_identical_to_recorded_digest():
    assert commands_digest(GROUP_CHARACTERS) == DIGESTS["group-characters"]
