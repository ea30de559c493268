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

`readme-S3`, `readme-Q8` and `seeded-D4-complete4` once ran `lfun h --rep`
on the right regular representation, whose h(u, rho) is h_Y(u).  They now
run `lfun h --chi k` for every class index k, as the abelian cases do, and
their digests were recorded again.  `REGULAR_REP_SHA256` keeps the sha256
of each old `--rep` stdout: the product over chi of h(u, chi)^chi(1), read
from the `--chi` outputs and printed as `lfun h` prints, must give those
bytes.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from galois_span.characters import character_table
from galois_span.cli import _load_base, main
from galois_span.covers import random_connected_voltage
from galois_span.cyclotomic import CyclotomicInt
from galois_span.groups import parse_group_spec
from galois_span.polynomials import IntPoly

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "galois_span", "fixtures")

# name -> (base, group, inline voltages or a seed for random_connected_voltage, lfun h)
# where lfun h says whether `lfun h --chi k` runs for every class index k
CASES = {
    "readme-C2xC6": ("bouquet:2", "C2xC6", "(1,0);(0,1)", True),
    "readme-S3": ("bouquet:2", "S3", "(0 1);(0 1 2)", True),
    "readme-Q8": ("bouquet:2", "Q8", "a1;a0b", True),
    "readme-C2xC2": ("bouquet:2", "C2xC2", "(1,0);(0,1)", True),
    "readme-C4-cycle3": ("cycle:3", "C4", "1;0;0", True),
    "fixture-fig2": ("bouquet2.json", "C2xC6", "fig2_voltage.json", True),
    "fixture-s3": ("bouquet2.json", "S3", "s3_voltage.json", False),
    "seeded-S4-complete4": ("complete:4", "S4", 3, False),
    "seeded-A4-bouquet3": ("bouquet:3", "A4", 5, False),
    "seeded-C3xS3-bouquet2": ("bouquet:2", "C3xS3", 7, False),
    "seeded-D4-complete4": ("complete:4", "D4", 11, True),
    "seeded-C2xS4-bouquet2": ("bouquet:2", "C2xS4", 19, False),
    "seeded-C2xC6-complete4": ("complete:4", "C2xC6", 13, True),
    "seeded-C2x4-bouquet4": ("bouquet:4", "C2xC2xC2xC2", 17, True),
}
# name -> sha256 of the stdout of `lfun h --rep` on the right regular
# representation, recorded before that option was removed
REGULAR_REP_SHA256 = {
    "readme-S3": "6564408f85a57e335953ea5fad38c137a658fd99d6c64dd843226ecf9920eef1",
    "readme-Q8": "792ac7247283ecdbf262a95dbccb3b52b0ef72ac4feec2b8e279ad28bf2b7375",
    "seeded-D4-complete4": "15a9d910e147f71f5b78c1c1a487bec4c6dff6b6737f10701a6cd2ad7b38c49c",
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


def _cover_args(name: str) -> list[str]:
    base, spec, voltage, _ = CASES[name]
    if isinstance(voltage, int):
        alpha = random_connected_voltage(_load_base(base), parse_group_spec(spec), voltage)
        voltage = ";".join(map(str, alpha.volt))
    return ["--base", _fixture(base), "--group", spec, "--voltage", _fixture(voltage)]


def lfun_h_commands(name: str) -> list[list[str]]:
    """`lfun h --chi k` on the case's cover for every class index k."""
    classes = parse_group_spec(CASES[name][1]).conjugacy_classes()
    return [["lfun", "h", *_cover_args(name), "--chi", str(k)] for k in range(len(classes))]


def case_commands(name: str) -> list[list[str]]:
    args = _cover_args(name)
    commands = [
        ["cover", "build", *args],
        ["cover", "intermediates", *args],
        ["cover", "dot", *args, "--subgroup", "1"],
    ]
    return commands + (lfun_h_commands(name) if CASES[name][3] else [])


def verify_commands(name: str) -> list[list[str]]:
    args = _cover_args(name)
    return [
        ["graph", "zeta", "--base", _fixture(CASES[name][0])],
        ["lfun", "verify-factor", *args],
        ["lfun", "verify-prop", *args],
        ["lfun", "verify-inter", *args, "--subgroup", "1"],
    ]


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def commands_digest(commands: list[list[str]]) -> str:
    digest = hashlib.sha256()
    for argv in commands:
        digest.update(stdout_of(argv).encode() + b"\n")
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
def test_cover_and_lfun_output_is_byte_identical_to_recorded_digest(name):
    assert commands_digest(case_commands(name)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REGULAR_REP_SHA256))
def test_character_product_prints_the_bytes_of_the_removed_regular_rep_output(name):
    # h(u, rho_reg) = prod_chi h(u, chi)^chi(1), with the conductor of the table
    table = character_table(parse_group_spec(CASES[name][1]))
    product, conductors = IntPoly.const(1), set()
    for chi, argv in zip(table.characters, lfun_h_commands(name)):
        out = json.loads(stdout_of(argv))
        conductors.add(out["conductor"])
        h = IntPoly([CyclotomicInt(out["conductor"], map(int, c)) for c in out["coefficients"]])
        for _ in range(chi.degree):
            product = product * h
    (conductor,) = conductors
    payload = {
        "degree": product.degree,
        "coefficients": [[str(x) for x in c.coeffs] for c in product.coeffs],
        "conductor": conductor,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REGULAR_REP_SHA256[name]


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
