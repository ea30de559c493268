import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

from galois_span import cli, family
from galois_span.cli import main
from galois_span.errors import GroupSpecError, OrderTooLargeError
from galois_span.groups import parse_group_spec

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "galois_span", "fixtures")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_graph_kappa(capsys):
    code, data = run(capsys, "graph", "kappa", "--base", "cycle:5")
    assert code == 0
    assert data["kappa"] == "5"


def test_graph_zeta(capsys):
    code, data = run(capsys, "graph", "zeta", "--base", "bouquet:2")
    assert code == 0
    assert data["h_coefficients"] == ["1", "-4", "3"]
    assert data["hashimoto"]["passed"] is True


def test_graph_zeta_refuses_h_that_disagrees_with_the_hashimoto_check(capsys, monkeypatch):
    # the printed h(u) is cross-checked against the check's own h'(1)
    from dataclasses import replace

    from galois_span import cli

    real = cli.hashimoto_check
    monkeypatch.setattr(cli, "hashimoto_check", lambda g: replace(real(g), left=real(g).left + 1))
    assert main(["graph", "zeta", "--base", "bouquet:2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: h'(1) of h(u) is 2, the Hashimoto check has 3\n"


def test_graph_dot(capsys, tmp_path):
    out = tmp_path / "g.dot"
    code = main(["graph", "dot", "--base", "bouquet:2", "--dot", str(out)])
    capsys.readouterr()
    assert code == 0
    assert "0 -- 0" in out.read_text()


def test_group_info(capsys):
    code, data = run(capsys, "group", "info", "S3")
    assert code == 0
    assert data["irreducibly_represented"] is True
    assert data["exceptional"] is False
    assert data["fixture_status"] == "match"


def test_group_table1_all(capsys):
    code, data = run(capsys, "group", "table1")
    assert code == 0
    assert all(r["fixture_status"] == "match" for r in data["rows"])


def test_group_subgroups(capsys):
    code, data = run(capsys, "group", "subgroups", "Q8")
    assert code == 0
    assert len(data["subgroups"]) == 6


def test_group_characters_prints_the_table_that_lfun_h_chi_indexes(capsys):
    code, data = run(capsys, "group", "characters", "A4")
    assert code == 0
    sizes = [c["size"] for c in data["classes"]]
    assert sorted(sizes) == [1, 3, 4, 4] and data["exponent"] == 6
    # each value is the multiplicity of zeta_6^k among the eigenvalues, k = 0..5
    assert [c["degree"] for c in data["characters"]] == [1, 1, 1, 3]
    for chi in data["characters"]:
        assert all(sum(v) == chi["degree"] for v in chi["values"])
    # the degree-3 character is 1 + 1 - 2 = -1 on the double transpositions
    assert data["characters"][3]["values"][sizes.index(3)] == [1, 0, 0, 2, 0, 0]
    # h(u, chi_k) over bouquet:2 has degree 2 n chi_k(1) = 2 chi_k(1)
    cover = ["--base", "bouquet:2", "--group", "A4", "--voltage", "1;4"]
    for k, chi in enumerate(data["characters"]):
        code, h = run(capsys, "lfun", "h", *cover, "--chi", str(k))
        assert code == 0 and h["degree"] == 2 * chi["degree"]


@pytest.mark.parametrize("action", ["characters", "info", "subgroups"])
def test_group_action_without_a_spec_is_refused_by_name(capsys, action):
    with pytest.raises(SystemExit) as exc:
        main(["group", action])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"galois-span group {action}: error: the following arguments are required: spec\n"
    )


def test_group_table1_without_a_spec_prints_every_fixture_row(capsys):
    from galois_span.table1 import TABLE1_FLAGS

    code, data = run(capsys, "group", "table1")
    assert code == 0
    assert [r["spec"] for r in data["rows"]] == sorted(TABLE1_FLAGS)


def test_group_table1_refuses_an_empty_spec_as_group_info_does(capsys):
    for action in ("table1", "info"):
        code = main(["group", action, ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: cannot parse empty factor in group spec ''\n"


def test_a_stdout_closed_by_its_reader_keeps_the_exit_code_and_prints_nothing():
    # the console script runs `main` in a fresh interpreter, as `-m` does here
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "galois_span.cli", "group", "table1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert done.stderr == b""


def test_a_failed_verification_on_a_closed_stdout_still_exits_one(capsys, monkeypatch):
    import galois_span.theorems as theorems

    monkeypatch.setitem(theorems.TABLE1_FLAGS, "S3", (False, False))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        code = main(["group", "table1", "S3"])
    assert code == 1
    assert capsys.readouterr().err == ""


def test_a_broken_pipe_writing_out_is_still_a_usage_error(capsys, monkeypatch, tmp_path):
    def broken(text, path, stream):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_write", broken)
    code = main(["group", "info", "S3", "--out", str(tmp_path / "info.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_poset_mobius(capsys):
    code, data = run(capsys, "poset", "mobius", "--group", "Q8", "--poset", "cyclic")
    assert code == 0
    entries = {(row["from"], row["to"]): row["mu"] for row in data["mu"]}
    assert entries[("1", "∞")] == "0"  # exceptional


def test_cover_kappa_fixture_files(capsys):
    base = os.path.join(FIXTURES, "bouquet2.json")
    voltage = os.path.join(FIXTURES, "fig2_voltage.json")
    code, data = run(capsys, "cover", "kappa", "--base", base, "--voltage", voltage)
    assert code == 0
    assert data["kappa_Y"] == "117600"


def test_cover_intermediates_inline_voltage(capsys):
    code, data = run(
        capsys,
        "cover",
        "intermediates",
        "--base",
        "bouquet:2",
        "--group",
        "S3",
        "--voltage",
        "(0 1);(0 1 2)",
    )
    assert code == 0
    kappas = sorted(int(r["kappa"]) for r in data["intermediates"])
    assert kappas == [1, 2, 7, 7, 7, 294]


def test_verify_kuroda_fig2(capsys):
    base = os.path.join(FIXTURES, "bouquet2.json")
    voltage = os.path.join(FIXTURES, "fig2_voltage.json")
    code, data = run(capsys, "verify", "kuroda", "--base", base, "--voltage", voltage)
    assert code == 0
    assert data["passed"] is True
    assert data["details"]["kappa_Y"] == "117600"


def test_verify_brauer_kuroda_s3(capsys):
    voltage = os.path.join(FIXTURES, "s3_voltage.json")
    code, data = run(
        capsys, "verify", "brauer-kuroda", "--base", "bouquet:2", "--voltage", voltage
    )
    assert code == 0
    assert data["passed"] is True


def test_verify_hmsv(capsys):
    code, data = run(
        capsys,
        "verify",
        "hmsv",
        "--base",
        "bouquet:2",
        "--group",
        "C2xC2",
        "--voltage",
        "(1,0);(0,1)",
    )
    assert code == 0 and data["passed"] is True


def test_verify_euler_zero(capsys):
    code, data = run(
        capsys,
        "verify",
        "euler-zero",
        "--base",
        "cycle:3",
        "--group",
        "C4",
        "--voltage",
        "1;0;0",
    )
    assert code == 0 and data["passed"] is True


def test_lfun_h_and_verifiers(capsys):
    code, data = run(
        capsys,
        "lfun",
        "h",
        "--base",
        "bouquet:2",
        "--group",
        "C4",
        "--voltage",
        "1;2",
        "--chi",
        "1",
    )
    assert code == 0
    assert data["degree"] == 2
    code, data = run(
        capsys, "lfun", "verify-prop", "--base", "bouquet:2", "--group", "C4", "--voltage", "1;2"
    )
    assert code == 0 and data["passed"] is True
    code, data = run(
        capsys, "lfun", "verify-factor", "--base", "bouquet:2", "--group", "C4", "--voltage", "1;2"
    )
    assert code == 0 and data["passed"] is True


def test_family_commands(capsys):
    code, data = run(capsys, "family", "det-m", "--p", "2", "--s", "2")
    assert code == 0
    assert data["details"]["det"] == "-1/4"
    assert data["details"]["sign_matches_paper"] is False
    assert data["details"]["magnitude_matches"] is True
    code, data = run(capsys, "family", "degree", "--p", "2", "--s", "2", "--b", "1")
    assert code == 0
    assert data["degrees"] == [
        {"a": [1], "degree": 0, "formula": 0},
        {"a": [2], "degree": 2, "formula": 2},
    ]
    code, data = run(capsys, "family", "nonexistence", "--n", "12")
    assert code == 0
    assert data["details"]["rank"] == data["details"]["matrix_size"] == "5"


def test_selftest(capsys):
    code, data = run(capsys, "selftest", "--seed", "0", "--iters", "4")
    assert code == 0
    assert data["all_passed"] is True


@pytest.mark.parametrize("groups", [None, "S3,C2xC2,S3"])
def test_selftest_parses_each_group_spec_once(capsys, monkeypatch, groups):
    # the random covers and the eq3 rows share one parsed group per spec
    import sys

    import galois_span.groups as groups_module

    parse = groups_module.parse_group_spec
    parsed = []

    def counting_parse(spec):
        parsed.append(spec)
        return parse(spec)

    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("galois_span") and (
            getattr(module, "parse_group_spec", None) is parse
        ):
            monkeypatch.setattr(module, "parse_group_spec", counting_parse)
    argv = ["selftest", "--seed", "3", "--iters", "6"]
    argv += ["--groups", groups] if groups else []
    code, data = run(capsys, *argv)
    assert code == 0 and data["all_passed"]
    specs = [row["group"] for row in data["eq3"]]
    assert sorted(parsed) == sorted(set(specs))


def test_verification_failure_exit_code(capsys, tmp_path):
    # disconnected cover: usage-level error (exit 2 via GaloisSpanError)
    code = main(
        ["verify", "kuroda", "--base", "bouquet:1", "--group", "C4", "--voltage", "2"]
    )
    capsys.readouterr()
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["graph", "frobnicate", "--base", "bouquet:2"])
    assert exc.value.code == 2


def test_out_file(capsys, tmp_path):
    out = tmp_path / "result.json"
    code = main(["graph", "kappa", "--base", "complete:4", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["kappa"] == "16"


def test_deterministic_output(capsys):
    for argv in (
        ["selftest", "--seed", "7", "--iters", "3"],
        ["verify", "kuroda", "--base", "bouquet:2", "--group", "C2xC6", "--voltage", "(1,0);(0,1)"],
    ):
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv


def test_verify_relation_cli(capsys, tmp_path):
    # Q8 exceptional relation: 2[G] + [C2] - [C3] - [C4] - [C5] = 0
    relation = tmp_path / "relation.json"
    relation.write_text(
        json.dumps(
            [
                {"elements": list(range(8)), "coefficient": 2},
                {"elements": [0, 2], "coefficient": 1},
                {"elements": [0, 1, 2, 3], "coefficient": -1},
                {"elements": [0, 2, 4, 6], "coefficient": -1},
                {"elements": [0, 2, 5, 7], "coefficient": -1},
            ]
        )
    )
    code, data = run(
        capsys,
        "verify",
        "relation",
        "--base",
        "bouquet:2",
        "--group",
        "Q8",
        "--voltage",
        "a1;a0b",
        "--relation",
        str(relation),
    )
    assert code == 0 and data["passed"] is True


def test_verify_relation_sums_repeated_entries(capsys, tmp_path):
    # the Artin relation [1] + 2[S3] - [C3] - 2[C2] of S3, with -2[C2] written
    # as two entries of -1 for the same subgroup
    relation = tmp_path / "relation.json"
    relation.write_text(
        json.dumps(
            [
                {"elements": ["e"], "coefficient": 1},
                {"elements": [0, 1, 2, 3, 4, 5], "coefficient": 2},
                {"elements": ["e", "(0 1 2)", "(0 2 1)"], "coefficient": -1},
                {"elements": ["e", "(0 1)"], "coefficient": -1},
                {"elements": [0, "(0 1)"], "coefficient": -1},
            ]
        )
    )
    code, data = run(capsys, "verify", "relation", *S3_COVER, "--relation", str(relation))
    assert code == 0 and data["status"] == "pass"
    assert data["left"] == data["right"] == "1764"


def test_poset_hasse_cli(capsys, tmp_path):
    dot = tmp_path / "h.dot"
    code = main(
        ["poset", "hasse", "--group", "S3", "--poset", "cyclic", "--dot", str(dot)]
    )
    capsys.readouterr()
    assert code == 0
    assert dot.read_text().count("->") == 8


def test_table1_mismatch_exits_one(capsys, monkeypatch):
    import galois_span.theorems as theorems

    monkeypatch.setitem(theorems.TABLE1_FLAGS, "S3", (False, False))
    code, data = run(capsys, "group", "table1", "S3")
    assert code == 1
    assert data["rows"][0]["fixture_status"] == "mismatch"


def test_bad_inputs_exit_two(capsys):
    for argv in (["family", "det-m"], ["family", "nonexistence"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(
        ["cover", "kappa", "--base", "bouquet:2", "--group", "S3", "--voltage", "nope;(0 1)"]
    ) == 2
    assert main(["graph", "kappa", "--base", "missing-file.json"]) == 2
    capsys.readouterr()


def test_an_untyped_value_error_is_not_reported_as_bad_input(monkeypatch):
    # only a GaloisSpanError or an OSError is bad input (exit 2); a bare
    # ValueError or KeyError is a bug and keeps its traceback
    import galois_span.cli as cli

    for exc in (ValueError("invalid literal"), KeyError("missing")):

        def broken(c, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "verify_prop_formula", broken)
        with pytest.raises(type(exc)):
            main(["lfun", "verify-prop", "--base", "bouquet:2", "--group", "C2", "--voltage", "1;0"])


def test_internal_error_exits_three(capsys, monkeypatch):
    from dataclasses import replace

    import galois_span.characters as characters
    from galois_span.errors import InvariantError

    real_verify = characters._verify_table

    def corrupt(table):
        raise ArithmeticError("row orthogonality fails at (0,1)")

    monkeypatch.setattr(characters, "_verify_table", corrupt)
    assert main(["group", "characters", "Q8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: row orthogonality fails at (0,1)\n"

    # the real check on a corrupted table raises the library's InvariantError
    raised = []

    def swap_then_verify(table):
        chars = list(table.characters)
        chars[1] = replace(chars[1], values=chars[0].values)
        table.characters = tuple(chars)
        try:
            real_verify(table)
        except ArithmeticError as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(characters, "_verify_table", swap_then_verify)
    assert main(["group", "characters", "Q8"]) == 3
    assert raised == [InvariantError]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: row orthogonality fails at ")


# rho(1) = [[0, 1/2], [2, 0]]: the swap conjugated by diag(1, 2), a true
# representation of C2 over Q but not over Z[zeta_2]
HALF_REP = {
    "group": "C2",
    "degree": 2,
    "e": 2,
    "matrices": {
        "0": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "1": [[[0, 0], [0.5, 0]], [[2, 0], [0, 0]]],
    },
}
COVER = ["--base", "bouquet:2", "--group", "C2", "--voltage", "1;0"]
# what the error names -> (file contents, command whose last option takes the file)
NON_INTEGER_FILES = {
    "graph vertices": ({"vertices": 2.9, "edges": [[0, 1], [1, 1]]}, ["graph", "kappa", "--base"]),
    "edge endpoint": ({"vertices": 2, "edges": [[0, 1], [True, 1]]}, ["graph", "kappa", "--base"]),
    "voltage edge": (
        {"group": "C2", "assignments": [{"edge": 0.5, "element": 1}]},
        ["cover", "kappa", "--base", "bouquet:2", "--voltage"],
    ),
    "relation coefficient": (
        [{"elements": [0, 1], "coefficient": 1.5}, {"elements": [0], "coefficient": -1}],
        ["verify", "relation", *COVER, "--relation"],
    ),
    "voltage element": (
        {"group": "C2", "assignments": [{"edge": 0, "element": True}]},
        ["cover", "kappa", "--base", "bouquet:2", "--voltage"],
    ),
    "relation element": (
        [{"elements": [0, True], "coefficient": 1}, {"elements": [0], "coefficient": -2}],
        ["verify", "relation", *COVER, "--relation"],
    ),
    "rep degree": ({**HALF_REP, "degree": 2.0}, ["lfun", "h", *COVER, "--rep"]),
    "rep e": ({**HALF_REP, "e": "2"}, ["lfun", "h", *COVER, "--rep"]),
    "rep entry": (
        HALF_REP,
        ["lfun", "h", "--base", "complete:3", "--group", "C2", "--voltage", "1;0;0", "--rep"],
    ),
}


S3_COVER = ["--base", "bouquet:2", "--group", "S3", "--voltage", "(0 1);(0 1 2)"]
C3_COVER = ["--base", "bouquet:2", "--group", "C3", "--voltage", "1;0"]
C2_REP = {"group": "C2", "degree": 1, "e": 2, "matrices": {"0": [[[1, 0]]], "5": [[[0, 1]]]}}
# what is refused -> (argv, file contents for the last option or None, error message)
REFUSED_ELEMENTS = {
    "subgroup out of range": (
        ["cover", "dot", *S3_COVER, "--subgroup", "99"],
        None,
        "element 99 out of range: S3 has order 6",
    ),
    "negative subgroup": (
        ["cover", "dot", *S3_COVER, "--subgroup", "-1"],
        None,
        "no element labelled '-1' in S3",
    ),
    "voltage out of range": (
        ["cover", "kappa", "--base", "bouquet:2", "--group", "C2", "--voltage", "3;0"],
        None,
        "element 3 out of range: C2 has order 2",
    ),
    "relation element out of range": (
        ["verify", "relation", *S3_COVER, "--relation"],
        [{"elements": [0, 99], "coefficient": 1}, {"elements": [0], "coefficient": -1}],
        "relation element 99 out of range: S3 has order 6",
    ),
    "rep key out of range": (
        ["lfun", "h", *COVER, "--rep"],
        C2_REP,
        "rep element 5 out of range: C2 has order 2",
    ),
    "chi above the range": (
        ["lfun", "h", *C3_COVER, "--chi", "7"],
        None,
        "--chi must be in 0..2, got 7",
    ),
    "negative chi": (
        ["lfun", "h", *C3_COVER, "--chi", "-1"],
        None,
        "--chi must be in 0..2, got -1",
    ),
}


@pytest.mark.parametrize("what", sorted(REFUSED_ELEMENTS))
def test_bad_element_or_character_index_is_a_usage_error(capsys, tmp_path, what):
    argv, data, message = REFUSED_ELEMENTS[what]
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = [*argv, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_unreadable_input_file_is_a_usage_error_that_names_the_file(capsys):
    assert main(["graph", "kappa", "--base", "missing-file.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(": 'missing-file.json'\n")
    # an existing path is read as a voltage file, and a directory is refused
    assert main(["cover", "kappa", "--base", "bouquet:2", "--group", "C2", "--voltage", "."]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(": '.'\n")


def test_subgroup_takes_a_semicolon_separated_list(capsys):
    cover = ["--base", "bouquet:2", "--group", "C2xC2", "--voltage", "(1,0);(0,1)"]
    code, data = run(capsys, "cover", "dot", *cover, "--subgroup", "(1,0)")
    assert code == 0 and data["vertices"] == 2
    code, data = run(capsys, "cover", "dot", *cover, "--subgroup", "(1,0); 1")
    assert code == 0 and data["vertices"] == 1
    code, data = run(capsys, "lfun", "verify-inter", *cover, "--subgroup", "(1,0);(0,1)")
    assert code == 0 and data["passed"] is True


@pytest.mark.parametrize("what", sorted(NON_INTEGER_FILES))
def test_json_readers_refuse_non_integer_numbers(capsys, tmp_path, what):
    data, argv = NON_INTEGER_FILES[what]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {what} must be an integer, got ")
    assert "Traceback" not in captured.err


# spec -> the one-line refusal of `group info` and `group subgroups`
MALFORMED_SPECS = {
    "": "cannot parse empty factor in group spec ''",
    "C2x": "cannot parse empty factor in group spec 'C2x'",
    "C2xxC3": "cannot parse empty factor in group spec 'C2xxC3'",
    "Z5": "cannot parse group atom 'Z5' in group spec 'Z5'",
    "C0": "cannot parse group atom 'C0' in group spec 'C0'",
    "C-2": "cannot parse group atom 'C-2' in group spec 'C-2'",
    "Dic": "cannot parse group atom 'Dic' in group spec 'Dic'",
    "Q6": "Q6 is not a dicyclic order (use multiples of 4, >= 8)",
    "perm:": "group spec 'perm:' names no permutation",
    "perm:(0 1": "bad cycle notation in permutation '(0 1'",
    "perm:(0 a)": "bad cycle notation in permutation '(0 a)'",
    "perm:(0 1 0)": "cycle repeats a point in permutation '(0 1 0)'",
}


@pytest.mark.parametrize("spec", sorted(MALFORMED_SPECS))
@pytest.mark.parametrize("action", ["info", "subgroups"])
def test_malformed_group_spec_is_a_usage_error_that_names_the_atom(capsys, action, spec):
    assert main(["group", action, spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {MALFORMED_SPECS[spec]}\n"



def test_group_spec_above_the_order_bound_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("GALOIS_SPAN_MAX_ORDER", raising=False)
    assert main(["group", "info", "S333"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: group spec 'S333' has order above 128, the bound set by GALOIS_SPAN_MAX_ORDER\n"
    )


@pytest.mark.parametrize("value", ["abc", "0", "-5", " 12", "9" * 4301])
def test_a_malformed_order_bound_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", value)
    assert main(["group", "info", "C1"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: GALOIS_SPAN_MAX_ORDER must be a positive decimal integer of at most 4300"
        f" digits, got {value!r}\n",
    )


def test_atom_size_with_more_digits_than_the_order_bound_is_refused_unconverted(
    capsys, monkeypatch
):
    # 5000 digits: int() of the size would raise Python's own 4300-digit error
    monkeypatch.delenv("GALOIS_SPAN_MAX_ORDER", raising=False)
    atom = "C" + "9" * 5000
    assert main(["group", "info", f"C2x{atom}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: group atom {atom!r} in group spec 'C2x{atom}' has order above 128,"
        " the bound set by GALOIS_SPAN_MAX_ORDER\n"
    )
    with pytest.raises(OrderTooLargeError):
        parse_group_spec(atom)
    assert parse_group_spec("C00012").order == 12


@pytest.mark.parametrize("point", ["999999", "9" * 5000])
def test_perm_point_above_the_domain_bound_is_refused_before_any_tuple_is_built(
    capsys, point
):
    spec = f"perm:(0 {point})"
    tracemalloc.start()
    try:
        assert main(["group", "info", spec]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a domain of 10^6 points took 124 MB
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: permutation '(0 {point})' in group spec {spec!r} names a point"
        " above 511, the largest point of a perm: domain\n"
    )
    with pytest.raises(GroupSpecError):
        parse_group_spec(spec)
    assert parse_group_spec("perm:(0 511)").order == 2


# file contents -> (command whose last option takes the file, error message)
MISSHAPEN_FILES = {
    "relation file of numbers": (
        [1],
        ["verify", "relation", *COVER, "--relation"],
        'relation entry must be a JSON object {"elements": ..., "coefficient": ...}, got 1',
    ),
    "relation file that is an object": (
        {"elements": [0], "coefficient": 1},
        ["verify", "relation", *COVER, "--relation"],
        "relation file must be a JSON array, got {'elements': [0], 'coefficient': 1}",
    ),
    "relation elements that are a number": (
        [{"elements": 0, "coefficient": 1}],
        ["verify", "relation", *COVER, "--relation"],
        "relation elements must be a JSON array, got 0",
    ),
    "voltage assignment that is a number": (
        {"group": "C2", "assignments": [5]},
        ["cover", "kappa", "--base", "bouquet:2", "--voltage"],
        'voltage assignment must be a JSON object {"edge": ..., "element": ...}, got 5',
    ),
    "voltage file that is an array": (
        [1],
        ["cover", "kappa", "--base", "bouquet:2", "--voltage"],
        'voltage file must be a JSON object {"group": ..., "assignments": ...}, got [1]',
    ),
    "voltage group that is a number": (
        {"group": 2, "assignments": []},
        ["cover", "kappa", "--base", "bouquet:2", "--voltage"],
        "group spec must be a string, got 2",
    ),
    "graph file without edges": (
        {"vertices": 2},
        ["graph", "kappa", "--base"],
        'graph file must be a JSON object {"vertices": ..., "edges": ...}, got {\'vertices\': 2}',
    ),
    "graph edge of three vertices": (
        {"vertices": 2, "edges": [[0, 1, 1]]},
        ["graph", "kappa", "--base"],
        "graph edge must be a pair [u, v], got [0, 1, 1]",
    ),
    "graph names that are a string": (
        {"vertices": 2, "edges": [[0, 1]], "names": "ab"},
        ["graph", "kappa", "--base"],
        "graph names must be a JSON array, got 'ab'",
    ),
    "rep matrices that are an array": (
        {"group": "C2", "degree": 1, "e": 2, "matrices": []},
        ["lfun", "h", *COVER, "--rep"],
        "rep matrices must be a JSON object, got []",
    ),
    "rep entry that is a number": (
        {"group": "C2", "degree": 1, "e": 2, "matrices": {"0": [[1]], "1": [[[0, 1]]]}},
        ["lfun", "h", *COVER, "--rep"],
        "rep entry must be a JSON array, got 1",
    ),
    "rep conductor zero": (
        {"group": "C2", "degree": 1, "e": 0, "matrices": {}},
        ["lfun", "h", *COVER, "--rep"],
        "rep e must be positive, got 0",
    ),
}


@pytest.mark.parametrize("what", sorted(MISSHAPEN_FILES))
def test_json_readers_refuse_a_misshapen_file_naming_the_shape(capsys, tmp_path, what):
    data, argv, message = MISSHAPEN_FILES[what]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [1]], "Cayley table is not square"),
        ({"labels": ["e", "a"]}, "Cayley table file {path} must be a JSON object"),
        ([[0, 1.0], [1, 0]], "Cayley table entry must be an integer, got 1.0"),
        ({"table": [[0, 1], [1, 0]], "labels": [0, 1]}, "Cayley table labels must be strings"),
    ],
)
def test_cayley_table_file_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path, table, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert main(["group", "subgroups", f"table:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message.format(path=path)}")
    assert captured.err.count("\n") == 1


NO_DOT_COMMANDS = [
    ["group", "info", "S3"],
    ["lfun", "h", *COVER],
    ["verify", "kuroda", *COVER],
    ["family", "nonexistence", "--n", "4"],
    ["selftest", "--iters", "1"],
]


@pytest.mark.parametrize("command", NO_DOT_COMMANDS, ids=lambda argv: argv[0])
def test_dot_is_a_usage_error_where_no_dot_is_written(command, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--dot", str(tmp_path / "x.dot")])
    assert exc.value.code == 2


def outcome(capsys, call, argv):
    """Exit code, stdout and stderr of `call(argv)`, an argparse exit included."""
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def whole_tree_main(argv):
    """`main` as it was before actions got standalone parsers."""
    return cli.run(cli.build_parser().parse_args(argv))


# the Artin relation [1] + 2[S3] - [C3] - 2[C2] of S3
S3_ARTIN_RELATION = [
    {"elements": ["e"], "coefficient": 1},
    {"elements": [0, 1, 2, 3, 4, 5], "coefficient": 2},
    {"elements": ["e", "(0 1 2)", "(0 2 1)"], "coefficient": -1},
    {"elements": [0, "(0 1)"], "coefficient": -2},
]
# (command, action) -> the rest of an argv that runs it to exit 0 in a
# directory holding `relation.json` (S3_ARTIN_RELATION)
ACTION_RUNS = {
    ("graph", "kappa"): ["--base", "cycle:5"],
    ("graph", "zeta"): ["--base", "bouquet:2"],
    ("graph", "dot"): ["--base", "bouquet:2", "--dot", "g.dot"],
    ("group", "info"): ["S3"],
    ("group", "table1"): ["S3"],
    ("group", "subgroups"): ["S3"],
    ("group", "characters"): ["S3"],
    ("poset", "hasse"): ["--group", "S3", "--poset", "kernel", "--dot", "h.dot"],
    ("poset", "mobius"): ["--group", "S3"],
    ("cover", "build"): [*COVER, "--dot", "y.dot"],
    ("cover", "kappa"): COVER,
    ("cover", "intermediates"): COVER,
    ("cover", "dot"): [*COVER, "--subgroup", "1", "--dot", "xh.dot"],
    ("lfun", "h"): [*COVER, "--chi", "1"],
    ("lfun", "verify-prop"): COVER,
    ("lfun", "verify-factor"): COVER,
    ("lfun", "verify-inter"): [*COVER, "--subgroup", "1"],
    ("verify", "kuroda"): COVER,
    ("verify", "brauer-kuroda"): COVER,
    ("verify", "hmsv"): COVER,
    ("verify", "relation"): [*S3_COVER, "--relation", "relation.json"],
    ("verify", "euler-zero"): ["--base", "cycle:3", "--group", "C4", "--voltage", "1;0;0"],
    ("family", "degree"): ["--p", "2", "--s", "2", "--b", "1"],
    ("family", "det-m"): ["--p", "2", "--s", "2"],
    ("family", "nonexistence"): ["--n", "12"],
    ("selftest", None): ["--iters", "1"],
}


def action_argv(command, action):
    return [command, *([action] if action else []), *ACTION_RUNS[command, action]]


def action_id(argv):
    return " ".join(argv) or "(none)"


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """A working directory holding `relation.json`."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "relation.json").write_text(json.dumps(S3_ARTIN_RELATION))
    return tmp_path


def test_every_action_has_a_run():
    actions = {(c, a) for c, (_, by_action) in cli.COMMANDS.items() for a in by_action}
    assert set(ACTION_RUNS) == actions
    assert len(FOREIGN_OPTIONS) == 27


# (command, action, option) for the 27 pairs that the parser of the command
# accepted and the handler of the action never read
FOREIGN_OPTIONS = [
    ("graph", "kappa", ["--dot", "x.dot"]),
    ("graph", "zeta", ["--dot", "x.dot"]),
    ("poset", "mobius", ["--dot", "x.dot"]),
    ("cover", "build", ["--subgroup", "1"]),
    ("cover", "kappa", ["--subgroup", "1"]),
    ("cover", "kappa", ["--dot", "x.dot"]),
    ("cover", "intermediates", ["--subgroup", "1"]),
    ("cover", "intermediates", ["--dot", "x.dot"]),
    ("lfun", "h", ["--subgroup", "1"]),
    *(
        ("lfun", action, option)
        for action in ("verify-prop", "verify-factor")
        for option in (["--chi", "1"], ["--rep", "rep.json"], ["--subgroup", "1"])
    ),
    ("lfun", "verify-inter", ["--chi", "1"]),
    ("lfun", "verify-inter", ["--rep", "rep.json"]),
    *(
        ("verify", action, ["--relation", "relation.json"])
        for action in ("kuroda", "brauer-kuroda", "hmsv", "euler-zero")
    ),
    ("family", "degree", ["--n", "6"]),
    ("family", "det-m", ["--b", "1"]),
    ("family", "det-m", ["--n", "6"]),
    *(("family", "nonexistence", [option, "2"]) for option in ("--p", "--s", "--b")),
]


@pytest.mark.parametrize(
    "command, action, option", FOREIGN_OPTIONS, ids=lambda x: x if isinstance(x, str) else x[0]
)
def test_an_option_the_action_does_not_read_is_refused_before_any_work(
    capsys, in_tmp, command, action, option
):
    before = sorted(in_tmp.iterdir())
    code, out, err = outcome(capsys, main, [*action_argv(command, action), *option])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"galois-span: error: unrecognized arguments: {' '.join(option)}"
    assert sorted(in_tmp.iterdir()) == before


# an argv without an option its action cannot run without -> the options named
MISSING_REQUIRED = {
    "verify relation": (["verify", "relation", *S3_COVER], "--relation"),
    "lfun verify-inter": (["lfun", "verify-inter", *C3_COVER], "--subgroup"),
    "family det-m": (["family", "det-m"], "--p, --s"),
    "family det-m --s": (["family", "det-m", "--p", "2"], "--s"),
    "family degree": (["family", "degree", "--p", "2", "--s", "1"], "--b"),
    "family nonexistence": (["family", "nonexistence"], "--n"),
    "group characters": (["group", "characters"], "spec"),
}


@pytest.mark.parametrize("what", sorted(MISSING_REQUIRED))
def test_a_missing_required_option_is_refused_by_argparse_without_a_traceback(
    capsys, monkeypatch, what
):
    argv, names = MISSING_REQUIRED[what]
    monkeypatch.setattr(cli, "_cover_from_args", lambda args: pytest.fail("reached the handler"))
    code, out, err = outcome(capsys, main, argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    prog = " ".join(["galois-span", *argv[:2]])
    assert err.splitlines()[-1] == f"{prog}: error: the following arguments are required: {names}"


@pytest.mark.parametrize(
    "options",
    [["--chi", "1", "--rep", "REP"], ["--chi", "0", "--rep", "REP"], ["--rep", "REP", "--chi", "0"]],
)
def test_lfun_h_takes_chi_or_rep_not_both(capsys, tmp_path, options):
    # --chi 0 is the index used without --chi, and is refused all the same
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({**C2_REP, "matrices": {"0": [[[1, 0]]], "1": [[[0, 1]]]}}))
    argv = ["lfun", "h", *COVER, *(str(rep) if word == "REP" else word for word in options)]
    code, out, err = outcome(capsys, main, argv)
    assert (code, out) == (2, "")
    first, second = sorted(["--chi", "--rep"], key=options.index)
    assert err.splitlines()[-1] == (
        f"galois-span lfun h: error: argument {second}: not allowed with argument {first}"
    )


SUCCESSFUL_RUNS = [
    ["graph", "kappa", "--base", "cycle:5"],
    ["group", "info", "S3"],
    ["poset", "mobius", "--group", "S3"],
    ["cover", "kappa", *COVER],
    ["lfun", "h", *COVER],
    ["verify", "kuroda", *COVER],
    ["family", "det-m", "--p", "2", "--s", "2"],
    ["selftest", "--iters", "1"],
]
PARITY_ARGVS = [
    [],
    ["--help"],
    ["--version"],
    ["frobnicate"],
    *([name] for name in cli.COMMANDS),
    *([name, "-h"] for name in cli.COMMANDS),
    *([c, a, "-h"] for c, a in ACTION_RUNS if a),
    ["graph", "frobnicate", "--base", "bouquet:2"],
    *([*command, "--dot", "x.dot"] for command in NO_DOT_COMMANDS),
    # one option per action that the action does not take
    *(
        [*action_argv(c, a), *(["--dot", "x.dot"] if a == "relation" else ["--relation", "r"])]
        for c, a in ACTION_RUNS
    ),
    *(argv for argv, _ in MISSING_REQUIRED.values()),
    ["poset", "mobius", "--group", "S3", "--poset", "lattice"],
    ["lfun", "h", *COVER, "--chi", "x"],
    ["lfun", "h", *COVER, "--chi", "1", "--rep", "rep.json"],
    *SUCCESSFUL_RUNS,
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=action_id)
def test_a_standalone_command_parser_answers_as_the_whole_tree(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    expected = outcome(capsys, whole_tree_main, argv)
    assert outcome(capsys, main, argv) == expected


@pytest.mark.parametrize("argv", [action_argv(*key) for key in ACTION_RUNS], ids=action_id)
def test_a_command_builds_only_its_own_parser(argv, capsys, monkeypatch, in_tmp):
    code, expected, expected_err = outcome(capsys, whole_tree_main, argv)
    assert code == 0

    def refuse():
        raise AssertionError("the whole parser tree was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert outcome(capsys, main, argv) == (0, expected, expected_err)


def readme_options_table() -> dict:
    """(command, action) -> (required, optional) option names, from the README's table."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    rows = text.split("| actions | required | optional |\n|---|---|---|\n", 1)[1]
    table = {}
    for row in rows.split("\n\n", 1)[0].splitlines():
        cells = row.replace("SPEC", "spec").strip("|").split("|")
        actions, required, optional = (re.findall(r"`([^`]+)`", cell) for cell in cells)
        for words in actions:
            command, _, action = words.partition(" ")
            table[command, action or None] = (sorted(required), sorted(optional))
    return table


def declared_options(capsys, command, action) -> tuple[list, list]:
    """(required, optional) option names of an action, read off its one-line usage."""
    words = [command, action] if action else [command]
    code, out, _ = outcome(capsys, main, [*words, "-h"])
    assert code == 0
    usage = out.splitlines()[0].removeprefix(f"usage: galois-span {' '.join(words)} ")
    optional = {
        choice.split()[0]
        for group in re.findall(r"\[([^]]*)\]", usage)
        for choice in group.split(" | ")
    }
    rest = re.sub(r"\[[^]]*\]", "", usage).split()
    required = [word for word in rest if word.startswith("--") or word.islower()]
    return sorted(required), sorted(optional - {"-h", "--out"})


def test_the_readme_table_lists_the_options_of_every_action(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")
    table = readme_options_table()
    assert set(table) == set(ACTION_RUNS)
    for key in ACTION_RUNS:
        assert declared_options(capsys, *key) == table[key], key
    # the parsers of the commands accepted 95 (action, option) pairs
    assert sum(len(required) + len(optional) for required, optional in table.values()) == 68


def test_family_primes_are_checked_as_bad_input(capsys):
    assert main(["family", "det-m", "--p", "0", "--s", "1"]) == 2
    assert capsys.readouterr() == ("", "error: 0 is not prime\n")
    assert main(["family", "degree", "--p", "4", "--s", "1", "--b", "0"]) == 2
    assert capsys.readouterr() == ("", "error: 4 is not prime\n")


@pytest.mark.parametrize(
    "argv", [["det-m", "--s", "1"], ["degree", "--s", "0", "--b", "0"]], ids=lambda argv: argv[0]
)
def test_a_prime_above_the_trial_division_bound_is_refused_in_under_a_second(capsys, argv):
    # trial division of this 19-digit prime ran for longer than 15 s
    prime = "1000000000000000003"
    start = time.perf_counter()
    assert main(["family", *argv, "--p", prime]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: p={prime} is above 1000000000000, the bound on p\n")


def test_family_negative_exponent_is_bad_input(capsys):
    assert main(["family", "det-m", "--p", "2", "--s", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: need s >= 0 componentwise\n")


@pytest.mark.parametrize("option", ["--p", "--s", "--b"])
def test_family_vector_options_name_their_bad_entry(capsys, option):
    values = {"--p": "2", "--s": "1", "--b": "0"}
    values[option] += ",x"
    argv = ["family", "degree"] + [word for pair in values.items() for word in pair]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {option}: 'x' is not an integer\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["det-m", "--p", "2,3", "--s", "1"], "--p has length 2 but --s has length 1"),
        (
            ["degree", "--p", "2,3", "--s", "1", "--b", "0"],
            "--p has length 2 but --s has length 1",
        ),
        (
            ["degree", "--p", "2", "--s", "1", "--b", "0,0"],
            "--p has length 1 but --b has length 2",
        ),
    ],
    ids=["det-m", "degree-s", "degree-b"],
)
def test_family_vectors_of_different_lengths_are_refused_before_any_work(
    capsys, monkeypatch, argv, message
):
    def no_work(*args, **kwargs):
        raise AssertionError("reached the family computation")

    for name in ("lemma_matrix_check", "FamilySpec", "exponent_grid"):
        monkeypatch.setattr(cli, name, no_work)
    assert main(["family", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["degree", "--p", "2", "--s", "8", "--b", "0"],
            "Z/p^s for p=(2,), s=(8,) has order above 128, the bound set by GALOIS_SPAN_MAX_ORDER",
        ),
        (
            ["degree", "--p", "2,3", "--s", "1000000000,1", "--b", "0,0"],
            "Z/p^s for p=(2, 3), s=(1000000000, 1) has order above 128,"
            " the bound set by GALOIS_SPAN_MAX_ORDER",
        ),
        (
            ["det-m", "--p", "2", "--s", "65"],
            "the exponent grid of s=(65,) has more than 64 nonzero vectors",
        ),
        (
            ["det-m", "--p", "2,3,5", "--s", "4,4,4"],
            "the exponent grid of s=(4, 4, 4) has more than 64 nonzero vectors",
        ),
        (
            ["nonexistence", "--n", "963761198400"],
            "the exponent grid of s=(6, 4, 2, 1, 1, 1, 1, 1, 1) has more than 64 nonzero vectors",
        ),
        (
            ["nonexistence", "--n", "1000000000001"],
            "n=1000000000001 is above 1000000000000, the bound on n",
        ),
        (["nonexistence", "--n", "9" * 40], f"n={'9' * 40} is above 1000000000000, the bound on n"),
    ],
    ids=[
        "degree",
        "degree-huge-s",
        "det-m",
        "det-m-three-primes",
        "nonexistence-grid",
        "nonexistence-n",
        "nonexistence-huge-n",
    ],
)
def test_family_work_above_its_bound_is_refused_before_any_work(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("GALOIS_SPAN_MAX_ORDER", raising=False)

    def no_work(*args, **kwargs):
        raise AssertionError("reached the family computation")

    for name in ("cyclic_group", "build_matrix_M", "exponent_grid", "is_prime"):
        monkeypatch.setattr(family, name, no_work)
    monkeypatch.setattr(cli, "exponent_grid", no_work)
    if argv[0] == "nonexistence" and int(argv[-1]) > family.NONEXISTENCE_MAX_N:
        monkeypatch.setattr(family, "factorize", no_work)
    assert main(["family", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# --base (a graph file's contents, or a builder spec) -> the one-line refusal of `graph kappa`
MALFORMED_BASES = {
    "endpoint": ({"vertices": 2, "edges": [[0, 5]]}, "edge (0,5) out of range for 2 vertices"),
    "names": ({"vertices": 2, "edges": [[0, 1]], "names": ["a"]}, "vertex_names length mismatch"),
    "empty-cycle": ("cycle:0", "cycle needs at least one vertex"),
}


@pytest.mark.parametrize("what", sorted(MALFORMED_BASES))
def test_a_malformed_graph_exits_2_without_a_traceback(capsys, tmp_path, what):
    base, message = MALFORMED_BASES[what]
    if isinstance(base, dict):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(base))
        base = str(path)
    assert main(["graph", "kappa", "--base", base]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def readme_worked_examples() -> list[str]:
    """Every `galois-span ...` line of the README's worked-examples shell block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Reproducing the worked examples", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("galois-span ")]


def test_readme_worked_examples_run(capsys):
    lines = readme_worked_examples()
    assert len(lines) == 12
    outputs = {}
    for line in lines:
        argv = shlex.split(line)[1:]
        code, outputs[line] = run(capsys, *argv)
        assert code == 0, line

    def output_of(*words):
        [line] = [line for line in lines if set(words) <= set(shlex.split(line))]
        return outputs[line]

    assert output_of("kuroda", "C2xC6")["details"]["kappa_Y"] == "117600"
    terms = output_of("brauer-kuroda", "S3")["details"]["terms"]
    assert [t["kappa"] for t in terms if t["subgroup"] == "{e}"] == ["294"]
    assert output_of("det-m")["details"]["det"] == "-1/4"


# 5001 digits, past Python's default 4300-digit limit on int-to-str conversion
BIG = 7 * 10**5000 - 1
BIG_TEXT = "6" + "9" * 5000


def test_decimal_text_writes_any_int_and_leaves_the_digit_limit_alone():
    import sys

    from galois_span.report import decimal_text

    limit = sys.get_int_max_str_digits()
    assert decimal_text(BIG) == BIG_TEXT
    assert decimal_text(-BIG) == "-" + BIG_TEXT
    # inner pieces keep their leading zeros
    assert decimal_text(10**1300 + 5) == "1" + "0" * 1299 + "5"
    assert [decimal_text(n) for n in (0, 7, -12, 10**600)] == ["0", "7", "-12", "1" + "0" * 600]
    assert sys.get_int_max_str_digits() == limit


def test_a_report_with_5000_digit_integers_serializes_exactly():
    from fractions import Fraction

    from galois_span.report import VerificationReport

    report = VerificationReport.compare(
        "big", "no cover", BIG, -BIG, details={"terms": [{"kappa": BIG}], "ratio": Fraction(BIG, 2)}
    )
    data = json.loads(json.dumps(report.to_json_dict()))
    assert (data["left"], data["right"]) == (BIG_TEXT, "-" + BIG_TEXT)
    assert data["details"] == {"terms": [{"kappa": BIG_TEXT}], "ratio": BIG_TEXT + "/2"}


def test_cli_prints_integers_past_the_digit_limit(capsys, monkeypatch):
    from galois_span import cli
    from galois_span.graphs import SerreGraph
    from galois_span.polynomials import IntPoly
    from galois_span.report import VerificationReport

    cover = ["--base", "bouquet:2", "--group", "C2", "--voltage", "1;0"]
    monkeypatch.setattr(SerreGraph, "spanning_tree_count", lambda self: BIG)
    code, data = run(capsys, "graph", "kappa", "--base", "cycle:5")
    assert code == 0 and data["kappa"] == BIG_TEXT
    code, data = run(capsys, "cover", "kappa", *cover)
    assert code == 0 and data["kappa_Y"] == data["kappa_X"] == BIG_TEXT
    monkeypatch.setattr(SerreGraph, "ihara_h_poly", lambda self: IntPoly((1, BIG)))
    big_report = VerificationReport.compare("big", "no cover", BIG, BIG, details={"kappa": BIG})
    monkeypatch.setattr(cli, "hashimoto_check", lambda g: big_report)
    code, data = run(capsys, "graph", "zeta", "--base", "bouquet:2")
    assert code == 0 and data["h_coefficients"] == ["1", BIG_TEXT]
    monkeypatch.setattr(cli, "verify_kuroda", lambda c: big_report)
    code, data = run(capsys, "verify", "kuroda", *cover)
    assert code == 0
    assert (data["left"], data["right"], data["details"]["kappa"]) == (BIG_TEXT,) * 3
