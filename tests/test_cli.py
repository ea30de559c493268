import json
import os

import pytest

from galois_span.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "galois_span", "fixtures")


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
    code1, data1 = run(capsys, "selftest", "--seed", "7", "--iters", "3")
    code2, data2 = run(capsys, "selftest", "--seed", "7", "--iters", "3")
    assert data1 == data2


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
    assert main(["family", "det-m"]) == 2
    assert main(["family", "nonexistence"]) == 2
    assert main(
        ["cover", "kappa", "--base", "bouquet:2", "--group", "S3", "--voltage", "nope;(0 1)"]
    ) == 2
    assert main(["graph", "kappa", "--base", "missing-file.json"]) == 2
    capsys.readouterr()


def test_internal_error_exits_three(capsys, monkeypatch):
    from dataclasses import replace

    import galois_span.characters as characters
    from galois_span.errors import InvariantError

    real_verify = characters._verify_table

    def corrupt(table):
        raise ArithmeticError("row orthogonality fails at (0,1)")

    monkeypatch.setattr(characters, "_verify_table", corrupt)
    assert main(["group", "info", "Q8"]) == 3
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
    assert main(["group", "info", "Q8"]) == 3
    assert raised == [InvariantError]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: row orthogonality fails at ")
