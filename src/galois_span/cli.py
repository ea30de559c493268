"""Command-line interface.

`main` builds only the parser of the command named by its first argument
(`parse_args`); the whole parser tree (`build_parser`) is built only for
help, the version, and usage errors that are not one command's own.  Every
command is deterministic given its inputs and seed, emits JSON (all big
integers as decimal strings of any length, by `report.decimal_text`) to
stdout or --out, and exits 0 on success or pass, 1 on verification failure,
2 on usage errors, 3 when an internal exact-arithmetic invariant fails
(`errors.InvariantError`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from . import __version__
from .characters import character_table
from .covers import (
    VoltageAssignment,
    cover_to_json_dict,
    derived_graph,
    intermediate_graph,
    is_galois,
    load_voltage,
)
from .errors import (
    MAX_INT_DIGITS,
    FamilyParameterError,
    GaloisSpanError,
    GraphError,
    GroupSpecError,
    InvariantError,
    json_int,
    json_list,
    json_object,
    load_json,
)
from .family import (
    FamilySpec,
    degree_formula,
    exponent_grid,
    kappa_degree_in_t,
    lemma_matrix_check,
    nonexistence_certificate,
)
from .graphs import (
    SerreGraph,
    bouquet,
    complete_graph,
    cycle_graph,
    graph_to_dot,
    graph_to_json_dict,
    hashimoto_check,
    load_graph,
    path_graph,
)
from .groups import FiniteGroup, Subgroup, all_subgroups, generated_subgroup, parse_group_spec
from .lfunctions import (
    character_h_polys,
    h_poly,
    load_rep,
    verify_factorization,
    verify_inter_rel,
    verify_prop_formula,
)
from .posets import cyclic_poset, hasse_dot, kernel_poset, mobius
from .report import decimal_text
from .table1 import TABLE1_FLAGS
from .theorems import (
    random_suite,
    table1_row,
    verify_brauer_kuroda,
    verify_custom_relation,
    verify_eq3,
    verify_euler_zero,
    verify_hmsv,
    verify_kuroda,
)


def _load_base(spec: str) -> SerreGraph:
    builders = {
        "bouquet": bouquet,
        "cycle": cycle_graph,
        "path": path_graph,
        "complete": complete_graph,
    }
    if ":" in spec:
        kind, _, num = spec.partition(":")
        if kind in builders and num.isascii() and num.isdigit():
            if len(num) > MAX_INT_DIGITS:
                raise GraphError(f"{kind} size has more than {MAX_INT_DIGITS} digits")
            return builders[kind](int(num))
    return load_graph(spec)


def _load_voltage(base: SerreGraph, group_spec: str | None, voltage: str) -> VoltageAssignment:
    if os.path.exists(voltage):
        return load_voltage(base, voltage)
    if group_spec is None:
        raise GaloisSpanError("--group is required with an inline voltage list")
    g = parse_group_spec(group_spec)
    volt = _elements(g, voltage)
    if len(volt) != base.geometric_edge_count:
        raise GaloisSpanError(
            f"need {base.geometric_edge_count} voltages, got {len(volt)}"
        )
    return VoltageAssignment(base=base, group=g, volt=tuple(volt))


def _emit(payload: dict, args, dot_text: str | None = None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if dot_text is not None and getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_text + "\n")


def _cover_from_args(args):
    base = _load_base(args.base)
    alpha = _load_voltage(base, args.group, args.voltage)
    return derived_graph(alpha)


def _parse_vector(text: str, option: str) -> tuple[int, ...]:
    """A comma-separated integer vector; a bad entry names `option` and the entry."""
    vector = []
    for token in text.replace("(", "").replace(")", "").split(","):
        if token == "":
            continue
        try:
            vector.append(int(token))
        except ValueError:
            raise FamilyParameterError(f"{option}: {token!r} is not an integer") from None
    return tuple(vector)


def _check_equal_lengths(vectors: dict[str, tuple[int, ...]]) -> None:
    """Refuse vectors of different lengths, naming the first option that differs."""
    (first, head), *rest = vectors.items()
    for option, vector in rest:
        if len(vector) != len(head):
            raise FamilyParameterError(
                f"{first} has length {len(head)} but {option} has length {len(vector)}"
            )


def _elements(g: FiniteGroup, text: str) -> list[int]:
    """A semicolon-separated list of element names (`FiniteGroup.element`)."""
    return [g.element(part.strip()) for part in text.split(";") if part.strip()]


def _subgroup_from_args(cover, text: str | None) -> Subgroup:
    if text is None:
        raise GaloisSpanError("verify-inter needs --subgroup")
    return generated_subgroup(cover.group, _elements(cover.group, text))


# -- command handlers ---------------------------------------------------------


def _cmd_graph(args) -> int:
    g = _load_base(args.base)
    if args.action == "kappa":
        _emit({"vertices": g.vertex_count, "kappa": decimal_text(g.spanning_tree_count())}, args)
        return 0
    if args.action == "zeta":
        h = g.ihara_h_poly()
        report = hashimoto_check(g)
        slope = h.derivative()(1)
        if slope != report.left:
            raise InvariantError(
                f"h'(1) of h(u) is {decimal_text(slope)},"
                f" the Hashimoto check has {decimal_text(report.left)}"
            )
        _emit(
            {
                "h_coefficients": [decimal_text(c) for c in h.coeffs],
                "hashimoto": report.to_json_dict(),
            },
            args,
        )
        return 0 if report.passed else 1
    _emit(graph_to_json_dict(g), args, dot_text=graph_to_dot(g))
    if not getattr(args, "dot", None):
        print(graph_to_dot(g), file=sys.stderr)
    return 0


def _cmd_group(args) -> int:
    if args.spec is None and args.action != "table1":
        raise GroupSpecError(f"group {args.action} needs a group SPEC")
    if args.action == "info":
        row = table1_row(args.spec)
        _emit(row.to_json_dict(), args)
        return 0
    if args.action == "table1":
        specs = [args.spec] if args.spec else sorted(TABLE1_FLAGS)
        rows = [table1_row(s) for s in specs]
        payload = {"rows": [r.to_json_dict() for r in rows]}
        _emit(payload, args)
        return 0 if all(r.fixture_status != "mismatch" for r in rows) else 1
    g = parse_group_spec(args.spec)
    if args.action == "characters":
        _emit(character_table(g).to_json_dict(), args)
        return 0
    subs = all_subgroups(g)
    _emit(
        {
            "group": g.name,
            "order": g.order,
            "subgroups": [
                {
                    "elements": [g.label(x) for x in h.elements],
                    "order": h.order,
                    "index": h.index(),
                    "normal": h.is_normal(),
                    "cyclic": h.is_cyclic(),
                }
                for h in subs
            ],
        },
        args,
    )
    return 0


def _cmd_poset(args) -> int:
    g = parse_group_spec(args.group)
    if args.poset == "kernel":
        poset = kernel_poset(character_table(g))
    else:
        poset = cyclic_poset(g)
    if args.action == "hasse":
        dot = hasse_dot(poset)
        _emit({"elements": list(poset.labels)}, args, dot_text=dot)
        if not getattr(args, "dot", None):
            print(dot, file=sys.stderr)
        return 0
    table = mobius(poset)
    _emit({"mu": table.to_json_list()}, args)
    return 0


def _cmd_cover(args) -> int:
    cover = _cover_from_args(args)
    if args.action == "build":
        _emit(cover_to_json_dict(cover), args, dot_text=graph_to_dot(cover.derived, "Y"))
        return 0
    if args.action == "kappa":
        _emit(
            {
                "galois": is_galois(cover.voltage),
                "kappa_Y": decimal_text(cover.derived.spanning_tree_count()),
                "kappa_X": decimal_text(cover.base.spanning_tree_count()),
            },
            args,
        )
        return 0
    if args.action == "dot":
        graph = cover.derived
        if args.subgroup:
            graph = intermediate_graph(cover, _subgroup_from_args(cover, args.subgroup)).graph
        _emit(graph_to_json_dict(graph), args, dot_text=graph_to_dot(graph, "XH"))
        if not getattr(args, "dot", None):
            print(graph_to_dot(graph, "XH"), file=sys.stderr)
        return 0
    g = cover.group
    rows = []
    for h in all_subgroups(g):
        inter = intermediate_graph(cover, h)
        rows.append(
            {
                "subgroup": [g.label(x) for x in h.elements],
                "index": h.index(),
                "vertices": inter.graph.vertex_count,
                "kappa": decimal_text(inter.graph.spanning_tree_count()),
            }
        )
    _emit({"group": g.name, "intermediates": rows}, args)
    return 0


def _cmd_lfun(args) -> int:
    cover = _cover_from_args(args)
    if args.action == "h":
        if args.rep:
            rho = load_rep(args.rep)
            poly, conductor = h_poly(cover, rho), rho.e
        else:
            table = character_table(cover.group)
            count = table.class_count
            if not 0 <= args.chi < count:
                raise GaloisSpanError(f"--chi must be in 0..{count - 1}, got {args.chi}")
            (poly,) = character_h_polys(cover, table, [table.characters[args.chi]])
            conductor = table.e
        _emit(
            {
                "degree": poly.degree,
                "coefficients": [list(map(decimal_text, c.coeffs)) for c in poly.coeffs],
                "conductor": conductor,
            },
            args,
        )
        return 0
    if args.action == "verify-prop":
        report = verify_prop_formula(cover)
    elif args.action == "verify-factor":
        report = verify_factorization(cover)
    else:
        report = verify_inter_rel(cover, _subgroup_from_args(cover, args.subgroup))
    _emit(report.to_json_dict(), args)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    cover = _cover_from_args(args)
    if args.action == "kuroda":
        report = verify_kuroda(cover)
    elif args.action == "brauer-kuroda":
        report = verify_brauer_kuroda(cover)
    elif args.action == "hmsv":
        report = verify_hmsv(cover)
    elif args.action == "euler-zero":
        report = verify_euler_zero(cover)
    else:
        data = load_json(args.relation, "relation file")
        coeffs = {}
        for item in json_list(data, "relation file"):
            item = json_object(item, "relation entry", "elements", "coefficient")
            elements = json_list(item["elements"], "relation elements")
            elems = [cover.group.element(x, "relation element") for x in elements]
            h = Subgroup(cover.group, tuple(elems))
            coeffs[h] = coeffs.get(h, 0) + json_int(item["coefficient"], "relation coefficient")
        report = verify_custom_relation(cover, coeffs)
    _emit(report.to_json_dict(), args)
    return 0 if report.passed else 1


def _cmd_family(args) -> int:
    if args.action == "nonexistence":
        if args.n is None:
            raise GaloisSpanError("nonexistence needs --n")
        report = nonexistence_certificate(args.n)
        _emit(report.to_json_dict(), args)
        return 0 if report.passed else 1
    if args.p is None or args.s is None:
        raise GaloisSpanError(f"{args.action} needs --p and --s")
    vectors = {"--p": _parse_vector(args.p, "--p"), "--s": _parse_vector(args.s, "--s")}
    if args.action == "degree":
        if args.b is None:
            raise GaloisSpanError("degree needs --b")
        vectors["--b"] = _parse_vector(args.b, "--b")
    _check_equal_lengths(vectors)
    primes, s = vectors["--p"], vectors["--s"]
    if args.action == "det-m":
        report = lemma_matrix_check(primes, s)
        _emit(report.to_json_dict(), args)
        return 0 if report.passed else 1
    b = vectors["--b"]
    spec = FamilySpec(primes=primes, s=s, b=b)
    rows = []
    for a in exponent_grid(s):
        if not any(a):
            continue
        degree = kappa_degree_in_t(spec, a)
        rows.append(
            {
                "a": list(a),
                "degree": degree,
                "formula": degree_formula(primes, a, b),
            }
        )
    _emit({"p": list(primes), "s": list(s), "b": list(b), "degrees": rows}, args)
    return 0


def _cmd_selftest(args) -> int:
    bases = [bouquet(2), bouquet(3)]
    specs = args.groups.split(",") if args.groups else [
        "C2xC2",
        "S3",
        "D4",
        "Q8",
        "A4",
    ]
    # one parse per spec: the random covers and the eq3 rows share each group
    # and everything it keeps
    parsed = {spec: parse_group_spec(spec) for spec in dict.fromkeys(specs)}
    summary = random_suite(args.seed, args.iters, [parsed[s] for s in specs], bases)
    eq3_rows = []
    for spec in specs:
        report = verify_eq3(parsed[spec])
        eq3_rows.append({"group": spec, "status": report.status(), "passed": report.passed})
    payload = summary.to_json_dict()
    payload["eq3"] = eq3_rows
    _emit(payload, args)
    ok = summary.all_passed and all(r["passed"] for r in eq3_rows)
    return 0 if ok else 1


def _add_out(p):
    p.add_argument("--out", help="write JSON output to this file")


def _add_dot(p):
    p.add_argument("--dot", help="write DOT output to this file")


def _add_cover(p):
    p.add_argument("--base", required=True, help="graph file or builtin (bouquet:2, cycle:5, ...)")
    p.add_argument("--group", help="GroupSpec (required with inline voltages)")
    p.add_argument(
        "--voltage",
        required=True,
        help="voltage JSON file or inline semicolon-separated elements",
    )


def _graph_args(p):
    p.add_argument("action", choices=["kappa", "zeta", "dot"])
    p.add_argument("--base", required=True)
    _add_out(p)
    _add_dot(p)


def _group_args(p):
    p.add_argument("action", choices=["info", "table1", "subgroups", "characters"])
    p.add_argument("spec", nargs="?", help="GroupSpec; table1 defaults to every fixture row")
    _add_out(p)


def _poset_args(p):
    p.add_argument("action", choices=["hasse", "mobius"])
    p.add_argument("--group", required=True)
    p.add_argument("--poset", choices=["kernel", "cyclic"], default="cyclic")
    _add_out(p)
    _add_dot(p)


def _cover_args(p):
    p.add_argument("action", choices=["build", "kappa", "intermediates", "dot"])
    _add_cover(p)
    p.add_argument("--subgroup", help="semicolon-separated generators for `dot`")
    _add_out(p)
    _add_dot(p)


def _lfun_args(p):
    p.add_argument("action", choices=["h", "verify-prop", "verify-factor", "verify-inter"])
    _add_cover(p)
    p.add_argument("--chi", type=int, default=0, help="irreducible character index for `h`")
    p.add_argument("--rep", help="matrix representation JSON file for `h`")
    p.add_argument("--subgroup", help="semicolon-separated generators for `verify-inter`")
    _add_out(p)


def _verify_args(p):
    p.add_argument(
        "action",
        choices=["kuroda", "brauer-kuroda", "hmsv", "relation", "euler-zero"],
    )
    _add_cover(p)
    p.add_argument("--relation", help="JSON file of {elements, coefficient} records")
    _add_out(p)


def _family_args(p):
    p.add_argument("action", choices=["degree", "det-m", "nonexistence"])
    p.add_argument("--p", help="comma-separated primes")
    p.add_argument("--s", help="comma-separated exponents")
    p.add_argument("--b", help="comma-separated family parameter")
    p.add_argument("--n", type=int, help="cyclic group order for `nonexistence`")
    _add_out(p)


def _selftest_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--groups", help="comma-separated GroupSpecs")
    _add_out(p)


# name -> (help line, adds the command's arguments to a parser, handler)
COMMANDS = {
    "graph": ("base-graph invariants", _graph_args, _cmd_graph),
    "group": ("group information", _group_args, _cmd_group),
    "poset": ("subgroup posets and Moebius tables", _poset_args, _cmd_poset),
    "cover": ("derived graphs and intermediate quotients", _cover_args, _cmd_cover),
    "lfun": ("twisted zeta numerators", _lfun_args, _cmd_lfun),
    "verify": ("spanning-tree formula verifiers", _verify_args, _cmd_verify),
    "family": ("cyclic bouquet families and the matrix lemma", _family_args, _cmd_family),
    "selftest": ("seeded random verification suite", _selftest_args, _cmd_selftest),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: every command, as `--help`, `--version` and usage errors show it."""
    parser = argparse.ArgumentParser(
        prog="galois-span",
        description="Exact spanning-tree arithmetic for Galois covers of graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse `argv`, building only the parser of the command it names.

    In the whole tree a command's parser is an `ArgumentParser` with prog
    `galois-span NAME` that receives `argv[1:]`; the standalone one is built
    the same way, so it parses, helps and reports errors byte for byte as
    that one would.  The whole tree parses everything else: no command or an
    unknown one, `--help`, `--version`, and arguments the command does not
    take (their error carries the top-level usage line).
    """
    if argv and argv[0] in COMMANDS:
        _, add_arguments, _ = COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"galois-span {argv[0]}")
        add_arguments(parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def run(args: argparse.Namespace) -> int:
    """Run a parsed command; bad input exits 2 and a failed invariant 3."""
    _, _, handler = COMMANDS[args.command]
    try:
        return handler(args)
    except (GaloisSpanError, OSError) as exc:
        # one argument is the message; an OSError's str() joins its errno,
        # text and file name
        message = exc.args[0] if len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # errors.InvariantError: an exact-arithmetic invariant failed inside
        # the library; any other arithmetic fault is reported the same way
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    sys.exit(main())
