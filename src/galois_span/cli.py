"""Command-line interface.

`COMMANDS` maps each command to its actions, and each action to its handler
and the adders of exactly the options that handler reads (those it cannot
run without are required; every action also takes --out).  `main` builds
only the parser of the action its arguments name (`parse_args`); the whole
tree (`build_parser`) is built only for help, the version, and usage errors
that are not one action's own.  Every action is deterministic given its
inputs and seed, emits JSON (all big integers as decimal strings of any
length, by `report.decimal_text`) to stdout or --out, and exits 0 on success
or pass, 1 on verification failure, 2 on usage errors, 3 when an internal
exact-arithmetic invariant fails (`errors.InvariantError`).
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


def _write(text: str, path: str | None, stream) -> None:
    """`text` and a newline to the file at `path`, or flushed to `stream` without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=stream, flush=True)


def _emit(payload: dict, args, passed: bool = True, dot_text: str | None = None) -> int:
    """Write `payload` as JSON to --out or stdout, and `dot_text` to --dot or
    stderr; the exit code is 0, or 1 when not `passed`, also when the reader
    of stdout has closed it (stdout then goes to the null device, so that
    nothing is printed as Python flushes it at exit)."""
    try:
        _write(json.dumps(payload, indent=2, sort_keys=True), args.out, sys.stdout)
    except BrokenPipeError:
        if args.out:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if dot_text is not None:
        _write(dot_text, args.dot, sys.stderr)
    return 0 if passed else 1


def _report(report, args) -> int:
    return _emit(report.to_json_dict(), args, report.passed)


def _cover_from_args(args):
    base = _load_base(args.base)
    alpha = _load_voltage(base, args.group, args.voltage)
    return derived_graph(alpha)


def _family_vectors(**texts: str) -> list[tuple[int, ...]]:
    """The comma-separated integer vectors of the family options (`p="2,3"` for
    --p): a bad entry is refused naming its option, and so are vectors of
    different lengths, naming the first option that differs."""
    vectors = {}
    for name, text in texts.items():
        vector = []
        for token in text.replace("(", "").replace(")", "").split(","):
            if token == "":
                continue
            try:
                vector.append(int(token))
            except ValueError:
                raise FamilyParameterError(f"--{name}: {token!r} is not an integer") from None
        vectors[f"--{name}"] = tuple(vector)
    (first, head), *rest = vectors.items()
    for option, vector in rest:
        if len(vector) != len(head):
            raise FamilyParameterError(
                f"{first} has length {len(head)} but {option} has length {len(vector)}"
            )
    return list(vectors.values())


def _elements(g: FiniteGroup, text: str) -> list[int]:
    """A semicolon-separated list of element names (`FiniteGroup.element`)."""
    return [g.element(part.strip()) for part in text.split(";") if part.strip()]


def _subgroup(cover, text: str) -> Subgroup:
    return generated_subgroup(cover.group, _elements(cover.group, text))


def _poset(args):
    g = parse_group_spec(args.group)
    return kernel_poset(g) if args.poset == "kernel" else cyclic_poset(g)


# -- action handlers: each returns its exit code ------------------------------


def _graph_kappa(args) -> int:
    g = _load_base(args.base)
    return _emit({"vertices": g.vertex_count, "kappa": decimal_text(g.spanning_tree_count())}, args)


def _graph_zeta(args) -> int:
    g = _load_base(args.base)
    h = g.ihara_h_poly()
    report = hashimoto_check(g)
    slope = h.derivative()(1)
    if slope != report.left:
        raise InvariantError(
            f"h'(1) of h(u) is {decimal_text(slope)},"
            f" the Hashimoto check has {decimal_text(report.left)}"
        )
    return _emit(
        {
            "h_coefficients": [decimal_text(c) for c in h.coeffs],
            "hashimoto": report.to_json_dict(),
        },
        args,
        report.passed,
    )


def _graph_dot(args) -> int:
    g = _load_base(args.base)
    return _emit(graph_to_json_dict(g), args, dot_text=graph_to_dot(g))


def _group_info(args) -> int:
    return _emit(table1_row(args.spec).to_json_dict(), args)


def _group_table1(args) -> int:
    specs = sorted(TABLE1_FLAGS) if args.spec is None else [args.spec]
    rows = [table1_row(s) for s in specs]
    passed = all(r.fixture_status != "mismatch" for r in rows)
    return _emit({"rows": [r.to_json_dict() for r in rows]}, args, passed)


def _group_subgroups(args) -> int:
    g = parse_group_spec(args.spec)
    return _emit(
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
                for h in all_subgroups(g)
            ],
        },
        args,
    )


def _group_characters(args) -> int:
    return _emit(character_table(parse_group_spec(args.spec)).to_json_dict(), args)


def _poset_hasse(args) -> int:
    poset = _poset(args)
    return _emit({"elements": list(poset.labels)}, args, dot_text=hasse_dot(poset))


def _poset_mobius(args) -> int:
    return _emit({"mu": mobius(_poset(args)).to_json_list()}, args)


def _cover_build(args) -> int:
    cover = _cover_from_args(args)
    # the DOT text goes to --dot only, never to stderr
    dot = graph_to_dot(cover.derived, "Y") if args.dot else None
    return _emit(cover_to_json_dict(cover), args, dot_text=dot)


def _cover_kappa(args) -> int:
    cover = _cover_from_args(args)
    return _emit(
        {
            "galois": is_galois(cover.voltage),
            "kappa_Y": decimal_text(cover.derived.spanning_tree_count()),
            "kappa_X": decimal_text(cover.base.spanning_tree_count()),
        },
        args,
    )


def _cover_intermediates(args) -> int:
    cover = _cover_from_args(args)
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
    return _emit({"group": g.name, "intermediates": rows}, args)


def _cover_dot(args) -> int:
    cover = _cover_from_args(args)
    graph = cover.derived
    if args.subgroup:
        graph = intermediate_graph(cover, _subgroup(cover, args.subgroup)).graph
    return _emit(graph_to_json_dict(graph), args, dot_text=graph_to_dot(graph, "XH"))


def _lfun_h(args) -> int:
    cover = _cover_from_args(args)
    table = character_table(cover.group)
    if not 0 <= args.chi < table.class_count:
        raise GaloisSpanError(f"--chi must be in 0..{table.class_count - 1}, got {args.chi}")
    (poly,) = character_h_polys(cover, table, [table.characters[args.chi]])
    return _emit(
        {
            "degree": poly.degree,
            "coefficients": [list(map(decimal_text, c.coeffs)) for c in poly.coeffs],
            "conductor": table.e,
        },
        args,
    )


def _lfun_verify_prop(args) -> int:
    return _report(verify_prop_formula(_cover_from_args(args)), args)


def _lfun_verify_factor(args) -> int:
    return _report(verify_factorization(_cover_from_args(args)), args)


def _lfun_verify_inter(args) -> int:
    cover = _cover_from_args(args)
    return _report(verify_inter_rel(cover, _subgroup(cover, args.subgroup)), args)


def _verify_kuroda(args) -> int:
    return _report(verify_kuroda(_cover_from_args(args)), args)


def _verify_brauer_kuroda(args) -> int:
    return _report(verify_brauer_kuroda(_cover_from_args(args)), args)


def _verify_hmsv(args) -> int:
    return _report(verify_hmsv(_cover_from_args(args)), args)


def _verify_euler_zero(args) -> int:
    return _report(verify_euler_zero(_cover_from_args(args)), args)


def _verify_relation(args) -> int:
    cover = _cover_from_args(args)
    data = load_json(args.relation, "relation file")
    coeffs = {}
    for item in json_list(data, "relation file"):
        item = json_object(item, "relation entry", "elements", "coefficient")
        elements = json_list(item["elements"], "relation elements")
        elems = [cover.group.element(x, "relation element") for x in elements]
        h = Subgroup(cover.group, tuple(elems))
        coeffs[h] = coeffs.get(h, 0) + json_int(item["coefficient"], "relation coefficient")
    return _report(verify_custom_relation(cover, coeffs), args)


def _family_degree(args) -> int:
    primes, s, b = _family_vectors(p=args.p, s=args.s, b=args.b)
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
    return _emit({"p": list(primes), "s": list(s), "b": list(b), "degrees": rows}, args)


def _family_det_m(args) -> int:
    primes, s = _family_vectors(p=args.p, s=args.s)
    return _report(lemma_matrix_check(primes, s), args)


def _family_nonexistence(args) -> int:
    return _report(nonexistence_certificate(args.n), args)


def _selftest(args) -> int:
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
    ok = summary.all_passed and all(r["passed"] for r in eq3_rows)
    return _emit(payload, args, ok)


# -- option adders: each adds one option, or a group of options, to a parser ----


def _option(*names: str, **kwargs):
    return lambda parser: parser.add_argument(*names, **kwargs)


_BASE = _option("--base", required=True, help="graph file or builtin (bouquet:2, cycle:5, ...)")
_GROUP = _option("--group", help="GroupSpec (required with inline voltages)")
_VOLTAGE = _option(
    "--voltage", required=True, help="voltage JSON file or inline semicolon-separated elements"
)
_COVER = [_BASE, _GROUP, _VOLTAGE]
_DOT = _option("--dot", help="write DOT output to this file")
_CHI = _option("--chi", type=int, default=0, help="irreducible character index")
_SPEC = _option("spec", help="GroupSpec")
_SPEC_OR_ALL = _option("spec", nargs="?", help="GroupSpec; defaults to every fixture row")
_POSET = [
    _option("--group", required=True, help="GroupSpec"),
    _option("--poset", choices=["kernel", "cyclic"], default="cyclic"),
]
_SUBGROUP = _option("--subgroup", help="semicolon-separated generators of a subgroup")
_NEEDED_SUBGROUP = _option(
    "--subgroup", required=True, help="semicolon-separated generators of a subgroup"
)
_RELATION = _option(
    "--relation", required=True, help="JSON file of {elements, coefficient} records"
)
_P_S = [
    _option("--p", required=True, help="comma-separated primes"),
    _option("--s", required=True, help="comma-separated exponents"),
]
_B = _option("--b", required=True, help="comma-separated family parameter")
_N = _option("--n", type=int, required=True, help="cyclic group order")
_SELFTEST = [
    _option("--seed", type=int, default=0),
    _option("--iters", type=int, default=10),
    _option("--groups", help="comma-separated GroupSpecs"),
]

# command -> (help line, {action: (handler, adders)}); `selftest` has the one action None
COMMANDS = {
    "graph": ("base-graph invariants", {
        "kappa": (_graph_kappa, [_BASE]),
        "zeta": (_graph_zeta, [_BASE]),
        "dot": (_graph_dot, [_BASE, _DOT]),
    }),
    "group": ("group information", {
        "info": (_group_info, [_SPEC]),
        "table1": (_group_table1, [_SPEC_OR_ALL]),
        "subgroups": (_group_subgroups, [_SPEC]),
        "characters": (_group_characters, [_SPEC]),
    }),
    "poset": ("subgroup posets and Moebius tables", {
        "hasse": (_poset_hasse, [*_POSET, _DOT]),
        "mobius": (_poset_mobius, _POSET),
    }),
    "cover": ("derived graphs and intermediate quotients", {
        "build": (_cover_build, [*_COVER, _DOT]),
        "kappa": (_cover_kappa, _COVER),
        "intermediates": (_cover_intermediates, _COVER),
        "dot": (_cover_dot, [*_COVER, _SUBGROUP, _DOT]),
    }),
    "lfun": ("twisted zeta numerators", {
        "h": (_lfun_h, [*_COVER, _CHI]),
        "verify-prop": (_lfun_verify_prop, _COVER),
        "verify-factor": (_lfun_verify_factor, _COVER),
        "verify-inter": (_lfun_verify_inter, [*_COVER, _NEEDED_SUBGROUP]),
    }),
    "verify": ("spanning-tree formula verifiers", {
        "kuroda": (_verify_kuroda, _COVER),
        "brauer-kuroda": (_verify_brauer_kuroda, _COVER),
        "hmsv": (_verify_hmsv, _COVER),
        "relation": (_verify_relation, [*_COVER, _RELATION]),
        "euler-zero": (_verify_euler_zero, _COVER),
    }),
    "family": ("cyclic bouquet families and the matrix lemma", {
        "degree": (_family_degree, [*_P_S, _B]),
        "det-m": (_family_det_m, _P_S),
        "nonexistence": (_family_nonexistence, [_N]),
    }),
    "selftest": ("seeded random verification suite", {None: (_selftest, _SELFTEST)}),
}


def _declare(parser: argparse.ArgumentParser, handler, adders) -> None:
    """Give an action's parser its options, --out and its handler."""
    for add in adders:
        add(parser)
    parser.add_argument("--out", help="write JSON output to this file")
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: every action, as `--help`, `--version` and usage errors show it."""
    parser = argparse.ArgumentParser(
        prog="galois-span",
        description="Exact spanning-tree arithmetic for Galois covers of graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, actions) in COMMANDS.items():
        command = commands.add_parser(name, help=help_line)
        if None in actions:
            _declare(command, *actions[None])
            continue
        subparsers = command.add_subparsers(dest="action", required=True)
        for action, (handler, adders) in actions.items():
            _declare(subparsers.add_parser(action), handler, adders)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse `argv`, building only the parser of the action it names.

    In the whole tree an action's parser is an `ArgumentParser` with prog
    `galois-span COMMAND ACTION` (`galois-span selftest` for the command
    without actions) that receives the words after the action; the
    standalone one is built the same way, so it parses, helps and reports
    errors byte for byte as that one would.  The whole tree parses the rest:
    no or an unknown command or action, `--help`, `--version`, and options
    the action does not take (their error carries the top-level usage line).
    """
    if argv and argv[0] in COMMANDS:
        actions = COMMANDS[argv[0]][1]
        words = argv[:1] if None in actions else argv[:2]
        action = words[1] if len(words) == 2 else None
        if action in actions:
            parser = argparse.ArgumentParser(prog=" ".join(["galois-span", *words]))
            _declare(parser, *actions[action])
            args, rest = parser.parse_known_args(argv[len(words):])
            if not rest:
                return args
    return build_parser().parse_args(argv)


def run(args: argparse.Namespace) -> int:
    """Run a parsed action; bad input exits 2 and a failed invariant 3."""
    try:
        return args.handler(args)
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
