"""Command-line interface.

Every command is deterministic given its inputs and seed, emits JSON (all
big integers as decimal strings) to stdout or --out, and exits 0 on
success or pass, 1 on verification failure, 2 on usage errors, 3 when an
internal exact-arithmetic invariant fails (`errors.InvariantError`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from . import __version__
from .characters import character_table, verify_eq3
from .covers import (
    VoltageAssignment,
    cover_to_json_dict,
    derived_graph,
    intermediate_graph,
    load_voltage,
)
from .errors import GaloisSpanError
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
from .groups import Subgroup, all_subgroups, parse_group_spec
from .lfunctions import (
    abelian_reps,
    h_poly,
    load_rep,
    verify_factorization,
    verify_inter_rel,
    verify_prop_formula,
)
from .posets import cyclic_poset, hasse_dot, kernel_poset, mobius
from .table1 import TABLE1_FLAGS
from .theorems import (
    random_suite,
    table1_row,
    verify_brauer_kuroda,
    verify_custom_relation,
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
        if kind in builders and num.isdigit():
            return builders[kind](int(num))
    return load_graph(spec)


def _load_voltage(base: SerreGraph, group_spec: str | None, voltage: str) -> VoltageAssignment:
    if os.path.exists(voltage):
        return load_voltage(base, voltage)
    if group_spec is None:
        raise GaloisSpanError("--group is required with an inline voltage list")
    g = parse_group_spec(group_spec)
    parts = [p.strip() for p in voltage.split(";") if p.strip()]
    volt = []
    for part in parts:
        if part.lstrip("-").isdigit():
            volt.append(int(part) % g.order)
        else:
            volt.append(g.element_by_label(part))
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


def _parse_vector(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace("(", "").replace(")", "").split(",") if x != "")


def _subgroup_from_args(cover, text: str) -> Subgroup:
    elems = []
    for token in text.split(","):
        token = token.strip()
        if token.lstrip("-").isdigit():
            elems.append(int(token))
        else:
            elems.append(cover.group.element_by_label(token))
    from .groups import generated_subgroup

    return generated_subgroup(cover.group, elems)


# -- command handlers ---------------------------------------------------------


def _cmd_graph(args) -> int:
    g = _load_base(args.base)
    if args.action == "kappa":
        _emit({"vertices": g.vertex_count, "kappa": str(g.spanning_tree_count())}, args)
        return 0
    if args.action == "zeta":
        h = g.ihara_h_poly()
        report = hashimoto_check(g)
        _emit(
            {
                "h_coefficients": [str(c) for c in h.coeffs],
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
        poset = kernel_poset(g, character_table(g))
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
                "galois": cover.derived.is_connected(),
                "kappa_Y": str(cover.derived.spanning_tree_count()),
                "kappa_X": str(cover.base.spanning_tree_count()),
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
                "kappa": str(inter.graph.spanning_tree_count()),
            }
        )
    _emit({"group": g.name, "intermediates": rows}, args)
    return 0


def _cmd_lfun(args) -> int:
    cover = _cover_from_args(args)
    if args.action == "h":
        if args.rep:
            rho = load_rep(args.rep)
        else:
            reps = abelian_reps(cover.group)
            rho = reps[args.chi]
        poly = h_poly(cover, rho)
        _emit(
            {
                "degree": poly.degree,
                "coefficients": [list(map(str, c.coeffs)) for c in poly.coeffs],
                "conductor": poly.e,
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
        with open(args.relation, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        coeffs = {}
        for item in data:
            elems = [
                cover.group.element_by_label(str(x)) if not isinstance(x, int) else x
                for x in item["elements"]
            ]
            coeffs[Subgroup(cover.group, tuple(elems))] = int(item["coefficient"])
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
    primes = _parse_vector(args.p)
    s = _parse_vector(args.s)
    if args.action == "det-m":
        report = lemma_matrix_check(primes, s)
        _emit(report.to_json_dict(), args)
        return 0 if report.passed else 1
    if args.b is None:
        raise GaloisSpanError("degree needs --b")
    b = _parse_vector(args.b)
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
    groups = args.groups.split(",") if args.groups else [
        "C2xC2",
        "S3",
        "D4",
        "Q8",
        "A4",
    ]
    summary = random_suite(args.seed, args.iters, groups, bases, jobs=args.jobs)
    eq3_rows = []
    for spec in groups:
        report = verify_eq3(parse_group_spec(spec))
        eq3_rows.append({"group": spec, "status": report.status(), "passed": report.passed})
    payload = summary.to_json_dict()
    payload["eq3"] = eq3_rows
    _emit(payload, args)
    ok = summary.all_passed and all(r["passed"] for r in eq3_rows)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galois-span",
        description="Exact spanning-tree arithmetic for Galois covers of graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", help="write JSON output to this file")
        p.add_argument("--dot", help="write DOT output to this file")

    def add_cover_args(p):
        p.add_argument("--base", required=True, help="graph file or builtin (bouquet:2, cycle:5, ...)")
        p.add_argument("--group", help="GroupSpec (required with inline voltages)")
        p.add_argument(
            "--voltage",
            required=True,
            help="voltage JSON file or inline semicolon-separated elements",
        )

    p = sub.add_parser("graph", help="base-graph invariants")
    p.add_argument("action", choices=["kappa", "zeta", "dot"])
    p.add_argument("--base", required=True)
    add_io(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("group", help="group information")
    p.add_argument("action", choices=["info", "table1", "subgroups"])
    p.add_argument("spec", nargs="?", help="GroupSpec; table1 defaults to every fixture row")
    add_io(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("poset", help="subgroup posets and Moebius tables")
    p.add_argument("action", choices=["hasse", "mobius"])
    p.add_argument("--group", required=True)
    p.add_argument("--poset", choices=["kernel", "cyclic"], default="cyclic")
    add_io(p)
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("cover", help="derived graphs and intermediate quotients")
    p.add_argument("action", choices=["build", "kappa", "intermediates", "dot"])
    add_cover_args(p)
    p.add_argument("--subgroup", help="comma-separated generators for `dot`")
    add_io(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("lfun", help="twisted zeta numerators")
    p.add_argument("action", choices=["h", "verify-prop", "verify-factor", "verify-inter"])
    add_cover_args(p)
    p.add_argument("--chi", type=int, default=0, help="abelian character index for `h`")
    p.add_argument("--rep", help="matrix representation JSON file for `h`")
    p.add_argument("--subgroup", help="comma-separated generators for `verify-inter`")
    add_io(p)
    p.set_defaults(func=_cmd_lfun)

    p = sub.add_parser("verify", help="spanning-tree formula verifiers")
    p.add_argument(
        "action",
        choices=["kuroda", "brauer-kuroda", "hmsv", "relation", "euler-zero"],
    )
    add_cover_args(p)
    p.add_argument("--relation", help="JSON file of {elements, coefficient} records")
    add_io(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("family", help="cyclic bouquet families and the matrix lemma")
    p.add_argument("action", choices=["degree", "det-m", "nonexistence"])
    p.add_argument("--p", help="comma-separated primes")
    p.add_argument("--s", help="comma-separated exponents")
    p.add_argument("--b", help="comma-separated family parameter")
    p.add_argument("--n", type=int, help="cyclic group order for `nonexistence`")
    add_io(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("selftest", help="seeded random verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--groups", help="comma-separated GroupSpecs")
    add_io(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GaloisSpanError, FileNotFoundError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # errors.InvariantError: an exact-arithmetic invariant failed inside
        # the library; any other arithmetic fault is reported the same way
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
