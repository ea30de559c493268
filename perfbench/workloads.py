"""The three workloads: seeded inputs, the op each input drives, and its check.

Each op calls the entry point a user would call: `cli.main([...])` with
stdout captured in memory where the CLI has a command, otherwise the public
function.  Functions are looked up on their module at call time, so the
tracer's wrappers are the ones called.  The seed draws voltages and, except
on group-lattice, the op order; the mix of groups and commands is fixed, so
every seed costs about the same.

`run()` returns the raw output; `check(raw)` returns (ok, normalized), where
`normalized` is the JSON-able result that enters the digest, without the
wall-clock `seconds` field of verification reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from galois_span import cli, covers, graphs, groups, theorems
from galois_span.covers import VoltageAssignment
from galois_span.errors import GaloisSpanError
from galois_span.table1 import TABLE1_FLAGS

PASSING = ("pass", "trivially true")

# big-cover: (group, base, spanning-tree edges of the base, verifiers).  The
# cost of a 239x239 Bareiss determinant depends on the cover's structure, so
# a second C2xS4 cover averages that over the seed.
BIG_COVERS = (
    ("C2xS4", "complete:5", (0, 1, 2, 3), ("kuroda", "brauer-kuroda")),
    ("C2xS4", "complete:5", (0, 1, 2, 3), ("brauer-kuroda",)),
    ("S4", "complete:5", (0, 1, 2, 3), ("kuroda", "brauer-kuroda")),
    ("C2xC2xC2xC2", "complete:5", (0, 1, 2, 3), ("kuroda", "brauer-kuroda", "hmsv")),
    ("C3xS3", "complete:5", (0, 1, 2, 3), ("kuroda", "brauer-kuroda")),
)
FACTOR_COVERS = (("C2xC6", "complete:4", (0, 1, 2)), ("C3xC3", "complete:4", (0, 1, 2)))

# group-lattice: `group info` groups (character tables only), and the groups
# whose subgroup lattices and posets are built
INFO_GROUPS = ("C8xC8", "D32", "C2xC2xC2xC2xC2")
LATTICE_GROUPS = tuple(s for s in sorted(TABLE1_FLAGS) if "x" in s or s[0] in "DQAS")
CONJUGATE_COVER = ("C2xS4", "bouquet:2")

# random-corpus: (group, minimal number of generators); a base whose Betti
# number is below the rank has no connected cover, so the request is refused
CORPUS_GROUPS = (
    ("C2xC2", 2), ("S3", 2), ("D4", 2), ("Q8", 2), ("A4", 2), ("C6", 1),
    ("C2xC4", 2), ("D5", 2), ("D6", 2), ("Dic3", 2), ("C3xC3", 2), ("C2xC6", 2),
    ("S4", 2), ("C2xA4", 2), ("C3xS3", 2), ("Dic5", 2), ("C4xC4", 2),
    ("C2xQ8", 3), ("C2xC2xC2", 3), ("C2xD4", 3),
)
CORPUS_BASES = ((2, "bouquet:2"), (3, "bouquet:3"))  # (Betti number, base)
CORPUS_ROUNDS = 6


class Op:
    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run
        self.check = check


def _strip_seconds(value):
    if isinstance(value, dict):
        return {k: _strip_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_strip_seconds(v) for v in value]
    return value


# -- inputs ----------------------------------------------------------------------


def _generating_voltages(spec: str, edges: int, tree, rng: random.Random) -> str:
    """Identity on a spanning tree, seeded cotree voltages that generate G.

    The derived graph is then connected, i.e. the cover is Galois.
    """
    g = groups.parse_group_spec(spec)
    cotree = [e for e in range(edges) if e not in tree]
    while True:
        volt = [g.identity] * edges
        for e in cotree:
            volt[e] = rng.randrange(g.order)
        reached = {g.identity}
        frontier = [g.identity]
        while frontier:
            x = frontier.pop()
            for e in cotree:
                y = g.mul(x, volt[e])
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if len(reached) == g.order:
            return ";".join(map(str, volt))


def _base(spec: str):
    kind, _, n = spec.partition(":")
    return {"bouquet": graphs.bouquet, "complete": graphs.complete_graph}[kind](int(n))


def _base_edges(spec: str) -> int:
    return _base(spec).geometric_edge_count


# -- CLI ops ---------------------------------------------------------------------


def _cli_run(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_check(accept):
    def check(raw):
        code, out, err = raw
        if code != 0:
            return False, {"exit": code, "stderr": err.strip()}
        payload = _strip_seconds(json.loads(out))
        return bool(accept(payload)), payload

    return check


def _report_ok(payload) -> bool:
    return payload["status"] in PASSING


def _table1_ok(payload) -> bool:
    return bool(payload["rows"]) and all(r["fixture_status"] != "mismatch" for r in payload["rows"])


def _info_ok(payload) -> bool:
    return payload["fixture_status"] != "mismatch"


def _subgroups_ok(payload) -> bool:
    n = payload["order"]
    orders = [h["order"] for h in payload["subgroups"]]
    return 1 in orders and n in orders and all(n % k == 0 for k in orders)


def _mobius_ok(payload) -> bool:
    diagonal = [e for e in payload["mu"] if e["from"] == e["to"]]
    return bool(diagonal) and all(e["mu"] == "1" for e in diagonal)


def _cli_op(argv, accept) -> Op:
    return Op(" ".join(argv), _cli_run(argv), _cli_check(accept))


# -- function ops ----------------------------------------------------------------


def _reports_check(raw):
    describe, reports = raw
    payload = {"cover": describe, "reports": [_strip_seconds(r.to_json_dict()) for r in reports]}
    return all(r.status() in PASSING for r in reports), payload


def _conjugate_op(seed_rng: random.Random) -> Op:
    spec, base_spec = CONJUGATE_COVER
    volt = _generating_voltages(spec, _base_edges(base_spec), (), seed_rng)
    g = groups.parse_group_spec(spec)
    alpha = VoltageAssignment(
        base=_base(base_spec), group=g, volt=tuple(int(x) for x in volt.split(";"))
    )

    def run():
        cover = covers.derived_graph(alpha)
        return cover.describe(), [covers.conjugate_kappa_check(cover)]

    return Op(f"conjugate_kappa_check {spec} {base_spec} {volt}", run, _reports_check)


def _corpus_op(parsed: dict, spec: str, rank: int, base, betti: int, seed: int) -> Op:
    refusal_expected = rank > betti

    def run():
        g = parsed.get(spec)
        if g is None:
            g = parsed[spec] = groups.parse_group_spec(spec)
        try:
            alpha = covers.random_connected_voltage(base, g, seed)
        except GaloisSpanError as exc:
            return exc
        cover = covers.derived_graph(alpha)
        return cover.describe(), [
            theorems.verify_kuroda(cover),
            theorems.verify_brauer_kuroda(cover),
            covers.conjugate_kappa_check(cover),
            graphs.hashimoto_check(cover.derived),
        ]

    def check(raw):
        if isinstance(raw, GaloisSpanError):
            return refusal_expected, {"refused": type(raw).__name__, "message": str(raw)}
        ok, payload = _reports_check(raw)
        return ok and not refusal_expected, payload

    return Op(f"corpus {spec} betti={betti} seed={seed}", run, check)


# -- workloads -------------------------------------------------------------------


def _big_cover(rng: random.Random, smoke: bool) -> list[Op]:
    ops = []
    covers_ = [c for c in BIG_COVERS if c[0] == "C2xC2xC2xC2"] if smoke else BIG_COVERS
    for spec, base, tree, actions in covers_:
        volt = _generating_voltages(spec, _base_edges(base), tree, rng)
        for action in actions[:1] if smoke else actions:
            argv = ("verify", action, "--base", base, "--group", spec, "--voltage", volt)
            ops.append(_cli_op(argv, _report_ok))
    for spec, base, tree in FACTOR_COVERS[1:] if smoke else FACTOR_COVERS:
        volt = _generating_voltages(spec, _base_edges(base), tree, rng)
        argv = ("lfun", "verify-factor", "--base", base, "--group", spec, "--voltage", volt)
        ops.append(_cli_op(argv, _report_ok))
    rng.shuffle(ops)
    return ops


def _group_lattice(rng: random.Random, smoke: bool) -> list[Op]:
    if smoke:
        lattice, info, table1 = ("S3", "C2xD4"), ("C2xC2xC2",), ("group", "table1", "Q8")
    else:
        lattice, info, table1 = LATTICE_GROUPS, INFO_GROUPS, ("group", "table1")
    ops = [_cli_op(table1, _table1_ok)]
    ops += [_cli_op(("group", "info", s), _info_ok) for s in info]
    for s in lattice:
        ops.append(_cli_op(("group", "subgroups", s), _subgroups_ok))
        for poset in ("kernel", "cyclic"):
            ops.append(_cli_op(("poset", "mobius", "--group", s, "--poset", poset), _mobius_ok))
    if not smoke:
        ops.append(_conjugate_op(rng))
    # a fixed order: the worker's peak RSS here moved by 15% with the op order
    return ops


def _random_corpus(rng: random.Random, smoke: bool) -> list[Op]:
    parsed: dict = {}
    bases = [(betti, _base(spec)) for betti, spec in CORPUS_BASES]
    if smoke:
        smoke_groups = [g for g in CORPUS_GROUPS if g[0] in ("S3", "C2xC2xC2")]
        schedule = [(g, b) for g in smoke_groups for b in bases]
    else:
        schedule = [(g, b) for g in CORPUS_GROUPS for b in bases] * CORPUS_ROUNDS
    ops = [
        _corpus_op(parsed, spec, rank, base, betti, rng.getrandbits(32))
        for (spec, rank), (betti, base) in schedule
    ]
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The op list of one pass; the same seed gives the same ops in the same order."""
    makers = {
        "big-cover": _big_cover,
        "group-lattice": _group_lattice,
        "random-corpus": _random_corpus,
    }
    return makers[workload](random.Random(f"{workload}/{seed}"), smoke)
