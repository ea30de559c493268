"""Voltage assignments, derived graphs and intermediate quotients.

A voltage assignment labels one orientation of the base graph with group
elements, kept per directed edge (inverse edges carry inverse voltages).
The derived graph has vertex set V x G with terminus twisted by right
multiplication; G acts on the left of the second coordinate, so the
quotient by a subgroup H uses cosets H*sigma.  One coset-quotient builder
makes every such graph (the derived graph is the quotient by the trivial
subgroup), and every projection is validated as a covering map: Y -> X and
X_H -> X by the full check, Y -> X_H by its morphism property alone, since
a graph morphism between two coverings of X that commutes with them is
itself a covering.  That leaves one test per distinct edge voltage a: the
coset of sigma*a depends only on the coset of sigma.  The cover
is Galois exactly when the derived graph is connected; `is_galois`, which
every Galois guard and the random sampler ask, decides it by generation:
the base is connected and the net voltages of the fundamental cycles of a
spanning tree of the base generate G (Gross & Tucker, Topological Graph
Theory, 1987, section 2.5).

Each assignment keeps its Galois answer and each cover keeps kappa(X_H) per
subgroup H, computed on first request with every check and read back after
that: the verifiers of one cover ask for overlapping sets of quotients.  The
quotient by the trivial subgroup has the derived graph's arrays, so its
kappa is kappa(Y), read from the derived graph instead of a second quotient.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations

from .errors import (
    EulerZeroError,
    InvariantError,
    MismatchedGroupError,
    NoConnectedAssignmentFoundError,
    NotGaloisError,
    VoltageError,
    json_int,
    json_list,
    json_object,
)
from .graphs import SerreGraph
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    generated_subgroup,
    left_cosets,
    parse_group_spec,
)
from .report import VerificationReport


@dataclass(frozen=True)
class VoltageAssignment:
    """Map from the canonical orientation of the base to group elements."""

    base: SerreGraph
    group: FiniteGroup
    volt: tuple[int, ...]  # one element index per orientation edge
    # one element index per directed edge, with alpha(e-bar) = alpha(e)^-1
    edge_volt: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the answer of `is_galois`, once asked
    _galois: bool | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        base, g = self.base, self.group
        if len(self.volt) != base.geometric_edge_count:
            raise VoltageError("need one voltage per geometric edge")
        for x in self.volt:
            if not 0 <= x < g.order:
                raise VoltageError(f"voltage {x} out of range")
        edge_volt = [g.identity] * base.edge_count
        for e, x in zip(base.orientation(), self.volt):
            edge_volt[e] = x
            edge_volt[base.inverse[e]] = g.inv(x)
        object.__setattr__(self, "edge_volt", tuple(edge_volt))

    def voltage_of(self, edge: int) -> int:
        """Voltage of any directed edge, with alpha(e-bar) = alpha(e)^-1."""
        return self.edge_volt[edge]

    def describe(self) -> str:
        names = [self.group.label(x) for x in self.volt]
        return f"{self.group.name} voltages ({', '.join(names)})"


@dataclass(frozen=True)
class Cover:
    """A voltage assignment together with its derived graph."""

    voltage: VoltageAssignment
    derived: SerreGraph
    # kappa(X_H) by the element tuple of H, filled by `intermediate_kappa`
    _kappas: dict[tuple[int, ...], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def base(self) -> SerreGraph:
        return self.voltage.base

    @property
    def group(self) -> FiniteGroup:
        return self.voltage.group

    def describe(self) -> str:
        return (
            f"base ({self.base.vertex_count}v/{self.base.geometric_edge_count}e), "
            + self.voltage.describe()
        )


@dataclass(frozen=True)
class IntermediateGraph:
    """Quotient of the derived graph by a subgroup of the Galois group."""

    cover: Cover
    subgroup: Subgroup
    graph: SerreGraph
    coset_of: tuple[int, ...]  # group element -> coset index
    coset_count: int


def derived_graph(alpha: VoltageAssignment) -> Cover:
    """The quotient by the trivial subgroup: vertices (v, sigma), deterministically."""
    derived, _ = _coset_quotient(alpha, [(sigma,) for sigma in range(alpha.group.order)], "")
    return Cover(voltage=alpha, derived=derived)


def _coset_quotient(
    alpha: VoltageAssignment, cosets: list[tuple[int, ...]], prefix: str
) -> tuple[SerreGraph, tuple[int, ...]]:
    """Quotient of the derived graph by the subgroup whose left cosets are given.

    Vertex (v, H*sigma) is v * k + i for the i-th of the k cosets, named after
    the coset's first element behind `prefix`; edge e x H*sigma leaves it and
    ends at (t(e), H*sigma*alpha(e)).  The projection to the base is validated
    as a covering map.  Returns the graph and the coset index of each element.
    """
    base, g = alpha.base, alpha.group
    k = len(cosets)
    coset_of = [-1] * g.order
    for i, coset in enumerate(cosets):
        for y in coset:
            coset_of[y] = i
    origin = []
    terminus = []
    inverse = []
    for e in range(base.edge_count):
        a = alpha.voltage_of(e)
        o, t, inv = base.origin[e] * k, base.terminus[e] * k, base.inverse[e] * k
        for ci, coset in enumerate(cosets):
            target = coset_of[g.mul(coset[0], a)]
            origin.append(o + ci)
            terminus.append(t + target)
            inverse.append(inv + target)
    names = [
        f"({base.vertex_label(v)},{prefix}{g.label(coset[0])})"
        for v in range(base.vertex_count)
        for coset in cosets
    ]
    graph = SerreGraph(
        vertex_count=base.vertex_count * k,
        origin=tuple(origin),
        terminus=tuple(terminus),
        inverse=tuple(inverse),
        vertex_names=tuple(names),
    )
    _validate_covering(
        graph,
        base,
        vmap=[w // k for w in range(graph.vertex_count)],
        emap=[d // k for d in range(graph.edge_count)],
    )
    return graph, tuple(coset_of)


def _validate_covering(top: SerreGraph, bottom: SerreGraph, vmap, emap) -> None:
    """Assert that (vmap, emap) is a covering map of Serre graphs."""
    if sorted(set(vmap)) != list(range(bottom.vertex_count)):
        raise InvariantError("projection is not vertex-surjective")
    for e in range(top.edge_count):
        f = emap[e]
        if vmap[top.origin[e]] != bottom.origin[f] or vmap[top.terminus[e]] != bottom.terminus[f]:
            raise InvariantError("projection does not commute with endpoints")
        if emap[top.inverse[e]] != bottom.inverse[f]:
            raise InvariantError("projection does not commute with inversion")
    bottom_out = bottom.out_edges()
    for w, leaving in enumerate(top.out_edges()):
        # bottom_out tuples are strictly increasing, so equality also rules out repeats
        if tuple(sorted(emap[e] for e in leaving)) != bottom_out[vmap[w]]:
            raise InvariantError(f"restriction at vertex {w} is not a bijection")


def cycle_nets(alpha: VoltageAssignment) -> list[int]:
    """Net voltages of the fundamental cycles of a spanning tree of a connected base.

    The tree is grown from vertex 0; potential[v] is the net voltage of the
    tree path from 0 to v, and the geometric edge u -> v off the tree with
    voltage a closes the cycle with net potential[u] * a * potential[v]^-1.
    Walking from (0, e) in the derived graph reaches (0, sigma) exactly for
    sigma in the subgroup these generate.
    """
    base, g, volt = alpha.base, alpha.group, alpha.volt
    edges = base.geometric_edges()
    incident: list[list[int]] = [[] for _ in range(base.vertex_count)]
    for slot, (u, v) in enumerate(edges):
        incident[u].append(slot)
        incident[v].append(slot)
    potential: list[int | None] = [None] * base.vertex_count
    potential[0] = g.identity
    tree = set()
    stack = [0]
    while stack:
        w = stack.pop()
        for slot in incident[w]:
            u, v = edges[slot]
            if potential[v] is None:
                potential[v] = g.mul(potential[u], volt[slot])
                stack.append(v)
            elif potential[u] is None:
                potential[u] = g.mul(potential[v], g.inv(volt[slot]))
                stack.append(u)
            else:
                continue
            tree.add(slot)
    return [
        g.mul(g.mul(potential[u], volt[slot]), g.inv(potential[v]))
        for slot, (u, v) in enumerate(edges)
        if slot not in tree
    ]


def is_galois(alpha: VoltageAssignment) -> bool:
    """Connected derived graph, by generation: a connected base whose `cycle_nets` generate G."""
    if not isinstance(alpha, VoltageAssignment):
        raise TypeError(f"is_galois takes a VoltageAssignment, got {type(alpha).__name__}")
    if alpha._galois is None:
        g = alpha.group
        galois = alpha.base.is_connected() and (
            generated_subgroup(g, cycle_nets(alpha)).order == g.order
        )
        object.__setattr__(alpha, "_galois", galois)
    return alpha._galois


def _check_quotient(c: Cover, h: Subgroup) -> None:
    """The guards of every quotient request: H lies in G and the cover is Galois."""
    if h.parent is not c.group:
        raise MismatchedGroupError("subgroup of a different group")
    if not is_galois(c.voltage):
        raise NotGaloisError("intermediate graphs need a connected (Galois) cover")


def intermediate_graph(c: Cover, h: Subgroup) -> IntermediateGraph:
    """Quotient by the left action of H: vertices (v, H*sigma).

    X_H -> X is validated as a covering when the quotient is built.  The
    projection Y -> X_H, (v, sigma) -> (v, H*sigma), commutes with both
    coverings of X, so it is a covering as soon as it is a graph morphism
    (`_validate_projection`).
    """
    _check_quotient(c, h)
    cosets = left_cosets(h)
    graph, coset_of = _coset_quotient(c.voltage, cosets, "H")
    _validate_projection(c.voltage, coset_of)
    return IntermediateGraph(
        cover=c, subgroup=h, graph=graph, coset_of=coset_of, coset_count=len(cosets)
    )


def _validate_projection(alpha: VoltageAssignment, coset_of) -> None:
    """Assert that (v, sigma) -> (v, coset_of[sigma]) is a morphism of Y onto its quotient.

    The quotient's edge e x C ends at (t(e), coset of rep(C)*alpha(e)) for a
    representative of C, and its inverse starts there, so the projection
    commutes with endpoints and inversion exactly when, for every distinct
    edge voltage a, the coset of sigma*a depends only on the coset of sigma.
    A morphism between two coverings of X that commutes with them is a
    covering, so this completes the check of Y -> X_H.
    """
    cayley = alpha.group.cayley
    for a in set(alpha.edge_volt):
        image: dict[int, int] = {}
        for sigma, coset in enumerate(coset_of):
            target = coset_of[cayley[sigma][a]]
            if image.setdefault(coset, target) != target:
                raise InvariantError("projection from the cover does not commute with endpoints")


def intermediate_kappa(c: Cover, h: Subgroup) -> int:
    """kappa(X_H), kept on the cover by the exact subgroup (never by its class).

    The first request builds and validates the quotient; only the count is
    kept.  For the trivial subgroup the quotient is the derived graph itself
    (same arrays), so its count is kappa(Y), kept on the derived graph.
    """
    _check_quotient(c, h)
    if h.elements not in c._kappas:
        quotient = c.derived if h.is_trivial() else intermediate_graph(c, h).graph
        c._kappas[h.elements] = quotient.spanning_tree_count()
    return c._kappas[h.elements]


def conjugate_kappa_check(c: Cover) -> VerificationReport:
    """kappa agrees across conjugate subgroups (cover-isomorphism consequence).

    Each subgroup's kappa comes from its own quotient, since the cover keeps
    kappa per subgroup and not per class, so this stays an independent check;
    the trivial subgroup, alone in its class, takes kappa(Y) from the derived
    graph.  Every quotient's projection from Y is checked as a morphism over X
    (`intermediate_graph`).
    """
    if not is_galois(c.voltage):
        raise NotGaloisError("conjugate check needs a Galois cover")
    subgroups = all_subgroups(c.group)
    kappas = [intermediate_kappa(c, h) for h in subgroups]
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, h in enumerate(subgroups):
        classes.setdefault(h.class_key(), []).append(i)
    pairs = sorted(p for members in classes.values() for p in combinations(members, 2))
    mismatches = [
        (subgroups[i].describe(), kappas[i], subgroups[j].describe(), kappas[j])
        for i, j in pairs
        if kappas[i] != kappas[j]
    ]
    return VerificationReport.compare(
        "conjugate subgroups give equal kappa",
        c.describe(),
        len(pairs),
        len(pairs) - len(mismatches),
        notes="; ".join(map(str, mismatches)),
    )


VOLTAGE_ATTEMPTS = 200


def random_connected_voltage(base: SerreGraph, g: FiniteGroup, seed: int) -> VoltageAssignment:
    """Seeded uniform voltages, resampled until the derived graph is connected.

    Each attempt is tested by `is_galois`, not by building the derived graph.
    """
    if not base.is_connected():
        raise NoConnectedAssignmentFoundError("base graph is disconnected")
    if base.euler_characteristic() == 0 and not g.is_cyclic():
        raise EulerZeroError(
            "covers of a graph with zero Euler characteristic have cyclic Galois group"
        )
    rng = random.Random(seed)
    m = base.geometric_edge_count
    for _ in range(VOLTAGE_ATTEMPTS):
        volt = tuple(rng.randrange(g.order) for _ in range(m))
        alpha = VoltageAssignment(base=base, group=g, volt=volt)
        if is_galois(alpha):
            return alpha
    raise NoConnectedAssignmentFoundError(
        f"no connected assignment found in {VOLTAGE_ATTEMPTS} attempts"
    )


# -- file formats ----------------------------------------------------------------


def voltage_from_json_dict(base: SerreGraph, data: dict) -> VoltageAssignment:
    """Voltage file: {"group": spec, "assignments": [{"edge": k, "element": x}]}.

    `edge` is a geometric edge index of the base; `element` names a group
    element (`FiniteGroup.element`).
    """
    data = json_object(data, "voltage file", "group", "assignments")
    g = parse_group_spec(data["group"])
    volt = [g.identity] * base.geometric_edge_count
    for item in json_list(data["assignments"], "voltage assignments"):
        item = json_object(item, "voltage assignment", "edge", "element")
        k = json_int(item["edge"], "voltage edge")
        if not 0 <= k < base.geometric_edge_count:
            raise VoltageError(f"edge index {k} out of range")
        volt[k] = g.element(item["element"], "voltage element")
    return VoltageAssignment(base=base, group=g, volt=tuple(volt))


def load_voltage(base: SerreGraph, path: str) -> VoltageAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        return voltage_from_json_dict(base, json.load(fh))


def cover_to_json_dict(c: Cover) -> dict:
    return {
        "group": c.group.name,
        "base": {
            "vertices": c.base.vertex_count,
            "edges": [[u, v] for u, v in c.base.geometric_edges()],
        },
        "voltages": [c.group.label(x) for x in c.voltage.volt],
        "derived": {
            "vertices": c.derived.vertex_count,
            "names": list(c.derived.vertex_names or ()),
            "edges": [[u, v] for u, v in c.derived.geometric_edges()],
        },
    }
