"""Voltage assignments, derived graphs and intermediate quotients.

A voltage assignment labels one orientation of the base graph with group
elements (inverse edges carry inverse voltages).  The derived graph has
vertex set V x G with terminus twisted by right multiplication; the group
acts on the left of the second coordinate, so the quotient by a subgroup H
uses cosets H*sigma and is well-defined against the right-multiplying
voltages.  Connectivity of the derived graph is exactly the Galois
condition, and every projection built here is validated as a covering map.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    EulerZeroError,
    InvariantError,
    MismatchedGroupError,
    NoConnectedAssignmentFoundError,
    NotGaloisError,
)
from .graphs import SerreGraph
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
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

    def __post_init__(self):
        if len(self.volt) != self.base.geometric_edge_count:
            raise ValueError("need one voltage per geometric edge")
        for x in self.volt:
            if not 0 <= x < self.group.order:
                raise ValueError(f"voltage {x} out of range")

    def voltage_of(self, edge: int) -> int:
        """Voltage of any directed edge, with alpha(e-bar) = alpha(e)^-1."""
        inv = self.base.inverse[edge]
        if edge < inv:
            return self.volt[_orientation_slot(self.base, edge)]
        return self.group.inv(self.volt[_orientation_slot(self.base, inv)])

    def describe(self) -> str:
        names = [self.group.label(x) for x in self.volt]
        return f"{self.group.name} voltages ({', '.join(names)})"


def _orientation_slot(base: SerreGraph, edge: int) -> int:
    # canonical orientation lists the lower edge of each pair in index order
    from bisect import bisect_left

    ori = base.orientation()
    i = bisect_left(ori, edge)
    if i < len(ori) and ori[i] == edge:
        return i
    raise ValueError(f"edge {edge} not in the canonical orientation")


@dataclass(frozen=True)
class Cover:
    """A voltage assignment together with its derived graph."""

    voltage: VoltageAssignment
    derived: SerreGraph

    @property
    def base(self) -> SerreGraph:
        return self.voltage.base

    @property
    def group(self) -> FiniteGroup:
        return self.voltage.group

    def derived_vertex(self, v: int, sigma: int) -> int:
        return v * self.group.order + sigma

    def project_vertex(self, w: int) -> int:
        return w // self.group.order

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

    def vertex(self, v: int, sigma: int) -> int:
        return v * self.coset_count + self.coset_of[sigma]


def derived_graph(alpha: VoltageAssignment) -> Cover:
    """Construct the derived graph with vertices (v, sigma), deterministically."""
    base, g = alpha.base, alpha.group
    n = g.order
    origin = []
    terminus = []
    inverse = []
    for e in range(base.edge_count):
        a = alpha.voltage_of(e)
        for sigma in range(n):
            origin.append(base.origin[e] * n + sigma)
            terminus.append(base.terminus[e] * n + g.mul(sigma, a))
            inverse.append(base.inverse[e] * n + g.mul(sigma, a))
    names = [
        f"({base.vertex_label(v)},{g.label(sigma)})"
        for v in range(base.vertex_count)
        for sigma in range(n)
    ]
    derived = SerreGraph(
        vertex_count=base.vertex_count * n,
        origin=tuple(origin),
        terminus=tuple(terminus),
        inverse=tuple(inverse),
        vertex_names=tuple(names),
    )
    cover = Cover(voltage=alpha, derived=derived)
    _validate_covering(
        derived,
        base,
        vmap=[w // n for w in range(derived.vertex_count)],
        emap=[d // n for d in range(derived.edge_count)],
    )
    return cover


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
    top_out = _out_edge_lists(top)
    bottom_out = _out_edge_lists(bottom)
    for w in range(top.vertex_count):
        # bottom_out lists are strictly increasing, so equality also rules out repeats
        if sorted(emap[e] for e in top_out[w]) != bottom_out[vmap[w]]:
            raise InvariantError(f"restriction at vertex {w} is not a bijection")


def _out_edge_lists(g: SerreGraph) -> list[list[int]]:
    """Directed edges leaving each vertex, in index order."""
    out: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e, v in enumerate(g.origin):
        out[v].append(e)
    return out


def is_galois(c: Cover) -> bool:
    """Connected derived graph; fiber transitivity holds by construction."""
    return c.derived.is_connected()


def intermediate_graph(c: Cover, h: Subgroup) -> IntermediateGraph:
    """Quotient by the left action of H: vertices (v, H*sigma)."""
    g = c.group
    if h.parent is not g:
        raise MismatchedGroupError("subgroup of a different group")
    if not is_galois(c):
        raise NotGaloisError("intermediate graphs need a connected (Galois) cover")
    base = c.base
    cosets = left_cosets(h)
    coset_of = [-1] * g.order
    for i, coset in enumerate(cosets):
        for y in coset:
            coset_of[y] = i
    k = len(cosets)

    origin = []
    terminus = []
    inverse = []
    for e in range(base.edge_count):
        a = c.voltage.voltage_of(e)
        for ci in range(k):
            rep = cosets[ci][0]
            target = coset_of[g.mul(rep, a)]
            origin.append(base.origin[e] * k + ci)
            terminus.append(base.terminus[e] * k + target)
            inverse.append(base.inverse[e] * k + target)
    names = [
        f"({base.vertex_label(v)},H{g.label(cosets[ci][0])})"
        for v in range(base.vertex_count)
        for ci in range(k)
    ]
    graph = SerreGraph(
        vertex_count=base.vertex_count * k,
        origin=tuple(origin),
        terminus=tuple(terminus),
        inverse=tuple(inverse),
        vertex_names=tuple(names),
    )
    inter = IntermediateGraph(
        cover=c, subgroup=h, graph=graph, coset_of=tuple(coset_of), coset_count=k
    )
    # both projections must be covering maps
    n = g.order
    _validate_covering(
        c.derived,
        graph,
        vmap=[(w // n) * k + coset_of[w % n] for w in range(c.derived.vertex_count)],
        emap=[(d // n) * k + coset_of[d % n] for d in range(c.derived.edge_count)],
    )
    _validate_covering(
        graph,
        base,
        vmap=[w // k for w in range(graph.vertex_count)],
        emap=[d // k for d in range(graph.edge_count)],
    )
    return inter


def intermediate_kappa(c: Cover, h: Subgroup) -> int:
    return intermediate_graph(c, h).graph.spanning_tree_count()


def conjugate_kappa_check(c: Cover) -> VerificationReport:
    """kappa agrees across conjugate subgroups (cover-isomorphism consequence)."""
    started = time.perf_counter()
    if not is_galois(c):
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
        started=started,
        notes="; ".join(map(str, mismatches)),
    )


def random_connected_voltage(
    base: SerreGraph, g: FiniteGroup, seed: int, max_attempts: int = 200
) -> VoltageAssignment:
    """Seeded uniform voltages, resampled until the derived graph is connected."""
    if not base.is_connected():
        raise NoConnectedAssignmentFoundError("base graph is disconnected")
    if base.euler_characteristic() == 0 and not g.is_cyclic():
        raise EulerZeroError(
            "covers of a graph with zero Euler characteristic have cyclic Galois group"
        )
    rng = random.Random(seed)
    m = base.geometric_edge_count
    for _ in range(max_attempts):
        volt = tuple(rng.randrange(g.order) for _ in range(m))
        alpha = VoltageAssignment(base=base, group=g, volt=volt)
        if derived_graph(alpha).derived.is_connected():
            return alpha
    raise NoConnectedAssignmentFoundError(
        f"no connected assignment found in {max_attempts} attempts"
    )


# -- file formats ----------------------------------------------------------------


def voltage_from_json_dict(base: SerreGraph, data: dict) -> VoltageAssignment:
    """Voltage file: {"group": spec, "assignments": [{"edge": k, "element": x}]}.

    `edge` is a geometric edge index of the base; `element` is a label or an
    element index of the group.
    """
    g = parse_group_spec(data["group"])
    volt = [g.identity] * base.geometric_edge_count
    for item in data["assignments"]:
        k = int(item["edge"])
        if not 0 <= k < base.geometric_edge_count:
            raise ValueError(f"edge index {k} out of range")
        element = item["element"]
        if isinstance(element, int):
            volt[k] = element
        else:
            volt[k] = g.element_by_label(str(element))
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
