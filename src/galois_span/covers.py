"""Voltage assignments, derived graphs and intermediate quotients.

A voltage assignment labels one orientation of the base graph with group
elements, kept per directed edge (inverse edges carry inverse voltages).
The derived graph has vertex set V x G with terminus twisted by right
multiplication; G acts on the left of the second coordinate, so the
quotient by a subgroup H uses cosets H*sigma.  Every such quotient (the
derived graph is the quotient by the trivial subgroup) is read off one coset
plan that the group keeps per subgroup, keyed by H's elements
(`_coset_plan`): the coset index of each element, the first element of each
coset, and the action of each voltage a on the cosets, image[i] = coset of
rep(i)*a.  The plan checks, the first time any cover of G asks:

- that H's left cosets partition G, which makes X_H -> X a covering by
  construction (Gross & Tucker, Topological Graph Theory, 1987, section
  2.5): edge e at coset i ends at coset image[i] of t(e), one quotient edge
  over each base edge at every vertex;
- for each voltage a, that the coset of sigma*a depends only on the coset
  of sigma, which makes Y -> X_H a graph morphism, and a morphism between
  two coverings of X that commutes with them is a covering.

Both raise `InvariantError`, and each runs before its result is first kept:
a coset list or a voltage that fails keeps nothing and fails again on the
next request.  The labelled graphs (`derived_graph`, `intermediate_graph`)
lay out edge arrays from the plan, and their `SerreGraph` checks that
inversion is a fixed-point-free involution that swaps endpoints
(`GraphError`).  The kappa route lays out no arrays: it hands the plan's
directed edges straight to `matrix_tree_count`.  The full covering check of
a map between Serre graphs, over every vertex and edge with every star
sorted, is kept in the tests as the oracle of these checks.

The cover is Galois exactly when the derived graph is connected; `is_galois`,
which every Galois guard asks, decides it by generation: the base is
connected and the net voltages of the fundamental cycles of a spanning tree
of the base generate G.  `random_connected_voltage` walks that spanning tree
once per call and tests each draw by the same generation test.

Each assignment keeps its Galois answer and each cover keeps kappa(X_H) per
subgroup H, computed on first request and read back after that: the
verifiers of one cover ask for overlapping sets of quotients.  The quotient
by the trivial subgroup is the derived graph, so its kappa is kappa(Y), read
from the derived graph instead of a second quotient.  For any other H,
kappa(X_H) is read from the plan's checked actions alone, with no labelled
graph, and the reduced Laplacian's elimination checks symmetry and positive
pivots.  Two checks of a labelled graph are implied and skipped.  The
connectivity search: the Galois guard has shown Y connected, and X_H is its
image under a morphism.  The involution check: the action of a^-1 undoes
the action of a on the cosets.
"""

from __future__ import annotations

import random
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
    load_json,
)
from .frozen import Frozen
from .graphs import SerreGraph, matrix_tree_count
from .groups import (
    FiniteGroup,
    Subgroup,
    _closure,
    all_subgroups,
    left_cosets,
    parse_group_spec,
)
from .report import VerificationReport


class VoltageAssignment(Frozen):
    """Map from the canonical orientation of the base to group elements."""

    __slots__ = (
        "base",
        "group",
        "volt",  # one element index per orientation edge
        # one element index per directed edge, with alpha(e-bar) = alpha(e)^-1
        "edge_volt",
        "_galois",  # the answer of `is_galois`, once asked
    )

    def __init__(self, base: SerreGraph, group: FiniteGroup, volt: tuple[int, ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "volt", volt)
        object.__setattr__(self, "_galois", None)
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.group == other.group and self.volt == other.volt

    def voltage_of(self, edge: int) -> int:
        """Voltage of any directed edge, with alpha(e-bar) = alpha(e)^-1."""
        return self.edge_volt[edge]

    def describe(self) -> str:
        names = [self.group.label(x) for x in self.volt]
        return f"{self.group.name} voltages ({', '.join(names)})"


class Cover(Frozen):
    """A voltage assignment together with its derived graph."""

    __slots__ = (
        "voltage",
        "derived",
        # kappa(X_H) by the element tuple of H, filled by `intermediate_kappa`
        "_kappas",
        # h(1, chi) by the index of chi in `character_table(G)`, every nontrivial
        # chi at once, filled by `lfunctions._h_at_one`
        "_h_at_one",
    )

    def __init__(self, voltage: VoltageAssignment, derived: SerreGraph):
        object.__setattr__(self, "voltage", voltage)
        object.__setattr__(self, "derived", derived)
        object.__setattr__(self, "_kappas", {})
        object.__setattr__(self, "_h_at_one", {})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.voltage == other.voltage and self.derived == other.derived

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


class IntermediateGraph(Frozen):
    """Quotient of the derived graph by a subgroup of the Galois group."""

    __slots__ = ("cover", "subgroup", "graph", "coset_of", "coset_count")

    def __init__(
        self,
        cover: Cover,
        subgroup: Subgroup,
        graph: SerreGraph,
        coset_of: tuple[int, ...],  # group element -> coset index
        coset_count: int,
    ):
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "coset_of", coset_of)
        object.__setattr__(self, "coset_count", coset_count)


def derived_graph(alpha: VoltageAssignment) -> Cover:
    """The quotient by the trivial subgroup: vertices (v, sigma), deterministically."""
    g = alpha.group
    plan = _coset_plan(Subgroup._trusted(g, [g.identity]))
    return Cover(voltage=alpha, derived=_coset_quotient(alpha, plan, ""))


class _CosetPlan:
    """What the quotient by one subgroup H needs of G alone, kept once per group.

    The left cosets, as the coset index of each element (`coset_of`, from
    `_coset_index`, whose partition check runs before the plan exists) and
    the first element of each coset (`reps`), and the checked action of
    each voltage asked so far (`actions`, filled by `_edge_actions`).
    """

    __slots__ = ("coset_of", "reps", "actions")

    def __init__(self, g: FiniteGroup, cosets: list[tuple[int, ...]]):
        self.coset_of = tuple(_coset_index(g.order, cosets))
        self.reps = [coset[0] for coset in cosets]
        self.actions: dict[int, tuple[int, ...]] = {}


def _coset_plan(h: Subgroup) -> _CosetPlan:
    """The group's kept plan for H's left cosets, keyed by H's elements.

    Built the first time any cover of G asks for H; a coset list that fails
    the partition check keeps nothing and is refused again on the next
    request.
    """
    plans = h.parent._cache.setdefault("coset_plans", {})
    plan = plans.get(h.elements)
    if plan is None:
        plan = plans[h.elements] = _CosetPlan(h.parent, left_cosets(h))
    return plan


def _coset_quotient(alpha: VoltageAssignment, plan: _CosetPlan, prefix: str) -> SerreGraph:
    """Quotient of the derived graph by the subgroup whose coset plan is given.

    Vertex (v, H*sigma) is v * k + i for the i-th of the k cosets, named
    after the coset's first element behind `prefix`; edge e x H*sigma is
    e * k + i, leaves it and ends at (t(e), image[i]) for the action image
    of alpha(e) (`_edge_actions`), and its inverse is e-bar x image[i].
    X_H -> X, (w, d) -> (w // k, d // k), needs no further check: the
    cosets are checked to partition G (`_coset_index`), so every image
    index lies in [0, k), and with the arrays built by index that alone
    gives vertex surjectivity, endpoints, inversion and one quotient edge
    over each base edge at every vertex.  The `SerreGraph` construction
    checks that inversion is an involution.
    """
    base, g = alpha.base, alpha.group
    k = len(plan.reps)
    origin: list[int] = []
    terminus: list[int] = []
    inverse: list[int] = []
    for e, image in enumerate(_edge_actions(alpha, plan)):
        o, t, inv = base.origin[e] * k, base.terminus[e] * k, base.inverse[e] * k
        origin.extend(range(o, o + k))
        terminus.extend([t + x for x in image])
        inverse.extend([inv + x for x in image])
    names = [
        f"({base.vertex_label(v)},{prefix}{g.label(r)})"
        for v in range(base.vertex_count)
        for r in plan.reps
    ]
    return SerreGraph(
        vertex_count=base.vertex_count * k,
        origin=tuple(origin),
        terminus=tuple(terminus),
        inverse=tuple(inverse),
        vertex_names=tuple(names),
    )


def _edge_actions(alpha: VoltageAssignment, plan: _CosetPlan) -> list[tuple[int, ...]]:
    """The action of each directed edge's voltage on the plan's cosets.

    The action of a is built and checked (`_voltage_action`) the first time
    any cover of G asks for it with this plan, and read back for every later
    cover; a voltage whose action fails its check keeps nothing and fails
    again on the next request.
    """
    actions = plan.actions
    out = []
    for a in alpha.edge_volt:
        image = actions.get(a)
        if image is None:
            image = actions[a] = _voltage_action(alpha.group, plan.coset_of, plan.reps, a)
        out.append(image)
    return out


def _voltage_action(
    g: FiniteGroup, coset_of: tuple[int, ...], reps: list[int], a: int
) -> tuple[int, ...]:
    """The right action of a on the cosets, image[i] = coset of rep(i)*a, checked.

    One Cayley column gives the coset of sigma*a for every sigma, and the
    action is well defined when that coset depends only on the coset of
    sigma.  That is exactly when (v, sigma) -> (v, coset of sigma) is a
    graph morphism of the derived graph onto the quotient, for every cover
    of G with a among its voltages, and a morphism between two coverings of
    X that commutes with them is a covering.  Failing it raises
    `InvariantError`.
    """
    column = [coset_of[row[a]] for row in g.cayley]
    image = tuple([column[r] for r in reps])
    if [image[c] for c in coset_of] != column:
        raise InvariantError("projection from the cover does not commute with endpoints")
    return image


def _coset_index(n: int, cosets: list[tuple[int, ...]]) -> list[int]:
    """The coset index of each of the n elements; `InvariantError` unless the
    cosets are nonempty and every element lies in exactly one of them."""
    coset_of = [-1] * n
    for i, coset in enumerate(cosets):
        for y in coset:
            if not 0 <= y < n or coset_of[y] != -1:
                raise InvariantError(f"element {y} is not in exactly one coset")
            coset_of[y] = i
    if -1 in coset_of or not all(cosets):
        raise InvariantError("cosets do not partition the group")
    return coset_of


def _spanning_tree_plan(base: SerreGraph):
    """One walk of a spanning tree of the base, grown from vertex 0 by depth-first search.

    Returns (steps, chords), or None when the base is empty or disconnected.
    Each step (slot, known, new, forward) reaches vertex `new` from `known`
    along geometric edge `slot`, traversed along its orientation when
    `forward`; the steps come in the order the walk reaches the vertices.
    Each chord (slot, u, v) is a geometric edge u -> v off the tree.
    """
    n = base.vertex_count
    if n == 0:
        return None
    edges = base.geometric_edges()
    incident: list[list[int]] = [[] for _ in range(n)]
    for slot, (u, v) in enumerate(edges):
        incident[u].append(slot)
        incident[v].append(slot)
    reached = [False] * n
    reached[0] = True
    in_tree = [False] * len(edges)
    steps = []
    stack = [0]
    while stack:
        w = stack.pop()
        for slot in incident[w]:
            u, v = edges[slot]
            if not reached[v]:
                known, new, forward = u, v, True
            elif not reached[u]:
                known, new, forward = v, u, False
            else:
                continue
            reached[new] = True
            in_tree[slot] = True
            steps.append((slot, known, new, forward))
            stack.append(new)
    if len(steps) != n - 1:
        return None
    chords = [(slot, u, v) for slot, (u, v) in enumerate(edges) if not in_tree[slot]]
    return steps, chords


def _plan_nets(plan, g: FiniteGroup, volt: tuple[int, ...]) -> list[int]:
    """Net voltages of the plan's fundamental cycles under the voltages `volt`.

    potential[v] is the net voltage of the tree path from 0 to v, and the
    chord u -> v with voltage a closes the cycle with net
    potential[u] * a * potential[v]^-1.
    """
    steps, chords = plan
    table, inv = g.cayley, g.inverses
    potential = [g.identity] * (len(steps) + 1)
    for slot, known, new, forward in steps:
        x = volt[slot]
        potential[new] = table[potential[known]][x if forward else inv[x]]
    return [table[table[potential[u]][volt[slot]]][inv[potential[v]]] for slot, u, v in chords]


def _generates(g: FiniteGroup, elements: list[int]) -> bool:
    return len(_closure(g, [g.identity], elements)) == g.order


def is_galois(alpha: VoltageAssignment) -> bool:
    """Connected derived graph, by generation: a connected base whose
    fundamental cycles (`_plan_nets`) have net voltages that generate G."""
    if not isinstance(alpha, VoltageAssignment):
        raise TypeError(f"is_galois takes a VoltageAssignment, got {type(alpha).__name__}")
    if alpha._galois is None:
        plan = _spanning_tree_plan(alpha.base)
        galois = plan is not None and _generates(
            alpha.group, _plan_nets(plan, alpha.group, alpha.volt)
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

    Both projections, X_H -> X and Y -> X_H, (v, sigma) -> (v, H*sigma), are
    checked by the group's coset plan for H, on its first use and for each
    voltage on its first use (`_coset_plan`, `_edge_actions`).
    """
    _check_quotient(c, h)
    plan = _coset_plan(h)
    return IntermediateGraph(
        cover=c,
        subgroup=h,
        graph=_coset_quotient(c.voltage, plan, "H"),
        coset_of=plan.coset_of,
        coset_count=len(plan.reps),
    )


def intermediate_kappa(c: Cover, h: Subgroup) -> int:
    """kappa(X_H), kept on the cover by the exact subgroup (never by its class).

    The cover keeps the count; the group keeps what every cover of G shares,
    H's coset plan, with the partition check and the action of each voltage
    checked the first time any cover asks for them (`_coset_plan`,
    `_edge_actions`).  A check that fails keeps nothing on either, so the
    next request runs it again.  For the trivial subgroup the quotient is
    the derived graph itself, so its count is kappa(Y), kept on the derived
    graph.  For any other H the directed edges (v, i) -> (t(e), image[i]) of
    X_H, one per edge e at v and coset i, go straight from the voltage
    actions to `matrix_tree_count`: no arrays, no names, no `SerreGraph`
    and no connectivity search.  The guard has shown that Y is connected,
    and X_H is its image, so X_H is connected.  Inversion needs no check of
    its own: the action of a^-1 undoes the action of a on the cosets of a
    subgroup, which is what makes the reduced Laplacian symmetric, and
    `det_int_sparse_spd` still checks that it is symmetric and that every
    pivot is positive.
    """
    _check_quotient(c, h)
    if h.elements not in c._kappas:
        if h.is_trivial():
            kappa = c.derived.spanning_tree_count()
        else:
            plan = _coset_plan(h)
            base, k = c.base, len(plan.reps)
            edges = zip(base.origin, base.terminus, _edge_actions(c.voltage, plan))
            kappa = matrix_tree_count(
                base.vertex_count * k,
                ((o * k + i, t * k + x) for o, t, image in edges for i, x in enumerate(image)),
            )
        c._kappas[h.elements] = kappa
    return c._kappas[h.elements]


def conjugate_kappa_check(c: Cover) -> VerificationReport:
    """kappa agrees across conjugate subgroups (cover-isomorphism consequence).

    Each subgroup's kappa comes from its own quotient, since the cover keeps
    kappa per subgroup and not per class, so this stays an independent check;
    the trivial subgroup, alone in its class, takes kappa(Y) from the derived
    graph.  Every quotient's projection from Y is a checked morphism over X:
    the group's coset plan of each subgroup checks the action of each voltage
    once per group, the first time any cover of G asks for it, before the
    action is kept (`_voltage_action`, via `_edge_actions`).  What is shared
    is only what the group and the voltage decide, so the kappas stay each
    cover's own.
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

    The base's spanning tree is walked once per call (`_spanning_tree_plan`);
    each draw computes only its fundamental-cycle nets and their closure, the
    test of `is_galois`, and only the accepted draw becomes a
    `VoltageAssignment`, with its Galois answer kept.
    """
    plan = _spanning_tree_plan(base)
    if plan is None:
        raise NoConnectedAssignmentFoundError("base graph is disconnected")
    if base.euler_characteristic() == 0 and not g.is_cyclic():
        raise EulerZeroError(
            "covers of a graph with zero Euler characteristic have cyclic Galois group"
        )
    rng = random.Random(seed)
    m = base.geometric_edge_count
    for _ in range(VOLTAGE_ATTEMPTS):
        volt = tuple(rng.randrange(g.order) for _ in range(m))
        if _generates(g, _plan_nets(plan, g, volt)):
            alpha = VoltageAssignment(base=base, group=g, volt=volt)
            object.__setattr__(alpha, "_galois", True)
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
    return voltage_from_json_dict(base, load_json(path, "voltage file"))


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
