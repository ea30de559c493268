"""Finite multigraphs in Serre form and their spanning-tree invariants.

A graph is a set of directed edges paired by a fixed-point-free involution
``e -> inverse(e)`` together with origin and terminus maps.  A geometric
(undirected) edge is an involution pair; a geometric loop at a vertex is a
pair of directed edges whose origin and terminus coincide, so it contributes
2 to the adjacency diagonal and 2 to the degree and cancels in the Laplacian.

The spanning-tree count (complexity) is computed by the Matrix-Tree theorem:
the reduced Laplacian is built directly from the directed edges as sparse
rows (`matrix_tree_count`, which also serves the edges of quotients that
never become a `SerreGraph`) and eliminated
fraction-free: a symbolic phase fixes the minimum-degree pivot order and each
pivot's fill, and a numeric phase eliminates one triangle in that order
(`linalg.det_int_sparse_spd`).  The reciprocal zeta numerator
``h(u) = det(I - A u + (D - I) u^2)`` is computed as an exact integer
polynomial by `zeta_numerator`, the one builder of that matrix: it serves a
graph's own adjacency matrix and the integer-valued twisted matrices of
`lfunctions` alike.  Hashimoto's identity ``h'(1) = -2 * chi * kappa`` is
checked without h(u): with M(u) = I - A u + (D - I) u^2 and L = D - A the
Laplacian, M(1 + t) = L + t (2(D - I) - A) mod t^2, so one elimination over
Z[t]/(t^2) gives det L = 0 and h'(1) together (`linalg.det_int_derivative`);
both matrices are symmetric, so it updates one triangle.
"""

from __future__ import annotations

from .errors import (
    DisconnectedGraphError,
    GaloisSpanError,
    GraphError,
    InvariantError,
    json_int,
    json_list,
    json_object,
    load_json,
)
from .frozen import Frozen
from .linalg import det_int_derivative, det_int_poly_matrix, det_int_sparse_spd
from .polynomials import IntPoly
from .report import VerificationReport


class SerreGraph(Frozen):
    """Directed-edge presentation of a finite multigraph.

    Invariants (checked on construction): `inverse` is a fixed-point-free
    involution, origin/terminus are swapped by it, and the edge count is
    even.
    """

    __slots__ = (
        "vertex_count",
        "origin",
        "terminus",
        "inverse",
        "vertex_names",
        # the answers of `is_connected` and `spanning_tree_count`, once asked
        "_connected",
        "_kappa",
    )

    def __init__(
        self,
        vertex_count: int,
        origin: tuple[int, ...],
        terminus: tuple[int, ...],
        inverse: tuple[int, ...],
        vertex_names: tuple[str, ...] | None = None,
    ):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "terminus", terminus)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "vertex_names", vertex_names)
        object.__setattr__(self, "_connected", None)
        object.__setattr__(self, "_kappa", None)
        n, e = self.vertex_count, len(self.origin)
        if len(self.terminus) != e or len(self.inverse) != e:
            raise GraphError("edge arrays have inconsistent lengths")
        if e % 2 != 0:
            raise GraphError("directed edge count must be even")
        for i in range(e):
            if not (0 <= self.origin[i] < n and 0 <= self.terminus[i] < n):
                raise GraphError(f"edge {i} endpoint out of range")
            j = self.inverse[i]
            if not 0 <= j < e or j == i:
                raise GraphError(f"inversion not fixed-point-free at edge {i}")
            if self.inverse[j] != i:
                raise GraphError(f"inversion not an involution at edge {i}")
            if self.origin[j] != self.terminus[i] or self.terminus[j] != self.origin[i]:
                raise GraphError(f"inversion does not swap endpoints at edge {i}")
        if self.vertex_names is not None and len(self.vertex_names) != n:
            raise GraphError("vertex_names length mismatch")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.origin == other.origin
            and self.terminus == other.terminus
            and self.inverse == other.inverse
            and self.vertex_names == other.vertex_names
        )

    @property
    def edge_count(self) -> int:
        return len(self.origin)

    @property
    def geometric_edge_count(self) -> int:
        return len(self.origin) // 2

    def orientation(self) -> tuple[int, ...]:
        """Canonical orientation: the lower index of each involution pair."""
        return tuple(e for e in range(self.edge_count) if e < self.inverse[e])

    def geometric_edges(self) -> list[tuple[int, int]]:
        """Endpoint pairs (origin, terminus) of the canonical orientation."""
        return [(self.origin[e], self.terminus[e]) for e in self.orientation()]

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.geometric_edge_count

    def is_connected(self) -> bool:
        """Whether every vertex is reached from vertex 0, walked once."""
        if self._connected is None:
            n = self.vertex_count
            adj: list[list[int]] = [[] for _ in range(n)]
            for e in range(self.edge_count):
                adj[self.origin[e]].append(self.terminus[e])
            reached = [0] if n else []
            seen = [True] + [False] * (n - 1)  # not read when n == 0
            for v in reached:  # grows as the walk goes
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        reached.append(w)
            object.__setattr__(self, "_connected", n > 0 and len(reached) == n)
        return self._connected

    def adjacency_matrix(self) -> list[list[int]]:
        a = [[0] * self.vertex_count for _ in range(self.vertex_count)]
        for e in range(self.edge_count):
            a[self.origin[e]][self.terminus[e]] += 1
        return a

    def degrees(self) -> list[int]:
        d = [0] * self.vertex_count
        for e in range(self.edge_count):
            d[self.origin[e]] += 1
        return d

    def spanning_tree_count(self) -> int:
        """Complexity kappa: any cofactor of the Laplacian, computed exactly once."""
        if self._kappa is None:
            if not self.is_connected():
                raise DisconnectedGraphError("spanning trees of a disconnected graph")
            kappa = matrix_tree_count(self.vertex_count, zip(self.origin, self.terminus))
            object.__setattr__(self, "_kappa", kappa)
        return self._kappa

    def ihara_h_poly(self) -> IntPoly:
        """h(u) = det(I - A u + (D - I) u^2) as an exact integer polynomial."""
        return zeta_numerator(self.adjacency_matrix(), self.degrees())

    def vertex_label(self, v: int) -> str:
        return self.vertex_names[v] if self.vertex_names else str(v)


def matrix_tree_count(vertex_count: int, edges) -> int:
    """kappa of a connected graph given by its directed edges, by the Matrix-Tree theorem.

    `edges` is an iterable of (origin, terminus) pairs, each geometric edge
    given in both directions.  The one builder of the reduced Laplacian: the
    Laplacian with vertex 0's row and column deleted, as sparse rows (loops
    cancel), whose determinant is `det_int_sparse_spd`.  Connectivity is the
    caller's to know: on a disconnected graph the elimination meets a pivot
    that is not positive and raises `InvariantError`.
    """
    rows: list[dict[int, int]] = [{} for _ in range(vertex_count - 1)]
    for u, v in edges:
        if u == v or u == 0:
            continue
        row = rows[u - 1]
        row[u - 1] = row.get(u - 1, 0) + 1
        if v:
            row[v - 1] = row.get(v - 1, 0) - 1
    return det_int_sparse_spd(rows)


def zeta_numerator(a: list[list[int]], degrees: list[int]) -> IntPoly:
    """det(I - A u + (D - I) u^2) for an integer matrix A and the diagonal D."""
    n = len(a)
    return det_int_poly_matrix(
        [
            [
                IntPoly((1, -a[i][i], degrees[i] - 1)) if i == j else IntPoly((0, -a[i][j]))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def build_graph(
    vertex_count: int,
    undirected_edges,
    vertex_names=None,
) -> SerreGraph:
    """Materialize a Serre graph from an undirected edge list (loops allowed)."""
    origin: list[int] = []
    terminus: list[int] = []
    inverse: list[int] = []
    for u, v in undirected_edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        e = len(origin)
        origin += [u, v]
        terminus += [v, u]
        inverse += [e + 1, e]
    return SerreGraph(
        vertex_count=vertex_count,
        origin=tuple(origin),
        terminus=tuple(terminus),
        inverse=tuple(inverse),
        vertex_names=tuple(vertex_names) if vertex_names else None,
    )


def bouquet(loops: int) -> SerreGraph:
    return build_graph(1, [(0, 0)] * loops)


def cycle_graph(n: int) -> SerreGraph:
    if n < 1:
        raise GraphError("cycle needs at least one vertex")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SerreGraph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> SerreGraph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def hashimoto_check(g: SerreGraph) -> VerificationReport:
    """Check h'(1) == -2 * chi * kappa on a connected graph.

    h'(1) comes from one elimination of L + tB, B = 2(D - I) - A, over
    Z[t]/(t^2): det(L + tB) = h(1 + t) mod t^2, so det L = h(1) must be 0
    (otherwise `InvariantError`) and the t-coefficient is h'(1).
    """
    if not g.is_connected():
        raise DisconnectedGraphError("Hashimoto identity needs a connected graph")
    a, degrees = g.adjacency_matrix(), g.degrees()
    laplacian = [[-x for x in row] for row in a]
    slope = [[-x for x in row] for row in a]
    for i, d in enumerate(degrees):
        laplacian[i][i] += d
        slope[i][i] += 2 * (d - 1)
    h_one, left = det_int_derivative(laplacian, slope)
    if h_one != 0:
        raise InvariantError(f"det of the Laplacian is {h_one}, not 0")
    right = -2 * g.euler_characteristic() * g.spanning_tree_count()
    return VerificationReport.compare(
        "h'(1) = -2*chi*kappa",
        f"graph with {g.vertex_count} vertices, {g.geometric_edge_count} edges",
        left,
        right,
    )


def graph_to_json_dict(g: SerreGraph) -> dict:
    out: dict = {
        "vertices": g.vertex_count,
        "edges": [[u, v] for u, v in g.geometric_edges()],
    }
    if g.vertex_names:
        out["names"] = list(g.vertex_names)
    return out


def graph_from_json_dict(data: dict) -> SerreGraph:
    """Graph file: {"vertices": n, "edges": [[u, v], ...], "names": [...]}, names optional."""
    data = json_object(data, "graph file", "vertices", "edges")
    edges = []
    for edge in json_list(data["edges"], "graph edges"):
        if len(json_list(edge, "graph edge")) != 2:
            raise GaloisSpanError(f"graph edge must be a pair [u, v], got {edge!r}")
        edges.append(tuple(json_int(v, "edge endpoint") for v in edge))
    names = data.get("names")
    if names is not None and not all(isinstance(n, str) for n in json_list(names, "graph names")):
        raise GaloisSpanError("graph names must be strings")
    return build_graph(json_int(data["vertices"], "graph vertices"), edges, names)


def load_graph(path: str) -> SerreGraph:
    return graph_from_json_dict(load_json(path, "graph file"))


def graph_to_dot(g: SerreGraph, name: str = "X") -> str:
    """DOT rendering with loops and multi-edges drawn explicitly."""
    lines = [f"graph {name} {{"]
    for v in range(g.vertex_count):
        lines.append(f'  {v} [label="{g.vertex_label(v)}"];')
    for u, v in g.geometric_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
