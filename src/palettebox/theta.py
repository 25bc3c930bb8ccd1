"""Djokovic-Winkler edge classes and the hypercube-like removal coloring.

Two edges are related when their endpoint distances disagree, i.e.
d(x,u) + d(y,v) != d(x,v) + d(y,u) for e = xy and f = uv.  On partial
cubes the transitive closure of this relation cuts the edge set into
parallelism classes, each a perfect matching when every vertex meets
every class; removing part of one class then feeds the nearly-regular
two-palette product construction.  Partial cubes are recognised by
Winkler's theorem: a connected graph is a partial cube exactly when it
is bipartite and the relation is already transitive (P. Winkler,
Isometric embedding in products of complete graphs, Discrete Applied
Mathematics 7 (1984) 221-225).
"""

from __future__ import annotations

from typing import Sequence

from palettebox._record import frozen
from palettebox.coloring import EdgeColoring
from palettebox.constructions import NrgSpec, nrg_product_coloring
from palettebox.graphs import (
    Edge,
    Graph,
    Matching,
    all_pairs_distances,
    canonical_edge,
    is_bipartite,
    is_connected,
)


def _theta_related(dist, e: Edge, f: Edge) -> bool:
    x, y = e
    u, v = f
    return dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u]


@frozen
class ThetaClasses:
    """The transitive closure classes of the distance relation on edges."""

    graph: Graph
    classes: tuple[tuple[Edge, ...], ...]
    raw_is_transitive: bool

    @property
    def count(self) -> int:
        return len(self.classes)

    def class_of(self, u: int, v: int) -> int:
        e = canonical_edge(u, v)
        for i, cls in enumerate(self.classes):
            if e in cls:
                return i
        raise KeyError(f"edge {e} not in graph")

    @property
    def every_vertex_in_every_class(self) -> bool:
        """True when each class is a perfect matching of the graph."""
        n = self.graph.n
        return all(2 * len(cls) == n and len({v for e in cls for v in e}) == n
                   for cls in self.classes)

    def matchings(self) -> tuple[Matching, ...]:
        if not self.every_vertex_in_every_class:
            raise ValueError("classes are not all perfect matchings")
        return tuple(Matching.from_edges(self.graph, cls) for cls in self.classes)


def theta_classes(graph: Graph) -> ThetaClasses:
    """Group the edges by the transitive closure of the theta relation.

    Requires a connected graph (distances must all be finite).  Classes
    are ordered by their least edge.
    """
    if graph.n == 0:
        raise ValueError("empty graph has no theta classes")
    if not is_connected(graph):
        raise ValueError("theta classes need a connected graph")
    m = len(graph.edges)
    dist = all_pairs_distances(graph)

    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    related = 0
    for i in range(m):
        for j in range(i + 1, m):
            if _theta_related(dist, graph.edges[i], graph.edges[j]):
                related += 1
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[Edge]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(graph.edges[i])
    classes = tuple(tuple(g) for _, g in sorted(groups.items()))
    # every related pair lies inside one class, so the relation is
    # transitive exactly when each class is a clique of it
    cliques = sum(len(cls) * (len(cls) - 1) // 2 for cls in classes)
    return ThetaClasses(graph, classes, related == cliques)


def is_partial_cube(tc: ThetaClasses) -> bool:
    """Decide partial-cube-ness by Winkler's theorem (DAM 7, 1984).

    A connected graph, which ``theta_classes`` guarantees, is a partial
    cube exactly when it is bipartite and its theta relation is
    transitive.
    """
    return tc.raw_is_transitive and is_bipartite(tc.graph)


def theta_removal_coloring(graph: Graph, class_index: int, removed: Sequence[Edge],
                           host: Graph, budget=None) -> EdgeColoring:
    """Two-palette coloring of (G - X) box H for X inside a theta class.

    G must be a partial cube whose every vertex meets every theta class
    (so each class is a perfect matching and G is r-regular for r the
    class count).  The chosen class becomes color class r of the base
    coloring, the other classes take colors 1..r-1 in order, and the
    nearly-regular product construction does the rest.
    """
    tc = theta_classes(graph)
    if not is_partial_cube(tc):
        raise ValueError("graph is not a partial cube")
    if not tc.every_vertex_in_every_class:
        raise ValueError("some vertex misses a theta class, classes are not perfect matchings")
    if not (0 <= class_index < tc.count):
        raise ValueError(f"class index must be in 0..{tc.count - 1}")
    removed = tuple(sorted(canonical_edge(u, v) for u, v in removed))
    cls = set(tc.classes[class_index])
    if not set(removed) <= cls:
        raise ValueError("removed edges must lie in the chosen theta class")

    r = tc.count
    mapping: dict[Edge, int] = {}
    next_color = 1
    for i, edges in enumerate(tc.classes):
        if i == class_index:
            col = r
        else:
            col = next_color
            next_color += 1
        for e in edges:
            mapping[e] = col
    base = EdgeColoring.from_map(graph, mapping)
    matching = Matching.from_edges(graph, tc.classes[class_index])
    spec = NrgSpec(graph, matching, removed, base)
    return nrg_product_coloring(spec, host, budget=budget)
