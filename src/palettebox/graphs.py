"""Immutable simple graphs, standard generators, and Cartesian products.

Vertices of a graph on n vertices are always 0..n-1.  Edges are canonical
ordered pairs (u, v) with u < v, kept in lexicographic order, so equal
graphs have byte-identical edge tuples.
"""

from __future__ import annotations

import gc
import heapq
from functools import cached_property
from typing import Iterable, Optional, Sequence, TypeVar

from palettebox._record import field, frozen

Edge = tuple[int, int]
T = TypeVar("T")


def canonical_edge(u: int, v: int) -> Edge:
    """Order the endpoints of an edge as (min, max); loops are rejected."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@frozen
class Graph:
    """A finite simple undirected graph.

    ``provenance`` is a construction tag such as ``cycle(5)`` or
    ``product(cycle(5),cycle(3))``.  It documents where the graph came
    from and never takes part in equality; ``tag`` reads it, or
    ``graph(n)`` when it is absent or empty.  Connectivity is not enforced
    anywhere; operations that need it check it themselves.
    """

    n: int
    edges: tuple[Edge, ...]
    provenance: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        n, edges = self.n, self.edges
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        # each edge must be in range and follow the one before it, starting
        # from a virtual edge (0, 0); a range error raises at once, and the
        # first order error only after the loop, so range errors come first
        pu, pv = 0, 0
        disorder = None
        for u, v in edges:
            if not (pu < u < v < n or u == pu and pv < v < n):
                if not 0 <= u < v < n:
                    raise ValueError(f"edge {(u, v)} is not canonical or out of range")
                if disorder is None:
                    disorder = (f"duplicate edge {(u, v)}" if (u, v) == (pu, pv)
                                else "edges must be sorted lexicographically")
            pu, pv = u, v
        if disorder is not None:
            raise ValueError(disorder)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]],
                   provenance: Optional[str] = None) -> "Graph":
        """Build a graph from any iterable of endpoint pairs."""
        canon = sorted({canonical_edge(u, v) for u, v in edges})
        return cls(n, tuple(canon), provenance)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Position of each edge in the canonical edge tuple."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @cached_property
    def is_regular(self) -> bool:
        return len(set(self.degrees)) <= 1

    @cached_property
    def completion_order(self) -> tuple[int, ...]:
        """Edge positions in the order the searches color them: each next edge finishes vertices soonest.

        With ``left[x]`` the number of x's edges not yet in the order, the
        next edge is the one whose key (min(left[u], left[v]),
        max(left[u], left[v]), position) is smallest.  A vertex is complete
        once its last edge is colored, and only then is its palette known;
        the palette-count search prunes at completed vertices, so visiting
        them early makes the cap bite near the root instead of deep in the
        tree.

        The keys are single ints, (min * (Delta+1) + max) * m + position, in
        a heap.  ``left`` only falls, so an edge's keys only fall too: its
        first entry to leave the heap is its current key, and the stale ones
        after it are skipped, or left in the heap once every edge is placed.
        O(m * Delta * log m) time, paid on the first search of this graph.
        """
        edges = self.edges
        m = len(edges)
        width = self.max_degree + 1
        left = list(self.degrees)
        incident: list[list[int]] = [[] for _ in range(self.n)]
        heap = []
        for i, (u, v) in enumerate(edges):
            incident[u].append(i)
            incident[v].append(i)
            a, b = left[u], left[v]
            heap.append((a * width + b if a < b else b * width + a) * m + i)
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        done = [False] * m
        order = []
        for _ in range(m):
            i = pop(heap) % m
            while done[i]:
                i = pop(heap) % m
            done[i] = True
            order.append(i)
            for x in edges[i]:
                left[x] -= 1
                for j in incident[x]:
                    if not done[j]:
                        a, b = edges[j]
                        a, b = left[a], left[b]
                        push(heap, (a * width + b if a < b else b * width + a) * m + j)
        return tuple(order)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edge_index

    def incident_edges(self, v: int) -> tuple[Edge, ...]:
        return tuple(canonical_edge(v, w) for w in self.adjacency[v])

    @property
    def tag(self) -> str:
        return self.provenance or f"graph({self.n})"

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)}, tag={self.tag!r})"


# ---------------------------------------------------------------------------
# generators


def path_graph(n: int) -> Graph:
    """Path on n >= 1 vertices (n-1 edges)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)), f"path({n})")


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges(n, edges, f"cycle({n})")


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, tuple(edges), f"complete({n})")


def hypercube_graph(r: int) -> Graph:
    """r-dimensional hypercube Q_r, r >= 1, vertices in r-bit binary order."""
    if r < 1:
        raise ValueError("hypercube dimension must be at least 1")
    n = 1 << r
    edges = []
    for u in range(n):
        for b in range(r):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v))
    return Graph.from_edges(n, edges, f"hypercube({r})")


def petersen_graph() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes i-(i+5)."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    return Graph.from_edges(10, edges, "petersen")


# ---------------------------------------------------------------------------
# products and subgraphs


@frozen
class ProductIndex:
    """Row-major vertex indexing of a Cartesian product.

    Vertex (a, b) of G box H maps to the flat index a*|V(H)| + b, so the
    H-coordinate varies fastest.
    """

    g_size: int
    h_size: int

    def flat(self, a: int, b: int) -> int:
        if not (0 <= a < self.g_size and 0 <= b < self.h_size):
            raise ValueError(f"product coordinate ({a}, {b}) out of range")
        return a * self.h_size + b

    def coords(self, idx: int) -> tuple[int, int]:
        if not (0 <= idx < self.g_size * self.h_size):
            raise ValueError(f"flat index {idx} out of range")
        return divmod(idx, self.h_size)


def map_product_edges(g: Graph, h: Graph, g_cols: Sequence[Sequence[T]],
                      h_rows: Sequence[Sequence[T]]) -> tuple[Graph, tuple[T, ...]]:
    """G box H, and one value per product edge from two tables, in canonical edge order.

    The copy of G-edge i in the G-fiber at H-vertex b gets g_cols[i][b];
    the copy of H-edge j in the H-fiber at G-vertex a gets h_rows[a][j].
    Edge positions refer to the factors' canonical edge tuples, and rows
    may be shared between positions.  One pass emits each edge and its
    value side by side: for each lower endpoint (a, x) in flat order, the
    H-fiber edges to (a, y), y > x, come first, then the G-fiber edges to
    (v, x), v > a.  That is the lexicographic order, because
    a*|V(H)| + y < (a+1)*|V(H)| <= v*|V(H)| + x.
    """
    nh = h.n
    h_up, g_up = _edges_up(h), _edges_up(g)
    # filled in place: two lists grown side by side would hold more memory
    size = len(g.edges) * nh + len(h.edges) * g.n
    edges: list = [None] * size
    values: list = [None] * size
    p = 0
    # every endpoint is taken from this list, so each vertex is one int object
    vertices = list(range(g.n * nh))
    # tuples of ints form no reference cycle, so a collection during the
    # build would only rescan them; the collector is restored as it was found
    enabled = gc.isenabled()
    gc.disable()
    try:
        for a, g_here in enumerate(g_up):
            base = a * nh
            fiber, row = vertices[base:base + nh], h_rows[a]
            g_fibers = [(g_cols[i], vertices[v * nh:(v + 1) * nh]) for i, v in g_here]
            for x, h_here in enumerate(h_up):
                low = fiber[x]
                for j, y in h_here:
                    edges[p] = (low, fiber[y])
                    values[p] = row[j]
                    p += 1
                for col, top in g_fibers:
                    edges[p] = (low, top[x])
                    values[p] = col[x]
                    p += 1
        # the edge list goes before the graph is checked and the value tuple built
        edges = tuple(edges)
        return Graph(g.n * nh, edges, f"product({g.tag},{h.tag})"), tuple(values)
    finally:
        if enabled:
            gc.enable()


def _edges_up(graph: Graph) -> list[list[tuple[int, int]]]:
    """Per vertex u, (position, v) for each of its edges (u, v) with v > u, in edge order."""
    up: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for i, (u, v) in enumerate(graph.edges):
        up[u].append((i, v))
    return up


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product G box H.

    (a,x)(b,y) is an edge iff a=b and xy in E(H), or x=y and ab in E(G).
    Fibers of either factor appear as induced copies, so
    |E| = |E(G)|*|V(H)| + |E(H)|*|V(G)|.  It is ``map_product_edges``
    over shared all-zero tables, whose values are dropped.
    """
    return map_product_edges(g, h, [[0] * h.n] * len(g.edges), [[0] * len(h.edges)] * g.n)[0]


def remove_edges(graph: Graph, removed: Iterable[Sequence[int]]) -> Graph:
    """Spanning subgraph with the given edges deleted.

    Every requested edge must exist; vertices are kept even if isolated.
    """
    gone = {canonical_edge(u, v) for u, v in removed}
    missing = gone.difference(graph.edge_index)
    if missing:
        raise ValueError(f"edges not present: {sorted(missing)}")
    rest = tuple(e for e in graph.edges if e not in gone)
    label = f"subgraph({graph.tag}, {sorted(gone)})"
    return Graph(graph.n, rest, label)


# ---------------------------------------------------------------------------
# matchings


@frozen
class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    host: Graph
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for e in self.edges:
            if e not in self.host.edge_index:
                raise ValueError(f"matching edge {e} is not in the host graph")
            u, v = e
            if u in seen or v in seen:
                raise ValueError(f"matching edges share vertex on {e}")
            seen.update(e)
        if tuple(sorted(self.edges)) != self.edges:
            raise ValueError("matching edges must be sorted")

    @classmethod
    def from_edges(cls, host: Graph, edges: Iterable[Sequence[int]]) -> "Matching":
        return cls(host, tuple(sorted(canonical_edge(u, v) for u, v in edges)))

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.edges) == self.host.n

    def covered(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


def find_perfect_matching(graph: Graph) -> Optional[Matching]:
    """Lexicographically least perfect matching, or None if none exists.

    The first matching ``enumerate_perfect_matchings`` yields: its search
    matches the least unmatched vertex to its least available neighbour
    first, and comparing the sorted edge lists of two perfect matchings
    inspects partners in exactly this vertex order.
    """
    return next(enumerate_perfect_matchings(graph), None)


def enumerate_perfect_matchings(graph: Graph):
    """Yield every perfect matching, lexicographically least first.

    Exhaustive; intended for small hosts (fixture sweeps, cross checks).
    """
    if graph.n % 2 != 0:
        return
    adj = graph.adjacency
    matched = [False] * graph.n
    chosen: list[Edge] = []

    def extend():
        u = next((i for i in range(graph.n) if not matched[i]), None)
        if u is None:
            yield Matching.from_edges(graph, chosen)
            return
        matched[u] = True
        for v in adj[u]:
            if not matched[v]:
                matched[v] = True
                chosen.append((u, v))
                yield from extend()
                chosen.pop()
                matched[v] = False
        matched[u] = False

    yield from extend()


# ---------------------------------------------------------------------------
# traversal helpers


def connected_components(graph: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, in order of least vertex."""
    seen = [False] * graph.n
    comps = []
    for s in range(graph.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = [s]
        while queue:
            u = queue.pop()
            for v in graph.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(graph: Graph) -> bool:
    if graph.n == 0:
        return True
    return len(connected_components(graph)) == 1


def is_bipartite(graph: Graph) -> bool:
    color = [-1] * graph.n
    for s in range(graph.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in graph.adjacency[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def bfs_distances(graph: Graph, source: int) -> list[int]:
    """Distances from source; unreachable vertices get -1."""
    dist = [-1] * graph.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def all_pairs_distances(graph: Graph) -> list[list[int]]:
    return [bfs_distances(graph, s) for s in range(graph.n)]
