"""Even-cycle decomposition and 3-palette colorings of odd torus grids.

The edge set of C_s box C_t (s >= t >= 3, both odd) splits into t closed
walks Z_0..Z_{t-1}, each alternating vertical and horizontal edges and
using every row of the grid exactly twice, so each Z_i is a single cycle
of length 2s.  In closed form, with ell = ((s-t)/2) mod t, the vertical
edge (j,k)-(j,k+1) and the horizontal edge (j,k)-(j+1,k) lie on

    Z_i,  i = (k - j - [horizontal]) mod t    for rows j < ell,
          i = (k + j - 2*ell + 1) mod t       for rows j >= ell,

so a coloring by walk needs no walk at all.  Grouping the Z_i by i mod 3
gives three classes, each a disjoint union of even cycles; coloring class
j's horizontal edges 2j+1 and vertical edges 2j+2 is proper and leaves
exactly three distinct vertex palettes.

Vertices are (row j, column k) with j in [s], k in [t], flattened
row-major to j*t + k.  For s < t use commutativity: decompose the
transposed grid and map edges through the coordinate swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from palettebox.coloring import EdgeColoring, product_coloring
from palettebox.graphs import (
    Edge,
    Graph,
    canonical_edge,
    cartesian_product,
    connected_components,
    cycle_graph,
)

ASCENDING = "ascending-vertical"
DESCENDING = "descending-vertical"
HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class TorusEdge:
    """One edge of C_s box C_t, named by kind and initial vertex (j, k).

    Ascending vertical edges go to (j, k+1), descending to (j, k-1), and
    horizontal to (j+1, k), with wraparound.  Distinct (kind, j, k)
    triples can denote the same undirected edge; ``undirected(s, t)``
    gives the canonical identity used for partition checks.
    """

    kind: str
    j: int
    k: int

    def __post_init__(self):
        if self.kind not in (ASCENDING, DESCENDING, HORIZONTAL):
            raise ValueError(f"unknown torus edge kind {self.kind!r}")

    def terminal(self, s: int, t: int) -> tuple[int, int]:
        if self.kind == ASCENDING:
            return self.j, (self.k + 1) % t
        if self.kind == DESCENDING:
            return self.j, (self.k - 1) % t
        return (self.j + 1) % s, self.k

    def endpoints(self, s: int, t: int) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.j, self.k), self.terminal(s, t)

    def undirected(self, s: int, t: int) -> Edge:
        (j1, k1), (j2, k2) = self.endpoints(s, t)
        return canonical_edge(j1 * t + k1, j2 * t + k2)

    @property
    def is_vertical(self) -> bool:
        return self.kind != HORIZONTAL


def _check_odd_pair(s: int, t: int):
    if not (s >= t >= 3):
        raise ValueError(f"need s >= t >= 3, got s={s}, t={t} (swap factors: the product commutes)")
    if s % 2 == 0 or t % 2 == 0:
        raise ValueError("both cycle lengths must be odd")


def z_set(s: int, t: int, i: int) -> tuple[TorusEdge, ...]:
    """The i-th closed walk of the decomposition, edges in walk order.

    Starting at (0, i) the walk ascends for ell rows, then descends for
    the remaining rows, moving one row down after every vertical step;
    ell = ((s-t)/2) mod t and h = floor((s-t)/(2t)) balance the column
    drift so the walk closes up after visiting each row twice.
    """
    _check_odd_pair(s, t)
    if not (0 <= i < t):
        raise ValueError(f"walk index {i} out of range [0, {t})")
    ell = ((s - t) // 2) % t
    h = (s - t) // (2 * t)
    walk: list[TorusEdge] = []
    for j in range(ell):
        walk.append(TorusEdge(ASCENDING, j, (i + j) % t))
        walk.append(TorusEdge(HORIZONTAL, j, (i + j + 1) % t))
    for j in range(ell):
        walk.append(TorusEdge(DESCENDING, j + ell, (i - j + ell) % t))
        walk.append(TorusEdge(HORIZONTAL, j + ell, (i - j + ell - 1) % t))
    for j in range(t * (2 * h + 1)):
        walk.append(TorusEdge(DESCENDING, j + 2 * ell, (i - j) % t))
        walk.append(TorusEdge(HORIZONTAL, j + 2 * ell, (i - j - 1) % t))
    return tuple(walk)


@dataclass(frozen=True)
class TorusDecomposition:
    """All t walks of C_s box C_t plus their classes by index mod 3."""

    s: int
    t: int

    def __post_init__(self):
        _check_odd_pair(self.s, self.t)

    @property
    def ell(self) -> int:
        return ((self.s - self.t) // 2) % self.t

    @property
    def shift(self) -> int:
        return (self.s - self.t) // (2 * self.t)

    @cached_property
    def z_sets(self) -> tuple[tuple[TorusEdge, ...], ...]:
        return tuple(z_set(self.s, self.t, i) for i in range(self.t))

    def class_of_walk(self, i: int) -> int:
        """Class index of walk Z_i.

        Walks with consecutive indices (mod t) share vertices, so the
        assignment must be a proper 3-coloring of the index cycle.  Plain
        i mod 3 fails exactly when t = 1 (mod 3): the wrap pair Z_{t-1},
        Z_0 would collide.  Moving the last walk to class 1 repairs that
        case (its neighbours Z_{t-2} and Z_0 sit in classes 2 and 0).
        """
        if self.t % 3 == 1 and i == self.t - 1:
            return 1
        return i % 3

    @cached_property
    def classes(self) -> tuple[tuple[TorusEdge, ...], ...]:
        """Three edge classes, each a union of vertex-disjoint walks."""
        groups: list[list[TorusEdge]] = [[], [], []]
        for i, walk in enumerate(self.z_sets):
            groups[self.class_of_walk(i)].extend(walk)
        return tuple(tuple(g) for g in groups)

    @cached_property
    def graph(self) -> Graph:
        return cartesian_product(cycle_graph(self.s), cycle_graph(self.t))

    def walk_of(self, j: int, k: int, vertical: bool) -> int:
        """Index i of the walk Z_i through one edge, ``z_set`` solved for i.

        The edge is (j,k)-(j,k+1) if vertical and (j,k)-(j+1,k) if not.
        """
        ell = self.ell
        if j < ell:
            return (k - j - (0 if vertical else 1)) % self.t
        return (k + j - 2 * ell + 1) % self.t

    def edge_coloring(self, color: Callable[[int, bool], int]) -> EdgeColoring:
        """Color every edge by ``color(i, vertical)``, where Z_i is its walk."""
        rows, cols = cycle_graph(self.s), cycle_graph(self.t)
        row_of, col_of = _edge_starts(rows), _edge_starts(cols)
        walk_of = self.walk_of
        return product_coloring(
            rows, cols,
            lambda i, k: color(walk_of(row_of[i], k, False), False),
            lambda j, i: color(walk_of(j, col_of[i], True), True))


def _edge_starts(cycle: Graph) -> list[int]:
    """Per cycle edge (u, u+1), its start u; the closing edge (0, n-1) starts at n-1."""
    return [u if v == u + 1 else v for u, v in cycle.edges]


def _walk_problems(dec: TorusDecomposition, i: int) -> list[str]:
    s, t = dec.s, dec.t
    walk = dec.z_sets[i]
    problems = []
    if len(walk) != 2 * s:
        problems.append(f"Z_{i} has {len(walk)} edges, expected {2 * s}")
    seen_edges = {e.undirected(s, t) for e in walk}
    if len(seen_edges) != len(walk):
        problems.append(f"Z_{i} repeats an edge")
    # a descending edge from (j, k) is the vertical edge that starts at (j, k-1)
    strays = [e for e in walk
              if dec.walk_of(e.j, (e.k - 1) % t if e.kind == DESCENDING else e.k,
                             e.is_vertical) != i]
    if strays:
        problems.append(f"Z_{i} holds edges of other walks, first {strays[0]}")
    visited = []
    here = walk[0].endpoints(s, t)[0]
    start = here
    for e in walk:
        init, term = e.endpoints(s, t)
        if init != here:
            problems.append(f"Z_{i} breaks at {e}: walk is at {here}, edge starts at {init}")
            break
        visited.append(here)
        here = term
    else:
        if here != start:
            problems.append(f"Z_{i} does not close up (ends at {here})")
        if len(set(visited)) != len(visited):
            problems.append(f"Z_{i} revisits a vertex, so it is not a single cycle")
    return problems


def verify_partition(dec: TorusDecomposition) -> tuple[bool, list[str]]:
    """Check that the walks are disjoint simple 2s-cycles covering every edge.

    Each Z_i must be a closed simple walk of 2s distinct edges, all with
    ``walk_of == i``.  Then no edge lies on two walks, and the t walks
    hold 2st = |E| distinct edges, so they cover the torus.
    """
    problems: list[str] = []
    for i in range(dec.t):
        problems.extend(_walk_problems(dec, i))
    return not problems, problems


def even_cycle_classes(dec: TorusDecomposition) -> tuple[bool, list[str]]:
    """Check that each mod-3 class is a disjoint union of even cycles."""
    s, t = dec.s, dec.t
    problems: list[str] = []
    for j, cls in enumerate(dec.classes):
        edges = [e.undirected(s, t) for e in cls]
        if len(set(edges)) != len(edges):
            problems.append(f"class {j} repeats an edge")
            continue
        sub = Graph.from_edges(s * t, edges, f"torus-class({j})")
        degs = [d for d in sub.degrees if d > 0]
        if any(d != 2 for d in degs):
            problems.append(f"class {j} is not 2-regular on its support")
            continue
        # every vertex has degree 0 or 2, so the components with an edge are the cycles
        cycles = [len(c) for c in connected_components(sub) if len(c) > 1]
        odd = [c for c in cycles if c % 2 == 1]
        if odd:
            problems.append(f"class {j} contains odd cycles of lengths {odd}")
    return not problems, problems


def torus_three_palette_coloring(s: int, t: int) -> EdgeColoring:
    """Proper 6-coloring of C_s box C_t with exactly three palettes.

    Class j gets color 2j+1 on horizontal edges and 2j+2 on vertical
    ones.  Every vertex lies on exactly two walks from different classes,
    so the palettes are {1,2,3,4}, {1,2,5,6} and {3,4,5,6}.
    """
    dec = TorusDecomposition(s, t)
    return dec.edge_coloring(lambda i, vertical: 2 * dec.class_of_walk(i) + (2 if vertical else 1))
