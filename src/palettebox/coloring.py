"""Edge colorings, properness checks, and palette summaries.

A palette of a vertex is the set of colors on its incident edges.  All
colors are positive integers; color tuples are aligned with the host
graph's canonical edge order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence

from palettebox._record import frozen
from palettebox.graphs import Edge, Graph, canonical_edge, map_product_edges


@frozen
class EdgeColoring:
    """An assignment of a positive color to every edge of a host graph."""

    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self):
        colors = self.colors
        if len(colors) != len(self.graph.edges):
            raise ValueError("need exactly one color per edge")
        try:
            distinct = set(colors)
        except TypeError:  # an unhashable color
            distinct = None
        # A non-int color equal to an int one (2.0 after 2) hides from the
        # set, but not from the type of the sum; only a suspect coloring is
        # scanned in full, for the first bad color.
        if (distinct is None or not all(isinstance(c, int) and c >= 1 for c in distinct)
                or type(sum(colors)) is not int):
            for c in colors:
                if not isinstance(c, int) or c < 1:
                    raise ValueError(f"colors must be positive integers, got {c!r}")

    @classmethod
    def from_map(cls, graph: Graph, mapping: Mapping[Edge, int]) -> "EdgeColoring":
        colors = []
        for e in graph.edges:
            if e not in mapping:
                raise ValueError(f"edge {e} has no color")
            colors.append(mapping[e])
        if len(mapping) != len(graph.edges):
            extra = set(mapping) - set(graph.edges)
            raise ValueError(f"colors given for non-edges: {sorted(extra)}")
        return cls(graph, tuple(colors))

    def color_of(self, u: int, v: int) -> int:
        return self.colors[self.graph.edge_index[canonical_edge(u, v)]]

    def as_map(self) -> dict[Edge, int]:
        return dict(zip(self.graph.edges, self.colors))

    @property
    def max_color(self) -> int:
        return max(self.colors, default=0)

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.colors)

    def palette(self, v: int) -> frozenset[int]:
        return frozenset(self.color_of(v, w) for w in self.graph.adjacency[v])

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The palette masks, built once and shared by every check of this coloring."""
        return _palette_masks(self)


Violation = tuple[int, Edge, Edge]


def _palette_masks(coloring: EdgeColoring) -> tuple[int, ...]:
    """Per vertex, the bitmask with bit c set for each color c at the vertex."""
    masks = [0] * coloring.graph.n
    for (u, v), c in zip(coloring.graph.edges, coloring.colors):
        bit = 1 << c
        masks[u] |= bit
        masks[v] |= bit
    return tuple(masks)


def _first_clash(coloring: EdgeColoring) -> Optional[Violation]:
    """The first clash in vertex order, or None if the coloring is proper.

    A vertex has a clash exactly when its mask has fewer bits than its
    degree.  No mask has more, so the bit counts summing to 2|E| proves
    the coloring proper without looking at degrees.
    """
    g, masks = coloring.graph, coloring._masks
    if sum(map(int.bit_count, masks)) == 2 * len(g.edges):
        return None
    v = next(v for v, d in enumerate(g.degrees) if masks[v].bit_count() != d)
    seen: dict[int, Edge] = {}
    for e in g.incident_edges(v):
        c = coloring.colors[g.edge_index[e]]
        if c in seen:
            return v, seen[c], e
        seen[c] = e
    raise AssertionError(f"vertex {v} has a repeated color but no clash was found")


def check_proper(coloring: EdgeColoring) -> tuple[bool, Optional[Violation]]:
    """Check that incident edges never share a color.

    Returns (True, None) or (False, witness) where the witness is the first
    (vertex, edge, edge) clash in vertex order, edges in canonical order.
    """
    witness = _first_clash(coloring)
    return witness is None, witness


@frozen
class PaletteSummary:
    """Distinct vertex palettes of a proper coloring.

    ``distinct`` lists each palette once as a sorted color tuple, in
    lexicographic order; ``per_vertex`` maps every vertex to its palette's
    position in that list.
    """

    distinct: tuple[tuple[int, ...], ...]
    per_vertex: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.distinct)

    def palette_of(self, v: int) -> frozenset[int]:
        return frozenset(self.distinct[self.per_vertex[v]])

    def palette_sets(self) -> set[frozenset[int]]:
        return {frozenset(p) for p in self.distinct}


def palette_summary(coloring: EdgeColoring) -> PaletteSummary:
    """Palette summary of a proper coloring; improper input is rejected."""
    witness = _first_clash(coloring)
    if witness is not None:
        v, e1, e2 = witness
        raise ValueError(f"improper coloring: edges {e1} and {e2} share a color at vertex {v}")
    masks = coloring._masks
    palettes = {m: _mask_colors(m) for m in set(masks)}
    distinct = tuple(sorted(palettes.values()))
    index = {p: i for i, p in enumerate(distinct)}
    position = {m: index[p] for m, p in palettes.items()}
    return PaletteSummary(distinct, tuple(map(position.__getitem__, masks)))


def _mask_colors(mask: int) -> tuple[int, ...]:
    """The colors whose bits are set in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def product_coloring(g: Graph, h: Graph, g_cols: Sequence[Sequence[int]],
                     h_rows: Sequence[Sequence[int]]) -> EdgeColoring:
    """Color G box H fiber by fiber, from one color table per factor.

    The copy of G-edge i in the G-fiber at H-vertex b gets g_cols[i][b];
    the copy of H-edge j in the H-fiber at G-vertex a gets h_rows[a][j].
    Edge positions refer to the factors' canonical edge tuples, and rows
    may be shared, so a rule constant along a fiber costs one list.  The
    product graph and its colors come from one ``map_product_edges`` pass.
    """
    return EdgeColoring(*map_product_edges(g, h, g_cols, h_rows))


def disjoint_product_coloring(g_col: EdgeColoring, h_col: EdgeColoring) -> EdgeColoring:
    """Color G box H by keeping g on G-fibers and shifting h past g's colors.

    The palette of (a, x) is P_g(a) united with the shifted P_h(x), so the
    product has at most (palettes of g) * (palettes of h) distinct palettes.
    """
    g, h = g_col.graph, h_col.graph
    offset = g_col.max_color
    rows = {c: [c] * h.n for c in set(g_col.colors)}
    return product_coloring(g, h, [rows[c] for c in g_col.colors],
                            [[c + offset for c in h_col.colors]] * g.n)
