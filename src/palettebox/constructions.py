"""Layered colorings of Cartesian products with known palette counts.

Each construction colors the fibers of one factor layer by layer and
threads the other factor's edges ("rungs") through leftover colors, so
the palette of every vertex is known pointwise.  Every construction is
one call to :func:`palettebox.coloring.product_coloring`, which takes a
color table for each factor's fiber edges (per G-edge, the colors of its
copies by H-vertex; per G-vertex, the colors of its H-fiber by H-edge)
and builds the product and its colors in one pass.  Rows that a rule
keeps constant along a fiber are one shared list.  Properness and
palette counts are rechecked by the verification suites rather than
trusted.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from palettebox._record import frozen
from palettebox.coloring import EdgeColoring, check_proper, product_coloring
from palettebox.graphs import (
    Edge,
    Graph,
    Matching,
    canonical_edge,
    cartesian_product,
    connected_components,
    cycle_graph,
    find_perfect_matching,
    is_connected,
    path_graph,
    remove_edges,
)
from palettebox.search import BUDGET, MAX_COLORS, BudgetExhausted
from palettebox.solver import chromatic_index
from palettebox.torus import torus_three_palette_coloring


def solve_exact(graph: Graph, budget=None):
    """The exact ``chromatic_index`` result, or ``BudgetExhausted`` naming what stopped it."""
    result = chromatic_index(graph, budget)
    if result.status != "exact":
        why = (f"the search's {MAX_COLORS}-color limit" if result.stop == "color-width"
               else "the search budget")
        raise BudgetExhausted(f"could not classify {graph.tag} within {why}")
    return result


def _missing_color(palette: frozenset[int], limit: int) -> int:
    """Smallest color in [limit] not present in the palette."""
    for c in range(1, limit + 1):
        if c not in palette:
            return c
    raise ValueError(f"palette {sorted(palette)} already covers [{limit}]")


def _spare_colors(col: EdgeColoring) -> list[int]:
    """Per vertex, the smallest color of [Delta+1] missing from its palette."""
    limit = col.graph.max_degree + 1
    return [_missing_color(col.palette(v), limit) for v in range(col.graph.n)]


def _is_class_two(col: EdgeColoring, what: str) -> bool:
    """Whether a proper coloring uses [Delta+1] rather than [Delta] exactly.

    An improper coloring, or any other color set, is rejected.
    """
    ok, witness = check_proper(col)
    if not ok:
        raise ValueError(f"{what} is not proper: clash at vertex {witness[0]}")
    d = col.graph.max_degree
    used = col.used_colors()
    if used != frozenset(range(1, d + 1)) and used != frozenset(range(1, d + 2)):
        raise ValueError(f"{what} must use [{d}] or [{d + 1}] exactly, got colors {sorted(used)}")
    return len(used) == d + 1


def _factor(graph: Graph, col: Optional[EdgeColoring], budget,
            what: str) -> tuple[EdgeColoring, bool]:
    """A checked coloring of a factor and whether it is class two.

    Without ``col`` the exact chromatic-index witness of ``graph`` is
    taken; a given ``col`` must color exactly ``graph``.
    """
    if col is None:
        col = solve_exact(graph, budget).witness
    elif col.graph != graph:
        raise ValueError(f"{what} must color {graph.tag}")
    return col, _is_class_two(col, what)


# ---------------------------------------------------------------------------
# products with a class-1 factor


def class1_product_coloring(g_col: EdgeColoring, h_col: EdgeColoring,
                            c: Optional[int] = None) -> EdgeColoring:
    """Color G box H when G is class 1, giving |used colors| = Delta(G)+Delta(H).

    ``g_col`` must be a Delta(G)-coloring.  If ``h_col`` uses exactly
    Delta(H) colors (H class 1), G-fiber edges are shifted by Delta(H).
    If it uses Delta(H)+1 colors (H class 2), the G-color class ``c``
    (default Delta(G)) is instead sent, in the copy of G at H-vertex z,
    to the color of [Delta(H)+1] missing from z's h-palette, and every
    other class g goes to g + Delta(H) + (g < c), which packs them into
    Delta(H)+2..Delta(H)+Delta(G).  When both factors are regular every
    vertex gets the palette [Delta(G)+Delta(H)], whatever c is.
    """
    dg = g_col.graph.max_degree
    if _is_class_two(g_col, "g"):
        raise ValueError(f"g must be a {dg}-coloring of a class-1 G, got {dg + 1} colors")
    return _class1_product(g_col, h_col, _is_class_two(h_col, "h"), c)


def _class1_product(g_col: EdgeColoring, h_col: EdgeColoring, h_class_two: bool,
                    c: Optional[int]) -> EdgeColoring:
    """``class1_product_coloring`` for factor colorings already checked."""
    g, h = g_col.graph, h_col.graph
    dg, dh = g.max_degree, h.max_degree
    if h_class_two:
        c = dg if c is None else c
        if not (1 <= c <= dg):
            raise ValueError(f"c must be one of g's colors 1..{dg}, got {c}")
        rows = {col: [col + dh + (col < c)] * h.n for col in set(g_col.colors)}
        # class c takes the spare color of its H-vertex
        rows[c] = _spare_colors(h_col)
    elif c is not None:
        raise ValueError("c applies only when h uses Delta(H)+1 colors")
    else:
        rows = {col: [col + dh] * h.n for col in set(g_col.colors)}
    return product_coloring(g, h, [rows[col] for col in g_col.colors], [h_col.colors] * g.n)


# ---------------------------------------------------------------------------
# nearly regular factors


@frozen
class NrgSpec:
    """Recipe for a class-1 nearly regular graph G' - X.

    ``g_prime`` is a connected r-regular graph, ``matching`` a perfect
    matching of it, and ``removed`` a nonempty proper subset of the
    matching.  ``base`` is a proper r-coloring of G' whose color class r
    is exactly the matching, which witnesses both that G' is class 1 and
    that G' minus the matching is.
    """

    g_prime: Graph
    matching: Matching
    removed: tuple[Edge, ...]
    base: EdgeColoring

    def __post_init__(self):
        g = self.g_prime
        if not g.is_regular or g.max_degree < 1:
            raise ValueError("g_prime must be regular and have edges")
        if not is_connected(g):
            raise ValueError("g_prime must be connected")
        if self.matching.host != g:
            raise ValueError("matching must live on g_prime")
        if not self.matching.is_perfect:
            raise ValueError("matching must be perfect")
        removed = set(self.removed)
        if not removed or not removed < set(self.matching.edges):
            raise ValueError("removed edges must form a nonempty proper subset of the matching")
        r = g.max_degree
        if _factor(g, self.base, None, "base coloring")[1]:
            raise ValueError(f"base coloring must use [{r}] exactly")
        class_r = {e for e, col in zip(g.edges, self.base.colors) if col == r}
        if class_r != set(self.matching.edges):
            raise ValueError("color class r of the base coloring must equal the matching")

    @property
    def degree(self) -> int:
        return self.g_prime.max_degree

    @cached_property
    def graph(self) -> Graph:
        """The nearly regular graph itself."""
        return remove_edges(self.g_prime, self.removed)


def make_nrg_spec(g_prime: Graph, removed: Sequence[Edge],
                  matching: Optional[Matching] = None, budget=None) -> NrgSpec:
    """Assemble an NrgSpec, finding the matching and base coloring if needed.

    Without an explicit matching, the lexicographically least perfect
    matching containing the removed edges is used.  The base coloring is
    found by coloring G' minus the matching with r-1 colors; failure
    there means the matching does not qualify.
    """
    removed = tuple(sorted(canonical_edge(u, v) for u, v in removed))
    if matching is None:
        matching = _matching_through(g_prime, removed)
        if matching is None:
            raise ValueError("no perfect matching contains the removed edges")
    base = _nrg_base(g_prime, matching, budget)
    if base is None:
        raise ValueError("g_prime minus the matching is not class 1, so the matching does not qualify")
    return NrgSpec(g_prime, matching, removed, base)


def _nrg_base(g_prime: Graph, matching: Matching, budget=None) -> Optional[EdgeColoring]:
    """The r-coloring of G' whose color class r is ``matching``, if there is one.

    It exists exactly when G' minus the matching is class 1, and is then
    that graph's (r-1)-coloring with the matching colored r; otherwise
    the matching does not qualify and the result is None.
    """
    r = g_prime.max_degree
    result = solve_exact(remove_edges(g_prime, matching.edges), budget)
    if result.value != r - 1:
        return None
    mapping = result.witness.as_map()
    for e in matching.edges:
        mapping[e] = r
    return EdgeColoring.from_map(g_prime, mapping)


def _matching_through(graph: Graph, forced: Sequence[Edge]) -> Optional[Matching]:
    """Lexicographically least perfect matching containing the forced edges.

    Deleting every other edge at a forced vertex leaves a graph whose
    perfect matchings are exactly those of ``graph`` through ``forced``
    when the forced edges are disjoint edges of ``graph``, and otherwise
    a graph none of whose perfect matchings contains them all.
    """
    keep = set(forced)
    ends = {v for e in keep for v in e}
    other = [e for e in graph.edges if e not in keep and (e[0] in ends or e[1] in ends)]
    rest = find_perfect_matching(remove_edges(graph, other))
    if rest is None or not keep <= set(rest.edges):
        return None
    return Matching(graph, rest.edges)


def nrg_product_coloring(spec: NrgSpec, host: Graph,
                         h_col: Optional[EdgeColoring] = None, budget=None) -> EdgeColoring:
    """Two-palette coloring of (G' - X) box H for regular H.

    This is the class-1 product coloring of the base coloring, restricted
    to G' - X, with c = 1: H-fiber edges keep h's colors and G-fiber
    edges move their base color j up by r' = deg(H), except that when h
    is a class-2 (r'+1)-coloring, class 1 is instead sent, per H-vertex
    z, to the single color of [r'+1] missing at z.  The removed edges all
    sat in class r, so full vertices see the palette [r+r'] and the
    removal endpoints see [r+r'-1]: exactly two palettes.
    """
    if not host.is_regular or host.max_degree < 1:
        raise ValueError("H must be regular with at least one edge")
    h_col, class_two = _factor(host, h_col, budget, "h")
    nrg = spec.graph
    base = spec.base.as_map()
    # the spec has checked the base, and its restriction to G' - X is still
    # an r-coloring, so neither factor is checked again
    g_col = EdgeColoring(nrg, tuple(base[e] for e in nrg.edges))
    return _class1_product(g_col, h_col, class_two, 1 if class_two else None)


# ---------------------------------------------------------------------------
# cycles and paths times regular graphs


def _regular_class2_colorings(g: Graph, g_col: Optional[EdgeColoring],
                              h_col: Optional[EdgeColoring], budget=None):
    if not g.is_regular or g.max_degree < 1:
        raise ValueError("G must be regular with at least one edge")
    r = g.max_degree
    g_col, class_two = _factor(g, g_col, budget, "g")
    if not class_two:
        raise ValueError("G is class 1; use class1_product_coloring or the class-1 path route")
    if h_col is None:
        return r, g_col, g_col
    if h_col.graph != g:
        raise ValueError(f"h must color {g.tag}")
    ok, witness = check_proper(h_col)
    if not ok:
        raise ValueError(f"h is not proper: clash at vertex {witness[0]}")
    banned = {r + 2, r + 3} & set(h_col.used_colors())
    if banned:
        raise ValueError(f"h must avoid colors {r + 2} and {r + 3}, uses {sorted(banned)}")
    return r, g_col, h_col


def _layered_rung_coloring(s: int, g: Graph, g_col: Optional[EdgeColoring],
                           h_col: Optional[EdgeColoring], budget, wrap: bool) -> EdgeColoring:
    """Shared body of the cycle and path constructions for class-2 G.

    Layers 0..s-2 carry g, layer s-1 carries h.  The rung between layers
    i and i+1 at G-vertex v takes v's missing g-color for even i and
    r+2 for odd i; the wraparound rung (cycle only) takes r+3.
    """
    r, g_col, h_col = _regular_class2_colorings(g, g_col, h_col, budget)
    layers = cycle_graph(s) if wrap else path_graph(s)
    missing = _spare_colors(g_col)
    odd, wraparound = [r + 2] * g.n, [r + 3] * g.n
    # the wraparound rung (0, s-1) is the only one spanning more than one layer
    rungs = [wraparound if hi - lo > 1 else odd if lo % 2 else missing for lo, hi in layers.edges]
    return product_coloring(layers, g, rungs, [g_col.colors] * (s - 1) + [h_col.colors])


def cycle_times_regular_coloring(s: int, g: Graph, g_col: Optional[EdgeColoring] = None,
                                 h_col: Optional[EdgeColoring] = None,
                                 budget=None) -> EdgeColoring:
    """Color C_s box G for odd s and class-2 regular G.

    ``g_col`` is an (r+1)-coloring of G (solved if omitted); ``h_col``
    is any proper coloring of G avoiding colors r+2 and r+3, ideally one
    with few palettes (defaults to g_col).  The result has the palettes
    [r+2] on interior layers, [r+1] + {r+3} on layer 0, and
    P_h(v) + {r+2, r+3} on layer s-1, hence at most 2 + palettes(h)
    distinct palettes.
    """
    if s < 3 or s % 2 == 0:
        raise ValueError("s must be odd and at least 3 (for even s use class1_product_coloring)")
    return _layered_rung_coloring(s, g, g_col, h_col, budget, wrap=True)


def path_times_regular_coloring(s: int, g: Graph, g_col: Optional[EdgeColoring] = None,
                                h_col: Optional[EdgeColoring] = None,
                                budget=None) -> EdgeColoring:
    """Color P_s box G for odd s and class-2 regular G.

    Like the cycle construction without the wraparound rung: palettes are
    [r+2] inside, [r+1] on layer 0, and P_h(v) + {r+2} on layer s-1.
    """
    if s < 3 or s % 2 == 0:
        raise ValueError("s must be odd and at least 3 (for even s use the nearly-regular route)")
    return _layered_rung_coloring(s, g, g_col, h_col, budget, wrap=False)


def path_times_class1_regular_coloring(s: int, g: Graph, c: Optional[int] = None,
                                       g_col: Optional[EdgeColoring] = None,
                                       budget=None) -> EdgeColoring:
    """Two-palette coloring of P_s box G for odd s and class-1 regular G.

    G's r-coloring is shifted to the colors 3..r+2 and rungs alternate
    colors 1, 2 along the path.  On layer 0 the class ``c`` (default
    r+2) is recolored 2 and on layer s-1 it is recolored 1, so both end
    layers show the palette {1,2} + (P_g(v) minus c) while interior
    layers show [r+2]: exactly two palettes.
    """
    if s < 3 or s % 2 == 0:
        raise ValueError("s must be odd and at least 3 (even s pairs with a class-1 factor directly)")
    if not g.is_regular or g.max_degree < 1:
        raise ValueError("G must be regular with at least one edge")
    r = g.max_degree
    g_col, class_two = _factor(g, g_col, budget, "g")
    if class_two:
        raise ValueError("G is class 2; use path_times_regular_coloring")
    if c is None:
        c = r + 2
    if not (3 <= c <= r + 2):
        raise ValueError(f"c must be one of the shifted colors 3..{r + 2}, got {c}")
    inner = [col + 2 for col in g_col.colors]
    first = [2 if col == c else col for col in inner]
    last = [1 if col == c else col for col in inner]
    rungs = [[1] * g.n, [2] * g.n]
    return product_coloring(path_graph(s), g, [rungs[i % 2] for i in range(s - 1)],
                            [first] + [inner] * (s - 2) + [last])


# ---------------------------------------------------------------------------
# cubic factors via perfect matching removal


#: Shared target palettes for every component block of the path-mode
#: reduction.  Odd-cycle components need four palettes and no four-set
#: family containing the {1,2,3,4}/{1,3,4}/{2,3,4} triple of the plain
#: class-1 product coloring admits them, so even components are searched
#: into this family as well.  Found as the palette family of a minimum
#: coloring of P_3 box C_3 and checked against all blocks up to
#: P_7 box C_7 at desk scale.
PATH_MODE_FAMILY = (
    frozenset({1, 2, 3, 4}),
    frozenset({1, 3, 4}),
    frozenset({1, 3, 5}),
    frozenset({2, 4, 5}),
)


def _component_cycle_order(rest: Graph, comp: list[int]) -> list[int]:
    """Vertices of a 2-regular component in cycle order, deterministically.

    Starts at the least vertex and moves to its least neighbour first.
    """
    start = comp[0]
    order = [start]
    prev = None
    here = start
    while True:
        nbrs = [w for w in rest.adjacency[here] if w != prev]
        nxt = min(nbrs) if prev is None else nbrs[0]
        if nxt == start:
            break
        order.append(nxt)
        prev, here = here, nxt
    return order


def _cycle_coloring(k: int, closing: int) -> EdgeColoring:
    """C_k with edge (j, j+1) colored 1 + j % 2 and the closing edge (0, k-1) ``closing``."""
    mapping = {(j, j + 1): 1 + j % 2 for j in range(k - 1)}
    mapping[(0, k - 1)] = closing
    return EdgeColoring.from_map(cycle_graph(k), mapping)


def cubic_matching_reduction(s: int, g: Graph, matching: Optional[Matching] = None,
                             mode: str = "cycle", budget=None) -> EdgeColoring:
    """Color C_s box G (or P_s box G) for odd s and class-2 cubic G.

    Removing a perfect matching from G leaves disjoint cycles, so the
    product minus the matching fibers splits into C_s box C_k blocks.
    In cycle mode even blocks get the flat {1,2,3,4} coloring and odd
    blocks the three-palette torus coloring; in path mode every block is
    searched into the shared PATH_MODE_FAMILY.  The matching fibers, a
    perfect matching of the product, then take one fresh color: 7 in
    cycle mode, the least color the blocks leave unused in path mode.
    Cycle mode ends with at most 3 distinct palettes, path mode with at
    most 4.
    """
    if s < 3 or s % 2 == 0:
        raise ValueError("s must be odd and at least 3")
    if mode not in ("cycle", "path"):
        raise ValueError(f"mode must be 'cycle' or 'path', got {mode!r}")
    if set(g.degrees) != {3}:
        raise ValueError("G must be cubic")
    if solve_exact(g, budget).value == 3:
        raise ValueError("G is class 1; use class1_product_coloring or the class-1 path route")
    if matching is None:
        matching = find_perfect_matching(g)
        if matching is None:
            raise ValueError("G has no perfect matching")
    if matching.host != g or not matching.is_perfect:
        raise ValueError("need a perfect matching of G")

    rest = remove_edges(g, matching.edges)
    layers = cycle_graph(s) if mode == "cycle" else path_graph(s)
    layer_col = _cycle_coloring(s, 3) if mode == "cycle" else None

    # Each component of ``rest``, a k-cycle in cycle order, times the layers
    # is colored as one block, which depends only on k, so components of
    # one length share it.  A block is read once, into the colors down the
    # rungs at each cycle position and along the copies of each cycle edge,
    # and the vertices and edges of its components share those lists.
    blocks: dict[int, tuple[EdgeColoring, list[list[int]], list[list[int]]]] = {}
    rungs: list[list[int]] = [[]] * g.n
    fibers: dict[Edge, list[int]] = {}
    for comp in connected_components(rest):
        if len(comp) == 1:
            raise ValueError("removing the matching left an isolated vertex; G is not cubic")
        order = _component_cycle_order(rest, comp)
        k = len(order)
        if k not in blocks:
            if mode == "path":
                block, layer_major = _family_block_coloring(s, k, budget), True
            elif k % 2 == 0:
                # The class-2 branch of the class-1 product coloring at its
                # default c = 2: the component's class 2 drops into the layer
                # cycle's missing color, class 1 shifts to 4, rungs keep
                # layer_col.  Every palette is {1,2,3,4}.
                block, layer_major = class1_product_coloring(_cycle_coloring(k, 2), layer_col), False
            else:
                # three-palette torus coloring of C_max box C_min
                block, layer_major = torus_three_palette_coloring(max(s, k), min(s, k)), s >= k
            blocks[k] = (block, *_block_columns(block, layers, k, layer_major))
        _, block_rungs, block_fibers = blocks[k]
        for j, v in enumerate(order):
            rungs[v] = block_rungs[j]
            fibers[canonical_edge(v, order[(j + 1) % k])] = block_fibers[j]
    if mode == "cycle":
        fresh = 7
    else:
        used = set().union(*(b.used_colors() for b, _, _ in blocks.values()))
        fresh = _missing_color(used, len(used) + 1)
    matched = set(matching.edges)
    fresh_fiber = [fresh] * s
    fiber_cols = [fresh_fiber if e in matched else fibers[e] for e in g.edges]
    # transposed: per layer edge the rung colors by G-vertex, per layer the
    # fiber colors by G-edge
    return product_coloring(layers, g, list(zip(*rungs)), list(zip(*fiber_cols)))


def _block_columns(block: EdgeColoring, layers: Graph, k: int,
                   layer_major: bool) -> tuple[list[list[int]], list[list[int]]]:
    """The colors of a block, the layers times C_k, per cycle position.

    Vertex (layer a, position j) of the block is a*k + j when it is
    layer-major and j*s + a when it is not.  Per position j, the first
    list holds the colors of the rungs at j, one per layer edge, and the
    second those of the copies of the cycle edge from j to j+1 (mod k),
    one per layer.
    """
    s = layers.n
    index, colors = block.graph.edge_index, block.colors
    stride, step = (k, 1) if layer_major else (1, s)
    rungs = [[colors[index[lo * stride + j * step, hi * stride + j * step]]
              for lo, hi in layers.edges] for j in range(k)]
    fibers = []
    for j in range(k):
        p, q = sorted((j, (j + 1) % k))
        fibers.append([colors[index[a * stride + p * step, a * stride + q * step]]
                       for a in range(s)])
    return rungs, fibers


def _family_block_coloring(s: int, k: int, budget=None) -> EdgeColoring:
    """Path-mode block: a coloring of P_s box C_k inside PATH_MODE_FAMILY."""
    from palettebox.oracle import coloring_within_family

    block = cartesian_product(path_graph(s), cycle_graph(k))
    status, col = coloring_within_family(block, PATH_MODE_FAMILY, budget)
    if status == BUDGET:
        raise BudgetExhausted(
            f"family search on P_{s} box C_{k} exceeded its budget; rerun with a larger one")
    if col is None:
        raise RuntimeError(
            f"P_{s} box C_{k} admits no coloring with palettes in {_family_repr()}")
    return col


def _family_repr() -> str:
    return "{" + ", ".join(sorted(str(sorted(p)) for p in PATH_MODE_FAMILY)) + "}"
