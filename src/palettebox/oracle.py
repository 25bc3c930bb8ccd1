"""Exact palette index oracle with lower-bound certificates.

The palette index of a graph is the minimum number of distinct vertex
palettes over all proper edge colorings.  ``palette_index_exact`` is the
one place a ``Certificate`` is made.  Its upper bound u is the best
known witness: a caller's candidate coloring or the chromatic-index
witness the lower bound computes.  It then deepens a target palette
count p from a certified lower bound up to u-1; for each p it runs an
exhaustive search over colorings with at most p distinct palettes.  A
coloring with p distinct palettes mentions at most p*Delta colors, so
restricting the search to min(p*Delta, |E|) colors loses nothing.

Lower bound rules:

* ``degree-set``: vertices of different degrees have different palettes.
* ``regular-class2``: a regular class-2 graph has palette index >= 3
  (one palette would give a Delta-coloring, and exactly two distinct
  palettes are impossible on a regular graph).
* ``regular-not-2``: p = 1 was exhausted and the graph is regular, so
  p = 2 is skipped for the same reason.
* ``exhaustive``: every smaller p was exhausted by search.

A search that stops early reports the proven interval and is never
marked exact; ``Certificate.stop`` says why it stopped.  Its upper bound
is the best known witness, and a Misra-Gries (Delta+1)-coloring, which
needs no budget, when none is known; so every certificate has an upper
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from palettebox import search
from palettebox.coloring import EdgeColoring, palette_summary
from palettebox.graphs import Graph
from palettebox.search import ensure_tracker
from palettebox.solver import ChromaticIndexResult, chromatic_index, misra_gries_coloring


@dataclass(frozen=True)
class Certificate:
    """A proven interval for the palette index of one graph.

    ``lower`` always holds, and ``upper`` is the palette count of
    ``witness``.  ``stop`` says why the search stopped: ``exact`` once the
    interval collapses, else ``budget``, ``max-palettes`` (every target
    up to the cap was exhausted) or ``color-width`` (the next target
    needs more colors than ``search.MAX_COLORS``).
    """

    lower: int
    upper: int
    rule: str
    witness: EdgeColoring
    nodes: int
    stop: str

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def interval(self) -> tuple[int, int]:
        return (self.lower, self.upper)


def default_max_palettes(graph: Graph) -> int:
    """Search cap: Delta+1 for regular graphs, #degrees + Delta otherwise."""
    if graph.n == 0 or not graph.edges:
        return 1
    distinct = len(set(graph.degrees))
    if graph.is_regular:
        return graph.max_degree + 1
    return distinct + graph.max_degree


def _lower_bound_impl(graph: Graph, tracker) -> tuple[int, str, Optional[ChromaticIndexResult]]:
    """The lower bound, its rule and the chromatic-index result it used."""
    if graph.n == 0:
        return 0, "degree-set", None
    distinct = len(set(graph.degrees))
    if not graph.is_regular:
        return distinct, "degree-set", None
    if graph.max_degree == 0:
        return 1, "degree-set", None
    result = chromatic_index(graph, tracker)
    if result.status == "exact" and result.is_class_one is False:
        return 3, "regular-class2", result
    return 1, "degree-set", result


def lower_bound(graph: Graph, budget=None) -> tuple[int, str]:
    """Best structural lower bound for the palette index, with its rule.

    Under a too-small budget the regular/class-2 route degrades to the
    degree bound rather than guessing.
    """
    value, rule, _ = _lower_bound_impl(graph, ensure_tracker(budget))
    return value, rule


def palette_index_exact(graph: Graph, candidates: Iterable[EdgeColoring] = (),
                        max_palettes: Optional[int] = None, budget=None) -> Certificate:
    """Exact palette index by iterative deepening, or a proven interval.

    Each candidate must be a proper coloring of exactly this graph.  The
    best of them and of the chromatic-index witness sets the upper bound
    u.  Deepening starts at the certified lower bound and runs only over
    targets p < u (and p <= ``max_palettes``).  Exhausting target p raises
    the proven lower bound to p+1 (skipping 2 on regular graphs).  The
    first target that admits a coloring is the palette index, since any
    coloring with c distinct palettes can be relabeled into the colors
    the target-c search explores; reaching u proves u.
    """
    tracker = ensure_tracker(budget)
    known = []
    for cand in candidates:
        if cand.graph.n != graph.n or cand.graph.edges != graph.edges:
            raise ValueError("candidate colors a different graph")
        known.append((palette_summary(cand).count, cand))
    if graph.n == 0 or not graph.edges:
        value = 1 if graph.n else 0
        return Certificate(value, value, "degree-set", EdgeColoring(graph, ()),
                           tracker.nodes, "exact")
    if max_palettes is None:
        max_palettes = default_max_palettes(graph)
    if max_palettes < 1:
        raise ValueError("max_palettes must be at least 1")

    delta = graph.max_degree
    m = len(graph.edges)

    proven, rule, chrom = _lower_bound_impl(graph, tracker)
    proven = max(proven, 1)
    if chrom is not None and chrom.witness is not None:
        known.append((palette_summary(chrom.witness).count, chrom.witness))
    upper, witness = min(known, key=lambda kc: kc[0], default=(None, None))

    stop = "exact"
    p = proven
    while upper is None or p < upper:
        if p > max_palettes:
            stop = "max-palettes"
            break
        if graph.is_regular and p == 2:
            proven, rule = 3, "regular-not-2"
            p = 3
            continue
        k = min(p * delta, m)
        if k > search.MAX_COLORS:
            # Exhaustion above the kernel's color width would be unsound.
            stop = "color-width"
            break
        status, found = search.search_palette_count(graph, k, p, tracker)
        if status == search.FOUND:
            upper, witness = p, found
            break
        if status == search.BUDGET:
            stop = "budget"
            break
        proven, rule = p + 1, "exhaustive"
        p += 1
    if witness is None:
        witness = misra_gries_coloring(graph)
        upper = palette_summary(witness).count
    if proven == upper:
        stop = "exact"
    return Certificate(proven, upper, rule, witness, tracker.nodes, stop)


def coloring_within_family(graph: Graph, family: Iterable[frozenset[int]],
                           budget=None) -> tuple[int, Optional[EdgeColoring]]:
    """Proper coloring whose palettes all lie in the given family, if any.

    Returns (status, coloring) with search.FOUND / EXHAUSTED / BUDGET.
    """
    return search.search_palette_family(graph, family, budget)


def naive_minimum_palettes(graph: Graph) -> int:
    """Minimum distinct palettes by enumerating partitions of E into matchings.

    Deliberately independent of the backtracking kernels: it uses
    nothing from ``search`` and walks every set partition of the edge
    list whose parts are matchings (edges in list order, each joining an
    existing part before a new one, so parts are ordered by their first
    edge).  Each vertex keeps its palette as a bitmask of part indices.
    A palette is final once the vertex's last incident edge is placed,
    since later edges never touch it, so a branch is cut as soon as it
    holds as many distinct final palettes as the best count seen; at a
    leaf every palette is final and their number is the palette count.
    Exponential: the cut reaches small products such as P_3 x C_5 (25
    edges), while some irregular graphs with fewer edges take far longer.
    """
    m = len(graph.edges)
    if graph.n == 0:
        return 0
    if m == 0:
        return 1
    edges = graph.edges
    last = [-1] * graph.n
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    # completes[i]: the vertices whose palette is final once edge i is placed
    completes: list[list[int]] = [[] for _ in range(m)]
    for v, i in enumerate(last):
        if i >= 0:
            completes[i].append(v)

    palette = [0] * graph.n
    part_masks: list[int] = []
    best = graph.n + 1

    def rec(i: int, final: frozenset[int]):
        nonlocal best
        if i == m:
            best = len(final)
            return
        u, v = edges[i]
        bit = (1 << u) | (1 << v)
        done = completes[i]
        for j in range(len(part_masks) + 1):
            fresh = j == len(part_masks)
            if fresh:
                part_masks.append(0)
            elif part_masks[j] & bit:
                continue
            part_masks[j] |= bit
            jbit = 1 << j
            palette[u] |= jbit
            palette[v] |= jbit
            grown = final.union(palette[w] for w in done) if done else final
            if len(grown) < best:
                rec(i + 1, grown)
            palette[u] ^= jbit
            palette[v] ^= jbit
            if fresh:
                part_masks.pop()
            else:
                part_masks[j] ^= bit

    # isolated vertices all have the empty palette, final from the start
    rec(0, frozenset({0}) if -1 in last else frozenset())
    return best
