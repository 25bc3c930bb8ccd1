"""Exact chromatic index by budgeted backtracking.

Every graph's chromatic index is its maximum degree Delta or Delta+1
(class 1 / class 2).  The solver tries a Delta-coloring exhaustively,
with color symmetry broken by introducing each new color as the smallest
unused one; on exhaustion it produces a (Delta+1)-witness.  A budget can
interrupt either phase, in which case the verdict is explicitly
indeterminate rather than a guess, and so is a search that would need
more colors than the kernel holds.

``misra_gries_coloring`` builds a (Delta+1)-coloring without search, so
an upper bound is always at hand when a budget runs out.
"""

from __future__ import annotations

from typing import Optional

from palettebox import search
from palettebox._record import frozen
from palettebox.coloring import EdgeColoring
from palettebox.graphs import Graph
from palettebox.search import SearchBudget, ensure_tracker

__all__ = ["SearchBudget", "ChromaticIndexResult", "chromatic_index", "misra_gries_coloring"]


@frozen
class ChromaticIndexResult:
    """Outcome of a chromatic index computation.

    ``status`` is "exact" or "indeterminate"; ``witness`` is set only for
    exact outcomes, and ``value`` also for a class-2 graph whose
    (Delta+1)-witness search ran out of budget.  ``stop`` says why the
    computation stopped, in ``Certificate.stop``'s words: ``exact``, else
    ``budget`` or ``color-width`` (the next search needs more colors than
    ``search.MAX_COLORS``).
    """

    status: str
    value: Optional[int]
    witness: Optional[EdgeColoring]
    delta: int
    nodes: int
    stop: str

    @property
    def is_class_one(self) -> Optional[bool]:
        return None if self.value is None else self.value == self.delta


def chromatic_index(graph: Graph, budget=None, make_order=None) -> ChromaticIndexResult:
    """Compute the chromatic index with an optional search budget.

    Both color counts are searched along one edge order, made when the
    first search starts by ``make_order()``, by default
    ``search.edge_order(graph)``; no order is made when nothing is searched.

    A Delta-regular graph of odd order has no perfect matching, so no
    color class of a Delta-coloring could cover every vertex; that case
    is classified as class 2 without searching.  Exhaustive failure of
    the Delta search likewise yields class 2, and a (Delta+1)-witness is
    then searched for (it always exists; a budget stop keeps Delta+1).
    A color count past ``search.MAX_COLORS`` stops the same way as the
    budget does, so it is indeterminate too.
    """
    tracker = ensure_tracker(budget)
    order = None
    delta = graph.max_degree
    parity_class_two = delta > 0 and graph.is_regular and graph.n % 2 == 1
    for k in (delta + 1,) if parity_class_two else (delta, delta + 1):
        if k > search.MAX_COLORS:  # past the kernel's color width nothing is searched
            status, stop = search.BUDGET, "color-width"
        else:
            if order is None:
                order = make_order() if make_order else search.edge_order(graph)
            status, witness = search.Search(graph, order, k).run(tracker)
            stop = "budget"
        if status == search.FOUND:
            return ChromaticIndexResult("exact", k, witness, delta, tracker.nodes, "exact")
        if status == search.BUDGET:
            value = k if k > delta else None  # k > delta: class 2 is proven
            return ChromaticIndexResult("indeterminate", value, None, delta, tracker.nodes, stop)
    raise RuntimeError("no (Delta+1)-coloring found; this contradicts Vizing's bound")


def misra_gries_coloring(graph: Graph) -> EdgeColoring:
    """A proper coloring with at most Delta+1 colors, built without search.

    Misra & Gries (IPL 1992), the constructive proof of Vizing's theorem.
    Edges are colored in canonical order.  An edge (u, v) whose ends have
    a free color in common takes the least one, which keeps the palettes
    few.  Otherwise grow a maximal fan of u starting at v, take the least
    color c free at u and the least color d free at the fan's last vertex,
    swap c and d on the path from u whose edges alternate d and c, then
    rotate the fan up to its first vertex w that is still a fan prefix and
    has d free, and color (u, w) with d.  Every choice takes the least
    candidate, so the coloring is the same on every run.  O(|E| * (|V| + Delta^3)) time,
    with no search and so no budget.
    """
    palette = range(1, graph.max_degree + 2)
    at: list[dict[int, int]] = [{} for _ in range(graph.n)]  # color -> neighbor

    def paint(x: int, y: int, c: int) -> None:
        at[x][c] = y
        at[y][c] = x

    def unpaint(x: int, y: int, c: int) -> None:
        del at[x][c]
        del at[y][c]

    def least_free(x: int) -> int:
        return next(c for c in palette if c not in at[x])

    for u, v in graph.edges:
        common = next((c for c in palette if c not in at[u] and c not in at[v]), None)
        if common is not None:
            paint(u, v, common)
            continue
        fan = [v]
        while True:
            last = fan[-1]
            nxt = next((at[u][c] for c in palette
                        if c in at[u] and c not in at[last] and at[u][c] not in fan), None)
            if nxt is None:
                break
            fan.append(nxt)
        c, d = least_free(u), least_free(fan[-1])
        path = []
        x, col = u, d
        while col in at[x]:
            y = at[x][col]
            path.append((x, y, col))
            x, col = y, c + d - col
        for x, y, col in path:
            unpaint(x, y, col)
        for x, y, col in path:
            paint(x, y, c + d - col)
        color_to = {y: col for col, y in at[u].items()}
        i = 0
        while d in at[fan[i]]:
            i += 1
            if i == len(fan) or color_to[fan[i]] in at[fan[i - 1]]:
                raise RuntimeError("no fan prefix ends at a vertex with d free; "
                                   "this contradicts Misra and Gries")
        for j in range(i):
            col = color_to[fan[j + 1]]
            unpaint(u, fan[j + 1], col)
            paint(u, fan[j], col)
        paint(u, fan[i], d)
    color_of = [{y: col for col, y in at[x].items()} for x in range(graph.n)]
    return EdgeColoring(graph, tuple(color_of[a][b] for a, b in graph.edges))
