"""Exact chromatic index by budgeted backtracking.

Every graph's chromatic index is its maximum degree Delta or Delta+1
(class 1 / class 2).  The solver tries a Delta-coloring exhaustively,
with color symmetry broken by introducing each new color as the smallest
unused one; on exhaustion it produces a (Delta+1)-witness.  A budget can
interrupt either phase, in which case the verdict is explicitly
indeterminate rather than a guess.

All searches (here and in ``oracle``) color edges in the order of
``solver_edge_order``, which always takes next an edge whose endpoints
have the fewest uncolored edges left.  Vertices thus complete early, and
a completed vertex is where the palette searches learn a palette and
can prune on it.

``misra_gries_coloring`` builds a (Delta+1)-coloring without search, so
an upper bound is always at hand when a budget runs out.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from palettebox import search
from palettebox.coloring import EdgeColoring
from palettebox.graphs import Graph
from palettebox.search import BudgetTracker, SearchBudget, ensure_tracker

__all__ = ["SearchBudget", "ChromaticIndexResult", "chromatic_index", "misra_gries_coloring",
           "ordered_endpoints", "solver_edge_order"]


def solver_edge_order(graph: Graph) -> list[int]:
    """Edge positions in completion order: each next edge finishes vertices soonest.

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
    O(m * Delta * log m) time.
    """
    edges = graph.edges
    m = len(edges)
    width = graph.max_degree + 1
    left = list(graph.degrees)
    incident: list[list[int]] = [[] for _ in range(graph.n)]
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
    return order


def ordered_endpoints(graph: Graph) -> tuple[list[int], list[int], list[int]]:
    """(order, eu, ev): the solver edge order and the endpoints of the edges in it."""
    order = solver_edge_order(graph)
    eu = [graph.edges[i][0] for i in order]
    ev = [graph.edges[i][1] for i in order]
    return order, eu, ev


def coloring_from_search(graph: Graph, order: list[int], colors: list[int]) -> EdgeColoring:
    """Reassemble a search-order color list into a canonical-order coloring."""
    arr = [0] * len(graph.edges)
    for slot, c in zip(order, colors):
        arr[slot] = c
    return EdgeColoring(graph, tuple(arr))


@dataclass(frozen=True)
class ChromaticIndexResult:
    """Outcome of a chromatic index computation.

    ``status`` is "exact" or "indeterminate"; ``value`` and ``witness``
    are set only for exact outcomes.
    """

    status: str
    value: Optional[int]
    witness: Optional[EdgeColoring]
    delta: int
    nodes: int

    @property
    def is_class_one(self) -> Optional[bool]:
        if self.status != "exact":
            return None
        return self.value == self.delta


def chromatic_index(graph: Graph, budget=None) -> ChromaticIndexResult:
    """Compute the chromatic index with an optional search budget.

    A Delta-regular graph of odd order has no perfect matching, so no
    color class of a Delta-coloring could cover every vertex; that case
    is classified as class 2 without searching.  Exhaustive failure of
    the Delta search likewise yields class 2, and a (Delta+1)-witness is
    then searched for (it always exists).
    """
    return _chromatic_index(graph, ensure_tracker(budget), ordered_endpoints(graph))


def _chromatic_index(graph: Graph, tracker: BudgetTracker,
                     endpoints: tuple[list[int], list[int], list[int]]) -> ChromaticIndexResult:
    """``chromatic_index`` on the caller's ``ordered_endpoints(graph)``."""
    delta = graph.max_degree
    order, eu, ev = endpoints

    parity_class_two = delta > 0 and graph.is_regular and graph.n % 2 == 1
    if not parity_class_two:
        status, colors = search.search_k_coloring(eu, ev, graph.n, delta, tracker)
        if status == search.FOUND:
            witness = coloring_from_search(graph, order, colors)
            return ChromaticIndexResult("exact", delta, witness, delta, tracker.nodes)
        if status == search.BUDGET:
            return ChromaticIndexResult("indeterminate", None, None, delta, tracker.nodes)

    status, colors = search.search_k_coloring(eu, ev, graph.n, delta + 1, tracker)
    if status == search.FOUND:
        witness = coloring_from_search(graph, order, colors)
        return ChromaticIndexResult("exact", delta + 1, witness, delta, tracker.nodes)
    if status == search.BUDGET:
        return ChromaticIndexResult("indeterminate", None, None, delta, tracker.nodes)
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
