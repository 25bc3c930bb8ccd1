"""Exact chromatic index by budgeted backtracking.

Every graph's chromatic index is its maximum degree Delta or Delta+1
(class 1 / class 2).  The solver tries a Delta-coloring exhaustively,
with color symmetry broken by introducing each new color as the smallest
unused one; on exhaustion it produces a (Delta+1)-witness.  A budget can
interrupt either phase, in which case the verdict is explicitly
indeterminate rather than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from palettebox import search
from palettebox.coloring import EdgeColoring
from palettebox.graphs import Graph
from palettebox.search import BudgetTracker, SearchBudget, ensure_tracker

__all__ = ["SearchBudget", "ChromaticIndexResult", "chromatic_index", "ordered_endpoints",
           "solver_edge_order"]


def solver_edge_order(graph: Graph) -> list[int]:
    """Edge positions sorted by maximum endpoint degree (descending), ties lexicographic."""
    deg = graph.degrees
    return sorted(
        range(len(graph.edges)),
        key=lambda i: (-max(deg[graph.edges[i][0]], deg[graph.edges[i][1]]), graph.edges[i]),
    )


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
    delta = graph.max_degree
    tracker = ensure_tracker(budget)
    order, eu, ev = ordered_endpoints(graph)

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
