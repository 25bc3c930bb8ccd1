"""Small fixed graphs for cross-validation sweeps and property tests."""

from __future__ import annotations

import itertools
from random import Random

from palettebox.graphs import (
    Graph,
    cartesian_product,
    cycle_graph,
    hypercube_graph,
    path_graph,
    remove_edges,
)


def small_corpus(max_edges: int = 12) -> tuple[Graph, ...]:
    """Paths, cycles, their small products, and Q_3 minus an edge.

    No two members share vertex count and edge list; Q_2 is left out as
    the product P_2 x P_2.  Everything with more than ``max_edges`` edges
    is dropped.  The largest graphs, P_3 x P_3 and P_2 x C_4, have 12
    edges, so any bound of 12 or more gives all 18; the naive
    matching-partition oracle, which has no budget, settles each of them
    in well under a second.
    """
    graphs: list[Graph] = []
    graphs.extend(path_graph(n) for n in range(2, 8))
    graphs.extend(cycle_graph(n) for n in range(3, 8))
    products = [
        (path_graph(2), path_graph(2)),
        (path_graph(2), path_graph(3)),
        (path_graph(2), path_graph(4)),
        (path_graph(3), path_graph(3)),
        (path_graph(2), cycle_graph(3)),
        (path_graph(2), cycle_graph(4)),
    ]
    graphs.extend(cartesian_product(a, b) for a, b in products)
    q3 = hypercube_graph(3)
    graphs.append(remove_edges(q3, [q3.edges[0]]))
    return tuple(g for g in graphs if len(g.edges) <= max_edges)


def random_graph(rng: Random, n_min: int = 2, n_max: int = 6) -> Graph:
    """A random nonempty simple graph, reproducible from the generator state."""
    while True:
        n = rng.randint(n_min, n_max)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        if edges:
            return Graph.from_edges(n, edges, f"random({n})")
