from hashlib import sha256
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from palettebox.coloring import check_proper
from palettebox.corpus import random_graph, small_corpus
from palettebox.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
)
from palettebox.search import SearchBudget
from palettebox.solver import chromatic_index, misra_gries_coloring


@pytest.mark.parametrize("graph, expected", [
    (path_graph(2), 1),
    (path_graph(5), 2),
    (cycle_graph(4), 2),
    (cycle_graph(5), 3),
    (complete_graph(4), 3),
    (hypercube_graph(3), 3),
    (petersen_graph(), 4),
])
def test_chromatic_index_values(graph, expected):
    res = chromatic_index(graph)
    assert res.status == "exact"
    assert res.value == expected
    assert check_proper(res.witness)[0]
    assert res.witness.max_color <= expected
    assert res.delta == graph.max_degree


def test_class_one_flag():
    assert chromatic_index(cycle_graph(6)).is_class_one
    assert not chromatic_index(cycle_graph(7)).is_class_one


def test_odd_regular_parity_shortcut():
    # K7 is 6-regular on an odd vertex count, so class 2 without search
    res = chromatic_index(complete_graph(7))
    assert res.status == "exact" and res.value == 7
    assert check_proper(res.witness)[0]
    assert res.nodes < 10_000_000


def test_empty_graph():
    res = chromatic_index(Graph(3, ()))
    assert res.status == "exact" and res.value == 0


@pytest.mark.parametrize("graph, budget, stop", [
    (cycle_graph(5), None, "exact"),
    (petersen_graph(), SearchBudget(max_nodes=5), "budget"),
    (complete_graph(63), None, "color-width"),
], ids=["C5", "petersen", "K63"])
def test_result_says_why_it_stopped(graph, budget, stop):
    assert chromatic_index(graph, budget).stop == stop


def test_budget_exhaustion_is_reported():
    res = chromatic_index(petersen_graph(), budget=SearchBudget(max_nodes=2))
    assert res.status == "indeterminate"
    assert res.value is None and res.witness is None


@pytest.mark.parametrize("graph, nodes, value", [
    (cycle_graph(9), 5, 3),  # class 2 by parity, before any search
    (petersen_graph(), 86, 4),  # its Delta = 3 search is exhausted after 79 nodes
    (complete_graph(9), 5, 9),
])
def test_a_proven_class_two_survives_a_budget_stop(graph, nodes, value):
    res = chromatic_index(graph, budget=SearchBudget(max_nodes=nodes))
    assert res.status == "indeterminate" and res.witness is None
    assert res.value == value
    assert res.is_class_one is False


def test_k9_node_count_is_pinned():
    # K9 is 8-regular of odd order, so only the 9-coloring is searched;
    # a change here means the search tree changed
    res = chromatic_index(complete_graph(9))
    assert res.value == 9
    assert res.nodes == 113_994


@pytest.mark.parametrize("g, value, nodes, digest", [
    (complete_graph(9), 9, 113_994,
     "9c39970cb80094a1e4cbbdcf689a6daf43fa7e5cf90c8894cf87f074dc56dc94"),
    (complete_graph(7), 7, 21,
     "6fee9410ed5acb227c98e623fc451d3326ca8d77cdf413e6dc47cd2bfa9c00bf"),
    (petersen_graph(), 4, 94,
     "cdd1725f96fc84bda74f95c4567eea48d6ad49987947d0a72b9d95bff0d2201a"),
    (hypercube_graph(3), 3, 12,
     "2e66506b1d9fc969b743fa8fff64661d14b7ba0717a70cfa9771fd293db0f511"),
], ids=["K9", "K7", "petersen", "Q3"])
def test_chromatic_index_searches_are_pinned(g, value, nodes, digest):
    # the status, node count and sha256 of the witness colors: a change
    # here means the search visited other nodes or found another witness
    res = chromatic_index(g)
    assert (res.status, res.value, res.nodes) == ("exact", value, nodes)
    assert sha256(bytes(res.witness.colors)).hexdigest() == digest


@pytest.mark.parametrize("n, value", [(63, 63), (64, None)])
def test_color_counts_past_the_kernel_limit_are_indeterminate(n, value):
    # K63 needs 63 colors by parity; K64 would search 63 colors first
    res = chromatic_index(complete_graph(n))
    assert (res.status, res.value, res.witness, res.nodes) == ("indeterminate", value, None, 0)


def assert_vizing_coloring(g):
    col = misra_gries_coloring(g)
    assert check_proper(col)[0]
    assert all(c <= g.max_degree + 1 for c in col.colors)
    assert misra_gries_coloring(g) == col


@pytest.mark.parametrize("g", [
    *small_corpus(max_edges=40),
    petersen_graph(),
    complete_graph(8),
    complete_graph(9),
    hypercube_graph(4),
    cartesian_product(path_graph(5), cycle_graph(3)),
    cartesian_product(path_graph(3), cycle_graph(5)),
    Graph(4, ()),
    *(random_graph(Random(seed), 6, 10) for seed in range(40)),
], ids=lambda g: g.tag or "edgeless")
def test_misra_gries_on_corpus(g):
    assert_vizing_coloring(g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_misra_gries_on_random_graphs(data):
    n = data.draw(st.integers(1, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(possible))) if possible else set()
    assert_vizing_coloring(Graph.from_edges(n, sorted(chosen)))
