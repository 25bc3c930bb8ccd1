from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from palettebox import search
from palettebox.coloring import EdgeColoring, check_proper, palette_summary
from palettebox.constructions import PATH_MODE_FAMILY
from palettebox.corpus import random_graph, small_corpus
from palettebox.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from palettebox.oracle import (
    _parity_families,
    coloring_within_family,
    lower_bound,
    naive_minimum_palettes,
    palette_index_exact,
)
from palettebox.search import (
    EXHAUSTED,
    FOUND,
    BudgetTracker,
    SearchBudget,
    search_palette_count,
    search_palette_family,
)
from palettebox.solver import chromatic_index


@pytest.mark.parametrize("n, expected", [(3, 3), (4, 2), (5, 3), (6, 2), (7, 3)])
def test_paths_alternate_by_parity(n, expected):
    cert = palette_index_exact(path_graph(n))
    assert cert.exact and cert.lower == expected


@pytest.mark.parametrize("n, expected", [(4, 1), (5, 3), (6, 1), (7, 3)])
def test_cycles_alternate_by_parity(n, expected):
    cert = palette_index_exact(cycle_graph(n))
    assert cert.exact and cert.lower == expected


@pytest.mark.parametrize("spec, expected", [
    ((2, 2), 1),
    ((2, 3), 2),
    ((3, 3), 5),
])
def test_small_grid_values(spec, expected):
    a, b = spec
    g = cartesian_product(path_graph(a), path_graph(b))
    cert = palette_index_exact(g)
    assert cert.exact and cert.lower == expected


def test_complete_graph_values():
    assert palette_index_exact(complete_graph(4)).lower == 1
    cert = palette_index_exact(complete_graph(5))
    assert cert.exact and cert.lower == 4


def test_certificate_carries_witness():
    cert = palette_index_exact(cycle_graph(5))
    assert cert.rule
    assert cert.witness is not None
    assert check_proper(cert.witness)[0]
    assert palette_summary(cert.witness).count == cert.upper


def test_lower_bound_rules():
    value, rule = lower_bound(path_graph(4))
    assert value == 2 and rule == "degree-set"
    value, rule = lower_bound(cycle_graph(5))
    assert value == 3 and rule == "regular-class2"
    value, rule = lower_bound(cycle_graph(4))
    assert value == 1 and rule == "degree-set"


def test_regular_graphs_skip_two_palettes():
    # a regular graph with palette index 2 is impossible; the search
    # must still terminate with the right answer above it
    cert = palette_index_exact(cycle_graph(7))
    assert cert.exact and cert.lower == 3


@pytest.mark.parametrize("graph, nodes, interval", [
    (cycle_graph(9), 5, (3, 3)),
    (petersen_graph(), 86, (3, 3)),
    (complete_graph(9), 5, (3, 9)),
])
def test_a_budget_stop_keeps_a_proven_class_two(graph, nodes, interval):
    # the chromatic index proved class 2 but found no witness in budget;
    # the Misra-Gries coloring then sets the upper bound
    budget = SearchBudget(max_nodes=nodes)
    cert = palette_index_exact(graph, budget=budget)
    assert cert.interval == interval
    assert cert.rule == "regular-class2"
    assert cert.stop == ("exact" if interval[0] == interval[1] else "budget")
    assert palette_summary(cert.witness).count == interval[1]
    assert lower_bound(graph, budget) == (3, "regular-class2")


def test_budget_exhaustion_yields_interval():
    g = cartesian_product(path_graph(3), path_graph(3))
    cert = palette_index_exact(g, budget=SearchBudget(max_nodes=3))
    assert not cert.exact
    lo, hi = cert.interval
    assert lo >= 1 and hi >= lo


@pytest.mark.parametrize("budget", [
    SearchBudget(max_nodes=1),
    SearchBudget(max_nodes=1_700),
    SearchBudget(max_seconds=0.0),
])
def test_interrupted_oracle_keeps_an_upper_bound(budget):
    # P5 x C3 has palette index 4 and is not regular, so no chromatic-index
    # witness exists to fall back on; the Misra-Gries coloring bounds it.
    # 1,700 nodes stop it at p = 4, after the families refuted p = 3; it
    # needs 1,771.
    g = cartesian_product(path_graph(5), cycle_graph(3))
    cert = palette_index_exact(g, budget=budget)
    assert not cert.exact
    assert cert.lower <= 4 <= cert.upper
    assert check_proper(cert.witness)[0]
    assert palette_summary(cert.witness).count == cert.upper


def test_palette_search_node_counts_are_pinned():
    # a change here means the search tree changed
    cert = palette_index_exact(cartesian_product(cycle_graph(3), cycle_graph(5)))
    assert cert.interval == (3, 3)
    assert cert.nodes == 164
    tracker = BudgetTracker(None)
    g = cartesian_product(path_graph(5), cycle_graph(5))
    status, col = coloring_within_family(g, PATH_MODE_FAMILY, tracker)
    assert status == FOUND and check_proper(col)[0]
    assert tracker.nodes == 99


@pytest.mark.parametrize("g, h, interval, rule, nodes", [
    # both have palette index 4; the count search exhausts p = 2, the one
    # parity family of p = 3 is exhausted, and the count search finds p = 4
    (path_graph(3), cycle_graph(5), (4, 4), "parity-families", 2_951),
    (path_graph(5), cycle_graph(3), (4, 4), "parity-families", 1_771),
    # p = 3 has no parity family, and the 11 families of p = 4 are exhausted
    (path_graph(5), path_graph(5), (5, 5), "parity-families", 17_347),
    # class 2, so p = 3 is the first target, and the count search finds it
    (cycle_graph(5), cycle_graph(5), (3, 3), "regular-class2", 3_768),
], ids=["P3xC5", "P5xC3", "P5xP5", "C5xC5"])
def test_path_cycle_node_counts_are_pinned(g, h, interval, rule, nodes):
    cert = palette_index_exact(cartesian_product(g, h))
    assert cert.interval == interval and cert.rule == rule
    assert cert.nodes == nodes


def test_each_target_orders_the_edges_once(monkeypatch):
    # P5 x P5 settles three targets: p = 3 by parity, p = 4 by exhausting
    # its families and p = 5 by a coloring; the count search and every
    # family search of a target share one edge order
    calls = []
    order = search.edge_order

    def counted(graph):
        calls.append(graph)
        return order(graph)
    monkeypatch.setattr(search, "edge_order", counted)
    cert = palette_index_exact(cartesian_product(path_graph(5), path_graph(5)))
    assert cert.interval == (5, 5)
    assert len(calls) == 3


def test_candidate_witness_sets_the_upper_bound():
    g = cycle_graph(5)
    col = chromatic_index(g).witness
    cert = palette_index_exact(g, [col])
    assert cert.lower == 3 and cert.upper == 3 and cert.exact


def test_candidates_for_another_graph_are_rejected():
    g = cycle_graph(5)
    col = chromatic_index(cycle_graph(7)).witness
    with pytest.raises(ValueError):
        palette_index_exact(g, [col])


def test_improper_candidates_are_rejected():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        palette_index_exact(g, [EdgeColoring(g, (1, 1, 2, 2))])


@pytest.mark.parametrize("graph", [Graph(3, ()), Graph(0, ()), path_graph(2)])
def test_max_palettes_below_one_is_rejected_with_or_without_edges(graph):
    with pytest.raises(ValueError, match="max_palettes must be at least 1"):
        palette_index_exact(graph, max_palettes=0)


def _family_witness(path, cycle):
    g = cartesian_product(path_graph(path), cycle_graph(cycle))
    status, col = coloring_within_family(g, PATH_MODE_FAMILY)
    assert status == FOUND
    return g, col


@pytest.mark.parametrize("path, cycle, nodes", [(3, 5, 2_358), (5, 3, 1_572)],
                         ids=["P3xC5", "P5xC3"])
def test_family_witness_spares_the_last_target(path, cycle, nodes):
    # the witness has 4 palettes, so only p = 2 and 3 are searched
    g, col = _family_witness(path, cycle)
    cert = palette_index_exact(g, [col])
    assert cert.interval == (4, 4) and cert.stop == "exact"
    assert cert.nodes == nodes


@pytest.mark.parametrize("g, nodes", [(cycle_graph(5), 5), (petersen_graph(), 94)],
                         ids=["C5", "petersen"])
def test_chromatic_witness_meeting_the_lower_bound_skips_the_palette_search(g, nodes):
    cert = palette_index_exact(g)
    assert cert.exact and cert.rule == "regular-class2"
    assert cert.nodes == chromatic_index(g).nodes == nodes


def test_interrupted_oracle_keeps_the_candidate_upper_bound():
    # P7 x P7 has no parity family at p = 3, and p = 4 outlasts the budget;
    # without the candidate the Misra-Gries coloring's 6 palettes bound it
    g = cartesian_product(path_graph(7), path_graph(7))
    status, col = search_palette_count(g, 20, 5)
    assert status == FOUND
    budget = SearchBudget(max_nodes=100_000)
    assert palette_index_exact(g, budget=budget).interval == (4, 6)
    cert = palette_index_exact(g, [col], budget=budget)
    assert cert.interval == (4, 5) and cert.stop == "budget"
    assert cert.witness is col


def _soundness_graphs():
    rng = Random(1)
    graphs = list(small_corpus(12)) + [random_graph(rng, 2, 7) for _ in range(200)]
    # isolated vertices, whose empty palette every family must hold
    graphs += [Graph(5, ((0, 1), (1, 2))), Graph(6, ((0, 2), (2, 3), (4, 5))),
               Graph.from_edges(7, ((0, 1), (1, 2), (2, 0), (4, 5)))]
    return graphs


def test_parity_families_agree_with_the_count_search():
    # at every p up to the index, exhausting every parity-feasible family
    # must say what exhausting the count search says
    graphs = _soundness_graphs()
    assert sum(0 in g.degrees for g in graphs) >= 20
    for g in graphs:
        index = palette_index_exact(g).lower
        for p in range(1, index + 1):
            k = min(p * g.max_degree, len(g.edges))
            families = all(search_palette_family(g, family)[0] == EXHAUSTED
                           for family in _parity_families(g, p, k))
            count = search_palette_count(g, k, p)[0] == EXHAUSTED
            assert families == count, (g.n, g.edges, p)


def test_parity_rules_name_the_refutation():
    # P5 x P5 has degrees 2, 3 and 4 on 4, 12 and 9 vertices.  At p = 3 its
    # one degree-4 palette is odd and alone, so it has no family: the first
    # 1,024 count-search nodes do not settle p = 3, and parity does.
    grid = cartesian_product(path_graph(5), path_graph(5))
    assert next(_parity_families(grid, 3, 12), None) is None
    cert = palette_index_exact(grid, max_palettes=3)
    assert (cert.interval, cert.rule, cert.nodes) == ((4, 6), "parity", 1_024)
    # p = 4 is refuted by exhausting its 11 families
    assert sum(1 for _ in _parity_families(grid, 4, 16)) == 11
    cert = palette_index_exact(grid)
    assert (cert.interval, cert.rule) == ((5, 5), "parity-families")


def test_certificate_says_why_it_stopped():
    k232 = Graph.from_edges(34, [(u, v) for u in range(2) for v in range(2, 34)])
    grid = cartesian_product(path_graph(3), path_graph(3))
    assert palette_index_exact(cycle_graph(5)).stop == "exact"
    assert palette_index_exact(grid, budget=SearchBudget(max_nodes=3)).stop == "budget"
    assert palette_index_exact(path_graph(5), max_palettes=1).stop == "max-palettes"
    # at p = 2 the search would need min(2 * 32, 64) = 64 colors
    assert palette_index_exact(k232).stop == "color-width"


def test_coloring_within_family():
    g = cycle_graph(4)
    status, col = coloring_within_family(g, [frozenset({1, 2})])
    assert status == FOUND
    assert palette_summary(col).palette_sets() == {frozenset({1, 2})}
    c5 = cycle_graph(5)
    status, col = coloring_within_family(c5, [frozenset({1, 2})])
    assert status == EXHAUSTED and col is None


def test_naive_oracle_known_values():
    assert naive_minimum_palettes(path_graph(4)) == 2
    assert naive_minimum_palettes(path_graph(5)) == 3
    assert naive_minimum_palettes(cycle_graph(5)) == 3
    assert naive_minimum_palettes(complete_graph(4)) == 1
    assert naive_minimum_palettes(Graph(2, ((0, 1),))) == 1
    # the odd blocks of the tpc-table, and the odd grid, confirmed without the kernels
    assert naive_minimum_palettes(cartesian_product(path_graph(3), cycle_graph(5))) == 4
    assert naive_minimum_palettes(cartesian_product(path_graph(5), cycle_graph(3))) == 4
    assert naive_minimum_palettes(cartesian_product(path_graph(3), path_graph(5))) == 5


def reference_minimum_palettes(graph):
    """The plain enumerator the final-palette cut replaced: every partition
    of the edges into matchings, palettes counted only at the leaves."""
    m = len(graph.edges)
    if graph.n == 0:
        return 0
    if m == 0:
        return 1
    edges = graph.edges
    incident = [[] for _ in range(graph.n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    class_of = [-1] * m
    part_masks = []
    best = graph.n + 1

    def leaf_count():
        return len({frozenset(class_of[i] for i in incident[v]) for v in range(graph.n)})

    def rec(i):
        nonlocal best
        if i == m:
            best = min(best, leaf_count())
            return
        u, v = edges[i]
        bit = (1 << u) | (1 << v)
        for j in range(len(part_masks)):
            if part_masks[j] & bit == 0:
                part_masks[j] |= bit
                class_of[i] = j
                rec(i + 1)
                part_masks[j] &= ~bit
        part_masks.append(bit)
        class_of[i] = len(part_masks) - 1
        rec(i + 1)
        part_masks.pop()
        class_of[i] = -1

    rec(0)
    return best


def _reference_graphs():
    rng = Random(1014)
    graphs = list(small_corpus(10))
    while len(graphs) < len(small_corpus(10)) + 200:
        g = random_graph(rng, 2, 7)
        if len(g.edges) <= 9:
            graphs.append(g)
    # isolated vertices, whose empty palette is final from the start
    graphs += [Graph(5, ((0, 1), (1, 2))), Graph(6, ((0, 2), (2, 3), (4, 5))),
               Graph.from_edges(7, ((0, 1), (1, 2), (2, 0), (4, 5))),
               Graph(3, ()), Graph(0, ())]
    return graphs


def test_naive_oracle_matches_the_plain_enumerator():
    for g in _reference_graphs():
        assert naive_minimum_palettes(g) == reference_minimum_palettes(g), (g.n, g.edges)


def test_oracles_agree_on_seeded_random_graphs():
    rng = Random(20261018)
    graphs = [g for g in (random_graph(rng, 5, 7) for _ in range(60)) if len(g.edges) <= 11]
    assert len(graphs) >= 50
    for g in graphs:
        cert = palette_index_exact(g)
        assert cert.exact, g.edges
        assert cert.lower == naive_minimum_palettes(g), g.edges


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_oracles_agree_on_random_graphs(data):
    n = data.draw(st.integers(2, 5))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(possible), min_size=1))
    g = Graph.from_edges(n, sorted(chosen))
    cert = palette_index_exact(g)
    assert cert.exact
    assert cert.lower == naive_minimum_palettes(g)
