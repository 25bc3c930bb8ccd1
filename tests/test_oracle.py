from collections import Counter
from hashlib import sha256
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
    _has_parity_kind,
    _parity_families,
    _parity_kinds,
    coloring_within_family,
    lower_bound,
    naive_minimum_palettes,
    palette_index_exact,
)
from palettebox.search import (
    EXHAUSTED,
    FOUND,
    BudgetTracker,
    Search,
    SearchBudget,
    edge_order,
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
    SearchBudget(max_nodes=1_200),
    SearchBudget(max_seconds=0.0),
])
def test_interrupted_oracle_keeps_an_upper_bound(budget):
    # P5 x C3 has palette index 4 and is not regular, so no chromatic-index
    # witness exists to fall back on; the Misra-Gries coloring bounds it.
    # 1,200 nodes stop it at p = 4, after the families refuted p = 3; it
    # needs 1,298.
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
    # both have palette index 4; p = 2 has no parity-feasible kind, the one
    # parity family of p = 3 is exhausted, and the count search finds p = 4
    (path_graph(3), cycle_graph(5), (4, 4), "parity-families", 2_012),
    (path_graph(5), cycle_graph(3), (4, 4), "parity-families", 1_298),
    # p = 3 has no parity-feasible kind, and the 11 families of p = 4 are
    # exhausted
    (path_graph(5), path_graph(5), (5, 5), "parity-families", 16_323),
    # class 2, so p = 3 is the first target, and the count search finds it
    (cycle_graph(5), cycle_graph(5), (3, 3), "regular-class2", 3_768),
], ids=["P3xC5", "P5xC3", "P5xP5", "C5xC5"])
def test_path_cycle_node_counts_are_pinned(g, h, interval, rule, nodes):
    cert = palette_index_exact(cartesian_product(g, h))
    assert cert.interval == interval and cert.rule == rule
    assert cert.nodes == nodes


@pytest.mark.parametrize("g, h, interval, rule, nodes, digest", [
    (cycle_graph(5), cycle_graph(7), (3, 3), "regular-class2", 11_834,
     "8bb31872ffeb1564671471536217d00af33d751c5868f783bf126ab08f36f5e6"),
    (path_graph(3), cycle_graph(7), (4, 4), "parity-families", 5_604,
     "a192ee8e466c7995fb8a91a5526db4c76298f241a3f163c8433113fa81b2d58c"),
    (path_graph(3), complete_graph(5), (4, 4), "parity-families", 205_933,
     "5c7a0baee4c6041c9841167ed8ab947b4a463a499fabf9f0642d1fdd86674af9"),
], ids=["C5xC7", "P3xC7", "P3xK5"])
def test_certificates_and_witnesses_are_pinned(g, h, interval, rule, nodes, digest):
    # the stop, interval, node count and sha256 of the witness colors: a
    # change here means the search visited other nodes or found another witness
    cert = palette_index_exact(cartesian_product(g, h))
    assert (cert.stop, cert.interval, cert.rule, cert.nodes) == ("exact", interval, rule, nodes)
    assert sha256(bytes(cert.witness.colors)).hexdigest() == digest


def test_corpus_certificates_are_pinned():
    # the node sum and one sha256 over every certificate's interval, rule,
    # stop, node count and witness colors, over small_corpus(12) and 100
    # seeded random graphs: a change here means some search visited other
    # nodes or found another witness
    rng = Random(1)
    graphs = [*small_corpus(12), *(random_graph(rng, 2, 8) for _ in range(100))]
    digest, nodes = sha256(), 0
    for g in graphs:
        cert = palette_index_exact(g)
        nodes += cert.nodes
        digest.update(repr((cert.interval, cert.rule, cert.stop, cert.nodes,
                            cert.witness.colors)).encode())
    assert nodes == 71_357
    assert digest.hexdigest() == "8146b4398792b3e4534359c479c831d2d0c37f6ed1e16f8ffd069e31f5d2e92c"


@pytest.mark.parametrize("graph, interval, orders", [
    # P5 x P5 settles three targets: p = 3 by parity, p = 4 by exhausting
    # its families and p = 5 by a coloring
    (cartesian_product(path_graph(5), path_graph(5)), (5, 5), 1),
    # p = 2 is refuted by parity before any search, so p = 3 makes the order
    (cartesian_product(path_graph(3), cycle_graph(5)), (4, 4), 1),
    # Petersen's chromatic index exhausts Delta = 3 colors, then colors with 4
    (petersen_graph(), (3, 3), 1),
    # C5 x C5 is class 2 by parity; its 5-palette witness leaves target 3 to search
    (cartesian_product(cycle_graph(5), cycle_graph(5)), (3, 3), 1),
    # class 2 by parity, and every search would need more than 62 colors
    (complete_graph(63), (3, 63), 0),
], ids=["p5p5", "p3c5", "petersen", "c5c5", "k63"])
def test_every_target_shares_one_edge_order(monkeypatch, graph, interval, orders):
    # the chromatic-index searches, and the count and family searches of
    # every target, share the certificate's one edge order, made only
    # once a search runs
    calls = []
    order = search.edge_order

    def counted(graph):
        calls.append(graph)
        return order(graph)
    monkeypatch.setattr(search, "edge_order", counted)
    cert = palette_index_exact(graph)
    assert cert.interval == interval
    assert len(calls) == orders


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


@pytest.mark.parametrize("path, cycle, nodes", [(3, 5, 1_419), (5, 3, 1_099)],
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
    status, col = Search(g, edge_order(g), 20, 5).run()
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
        order = edge_order(g)
        for p in range(1, index + 1):
            k = min(p * g.max_degree, len(g.edges))
            families = all(Search(g, order, family=family).run()[0] == EXHAUSTED
                           for family in _parity_families(g, p, k))
            count = Search(g, order, k, p).run()[0] == EXHAUSTED
            assert families == count, (g.n, g.edges, p)


def test_parity_rules_name_the_refutation(monkeypatch):
    # P5 x P5 has degrees 2, 3 and 4 on 4, 12 and 9 vertices.  At p = 3 its
    # one degree-4 palette is odd and alone, so no kind passes the parity
    # test and p = 3 is refuted before any search is built.
    grid = cartesian_product(path_graph(5), path_graph(5))
    assert not _has_parity_kind(grid, 3)
    assert next(_parity_families(grid, 3, 12), None) is None
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return Search(*args, **kwargs)
    monkeypatch.setattr(search, "Search", counted)
    cert = palette_index_exact(grid, max_palettes=3)
    assert (cert.interval, cert.rule, cert.nodes) == ((4, 6), "parity", 0)
    assert built == []
    monkeypatch.undo()
    # p = 4 is refuted by exhausting its 11 families
    assert sum(1 for _ in _parity_families(grid, 4, 16)) == 11
    cert = palette_index_exact(grid)
    assert (cert.interval, cert.rule) == ((5, 5), "parity-families")


def _kind(coloring):
    """Each nonempty palette's degree and whether an odd number of vertices carry it."""
    summary = palette_summary(coloring)
    carriers = Counter(summary.per_vertex)
    return sorted((len(pal), carriers[i] % 2 == 1) for i, pal in enumerate(summary.distinct) if pal)


def test_parity_kind_test_is_sound():
    # P3 x C5 at p = 2 has one odd palette, of degree 4; C3 x C5 at p = 3
    # has three odd palettes of degree 4
    assert not _has_parity_kind(cartesian_product(path_graph(3), cycle_graph(5)), 2)
    assert _has_parity_kind(cartesian_product(cycle_graph(3), cycle_graph(5)), 3)
    graphs = list(small_corpus(12))
    for seed in (1, 2):
        rng = Random(seed)
        graphs += [random_graph(rng, 2, 8) for _ in range(150)]
    # stars, a spider with six legs of two edges and three triangles at one
    # vertex: an odd palette of high degree that no single pair of odd
    # palettes balances (in stars from four leaves on), so the quick test
    # enumerates their kinds
    graphs += [Graph.from_edges(t + 1, [(0, i) for i in range(1, t + 1)]) for t in range(2, 9)]
    graphs.append(Graph.from_edges(13, [e for i in range(1, 7) for e in ((0, i), (i, 6 + i))]))
    graphs.append(Graph.from_edges(7, [e for i in (1, 3, 5) for e in ((0, i), (0, i + 1), (i, i + 1))]))
    for g in graphs:
        cert = palette_index_exact(g)
        assert cert.exact
        # the witness's own kind is one that passes
        assert _kind(cert.witness) in [sorted(kind) for kind in _parity_kinds(g, cert.upper)]
        # the quick test says whether any kind passes
        for p in range(1, g.n + 1):
            assert _has_parity_kind(g, p) == (next(_parity_kinds(g, p), None) is not None)
        # and what it refutes has no coloring, by the enumerator that
        # shares nothing with the oracle
        refuted = [p for p in range(1, cert.upper) if not _has_parity_kind(g, p)]
        if refuted and len(g.edges) <= 12:
            assert naive_minimum_palettes(g) > max(refuted), g.edges


def test_certificate_says_why_it_stopped():
    k232 = Graph.from_edges(34, [(u, v) for u in range(2) for v in range(2, 34)])
    grid = cartesian_product(path_graph(3), path_graph(3))
    assert palette_index_exact(cycle_graph(5)).stop == "exact"
    assert palette_index_exact(grid, budget=SearchBudget(max_nodes=3)).stop == "budget"
    assert palette_index_exact(path_graph(5), max_palettes=1).stop == "max-palettes"
    # at p = 2 the search would need min(2 * 32, 64) = 64 colors
    assert palette_index_exact(k232).stop == "color-width"


def test_regular_graphs_past_the_color_limit():
    k63 = palette_index_exact(complete_graph(63))
    assert (k63.interval, k63.rule, k63.stop) == ((3, 63), "regular-class2", "color-width")
    assert lower_bound(complete_graph(63)) == (3, "regular-class2")
    k64 = palette_index_exact(complete_graph(64))
    assert (k64.interval, k64.rule, k64.stop, k64.nodes) == ((1, 1), "degree-set", "exact", 0)
    assert k64.witness.used_colors() == frozenset(range(1, 64))
    assert check_proper(k64.witness)[0]


def test_coloring_within_family():
    g = cycle_graph(4)
    status, col = coloring_within_family(g, [frozenset({1, 2})])
    assert status == FOUND
    assert palette_summary(col).palette_sets() == {frozenset({1, 2})}
    c5 = cycle_graph(5)
    status, col = coloring_within_family(c5, [{1, 2}])
    assert status == EXHAUSTED and col is None  # an odd cycle has no 2-coloring


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
