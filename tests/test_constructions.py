import functools
import itertools
from random import Random

import pytest

from palettebox.coloring import EdgeColoring, check_proper, palette_summary
from palettebox.constructions import (
    PATH_MODE_FAMILY,
    NrgSpec,
    _component_cycle_order,
    _matching_through,
    _cycle_coloring,
    _family_block_coloring,
    class1_product_coloring,
    cubic_matching_reduction,
    cycle_times_regular_coloring,
    make_nrg_spec,
    nrg_product_coloring,
    path_times_class1_regular_coloring,
    path_times_regular_coloring,
)
from palettebox.corpus import random_graph
from palettebox.graphs import (
    Graph,
    Matching,
    ProductIndex,
    cartesian_product,
    complete_graph,
    connected_components,
    cycle_graph,
    enumerate_perfect_matchings,
    find_perfect_matching,
    hypercube_graph,
    path_graph,
    petersen_graph,
    remove_edges,
)
from palettebox.search import BudgetTracker, SearchBudget
from palettebox.solver import chromatic_index
from palettebox.torus import torus_three_palette_coloring


def sets_of(col):
    return palette_summary(col).palette_sets()


def interval(lo, hi):
    return frozenset(range(lo, hi + 1))


# class-1 factor times class-1 factor


def test_class1_product_single_palette():
    g_col = chromatic_index(cycle_graph(4)).witness
    h_col = chromatic_index(hypercube_graph(3)).witness
    col = class1_product_coloring(g_col, h_col)
    assert check_proper(col)[0]
    assert sets_of(col) == {interval(1, 5)}


def test_class1_product_rejects_c_for_class1_second_factor():
    g_col = chromatic_index(cycle_graph(4)).witness
    h_col = chromatic_index(cycle_graph(6)).witness
    with pytest.raises(ValueError):
        class1_product_coloring(g_col, h_col, c=1)


def test_class1_product_with_class2_second_factor():
    # the spare color fills each vertex's gap, so one palette overall
    g_col = chromatic_index(cycle_graph(4)).witness
    h_col = chromatic_index(cycle_graph(5)).witness
    col = class1_product_coloring(g_col, h_col)
    assert check_proper(col)[0]
    assert sets_of(col) == {interval(1, 4)}


def test_class1_product_c_out_of_range():
    g_col = chromatic_index(cycle_graph(4)).witness
    h_col = chromatic_index(cycle_graph(5)).witness
    with pytest.raises(ValueError):
        class1_product_coloring(g_col, h_col, c=3)


def test_class1_product_requires_tight_color_ranges():
    g = cycle_graph(4)
    shifted = EdgeColoring.from_map(
        g, {e: 5 + c for e, c in chromatic_index(g).witness.as_map().items()})
    h_col = chromatic_index(cycle_graph(6)).witness
    with pytest.raises(ValueError):
        class1_product_coloring(shifted, h_col)


def test_class1_product_rejects_class2_g():
    g_col = chromatic_index(cycle_graph(5)).witness
    h_col = chromatic_index(cycle_graph(4)).witness
    with pytest.raises(ValueError, match="class-1 G"):
        class1_product_coloring(g_col, h_col)


@functools.lru_cache(maxsize=None)
def solved(graph):
    return chromatic_index(graph).witness


CLASS1_REGULAR = {"C4": cycle_graph(4), "C6": cycle_graph(6), "Q3": hypercube_graph(3),
                  "Q4": hypercube_graph(4), "K4": complete_graph(4)}
CLASS2_REGULAR = {"C3": cycle_graph(3), "C5": cycle_graph(5), "K5": complete_graph(5),
                  "petersen": petersen_graph()}


@pytest.mark.parametrize("h", CLASS2_REGULAR)
@pytest.mark.parametrize("g", CLASS1_REGULAR)
def test_class1_product_every_c_gives_one_palette(g, h):
    g, h = CLASS1_REGULAR[g], CLASS2_REGULAR[h]
    want = {interval(1, g.max_degree + h.max_degree)}
    for c in range(1, g.max_degree + 1):
        assert sets_of(class1_product_coloring(solved(g), solved(h), c)) == want, c


def spare_colors(h_col):
    limit = h_col.graph.max_degree + 1
    return [min(set(range(1, limit + 1)) - h_col.palette(z)) for z in range(h_col.graph.n)]


def old_class2_rule(g_col, h_col):
    """The class-2 branch as it was: class Delta(G) takes the spare color
    and every other class moves up by Delta(H)+1."""
    dg, dh = g_col.graph.max_degree, h_col.graph.max_degree
    spare = spare_colors(h_col)

    def g_rule(i, b):
        return spare[b] if g_col.colors[i] == dg else g_col.colors[i] + dh + 1
    return g_col.graph, h_col.graph, g_rule, lambda a, j: h_col.colors[j]


def old_nrg_rule(spec, h_col):
    """The nearly-regular rule as it was: base color j moves up by deg(H),
    and class 1 takes the spare color when h is a class-2 coloring."""
    rp = h_col.graph.max_degree
    class_two = len(h_col.used_colors()) == rp + 1
    nrg = spec.graph
    base = [spec.base.as_map()[e] for e in nrg.edges]
    spare = spare_colors(h_col) if class_two else None

    def g_rule(i, b):
        return spare[b] if class_two and base[i] == 1 else base[i] + rp
    return nrg, h_col.graph, g_rule, lambda a, j: h_col.colors[j]


@pytest.mark.parametrize("g, h", [("C4", "C5"), ("Q3", "C5")])
def test_class1_product_default_c_matches_the_old_rule(g, h, rule_coloring):
    g_col, h_col = solved(CLASS1_REGULAR[g]), solved(CLASS2_REGULAR[h])
    want = rule_coloring(*old_class2_rule(g_col, h_col))
    assert class1_product_coloring(g_col, h_col).colors == want.colors


@pytest.mark.parametrize("host", [cycle_graph(3), cycle_graph(4), cycle_graph(5),
                                  path_graph(2), hypercube_graph(3)])
@pytest.mark.parametrize("base, removed", [
    (hypercube_graph(3), [(0, 1)]),
    (hypercube_graph(3), [(0, 1), (2, 3)]),
    (cycle_graph(6), [(0, 1)]),
])
def test_nrg_product_matches_the_old_rule(base, removed, host, rule_coloring):
    spec = make_nrg_spec(base, removed)
    want = rule_coloring(*old_nrg_rule(spec, solved(host)))
    assert nrg_product_coloring(spec, host).colors == want.colors


# removing part of a matching from a class-1 regular factor


def qualifying_q3_spec():
    return make_nrg_spec(hypercube_graph(3), [(0, 1)])


def test_make_nrg_spec_builds_base_coloring():
    spec = qualifying_q3_spec()
    assert spec.degree == 3
    assert (0, 1) in spec.matching.edges
    assert spec.removed == ((0, 1),)
    assert check_proper(spec.base)[0]
    colors = spec.base.as_map()
    assert {colors[e] for e in spec.matching.edges} == {3}


def _even_order_random_graphs(count, seed):
    rng = Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng, 2, 8)
        if g.n % 2 == 0:
            out.append(g)
    return out


@pytest.mark.parametrize("graph", [
    hypercube_graph(3), cycle_graph(6), cycle_graph(8), petersen_graph(), complete_graph(4),
    complete_graph(6), cartesian_product(path_graph(2), cycle_graph(5)),
    cartesian_product(cycle_graph(4), path_graph(3)), *_even_order_random_graphs(12, 19)])
def test_matching_through_is_the_least_perfect_matching_containing_the_forced_edges(graph):
    matchings = list(enumerate_perfect_matchings(graph))
    for size in range(4):
        for forced in itertools.combinations(graph.edges, size):
            expected = next((m for m in matchings if set(forced) <= set(m.edges)), None)
            assert _matching_through(graph, forced) == expected, forced


def test_make_nrg_spec_rejects_class2_base():
    with pytest.raises(ValueError):
        make_nrg_spec(petersen_graph(), [(0, 1)])


def test_make_nrg_spec_rejects_whole_matching():
    q3 = hypercube_graph(3)
    m = Matching.from_edges(q3, [(0, 1), (2, 3), (4, 5), (6, 7)])
    with pytest.raises(ValueError):
        make_nrg_spec(q3, list(m.edges), matching=m)


def test_nrg_spec_validates_base_color_classes():
    q3 = hypercube_graph(3)
    m = Matching.from_edges(q3, [(0, 1), (2, 3), (4, 5), (6, 7)])
    bad = chromatic_index(q3).witness
    if {bad.as_map()[e] for e in m.edges} != {3}:
        with pytest.raises(ValueError):
            NrgSpec(q3, m, ((0, 1),), bad)


@pytest.mark.parametrize("host", [cycle_graph(3), cycle_graph(4), path_graph(2)])
def test_nrg_product_two_palettes(host):
    spec = qualifying_q3_spec()
    col = nrg_product_coloring(spec, host)
    assert check_proper(col)[0]
    r, rp = spec.degree, host.max_degree
    assert sets_of(col) == {interval(1, r + rp), interval(1, r + rp - 1)}


def test_nrg_product_rejects_irregular_host():
    spec = qualifying_q3_spec()
    with pytest.raises(ValueError):
        nrg_product_coloring(spec, path_graph(3))


def test_nrg_product_rejects_host_coloring_clash():
    spec = qualifying_q3_spec()
    host = cycle_graph(4)
    shifted = EdgeColoring.from_map(
        host, {e: c + 4 for e, c in chromatic_index(host).witness.as_map().items()})
    with pytest.raises(ValueError):
        nrg_product_coloring(spec, host, h_col=shifted)


@pytest.mark.parametrize("colors, why", [
    ((1, 1, 2, 2), "not proper"),  # uses [2] but clashes at vertex 0
    ((1, 3, 3, 1), "must use"),  # proper but skips color 2
])
@pytest.mark.parametrize("build", ["class1", "nrg"])
def test_products_reject_the_same_bad_host_colorings(build, colors, why):
    host = cycle_graph(4)
    h_col = EdgeColoring(host, colors)
    with pytest.raises(ValueError, match=why):
        if build == "class1":
            class1_product_coloring(chromatic_index(cycle_graph(6)).witness, h_col)
        else:
            nrg_product_coloring(qualifying_q3_spec(), host, h_col=h_col)


def test_nrg_with_larger_slice_removed():
    q3 = hypercube_graph(3)
    m = Matching.from_edges(q3, [(0, 1), (2, 3), (4, 5), (6, 7)])
    spec = make_nrg_spec(q3, [(0, 1), (2, 3), (4, 5)], matching=m)
    col = nrg_product_coloring(spec, cycle_graph(3))
    assert check_proper(col)[0]
    assert sets_of(col) == {interval(1, 5), interval(1, 4)}


# layered cycle and path constructions over a class-2 regular factor


@pytest.mark.parametrize("s", [3, 5, 7])
@pytest.mark.parametrize("g", [cycle_graph(3), cycle_graph(5)])
def test_cycle_times_regular_pointwise(s, g):
    col = cycle_times_regular_coloring(s, g)
    assert check_proper(col)[0]
    r = g.max_degree
    h_col = chromatic_index(g).witness
    summary = palette_summary(col)
    idx = ProductIndex(s, g.n)
    for v in range(g.n):
        assert summary.palette_of(idx.flat(0, v)) == interval(1, r + 1) | {r + 3}
        for i in range(1, s - 1):
            assert summary.palette_of(idx.flat(i, v)) == interval(1, r + 2)
        assert summary.palette_of(idx.flat(s - 1, v)) == (
            h_col.palette(v) | {r + 2, r + 3})


@pytest.mark.parametrize("s", [3, 5, 7])
@pytest.mark.parametrize("g", [cycle_graph(3), cycle_graph(5)])
def test_path_times_regular_pointwise(s, g):
    col = path_times_regular_coloring(s, g)
    assert check_proper(col)[0]
    r = g.max_degree
    h_col = chromatic_index(g).witness
    summary = palette_summary(col)
    idx = ProductIndex(s, g.n)
    for v in range(g.n):
        assert summary.palette_of(idx.flat(0, v)) == interval(1, r + 1)
        for i in range(1, s - 1):
            assert summary.palette_of(idx.flat(i, v)) == interval(1, r + 2)
        assert summary.palette_of(idx.flat(s - 1, v)) == h_col.palette(v) | {r + 2}


def layered_rung_rule(s, g_col, h_col, wrap):
    """The cycle and path constructions as per-edge rules: layers 0..s-2
    carry g and layer s-1 carries h; the rung from layer i takes v's
    missing g-color for even i and r+2 for odd i, the wraparound rung r+3."""
    r = g_col.graph.max_degree
    layers = cycle_graph(s) if wrap else path_graph(s)
    missing = spare_colors(g_col)

    def rung(i, v):
        lo, hi = layers.edges[i]
        if hi - lo > 1:
            return r + 3
        return missing[v] if lo % 2 == 0 else r + 2

    def layer(i, j):
        return (h_col if i == s - 1 else g_col).colors[j]
    return layers, g_col.graph, rung, layer


@pytest.mark.parametrize("own_h", [False, True])
@pytest.mark.parametrize("s", [3, 5, 7])
@pytest.mark.parametrize("g", [cycle_graph(3), cycle_graph(5), petersen_graph()])
@pytest.mark.parametrize("build, wrap", [(cycle_times_regular_coloring, True),
                                         (path_times_regular_coloring, False)])
def test_layered_constructions_match_the_per_edge_rule(build, wrap, g, s, own_h, rule_coloring):
    g_col = solved(g)
    r = g.max_degree
    # reversing [r+1] keeps h proper and clear of r+2 and r+3
    h_col = EdgeColoring(g, tuple(r + 2 - c for c in g_col.colors)) if own_h else g_col
    col = build(s, g, h_col=h_col if own_h else None)
    assert col == rule_coloring(*layered_rung_rule(s, g_col, h_col, wrap))


def test_layered_constructions_reject_even_first_factor():
    with pytest.raises(ValueError):
        cycle_times_regular_coloring(4, cycle_graph(5))
    with pytest.raises(ValueError):
        path_times_regular_coloring(4, cycle_graph(5))


def test_layered_constructions_redirect_class1_factor():
    with pytest.raises(ValueError, match="class 1"):
        cycle_times_regular_coloring(5, cycle_graph(4))


def test_layered_construction_rejects_reserved_host_colors():
    g = cycle_graph(5)
    h_col = chromatic_index(g).witness
    bumped = EdgeColoring.from_map(
        g, {e: 5 if c == 1 else c for e, c in h_col.as_map().items()})
    with pytest.raises(ValueError):
        cycle_times_regular_coloring(5, g, h_col=bumped)


@pytest.mark.parametrize("g", [cycle_graph(4), cycle_graph(6), path_graph(2),
                               hypercube_graph(3)])
def test_path_times_class1_two_palettes(g):
    col = path_times_class1_regular_coloring(5, g)
    assert check_proper(col)[0]
    assert len(sets_of(col)) == 2


def path_class1_rule(s, g_col, c):
    """Path times class-1 as per-edge rules: rungs alternate 1, 2 along the
    path, layers carry g shifted by 2, and class c is recolored 2 on layer
    0 and 1 on layer s-1."""
    def layer(i, j):
        col = g_col.colors[j] + 2
        if col == c and i in (0, s - 1):
            return 2 if i == 0 else 1
        return col
    return path_graph(s), g_col.graph, lambda i, v: 1 if i % 2 == 0 else 2, layer


@pytest.mark.parametrize("s", [3, 5])
@pytest.mark.parametrize("g", [cycle_graph(4), cycle_graph(6), path_graph(2), hypercube_graph(3)])
def test_path_times_class1_matches_the_per_edge_rule(g, s, rule_coloring):
    g_col, r = solved(g), g.max_degree
    for c in (None, 3, r + 2):
        want = rule_coloring(*path_class1_rule(s, g_col, r + 2 if c is None else c))
        assert path_times_class1_regular_coloring(s, g, c=c) == want, c


def test_path_times_class1_c_choices():
    g = cycle_graph(4)
    for c in (3, 4):
        col = path_times_class1_regular_coloring(3, g, c=c)
        assert check_proper(col)[0]
    with pytest.raises(ValueError):
        path_times_class1_regular_coloring(3, g, c=1)
    with pytest.raises(ValueError):
        path_times_class1_regular_coloring(3, g, c=5)


def test_path_times_class1_redirects_class2_factor():
    with pytest.raises(ValueError):
        path_times_class1_regular_coloring(3, cycle_graph(5))


# cubic factor with a perfect matching pulled out


def test_cubic_reduction_on_petersen_cycle_mode():
    col = cubic_matching_reduction(3, petersen_graph())
    assert check_proper(col)[0]
    assert sets_of(col) == {
        frozenset({1, 2, 3, 4, 7}),
        frozenset({1, 2, 5, 6, 7}),
        frozenset({3, 4, 5, 6, 7}),
    }


def test_cubic_reduction_path_mode():
    col = cubic_matching_reduction(3, petersen_graph(), mode="path")
    assert check_proper(col)[0]
    assert len(sets_of(col)) <= 4
    assert all(6 in p for p in sets_of(col))


def test_cubic_reduction_path_mode_searches_each_block_length_once():
    # Petersen minus its matching is two 5-cycles: one P_3 box C_5 family
    # search serves both, after the 94 nodes of the chromatic-index check
    tracker = BudgetTracker(SearchBudget())
    cubic_matching_reduction(3, petersen_graph(), mode="path", budget=tracker)
    assert tracker.nodes == 173


def cubic_rule(s, g, matching, mode):
    """The cubic reduction as per-edge rules: a rung or fiber edge outside
    the matching reads its color from its component's block, a matching
    fiber takes the fresh color."""
    rest = remove_edges(g, matching.edges)
    layers = cycle_graph(s) if mode == "cycle" else path_graph(s)
    blocks, place = {}, {}
    for comp in connected_components(rest):
        order = _component_cycle_order(rest, comp)
        k = len(order)
        if k not in blocks:
            if mode == "path":
                blocks[k] = _family_block_coloring(s, k), True
            elif k % 2 == 0:
                blocks[k] = class1_product_coloring(_cycle_coloring(k, 2), _cycle_coloring(s, 3)), False
            else:
                blocks[k] = torus_three_palette_coloring(max(s, k), min(s, k)), s >= k
        block, layer_major = blocks[k]
        for j, v in enumerate(order):
            place[v] = (block, k, j) if layer_major else (block, 1, j * s)
    used = set().union(*(b.used_colors() for b, _ in blocks.values()))
    fresh = 7 if mode == "cycle" else min(set(range(1, len(used) + 2)) - used)

    def at(a, v):
        _, stride, offset = place[v]
        return a * stride + offset

    def rung(i, v):
        lo, hi = layers.edges[i]
        return place[v][0].color_of(at(lo, v), at(hi, v))

    def fiber(a, j):
        u, v = g.edges[j]
        if (u, v) in matching.edges:
            return fresh
        return place[u][0].color_of(at(a, u), at(a, v))
    return layers, g, rung, fiber


def bridged_cubes():
    """Two cubes with one edge subdivided each, the new vertices joined by a
    bridge: class-2 cubic, and the matching below leaves cycles 4, 4, 5, 5."""
    def half(off):
        edges = [e for e in hypercube_graph(3).edges if e != (0, 1)] + [(0, 8), (1, 8)]
        return [(u + off, v + off) for u, v in edges]
    g = Graph.from_edges(18, half(0) + half(9) + [(8, 17)], "bridged-cubes")
    matching = Matching.from_edges(g, [(0, 2), (1, 3), (4, 6), (5, 7), (8, 17), (9, 11),
                                       (10, 12), (13, 15), (14, 16)])
    return g, matching


@pytest.mark.parametrize("mode", ["cycle", "path"])
@pytest.mark.parametrize("g, matching, s", [
    (petersen_graph(), None, 3),
    (petersen_graph(), None, 5),
    (*bridged_cubes(), 3),
    (*bridged_cubes(), 5),
    (*bridged_cubes(), 7),
])
def test_cubic_reduction_matches_the_per_edge_rule(g, matching, s, mode, rule_coloring):
    matching = matching or find_perfect_matching(g)
    col = cubic_matching_reduction(s, g, matching=matching, mode=mode)
    assert col == rule_coloring(*cubic_rule(s, g, matching, mode))


def test_cubic_reduction_deterministic():
    a = cubic_matching_reduction(3, petersen_graph())
    b = cubic_matching_reduction(3, petersen_graph())
    assert a.colors == b.colors


def test_cubic_reduction_rejects_class1_cubic():
    with pytest.raises(ValueError, match="class 1"):
        cubic_matching_reduction(3, complete_graph(4))


def test_cubic_reduction_rejects_non_cubic():
    with pytest.raises(ValueError):
        cubic_matching_reduction(3, cycle_graph(5))


def test_cubic_reduction_rejects_even_s():
    with pytest.raises(ValueError):
        cubic_matching_reduction(4, petersen_graph())


def test_cubic_reduction_explicit_matching():
    g = petersen_graph()
    m = Matching.from_edges(g, [(0, 4), (1, 2), (3, 8), (5, 7), (6, 9)])
    col = cubic_matching_reduction(3, g, matching=m)
    assert check_proper(col)[0]
    assert len(sets_of(col)) == 3


def test_path_mode_family_members_are_frozen():
    assert frozenset({1, 2, 3, 4}) in PATH_MODE_FAMILY
    assert len(PATH_MODE_FAMILY) == 4
