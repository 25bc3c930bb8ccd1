import functools

import pytest

from palettebox.coloring import EdgeColoring, check_proper, palette_summary, product_coloring
from palettebox.constructions import (
    PATH_MODE_FAMILY,
    NrgSpec,
    class1_product_coloring,
    cubic_matching_reduction,
    cycle_times_regular_coloring,
    make_nrg_spec,
    nrg_product_coloring,
    path_times_class1_regular_coloring,
    path_times_regular_coloring,
)
from palettebox.graphs import (
    Matching,
    ProductIndex,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    remove_edges,
)
from palettebox.search import BudgetTracker, SearchBudget
from palettebox.solver import chromatic_index


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
    return product_coloring(g_col.graph, h_col.graph, g_rule, lambda a, j: h_col.colors[j])


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
    return product_coloring(nrg, h_col.graph, g_rule, lambda a, j: h_col.colors[j])


@pytest.mark.parametrize("g, h", [("C4", "C5"), ("Q3", "C5")])
def test_class1_product_default_c_matches_the_old_rule(g, h):
    g_col, h_col = solved(CLASS1_REGULAR[g]), solved(CLASS2_REGULAR[h])
    assert class1_product_coloring(g_col, h_col).colors == old_class2_rule(g_col, h_col).colors


@pytest.mark.parametrize("host", [cycle_graph(3), cycle_graph(4), cycle_graph(5),
                                  path_graph(2), hypercube_graph(3)])
@pytest.mark.parametrize("base, removed", [
    (hypercube_graph(3), [(0, 1)]),
    (hypercube_graph(3), [(0, 1), (2, 3)]),
    (cycle_graph(6), [(0, 1)]),
])
def test_nrg_product_matches_the_old_rule(base, removed, host):
    spec = make_nrg_spec(base, removed)
    assert nrg_product_coloring(spec, host).colors == old_nrg_rule(spec, solved(host)).colors


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
