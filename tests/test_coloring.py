import pytest
from hypothesis import assume, given, strategies as st

from palettebox import coloring
from palettebox.coloring import (
    EdgeColoring,
    check_proper,
    disjoint_product_coloring,
    palette_summary,
    product_coloring,
)
from palettebox.corpus import random_graph
from palettebox.graphs import (
    ProductIndex,
    canonical_edge,
    cartesian_product,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from palettebox.solver import chromatic_index


def proper_cycle_coloring(n):
    c = cycle_graph(n)
    assert n % 2 == 0
    return EdgeColoring.from_map(
        c, {e: 1 if e[1] - e[0] == 1 and e[0] % 2 == 0 else 2 for e in c.edges})


def test_from_map_requires_exact_domain():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        EdgeColoring.from_map(p3, {(0, 1): 1})
    with pytest.raises(ValueError):
        EdgeColoring.from_map(p3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
    with pytest.raises(ValueError):
        EdgeColoring.from_map(p3, {(0, 1): 0, (1, 2): 2})


@pytest.mark.parametrize("colors, message", [
    ((1,), "need exactly one color per edge"),
    ((1, 2, 3), "need exactly one color per edge"),
    ((1, 0), "colors must be positive integers, got 0"),
    ((-2, 1), "colors must be positive integers, got -2"),
    ((1, 1.5), "colors must be positive integers, got 1.5"),
    ((2, 2.0), "colors must be positive integers, got 2.0"),
    ((1, "2"), "colors must be positive integers, got '2'"),
    ((1, [2]), "colors must be positive integers, got [2]"),
], ids=["short", "long", "zero", "negative", "float", "float equal to an int",
        "str", "unhashable"])
def test_edge_coloring_rejects_malformed_colors(colors, message):
    with pytest.raises(ValueError) as info:
        EdgeColoring(path_graph(3), colors)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_color_lookup_and_used_colors():
    p3 = path_graph(3)
    col = EdgeColoring.from_map(p3, {(0, 1): 5, (1, 2): 2})
    assert col.color_of(1, 0) == 5
    assert col.used_colors() == frozenset({2, 5})
    assert col.max_color == 5
    assert col.palette(1) == frozenset({2, 5})
    with pytest.raises(KeyError):
        col.color_of(0, 2)


def test_check_proper_reports_first_clash():
    p3 = path_graph(3)
    bad = EdgeColoring.from_map(p3, {(0, 1): 1, (1, 2): 1})
    ok, witness = check_proper(bad)
    assert not ok
    v, e1, e2 = witness
    assert v == 1 and {e1, e2} == {(0, 1), (1, 2)}
    good = EdgeColoring.from_map(p3, {(0, 1): 1, (1, 2): 2})
    assert check_proper(good) == (True, None)


def test_palette_summary_counts():
    col = proper_cycle_coloring(6)
    summary = palette_summary(col)
    assert summary.count == 1
    assert summary.palette_of(0) == frozenset({1, 2})
    assert summary.palette_sets() == {frozenset({1, 2})}


def test_palette_summary_rejects_improper():
    p3 = path_graph(3)
    bad = EdgeColoring.from_map(p3, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError, match="improper"):
        palette_summary(bad)


def test_check_proper_and_palette_summary_share_one_mask_build(monkeypatch):
    builds = []
    real = coloring._palette_masks
    monkeypatch.setattr(coloring, "_palette_masks", lambda col: builds.append(col) or real(col))
    col = proper_cycle_coloring(6)
    assert check_proper(col) == (True, None)
    assert palette_summary(col).count == 1
    assert builds == [col]
    # shared between checks, so no caller may change them
    assert col._masks == (6,) * 6 and isinstance(col._masks, tuple)


@given(st.integers(3, 8))
def test_palette_size_equals_degree(n):
    g = cycle_graph(n) if n % 2 else path_graph(n)
    col = chromatic_index(g).witness
    summary = palette_summary(col)
    for v in range(g.n):
        assert len(summary.palette_of(v)) == g.degrees[v]


def test_disjoint_product_offsets_second_factor():
    g_col = chromatic_index(path_graph(3)).witness
    h_col = chromatic_index(cycle_graph(4)).witness
    prod = disjoint_product_coloring(g_col, h_col)
    assert check_proper(prod)[0]
    assert prod.used_colors() == frozenset(
        g_col.used_colors() | {c + g_col.max_color for c in h_col.used_colors()})


@given(st.integers(2, 5), st.integers(3, 5))
def test_disjoint_product_palette_bound(n, m):
    g_col = chromatic_index(path_graph(n)).witness
    h_col = chromatic_index(cycle_graph(m)).witness
    prod = disjoint_product_coloring(g_col, h_col)
    bound = palette_summary(g_col).count * palette_summary(h_col).count
    assert palette_summary(prod).count <= bound


@pytest.mark.parametrize("g, h", [(path_graph(3), cycle_graph(4)), (cycle_graph(5), path_graph(2)),
                                  (petersen_graph(), cycle_graph(3)), (path_graph(1), cycle_graph(5))])
def test_disjoint_product_matches_the_per_edge_rule(g, h, rule_coloring):
    g_col, h_col = chromatic_index(g).witness, chromatic_index(h).witness
    offset = g_col.max_color
    want = rule_coloring(g, h, lambda i, b: g_col.colors[i], lambda a, j: h_col.colors[j] + offset)
    assert disjoint_product_coloring(g_col, h_col) == want


def test_disjoint_product_on_petersen():
    g_col = chromatic_index(petersen_graph()).witness
    h_col = chromatic_index(path_graph(2)).witness
    prod = disjoint_product_coloring(g_col, h_col)
    assert check_proper(prod)[0]


def brute_first_clash(col):
    """First (vertex, edge, edge) clash, scanning each vertex's edges in edge order."""
    g = col.graph
    for v in range(g.n):
        incident = [(e, c) for e, c in zip(g.edges, col.colors) if v in e]
        for k, (e2, c2) in enumerate(incident):
            for e1, c1 in incident[:k]:
                if c1 == c2:
                    return v, e1, e2
    return None


@st.composite
def improper_colorings(draw):
    g = draw(st.randoms(use_true_random=False).map(lambda rng: random_graph(rng, 3, 7)))
    busy = [v for v in range(g.n) if g.degree(v) >= 2]
    assume(busy)
    colors = draw(st.lists(st.integers(1, 4), min_size=len(g.edges), max_size=len(g.edges)))
    v = draw(st.sampled_from(busy))
    e1, e2 = draw(st.lists(st.sampled_from(g.incident_edges(v)), min_size=2, max_size=2,
                           unique=True))
    colors[g.edge_index[e2]] = colors[g.edge_index[e1]]
    return EdgeColoring(g, tuple(colors))


@given(improper_colorings())
def test_check_proper_finds_first_clash_of_brute_force_scan(col):
    witness = brute_first_clash(col)
    assert witness is not None
    assert check_proper(col) == (False, witness)


@st.composite
def proper_colorings(draw):
    g = draw(st.randoms(use_true_random=False).map(lambda rng: random_graph(rng, 2, 7)))
    at = [set() for _ in range(g.n)]
    colors = []
    for u, v in g.edges:
        free = [c for c in range(1, 2 * g.max_degree + 1) if c not in at[u] | at[v]]
        c = draw(st.sampled_from(free))
        at[u].add(c)
        at[v].add(c)
        colors.append(c)
    return EdgeColoring(g, tuple(colors))


@given(proper_colorings())
def test_palette_summary_matches_per_vertex_definition(col):
    g = col.graph
    palettes = [frozenset(c for e, c in zip(g.edges, col.colors) if v in e) for v in range(g.n)]
    summary = palette_summary(col)
    assert check_proper(col) == (True, None)
    assert summary.distinct == tuple(sorted({tuple(sorted(p)) for p in palettes}))
    assert [summary.palette_of(v) for v in range(g.n)] == palettes


factors = st.one_of(st.just(path_graph(1)),
                    st.randoms(use_true_random=False).map(lambda rng: random_graph(rng, 1, 5)))


@given(factors, factors, st.data())
def test_product_coloring_matches_fiberwise_map(g, h, data):
    table = st.integers(1, 6)
    g_cols = data.draw(st.lists(st.lists(table, min_size=h.n, max_size=h.n),
                                min_size=len(g.edges), max_size=len(g.edges)))
    h_rows = data.draw(st.lists(st.lists(table, min_size=len(h.edges), max_size=len(h.edges)),
                                min_size=g.n, max_size=g.n))
    idx = ProductIndex(g.n, h.n)
    mapping = {}
    for i, (u, v) in enumerate(g.edges):
        for b in range(h.n):
            mapping[canonical_edge(idx.flat(u, b), idx.flat(v, b))] = g_cols[i][b]
    for j, (x, y) in enumerate(h.edges):
        for a in range(g.n):
            mapping[canonical_edge(idx.flat(a, x), idx.flat(a, y))] = h_rows[a][j]
    col = product_coloring(g, h, g_cols, h_rows)
    assert col == EdgeColoring.from_map(cartesian_product(g, h), mapping)
    assert col.graph.provenance == cartesian_product(g, h).provenance
