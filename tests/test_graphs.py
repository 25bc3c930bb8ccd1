import gc
import itertools
import operator

import pytest
from hypothesis import example, given, strategies as st

from palettebox import graphs
from palettebox.graphs import (
    Graph,
    Matching,
    ProductIndex,
    all_pairs_distances,
    canonical_edge,
    cartesian_product,
    complete_graph,
    connected_components,
    cycle_graph,
    enumerate_perfect_matchings,
    find_perfect_matching,
    hypercube_graph,
    is_bipartite,
    is_connected,
    path_graph,
    petersen_graph,
    remove_edges,
)
from palettebox.torus import torus_three_palette_coloring


def test_canonical_edge_orders_and_rejects_loops():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        canonical_edge(2, 2)


def test_graph_validation():
    assert Graph.from_edges(3, [(2, 0), (1, 0)]).edges == ((0, 1), (0, 2))


def _unpack_message(edge):
    """The interpreter's own message for unpacking an edge of the wrong length."""
    try:
        u, v = edge
    except ValueError as error:
        return str(error)
    raise AssertionError(f"{edge} unpacks to two endpoints")


@pytest.mark.parametrize("n, edges, message", [
    (-1, (), "vertex count must be nonnegative"),
    (2, ((0, 2),), "edge (0, 2) is not canonical or out of range"),
    (3, ((-1, 1),), "edge (-1, 1) is not canonical or out of range"),
    (3, ((1, 0),), "edge (1, 0) is not canonical or out of range"),
    (3, ((1, 1),), "edge (1, 1) is not canonical or out of range"),
    (3, ((0, 1), (0, 1)), "duplicate edge (0, 1)"),
    (4, ((0, 1), (1, 2), (1, 2), (2, 3)), "duplicate edge (1, 2)"),
    (3, ((0, 2), (0, 1)), "edges must be sorted lexicographically"),
    (4, ((0, 1), (2, 3), (1, 2)), "edges must be sorted lexicographically"),
    (3, ((-1, 2),), "edge (-1, 2) is not canonical or out of range"),
    # range errors come before order errors, wherever they stand
    (3, ((0, 1), (0, 1), (1, 5)), "edge (1, 5) is not canonical or out of range"),
    (3, ((0, 1, 2),), _unpack_message((0, 1, 2))),
], ids=["negative n", "out of range", "negative endpoint", "not canonical", "loop",
        "duplicate", "inner duplicate", "unsorted", "unsorted tail", "negative first edge",
        "range error after a duplicate", "three-item edge"])
def test_graph_rejects_malformed_input(n, edges, message):
    with pytest.raises(ValueError) as info:
        Graph(n, edges)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_a_well_formed_graph_is_checked_in_one_pass(monkeypatch):
    def rescan(n, edges):
        raise AssertionError(f"rescanned the well-formed edges {edges}")

    monkeypatch.setattr(graphs, "_check_edges_in_two_passes", rescan)
    for g in (Graph(0, ()), Graph(3, ((0, 2),)), path_graph(4), complete_graph(5),
              cartesian_product(cycle_graph(5), path_graph(3))):
        Graph(g.n, g.edges)


def _two_pass_check(n, edges):
    """The reference edge check: every edge in range, then strictly increasing."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    for e in edges:
        u, v = e
        if not (0 <= u < v < n):
            raise ValueError(f"edge {e} is not canonical or out of range")
    if not all(map(operator.lt, edges, edges[1:])):
        prev, e = next(pair for pair in zip(edges, edges[1:]) if not pair[0] < pair[1])
        if e == prev:
            raise ValueError(f"duplicate edge {e}")
        raise ValueError("edges must be sorted lexicographically")


_endpoints = st.integers(-1, 6)
_pairs = st.tuples(_endpoints, _endpoints)
_edges = st.one_of(_pairs, st.tuples(_endpoints), st.tuples(_endpoints, _endpoints, _endpoints))


@given(st.integers(-1, 6),
       st.one_of(st.lists(_edges, max_size=6), st.lists(_pairs, max_size=8).map(sorted),
                 st.sets(_pairs.filter(lambda e: e[0] < e[1]), max_size=8).map(sorted)))
@example(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
@example(3, [(0, 1), (0, 1), (1, 5)])
@example(3, [(0, 2), (0, 1), (1, 2, 0)])
def test_graph_accepts_exactly_what_the_two_pass_check_accepts(n, edges):
    for container in (tuple, list):
        edges = container(edges)
        try:
            _two_pass_check(n, edges)
        except ValueError as error:
            with pytest.raises(ValueError) as info:
                Graph(n, edges)
            assert str(info.value) == str(error)
        else:
            assert Graph(n, edges).edges == edges


def test_provenance_never_affects_equality():
    a = Graph.from_edges(3, [(0, 1)], "one")
    b = Graph.from_edges(3, [(0, 1)], "two")
    assert a == b


def test_path_and_cycle_shapes():
    p3 = path_graph(3)
    assert p3.n == 3 and p3.edges == ((0, 1), (1, 2))
    c5 = cycle_graph(5)
    assert c5.n == 5 and len(c5.edges) == 5
    assert all(d == 2 for d in c5.degrees)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)


def test_hypercube_shape():
    q3 = hypercube_graph(3)
    assert q3.n == 8
    assert len(q3.edges) == 12
    assert q3.is_regular and q3.max_degree == 3
    assert is_bipartite(q3)


def test_petersen_shape_and_girth():
    g = petersen_graph()
    assert g.n == 10 and len(g.edges) == 15
    assert set(g.degrees) == {3} and g.is_regular and g.max_degree == 3
    # girth 5: no 3- or 4-cycles through any vertex pair
    dist = all_pairs_distances(g)
    girth = min(
        dist[u][v] + dist[v][w] + dist[w][u]
        for u, v, w in itertools.combinations(range(10), 3)
        if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(w, u)
    ) if any(
        g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(w, u)
        for u, v, w in itertools.combinations(range(10), 3)
    ) else None
    assert girth is None  # triangle-free
    squares = [
        (u, v) for u, v in itertools.combinations(range(10), 2)
        if not g.has_edge(u, v) and len(set(g.adjacency[u]) & set(g.adjacency[v])) >= 2
    ]
    assert not squares  # no 4-cycles either
    assert any(  # but 5-cycles exist
        dist[u][v] == 2 and g.has_edge(u, w) and g.has_edge(w, v)
        for u in range(10) for v in range(10) for w in g.adjacency[u]
    )


def test_product_index_roundtrip():
    idx = ProductIndex(4, 7)
    for a in range(4):
        for b in range(7):
            assert idx.coords(idx.flat(a, b)) == (a, b)
    with pytest.raises(ValueError):
        idx.flat(4, 0)
    with pytest.raises(ValueError):
        idx.coords(28)


@given(st.integers(2, 6), st.integers(3, 6))
def test_product_size_formulas(n, m):
    g, h = path_graph(n), cycle_graph(m)
    prod = cartesian_product(g, h)
    assert prod.n == g.n * h.n
    assert len(prod.edges) == len(g.edges) * h.n + len(h.edges) * g.n


def test_product_holds_one_int_object_per_vertex():
    # past 256, every arithmetic result is a new int object
    g = cartesian_product(cycle_graph(301), cycle_graph(3))
    assert len({id(x) for e in g.edges for x in e}) == g.n


class _CollectorProbe:
    """A table row that notes whether the collector runs each time the build reads it."""

    def __init__(self, fail=False):
        self.seen = []
        self.fail = fail

    def __getitem__(self, j):
        if self.fail:
            raise KeyError("inside the build")
        self.seen.append(gc.isenabled())
        return 0


def _probed_product(probe):
    """C_5 box P_3 through ``map_product_edges``, every P_3 fiber reading its values from ``probe``."""
    g, h = cycle_graph(5), path_graph(3)
    return graphs.map_product_edges(g, h, [[0] * h.n] * len(g.edges), [probe] * g.n)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_pause_restores_the_state_it_found(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        probe = _CollectorProbe()
        prod, _ = _probed_product(probe)
        assert prod == cartesian_product(cycle_graph(5), path_graph(3))
        assert probe.seen and not any(probe.seen)
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            _probed_product(_CollectorProbe(fail=True))
        assert gc.isenabled() is enabled
        cartesian_product(cycle_graph(5), path_graph(3))
        assert gc.isenabled() is enabled
        torus_three_palette_coloring(7, 7)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@st.composite
def small_graphs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, edges, f"random({n})")


@given(small_graphs(), small_graphs())
@example(path_graph(1), cycle_graph(3))
@example(cycle_graph(4), path_graph(1))
@example(path_graph(1), path_graph(1))
@example(Graph(0, ()), cycle_graph(3))
@example(cycle_graph(3), Graph(0, ()))
@example(Graph(0, ()), Graph(0, ()))
@example(Graph(3, ()), path_graph(2))
@example(path_graph(2), Graph(2, ()))
def test_product_matches_definition(g, h):
    idx = ProductIndex(g.n, h.n)
    vertices = [(a, x) for a in range(g.n) for x in range(h.n)]
    defined = [(idx.flat(a, x), idx.flat(b, y))
               for a, x in vertices for b, y in vertices
               if (a == b and x != y and h.has_edge(x, y))
               or (x == y and a != b and g.has_edge(a, b))]
    prod = cartesian_product(g, h)
    assert prod == Graph.from_edges(g.n * h.n, defined)
    assert prod.provenance == f"product({g.tag},{h.tag})"


@given(small_graphs(max_n=7))
@example(Graph(0, ()))
def test_degrees_match_the_edge_list(g):
    want = [sum(v in e for e in g.edges) for v in range(g.n)]
    assert list(g.degrees) == want
    assert g.degrees == tuple(len(a) for a in g.adjacency)
    assert g.max_degree == max(want, default=0)
    assert g.is_regular == (len(set(want)) <= 1)


def test_product_commutes_up_to_pair_swap():
    g, h = path_graph(3), cycle_graph(4)
    gh, hg = cartesian_product(g, h), cartesian_product(h, g)
    fwd = ProductIndex(g.n, h.n)
    rev = ProductIndex(h.n, g.n)
    mapped = {
        canonical_edge(rev.flat(b1, a1), rev.flat(b2, a2))
        for (u, v) in gh.edges
        for (a1, b1), (a2, b2) in [(fwd.coords(u), fwd.coords(v))]
    }
    assert mapped == set(hg.edges)


def test_remove_edges_keeps_vertices():
    c4 = cycle_graph(4)
    sub = remove_edges(c4, [(0, 1)])
    assert sub.n == 4
    assert len(sub.edges) == 3
    with pytest.raises(ValueError):
        remove_edges(c4, [(0, 2)])


def test_matching_validation():
    c4 = cycle_graph(4)
    m = Matching.from_edges(c4, [(0, 1), (2, 3)])
    assert m.is_perfect
    assert m.covered() == frozenset(range(4))
    with pytest.raises(ValueError):
        Matching.from_edges(c4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Matching.from_edges(c4, [(0, 2)])


def test_find_perfect_matching_lexicographic():
    c6 = cycle_graph(6)
    m = find_perfect_matching(c6)
    assert m.edges == ((0, 1), (2, 3), (4, 5))
    assert find_perfect_matching(cycle_graph(5)) is None
    assert find_perfect_matching(petersen_graph()) is not None


def test_find_perfect_matching_agrees_with_enumeration():
    for g in (path_graph(4), cycle_graph(6), hypercube_graph(3),
              complete_graph(4), petersen_graph(), path_graph(5)):
        found = find_perfect_matching(g)
        all_pms = list(enumerate_perfect_matchings(g))
        if found is None:
            assert not all_pms
        else:
            assert all_pms and all_pms[0].edges == found.edges
            assert sorted(pm.edges for pm in all_pms) == [pm.edges for pm in all_pms]


def test_hypercube_has_r_factorization_structure():
    q4 = hypercube_graph(4)
    m = find_perfect_matching(q4)
    assert m is not None and m.is_perfect


def test_traversal_helpers():
    c4 = cycle_graph(4)
    assert is_connected(c4)
    assert connected_components(remove_edges(c4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == [
        [0], [1], [2], [3]]
    assert is_bipartite(c4)
    assert not is_bipartite(cycle_graph(5))
    assert is_connected(Graph(0, ()))
