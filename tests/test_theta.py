import itertools
from random import Random

import pytest

from palettebox.coloring import check_proper, palette_summary
from palettebox.corpus import random_graph
from palettebox.graphs import (
    Graph,
    all_pairs_distances,
    cartesian_product,
    complete_graph,
    connected_components,
    cycle_graph,
    hypercube_graph,
    is_bipartite,
    is_connected,
    path_graph,
    petersen_graph,
)
from palettebox.theta import ThetaClasses, is_partial_cube, theta_classes, theta_removal_coloring


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_hypercube_classes_are_dimension_matchings(r):
    q = hypercube_graph(r)
    tc = theta_classes(q)
    assert tc.count == r
    assert tc.raw_is_transitive
    assert tc.every_vertex_in_every_class
    for m in tc.matchings():
        assert m.is_perfect
    # class i pairs vertices differing in bit i
    for i, cls in enumerate(tc.classes):
        assert all(u ^ v == 1 << i for u, v in cls)


def test_even_cycle_classes_pair_antipodal_edges():
    tc = theta_classes(cycle_graph(6))
    assert tc.count == 3
    assert is_partial_cube(tc)
    assert not tc.every_vertex_in_every_class
    assert all(len(cls) == 2 for cls in tc.classes)


def test_odd_cycle_collapses_to_one_class():
    tc = theta_classes(cycle_graph(5))
    assert tc.count == 1
    assert not tc.raw_is_transitive
    assert not is_partial_cube(tc)


def test_path_every_edge_its_own_class():
    tc = theta_classes(path_graph(4))
    assert tc.count == 3
    assert is_partial_cube(tc)
    assert all(len(cls) == 1 for cls in tc.classes)


def test_nonbipartite_graphs_are_not_partial_cubes():
    for g in (complete_graph(4), petersen_graph()):
        tc = theta_classes(g)
        assert not is_partial_cube(tc)


def test_class_lookup():
    tc = theta_classes(hypercube_graph(3))
    assert tc.class_of(0, 1) == 0
    assert tc.class_of(1, 0) == 0
    assert tc.class_of(0, 4) == 2
    with pytest.raises(KeyError):
        tc.class_of(0, 7)


def test_theta_classes_require_connected_input():
    with pytest.raises(ValueError):
        theta_classes(Graph.from_edges(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("host", [cycle_graph(3), cycle_graph(4)])
def test_removal_coloring_two_palettes(host):
    q3 = hypercube_graph(3)
    tc = theta_classes(q3)
    for class_index in range(3):
        removed = [tc.classes[class_index][0]]
        col = theta_removal_coloring(q3, class_index, removed, host)
        assert check_proper(col)[0]
        r, rp = 3, host.max_degree
        assert palette_summary(col).palette_sets() == {
            frozenset(range(1, r + rp + 1)),
            frozenset(range(1, r + rp)),
        }


def test_removal_coloring_rejects_whole_class():
    q3 = hypercube_graph(3)
    tc = theta_classes(q3)
    with pytest.raises(ValueError):
        theta_removal_coloring(q3, 0, list(tc.classes[0]), cycle_graph(3))


def test_removal_coloring_rejects_foreign_edges():
    q3 = hypercube_graph(3)
    with pytest.raises(ValueError):
        theta_removal_coloring(q3, 0, [(0, 2)], cycle_graph(3))


def test_removal_coloring_rejects_bad_class_index():
    q3 = hypercube_graph(3)
    with pytest.raises(ValueError):
        theta_removal_coloring(q3, 5, [(0, 1)], cycle_graph(3))


def test_removal_coloring_needs_perfect_matching_classes():
    c6 = cycle_graph(6)
    tc = theta_classes(c6)
    with pytest.raises(ValueError):
        theta_removal_coloring(c6, 0, [tc.classes[0][0]], cycle_graph(3))


def test_removal_coloring_rejects_non_partial_cube():
    with pytest.raises(ValueError):
        theta_removal_coloring(petersen_graph(), 0, [(0, 1)], cycle_graph(3))


def _related(dist, e, f):
    (x, y), (u, v) = e, f
    return dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u]


def _reference_transitive(graph, classes):
    """The raw relation is transitive iff every class is a clique of it."""
    dist = all_pairs_distances(graph)
    return all(_related(dist, e, f)
               for cls in classes for e, f in itertools.combinations(cls, 2))


def _reference_partial_cube(graph, classes):
    """Djokovic's direct check: bipartite, theta transitive, and each class
    a matching whose removal leaves exactly two convex sides."""
    if not is_bipartite(graph) or not _reference_transitive(graph, classes):
        return False
    dist = all_pairs_distances(graph)
    for cls in classes:
        ends = [v for e in cls for v in e]
        if len(set(ends)) != len(ends):
            return False
        rest = Graph.from_edges(graph.n, set(graph.edges) - set(cls))
        sides = connected_components(rest)
        if len(sides) != 2:
            return False
        for side, other in (sides, sides[::-1]):
            for x, y in itertools.combinations(side, 2):
                if any(dist[x][z] + dist[z][y] == dist[x][y] for z in other):
                    return False
    return True


def _reference_every_vertex_in_every_class(graph, classes):
    counts = [[0] * len(classes) for _ in range(graph.n)]
    for i, cls in enumerate(classes):
        for u, v in cls:
            counts[u][i] += 1
            counts[v][i] += 1
    return all(c == 1 for row in counts for c in row)


def _reference_cases():
    named = [hypercube_graph(r) for r in range(1, 6)]
    named += [cycle_graph(n) for n in range(3, 13)]
    named += [cartesian_product(path_graph(a), path_graph(b))
              for a in range(1, 6) for b in range(1, 6)]
    named += [cartesian_product(cycle_graph(4), cycle_graph(6)),
              Graph.from_edges(5, [(u, v) for u in range(2) for v in range(2, 5)], "K_2,3"),
              petersen_graph()]
    rng = Random(13)
    seeded = [g for g in (random_graph(rng, 2, 8) for _ in range(600)) if is_connected(g)]
    return named + seeded


def test_theta_matches_the_direct_characterizations():
    cases = _reference_cases()
    cubes = 0
    for g in cases:
        tc = theta_classes(g)
        assert tc.raw_is_transitive == _reference_transitive(g, tc.classes), g
        cube = _reference_partial_cube(g, tc.classes)
        assert is_partial_cube(tc) == cube, g
        assert tc.every_vertex_in_every_class == \
            _reference_every_vertex_in_every_class(g, tc.classes), g
        cubes += cube
    # both verdicts are exercised, not only one
    assert 50 < cubes < len(cases) - 50


def test_classes_of_half_size_must_also_cover_every_vertex():
    # C_4's real classes are its two perfect matchings; these have the
    # same sizes but each leaves two vertices uncovered
    c4 = cycle_graph(4)
    assert theta_classes(c4).every_vertex_in_every_class
    split = (((0, 1), (0, 3)), ((1, 2), (2, 3)))
    assert not _reference_every_vertex_in_every_class(c4, split)
    assert not ThetaClasses(c4, split, True).every_vertex_in_every_class
