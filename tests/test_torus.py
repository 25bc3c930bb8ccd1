import pytest

from palettebox.coloring import check_proper, palette_summary
from palettebox.graphs import ProductIndex, cartesian_product, cycle_graph
from palettebox.torus import (
    TorusDecomposition,
    TorusEdge,
    even_cycle_classes,
    torus_three_palette_coloring,
    verify_partition,
    z_set,
)

THREE_PALETTES = {
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2, 5, 6}),
    frozenset({3, 4, 5, 6}),
}

ODD_PAIRS = [(s, t) for t in (3, 5, 7, 9) for s in (t, t + 2, t + 4)]
# (13, 3) and (25, 7) have shift h = 1, which no pair of ODD_PAIRS reaches
SHIFTED_PAIRS = ODD_PAIRS + [(13, 3), (25, 7)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        TorusDecomposition(4, 3)
    with pytest.raises(ValueError):
        TorusDecomposition(5, 4)
    with pytest.raises(ValueError):
        TorusDecomposition(3, 5)
    with pytest.raises(ValueError):
        TorusDecomposition(3, 1)


def test_shift_parameters_for_5_3():
    dec = TorusDecomposition(5, 3)
    assert dec.ell == 1
    assert dec.shift == 0


@pytest.mark.parametrize("s, t", ODD_PAIRS)
def test_shift_parameter_formulas(s, t):
    dec = TorusDecomposition(s, t)
    assert dec.ell == ((s - t) // 2) % t
    assert dec.shift == (s - t) // (2 * t)


def test_walk_5_3_first_steps():
    walk = z_set(5, 3, 0)
    assert len(walk) == 10
    assert walk[0] == TorusEdge("ascending-vertical", 0, 0)
    assert walk[1] == TorusEdge("horizontal", 0, 1)
    assert walk[2] == TorusEdge("descending-vertical", 1, 1)
    idx = ProductIndex(5, 3)
    assert walk[0].undirected(5, 3) == (idx.flat(0, 0), idx.flat(0, 1))
    assert walk[1].undirected(5, 3) == (idx.flat(0, 1), idx.flat(1, 1))


@pytest.mark.parametrize("s, t", ODD_PAIRS)
def test_walks_partition_all_edges(s, t):
    dec = TorusDecomposition(s, t)
    assert len(dec.z_sets) == t
    assert all(len(w) == 2 * s for w in dec.z_sets)
    ok, problems = verify_partition(dec)
    assert ok, problems


@pytest.mark.parametrize("s, t", ODD_PAIRS)
def test_classes_give_even_cycles(s, t):
    dec = TorusDecomposition(s, t)
    assert len(dec.classes) == 3
    ok, problems = even_cycle_classes(dec)
    assert ok, problems


def test_class_assignment_repair_when_t_is_one_mod_three():
    dec = TorusDecomposition(7, 7)
    assert [dec.class_of_walk(i) for i in range(7)] == [0, 1, 2, 0, 1, 2, 1]
    dec = TorusDecomposition(9, 9)
    assert [dec.class_of_walk(i) for i in range(9)] == [0, 1, 2] * 3


@pytest.mark.parametrize("t", [7, 13, 19])
def test_repair_keeps_neighbouring_walks_apart(t):
    # walks i and i+1 share vertices, so equal classes would merge cycles
    dec = TorusDecomposition(t, t)
    labels = [dec.class_of_walk(i) for i in range(t)]
    for i in range(t):
        assert labels[i] != labels[(i + 1) % t]


def test_decomposition_graph_is_the_product():
    dec = TorusDecomposition(5, 3)
    assert dec.graph == cartesian_product(cycle_graph(5), cycle_graph(3))


@pytest.mark.parametrize("s, t", ODD_PAIRS)
def test_three_palette_coloring(s, t):
    col = torus_three_palette_coloring(s, t)
    assert check_proper(col)[0]
    assert palette_summary(col).palette_sets() == THREE_PALETTES


@pytest.mark.parametrize("s, t", SHIFTED_PAIRS)
def test_coloring_matches_class_colors(s, t):
    dec = TorusDecomposition(s, t)
    col = torus_three_palette_coloring(s, t)
    for j, cls in enumerate(dec.classes):
        for edge in cls:
            want = 2 * j + 1 if not edge.is_vertical else 2 * j + 2
            assert col.color_of(*edge.undirected(s, t)) == want


def _with_walks(dec, walks):
    """Replace the cached walks of ``dec``, as a broken decomposition would have them."""
    dec.__dict__["z_sets"] = tuple(tuple(w) for w in walks)


def test_partition_check_fails_when_two_walks_swap_an_edge():
    dec = TorusDecomposition(7, 5)
    z0, z1 = list(dec.z_sets[0]), list(dec.z_sets[1])
    z0[3], z1[3] = z1[3], z0[3]
    _with_walks(dec, [z0, z1, *dec.z_sets[2:]])
    ok, problems = verify_partition(dec)
    assert not ok
    assert any(p.startswith("Z_0") for p in problems)
    assert any(p.startswith("Z_1") for p in problems)


def test_both_checks_fail_when_a_walk_copies_an_edge_of_another():
    dec = TorusDecomposition(7, 5)
    z0 = list(dec.z_sets[0])
    z0[3] = dec.z_sets[1][3]
    _with_walks(dec, [z0, *dec.z_sets[1:]])
    ok, problems = verify_partition(dec)
    assert not ok and problems
    ok, problems = even_cycle_classes(dec)
    assert not ok and problems
