import hashlib

import pytest

from palettebox.coloring import check_proper, palette_summary
from palettebox import torus
from palettebox.graphs import ProductIndex, cycle_graph
from palettebox.torus import (
    TorusDecomposition,
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


ALL_ODD_PAIRS = [(s, t) for s in range(3, 22, 2) for t in range(3, s + 1, 2)]


@pytest.mark.parametrize("s, t", ALL_ODD_PAIRS)
def test_offset_table_puts_every_step_of_z_set_on_its_walk(s, t):
    dec = TorusDecomposition(s, t)
    across, along = dec.walk_offsets
    assert len(across) == len(along) == s
    for i in range(t):
        for kind, j, k in z_set(s, t, i):
            if kind == "horizontal":
                assert (k + across[j]) % t == i
            else:
                # a vertical edge is named by its lower column
                low = k if kind == "ascending-vertical" else (k - 1) % t
                assert (low + along[j]) % t == i


@pytest.mark.parametrize("s, t", ALL_ODD_PAIRS)
def test_walk_of_agrees_with_the_closed_form(s, t):
    dec = TorusDecomposition(s, t)
    ell = ((s - t) // 2) % t
    for j in range(s):
        for k in range(t):
            for vertical in (False, True):
                if j < ell:
                    want = (k - j - (0 if vertical else 1)) % t
                else:
                    want = (k + j - 2 * ell + 1) % t
                assert dec.walk_of(j, k, vertical) == want


def test_three_palette_coloring_is_pinned():
    # sha256 of the color bytes of C_31 x C_17: moving any edge to another walk changes it
    colors = torus_three_palette_coloring(31, 17).colors
    assert hashlib.sha256(bytes(colors)).hexdigest() == (
        "a1994d3e93b6c03d9eafa7322878da9c91e0270fe41878ed9a80b87efe353732")


def test_walk_5_3_first_steps(torus_edge):
    walk = z_set(5, 3, 0)
    assert len(walk) == 10
    assert walk[0] == ("ascending-vertical", 0, 0)
    assert walk[1] == ("horizontal", 0, 1)
    assert walk[2] == ("descending-vertical", 1, 1)
    idx = ProductIndex(5, 3)
    assert torus_edge(5, 3, walk[0]) == (idx.flat(0, 0), idx.flat(0, 1))
    assert torus_edge(5, 3, walk[1]) == (idx.flat(0, 1), idx.flat(1, 1))


@pytest.mark.parametrize("s, t", ODD_PAIRS)
def test_walks_partition_all_edges(s, t):
    dec = TorusDecomposition(s, t)
    assert all(len(z_set(s, t, i)) == 2 * s for i in range(t))
    ok, problems = verify_partition(dec)
    assert ok, problems


@pytest.mark.parametrize("s, t", ODD_PAIRS)
def test_classes_give_even_cycles(s, t):
    dec = TorusDecomposition(s, t)
    assert {dec.class_of_walk(i) for i in range(t)} == {0, 1, 2}
    ok, problems = even_cycle_classes(dec)
    assert ok, problems


def test_both_checks_step_through_the_walks_once(monkeypatch):
    calls, built = [], []
    step_walk = torus._step_walk
    monkeypatch.setattr(torus, "_step_walk", lambda dec, i: calls.append(i) or step_walk(dec, i))
    monkeypatch.setattr(torus, "z_set", lambda s, t, i: built.append(i) or z_set(s, t, i))
    dec = TorusDecomposition(7, 5)
    assert verify_partition(dec) == (True, [])
    assert even_cycle_classes(dec) == (True, [])
    assert calls == [0, 1, 2, 3, 4]
    assert built == [0, 1, 2, 3, 4]


def test_a_checked_decomposition_holds_no_walk():
    dec = TorusDecomposition(7, 5)
    assert verify_partition(dec)[0] and even_cycle_classes(dec)[0]
    assert set(vars(dec)) == {"s", "t", "walk_offsets", "walk_checks"}


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


@pytest.mark.parametrize("s, t", ODD_PAIRS)
def test_three_palette_coloring(s, t):
    col = torus_three_palette_coloring(s, t)
    assert check_proper(col)[0]
    assert palette_summary(col).palette_sets() == THREE_PALETTES


@pytest.mark.parametrize("s, t", SHIFTED_PAIRS)
def test_coloring_matches_class_colors(s, t, torus_edge):
    dec = TorusDecomposition(s, t)
    col = torus_three_palette_coloring(s, t)
    for i in range(t):
        j = dec.class_of_walk(i)
        for step in z_set(s, t, i):
            want = 2 * j + 1 if step[0] == "horizontal" else 2 * j + 2
            assert col.color_of(*torus_edge(s, t, step)) == want


def walk_rule(dec, color):
    """The torus coloring as a per-edge rule: each edge reads its walk off ``walk_of``."""
    rows, cols = cycle_graph(dec.s), cycle_graph(dec.t)

    def start(edge):  # the closing edge (0, n-1) leaves n-1
        u, v = edge
        return u if v == u + 1 else v
    return (rows, cols,
            lambda i, k: color(dec.walk_of(start(rows.edges[i]), k, False), False),
            lambda j, i: color(dec.walk_of(j, start(cols.edges[i]), True), True))


@pytest.mark.parametrize("s, t", SHIFTED_PAIRS)
def test_edge_coloring_matches_the_walk_rule(s, t, rule_coloring):
    dec = TorusDecomposition(s, t)

    def by_walk(i, vertical):  # a color of its own for each walk and direction
        return 2 * i + 1 + vertical

    def by_class(i, vertical):
        return 2 * dec.class_of_walk(i) + (2 if vertical else 1)
    assert dec.edge_coloring(by_walk) == rule_coloring(*walk_rule(dec, by_walk))
    assert torus_three_palette_coloring(s, t) == rule_coloring(*walk_rule(dec, by_class))


def _walks(s, t):
    """The walks ``z_set`` builds for C_s box C_t, each as a list of steps."""
    return [list(z_set(s, t, i)) for i in range(t)]


def _with_walks(monkeypatch, walks):
    """Make ``torus.z_set`` build ``walks``, as a broken decomposition would have them."""
    monkeypatch.setattr(torus, "z_set", lambda s, t, i: tuple(walks[i]))


def test_partition_check_fails_when_two_walks_swap_an_edge(monkeypatch):
    z0, z1, *others = _walks(7, 5)
    z0[3], z1[3] = z1[3], z0[3]
    _with_walks(monkeypatch, [z0, z1, *others])
    ok, problems = verify_partition(TorusDecomposition(7, 5))
    assert not ok
    assert any(p.startswith("Z_0") for p in problems)
    assert any(p.startswith("Z_1") for p in problems)


def test_both_checks_fail_when_a_walk_copies_an_edge_of_another(monkeypatch):
    walks = _walks(7, 5)
    walks[0][3] = walks[1][3]
    _with_walks(monkeypatch, walks)
    dec = TorusDecomposition(7, 5)
    ok, problems = verify_partition(dec)
    assert not ok and problems
    ok, problems = even_cycle_classes(dec)
    assert not ok and problems


def test_partition_check_fails_when_a_walk_is_cut_short(monkeypatch):
    walks = _walks(7, 5)
    walks[0] = walks[0][:-2]
    _with_walks(monkeypatch, walks)
    ok, problems = verify_partition(TorusDecomposition(7, 5))
    assert not ok
    assert "Z_0 has 12 edges, expected 14" in problems
    assert any(p.startswith("Z_0 does not close up") for p in problems)


def test_partition_check_fails_when_a_walk_revisits_a_vertex(monkeypatch):
    walks = _walks(7, 5)
    # out along the edge (0,0)-(0,1) and straight back, seven times
    walks[0] = [("ascending-vertical", 0, 0), ("descending-vertical", 0, 1)] * 7
    _with_walks(monkeypatch, walks)
    ok, problems = verify_partition(TorusDecomposition(7, 5))
    assert not ok
    assert any(p.startswith("Z_0 revisits a vertex") for p in problems)
    assert "Z_0 repeats an edge" in problems


def test_partition_check_fails_when_a_walk_steps_out_of_order(monkeypatch):
    walks = _walks(7, 5)
    z0 = walks[0]
    z0[2], z0[3] = z0[3], z0[2]
    _with_walks(monkeypatch, walks)
    ok, problems = verify_partition(TorusDecomposition(7, 5))
    assert not ok
    assert any(p.startswith("Z_0 breaks at") for p in problems)


def test_partition_check_fails_when_a_walk_follows_another(monkeypatch):
    # Z_1 is a closed simple 2s-cycle, so only walk_of tells it apart from Z_0
    walks = _walks(7, 5)
    _with_walks(monkeypatch, [walks[1], *walks[1:]])
    ok, problems = verify_partition(TorusDecomposition(7, 5))
    assert not ok
    assert problems == [f"Z_0 holds edges of other walks, first {walks[1][0]}"]


def test_partition_check_fails_when_a_walk_leaves_the_grid(monkeypatch):
    # C_7 x C_5 has rows 0..6 and columns 0..4; (0, 5) is the flat vertex (1, 0)
    z0, *others = _walks(7, 5)
    for step in [("ascending-vertical", 7, 0), ("horizontal", -1, 2), ("ascending-vertical", 0, 5)]:
        _with_walks(monkeypatch, [[step, *z0[1:]], *others])
        ok, problems = verify_partition(TorusDecomposition(7, 5))
        assert not ok
        assert f"Z_0 leaves the grid at {step}" in problems


def test_partition_check_fails_on_an_unknown_step_kind(monkeypatch):
    walks = _walks(5, 3)
    z0 = walks[0]
    z0[1] = ("diagonal", *z0[1][1:])
    _with_walks(monkeypatch, walks)
    ok, problems = verify_partition(TorusDecomposition(5, 3))
    assert not ok
    assert any("unknown kind 'diagonal'" in p for p in problems)


def test_class_check_fails_when_walks_of_one_class_share_a_vertex(monkeypatch):
    # plain i mod 3 puts the neighbouring walks Z_6 and Z_0 of C_7 x C_7 in one class
    monkeypatch.setattr(TorusDecomposition, "class_of_walk", lambda self, i: i % 3)
    dec = TorusDecomposition(7, 7)
    assert verify_partition(dec)[0]
    ok, problems = even_cycle_classes(dec)
    assert not ok
    assert problems == ["class 0: Z_6 shares a vertex with another walk of the class"]
