"""End-to-end acceptance gate: one test per criterion, budget asserted inline.

Run with -v to get the one-line pass/fail verdict per criterion.
"""

import itertools
import random
import time

from palettebox.coloring import (
    check_proper,
    disjoint_product_coloring,
    palette_summary,
)
from palettebox.constructions import (
    cubic_matching_reduction,
    cycle_times_regular_coloring,
    make_nrg_spec,
    nrg_product_coloring,
    path_times_class1_regular_coloring,
    path_times_regular_coloring,
)
from palettebox.corpus import random_graph, small_corpus
from palettebox.graphs import (
    ProductIndex,
    cartesian_product,
    cycle_graph,
    enumerate_perfect_matchings,
    hypercube_graph,
    path_graph,
    petersen_graph,
    remove_edges,
)
from palettebox.oracle import naive_minimum_palettes, palette_index_exact
from palettebox.search import SearchBudget
from palettebox.solver import chromatic_index
from palettebox.theta import theta_classes, theta_removal_coloring
from palettebox.torus import (
    TorusDecomposition,
    torus_three_palette_coloring,
    verify_partition,
)

TORUS_PALETTES = {
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2, 5, 6}),
    frozenset({3, 4, 5, 6}),
}


def sets_of(col):
    return palette_summary(col).palette_sets()


def interval(lo, hi):
    return frozenset(range(lo, hi + 1))


class Deadline:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"


def test_criterion_1_torus_sweep():
    deadline = Deadline(5.0)
    for t in range(3, 14, 2):
        for s in range(t, 14, 2):
            dec = TorusDecomposition(s, t)
            ok, problems = verify_partition(dec)
            assert ok, (s, t, problems)
            col = torus_three_palette_coloring(s, t)
            assert check_proper(col)[0], (s, t)
            assert sets_of(col) == TORUS_PALETTES, (s, t)
    deadline.check()


def test_criterion_2_oracle_closed_forms():
    deadline = Deadline(60.0)
    budget = SearchBudget()

    def value(g):
        cert = palette_index_exact(g, budget=budget)
        assert cert.exact, g.tag
        return cert.lower

    for n in range(3, 8):
        assert value(path_graph(n)) == (3 if n % 2 else 2), f"P_{n}"
    for n in range(4, 8):
        assert value(cycle_graph(n)) == (3 if n % 2 else 1), f"C_{n}"
    assert value(cartesian_product(path_graph(2), path_graph(2))) == 1
    assert value(cartesian_product(path_graph(2), path_graph(3))) == 2
    assert value(cartesian_product(path_graph(3), path_graph(3))) == 5
    deadline.check()


def test_criterion_3_matching_removal_products():
    deadline = Deadline(10.0)
    bases = (hypercube_graph(3), cycle_graph(4), cycle_graph(6))
    hosts = (cycle_graph(3), cycle_graph(4), path_graph(2))
    for base in bases:
        r = base.max_degree
        matching = next(
            m for m in enumerate_perfect_matchings(base)
            if chromatic_index(remove_edges(base, m.edges)).value == r - 1)
        for size in range(1, len(matching.edges)):
            for removed in itertools.combinations(matching.edges, size):
                spec = make_nrg_spec(base, removed, matching)
                for host in hosts:
                    rp = host.max_degree
                    col = nrg_product_coloring(spec, host)
                    assert check_proper(col)[0]
                    assert sets_of(col) == {
                        interval(1, r + rp), interval(1, r + rp - 1)}, (
                        base.tag, removed, host.tag)
    deadline.check()


def test_criterion_4_path_cycle_times_regular():
    deadline = Deadline(10.0)
    for s in (3, 5, 7):
        for g in (cycle_graph(3), cycle_graph(5)):
            r = g.max_degree
            h_col = chromatic_index(g).witness
            idx = ProductIndex(s, g.n)
            for wrap, col in ((True, cycle_times_regular_coloring(s, g)),
                              (False, path_times_regular_coloring(s, g))):
                assert check_proper(col)[0]
                summ = palette_summary(col)
                first = interval(1, r + 1) | ({r + 3} if wrap else set())
                extra = {r + 2, r + 3} if wrap else {r + 2}
                for v in range(g.n):
                    assert summ.palette_of(idx.flat(0, v)) == first
                    for i in range(1, s - 1):
                        assert summ.palette_of(idx.flat(i, v)) == interval(1, r + 2)
                    assert summ.palette_of(idx.flat(s - 1, v)) == (
                        h_col.palette(v) | extra)
    for g in (cycle_graph(4), cycle_graph(6), path_graph(2), hypercube_graph(3)):
        col = path_times_class1_regular_coloring(5, g)
        assert check_proper(col)[0]
        assert len(sets_of(col)) == 2, g.tag
    deadline.check()


def test_criterion_5_cubic_product_certificate():
    deadline = Deadline(300.0)
    col = cubic_matching_reduction(3, petersen_graph())
    assert check_proper(col)[0]
    assert len(sets_of(col)) == 3
    cert = palette_index_exact(col.graph, [col], budget=SearchBudget(max_seconds=60.0))
    # C_3 box Petersen is 5-regular and class 1, so the chromatic-index
    # witness has a single palette
    assert cert.exact and cert.interval == (1, 1), cert.interval
    assert check_proper(cert.witness)[0]
    deadline.check()


def test_criterion_6_oracle_cross_check():
    deadline = Deadline(120.0)
    corpus = list(small_corpus(max_edges=12))
    assert corpus
    for g in corpus:
        cert = palette_index_exact(g)
        assert cert.exact, g.tag
        assert cert.lower == naive_minimum_palettes(g), g.tag
    deadline.check()


def test_criterion_7_disjoint_product_bound():
    deadline = Deadline(30.0)
    rng = random.Random(20240817)
    for _ in range(50):
        g, h = random_graph(rng), random_graph(rng)
        g_col = chromatic_index(g).witness
        h_col = chromatic_index(h).witness
        prod = disjoint_product_coloring(g_col, h_col)
        assert check_proper(prod)[0]
        bound = palette_summary(g_col).count * palette_summary(h_col).count
        assert palette_summary(prod).count <= bound, (g.tag, h.tag)
    deadline.check()


def test_criterion_8_theta_classes():
    deadline = Deadline(5.0)
    for r in range(1, 5):
        tc = theta_classes(hypercube_graph(r))
        assert tc.count == r
        assert all(m.is_perfect for m in tc.matchings())
    q3 = hypercube_graph(3)
    tc = theta_classes(q3)
    col = theta_removal_coloring(q3, 0, [tc.classes[0][0]], cycle_graph(3))
    assert check_proper(col)[0]
    assert len(sets_of(col)) == 2
    deadline.check()
