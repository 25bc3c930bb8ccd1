import random

from palettebox.corpus import random_graph, small_corpus


def test_small_corpus_respects_edge_cap():
    for g in small_corpus(max_edges=12):
        assert 1 <= len(g.edges) <= 12
        assert g.tag  # members carry provenance for report lines


def test_small_corpus_contains_products_and_paths():
    tags = {g.tag for g in small_corpus()}
    assert "path(2)" in tags
    assert any(t.startswith("product(") for t in tags)
    assert len(tags) == len(list(small_corpus()))


def test_small_corpus_holds_each_graph_once():
    graphs = small_corpus(max_edges=40)
    assert len({(g.n, g.edges) for g in graphs}) == len(graphs)


def test_smaller_cap_gives_subset():
    wide = {g.tag for g in small_corpus(max_edges=12)}
    narrow = {g.tag for g in small_corpus(max_edges=6)}
    assert narrow <= wide


def test_random_graph_is_seed_deterministic():
    a = random_graph(random.Random(7))
    b = random_graph(random.Random(7))
    assert a == b
    assert a.edges  # never empty
    assert 2 <= a.n <= 6


def test_random_graph_varies_with_seed():
    rng = random.Random(0)
    graphs = {random_graph(rng).edges for _ in range(10)}
    assert len(graphs) > 1
