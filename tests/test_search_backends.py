from types import SimpleNamespace

import itertools
import random

import numpy
import pytest

from palettebox import search
from palettebox.coloring import EdgeColoring, palette_summary
from palettebox.constructions import PATH_MODE_FAMILY
from palettebox.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from palettebox.search import (
    BUDGET,
    EXHAUSTED,
    FOUND,
    MAX_COLORS,
    PAUSED,
    BudgetTracker,
    Search,
    SearchBudget,
    active_backend,
)
from palettebox.oracle import coloring_within_family


def edge_arrays(g):
    """Edge endpoints in search order, as the kernels take them."""
    order = g.completion_order
    return ([g.edges[i][0] for i in order], [g.edges[i][1] for i in order])


def masks(family):
    """The palette masks, bit c for color c, of a family of color sets."""
    return [sum(1 << c for c in pal) for pal in family]


def run(g, k=None, p=None, family=None, budget=None):
    """One whole search of ``g``, with ``family`` given as color sets."""
    return Search(g, k, p, None if family is None else masks(family)).run(budget)


def palette_count(col):
    """Distinct palettes of a coloring; palette_summary rejects improper ones."""
    return palette_summary(col).count


def test_backend_follows_numba_availability(monkeypatch):
    assert active_backend() == ("numba" if search.HAS_NUMBA else "python")
    monkeypatch.setattr(search, "HAS_NUMBA", False)
    assert active_backend() == "python"


@pytest.mark.parametrize("backend", ["python", "numba"])
def test_k_coloring_on_both_backends(monkeypatch, backend):
    if backend == "numba" and not search.HAS_NUMBA:
        pytest.skip("numba unavailable")
    if backend == "python":
        monkeypatch.setattr(search, "HAS_NUMBA", False)
    assert active_backend() == backend
    g = petersen_graph()
    status, col = run(g, 3)
    assert status == EXHAUSTED and col is None  # class 2, needs 4
    status, col = run(g, 4)
    assert status == FOUND and col.graph is g
    assert col.max_color == 4
    assert palette_count(col) >= 3  # regular and class 2


def search_results():
    """Every kind of search on small graphs, sharing one tracker, and its node total."""
    tracker = BudgetTracker(None)
    results = (run(K5, 5, budget=tracker),
               run(K5, 16, 4, budget=tracker),
               run(P3C5, 8, 2, budget=tracker),
               run(P3C5, 16, 4, budget=tracker),
               run(P3C4, family=PATH_MODE_FAMILY, budget=tracker),
               run(PETERSEN, family=HIGH_FAMILY, budget=tracker))
    return results, tracker.nodes


def test_backends_agree(monkeypatch):
    if not search.HAS_NUMBA:
        pytest.skip("numba unavailable")
    compiled = search_results()
    monkeypatch.setattr(search, "HAS_NUMBA", False)
    assert search_results() == compiled


def test_searches_same_on_list_and_int64_buffers(monkeypatch):
    # the Python kernels on int64 arrays stand in for numba: the colorings
    # read back from the buffers must hold Python ints either way
    kernels = (search._color_chunk_py, search._pcount_chunk_py)
    monkeypatch.setattr(search, "_backend", lambda: (*kernels, list))
    on_lists = search_results()
    monkeypatch.setattr(search, "_backend", lambda: (*kernels, search._int64))
    assert search_results() == on_lists
    assert [status for status, _ in on_lists[0]] == [FOUND, FOUND, EXHAUSTED] + [FOUND] * 3
    for _, col in on_lists[0]:
        assert col is None or all(type(c) is int for c in col.colors)


def test_empty_and_zero_color_edges():
    empty = Graph(0, ())
    assert run(empty, 3) == (FOUND, EdgeColoring(empty, ()))
    status, col = run(cycle_graph(3), 0)
    assert status == EXHAUSTED and col is None


def test_max_colors_guard():
    with pytest.raises(ValueError):
        Search(cycle_graph(3), MAX_COLORS + 1)


def test_node_budget_reports_budget_status():
    tight = SearchBudget(max_nodes=1)
    status, col = run(petersen_graph(), 4, budget=tight)
    assert status == BUDGET and col is None


def test_deterministic_budget_repeatable():
    g = petersen_graph()
    budget = SearchBudget(max_nodes=10_000_000)
    first = run(g, 4, budget=budget)
    second = run(g, 4, budget=budget)
    assert first == second
    assert first[0] == FOUND


def test_palette_count_search():
    g = cycle_graph(5)
    status, col = run(g, 3, 2)
    assert status == EXHAUSTED  # regular graphs never land on exactly 2
    status, col = run(g, 3, 3)
    assert status == FOUND
    assert palette_count(col) == 3


@pytest.mark.parametrize("settle, outcome", [
    # an isolated vertex's empty palette is already one more than 0 allow
    (lambda: run(Graph(2, ()), 3, 0), (EXHAUSTED, None)),
    (lambda: run(Graph(2, ()), 3, 1), (FOUND, EdgeColoring(Graph(2, ()), ()))),
    (lambda: run(cycle_graph(4), 2, 0), (EXHAUSTED, None)),
    (lambda: run(cycle_graph(4), 0, 1), (EXHAUSTED, None)),
    (lambda: run(cycle_graph(4), MAX_COLORS + 1, 1), ValueError),
    (lambda: run(cycle_graph(4), family=[{0, 1}]), ValueError),
    (lambda: run(cycle_graph(4), family=[{1, MAX_COLORS + 1}]), ValueError),
    (lambda: run(cycle_graph(4), family=[]), ValueError),
], ids=["seed-above-target", "edgeless", "no-palettes", "no-colors", "too-many-colors",
        "color-zero", "color-above-limit", "empty-family"])
def test_palette_searches_settle_degenerate_input_without_the_kernel(settle, outcome, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran")
    monkeypatch.setattr(search, "_backend", lambda: (no_kernel, no_kernel, list))
    if outcome is ValueError:
        with pytest.raises(ValueError):
            settle()
    else:
        assert settle() == outcome


P3C5 = cartesian_product(path_graph(3), cycle_graph(5))
P5C5 = cartesian_product(path_graph(5), cycle_graph(5))


# with 1-node turns, every return to a depth is a pause followed by a call
# that resumes from that depth's untried colors; petersen-k3 does so on the
# coloring kernel all the way to exhaustion
@pytest.mark.parametrize("unrun, final", [
    (lambda: Search(PETERSEN, 3), EXHAUSTED),
    (lambda: Search(PETERSEN, 4), FOUND),
    (lambda: Search(P3C5, 12, 3), EXHAUSTED),
    (lambda: Search(P3C5, 12, 4), FOUND),
    (lambda: Search(P5C5, family=masks(PATH_MODE_FAMILY)), FOUND),
], ids=["petersen-k3", "petersen-k4", "p3c5-count-p3", "p3c5-count-p4", "p5c5-family"])
@pytest.mark.parametrize("turn", [1, 7, 1_024])
def test_a_search_resumed_in_turns_matches_one_run(unrun, final, turn):
    tracker = BudgetTracker(None)
    expected = unrun().run(tracker)
    assert expected[0] == final
    resumed = BudgetTracker(None)
    s = unrun()
    turns = 1
    while (result := s.run(resumed, turn))[0] == PAUSED:
        turns += 1
    assert result == expected and resumed.nodes == tracker.nodes
    # a settled search keeps its outcome and runs no further node
    assert s.run(resumed, turn) == expected and resumed.nodes == tracker.nodes
    # the turn that settles the search may spend all of it
    assert turns == -(-tracker.nodes // turn)


def test_family_search_respects_budget():
    family = [frozenset({1, 2, 3}), frozenset({1, 4, 5}), frozenset({2, 4, 6})]
    status, _ = run(petersen_graph(), family=family, budget=SearchBudget(max_nodes=5))
    assert status == BUDGET


def test_negative_budgets_are_rejected():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=-1)
    with pytest.raises(ValueError):
        SearchBudget(max_seconds=-0.5)
    assert SearchBudget(max_nodes=0, max_seconds=0.0).max_nodes == 0


def test_nan_budget_is_rejected():
    # NaN fails every comparison, so a limit of NaN seconds would never fire
    with pytest.raises(ValueError, match="max_seconds must be nonnegative, got nan"):
        SearchBudget(max_seconds=float("nan"))


def first_in_family(g, family, k):
    """The lexicographically first proper in-family coloring, by brute force.

    ``itertools.product`` runs through the colorings in the order a
    depth-first search over the edges in search order, colors ascending,
    meets them.
    """
    order = g.completion_order
    eu, ev = edge_arrays(g)
    for colors in itertools.product(range(1, k + 1), repeat=len(order)):
        at = [set() for _ in range(g.n)]
        proper = True
        for u, v, c in zip(eu, ev, colors):
            if c in at[u] or c in at[v]:
                proper = False
                break
            at[u].add(c)
            at[v].add(c)
        if proper and all(frozenset(p) in family for p in at):
            canonical = [0] * len(order)
            for i, c in zip(order, colors):
                canonical[i] = c
            return FOUND, EdgeColoring(g, tuple(canonical))
    return EXHAUSTED, None


def test_family_search_finds_the_first_in_family_coloring():
    rng = random.Random(2014)
    outcomes = set()
    for _ in range(150):
        n = rng.randint(2, 6)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(1, min(6, len(pairs)))))
        sizes = sorted(set(g.degrees))
        family = {frozenset(rng.sample(range(1, 5), rng.choice(sizes)))
                  for _ in range(rng.randint(1, 4))}
        expected = first_in_family(g, family, 4)
        assert coloring_within_family(g, family) == expected
        outcomes.add(expected[0])
    assert outcomes == {FOUND, EXHAUSTED}


# ---------------------------------------------------------------------------
# one kernel source on both buffer types
#
# numba runs the kernels on int64 arrays and the fallback on lists of
# Python ints.  Driving ``Search`` with the uncompiled kernels on both
# buffer types, in small turns so every pause and resume is compared too,
# stands in for a numba parity check where numba is not installed; the
# buffers are seeded by ``Search`` itself, as every search seeds them.
# The int64 side runs with numpy's integer overflow raised, so a mask
# that passes bit 62 fails instead of wrapping.

PARITY_CHUNK = 7
PETERSEN = petersen_graph()
K5 = complete_graph(5)
P3C4 = cartesian_product(path_graph(3), cycle_graph(4))
# every center edge needs its own color, so k = MAX_COLORS reaches bit 62
STAR = Graph.from_edges(MAX_COLORS + 1, [(0, i) for i in range(1, MAX_COLORS + 1)])
HIGH_FAMILY = [{60, 61, 62}, {59, 61, 62}, {59, 60, 62}, {59, 60, 61, 62}]
# P3 beside a triangle: the triangle's last edge completes both its ends
# with two different palettes, which the collection must count twice
P3_AND_K3 = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)])


def on_int64(run, *args):
    """``run`` on int64 buffers, with numpy's integer overflow an error."""
    with numpy.errstate(over="raise"):
        return run(search._int64, *args)


def stepped(buf, g, k=None, p=None, family=None):
    """A ``Search`` on ``buf`` buffers and the Python kernels, run PARITY_CHUNK nodes a turn.

    A turn of PARITY_CHUNK nodes is one kernel call.  Returns each call's
    status, nodes and the state the kernel resumes from, and the colors of
    ``assign`` decoded from their bits (0 where no color is set).
    """
    kernels = (search._color_chunk_py, search._pcount_chunk_py)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_backend", lambda: (*kernels, buf))
        s = Search(g, k, p, family)
    tracker = BudgetTracker(None)
    calls, status = [], PAUSED
    while status == PAUSED:
        before = tracker.nodes
        status, _ = s.run(tracker, PARITY_CHUNK)
        calls.append((status, tracker.nodes - before, [int(x) for x in s._state]))
    return calls, [int(c).bit_length() - 1 for c in s._assign]


def family_run(buf, g, family):
    """The family search of ``family``, given as color sets."""
    return stepped(buf, g, family=masks(family))


@pytest.mark.parametrize("g, k, final", [
    (PETERSEN, 3, EXHAUSTED),
    (PETERSEN, 4, FOUND),
    (K5, 4, EXHAUSTED),
    (K5, 5, FOUND),
    (P3C4, 3, EXHAUSTED),
    (P3C4, 4, FOUND),
    (STAR, MAX_COLORS - 1, EXHAUSTED),
    (STAR, MAX_COLORS, FOUND),
])
def test_color_kernel_same_on_list_and_int64_buffers(g, k, final):
    on_lists = stepped(list, g, k)
    assert on_lists == on_int64(stepped, g, k)
    assert on_lists[0][-1][0] == final


@pytest.mark.parametrize("g, k, p_target, final", [
    (PETERSEN, 4, 2, EXHAUSTED),
    (PETERSEN, 4, 3, FOUND),
    (K5, 12, 3, EXHAUSTED),
    (K5, 16, 4, FOUND),
    (P3C4, 5, 1, EXHAUSTED),
    (P3C4, 4, 2, FOUND),
    # two palette degrees: the full collection and the one slot left both prune
    (P3C5, 8, 2, EXHAUSTED),
    (P3C5, 16, 4, FOUND),
    (P3_AND_K3, 5, 4, EXHAUSTED),
    (P3_AND_K3, 5, 5, FOUND),
    (STAR, MAX_COLORS, MAX_COLORS, EXHAUSTED),
    (STAR, MAX_COLORS, MAX_COLORS + 1, FOUND),
])
def test_pcount_kernel_same_on_list_and_int64_buffers(g, k, p_target, final):
    on_lists = stepped(list, g, k, p_target)
    assert on_lists == on_int64(stepped, g, k, p_target)
    assert on_lists[0][-1][0] == final


@pytest.mark.parametrize("g, family, final", [
    (PETERSEN, [{1, 2, 3}], EXHAUSTED),
    (PETERSEN, HIGH_FAMILY, FOUND),
    (K5, [{1, 2, 3, 4}], EXHAUSTED),
    (K5, HIGH_FAMILY, EXHAUSTED),
    (P3C4, PATH_MODE_FAMILY, FOUND),
    (P3C4, HIGH_FAMILY, FOUND),
])
def test_family_kernel_same_on_list_and_int64_buffers(g, family, final):
    on_lists = family_run(list, g, family)
    assert on_lists == on_int64(family_run, g, family)
    assert on_lists[0][-1][0] == final


def test_parity_cases_reach_the_top_color():
    assert MAX_COLORS in stepped(list, STAR, MAX_COLORS)[1]
    assert MAX_COLORS in stepped(list, STAR, MAX_COLORS, MAX_COLORS + 1)[1]
    assert MAX_COLORS in family_run(list, PETERSEN, HIGH_FAMILY)[1]


# ---------------------------------------------------------------------------
# chunks sized by time


class FakeClock:
    """A monotonic clock that moves ``step`` seconds per reading, or by hand."""

    def __init__(self, step=0.0):
        self.now = 1000.0
        self.step = step

    def monotonic(self):
        self.now += self.step
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=fake.monotonic))
    return fake


def test_chunk_follows_the_rate_of_the_last_call(clock):
    tracker = BudgetTracker(None)
    first = tracker.next_chunk()
    assert first == search._MIN_CHUNK_NODES
    clock.now += search._CHUNK_SECONDS / 4
    tracker.add_nodes(first)
    assert tracker.nodes == first
    assert tracker.next_chunk() == 4 * first
    clock.now += 10.0
    tracker.add_nodes(4 * first)
    assert tracker.next_chunk() == search._MIN_CHUNK_NODES
    tracker.add_nodes(search._MIN_CHUNK_NODES)  # no time passed
    assert tracker.next_chunk() == search._MAX_CHUNK_NODES


def test_chunk_never_passes_the_node_cap(clock):
    tracker = BudgetTracker(SearchBudget(max_nodes=1500))
    assert tracker.next_chunk() == 1024
    clock.now += 0.001
    tracker.add_nodes(1024)
    assert tracker.next_chunk() == 1500 - 1024
    tracker.add_nodes(1500 - 1024)
    assert tracker.next_chunk() == 0


class NodeClock:
    """A clock that advances with the nodes a tracker has been charged."""

    rate = 100_000  # nodes per second

    def __init__(self):
        self.tracker = None

    def monotonic(self):
        return 0.0 if self.tracker is None else self.tracker.nodes / self.rate


def p3c5_palette_search(tracker):
    return run(cartesian_product(path_graph(3), cycle_graph(5)), 12, 3, budget=tracker)


def test_time_budget_overshoots_by_about_one_chunk(monkeypatch):
    clock = NodeClock()
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=clock.monotonic))
    clock.tracker = BudgetTracker(SearchBudget(max_seconds=0.1))
    status, _ = p3c5_palette_search(clock.tracker)
    assert status == BUDGET
    deadline = 0.1 * clock.rate
    assert deadline <= clock.tracker.nodes <= deadline + search._CHUNK_SECONDS * clock.rate


def test_deterministic_budget_is_node_exact_whatever_the_clock(monkeypatch):
    # a frozen clock makes every chunk as large as the cap allows, a clock
    # that jumps a second per reading makes them as small as they get
    budget = SearchBudget(max_nodes=5_000)
    for step in (0.0, 1.0):
        fake = FakeClock(step)
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=fake.monotonic))
        tracker = BudgetTracker(budget)
        assert p3c5_palette_search(tracker) == (BUDGET, None)
        assert tracker.nodes == 5_000
