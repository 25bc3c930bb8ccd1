"""Exact palette index oracle with lower-bound certificates.

The palette index of a graph is the minimum number of distinct vertex
palettes over all proper edge colorings.  ``palette_index_exact`` is the
one place a ``Certificate`` is made.  Its upper bound u is the best
known witness: a caller's candidate coloring or the chromatic-index
witness the lower bound computes.  It then deepens a target palette
count p from a certified lower bound up to u-1.  A coloring with p
distinct palettes mentions at most p*Delta colors, so restricting the
search to min(p*Delta, |E|) colors loses nothing.

A color class is a matching, so each color lies on an even number of
vertices (Hornak, Kalinowski, Meszka and Wozniak, "Minimum number of
palettes in edge colorings", Graphs and Combinatorics 2014).  So each
color of a palette on an odd number of vertices lies in another such
palette, and a target p whose palette degrees and parities cannot meet
that (see ``_parity_kinds``) is refuted before any search.  Any other
target p is settled by two searches that take turns of a fixed number
of nodes: the palette-count search, which explores every coloring with
at most p distinct palettes, and the family search over the palette
families of p that pass the parity test and the matching test (see
``_parity_families``), of which the two tests leave few to exhaust.  The
matching test sharpens the same argument: a color in every palette of
some vertex degrees and in no other palette is a perfect matching of
the subgraph those vertices induce, so that subgraph has no component
of odd order.  The count search tends to find colorings fast and the
families to refute targets fast.  Every search is a resumable
``search.Search``, so each turn resumes where the last one stopped, no
node is searched twice, and a target costs about twice what the better
of the two searches needs on its own.

Lower bound rules:

* ``degree-set``: vertices of different degrees have different palettes.
* ``regular-class2``: a regular class-2 graph has palette index >= 3
  (one palette would give a Delta-coloring, and exactly two distinct
  palettes are impossible on a regular graph).
* ``exhaustive``: the count search exhausted the last target.
* ``parity``: the last target has no parity-feasible kind of palettes,
  decided before any search.
* ``parity-matching``: no palette family of the last target passes the
  parity test and the matching test.
* ``parity-families``: the family search exhausted every palette family
  of the last target that passes both tests.

A search that stops early reports the proven interval and is never
marked exact; ``Certificate.stop`` says why it stopped.  Its upper bound
is the best known witness, and a Misra-Gries (Delta+1)-coloring, which
needs no budget, when none is known; so every certificate has an upper
bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Optional

from palettebox import search
from palettebox._record import frozen
from palettebox.coloring import EdgeColoring, palette_summary
from palettebox.graphs import Graph
from palettebox.search import ensure_tracker
from palettebox.solver import ChromaticIndexResult, chromatic_index, misra_gries_coloring

# Nodes of one turn of either search of a target in _settle_target.
_TURN = 1 << 10


@frozen
class Certificate:
    """A proven interval for the palette index of one graph.

    ``lower`` always holds, and ``upper`` is the palette count of
    ``witness``.  ``stop`` says why the search stopped: ``exact`` once the
    interval collapses, else ``budget``, ``max-palettes`` (every target
    up to the cap was exhausted) or ``color-width`` (the next target
    needs more colors than ``search.MAX_COLORS``).
    """

    lower: int
    upper: int
    rule: str
    witness: EdgeColoring
    nodes: int
    stop: str

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def interval(self) -> tuple[int, int]:
        return (self.lower, self.upper)


def default_max_palettes(graph: Graph) -> int:
    """Search cap: Delta+1 for regular graphs, #degrees + Delta otherwise."""
    if graph.is_regular:
        return graph.max_degree + 1
    return len(set(graph.degrees)) + graph.max_degree


def _lower_bound_impl(graph: Graph, tracker) -> tuple[int, str, Optional[ChromaticIndexResult]]:
    """The lower bound, its rule and the chromatic-index result it used."""
    if graph.n == 0:
        return 0, "degree-set", None
    if not graph.is_regular:
        return len(set(graph.degrees)), "degree-set", None
    result = chromatic_index(graph, tracker)
    if result.is_class_one is False:
        return 3, "regular-class2", result
    return 1, "degree-set", result


def lower_bound(graph: Graph, budget=None) -> tuple[int, str]:
    """Best structural lower bound for the palette index, with its rule.

    When the budget stops the chromatic index before class 2 is proven,
    the regular route degrades to the degree bound rather than guessing.
    """
    value, rule, _ = _lower_bound_impl(graph, ensure_tracker(budget))
    return value, rule


def _parity_kinds(graph: Graph, p: int) -> Iterator[list[tuple[int, bool]]]:
    """Yield the kinds of p palettes that pass the parity test.

    A kind gives each palette other than the empty one its degree, and
    whether it is odd: on an odd number n_P of vertices.  Every color
    class is a matching, so for each color c the sum of n_P over the
    palettes P that hold c is even: each color lies in an even number of
    odd palettes.  Among the c_d palettes of degree d, o_d are odd, with
    o_d = n_d (mod 2), and o_d + 2(c_d - o_d) <= n_d since an even
    palette is on at least two vertices.  Isolated vertices take the
    empty palette, and the others share the remaining palettes, at least
    one for each degree.  Each color of an odd palette lies in another
    odd palette, so a kind passes only if no odd palette's degree
    exceeds the sum of the other odd palettes' degrees.
    """
    counts = Counter(graph.degrees)
    slots = p - (counts.pop(0, 0) > 0)
    groups = sorted(counts.items())

    def kinds(j: int, left: int):
        """(degree, odd) of each palette of the degrees groups[j:], ``left`` palettes in all."""
        if j == len(groups):
            if left == 0:
                yield []
            return
        d, n = groups[j]
        for c in range(1, left - len(groups) + j + 2):
            for o in range(n % 2, c + 1, 2):
                if 2 * c - o <= n:
                    for rest in kinds(j + 1, left - c):
                        yield [(d, True)] * o + [(d, False)] * (c - o) + rest

    for kind in kinds(0, slots):
        odd = [d for d, is_odd in kind if is_odd]
        if 2 * max(odd, default=0) <= sum(odd):
            yield kind


def _has_odd_part(graph: Graph, degrees: frozenset[int]) -> bool:
    """Whether the vertices whose degree is in ``degrees`` induce a component of odd order."""
    adjacency, inside = graph.adjacency, [d in degrees for d in graph.degrees]
    for s in range(graph.n):
        if inside[s]:
            inside[s] = False
            stack, size = [s], 0
            while stack:
                size += 1
                for v in adjacency[stack.pop()]:
                    if inside[v]:
                        inside[v] = False
                        stack.append(v)
            if size % 2:
                return True
    return False


def _parity_families(graph: Graph, p: int, colors: int) -> Iterator[list[int]]:
    """Yield, lazily, the palette families a coloring with exactly p palettes can have.

    The families are enumerated kind by kind over ``_parity_kinds``, so a
    kind that fails the parity test costs nothing here.  Up to renaming
    colors a family is a vector x over the nonempty sets S of palette
    positions: x_S colors lie in exactly the palettes S.
    Only S holding an even number of odd palettes may have x_S > 0.  Nor
    may S that holds every palette of each degree in D(S), its members'
    degrees, when the vertices V_D of those degrees induce a component of
    odd order (the matching test): a color in exactly the palettes S lies
    on every vertex of V_D and on no other, so its class would be a
    perfect matching of G[V_D].  Whether G[V_D] has an odd component
    (``_has_odd_part``) is asked once per degree set D.
    Palette i needs sum(x_S for S holding i) = its degree, and there are
    at most ``colors`` colors in all.  Positions are filled in order,
    each by the sets whose least member it is.  Palettes of one degree
    must be distinct, and two neighbouring palettes of one degree and
    parity are kept only in the order that makes x lexicographically
    largest over the two (sets in integer order as bitmasks), which
    keeps the largest x of every relabeling of those groups.  A family is
    the list of its palette masks, bit c for color c, with the empty
    palette of isolated vertices, 0, added to every family.  Every
    coloring with exactly p distinct palettes relabels into a family
    yielded here, under the parity pattern of its own palette counts: its
    colors pass both tests, as each color class is a matching.  So
    exhausting them all refutes p whenever the palette index is at least p.
    """
    odd_parts: dict[frozenset[int], bool] = {}
    tail = [0] if 0 in graph.degrees else []
    for kind in _parity_kinds(graph, p):
        slots = len(kind)
        need = [d for d, _ in kind]
        odd = sum(1 << i for i, (_, is_odd) in enumerate(kind) if is_odd)
        # of_degree[d]: the positions of the palettes of degree d
        of_degree: dict[int, int] = {}
        for i, d in enumerate(need):
            of_degree[d] = of_degree.get(d, 0) | 1 << i
        # by_least[i]: the allowed sets whose least member is position i
        by_least: list[list[tuple[int, list[int]]]] = [[] for _ in kind]
        for s in range(1, 1 << slots):
            if bin(s & odd).count("1") % 2 == 0:
                members = [i for i in range(slots) if s >> i & 1]
                degrees = frozenset(kind[i][0] for i in members)
                if sum(of_degree[d] for d in degrees) == s:
                    if degrees not in odd_parts:
                        odd_parts[degrees] = _has_odd_part(graph, degrees)
                    if odd_parts[degrees]:
                        continue
                by_least[members[0]].append((s, members))
        x: dict[int, int] = {}

        def distinct_and_ordered(i: int) -> bool:
            """Whether palette i, now complete, passes the checks against earlier ones."""
            bit = 1 << i
            for h in range(i):
                if kind[h][0] != kind[i][0]:
                    continue
                hbit = 1 << h
                if all(bool(s & hbit) == bool(s & bit) for s in x):
                    return False
            if i == 0 or kind[i - 1] != kind[i]:
                return True
            # x on the sets holding palette i-1 but not i, and i but not i-1,
            # each keyed by its other members
            hbit = 1 << (i - 1)
            first = {s & ~hbit: v for s, v in x.items() if s & hbit and not s & bit}
            second = {s & ~bit: v for s, v in x.items() if s & bit and not s & hbit}
            for t in sorted(first.keys() | second.keys()):
                if first.get(t, 0) != second.get(t, 0):
                    return first.get(t, 0) > second.get(t, 0)
            return True

        def place(i: int, start: int, used: int):
            """Fill palette i from the sets by_least[i][start:], then the palettes after it."""
            if i == slots:
                family = [0] * slots
                color = 1
                for s in sorted(x):
                    # the colors color .. color + x[s] - 1 lie in exactly the palettes s
                    bits = (1 << color + x[s]) - (1 << color)
                    for h in range(slots):
                        if s >> h & 1:
                            family[h] |= bits
                    color += x[s]
                yield family + tail
                return
            if need[i] == 0:
                if distinct_and_ordered(i):
                    yield from place(i + 1, 0, used)
                return
            for j in range(start, len(by_least[i])):
                s, members = by_least[i][j]
                for v in range(min(colors - used, min(need[m] for m in members)), 0, -1):
                    x[s] = v
                    for m in members:
                        need[m] -= v
                    yield from place(i, j + 1, used + v)
                    del x[s]
                    for m in members:
                        need[m] += v

        yield from place(0, 0, 0)


def _settle_target(graph: Graph, k: int, p: int, tracker):
    """Decide whether some coloring has at most p palettes, p being a proven lower bound.

    Returns (status, rule, coloring): FOUND with a coloring, EXHAUSTED
    with the rule that refuted p, or BUDGET.  A target with no kind
    that passes the parity test is refuted before any search.  Otherwise
    the count search and the family search, ``search.Search`` objects,
    take turns of _TURN nodes, and each ``run`` resumes its search where
    the last turn stopped; the family search runs the families one after
    another within its turns.
    Nothing here reads the clock, so node counts repeat from run to run.
    The families are enumerated only once the first turn of the count
    search fails to settle, so graphs it settles never pay for them; a
    target none of whose families passes is refuted then.
    """
    if next(_parity_kinds(graph, p), None) is None:
        return search.EXHAUSTED, "parity", None
    count = search.Search(graph, k, p)
    families = None
    while True:
        status, found = count.run(tracker, _TURN)
        if status == search.PAUSED:
            if families is None:
                families = (search.Search(graph, family=palettes)
                            for palettes in _parity_families(graph, p, k))
                family = next(families, None)
                if family is None:
                    return search.EXHAUSTED, "parity-matching", None
            end = tracker.nodes + _TURN
            status, found = family.run(tracker, _TURN)
            while status == search.EXHAUSTED:
                family = next(families, None)
                if family is None:
                    return search.EXHAUSTED, "parity-families", None
                status, found = family.run(tracker, end - tracker.nodes)
            if status == search.PAUSED:
                continue
        return status, "exhaustive" if status == search.EXHAUSTED else None, found


def palette_index_exact(graph: Graph, candidates: Iterable[EdgeColoring] = (),
                        max_palettes: Optional[int] = None, budget=None) -> Certificate:
    """Exact palette index by iterative deepening, or a proven interval.

    Each candidate must be a proper coloring of exactly this graph.  The
    best of them and of the chromatic-index witness sets the upper bound
    u.  Deepening starts at the certified lower bound and runs only over
    targets p < u (and p <= ``max_palettes``).  Refuting target p raises
    the proven lower bound to p+1, so p is always the proven lower
    bound, which the family search needs.
    The first target that admits a coloring is the palette index, since
    any coloring with c distinct palettes can be relabeled into the
    colors the target-c search explores; reaching u proves u.
    """
    tracker = ensure_tracker(budget)
    known = []
    for cand in candidates:
        if cand.graph != graph:
            raise ValueError("candidate colors a different graph")
        known.append((palette_summary(cand).count, cand))
    if max_palettes is None:
        max_palettes = default_max_palettes(graph)
    if max_palettes < 1:
        raise ValueError("max_palettes must be at least 1")
    delta = graph.max_degree
    m = len(graph.edges)
    proven, rule, chrom = _lower_bound_impl(graph, tracker)
    if chrom is not None and chrom.witness is not None:
        known.append((palette_summary(chrom.witness).count, chrom.witness))
    upper, witness = min(known, key=lambda kc: kc[0], default=(None, None))

    stop = "exact"
    p = proven
    while upper is None or p < upper:
        if p > max_palettes:
            stop = "max-palettes"
            break
        k = min(p * delta, m)
        if k > search.MAX_COLORS:
            # Exhaustion above the kernel's color width would be unsound.
            stop = "color-width"
            break
        status, why, found = _settle_target(graph, k, p, tracker)
        if status == search.FOUND:
            upper, witness = p, found
            break
        if status == search.BUDGET:
            stop = "budget"
            break
        proven, rule = p + 1, why
        p += 1
    if witness is None:
        witness = misra_gries_coloring(graph)
        upper = palette_summary(witness).count
    if proven == upper:
        stop = "exact"
    return Certificate(proven, upper, rule, witness, tracker.nodes, stop)


def coloring_within_family(graph: Graph, family: Iterable[frozenset[int]],
                           budget=None) -> tuple[int, Optional[EdgeColoring]]:
    """Proper coloring whose palettes all lie in the given family, if any.

    Returns (status, coloring) with search.FOUND / EXHAUSTED / BUDGET.
    Infeasible at once if some vertex degree matches no family member's
    size, but only after the family is checked: a color outside
    1..``search.MAX_COLORS`` or an empty family raises ``ValueError``.
    """
    masks = []
    for pal in family:
        mask = 0
        for c in pal:
            if not 1 <= c <= search.MAX_COLORS:
                raise ValueError(f"family color {c} out of kernel range")
            mask |= 1 << c
        masks.append(mask)
    found = search.Search(graph, family=masks)
    sizes = {mask.bit_count() for mask in masks}
    if any(d not in sizes for d in graph.degrees):
        return search.EXHAUSTED, None
    return found.run(budget)


def naive_minimum_palettes(graph: Graph) -> int:
    """Minimum distinct palettes by enumerating partitions of E into matchings.

    Deliberately independent of the backtracking kernels: it uses
    nothing from ``search`` and walks every set partition of the edge
    list whose parts are matchings (edges in list order, each joining an
    existing part before a new one, so parts are ordered by their first
    edge).  Each vertex keeps its palette as a bitmask of part indices.
    A palette is final once the vertex's last incident edge is placed,
    since later edges never touch it, so a branch is cut as soon as it
    holds as many distinct final palettes as the best count seen; at a
    leaf every palette is final and their number is the palette count.
    Exponential: the cut reaches small products such as P_3 x C_5 (25
    edges), while some irregular graphs with fewer edges take far longer.
    """
    m = len(graph.edges)
    if graph.n == 0:
        return 0
    if m == 0:
        return 1
    edges = graph.edges
    last = [-1] * graph.n
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    # completes[i]: the vertices whose palette is final once edge i is placed
    completes: list[list[int]] = [[] for _ in range(m)]
    for v, i in enumerate(last):
        if i >= 0:
            completes[i].append(v)

    palette = [0] * graph.n
    part_masks: list[int] = []
    best = graph.n + 1

    def rec(i: int, final: frozenset[int]):
        nonlocal best
        if i == m:
            best = len(final)
            return
        u, v = edges[i]
        bit = (1 << u) | (1 << v)
        done = completes[i]
        for j in range(len(part_masks) + 1):
            fresh = j == len(part_masks)
            if fresh:
                part_masks.append(0)
            elif part_masks[j] & bit:
                continue
            part_masks[j] |= bit
            jbit = 1 << j
            palette[u] |= jbit
            palette[v] |= jbit
            grown = final.union(palette[w] for w in done) if done else final
            if len(grown) < best:
                rec(i + 1, grown)
            palette[u] ^= jbit
            palette[v] ^= jbit
            if fresh:
                part_masks.pop()
            else:
                part_masks[j] ^= bit

    # isolated vertices all have the empty palette, final from the start
    rec(0, frozenset({0}) if -1 in last else frozenset())
    return best
