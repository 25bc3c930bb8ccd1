"""Resumable backtracking kernels with numba and pure-Python backends.

Two kernels serve three searches.  One searches a proper k-edge-coloring.
The other searches a proper coloring whose completed vertex palettes come
from a collection of at most ``p_target`` distinct masks.  The
minimum-palette search starts it with an empty collection, or with only
the empty palette of isolated vertices, and the collection grows as
vertices complete.  The family search starts it with the family already
collected and ``p_target`` its size, and with ``maxused[0] = k``: the cap
on new colors is then k at every depth, which turns color-symmetry
breaking off, as it must be since the family fixes concrete colors.

Each kernel advances by at most ``node_limit`` nodes per call and leaves
its entire stack in the caller's arrays; ``_drive`` calls it chunk by
chunk, resuming a search paused by a node allowance, and enforces
wall-clock budgets between calls, so compiled code never reads the
clock.  Budget interruptions therefore cannot change which solution is
found, only whether the search finishes.

The same function bodies serve both backends: when numba is importable
they are compiled with ``njit`` and run compiled, and otherwise the
uncompiled originals run.  Each backend has its own buffer type, built by
one constructor per backend: int64 numpy arrays for numba, plain lists
of Python ints for the fallback, where indexing a list skips the boxing
of numpy scalars.

Colors are tracked in bitmasks (bit c-1 for color c).  Both backends
cap usable colors at 62, so that every mask fits the int64 slots of the
numba buffers; exact search beyond that is out of desk scale anyway.

The three searches take a ``Graph`` and return an ``EdgeColoring`` with
colors in canonical edge order, so the order in which the kernels color
edges stays in this module.  They color edges in the order of
``edge_order``, which always takes next an edge whose endpoints have the
fewest uncolored edges left.  Vertices thus complete early, and a
completed vertex is where the palette searches learn a palette and can
prune on it.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Optional

from palettebox._record import frozen
from palettebox.coloring import EdgeColoring
from palettebox.graphs import Graph

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False


MAX_COLORS = 62

FOUND = 1
EXHAUSTED = 0
PAUSED = 2
BUDGET = 3

# A kernel call runs about _CHUNK_SECONDS, sized from the node rate of the
# previous call, so a wall-clock budget is overshot by about that much.  The
# first call of a tracker, with no rate measured yet, runs the minimum.
_CHUNK_SECONDS = 0.02
_MIN_CHUNK_NODES = 1 << 10
_MAX_CHUNK_NODES = 1 << 22


def active_backend() -> str:
    """The kernel backend: numba whenever it is importable, python otherwise."""
    return "numba" if HAS_NUMBA else "python"


# ---------------------------------------------------------------------------
# kernel bodies (compiled and interpreted from the same source)


def _color_chunk_py(eu, ev, m, k, assign, vmask, maxused, pos, node_limit):
    """Extend a proper k-coloring depth-first; new colors ascend.

    Returns (status, pos, nodes).  At depth d, ``assign[d]`` is the last
    color tried there; its bits are set only while the search sits deeper.
    """
    d = pos
    nodes = 0
    while True:
        if nodes >= node_limit:
            return PAUSED, d, nodes
        nodes += 1
        u = eu[d]
        v = ev[d]
        both = vmask[u] | vmask[v]
        cap = maxused[d] + 1
        if cap > k:
            cap = k
        c = assign[d] + 1
        while c <= cap and (both >> (c - 1)) & 1 == 1:
            c += 1
        if c <= cap:
            assign[d] = c
            bit = 1 << (c - 1)
            vmask[u] |= bit
            vmask[v] |= bit
            maxused[d + 1] = c if c > maxused[d] else maxused[d]
            d += 1
            if d == m:
                return FOUND, d, nodes
        else:
            assign[d] = 0
            d -= 1
            if d < 0:
                return EXHAUSTED, d, nodes
            bit = 1 << (assign[d] - 1)
            vmask[eu[d]] ^= bit
            vmask[ev[d]] ^= bit


def _pcount_chunk_py(eu, ev, m, k, deg, p_target, assign, vmask, maxused,
                     deg_left, distinct, dsize, added, dcount, pos, node_limit):
    """Proper-coloring search allowing at most p_target distinct palettes.

    ``vmask`` doubles as the running palette of each vertex.  A vertex is
    complete once its last incident edge is colored; completed palettes
    are collected in ``distinct[:dcount]`` (sizes in ``dsize``, the
    vertex's degree, as a proper palette has one color per edge) and may
    never exceed p_target distinct values.  Once the cap is reached, every
    partially colored vertex must still fit inside some collected palette
    of its exact degree, which prunes hard.

    The caller may seed the collection: ``distinct[:dcount]`` entries
    present at the start are never removed, since backtracking removes
    only what ``added`` records.  Seeding ``dcount = p_target`` fixes the
    palettes outright.  ``maxused[0]`` seeds the symmetry-breaking cap:
    0 lets depth 0 open color 1 only, k lets every depth use all k colors.

    Returns (status, dcount, pos, nodes).
    """
    d = pos
    nodes = 0
    while True:
        if nodes >= node_limit:
            return PAUSED, dcount, d, nodes
        nodes += 1
        u = eu[d]
        v = ev[d]
        both = vmask[u] | vmask[v]
        cap = maxused[d] + 1
        if cap > k:
            cap = k
        c = assign[d] + 1
        committed = False
        while c <= cap:
            if (both >> (c - 1)) & 1 == 0:
                bit = 1 << (c - 1)
                new_u = vmask[u] | bit
                new_v = vmask[v] | bit
                ok = True
                n_new = 0
                w1 = -1
                w2 = -1
                if deg_left[u] == 1:
                    hit = False
                    for i in range(dcount):
                        if distinct[i] == new_u:
                            hit = True
                            break
                    if not hit:
                        w1 = new_u
                        n_new = 1
                elif dcount == p_target:
                    fits = False
                    for i in range(dcount):
                        if (new_u & ~distinct[i]) == 0 and dsize[i] == deg[u]:
                            fits = True
                            break
                    ok = fits
                if ok:
                    if deg_left[v] == 1:
                        hit = new_v == w1
                        if not hit:
                            for i in range(dcount):
                                if distinct[i] == new_v:
                                    hit = True
                                    break
                        if not hit:
                            w2 = new_v
                            n_new += 1
                    elif dcount == p_target:
                        fits = False
                        for i in range(dcount):
                            if (new_v & ~distinct[i]) == 0 and dsize[i] == deg[v]:
                                fits = True
                                break
                        ok = fits
                if ok and dcount + n_new > p_target:
                    ok = False
                if ok:
                    assign[d] = c
                    vmask[u] = new_u
                    vmask[v] = new_v
                    deg_left[u] -= 1
                    deg_left[v] -= 1
                    if w1 >= 0:
                        distinct[dcount] = w1
                        dsize[dcount] = deg[u]
                        dcount += 1
                    if w2 >= 0:
                        distinct[dcount] = w2
                        dsize[dcount] = deg[v]
                        dcount += 1
                    added[d] = n_new
                    maxused[d + 1] = c if c > maxused[d] else maxused[d]
                    committed = True
                    break
            c += 1
        if committed:
            d += 1
            if d == m:
                return FOUND, dcount, d, nodes
        else:
            assign[d] = 0
            d -= 1
            if d < 0:
                return EXHAUSTED, dcount, d, nodes
            bit = 1 << (assign[d] - 1)
            u = eu[d]
            v = ev[d]
            vmask[u] ^= bit
            vmask[v] ^= bit
            deg_left[u] += 1
            deg_left[v] += 1
            dcount -= added[d]


if HAS_NUMBA:
    _color_chunk_nb = njit(cache=True)(_color_chunk_py)
    _pcount_chunk_nb = njit(cache=True)(_pcount_chunk_py)


def _int64(xs):
    """An int64 numpy array of xs, the numba backend's buffer.

    numpy is imported here, by its one user, so that a start-up without
    numba never loads it.
    """
    import numpy

    return numpy.asarray(list(xs), dtype=numpy.int64)


def _backend():
    """The active backend's two kernels and the constructor of their buffers.

    The constructor turns an iterable of ints into the buffer type the
    kernels run on: an int64 array for numba, a plain list otherwise.
    """
    if HAS_NUMBA:
        return _color_chunk_nb, _pcount_chunk_nb, _int64
    return _color_chunk_py, _pcount_chunk_py, list


# ---------------------------------------------------------------------------
# budgets


@frozen
class SearchBudget:
    """Limits for exhaustive searches.

    ``max_nodes`` bounds backtracking nodes; ``max_seconds`` bounds wall
    time, checked between kernel chunks.  All searches are single worker
    and order-deterministic, so with ``max_seconds`` None the outcome
    depends only on the node budget and is reproducible across machines.
    """

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        for name in ("max_nodes", "max_seconds"):
            value = getattr(self, name)
            # written so that NaN, which compares false to everything, fails too
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


class BudgetTracker:
    """Mutable consumption state shared by the searches of one operation."""

    def __init__(self, budget: Optional[SearchBudget]):
        budget = budget if budget is not None else SearchBudget()
        self.max_nodes = budget.max_nodes
        self.max_seconds = budget.max_seconds
        self.started = time.monotonic()
        self.nodes = 0
        self._chunk_nodes = _MIN_CHUNK_NODES
        self._chunk_started = self.started

    def exceeded(self) -> bool:
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            return True
        if self.max_seconds is not None and time.monotonic() - self.started >= self.max_seconds:
            return True
        return False

    def next_chunk(self) -> int:
        """Node limit of the kernel call about to start; 0 once max_nodes is spent."""
        self._chunk_started = time.monotonic()
        if self.max_nodes is None:
            return self._chunk_nodes
        return max(0, min(self._chunk_nodes, self.max_nodes - self.nodes))

    def add_nodes(self, nodes: int) -> None:
        """Charge a finished kernel call and size the next one from its rate."""
        nodes = int(nodes)
        self.nodes += nodes
        if nodes > 0:
            elapsed = max(time.monotonic() - self._chunk_started, 1e-6)
            size = int(nodes / elapsed * _CHUNK_SECONDS)
            self._chunk_nodes = min(_MAX_CHUNK_NODES, max(_MIN_CHUNK_NODES, size))


class BudgetExhausted(RuntimeError):
    """Raised when the search budget runs out before a step is classified."""


def ensure_tracker(budget) -> BudgetTracker:
    if isinstance(budget, BudgetTracker):
        return budget
    return BudgetTracker(budget)


# ---------------------------------------------------------------------------
# edge order


def edge_order(graph: Graph) -> list[int]:
    """Edge positions in completion order: each next edge finishes vertices soonest.

    With ``left[x]`` the number of x's edges not yet in the order, the
    next edge is the one whose key (min(left[u], left[v]),
    max(left[u], left[v]), position) is smallest.  A vertex is complete
    once its last edge is colored, and only then is its palette known;
    the palette-count search prunes at completed vertices, so visiting
    them early makes the cap bite near the root instead of deep in the
    tree.

    The keys are single ints, (min * (Delta+1) + max) * m + position, in
    a heap.  ``left`` only falls, so an edge's keys only fall too: its
    first entry to leave the heap is its current key, and the stale ones
    after it are skipped, or left in the heap once every edge is placed.
    O(m * Delta * log m) time.
    """
    edges = graph.edges
    m = len(edges)
    width = graph.max_degree + 1
    left = list(graph.degrees)
    incident: list[list[int]] = [[] for _ in range(graph.n)]
    heap = []
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
        a, b = left[u], left[v]
        heap.append((a * width + b if a < b else b * width + a) * m + i)
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    done = [False] * m
    order = []
    for _ in range(m):
        i = pop(heap) % m
        while done[i]:
            i = pop(heap) % m
        done[i] = True
        order.append(i)
        for x in edges[i]:
            left[x] -= 1
            for j in incident[x]:
                if not done[j]:
                    a, b = edges[j]
                    a, b = left[a], left[b]
                    push(heap, (a * width + b if a < b else b * width + a) * m + j)
    return order


# ---------------------------------------------------------------------------
# wrappers


def _drive(search, budget, allowance=None):
    """Run a search chunk by chunk until it settles, the budget runs out or ``allowance`` is spent.

    ``search`` is (graph, order, step, args, state, assign), as ``_search``
    builds it.  Each call is ``step(*args, *state, node_limit)`` and
    returns ``(status, *state, nodes)``; ``state``, the scalars the kernel
    resumes from, is updated in place, so a PAUSED search resumes on the
    next call.  Returns (status, coloring or None): on FOUND, ``assign[d]``
    colors edge ``order[d]``.  ``int()`` turns numba's int64 values into
    the Python ints ``EdgeColoring`` requires.
    """
    graph, order, step, args, state, assign = search
    tracker = ensure_tracker(budget)
    end = math.inf if allowance is None else tracker.nodes + allowance
    while True:
        chunk = tracker.next_chunk()
        if tracker.exceeded():
            return BUDGET, None
        if tracker.nodes >= end:
            return PAUSED, None
        status, *state[:], nodes = step(*args, *state, min(chunk, end - tracker.nodes))
        tracker.add_nodes(nodes)
        if status == FOUND:
            colors = [0] * len(order)
            for slot, c in zip(order, assign):
                colors[slot] = int(c)
            return FOUND, EdgeColoring(graph, tuple(colors))
        if status == EXHAUSTED:
            return EXHAUSTED, None


def _search(graph, order, k, p_target=None, family=None):
    """An unrun search of ``graph`` along ``order`` with colors in [k].

    Without ``p_target`` it is the coloring search; with it the count
    search, or with ``family``, a list of p_target masks, the family
    search, each seeded as the module docstring says.
    """
    m = len(order)
    color_step, palette_step, buf = _backend()
    assign = buf([0] * m)
    eu = buf(graph.edges[i][0] for i in order)
    ev = buf(graph.edges[i][1] for i in order)
    if p_target is None:
        args = (eu, ev, m, k, assign, buf([0] * graph.n), buf([0] * (m + 1)))
        return graph, order, color_step, args, [0], assign
    seed = family if family is not None else [0] if 0 in graph.degrees else []
    free = [0] * (p_target + 1 - len(seed))
    args = (eu, ev, m, k, buf(graph.degrees), p_target, assign, buf([0] * graph.n),
            buf([0 if family is None else k] + [0] * m), buf(graph.degrees), buf(seed + free),
            buf([bin(mask).count("1") for mask in seed] + free), buf([0] * m))
    return graph, order, palette_step, args, [len(seed), 0], assign


def _family_args(family) -> tuple[int, int, list[int]]:
    """``_search``'s (k, p_target, family) for ``family``, an iterable of color sets."""
    masks = []
    for pal in family:
        mask = 0
        for c in pal:
            if not (1 <= c <= MAX_COLORS):
                raise ValueError(f"family color {c} out of kernel range")
            mask |= 1 << (c - 1)
        masks.append(mask)
    if not masks:
        raise ValueError("palette family must be nonempty")
    return max(masks).bit_length(), len(masks), masks


def _run(graph, k, budget, *args):
    """``_search(graph, edge_order(graph), k, *args)`` run to the end, past the shared guards."""
    if not graph.edges:
        return FOUND, EdgeColoring(graph, ())
    if k <= 0:
        return EXHAUSTED, None
    if k > MAX_COLORS:
        raise ValueError(f"color count {k} exceeds the kernel limit of {MAX_COLORS}")
    return _drive(_search(graph, edge_order(graph), k, *args), budget)


def search_k_coloring(graph: Graph, k: int, budget=None):
    """Search a proper edge coloring of ``graph`` with colors in [k].

    Returns (status, coloring or None) with status FOUND, EXHAUSTED, or
    BUDGET.
    """
    return _run(graph, k, budget)


def search_palette_count(graph: Graph, k: int, p_target: int, budget=None):
    """Search a proper coloring with at most p_target distinct palettes.

    Isolated vertices contribute the empty palette, pre-seeded, and edges
    a nonempty one.  Returns (status, coloring or None).
    """
    if (0 in graph.degrees) + bool(graph.edges) > p_target:
        return EXHAUSTED, None
    return _run(graph, k, budget, p_target)


def search_palette_family(graph: Graph, family, budget=None):
    """Search a proper coloring whose vertex palettes all lie in ``family``.

    ``family`` is an iterable of color sets.  Infeasible immediately if
    some vertex degree matches no family member's size.  The palette
    kernel runs with the family as its full collection and with every
    color allowed at every depth.
    """
    k, p_target, masks = _family_args(family)
    sizes = {bin(mask).count("1") for mask in masks}
    if any(d not in sizes for d in graph.degrees):
        return EXHAUSTED, None
    return _run(graph, k, budget, p_target, masks)
