"""Resumable backtracking kernels with numba and pure-Python backends.

Two kernels serve three searches.  One searches a proper k-edge-coloring.
The other searches a proper coloring whose completed vertex palettes come
from a collection of at most ``p_target`` distinct masks.  The
minimum-palette search starts it with an empty collection, or with only
the empty palette of isolated vertices, and the collection grows as
vertices complete.  The family search starts it with the family, a list
of palette masks, already collected and ``p_target`` its size, and with
all k colors allowed at depth 0: every depth may then use every color,
which turns color-symmetry breaking off, as it must be since the family
fixes concrete colors.

Each kernel advances by at most ``node_limit`` nodes per call and leaves
its entire stack in the caller's arrays.  ``Search``, the one entry point
to all three searches, holds those arrays; its ``run`` calls the kernel
chunk by chunk, resumes a search paused by a node allowance or stopped by
the budget, and enforces wall-clock budgets between calls, so compiled
code never reads the clock.  Budget interruptions therefore cannot change
which solution is found, only whether the search finishes.

The same function bodies serve both backends: when numba is importable
they are compiled with ``njit`` and run compiled, and otherwise the
uncompiled originals run.  Each backend has its own buffer type, built by
one constructor per backend: int64 numpy arrays for numba, plain lists
of Python ints for the fallback, where indexing a list skips the boxing
of numpy scalars.

In the kernels color c is bit ``1 << c`` of every mask, so the next color
to try is the lowest set bit of one mask.  Usable colors stop at 62, bits
1 to 62, so that every mask fits the int64 slots of the numba buffers;
exact search beyond that is out of desk scale anyway.

A ``Search`` takes a ``Graph`` and returns an ``EdgeColoring`` with
colors in canonical edge order, so the order in which the kernels color
edges stays inside the search.  That order is the graph's cached
``completion_order``, which always takes next an edge whose endpoints
have the fewest uncolored edges left.  Vertices thus complete early, and
a completed vertex is where the palette searches learn a palette and can
prune on it.
"""

from __future__ import annotations

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


def _color_chunk_py(eu, ev, m, k, assign, vmask, opened, untried, pos, node_limit):
    """Extend a proper k-coloring depth-first; new colors ascend.

    Returns (status, pos, nodes).  ``assign[d]`` is the bit of the color
    at depth d, 1 before the depth's first try, set in ``vmask`` only
    while the search sits deeper; ``opened[d]`` has the colors opened
    above d and the next new one, up to k.  The first visit to depth d
    computes its candidates, the opened colors that neither endpoint has,
    and ``untried[d]`` keeps those not tried yet.  Everything the
    candidates depend on is restored when the search backtracks to d, so
    a return to d, or a call resuming at a depth with ``assign[d] != 1``,
    takes the lowest untried bit.
    """
    top = 1 << k
    d = pos
    nodes = 0
    while True:
        if nodes >= node_limit:
            return PAUSED, d, nodes
        nodes += 1
        u = eu[d]
        v = ev[d]
        if assign[d] == 1:
            free = opened[d] & ~(vmask[u] | vmask[v])
        else:
            free = untried[d]
        if free:
            bit = free & -free
            untried[d] = free ^ bit
            assign[d] = bit
            vmask[u] |= bit
            vmask[v] |= bit
            allowed = opened[d]
            opened[d + 1] = allowed | bit << 1 if allowed >> 1 < bit < top else allowed
            d += 1
            if d == m:
                return FOUND, d, nodes
        else:
            assign[d] = 1
            d -= 1
            if d < 0:
                return EXHAUSTED, d, nodes
            bit = assign[d]
            vmask[eu[d]] ^= bit
            vmask[ev[d]] ^= bit


def _pcount_chunk_py(eu, ev, m, k, deg, p_target, assign, vmask, opened, untried,
                     deg_left, distinct, dsize, added, r_us, r_vs, dcount, pos, node_limit):
    """Proper-coloring search allowing at most p_target distinct palettes.

    ``vmask`` doubles as the running palette of each vertex.  A vertex is
    complete once its last incident edge is colored; completed palettes
    are collected in ``distinct[:dcount]`` (sizes in ``dsize``, the
    vertex's degree, as a proper palette has one color per edge) and may
    never exceed p_target distinct values.

    Every candidate test asks one question: does some collected palette
    of x's degree hold x's colors plus c?  A complete palette has exactly
    deg(x) colors, so for a completing x that is the same as equalling a
    collected palette.  The first visit to a depth therefore reads the
    collection once per endpoint it constrains, into r_x, the union of the
    collected palettes of x's degree that hold x's colors, and tests every
    candidate c with one AND against it.  With the collection full, both
    endpoints must pass (a completing vertex may add no palette, a partial
    one must fit a palette it can still complete to), which prunes hard.
    With one slot left, two completing endpoints with different palettes
    must not both be new.  Otherwise every candidate passes, and r_x only
    says whether a completed palette is new.  A candidate that fails is
    never committed, so filtering before the pick visits the nodes a test
    per candidate would.

    The caller may seed the collection: ``distinct[:dcount]`` entries
    present at the start are never removed, since backtracking removes
    only what ``added`` records.  Seeding ``dcount = p_target`` fixes the
    palettes outright.  ``assign``, ``opened`` and ``untried`` are as in
    the coloring kernel: ``opened[0]`` holding color 1 alone opens colors
    in turn, and all k colors let every depth use all k.  The collection
    and ``deg_left`` are restored on backtracking too, so that visit also
    keeps r_u and r_v in ``r_us[d]`` and ``r_vs[d]``, and a return to d
    does not read the collection again.

    Returns (status, dcount, pos, nodes).
    """
    top = 1 << k
    d = pos
    nodes = 0
    while True:
        if nodes >= node_limit:
            return PAUSED, dcount, d, nodes
        nodes += 1
        u = eu[d]
        v = ev[d]
        mu = vmask[u]
        mv = vmask[v]
        done_u = deg_left[u] == 1
        done_v = deg_left[v] == 1
        if assign[d] == 1:
            free = opened[d] & ~(mu | mv)
            full = dcount == p_target
            r_u = 0
            r_v = 0
            if free != 0 and (full or done_u):
                du = deg[u]
                for i in range(dcount):
                    s = distinct[i]
                    if dsize[i] == du and (mu & s) == mu:
                        r_u |= s
                if full:
                    free &= r_u
            if free != 0 and (full or done_v):
                dv = deg[v]
                for i in range(dcount):
                    s = distinct[i]
                    if dsize[i] == dv and (mv & s) == mv:
                        r_v |= s
                if full:
                    free &= r_v
            if done_u and done_v and mu != mv and dcount + 1 == p_target:
                free &= r_u | r_v
            r_us[d] = r_u
            r_vs[d] = r_v
        else:
            free = untried[d]
            r_u = r_us[d]
            r_v = r_vs[d]
        if free != 0:
            bit = free & -free
            untried[d] = free ^ bit
            assign[d] = bit
            vmask[u] = mu | bit
            vmask[v] = mv | bit
            deg_left[u] -= 1
            deg_left[v] -= 1
            n_new = 0
            if done_u and (bit & r_u) == 0:
                distinct[dcount] = mu | bit
                dsize[dcount] = deg[u]
                dcount += 1
                n_new = 1
            # equal palettes of u and v are one new palette
            if done_v and (bit & r_v) == 0 and (n_new == 0 or mu != mv):
                distinct[dcount] = mv | bit
                dsize[dcount] = deg[v]
                dcount += 1
                n_new += 1
            added[d] = n_new
            allowed = opened[d]
            opened[d + 1] = allowed | bit << 1 if allowed >> 1 < bit < top else allowed
            d += 1
            if d == m:
                return FOUND, dcount, d, nodes
        else:
            assign[d] = 1
            d -= 1
            if d < 0:
                return EXHAUSTED, dcount, d, nodes
            bit = assign[d]
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
# the search object


class Search:
    """One budgeted, resumable search of ``graph``, coloring edges along its ``completion_order``.

    Without ``p`` it is the coloring search with colors in [k]; with it the
    count search with at most p distinct palettes; with ``family``, a list
    of palette masks (bit c for color c, 0 for the empty palette), the
    family search, whose k and p are the family's largest color and size.
    Each is seeded as the module docstring says.  Input the kernels cannot
    run is settled here, so ``run`` never starts them and the graph makes
    no order for them: an edgeless graph has the empty coloring, and no
    coloring exists with k <= 0 or with p below the palettes that are
    forced (the empty one of isolated vertices, and one more if there are
    edges).  An empty family, a family mask with bit 0, which the kernels
    keep for an untried depth, and more colors than ``MAX_COLORS``, which
    overflow the int64 buffers, raise ``ValueError``.
    """

    __slots__ = ("graph", "_step", "_args", "_state", "_assign", "_settled")

    def __init__(self, graph: Graph, k: Optional[int] = None, p: Optional[int] = None,
                 family=None):
        if family is not None:
            if not family or any(mask & 1 for mask in family):
                raise ValueError("palette family must be nonempty, without color 0")
            k, p = max(family).bit_length() - 1, len(family)
        self.graph = graph
        self._settled = None
        # a p below the forced palettes would seed more palettes than ``distinct`` holds
        forced = (0 in graph.degrees) + bool(graph.edges)
        if graph.edges and k <= 0 or p is not None and p < forced:
            self._settled = EXHAUSTED, None
        elif not graph.edges:
            self._settled = FOUND, EdgeColoring(graph, ())
        elif k > MAX_COLORS:
            raise ValueError(f"color count {k} exceeds the kernel limit of {MAX_COLORS}")
        if self._settled is not None:
            return
        order = graph.completion_order
        m = len(order)
        color_step, palette_step, buf = _backend()
        self._assign = assign = buf([1] * m)
        eu = buf(graph.edges[i][0] for i in order)
        ev = buf(graph.edges[i][1] for i in order)
        if p is None:
            self._step, self._state = color_step, [0]
            self._args = (eu, ev, m, k, assign, buf([0] * graph.n), buf([2] + [0] * m),
                          buf([0] * m))
            return
        seed = family if family is not None else [0] if 0 in graph.degrees else []
        free = [0] * (p + 1 - len(seed))
        self._step = palette_step
        self._args = (eu, ev, m, k, buf(graph.degrees), p, assign, buf([0] * graph.n),
                      buf([2 if family is None else (2 << k) - 2] + [0] * m), buf([0] * m),
                      buf(graph.degrees), buf(seed + free),
                      buf([mask.bit_count() for mask in seed] + free),
                      buf([0] * m), buf([0] * m), buf([0] * m))
        self._state = [len(seed), 0]

    def run(self, budget=None, allowance=None):
        """Run chunk by chunk until the search settles, the budget runs out or ``allowance`` is spent.

        Returns (status, coloring or None): FOUND, EXHAUSTED, BUDGET, or
        PAUSED once ``allowance`` nodes are spent; the next call resumes a
        BUDGET or PAUSED search where it stopped.  Each kernel call is
        ``step(*args, *state, node_limit)`` and returns ``(status, *state,
        nodes)``, ``state`` being the scalars the kernel resumes from.  On
        FOUND, ``assign[d]`` is the bit of the color of edge
        ``completion_order[d]``, and ``int()`` turns numba's int64 values
        into Python ints.
        """
        if self._settled is not None:
            return self._settled
        step, args, state = self._step, self._args, self._state
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
                order = self.graph.completion_order
                colors = [0] * len(order)
                for slot, c in zip(order, self._assign):
                    colors[slot] = int(c).bit_length() - 1
                self._settled = FOUND, EdgeColoring(self.graph, tuple(colors))
                return self._settled
            if status == EXHAUSTED:
                self._settled = EXHAUSTED, None
                return self._settled

