"""Even-cycle decomposition and 3-palette colorings of odd torus grids.

The edge set of C_s box C_t (s >= t >= 3, both odd) splits into t closed
walks Z_0..Z_{t-1}, each alternating vertical and horizontal edges and
using every row of the grid exactly twice, so each Z_i is a single cycle
of length 2s.  In closed form, with ell = ((s-t)/2) mod t, the vertical
edge (j,k)-(j,k+1) and the horizontal edge (j,k)-(j+1,k) lie on

    Z_i,  i = (k - j - [horizontal]) mod t    for rows j < ell,
          i = (k + j - 2*ell + 1) mod t       for rows j >= ell,

so a coloring by walk needs no walk at all.  Within one row and one
edge direction the walk index is the column shifted by a constant, so
the closed form is kept once, as the walk-offset table
``TorusDecomposition.walk_offsets``: the edge of direction ``vertical``
leaving (j, k) lies on Z_i with i = (k + walk_offsets[vertical][j]) mod t.
Grouping the Z_i by i mod 3 gives three classes, each a disjoint union
of even cycles; coloring class j's horizontal edges 2j+1 and vertical
edges 2j+2 is proper and leaves exactly three distinct vertex palettes.

Vertices are (row j, column k) with j in [s], k in [t], flattened
row-major to j*t + k.  ``z_set`` builds a walk as a tuple of (kind, j, k)
steps in walk order: from (j, k), an ascending-vertical step goes to
(j, k+1), a descending-vertical step to (j, k-1) and a horizontal step
to (j+1, k), with wraparound.  The checks build each walk in turn, step
through it in integer coordinates, test every edge against the offset
table and then drop it, so no walk is stored.
A walk that closes up after 2s steps and repeats no vertex is a cycle
of even length 2s, so a class whose walks share no vertex is a disjoint
union of even cycles.  For s < t use commutativity: decompose the
transposed grid and map edges through the coordinate swap.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Callable

from palettebox._record import frozen
from palettebox.coloring import EdgeColoring, product_coloring
from palettebox.graphs import Graph, cycle_graph

ASCENDING = "ascending-vertical"
DESCENDING = "descending-vertical"
HORIZONTAL = "horizontal"

# One step of a walk: (kind, j, k), leaving (j, k) in the direction ``kind``.
Step = tuple[str, int, int]


def _check_odd_pair(s: int, t: int):
    if not (s >= t >= 3):
        raise ValueError(f"need s >= t >= 3, got s={s}, t={t} (swap factors: the product commutes)")
    if s % 2 == 0 or t % 2 == 0:
        raise ValueError("both cycle lengths must be odd")


def z_set(s: int, t: int, i: int) -> tuple[Step, ...]:
    """The i-th closed walk of the decomposition, edges in walk order.

    Starting at (0, i) the walk ascends for ell rows, then descends for
    the remaining rows, moving one row down after every vertical step;
    ell = ((s-t)/2) mod t and h = floor((s-t)/(2t)) balance the column
    drift so the walk closes up after visiting each row twice.
    """
    _check_odd_pair(s, t)
    if not (0 <= i < t):
        raise ValueError(f"walk index {i} out of range [0, {t})")
    ell = ((s - t) // 2) % t
    h = (s - t) // (2 * t)
    walk: list[Step] = []
    for j in range(ell):
        walk.append((ASCENDING, j, (i + j) % t))
        walk.append((HORIZONTAL, j, (i + j + 1) % t))
    for j in range(ell):
        walk.append((DESCENDING, j + ell, (i - j + ell) % t))
        walk.append((HORIZONTAL, j + ell, (i - j + ell - 1) % t))
    for j in range(t * (2 * h + 1)):
        walk.append((DESCENDING, j + 2 * ell, (i - j) % t))
        walk.append((HORIZONTAL, j + 2 * ell, (i - j - 1) % t))
    return tuple(walk)


@frozen
class TorusDecomposition:
    """The t walks of C_s box C_t, kept as their closed form, plus their classes by index mod 3."""

    s: int
    t: int

    def __post_init__(self):
        _check_odd_pair(self.s, self.t)

    @property
    def ell(self) -> int:
        return ((self.s - self.t) // 2) % self.t

    @property
    def shift(self) -> int:
        return (self.s - self.t) // (2 * self.t)

    def class_of_walk(self, i: int) -> int:
        """Class index of walk Z_i.

        Walks with consecutive indices (mod t) share vertices, so the
        assignment must be a proper 3-coloring of the index cycle.  Plain
        i mod 3 fails exactly when t = 1 (mod 3): the wrap pair Z_{t-1},
        Z_0 would collide.  Moving the last walk to class 1 repairs that
        case (its neighbours Z_{t-2} and Z_0 sit in classes 2 and 0).
        """
        if self.t % 3 == 1 and i == self.t - 1:
            return 1
        return i % 3

    @cached_property
    def walk_offsets(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per edge direction and row j, the shift from column to walk index.

        ``walk_offsets[vertical][j]`` is the offset o with Z_i, i = (k + o)
        mod t, the walk through the edge of that direction leaving (j, k):
        ``z_set`` solved for i, one row at a time.
        """
        s, t, ell = self.s, self.t, self.ell
        below = [(j - 2 * ell + 1) % t for j in range(ell, s)]
        across = [(-j - 1) % t for j in range(ell)] + below
        along = [-j % t for j in range(ell)] + below
        return tuple(across), tuple(along)

    @cached_property
    def walk_checks(self) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
        """Per walk Z_i, the problems ``_step_walk`` finds and its class clash, if any.

        The one pass over the walks that ``verify_partition`` and
        ``even_cycle_classes`` read.  Z_i clashes when it shares a vertex
        with an earlier walk of its class.
        """
        seen: list[set[int]] = [set(), set(), set()]
        checks = []
        for i in range(self.t):
            problems, vertices = _step_walk(self, i)
            c = self.class_of_walk(i)
            clash = () if seen[c].isdisjoint(vertices) else (
                f"class {c}: Z_{i} shares a vertex with another walk of the class",)
            seen[c] |= vertices
            checks.append((tuple(problems), clash))
        return tuple(checks)

    def walk_of(self, j: int, k: int, vertical: bool) -> int:
        """Index i of the walk Z_i through one edge, read off ``walk_offsets``.

        The edge is (j,k)-(j,k+1) if vertical and (j,k)-(j+1,k) if not,
        with j in [s].
        """
        return (k + self.walk_offsets[vertical][j]) % self.t

    def edge_coloring(self, color: Callable[[int, bool], int]) -> EdgeColoring:
        """Color every edge by ``color(i, vertical)``, where Z_i is its walk."""
        t = self.t
        rows, cols = cycle_graph(self.s), cycle_graph(t)
        across, along = self.walk_offsets
        h_colors = [color(i, False) for i in range(t)]
        v_colors = [color(i, True) for i in range(t)]

        def rotated(colors, columns, offsets):
            # per offset o, the colors of walks k + o for k in columns; rows
            # with one offset share the tuple
            pick = itemgetter(*columns)
            table = {o: pick(colors[o:] + colors[:o]) for o in set(offsets)}
            return [table[o] for o in offsets]
        # a row edge leaving row j meets column k on walk k + across[j]; the
        # column edge leaving column k in row j lies on walk k + along[j]
        return product_coloring(
            rows, cols,
            rotated(h_colors, range(t), [across[j] for j in _edge_starts(rows)]),
            rotated(v_colors, _edge_starts(cols), along))


def _edge_starts(cycle: Graph) -> list[int]:
    """Per cycle edge (u, u+1), its start u; the closing edge (0, n-1) starts at n-1."""
    return [u if v == u + 1 else v for u, v in cycle.edges]


def _step_walk(dec: TorusDecomposition, i: int) -> tuple[list[str], set[int]]:
    """Problems of the walk Z_i that ``z_set`` builds, and the flat vertices it leaves from.

    One pass in integer coordinates checks that the walk has 2s edges,
    each on the grid and starting where the last one ended, that it closes
    up, that it repeats no edge and no vertex, and that ``walk_offsets``
    puts every edge on Z_i.
    """
    s, t = dec.s, dec.t
    walk = z_set(s, t, i)
    problems = []
    if len(walk) != 2 * s:
        problems.append(f"Z_{i} has {len(walk)} edges, expected {2 * s}")
    vertices: set[int] = set()
    if not walk:
        return problems, vertices
    edges: set[int] = set()
    across, along = dec.walk_offsets
    stray = None
    steps = 0
    start = here = walk[0][1] * t + walk[0][2]
    for step in walk:
        kind, j, k = step
        if not (0 <= j < s and 0 <= k < t):
            problems.append(f"Z_{i} leaves the grid at {step}")
            break
        v = j * t + k
        if v != here:
            problems.append(f"Z_{i} breaks at {step}: walk is at {divmod(here, t)}, "
                            f"edge starts at {(j, k)}")
            break
        # a vertical edge is named by its lower column: descending from (j, k) starts at (j, k-1)
        if kind == HORIZONTAL:
            vertical, low, offset = False, k, across[j]
            here = (j + 1) % s * t + k
        elif kind == ASCENDING:
            vertical, low, offset = True, k, along[j]
            here = j * t + (k + 1) % t
        elif kind == DESCENDING:
            vertical, low, offset = True, (k - 1) % t, along[j]
            here = j * t + low
        else:
            problems.append(f"Z_{i} has a step of unknown kind {kind!r}")
            break
        vertices.add(v)
        edges.add(2 * (j * t + low) + vertical)
        steps += 1
        if (low + offset) % t != i and stray is None:
            stray = step
    else:
        if here != start:
            problems.append(f"Z_{i} does not close up (ends at {divmod(here, t)})")
    if len(edges) != steps:
        problems.append(f"Z_{i} repeats an edge")
    if len(vertices) != steps:
        problems.append(f"Z_{i} revisits a vertex, so it is not a single cycle")
    if stray is not None:
        problems.append(f"Z_{i} holds edges of other walks, first {stray}")
    return problems, vertices


def verify_partition(dec: TorusDecomposition) -> tuple[bool, list[str]]:
    """Check that the walks are disjoint simple 2s-cycles covering every edge.

    Each Z_i must be a closed simple walk of 2s distinct edges, all with
    ``walk_of == i``.  Then no edge lies on two walks, and the t walks
    hold 2st = |E| distinct edges, so they cover the torus.
    """
    problems = [p for walk_problems, _ in dec.walk_checks for p in walk_problems]
    return not problems, problems


def even_cycle_classes(dec: TorusDecomposition) -> tuple[bool, list[str]]:
    """Check that each class of walks is a disjoint union of even cycles.

    Each Z_i must be a closed simple walk of 2s edges, so a cycle of even
    length, and walks of one class (``class_of_walk``) must share no
    vertex, so their cycles are disjoint.
    """
    problems = [p for walk_problems, clash in dec.walk_checks for p in walk_problems + clash]
    return not problems, problems


def torus_three_palette_coloring(s: int, t: int) -> EdgeColoring:
    """Proper 6-coloring of C_s box C_t with exactly three palettes.

    Class j gets color 2j+1 on horizontal edges and 2j+2 on vertical
    ones.  Every vertex lies on exactly two walks from different classes,
    so the palettes are {1,2,3,4}, {1,2,5,6} and {3,4,5,6}.
    """
    dec = TorusDecomposition(s, t)
    return dec.edge_coloring(lambda i, vertical: 2 * dec.class_of_walk(i) + (2 if vertical else 1))
