import pytest

from palettebox.coloring import EdgeColoring, palette_summary
from palettebox.graphs import ProductIndex, cartesian_product


def palette_sets(coloring):
    """Distinct palettes of a coloring as a set of frozensets."""
    return set(palette_summary(coloring).palette_sets())


@pytest.fixture
def petersen():
    from palettebox.graphs import petersen_graph

    return petersen_graph()


@pytest.fixture
def rule_coloring():
    """Color G box H edge by edge from two per-edge rules.

    The copy of G-edge i at H-vertex b gets g_color(i, b), and the copy
    of H-edge j at G-vertex a gets h_color(a, j).  Each construction's rule
    in this form is the oracle for the tables it passes to
    ``product_coloring``.
    """
    def color(g, h, g_color, h_color):
        idx = ProductIndex(g.n, h.n)
        mapping = {}
        for i, (u, v) in enumerate(g.edges):
            for b in range(h.n):
                mapping[idx.flat(u, b), idx.flat(v, b)] = g_color(i, b)
        for j, (x, y) in enumerate(h.edges):
            for a in range(g.n):
                mapping[idx.flat(a, x), idx.flat(a, y)] = h_color(a, j)
        return EdgeColoring.from_map(cartesian_product(g, h), mapping)
    return color


TORUS_STEPS = {"ascending-vertical": (0, 1), "descending-vertical": (0, -1), "horizontal": (1, 0)}


@pytest.fixture
def torus_edge():
    """Map a torus walk step (kind, j, k) of C_s box C_t to its undirected flat edge."""
    def edge(s, t, step):
        kind, j, k = step
        dj, dk = TORUS_STEPS[kind]
        u, v = j * t + k, (j + dj) % s * t + (k + dk) % t
        return min(u, v), max(u, v)
    return edge


@pytest.fixture(params=[
    ({"n": 2.5, "edges": [[0, 1]]}, "'n' must be an integer, got 2.5"),
    ({"n": True, "edges": []}, "'n' must be an integer, got True"),
    ({"n": 2, "edges": [[0, 1.0]]}, "endpoint of edge [0, 1.0] must be an integer, got 1.0"),
    ({"n": 2, "edges": [["0", "1"]]}, "endpoint of edge ['0', '1'] must be an integer, got '0'"),
    ({"n": 2, "edges": [[0, True]]}, "endpoint of edge [0, True] must be an integer, got True"),
], ids=["float-n", "bool-n", "float-endpoint", "string-endpoints", "bool-endpoint"])
def non_integer_graph(request):
    """A graph JSON object with a non-integer n or endpoint, and the error it must raise.

    A bool counts as an int in Python, but not as a vertex count or a vertex.
    """
    return request.param
