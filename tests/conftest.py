import pytest

from palettebox.coloring import palette_summary


def palette_sets(coloring):
    """Distinct palettes of a coloring as a set of frozensets."""
    return set(palette_summary(coloring).palette_sets())


@pytest.fixture
def petersen():
    from palettebox.graphs import petersen_graph

    return petersen_graph()


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
