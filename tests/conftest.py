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
