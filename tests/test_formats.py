import hashlib
import json

import pytest

from palettebox.coloring import EdgeColoring, palette_summary
from palettebox.formats import (
    certificate_to_json,
    class_coloring,
    coloring_from_json,
    coloring_to_json,
    default_style_map,
    dump_json,
    export_class_dot,
    export_dot,
    graph_from_json,
    graph_to_json,
    palettes_to_json,
    parse_graph_spec,
    torus_to_json,
)
from palettebox.graphs import (
    cartesian_product,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
)
from palettebox.oracle import palette_index_exact
from palettebox.solver import chromatic_index
from palettebox.torus import TorusDecomposition, torus_three_palette_coloring, z_set


def test_graph_json_roundtrip():
    g = petersen_graph()
    back = graph_from_json(graph_to_json(g))
    assert back == g
    assert back.tag == g.tag


def test_graph_json_without_provenance():
    obj = {"n": 3, "edges": [[0, 1], [1, 2]]}
    g = graph_from_json(obj)
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    assert g.provenance is None and g.tag == "graph(3)"
    assert graph_from_json({**obj, "provenance": ""}).tag == "graph(3)"


def test_graph_json_takes_only_integers(non_integer_graph):
    obj, message = non_integer_graph
    with pytest.raises(ValueError) as exc:
        graph_from_json(obj)
    assert str(exc.value) == f"graph JSON {message}"


def test_coloring_json_roundtrip():
    col = chromatic_index(cycle_graph(5)).witness
    obj = coloring_to_json(col)
    assert coloring_from_json(obj) == col
    # with an explicit graph the embedded one must agree
    assert coloring_from_json(obj, graph=cycle_graph(5)) == col
    with pytest.raises(ValueError):
        coloring_from_json(obj, graph=cycle_graph(7))


def test_coloring_json_rejects_an_edge_colored_twice():
    obj = {"graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
           "colors": [[0, 1, 1], [1, 0, 5], [0, 2, 2], [1, 2, 3]]}
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is colored twice"):
        coloring_from_json(obj)


def test_palettes_json_shape():
    col = chromatic_index(cycle_graph(4)).witness
    obj = palettes_to_json(palette_summary(col))
    assert obj["count"] == 1
    assert obj["palettes"] == [[1, 2]]
    assert set(obj["perVertex"]) == {"0", "1", "2", "3"}


def test_certificate_json_shape():
    obj = certificate_to_json(palette_index_exact(cycle_graph(5)))
    assert obj["lower"] == obj["upper"] == 3
    assert obj["exact"] is True
    assert obj["rule"]
    assert obj["witness"]["graph"]["n"] == 5


def test_torus_json_shape():
    dec = TorusDecomposition(5, 3)
    obj = torus_to_json(dec)
    assert len(obj["zSets"]) == 3
    assert all(len(w) == 10 for w in obj["zSets"])
    assert obj["zSets"][0][:2] == [["ascending-vertical", 0, 0], ["horizontal", 0, 1]]
    assert len(obj["classes"]) == 3


@pytest.mark.parametrize("s, t, digest", [
    (13, 11, "f705e7040c5fc3bcd711890cc89014ae61e6c757ab7396946dda62253d67158f"),
    (41, 39, "0e7a5755e4de175ea72cb26d3fc5cc10d83f1d3bc95f2d5dd561d565e6770cda"),
])
def test_torus_json_bytes_are_pinned(s, t, digest):
    text = dump_json(torus_to_json(TorusDecomposition(s, t)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_dump_json_is_stable():
    g = cycle_graph(4)
    assert dump_json(graph_to_json(g)) == dump_json(graph_to_json(g))
    parsed = json.loads(dump_json(graph_to_json(g)))
    assert parsed["n"] == 4


@pytest.mark.parametrize("spec, expected", [
    ("P4", path_graph(4)),
    ("c5", cycle_graph(5)),
    ("Q3", hypercube_graph(3)),
    ("petersen", petersen_graph()),
])
def test_parse_graph_spec_generators(spec, expected):
    assert parse_graph_spec(spec) == expected


def test_parse_graph_spec_reads_files(tmp_path):
    target = tmp_path / "graph.json"
    target.write_text(dump_json(graph_to_json(petersen_graph())))
    assert parse_graph_spec(str(target)) == petersen_graph()


def test_parse_graph_spec_rejects_unknown():
    with pytest.raises(ValueError):
        parse_graph_spec("X9")
    with pytest.raises(ValueError):
        parse_graph_spec("no/such/file.json")


def test_export_dot_rejects_improper():
    p3 = path_graph(3)
    bad = EdgeColoring.from_map(p3, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        export_dot(bad)


def test_export_dot_contains_every_edge():
    col = chromatic_index(petersen_graph()).witness
    dot = export_dot(col, name="pete")
    assert dot.startswith('graph "pete" {')
    assert dot.rstrip().endswith("}")
    for u, v in petersen_graph().edges:
        assert f"{u} -- {v}" in dot


def test_default_style_map_cycles_styles():
    styles = default_style_map(range(1, 13))
    assert len(styles) == 12
    assert len({s for s in styles.values()}) == 12


def test_class_dot_export():
    dec = TorusDecomposition(5, 5)
    dot = export_class_dot(dec)
    assert dot.count("--") == len(cartesian_product(cycle_graph(5), cycle_graph(5)).edges)
    labels = {line.split("label=")[1].split(",")[0]
              for line in dot.splitlines() if "label=" in line}
    assert labels == {"1", "2", "3"}


def test_class_dot_bytes_are_pinned():
    dot = export_class_dot(TorusDecomposition(7, 7))
    assert hashlib.sha256(dot.encode()).hexdigest() == (
        "5b1aff60bce0c56ad85e583795d73b3bae4825cfc9a2b817d57e7d855db053e0")


def test_class_coloring_uses_one_color_per_class():
    dec = TorusDecomposition(5, 3)
    col = class_coloring(dec)
    assert col.used_colors() == frozenset({1, 2, 3})


@pytest.mark.parametrize(
    "s, t", [(s, t) for t in (3, 5, 7, 9) for s in (t, t + 2, t + 4)] + [(13, 3), (25, 7)])
def test_class_coloring_colors_each_walk_by_its_class(s, t, torus_edge):
    dec = TorusDecomposition(s, t)
    col = class_coloring(dec)
    for i in range(t):
        for step in z_set(s, t, i):
            assert col.color_of(*torus_edge(s, t, step)) == dec.class_of_walk(i) + 1


def test_torus_coloring_roundtrips_through_json():
    col = torus_three_palette_coloring(5, 3)
    assert coloring_from_json(coloring_to_json(col)) == col
