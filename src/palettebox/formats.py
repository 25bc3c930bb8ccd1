"""JSON and DOT serialization plus the tiny graph-spec language of the CLI.

Graph JSON: {"n": int, "edges": [[u,v],...], "provenance": str?} with
edges sorted lexicographically.  Coloring JSON: {"graph": ..., "colors":
[[u,v,c],...]}.  Certificates, palette reports and torus decompositions
get their own shapes below.  Graph specs accept generator names like
"C5", "P4", "Q3", "K7", "petersen", or a path to a graph JSON file.
"""

from __future__ import annotations

import json
import os
import re
from typing import TYPE_CHECKING, Optional

from palettebox.coloring import EdgeColoring, PaletteSummary, check_proper
from palettebox.graphs import (Graph, canonical_edge, complete_graph, cycle_graph, hypercube_graph,
                               path_graph, petersen_graph)

if TYPE_CHECKING:  # annotations only: the CLI loads these modules when a command needs them
    from palettebox.oracle import Certificate
    from palettebox.torus import TorusDecomposition


def graph_to_json(graph: Graph) -> dict:
    out = {"n": graph.n, "edges": [list(e) for e in graph.edges]}
    if graph.provenance:
        out["provenance"] = graph.provenance
    return out


def graph_from_json(obj: dict) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON needs 'n' and 'edges'")
    n = _json_int(obj["n"], "graph JSON 'n'")
    edges = [_json_ints(e, 2, f"graph JSON edge {i}", "graph JSON endpoint of edge")
             for i, e in enumerate(_json_list(obj["edges"], "graph JSON 'edges'"))]
    provenance = obj.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise ValueError(f"graph JSON 'provenance' must be a string, got {provenance!r}")
    return Graph.from_edges(n, edges, provenance)


def _json_int(value, what: str) -> int:
    """``value`` if it is an int; a float, string or bool is rejected, naming ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    """``value`` if it is a list; anything else is rejected, naming ``what``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _json_ints(value, size: int, what: str, item: str) -> tuple[int, ...]:
    """``value`` as a tuple if it is a list of ``size`` ints.

    Errors name the list by ``what`` and one of its items by ``item`` and the list.
    """
    if not isinstance(value, list) or len(value) != size:
        raise ValueError(f"{what} must be a list of {size} integers, got {value!r}")
    return tuple(_json_int(x, f"{item} {value!r}") for x in value)


def coloring_to_json(coloring: EdgeColoring) -> dict:
    return {
        "graph": graph_to_json(coloring.graph),
        "colors": [[u, v, c] for (u, v), c in zip(coloring.graph.edges, coloring.colors)],
    }


def coloring_from_json(obj: dict, graph: Optional[Graph] = None) -> EdgeColoring:
    if not isinstance(obj, dict) or "colors" not in obj or (graph is None and "graph" not in obj):
        raise ValueError("coloring JSON needs 'graph' and 'colors'")
    if graph is None:
        graph = graph_from_json(obj["graph"])
    mapping = {}
    for i, entry in enumerate(_json_list(obj["colors"], "coloring JSON 'colors'")):
        u, v, c = _json_ints(entry, 3, f"coloring JSON entry {i}",
                             "coloring JSON value of entry")
        edge = canonical_edge(u, v)
        if edge in mapping:
            raise ValueError(f"edge {edge} is colored twice")
        mapping[edge] = c
    return EdgeColoring.from_map(graph, mapping)


def palettes_to_json(summary: PaletteSummary) -> dict:
    return {
        "palettes": [sorted(p) for p in summary.distinct],
        "count": summary.count,
        "perVertex": {str(v): sorted(summary.palette_of(v))
                      for v in range(len(summary.per_vertex))},
    }


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "lower": cert.lower,
        "upper": cert.upper,
        "exact": cert.exact,
        "rule": cert.rule,
        "witness": coloring_to_json(cert.witness),
    }


def torus_to_json(dec: TorusDecomposition) -> dict:
    from palettebox.torus import z_set

    z_sets = [[list(step) for step in z_set(dec.s, dec.t, i)] for i in range(dec.t)]
    classes = [sorted(i for i in range(dec.t) if dec.class_of_walk(i) == c)
               for c in range(3)]
    return {"s": dec.s, "t": dec.t, "ell": dec.ell, "shift": dec.shift,
            "zSets": z_sets, "classes": classes}


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


_GENERATOR_SPEC = re.compile(r"^([PCKQ])(\d+)$", re.IGNORECASE)
_GENERATOR = {"P": path_graph, "C": cycle_graph, "K": complete_graph, "Q": hypercube_graph}


def parse_graph_spec(spec: str) -> Graph:
    """Turn "C5"/"P4"/"K7"/"Q3"/"petersen" or a JSON file path into a Graph."""
    spec = spec.strip()
    if spec.lower() == "petersen":
        return petersen_graph()
    m = _GENERATOR_SPEC.match(spec)
    if m:
        return _GENERATOR[m.group(1).upper()](int(m.group(2)))
    if os.path.exists(spec):
        with open(spec) as fh:
            return graph_from_json(json.load(fh))
    raise ValueError(
        f"unrecognized graph spec {spec!r}: use P<n>, C<n>, K<n>, Q<r>, petersen,"
        " or a path to a graph JSON file")


# fixed pen colors and line styles so figures are reproducible
_PEN_COLORS = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
    "#a6761d", "#666666", "#1f78b4", "#b2182b", "#542788", "#35978f",
)
_STYLES = ("solid", "dashed", "dotted", "bold")


def default_style_map(colors) -> dict[int, tuple[str, str]]:
    """Assign each color index a (pen color, line style) pair, stably."""
    out = {}
    for i, c in enumerate(sorted(set(colors))):
        out[c] = (_PEN_COLORS[i % len(_PEN_COLORS)], _STYLES[i % len(_STYLES)])
    return out


def export_dot(coloring: EdgeColoring, name: str = "G") -> str:
    """Render a proper coloring as DOT with per-color edge styling."""
    ok, witness = check_proper(coloring)
    if not ok:
        v, e1, e2 = witness
        raise ValueError(f"improper coloring: edges {e1} and {e2} share a color at vertex {v}")
    return _render_dot(coloring, name)


def _render_dot(coloring: EdgeColoring, name: str) -> str:
    """DOT text with one styled line per edge; properness is not checked here."""
    style_map = default_style_map(coloring.colors)
    lines = [f'graph "{name}" {{']
    for (u, v), c in zip(coloring.graph.edges, coloring.colors):
        pen, style = style_map[c]
        lines.append(f'  {u} -- {v} [label={c}, color="{pen}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def class_coloring(dec: TorusDecomposition) -> EdgeColoring:
    """Label every torus edge by its walk class (1..3) for figure export.

    Not proper in the edge-coloring sense; only used for styling, so the
    DOT export below renders it without the properness gate on purpose.
    """
    return dec.edge_coloring(lambda i, vertical: dec.class_of_walk(i) + 1)


def export_class_dot(dec: TorusDecomposition, name: str = "torus") -> str:
    """DOT of the even cycle decomposition, one line style per class."""
    return _render_dot(class_coloring(dec), name)
