"""Palette-minimizing proper edge colorings of Cartesian product graphs.

The package provides:

* an immutable :class:`~palettebox.graphs.Graph` type with generators and
  Cartesian products,
* direct layered colorings of products whose palette counts hit known
  closed forms,
* an exact, certificate-producing palette-index oracle for desk-scale
  graphs, and
* a command line interface (``palettebox``) exposing all of the above.
"""

from palettebox.graphs import (
    Graph,
    Matching,
    ProductIndex,
    cartesian_product,
    complete_graph,
    cycle_graph,
    find_perfect_matching,
    hypercube_graph,
    path_graph,
    petersen_graph,
    remove_edges,
)
from palettebox.coloring import (
    EdgeColoring,
    PaletteSummary,
    check_proper,
    disjoint_product_coloring,
    palette_summary,
    product_coloring,
)
from palettebox.solver import SearchBudget, chromatic_index
from palettebox.oracle import Certificate, lower_bound, palette_index_exact
from palettebox.constructions import (
    NrgSpec,
    class1_product_coloring,
    cubic_matching_reduction,
    cycle_times_regular_coloring,
    make_nrg_spec,
    nrg_product_coloring,
    path_times_class1_regular_coloring,
    path_times_regular_coloring,
)
from palettebox.theta import ThetaClasses, is_partial_cube, theta_classes, theta_removal_coloring
from palettebox.torus import (
    TorusDecomposition,
    even_cycle_classes,
    torus_three_palette_coloring,
    verify_partition,
)

__all__ = [
    "Graph",
    "Matching",
    "NrgSpec",
    "ProductIndex",
    "EdgeColoring",
    "PaletteSummary",
    "SearchBudget",
    "Certificate",
    "ThetaClasses",
    "TorusDecomposition",
    "cartesian_product",
    "check_proper",
    "chromatic_index",
    "class1_product_coloring",
    "complete_graph",
    "cubic_matching_reduction",
    "cycle_graph",
    "cycle_times_regular_coloring",
    "disjoint_product_coloring",
    "even_cycle_classes",
    "find_perfect_matching",
    "hypercube_graph",
    "is_partial_cube",
    "lower_bound",
    "make_nrg_spec",
    "nrg_product_coloring",
    "palette_index_exact",
    "palette_summary",
    "path_graph",
    "path_times_class1_regular_coloring",
    "path_times_regular_coloring",
    "petersen_graph",
    "product_coloring",
    "remove_edges",
    "theta_classes",
    "theta_removal_coloring",
    "torus_three_palette_coloring",
    "verify_partition",
]

__version__ = "0.1.0"
