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

from importlib import import_module

# The home module of every public name, and so the one list of them.  Each
# name is read from its home on first use, so ``import palettebox`` loads no
# submodule and a command loads only the modules it uses.
_HOMES = {
    "graphs": ("Graph", "Matching", "ProductIndex", "cartesian_product", "complete_graph",
               "cycle_graph", "find_perfect_matching", "hypercube_graph", "path_graph",
               "petersen_graph", "remove_edges"),
    "coloring": ("EdgeColoring", "PaletteSummary", "check_proper",
                 "disjoint_product_coloring", "palette_summary", "product_coloring"),
    "search": ("SearchBudget",),
    "solver": ("chromatic_index",),
    "oracle": ("Certificate", "lower_bound", "palette_index_exact"),
    "constructions": ("NrgSpec", "class1_product_coloring", "cubic_matching_reduction",
                      "cycle_times_regular_coloring", "make_nrg_spec", "nrg_product_coloring",
                      "path_times_class1_regular_coloring", "path_times_regular_coloring"),
    "theta": ("ThetaClasses", "is_partial_cube", "theta_classes", "theta_removal_coloring"),
    "torus": ("TorusDecomposition", "even_cycle_classes", "torus_three_palette_coloring",
              "verify_partition"),
}
_HOME = {name: f"palettebox.{module}" for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"

# The suites of ``palettebox verify``, here so that the CLI's parser can
# offer them without loading the verify module.
SUITES = ("torus", "nrg", "cycle-path", "cubic", "oracle-cross")


def __getattr__(name: str):
    # read from the home module on every access: a value cached here would
    # outlive a later rebinding of the name in its home module
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(home), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
