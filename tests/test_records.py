"""Every result record is immutable, equal by its compared fields, and checked on construction."""

import math

import pytest

from palettebox._record import replace
from palettebox.coloring import palette_summary
from palettebox.constructions import make_nrg_spec
from palettebox.graphs import (
    Graph,
    ProductIndex,
    cycle_graph,
    find_perfect_matching,
    hypercube_graph,
)
from palettebox.oracle import palette_index_exact
from palettebox.search import SearchBudget
from palettebox.solver import chromatic_index
from palettebox.theta import theta_classes
from palettebox.torus import TorusDecomposition

# One instance of each record class, as the library builds it.
RECORDS = {
    "Graph": lambda: cycle_graph(5),
    "ProductIndex": lambda: ProductIndex(3, 5),
    "Matching": lambda: find_perfect_matching(cycle_graph(4)),
    "EdgeColoring": lambda: palette_index_exact(cycle_graph(5)).witness,
    "PaletteSummary": lambda: palette_summary(palette_index_exact(cycle_graph(5)).witness),
    "SearchBudget": lambda: SearchBudget(max_nodes=10),
    "ChromaticIndexResult": lambda: chromatic_index(cycle_graph(5)),
    "Certificate": lambda: palette_index_exact(cycle_graph(5)),
    "NrgSpec": lambda: make_nrg_spec(hypercube_graph(3), [(0, 1)]),
    "ThetaClasses": lambda: theta_classes(hypercube_graph(3)),
    "TorusDecomposition": lambda: TorusDecomposition(5, 3),
}


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record)._record_fields}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_immutable_equal_by_fields_and_called_like_a_function(name):
    record = RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name
    fields = _fields(record)
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert _fields(record) == fields

    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == record == by_position
    assert hash(by_keyword) == hash(record) == hash(by_position)
    assert record != object()
    assert repr(record).startswith(f"{name}(")

    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**fields, extra=1)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*fields.values(), 1)
    first = next(iter(fields))
    with pytest.raises(TypeError, match="multiple values"):
        cls(*fields.values(), **{first: fields[first]})
    if name != "SearchBudget":  # every SearchBudget field has a default
        with pytest.raises(TypeError, match=f"missing required arguments: {first!r}"):
            cls(**{k: v for k, v in fields.items() if k != first})


def test_graph_equality_and_hash_ignore_provenance():
    tagged, untagged = cycle_graph(5), Graph(5, cycle_graph(5).edges)
    assert tagged == untagged and hash(tagged) == hash(untagged)
    assert tagged.provenance == "cycle(5)" and untagged.provenance is None
    assert Graph(5, ()).provenance is None
    assert replace(tagged, provenance="x") == tagged
    assert replace(tagged, provenance="x").provenance == "x"


def test_graph_keeps_its_own_repr():
    assert repr(cycle_graph(5)) == "Graph(n=5, m=5, tag='cycle(5)')"
    assert repr(ProductIndex(3, 5)) == "ProductIndex(g_size=3, h_size=5)"


def test_replace_checks_the_new_record():
    spec = RECORDS["NrgSpec"]()
    other = replace(spec, removed=(spec.matching.edges[1],))
    assert other.removed == (spec.matching.edges[1],) and other.g_prime is spec.g_prime
    with pytest.raises(ValueError, match="nonempty proper subset"):
        replace(spec, removed=())
    with pytest.raises(ValueError, match="nonempty proper subset"):
        replace(spec, removed=spec.matching.edges)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        replace(spec, extra=1)


@pytest.mark.parametrize("kwargs", [{"max_nodes": -1}, {"max_seconds": math.nan},
                                    {"max_seconds": -0.5}])
def test_search_budget_rejects_negative_and_nan_limits(kwargs):
    with pytest.raises(ValueError, match="must be nonnegative"):
        SearchBudget(**kwargs)
