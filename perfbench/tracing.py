"""Span tracing of palettebox from outside the package.

``Tracer.install()`` replaces every public function of every palettebox
module with a wrapper that records a span (name, start, end, parent).
The package imports functions by name (``from palettebox.oracle import
palette_index_exact``), so a wrapper must replace the name in every
module that binds the function, not only in the module that defines it;
``install`` scans all loaded palettebox modules for that reason.

A few wrappers record counts next to the span: nodes and final status of
each search kernel call, whether a certificate is exact, and the number
of edges of graphs and colorings that pass through a layer.  Spans stay
in memory until ``spans()`` is read.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

from palettebox.coloring import EdgeColoring
from palettebox.graphs import Graph

MODULES = ("graphs", "coloring", "search", "solver", "oracle", "constructions",
           "torus", "theta", "formats", "corpus", "verify", "cli")

# canonical_edge runs once per product edge inside the constructions; a
# span per call would cost more than the work it measures.  njit is the
# numba decorator stand-in and only runs at import time.
NOT_TRACED = frozenset({"graphs.canonical_edge", "search.njit"})

SEARCH_KERNELS = ("search.search_k_coloring", "search.search_palette_count",
                  "search.search_palette_family")


def _attrs(name: str, args: tuple, result) -> dict:
    """Counts recorded with a finished span."""
    attrs = {}
    if isinstance(result, EdgeColoring):
        attrs["edges"] = len(result.graph.edges)
    elif isinstance(result, Graph):
        attrs["edges"] = len(result.edges)
    elif name == "coloring.check_proper":
        attrs["edges"] = len(args[0].graph.edges)
    elif name == "verify.run_verify_suite":
        attrs["suite"] = args[0]
    exact = getattr(result, "exact", None)
    if isinstance(exact, bool):
        attrs["exact"] = exact
    return attrs


class Tracer:
    """Records spans as [name, start, end, parent, attrs] lists."""

    def __init__(self):
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, time.perf_counter(), None, parent, {}])
        idx = len(self._spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: dict):
        span = self._spans[idx]
        span[2] = time.perf_counter()
        span[4].update(attrs)
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so time spent by the consumer
            # between items is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, {})
                    yield item
            return gen_wrapper

        if name in SEARCH_KERNELS:
            from palettebox import search

            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def search_wrapper(*args, **kwargs):
                # Giving the search a tracker of our own exposes the node
                # count of this one call; it would build the same tracker.
                params = signature.bind(*args, **kwargs)
                tracker = search.ensure_tracker(params.arguments.get("budget"))
                params.arguments["budget"] = tracker
                before = tracker.nodes
                idx = self._open(name)
                status = None
                try:
                    result = fn(*params.args, **params.kwargs)
                    status = int(result[0])
                    return result
                finally:
                    self._close(idx, {"nodes": tracker.nodes - before, "status": status})
            return search_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            attrs = {}
            try:
                result = fn(*args, **kwargs)
                attrs = _attrs(name, args + tuple(kwargs.values()), result)
                return result
            finally:
                self._close(idx, attrs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public palettebox function wherever it is bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"palettebox.{short}")
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_TRACED):
                    originals[value] = self._wrap(name, value)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("palettebox"):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, originals[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def spans(self) -> list[list]:
        """All spans so far; ``parent`` is an index into this list or -1."""
        return self._spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(spans: list[list], names) -> list[list]:
    """Spans named in ``names`` that have no ancestor also named in it."""
    names = set(names)
    keep = []
    for span in spans:
        if span[0] not in names:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            keep.append(span)
    return keep
