"""Reproducible verification sweeps behind the `verify` CLI subcommand.

Each suite runs a parameter sweep, checks exact expectations, and
returns a JSON-ready report.  Case outcomes are "pass", "fail", or
"indeterminate" (search budget exhausted before a verdict); the suite
status is the worst case outcome.  In deterministic mode timings are
nulled so identical runs serialize byte-identically.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import TYPE_CHECKING, Callable, Optional

from palettebox import SUITES
from palettebox._record import replace
from palettebox.coloring import check_proper, palette_summary
from palettebox.graphs import (
    Graph,
    cycle_graph,
    enumerate_perfect_matchings,
    hypercube_graph,
    path_graph,
    petersen_graph,
)
from palettebox.search import BudgetExhausted, SearchBudget

if TYPE_CHECKING:
    from palettebox.constructions import NrgSpec

# Each suite imports the modules it uses, so that `verify torus` loads no
# construction or oracle code.

TORUS_PALETTES = frozenset(
    (frozenset({1, 2, 3, 4}), frozenset({1, 2, 5, 6}), frozenset({3, 4, 5, 6})))


def _run_case(name: str, check: Callable[[], Optional[str]], deterministic: bool) -> dict:
    """Run one case; ``check`` returns None on pass, a detail string on fail, or raises."""
    t0 = time.perf_counter()
    try:
        detail = check()
        outcome = "pass" if detail is None else "fail"
    except BudgetExhausted as stop:
        outcome, detail = "indeterminate", str(stop)
    except Exception as exc:  # a crash is a failing case, not a crashed suite
        outcome, detail = "fail", f"{type(exc).__name__}: {exc}"
    return {
        "name": name,
        "outcome": outcome,
        "detail": detail,
        "seconds": None if deterministic else round(time.perf_counter() - t0, 4),
    }


def _expect(cond: bool, detail: str) -> Optional[str]:
    return None if cond else detail


def _palette_sets(col) -> set[frozenset[int]]:
    return set(palette_summary(col).palette_sets())


def _torus_cases(max_s: int, budget):
    from palettebox.torus import (
        TorusDecomposition,
        even_cycle_classes,
        torus_three_palette_coloring,
        verify_partition,
    )

    for s in range(3, max_s + 1, 2):
        for t in range(3, s + 1, 2):
            def case(s=s, t=t):
                dec = TorusDecomposition(s, t)
                ok, problems = verify_partition(dec)
                if not ok:
                    return f"partition: {problems[0]}"
                ok, problems = even_cycle_classes(dec)
                if not ok:
                    return f"classes: {problems[0]}"
                col = torus_three_palette_coloring(s, t)
                proper, witness = check_proper(col)
                if not proper:
                    return f"improper at vertex {witness[0]}"
                got = _palette_sets(col)
                return _expect(got == set(TORUS_PALETTES),
                               f"palettes {sorted(sorted(p) for p in got)}")
            yield f"torus s={s} t={t}", case


def _nrg_cases(budget):
    from palettebox.constructions import nrg_product_coloring, solve_exact

    bases = (hypercube_graph(3), cycle_graph(4), cycle_graph(6))
    hosts = (cycle_graph(3), cycle_graph(4), path_graph(2))
    # each host is solved once, on its first case; a budget stop is not kept
    host_coloring = functools.cache(lambda host: solve_exact(host, budget).witness)
    for base in bases:
        r = base.max_degree
        try:
            first = _first_nrg_spec(base, budget)
            specs = [
                (removed, replace(first, removed=removed))
                for size in range(1, len(first.matching.edges))
                for removed in itertools.combinations(first.matching.edges, size)
            ]
        except (ValueError, RuntimeError) as exc:
            def setup_case(exc=exc):
                raise exc
            yield f"nrg {base.tag} setup", setup_case
            continue
        for removed, spec in specs:
            for host in hosts:
                rp = host.max_degree
                want = {frozenset(range(1, r + rp + 1)), frozenset(range(1, r + rp))}
                def case(spec=spec, host=host, want=want):
                    col = nrg_product_coloring(spec, host, host_coloring(host), budget=budget)
                    got = _palette_sets(col)
                    return _expect(got == want,
                                   f"palettes {sorted(sorted(p) for p in got)}")
                x_tag = ",".join(f"{u}-{v}" for u, v in removed)
                yield f"nrg {base.tag} X={{{x_tag}}} H={host.tag}", case


def _first_nrg_spec(base: Graph, budget) -> NrgSpec:
    """The spec removing one edge of the first qualifying perfect matching of ``base``.

    A perfect matching qualifies when ``base`` minus it is class 1.  The
    spec of any other removed subset of that matching follows from this
    one by ``replace``, which re-runs the spec's checks but no search.
    """
    from palettebox.constructions import NrgSpec, _nrg_base

    out_of_budget = False
    for matching in enumerate_perfect_matchings(base):
        try:
            coloring = _nrg_base(base, matching, budget)
        except BudgetExhausted:
            out_of_budget = True
            continue
        if coloring is not None:
            return NrgSpec(base, matching, matching.edges[:1], coloring)
    if out_of_budget:
        raise BudgetExhausted(
            f"could not certify a matching on {base.tag} within the budget")
    raise ValueError(f"no qualifying perfect matching on {base.tag}")


def _pointwise_check(col, s: int, g_col, r: int, wrap: bool) -> Optional[str]:
    """Compare every vertex palette against the layered closed forms.

    ``g_col`` is the construction's coloring of G, which is also its
    default h and so fixes the expected layer s-1 palettes.
    """
    summ = palette_summary(col)
    interior = frozenset(range(1, r + 3))
    first = frozenset(range(1, r + 2)) | ({r + 3} if wrap else set())
    extra = {r + 2, r + 3} if wrap else {r + 2}
    for v in range(g_col.graph.n):
        last = frozenset(g_col.palette(v) | extra)
        for i in range(s):
            want = first if i == 0 else last if i == s - 1 else interior
            got = frozenset(summ.palette_of(i * g_col.graph.n + v))
            if got != want:
                return f"layer {i} vertex {v}: palette {sorted(got)} wanted {sorted(want)}"
    return None


def _cycle_path_cases(max_n: int, budget):
    from palettebox.constructions import (
        cycle_times_regular_coloring,
        path_times_class1_regular_coloring,
        path_times_regular_coloring,
        solve_exact,
    )

    class2 = (cycle_graph(3), cycle_graph(5))
    layered = (("cycle-times-regular", cycle_times_regular_coloring, True),
               ("path-times-regular", path_times_regular_coloring, False))
    for s in range(3, max_n + 1, 2):
        for g in class2:
            for name, build, wrap in layered:
                def case(s=s, g=g, build=build, wrap=wrap):
                    g_col = solve_exact(g, budget).witness
                    col = build(s, g, g_col=g_col, budget=budget)
                    return _pointwise_check(col, s, g_col, g.max_degree, wrap)
                yield f"{name} s={s} {g.tag}", case

    class1 = (cycle_graph(4), cycle_graph(6), path_graph(2), hypercube_graph(3))
    for s in range(3, max_n + 1, 2):
        for g in class1:
            def c1_case(s=s, g=g):
                col = path_times_class1_regular_coloring(s, g, budget=budget)
                got = _palette_sets(col)
                return _expect(len(got) == 2, f"{len(got)} palettes")
            yield f"path-times-class1 s={s} {g.tag}", c1_case

    # palette counts of C_s box P_t: 4 when both odd, else 2
    for s in range(3, max_n + 1):
        for t in range(3, max_n + 1):
            yield f"tpc-table s={s} t={t}", _tpc_case(s, t, budget)


def _tpc_case(s: int, t: int, budget):
    from palettebox.constructions import (
        _family_block_coloring,
        make_nrg_spec,
        nrg_product_coloring,
        path_times_class1_regular_coloring,
    )
    from palettebox.oracle import palette_index_exact

    def case():
        if s % 2 == 1 and t % 2 == 1:
            col = _family_block_coloring(t, s, budget)
            count = palette_summary(col).count
            if count != 4:
                return f"witness has {count} palettes"
            # confirm 4 is optimal, not only achievable
            cert = palette_index_exact(col.graph, [col], budget=budget)
            if not cert.exact:
                raise BudgetExhausted("oracle budget out")
            return _expect(cert.lower == 4, f"oracle says {cert.lower}")
        if t % 2 == 0:
            spec = make_nrg_spec(cycle_graph(t), [(0, 1)], budget=budget)
            col = nrg_product_coloring(spec, cycle_graph(s), budget=budget)
        else:
            col = path_times_class1_regular_coloring(t, cycle_graph(s), budget=budget)
        count = palette_summary(col).count
        return _expect(count == 2, f"witness has {count} palettes")
    return case


def _cubic_cases(budget):
    from palettebox.constructions import cubic_matching_reduction
    from palettebox.oracle import palette_index_exact

    pet = petersen_graph()

    def cycle3():
        col = cubic_matching_reduction(3, pet, mode="cycle", budget=budget)
        got = _palette_sets(col)
        want = {frozenset(p | {7}) for p in TORUS_PALETTES}
        return _expect(got == want, f"palettes {sorted(sorted(p) for p in got)}")
    yield "cubic petersen s=3 cycle", cycle3

    def cycle5():
        col = cubic_matching_reduction(5, pet, mode="cycle", budget=budget)
        count = palette_summary(col).count
        return _expect(count == 3, f"{count} palettes")
    yield "cubic petersen s=5 cycle", cycle5

    def path3():
        col = cubic_matching_reduction(3, pet, mode="path", budget=budget)
        count = palette_summary(col).count
        return _expect(count <= 4, f"{count} palettes")
    yield "cubic petersen s=3 path", path3

    def certificate():
        col = cubic_matching_reduction(3, pet, mode="cycle", budget=budget)
        cert = palette_index_exact(col.graph, [col], budget=budget)
        # C_3 box Petersen is 5-regular and class 1: palette index 1
        return _expect(cert.exact and cert.lower == 1,
                       f"certificate {cert.lower}..{cert.upper}")
    yield "cubic petersen s=3 certificate", certificate

    def reject_k4():
        from palettebox.graphs import complete_graph
        try:
            cubic_matching_reduction(3, complete_graph(4), budget=budget)
        except ValueError:
            return None
        return "class-1 K_4 was accepted"
    yield "cubic k4 rejected", reject_k4


def _oracle_cross_cases(max_edges: int, budget):
    from palettebox.corpus import small_corpus
    from palettebox.oracle import naive_minimum_palettes, palette_index_exact

    for graph in small_corpus(max_edges):
        def case(graph=graph):
            cert = palette_index_exact(graph, budget=budget)
            if not cert.exact:
                raise BudgetExhausted("oracle budget out")
            naive = naive_minimum_palettes(graph)
            return _expect(cert.lower == naive, f"oracle {cert.lower} naive {naive}")
        yield f"oracle-cross {graph.tag}", case


# Each suite's case generator, with the name and default of the bound it
# reads, or None for a suite that takes no bound.  A generator yields
# (name, check) pairs; the bounded ones take the bound before the budget.
_SUITES = {
    "torus": (_torus_cases, "max_s", 13),
    "nrg": (_nrg_cases, None, None),
    "cycle-path": (_cycle_path_cases, "max", 5),
    "cubic": (_cubic_cases, None, None),
    "oracle-cross": (_oracle_cross_cases, "max_edges", 12),
}


def run_verify_suite(suite: str, *, bound: Optional[int] = None,
                     budget: Optional[SearchBudget] = None,
                     deterministic: bool = False) -> dict:
    """Run one named sweep and return its report dict.

    ``bound`` limits the sweep of a bounded suite and defaults to the
    suite's own; a suite without one rejects it.  A bound that selects no
    case raises ``ValueError`` rather than reporting an empty pass.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}: choose from {', '.join(SUITES)}")
    cases, key, default = _SUITES[suite]
    if key is None and bound is not None:
        raise ValueError(f"suite {suite} takes no bound")
    bound = default if bound is None else bound
    params = {} if key is None else {key: bound}
    pairs = cases(budget) if key is None else cases(bound, budget)
    results = sorted((_run_case(name, check, deterministic) for name, check in pairs),
                     key=lambda c: c["name"])
    if not results:
        # a sweep that checked nothing has proven nothing
        raise ValueError(f"suite {suite} has no case at {key}={bound}")
    params["deterministic"] = deterministic
    outcomes = [c["outcome"] for c in results]
    status = ("fail" if "fail" in outcomes
              else "indeterminate" if "indeterminate" in outcomes else "pass")
    return {
        "suite": suite,
        "params": params,
        "cases": results,
        "passed": outcomes.count("pass"),
        "failed": outcomes.count("fail"),
        "indeterminate": outcomes.count("indeterminate"),
        "status": status,
    }
