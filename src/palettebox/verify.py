"""Reproducible verification sweeps behind the `verify` CLI subcommand.

Each suite runs a parameter sweep, checks exact expectations, and
returns a JSON-ready report.  Case outcomes are "pass", "fail", or
"indeterminate" (search budget exhausted before a verdict); the suite
status is the worst case outcome.  In deterministic mode timings are
nulled so identical runs serialize byte-identically.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Optional

from palettebox.coloring import check_proper, palette_summary
from palettebox.constructions import (
    PATH_MODE_FAMILY,
    BudgetExhausted,
    cubic_matching_reduction,
    cycle_times_regular_coloring,
    make_nrg_spec,
    nrg_product_coloring,
    path_times_class1_regular_coloring,
    path_times_regular_coloring,
)
from palettebox.graphs import (
    Graph,
    cartesian_product,
    cycle_graph,
    enumerate_perfect_matchings,
    hypercube_graph,
    path_graph,
    petersen_graph,
)
from palettebox.oracle import (
    coloring_within_family,
    naive_minimum_palettes,
    palette_index_exact,
)
from palettebox.search import BUDGET, FOUND, SearchBudget
from palettebox.torus import (
    TorusDecomposition,
    even_cycle_classes,
    torus_three_palette_coloring,
    verify_partition,
)

SUITES = ("torus", "nrg", "cycle-path", "cubic", "oracle-cross")

TORUS_PALETTES = frozenset(
    (frozenset({1, 2, 3, 4}), frozenset({1, 2, 5, 6}), frozenset({3, 4, 5, 6})))


class _Recorder:
    def __init__(self, deterministic: bool):
        self.cases: list[dict] = []
        self.deterministic = deterministic

    def run(self, name: str, fn: Callable[[], Optional[str]]):
        """fn returns None on pass, a detail string on fail, or raises."""
        t0 = time.perf_counter()
        try:
            detail = fn()
            outcome = "pass" if detail is None else "fail"
        except (_Indeterminate, BudgetExhausted) as stop:
            outcome, detail = "indeterminate", str(stop)
        except Exception as exc:  # a crash is a failing case, not a crashed suite
            outcome, detail = "fail", f"{type(exc).__name__}: {exc}"
        self.cases.append({
            "name": name,
            "outcome": outcome,
            "detail": detail,
            "seconds": None if self.deterministic else round(time.perf_counter() - t0, 4),
        })

    def report(self, suite: str, params: dict) -> dict:
        cases = sorted(self.cases, key=lambda c: c["name"])
        outcomes = [c["outcome"] for c in cases]
        status = ("fail" if "fail" in outcomes
                  else "indeterminate" if "indeterminate" in outcomes else "pass")
        return {
            "suite": suite,
            "params": params,
            "cases": cases,
            "passed": outcomes.count("pass"),
            "failed": outcomes.count("fail"),
            "indeterminate": outcomes.count("indeterminate"),
            "status": status,
        }


class _Indeterminate(RuntimeError):
    pass


def _expect(cond: bool, detail: str) -> Optional[str]:
    return None if cond else detail


def _palette_sets(col) -> set[frozenset[int]]:
    return set(palette_summary(col).palette_sets())


def _torus_suite(rec: _Recorder, max_s: int, budget):
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
            rec.run(f"torus s={s} t={t}", case)


def _nrg_suite(rec: _Recorder, budget):
    bases = (hypercube_graph(3), cycle_graph(4), cycle_graph(6))
    hosts = (cycle_graph(3), cycle_graph(4), path_graph(2))
    for base in bases:
        r = base.max_degree
        try:
            matching = _qualifying_matching(base, budget)
            specs = [
                (removed, make_nrg_spec(base, removed, matching, budget))
                for size in range(1, len(matching.edges))
                for removed in itertools.combinations(matching.edges, size)
            ]
        except (_Indeterminate, ValueError, RuntimeError) as exc:
            def setup_case(exc=exc):
                raise exc
            rec.run(f"nrg {base.tag} setup", setup_case)
            continue
        for removed, spec in specs:
            for host in hosts:
                rp = host.max_degree
                want = {frozenset(range(1, r + rp + 1)), frozenset(range(1, r + rp))}
                def case(spec=spec, host=host, want=want):
                    col = nrg_product_coloring(spec, host, budget=budget)
                    got = _palette_sets(col)
                    return _expect(got == want,
                                   f"palettes {sorted(sorted(p) for p in got)}")
                x_tag = ",".join(f"{u}-{v}" for u, v in removed)
                rec.run(f"nrg {base.tag} X={{{x_tag}}} H={host.tag}", case)


def _qualifying_matching(base: Graph, budget):
    from palettebox.solver import chromatic_index
    from palettebox.graphs import remove_edges

    r = base.max_degree
    out_of_budget = False
    for matching in enumerate_perfect_matchings(base):
        rest = remove_edges(base, matching.edges)
        result = chromatic_index(rest, budget)
        if result.status == "exact" and result.value == r - 1:
            return matching
        out_of_budget = out_of_budget or result.status == "indeterminate"
    if out_of_budget:
        raise _Indeterminate(
            f"could not certify a matching on {base.tag} within the budget")
    raise ValueError(f"no qualifying perfect matching on {base.tag}")


def _pointwise_check(col, s: int, g: Graph, r: int, wrap: bool) -> Optional[str]:
    """Compare every vertex palette against the layered closed forms.

    The default h of the construction is its g coloring, the solver
    witness, recomputed here for the expected layer s-1 palettes.
    """
    from palettebox.solver import chromatic_index

    h_col = chromatic_index(g).witness
    summ = palette_summary(col)
    interior = frozenset(range(1, r + 3))
    first = frozenset(range(1, r + 2)) | ({r + 3} if wrap else set())
    extra = {r + 2, r + 3} if wrap else {r + 2}
    for v in range(g.n):
        last = frozenset(h_col.palette(v) | extra)
        for i in range(s):
            want = first if i == 0 else last if i == s - 1 else interior
            got = frozenset(summ.palette_of(i * g.n + v))
            if got != want:
                return f"layer {i} vertex {v}: palette {sorted(got)} wanted {sorted(want)}"
    return None


def _cycle_path_suite(rec: _Recorder, max_n: int, budget):
    class2 = (cycle_graph(3), cycle_graph(5))
    for s in range(3, max_n + 1, 2):
        for g in class2:
            r = g.max_degree
            def cycle_case(s=s, g=g, r=r):
                col = cycle_times_regular_coloring(s, g, budget=budget)
                return _pointwise_check(col, s, g, r, wrap=True)
            rec.run(f"cycle-times-regular s={s} {g.tag}", cycle_case)

            def path_case(s=s, g=g, r=r):
                col = path_times_regular_coloring(s, g, budget=budget)
                return _pointwise_check(col, s, g, r, wrap=False)
            rec.run(f"path-times-regular s={s} {g.tag}", path_case)

    class1 = (cycle_graph(4), cycle_graph(6), path_graph(2), hypercube_graph(3))
    for s in range(3, max_n + 1, 2):
        for g in class1:
            def c1_case(s=s, g=g):
                col = path_times_class1_regular_coloring(s, g, budget=budget)
                got = _palette_sets(col)
                return _expect(len(got) == 2, f"{len(got)} palettes")
            rec.run(f"path-times-class1 s={s} {g.tag}", c1_case)

    # palette counts of C_s box P_t: 4 when both odd, else 2
    for s in range(3, max_n + 1):
        for t in range(3, max_n + 1):
            rec.run(f"tpc-table s={s} t={t}", _tpc_case(s, t, budget))


def _tpc_case(s: int, t: int, budget):
    def case():
        if s % 2 == 1 and t % 2 == 1:
            block = cartesian_product(path_graph(t), cycle_graph(s))
            status, col = coloring_within_family(block, PATH_MODE_FAMILY, budget)
            if status == BUDGET:
                raise _Indeterminate(f"family search budget out on C_{s} box P_{t}")
            if status != FOUND:
                return "no 4-palette coloring found"
            count = palette_summary(col).count
            if count != 4:
                return f"witness has {count} palettes"
            # confirm 4 is optimal, not only achievable
            cert = palette_index_exact(block, [col], budget=budget)
            if not cert.exact:
                raise _Indeterminate("oracle budget out")
            return _expect(cert.lower == 4, f"oracle says {cert.lower}")
        if t % 2 == 0:
            spec = make_nrg_spec(cycle_graph(t), [(0, 1)], budget=budget)
            col = nrg_product_coloring(spec, cycle_graph(s), budget=budget)
        else:
            col = path_times_class1_regular_coloring(t, cycle_graph(s), budget=budget)
        count = palette_summary(col).count
        return _expect(count == 2, f"witness has {count} palettes")
    return case


def _cubic_suite(rec: _Recorder, budget):
    pet = petersen_graph()

    def cycle3():
        col = cubic_matching_reduction(3, pet, mode="cycle", budget=budget)
        got = _palette_sets(col)
        want = {frozenset(p | {7}) for p in TORUS_PALETTES}
        return _expect(got == want, f"palettes {sorted(sorted(p) for p in got)}")
    rec.run("cubic petersen s=3 cycle", cycle3)

    def cycle5():
        col = cubic_matching_reduction(5, pet, mode="cycle", budget=budget)
        return _expect(palette_summary(col).count == 3,
                       f"{palette_summary(col).count} palettes")
    rec.run("cubic petersen s=5 cycle", cycle5)

    def path3():
        col = cubic_matching_reduction(3, pet, mode="path", budget=budget)
        count = palette_summary(col).count
        return _expect(count <= 4, f"{count} palettes")
    rec.run("cubic petersen s=3 path", path3)

    def certificate():
        col = cubic_matching_reduction(3, pet, mode="cycle", budget=budget)
        cert = palette_index_exact(col.graph, [col], budget=budget)
        # C_3 box Petersen is 5-regular and class 1: palette index 1
        return _expect(cert.exact and cert.lower == 1,
                       f"certificate {cert.lower}..{cert.upper}")
    rec.run("cubic petersen s=3 certificate", certificate)

    def reject_k4():
        from palettebox.graphs import complete_graph
        try:
            cubic_matching_reduction(3, complete_graph(4), budget=budget)
        except ValueError:
            return None
        return "class-1 K_4 was accepted"
    rec.run("cubic k4 rejected", reject_k4)


def _oracle_cross_suite(rec: _Recorder, max_edges: int, budget):
    from palettebox.corpus import small_corpus

    for graph in small_corpus(max_edges):
        def case(graph=graph):
            cert = palette_index_exact(graph, budget=budget)
            if not cert.exact:
                raise _Indeterminate("oracle budget out")
            naive = naive_minimum_palettes(graph)
            return _expect(cert.lower == naive, f"oracle {cert.lower} naive {naive}")
        rec.run(f"oracle-cross {graph.tag}", case)


def run_verify_suite(suite: str, *, max_s: int = 13, max_n: int = 5,
                     max_edges: int = 12, budget: Optional[SearchBudget] = None,
                     deterministic: bool = False) -> dict:
    """Run one named sweep and return its report dict.

    A bound that selects no case raises ``ValueError`` rather than
    reporting an empty pass.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}: choose from {', '.join(SUITES)}")
    rec = _Recorder(deterministic)
    if suite == "torus":
        _torus_suite(rec, max_s, budget)
        params = {"max_s": max_s}
    elif suite == "nrg":
        _nrg_suite(rec, budget)
        params = {}
    elif suite == "cycle-path":
        _cycle_path_suite(rec, max_n, budget)
        params = {"max": max_n}
    elif suite == "cubic":
        _cubic_suite(rec, budget)
        params = {}
    else:
        _oracle_cross_suite(rec, max_edges, budget)
        params = {"max_edges": max_edges}
    if not rec.cases:
        # a sweep that checked nothing has proven nothing
        bound = ", ".join(f"{key}={value}" for key, value in params.items())
        raise ValueError(f"suite {suite} has no case at {bound}")
    params["deterministic"] = deterministic
    return rec.report(suite, params)
