"""End-to-end and per-layer metrics from benchmark passes.

End-to-end metrics come from untraced passes only.  Per-layer metrics
come from the spans of traced passes: each is computed per pass and the
median over passes is reported.  Every metric is reported on every
workload; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

from palettebox.search import BUDGET

from tracing import outermost, self_times
from workloads import BUDGET_SECONDS

SEARCH_NAMES = {
    "k_coloring": "search.search_k_coloring",
    "palette_count": "search.search_palette_count",
    "family": "search.search_palette_family",
}

# Entry points that return a finished product coloring.
BUILDERS = (
    "constructions.class1_product_coloring",
    "constructions.cubic_matching_reduction",
    "constructions.cycle_times_regular_coloring",
    "constructions.extend_coloring_by_matching",
    "constructions.make_nrg_spec",
    "constructions.nrg_product_coloring",
    "constructions.path_times_class1_regular_coloring",
    "constructions.path_times_regular_coloring",
    "theta.theta_removal_coloring",
    "torus.torus_three_palette_coloring",
)

NODE_ITEMS = ("p3c5", "c3c5", "p5c5_family", "k9")
SUITES = ("torus", "nrg", "cycle-path", "cubic", "oracle-cross")


def percentile(values: list[float], q: float, resolutions: list[float] = ()) -> float:
    """The q-th percentile (0 < q < 100) of ``values``.

    Where ``resolutions`` gives each value a nonzero rounding step, each
    value is spread evenly over its rounding interval, so that percentiles
    of coarsely rounded timings still move with the distribution instead
    of jumping from one rounding step to the next.
    """
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if not any(resolutions):
        xs = sorted(values)
        return statistics.quantiles(xs, n=1000, method="inclusive")[round(q * 10) - 1]
    target = q / 100 * len(values)
    pairs = list(zip(values, resolutions))
    lo = min(x - r / 2 for x, r in pairs)
    hi = max(x + r / 2 for x, r in pairs)
    for _ in range(60):
        mid = (lo + hi) / 2
        mass = sum((mid >= x) if r <= 0 else min(max((mid - x) / r + 0.5, 0.0), 1.0)
                   for x, r in pairs)
        if mass < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def end_to_end(passes, setup_samples: list[float], peak_rss_mb: float) -> dict:
    """Metrics a user of the system sees, from the untraced passes."""
    items = [it for p in passes for it in p.items]

    def case_percentile(q: float) -> float:
        # per pass, so that the estimate does not depend on how many passes fit
        per_pass = []
        for p in passes:
            cases = [it for it in p.items if it.kind == "case"]
            per_pass.append(percentile([it.seconds for it in cases], q,
                                       [it.resolution for it in cases]))
        return 1e3 * statistics.median(per_pass)

    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(p.seconds for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "correct_frac": sum(it.ok for it in items) / len(items),
        "hardest_certificate_s": statistics.median(
            max(it.seconds for it in p.items) for p in passes),
        "case_p50_ms": case_percentile(50),
        "case_p90_ms": case_percentile(90),
        "edges_per_s": statistics.median(
            sum(it.edges for it in p.items) / p.seconds for p in passes),
    }


def _total(procs, names) -> float:
    return sum(end - start for spans in procs for _, start, end, _, _ in outermost(spans, names))


def _named(procs, names):
    names = set(names)
    return [s for spans in procs for s in spans if s[0] in names]


def _self(procs, name) -> float:
    total = 0.0
    for spans in procs:
        own = self_times(spans)
        total += sum(t for s, t in zip(spans, own) if s[0] == name)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p) -> dict:
    """Per-layer metrics of one traced pass."""
    procs = p.spans
    out = {}
    all_search = _named(procs, SEARCH_NAMES.values())
    for kernel, name in SEARCH_NAMES.items():
        spans = _named(procs, [name])
        nodes = sum(s[4].get("nodes", 0) for s in spans)
        out[f"search.{kernel}.nodes"] = nodes
        out[f"search.{kernel}.nodes_per_s"] = _ratio(nodes, sum(s[2] - s[1] for s in spans))
    by_item = {it.name: it for it in p.items}
    for key in NODE_ITEMS:
        item = by_item.get(key)
        out[f"search.nodes.{key}"] = item.nodes if item is not None else 0
    out["search.calls"] = len(all_search)
    durations = [s[2] - s[1] for s in all_search]
    out["search.call_p50_us"] = 1e6 * statistics.median(durations) if durations else 0.0
    budgeted = by_item.get("p5c3_budget")
    out["search.budget_overshoot_ms"] = (
        1e3 * (budgeted.wall - BUDGET_SECONDS) if budgeted is not None else 0.0)
    all_nodes = sum(s[4].get("nodes", 0) for s in all_search)
    waste = sum(s[4].get("nodes", 0) for s in all_search if s[4].get("status") == BUDGET)
    out["search.budget_waste_frac"] = _ratio(waste, all_nodes)

    out["solver.chromatic_index_s"] = _total(procs, ["solver.chromatic_index"])
    out["solver.chromatic_index_calls"] = len(_named(procs, ["solver.chromatic_index"]))
    certs = _named(procs, ["oracle.palette_index_exact"])
    out["oracle.palette_index_exact_s"] = _total(procs, ["oracle.palette_index_exact"])
    out["oracle.coloring_within_family_s"] = _total(procs, ["oracle.coloring_within_family"])
    out["oracle.exact_frac"] = _ratio(sum(bool(s[4].get("exact")) for s in certs), len(certs))
    out["oracle.naive_minimum_palettes_s"] = _total(procs, ["oracle.naive_minimum_palettes"])

    out["graphs.cartesian_product_s"] = _total(procs, ["graphs.cartesian_product"])
    out["graphs.product_edges"] = sum(
        s[4].get("edges", 0) for s in _named(procs, ["graphs.cartesian_product"]))
    out["graphs.matching_s"] = _total(
        procs, ["graphs.find_perfect_matching", "graphs.enumerate_perfect_matchings"])
    built = [s for spans in procs for s in outermost(spans, BUILDERS)]
    build_s = sum(s[2] - s[1] for s in built)
    out["constructions.build_s"] = build_s
    out["constructions.edges_per_s"] = _ratio(sum(s[4].get("edges", 0) for s in built), build_s)
    out["torus.coloring_s"] = _total(procs, ["torus.torus_three_palette_coloring"])
    out["torus.verify_partition_s"] = _total(procs, ["torus.verify_partition"])
    out["torus.even_cycle_classes_s"] = _total(procs, ["torus.even_cycle_classes"])
    out["theta.classes_s"] = _total(procs, ["theta.theta_classes"])

    checks = _named(procs, ["coloring.check_proper"])
    check_s = sum(s[2] - s[1] for s in checks)
    out["coloring.check_proper_s"] = check_s
    out["coloring.palette_summary_s"] = _self(procs, "coloring.palette_summary")
    out["coloring.edges_checked_per_s"] = _ratio(sum(s[4].get("edges", 0) for s in checks),
                                                 check_s)

    suites = _named(procs, ["verify.run_verify_suite"])
    out["verify.cases"] = sum(it.kind == "case" for it in p.items) if suites else 0
    for suite in SUITES:
        out[f"verify.{suite}_s"] = sum(s[2] - s[1] for s in suites if s[4].get("suite") == suite)
    out["formats.dump_json_s"] = _total(procs, ["formats.dump_json"])
    out["cli.self_s"] = _self(procs, "cli.main")
    out["corpus.small_corpus_s"] = _total(procs, ["corpus.small_corpus"])
    return out


def per_layer(traced_passes, untraced_passes) -> dict:
    per_pass = [layer_metrics(p) for p in traced_passes]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced = statistics.median(p.seconds for p in traced_passes)
    untraced = statistics.median(p.seconds for p in untraced_passes)
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    return out
