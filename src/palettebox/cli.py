"""Command line front end.

Subcommands: gen, product, construct, torus, theta, oracle, verify,
export.  Exit codes: 0 success, 1 a check failed, 2 a search stopped
before a verdict, because its budget ran out, because it reached the
search's color limit or because ``oracle`` reached its --max-palettes
cap.  The default budget comes from the PALETTEBOX_BUDGET_SECONDS and
PALETTEBOX_BUDGET_NODES environment variables when flags are absent.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from palettebox import SUITES, formats
from palettebox.coloring import EdgeColoring, palette_summary
from palettebox.graphs import canonical_edge, cartesian_product
from palettebox.search import MAX_COLORS, BudgetExhausted, SearchBudget

# A command imports the modules that only it uses inside its function, so
# that a process loads no more than its command needs.

PASS, FAIL, INDETERMINATE = 0, 1, 2

BUDGET_SECONDS_ENV = "PALETTEBOX_BUDGET_SECONDS"
BUDGET_NODES_ENV = "PALETTEBOX_BUDGET_NODES"


def _budget_from(args) -> Optional[SearchBudget]:
    nodes = args.budget_nodes
    seconds = args.budget_seconds
    if nodes is None and BUDGET_NODES_ENV in os.environ:
        nodes = _env_value(BUDGET_NODES_ENV, int, "an integer")
    if seconds is None and BUDGET_SECONDS_ENV in os.environ:
        seconds = _env_value(BUDGET_SECONDS_ENV, float, "a number")
    if nodes is None and seconds is None:
        return None
    budget = SearchBudget(max_nodes=nodes, max_seconds=seconds)
    # --deterministic drops the checked seconds, so the node budget alone decides
    return SearchBudget(max_nodes=nodes) if args.deterministic else budget


def _env_value(name: str, kind, what: str):
    """The environment variable ``name`` read as ``kind``; a bad value names the variable."""
    text = os.environ[name]
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {what}, got {text!r}") from None


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--budget-nodes", type=int, default=None,
                   help="stop searches after this many nodes")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="stop searches after this much wall time")
    p.add_argument("--deterministic", action="store_true",
                   help="ignore wall-clock limits and null timings for reproducible output")


def _emit(args, obj: dict, text: str):
    """Write ``obj`` as JSON under --json and ``text`` otherwise, with a final newline."""
    _write_text(args, (formats.dump_json(obj) if args.json else text) + "\n")


def _write_text(args, text: str):
    """Write text to --out when given and to stdout otherwise."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coloring_report(col: EdgeColoring) -> tuple[dict, str]:
    summ = palette_summary(col)
    obj = formats.coloring_to_json(col)
    obj["palettes"] = formats.palettes_to_json(summ)
    pal = ", ".join("{" + ",".join(map(str, sorted(p))) + "}" for p in summ.distinct)
    text = (f"{col.graph.tag}: {col.graph.n} vertices, "
            f"{len(col.graph.edges)} edges, {summ.count} palettes: {pal}")
    return obj, text


def _cmd_gen(args) -> int:
    g = formats.parse_graph_spec(args.graph)
    _emit(args, formats.graph_to_json(g),
          f"{g.tag}: {g.n} vertices, {len(g.edges)} edges")
    return PASS


def _cmd_product(args) -> int:
    g = formats.parse_graph_spec(args.left)
    h = formats.parse_graph_spec(args.right)
    prod = cartesian_product(g, h)
    _emit(args, formats.graph_to_json(prod),
          f"{prod.tag}: {prod.n} vertices, {len(prod.edges)} edges")
    return PASS


def _cmd_construct(args) -> int:
    from palettebox.constructions import (
        class1_product_coloring,
        cubic_matching_reduction,
        cycle_times_regular_coloring,
        make_nrg_spec,
        nrg_product_coloring,
        path_times_class1_regular_coloring,
        path_times_regular_coloring,
        solve_exact,
    )

    budget = _budget_from(args)
    theorem = args.theorem
    # the theorems that read each flag; a theorem that reads --host or --s needs it
    readers = {"host": ("mah", "nrg"), "s": ("cng", "png", "cubic"), "remove": ("nrg",),
               "c": ("mah",), "mode": ("cubic",)}
    for flag, theorems in readers.items():
        given = getattr(args, flag) is not None
        if given and theorem not in theorems:
            raise ValueError(f"--{flag} needs --theorem {' or '.join(theorems)} alongside it")
        if not given and theorem in theorems and flag in ("host", "s"):
            raise ValueError(f"--theorem {theorem} needs --{flag}")
    g = formats.parse_graph_spec(args.graph)
    if theorem == "mah":
        h = formats.parse_graph_spec(args.host)
        g_col = solve_exact(g, budget).witness
        h_col = solve_exact(h, budget).witness
        col = class1_product_coloring(g_col, h_col, args.c)
    elif theorem == "nrg":
        h = formats.parse_graph_spec(args.host)
        removed = _parse_edges(args.remove)
        spec = make_nrg_spec(g, removed, budget=budget)
        col = nrg_product_coloring(spec, h, budget=budget)
    elif theorem == "cng":
        col = cycle_times_regular_coloring(args.s, g, budget=budget)
    elif theorem == "png":
        result = solve_exact(g, budget)
        if result.value == g.max_degree:
            col = path_times_class1_regular_coloring(args.s, g, g_col=result.witness)
        else:
            col = path_times_regular_coloring(args.s, g, g_col=result.witness)
    else:
        col = cubic_matching_reduction(args.s, g, mode=args.mode or "cycle", budget=budget)
    obj, text = _coloring_report(col)
    _emit(args, obj, text)
    return PASS


def _parse_edges(text: Optional[str]) -> list[tuple[int, int]]:
    """The edges of a --remove value, u-v items separated by commas."""
    if not text:
        return []
    out = []
    for part in text.split(","):
        u, _, v = part.partition("-")
        if not (u.isdecimal() and v.isdecimal()):
            raise ValueError(f"--remove takes edges u-v separated by commas, got {part!r}")
        out.append(canonical_edge(int(u), int(v)))
    return out


def _cmd_torus(args) -> int:
    from palettebox.torus import TorusDecomposition, torus_three_palette_coloring, verify_partition

    dec = TorusDecomposition(args.s, args.t)
    ok, problems = verify_partition(dec)
    if args.dot:
        _write_text(args, formats.export_class_dot(dec, f"C{args.s}xC{args.t}"))
        return PASS if ok else FAIL
    obj = formats.torus_to_json(dec)
    obj["partitionOk"] = ok
    if not ok:
        obj["problems"] = problems
    col = torus_three_palette_coloring(args.s, args.t)
    summ = palette_summary(col)
    obj["coloring"] = formats.coloring_to_json(col)
    obj["palettes"] = formats.palettes_to_json(summ)
    text = (f"C_{args.s} x C_{args.t}: partition {'ok' if ok else 'BROKEN'}, "
            f"{summ.count} palettes")
    _emit(args, obj, text)
    return PASS if ok else FAIL


def _cmd_theta(args) -> int:
    from palettebox.theta import is_partial_cube, theta_classes, theta_removal_coloring

    g = formats.parse_graph_spec(args.graph)
    if args.remove is None:
        for flag, value in (("--host", args.host), ("--class", args.klass)):
            if value is not None:
                raise ValueError(f"{flag} needs --remove alongside it")
    else:
        if args.host is None:
            raise ValueError("--remove needs --host alongside it")
        removed = _parse_edges(args.remove)
        host = formats.parse_graph_spec(args.host)
        klass = 0 if args.klass is None else args.klass
        col = theta_removal_coloring(g, klass, removed, host, budget=_budget_from(args))
        obj, text = _coloring_report(col)
        _emit(args, obj, text)
        return PASS
    tc = theta_classes(g)
    cube = is_partial_cube(tc)
    obj = {
        "classes": [[list(e) for e in cls] for cls in tc.classes],
        "count": tc.count,
        "isPartialCube": cube,
        "everyVertexInEveryClass": tc.every_vertex_in_every_class,
    }
    text = (f"{g.tag}: {tc.count} theta classes, "
            f"partial cube: {'yes' if cube else 'no'}")
    _emit(args, obj, text)
    return PASS


def _cmd_oracle(args) -> int:
    from palettebox.oracle import default_max_palettes, lower_bound, palette_index_exact

    g = formats.parse_graph_spec(args.graph)
    budget = _budget_from(args)
    if args.lower_bound_only:
        value, rule = lower_bound(g, budget)
        _emit(args, {"lower": value, "rule": rule}, f"palette index >= {value} ({rule})")
        return PASS
    cert = palette_index_exact(g, max_palettes=args.max_palettes, budget=budget)
    obj = formats.certificate_to_json(cert)
    if cert.exact:
        text = f"palette index of {g.tag} = {cert.lower} (rule: {cert.rule})"
    else:
        if cert.stop == "max-palettes":
            cap = args.max_palettes if args.max_palettes is not None else default_max_palettes(g)
            why = f"stopped at --max-palettes {cap}"
        elif cert.stop == "color-width":
            why = f"stopped at the search's {MAX_COLORS}-color limit"
        else:
            why = "budget ran out"
        text = f"palette index of {g.tag} in [{cert.lower}, {cert.upper}] ({why})"
    _emit(args, obj, text)
    return PASS if cert.exact else INDETERMINATE


def _cmd_verify(args) -> int:
    from palettebox.verify import run_verify_suite

    report = run_verify_suite(args.suite, bound=args.max, budget=_budget_from(args),
                              deterministic=args.deterministic)
    lines = [f"{c['name']}: {c['outcome']}" + (f" ({c['detail']})" if c["detail"] else "")
             for c in report["cases"]]
    lines.append(f"suite {report['suite']}: {report['status']} "
                 f"({report['passed']} passed, {report['failed']} failed, "
                 f"{report['indeterminate']} indeterminate)")
    _emit(args, report, "\n".join(lines))
    if report["status"] == "pass":
        return PASS
    return FAIL if report["status"] == "fail" else INDETERMINATE


def _cmd_export(args) -> int:
    import json

    with open(args.coloring) as fh:
        col = formats.coloring_from_json(json.load(fh))
    _write_text(args, formats.export_dot(col, name=args.name))
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palettebox",
        description="Palette-minimizing edge colorings of Cartesian product graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the output flags of every command that can print JSON
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true")
    output.add_argument("--out")

    p = sub.add_parser("gen", parents=[output], help="emit a generated graph as JSON")
    p.add_argument("graph", help="graph spec: P<n>, C<n>, K<n>, Q<r>, petersen, or JSON path")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("product", parents=[output], help="Cartesian product of two graph specs")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("construct", parents=[output],
                       help="run a named product coloring construction")
    p.add_argument("--theorem", required=True, choices=("mah", "nrg", "cng", "png", "cubic"))
    p.add_argument("--graph", required=True, help="the main factor G")
    p.add_argument("--host", help="the other factor H (mah, nrg)")
    p.add_argument("--s", type=int, help="layer count for cng/png/cubic")
    p.add_argument("--c", type=int,
                   help="class of G sent to H's missing colors when H is class 2 (mah),"
                        " default Delta(G); any c gives regular factors [Delta(G)+Delta(H)]")
    p.add_argument("--remove", help="edges u-v,x-y to delete (nrg)")
    p.add_argument("--mode", choices=("cycle", "path"), help="cubic only, default cycle")
    _add_budget_flags(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("torus", parents=[output],
                       help="Z-walk decomposition and coloring of C_s x C_t")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--dot", action="store_true", help="emit class-styled DOT instead of JSON")
    p.set_defaults(fn=_cmd_torus)

    p = sub.add_parser("theta", parents=[output], help="theta classes; optionally color (G-X) x H")
    p.add_argument("graph")
    p.add_argument("--remove", help="edges u-v,x-y inside one class")
    p.add_argument("--class", dest="klass", type=int, default=None,
                   help="class index the removed edges belong to, default 0")
    p.add_argument("--host", help="the factor H for the removal coloring")
    _add_budget_flags(p)
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("oracle", parents=[output], help="exact palette index with certificate")
    p.add_argument("graph")
    p.add_argument("--max-palettes", type=int, default=None)
    p.add_argument("--lower-bound-only", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("verify", parents=[output], help="run a verification sweep")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max", type=int,
                   help="sweep bound, default the suite's own; nrg and cubic take none")
    _add_budget_flags(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export", help="DOT render of a coloring JSON file")
    p.add_argument("coloring", help="path to coloring JSON")
    p.add_argument("--name", default="G")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExhausted as exc:
        print(str(exc), file=sys.stderr)
        return INDETERMINATE
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
