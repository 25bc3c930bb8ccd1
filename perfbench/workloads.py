"""The three benchmark workloads: inputs, passes and answer checks.

A workload builds its inputs once (the set-up the ``setup_s`` metric
times), computes the answers it will check against outside any timed
region, and then runs passes.  A pass runs every item of the workload
once and returns an ``Item`` per checked answer.  Answers are checked
after the pass, so checking never counts as work of the program.  Every
time an item or pass reports is in reference seconds, from the
workload's ``speed.Speedometer`` (wall seconds where it was never
started, as in the tests).

* ``exact-search`` calls the search kernels through the library on fixed
  instances, the hardest small case (P3 x C5) among them.
* ``verify-sweep`` runs the command line as users do, one child process
  at a time: five verify suites and a seeded batch of ``oracle`` calls.
* ``large-products`` builds and checks product colorings of about 1e5
  edges each, where search does no work.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from palettebox import (
    coloring,
    constructions,
    corpus,
    formats,
    graphs,
    oracle,
    search,
    solver,
    theta,
    torus,
)

import tracing
from speed import Speedometer

HERE = Path(__file__).resolve().parent
TRACE_CLI = HERE / "trace_cli.py"

CHILD_TIMEOUT_S = 150.0

# Node counts of the unbudgeted exact-search items; the tests pin them.
SEED_NODES = {"p3c5": 1_865_043, "c3c5": 48_050, "p5c5_family": 291_805, "k9": 113_994}

BUDGET_SECONDS = 0.25


@dataclass
class Item:
    """One checked answer of a pass.

    ``ok`` is false when the item did not deliver its full checked answer;
    ``wrong`` is true only when what it did deliver contradicts the known
    answer.  ``answer`` must be equal on every pass, traced or not.
    ``kind`` is "case" for items whose latency enters the case
    percentiles, "call" for a whole command-line call and "budgeted" for
    a search that stops on the clock.
    """

    name: str
    seconds: float
    ok: bool
    wrong: bool
    answer: object
    # the rounding step of ``seconds`` where the program reports it rounded
    resolution: float = 0.0
    # plain wall seconds, where a wall-clock budget makes them the measure
    wall: float = 0.0
    edges: int = 0
    nodes: Optional[int] = None
    kind: str = "case"
    detail: str = ""


@dataclass
class Pass:
    seconds: float
    wall: float
    items: list[Item]
    spans: list[list[list]] = field(default_factory=list)  # one span list per process


def _summary(col) -> tuple[bool, tuple]:
    """Properness and sorted distinct palettes, checked outside timing."""
    ok, _ = coloring.check_proper(col)
    if not ok:
        return False, ()
    return True, coloring.palette_summary(col).distinct


class _InProcess:
    """Shared pass loop for workloads whose items are library calls.

    Their instances are fixed, so the seed changes nothing.
    """

    name = ""
    in_process = True

    def __init__(self, clock: Speedometer):
        self.clock = clock

    def cleanup(self):
        pass

    def run_pass(self, traced: bool) -> Pass:
        tracer = tracing.Tracer() if traced else None
        results = []
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            for name, call in self.calls():
                t0 = time.perf_counter()
                out = call()
                results.append((name, t0, time.perf_counter(), out))
            end = time.perf_counter()
        items = []
        for name, t0, t1, out in results:
            items.append(self.check(name, self.clock.seconds(t0, t1), out))
            items[-1].wall = t1 - t0
        return Pass(self.clock.seconds(start, end), end - start, items,
                    [tracer.spans()] if tracer else [])


class ExactSearch(_InProcess):
    """Exhaustive and budgeted searches on fixed small products."""

    name = "exact-search"

    def __init__(self, seed: int, workdir: Path, clock: Speedometer = None):
        super().__init__(clock or Speedometer())
        path, cycle = graphs.path_graph, graphs.cycle_graph
        self.p3c5 = graphs.cartesian_product(path(3), cycle(5))
        self.c3c5 = graphs.cartesian_product(cycle(3), cycle(5))
        self.p5c5 = graphs.cartesian_product(path(5), cycle(5))
        self.p5c3 = graphs.cartesian_product(path(5), cycle(3))
        self.k9 = graphs.complete_graph(9)

    def expect(self):
        # P3 x C5 and P5 x C3 are odd C_s x P_t blocks, whose palette index
        # is 4 (the verify suite's tpc-table); C3 x C5 is regular of odd
        # order, so class 2, and has a 3-palette coloring.
        self.known = {"p3c5": 4, "c3c5": 3, "k9": 9, "p5c3_budget": 4}
        self.family = {frozenset(p) for p in constructions.PATH_MODE_FAMILY}

    def calls(self):
        def family_search():
            tracker = search.BudgetTracker(None)
            status, col = oracle.coloring_within_family(
                self.p5c5, constructions.PATH_MODE_FAMILY, tracker)
            return status, col, tracker.nodes

        budget = search.SearchBudget(max_seconds=BUDGET_SECONDS)
        return [
            ("c3c5", lambda: oracle.palette_index_exact(self.c3c5)),
            ("k9", lambda: solver.chromatic_index(self.k9)),
            ("p5c5_family", family_search),
            ("p5c3_budget", lambda: oracle.palette_index_exact(self.p5c3, budget=budget)),
            ("p3c5", lambda: oracle.palette_index_exact(self.p3c5)),
        ]

    def check(self, name: str, seconds: float, out) -> Item:
        if name == "k9":
            col = out.witness
            wrong = out.status == "exact" and (
                out.value != self.known["k9"] or not coloring.check_proper(col)[0]
                or col.max_color > out.value)
            ok = out.status == "exact" and not wrong
            return Item(name, seconds, ok, wrong, (out.status, out.value, out.nodes),
                        edges=len(col.graph.edges) if col else 0, nodes=out.nodes,
                        detail="" if ok else f"{out.status} chromatic index {out.value}")
        if name == "p5c5_family":
            status, col, nodes = out
            # a 4-palette coloring inside the family is known to exist
            wrong = status == search.EXHAUSTED
            if col is not None:
                proper, pals = _summary(col)
                wrong = not proper or len(pals) != 4 or not set(map(frozenset, pals)) <= self.family
            ok = status == search.FOUND and not wrong
            return Item(name, seconds, ok, wrong, (status, nodes),
                        edges=len(col.graph.edges) if col else 0, nodes=nodes,
                        detail="" if ok else f"family search status {status}")
        # A certificate's interval must contain the known index and be
        # closed, and its witness must be proper and attain the upper bound.
        want = self.known[name]
        lower, upper, col = out.lower, out.upper, out.witness
        wrong = lower > want or (upper is not None and upper < want)
        if col is not None:
            proper, pals = _summary(col)
            wrong = wrong or not proper or len(pals) != upper
        ok = not wrong and upper is not None
        edges = len(col.graph.edges) if col else 0
        detail = "" if ok and out.exact else f"certificate [{lower}, {upper}], index is {want}"
        if name == "p5c3_budget":
            # The search stops on the clock: how far it got, and so its
            # interval, nodes and time, depend on machine speed.  It is
            # checked for soundness, and its latency says how well the
            # budget is kept, not how fast a case is answered.
            return Item(name, seconds, ok, wrong, None, edges=edges, kind="budgeted",
                        detail="" if ok else detail)
        ok = ok and out.exact
        return Item(name, seconds, ok, wrong, (lower, upper, out.nodes), edges=edges,
                    nodes=out.nodes, detail=detail)


TORUS_PALETTES = frozenset({(1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)})


def _interval(k: int) -> tuple:
    return tuple(range(1, k + 1))


class LargeProducts(_InProcess):
    """Constructions of about 1e5 edges, each checked for properness and palettes."""

    name = "large-products"

    def __init__(self, seed: int, workdir: Path, clock: Speedometer = None):
        super().__init__(clock or Speedometer())
        self.petersen = graphs.petersen_graph()
        self.c5 = graphs.cycle_graph(5)
        self.q3 = graphs.hypercube_graph(3)
        self.q5 = graphs.hypercube_graph(5)
        self.c1001 = graphs.cycle_graph(1001)
        self.c4001 = graphs.cycle_graph(4001)
        self.c301 = graphs.cycle_graph(301)
        self.c302 = graphs.cycle_graph(302)

    def expect(self):
        # C_s x G for class-2 regular G: palettes [r+2], [r+1]+{r+3} and
        # P_h(v)+{r+2, r+3}, where h is the solver's coloring of G (r = 2).
        h = solver.chromatic_index(self.c5).witness
        last = {tuple(sorted(h.palette(v) | {4, 5})) for v in range(self.c5.n)}
        self.expected = {
            "torus": TORUS_PALETTES,
            "cubic": frozenset(p + (7,) for p in TORUS_PALETTES),
            "cycle_times_regular": frozenset({_interval(4), (1, 2, 3, 5)} | last),
            "path_times_class1": frozenset({_interval(4), _interval(5)}),
            "nrg": frozenset({_interval(4), _interval(5)}),
            "theta_removal": frozenset({_interval(6), _interval(7)}),
            "class1_product": frozenset({_interval(4)}),
        }

    def _torus(self):
        dec = torus.TorusDecomposition(301, 301)
        partition_ok, _ = torus.verify_partition(dec)
        classes_ok, _ = torus.even_cycle_classes(dec)
        return torus.torus_three_palette_coloring(301, 301), partition_ok and classes_ok

    def _class1(self):
        g_col = solver.chromatic_index(self.c302).witness
        h_col = solver.chromatic_index(self.c301).witness
        return constructions.class1_product_coloring(g_col, h_col), True

    def calls(self):
        def built(fn: Callable[[], object]):
            return lambda: (fn(), True)

        builders = [
            ("torus", self._torus),
            ("cubic", built(lambda: constructions.cubic_matching_reduction(4001, self.petersen))),
            ("cycle_times_regular",
             built(lambda: constructions.cycle_times_regular_coloring(10001, self.c5))),
            ("path_times_class1",
             built(lambda: constructions.path_times_class1_regular_coloring(4001, self.q3))),
            ("nrg", built(lambda: constructions.nrg_product_coloring(
                constructions.make_nrg_spec(self.q3, [(0, 1)]), self.c4001))),
            ("theta_removal",
             built(lambda: theta.theta_removal_coloring(self.q5, 0, [(0, 1)], self.c1001))),
            ("class1_product", self._class1),
        ]
        return [(name, self._build_and_check(fn)) for name, fn in builders]

    @staticmethod
    def _build_and_check(build):
        # The program's own properness and palette pass is part of the item;
        # only small results leave it, so colorings do not pile up in memory.
        def call():
            col, structure_ok = build()
            proper, _ = coloring.check_proper(col)
            distinct = coloring.palette_summary(col).distinct if proper else ()
            return {"edges": len(col.graph.edges), "proper": proper, "distinct": distinct,
                    "structure_ok": structure_ok}
        return call

    def check(self, name: str, seconds: float, out) -> Item:
        got = frozenset(out["distinct"])
        wrong = not out["proper"] or not out["structure_ok"] or got != self.expected[name]
        return Item(name, seconds, not wrong, wrong, (out["edges"], out["proper"], sorted(got)),
                    edges=out["edges"],
                    detail="" if not wrong else f"palettes {sorted(got)}")


VERIFY_CALLS = (
    ("torus",),
    ("nrg",),
    ("cubic",),
    ("oracle-cross",),
    # --max 4 keeps every case type of the suite but leaves out the two
    # oracle exhaustions (P5 x C3, P3 x C5) that exact-search owns.
    ("cycle-path", "--max", "4"),
)

# One random graph per edge count, so the batch has the same shape on every
# seed while its graphs differ; 12 edges keeps the naive oracle in range.
ORACLE_EDGE_COUNTS = tuple(range(5, 13))


class VerifySweep:
    """The command line as users run it: many small calls, one at a time."""

    name = "verify-sweep"
    in_process = False
    # the verify report rounds case seconds to 0.1 ms
    CASE_RESOLUTION_S = 1e-4

    def __init__(self, seed: int, workdir: Path, clock: Speedometer = None):
        self.clock = clock or Speedometer()
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        self.oracle_graphs = []
        for m in ORACLE_EDGE_COUNTS:
            g = corpus.random_graph(rng, 2, 6)
            while len(g.edges) != m:
                g = corpus.random_graph(rng, 2, 6)
            path = workdir / f"oracle-m{m}.json"
            path.write_text(json.dumps(formats.graph_to_json(g)) + "\n")
            self.oracle_graphs.append((path, g))

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def expect(self):
        self.naive = [oracle.naive_minimum_palettes(g) for _, g in self.oracle_graphs]

    def _argvs(self) -> list[tuple[str, list[str]]]:
        out = [(f"verify {args[0]}", ["verify", *args, "--json"]) for args in VERIFY_CALLS]
        out += [(f"oracle m={len(g.edges)}", ["oracle", str(path), "--json"])
                for path, g in self.oracle_graphs]
        return out

    def run_pass(self, traced: bool) -> Pass:
        runs = []
        spans_files = []
        start = time.perf_counter()
        for i, (label, argv) in enumerate(self._argvs()):
            if traced:
                spans_path = self.workdir / f"spans-{i}.json"
                spans_files.append(spans_path)
                cmd = [sys.executable, str(TRACE_CLI), str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "palettebox.cli", *argv]
            runs.append((label, *run_child(cmd)))
        end = time.perf_counter()
        spans = []
        for path in spans_files:
            if path.exists():
                spans.append(json.loads(path.read_text()))
                path.unlink()
        items = []
        oracle_index = 0
        for label, code, stdout, stderr, t0, t1 in runs:
            secs = self.clock.seconds(t0, t1)
            if label.startswith("verify"):
                items.extend(self._check_verify(label, code, stdout, stderr, secs,
                                                self.clock.scale(t0, t1)))
            else:
                items.append(self._check_oracle(label, oracle_index, code, stdout, stderr, secs))
                oracle_index += 1
        return Pass(self.clock.seconds(start, end), end - start, items, spans)

    def _check_verify(self, label, code, stdout, stderr, secs, scale) -> list[Item]:
        try:
            report = json.loads(stdout)
            cases = report["cases"]
        except (ValueError, KeyError, TypeError):
            return [Item(label, secs, False, False, None, kind="call",
                         detail=f"exit {code}: {stderr.strip()[-200:]}")]
        items = []
        for case in cases:
            ok = case["outcome"] == "pass"
            # a "fail" outcome is the program contradicting an expectation
            items.append(Item(case["name"], case["seconds"] * scale, ok,
                              case["outcome"] == "fail", case["outcome"],
                              resolution=self.CASE_RESOLUTION_S * scale,
                              detail=case["detail"] or ""))
        return items

    def _check_oracle(self, label, i, code, stdout, stderr, secs) -> Item:
        want = self.naive[i]
        _, graph = self.oracle_graphs[i]
        try:
            cert = json.loads(stdout)
        except ValueError:
            return Item(label, secs, False, False, None, kind="call",
                        detail=f"exit {code}: {stderr.strip()[-200:]}")
        lower, upper = cert["lower"], cert["upper"]
        wrong = lower > want or (upper is not None and upper < want)
        edges = 0
        if cert["witness"] is not None:
            col = formats.coloring_from_json(cert["witness"])
            same_graph = col.graph.edges == graph.edges and col.graph.n == graph.n
            proper, pals = _summary(col)
            wrong = wrong or not same_graph or not proper or len(pals) != upper
            edges = len(col.graph.edges)
        ok = code == 0 and cert["exact"] and lower == want and not wrong
        return Item(label, secs, ok, wrong, (lower, upper), edges=edges, kind="call",
                    detail="" if ok else f"certificate [{lower}, {upper}], naive {want}")


def run_child(cmd: list[str]) -> tuple[int, str, str, float, float]:
    """Run one child to completion; returns (code, stdout, stderr, start, end)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        stderr += f"\ntimed out after {CHILD_TIMEOUT_S} s"
    return proc.returncode, stdout, stderr, t0, time.perf_counter()


WORKLOADS = {w.name: w for w in (ExactSearch, VerifySweep, LargeProducts)}
