"""Tests of the benchmark itself: answers, node counts, metric names, bare runs.

Run with: python3 -m pytest perfbench/tests -q   (about three minutes)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request, tmp_path_factory):
    """An untraced and a traced pass of each workload."""
    wl = workloads.WORKLOADS[request.param](7, tmp_path_factory.mktemp("work"))
    try:
        wl.expect()
        yield wl, wl.run_pass(False), wl.run_pass(True)
    finally:
        wl.cleanup()


def test_traced_and_untraced_answers_match(passes):
    _, plain, traced = passes
    assert [(it.name, it.answer) for it in traced.items] == \
        [(it.name, it.answer) for it in plain.items]
    assert not any(it.wrong for it in plain.items + traced.items)
    assert traced.spans and not plain.spans


@pytest.mark.parametrize("passes", ["exact-search"], indirect=True)
def test_node_counts_repeat_and_match_seed(passes):
    _, plain, traced = passes
    for p in (plain, traced):
        nodes = {it.name: it.nodes for it in p.items if it.name in workloads.SEED_NODES}
        assert nodes == workloads.SEED_NODES
    layer = metrics.layer_metrics(traced)
    for key, count in workloads.SEED_NODES.items():
        assert layer[f"search.nodes.{key}"] == count


def test_every_metric_is_declared(passes):
    wl, plain, traced = passes
    e2e = metrics.end_to_end([plain], [0.1, 0.2], 50.0)
    assert set(e2e) == set(END_TO_END)
    assert set(metrics.per_layer([traced], [plain])) == set(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_seed_fixes_the_oracle_batch(tmp_path):
    def batch(seed, sub):
        wl = workloads.VerifySweep(seed, tmp_path / sub)
        return [p.read_text() for p, _ in wl.oracle_graphs]

    first = batch(5, "a")
    assert batch(5, "b") == first
    assert batch(6, "c") != first
    assert [len(json.loads(t)["edges"]) for t in first] == list(workloads.ORACLE_EDGE_COUNTS)


def test_tracer_rebinds_names_in_every_module():
    from palettebox import coloring, oracle, verify

    original = coloring.palette_summary
    tracer = tracing.Tracer()
    with tracer:
        assert verify.palette_summary is coloring.palette_summary is not original
        assert oracle.palette_summary is coloring.palette_summary
        cert = oracle.palette_index_exact(__import__("palettebox").cycle_graph(5))
    assert verify.palette_summary is original and oracle.palette_summary is original
    spans = tracer.spans()
    names = [s[0] for s in spans]
    assert "oracle.palette_index_exact" in names and "search.search_palette_count" in names
    top = next(s for s in spans if s[0] == "oracle.palette_index_exact")
    assert top[3] == -1 and top[4]["exact"] is True and cert.exact
    assert all(t >= -1e-9 for t in tracing.self_times(spans))


def test_percentile_spreads_rounded_samples():
    assert metrics.percentile([1.0, 2.0, 3.0], 50) == 2.0
    # half the samples at 0.4 and half at 0.5 put the median on the boundary
    assert metrics.percentile([0.4] * 50 + [0.5] * 50, 50, [0.1] * 100) == pytest.approx(0.45)
    assert metrics.percentile([0.5] * 100, 50, [0.1] * 100) == pytest.approx(0.5)


def test_speedometer_scales_wall_time_by_probe_speed():
    clock = speed.Speedometer()
    assert clock.seconds(1.0, 3.0) == 2.0
    assert speed.probe() == (126, 18)
    # probes 0.1 s apart that run twice as slow as the reference
    clock.starts = [1.0 + 0.1 * i for i in range(30)]
    clock.durations = [2 * speed.REFERENCE_S] * 30
    assert clock.factor(1.0, 4.0) == pytest.approx(0.5)
    # [1, 2) holds ten probes, whose own time is taken out first
    busy = 10 * 2 * speed.REFERENCE_S
    assert clock.seconds(1.0, 2.0) == pytest.approx((1.0 - busy) * 0.5)
    assert clock.scale(1.0, 2.0) == pytest.approx((1.0 - busy) * 0.5)
    # an interval holding no probe takes the nearest ones
    clock.durations[-speed.NEAREST:] = [speed.REFERENCE_S] * speed.NEAREST
    assert clock.factor(9.0, 9.5) == pytest.approx(1.0)
