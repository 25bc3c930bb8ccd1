"""palettebox benchmark: one workload per run, result as JSON on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead.  Passes
repeat until ``--seconds`` would be exceeded; there is always at least
one.  The program runs from this checkout's ``src`` with the pure-Python
kernels; nothing needs to be installed.  The benchmark and its children
run pinned to one CPU, and times are reported in reference seconds,
corrected for that CPU's speed (speed.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

SETUP_PROBES = 9
CALIBRATION_LOOPS = 3


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; the median of a few repeats."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_setup(workload: str, seed: int, clock) -> float:
    """Time from starting a fresh process until its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return clock.seconds(t0, t1)


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, the one the speed probe measures."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _environment() -> dict:
    import numpy
    from palettebox import search

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "backend": search.active_backend(),
        "has_numba": search.HAS_NUMBA,
        "loadavg_start": os.getloadavg(),
    }


def _check_consistency(passes) -> list[str]:
    """Every pass, traced or not, must give the same answers in the same order."""
    problems = []
    first = [(it.name, it.answer) for it in passes[0].items]
    for i, p in enumerate(passes[1:], start=1):
        got = [(it.name, it.answer) for it in p.items]
        if got != first:
            diffs = [(a, b) for a, b in zip(first, got) if a != b] or [(len(first), len(got))]
            problems.append(f"pass {i} differs from pass 0: {diffs[0]}")
    return problems


def run(args) -> dict:
    import metrics
    import workloads

    env = _environment()
    if env["backend"] != "python":
        raise RuntimeError(f"kernel backend is {env['backend']}, the benchmark measures python")
    env["pinned_cpu"] = pin_to_one_cpu()
    env["calibration_s_before"] = calibrate()
    with Speedometer() as clock:
        setup_samples = [probe_setup(args.workload, args.seed, clock)
                         for _ in range(SETUP_PROBES)]
        wl = workloads.WORKLOADS[args.workload](args.seed, SCRATCH / f"run-{os.getpid()}",
                                                clock)
        try:
            wl.expect()
            untraced, traced = [], []
            start = time.perf_counter()
            rounds = 0
            while True:
                untraced.append(wl.run_pass(False))
                if args.trace:
                    traced.append(wl.run_pass(True))
                rounds += 1
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / rounds > args.seconds:
                    break
        finally:
            wl.cleanup()
            try:
                SCRATCH.rmdir()
            except OSError:
                pass

    env["calibration_s_after"] = calibrate()
    env["loadavg_end"] = os.getloadavg()
    passes = untraced + traced
    items = [it for p in passes for it in p.items]
    problems = _check_consistency(passes)
    problems += [f"{it.name}: wrong answer {it.detail}" for it in items if it.wrong]
    failures = sorted({f"{it.name}: {it.detail}" for it in items if not it.ok})

    if args.trace:
        values = metrics.per_layer(traced, untraced)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                                   else resource.RUSAGE_CHILDREN)
        values = metrics.end_to_end(untraced, setup_samples, usage.ru_maxrss / 1024)
    units = _units()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "speed": clock.summary(),
        "setup_s_samples": setup_samples,
        "untraced_passes": [p.seconds for p in untraced],
        "untraced_passes_wall_s": [p.wall for p in untraced],
        # in-process items of the untraced passes: name, seconds, wall seconds
        "items": [[it.name, it.seconds, it.wall] for p in untraced for it in p.items if it.wall],
        "traced_passes": [p.seconds for p in traced],
        "case_samples": sum(it.kind == "case" for p in untraced for it in p.items),
        "failures": failures, "problems": problems,
    }
    print(json.dumps(detail))
    return {
        "correct": not problems,
        "attempted": len(items),
        "failed": sum(not it.ok for it in items),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def _units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-search", "verify-sweep", "large-products"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "palettebox" / "__init__.py").is_file():
        print(f"error: no palettebox sources under {SRC}", file=sys.stderr)
        return 2
    # This checkout's sources and the pure-Python kernels, for this process
    # and every child; budget defaults from the caller's shell do not apply.
    for key in [k for k in os.environ if k.startswith("PALETTEBOX_")]:
        del os.environ[key]
    os.environ["PALETTEBOX_BACKEND"] = "python"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, SCRATCH / f"probe-{os.getpid()}")
        print("ready", flush=True)
        wl.cleanup()
        return 0

    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
