"""Benchmark for orthantwalks: three workloads through the package's public
functions, with output checks, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload catalog|deep-expansion|verify|all \\
        --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.  The
workloads are fixed amounts of work sized to take about ``--seconds`` on a
2-core machine; a pass is never cut short, so ``wall_s`` always covers the
same work.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
an untraced pass and then a traced one and reports the per-layer metrics,
including ``trace.overhead_s`` (traced minus untraced wall time).

Standard output: one line per metric with its unit, a JSON report (machine
facts, drawn inputs, every check), and as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count output checks, so ``fail_frac`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import importlib
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog", "deep-expansion", "verify")
END_TO_END = ("setup_s", "wall_s", "job_p50_s", "peak_rss_mb")
SETUP_SAMPLES = 7  # fresh processes timed for setup_s; the median is reported
CHILD_TIMEOUT_S = 170


def _use_checkout_package():
    if not (SRC / "orthantwalks" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'orthantwalks'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def timed_setup(name, seed):
    """Import the package and build the workload's inputs in this process."""
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    wl = workloads.build(name, seed)
    elapsed = time.perf_counter() - t0
    package = Path(sys.modules["orthantwalks"].__file__).parent
    if package.resolve() != (SRC / "orthantwalks").resolve():
        sys.exit(f"error: imported orthantwalks from {package}, not {SRC}")
    return wl, elapsed


def setup_in_fresh_process(name, seed):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(jobs):
    """Run every job once, in order; returns (wall seconds, [(job, latency, output, error)])."""
    records = []
    first = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception:  # a job that raises is a failed check, not a crash
            out, err = None, traceback.format_exc(limit=3)
        records.append((job, time.perf_counter() - t0, out, err))
    return time.perf_counter() - first, records


def check_pass(records):
    from workloads import Check
    checks = []
    for job, _, out, err in records:
        if err is not None:
            checks.append(Check(job.name, "fail", detail=err.strip().splitlines()[-1]))
            continue
        try:
            checks.extend(job.check(out))
        except Exception:
            checks.append(Check(job.name, "fail",
                                detail="check raised: " + traceback.format_exc(limit=2)))
    return checks


def machine_facts(threads, seed):
    import mpmath
    import numpy
    from orthantwalks import _dp

    def imports(mod):
        try:
            importlib.import_module(mod)
            return True
        except ImportError:
            return False

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numba_imports": imports("numba"),
        "gmpy2_imports": imports("gmpy2"),
        "dp_kernel_backend": _dp.kernel_backend(),
        "threads": threads,
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def traced_pass(name, seed):
    from instrument import LAYER_MOVES, install, layer_metrics
    from spans import Probes, SpanSummary, Tracer

    tracer = Tracer()
    with Probes(tracer) as probes:
        install(probes)
        import workloads
        wl = workloads.build(name, seed)  # traced, so stepset work in set-up counts
        wall, _ = run_pass(wl.jobs)
    metrics = layer_metrics(SpanSummary(tracer.spans))
    return wall, metrics, len(tracer.spans), LAYER_MOVES


UNITS = {"_per_s": "1/s", "_s": "s", "_mb": "MB", "_frac": "fraction", "calls": "count",
         "cell_steps": "count", "bits": "bits", "points": "count", "cells": "count"}


def unit_of(metric):
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def run_workload(args):
    setup_samples = [setup_in_fresh_process(args.workload, args.seed)
                     for _ in range(SETUP_SAMPLES - 1)]
    wl, own_setup = timed_setup(args.workload, args.seed)
    setup_samples.append(own_setup)

    wall, records = run_pass(wl.jobs)
    rss = peak_rss_mb()
    latencies = [lat for _, lat, _, _ in records]
    import workloads
    checks = check_pass(records) + workloads.gate(wl.gate_models)

    counts = workloads.tally(checks)
    summary = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "job_p50_s": statistics.median(latencies),
        "peak_rss_mb": rss,
        "fail_frac": counts["fail_frac"],
        "partial_frac": counts["partial_frac"],
    }

    if args.trace:
        traced_wall, layers, n_spans, moves = traced_pass(args.workload, args.seed)
        layers["trace.overhead_s"] = traced_wall - wall
        layers["fail_frac"] = summary["fail_frac"]
        layers["partial_frac"] = summary["partial_frac"]
        reported = layers
    else:
        traced_wall = n_spans = moves = None
        reported = {k: summary[k] for k in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in {**summary, **(reported if args.trace else {})}.items():
        print(f"  {key:40s} {value:14.6g} {unit_of(key)}")
    print(f"  samples: setup_s {len(setup_samples)}, job_p50_s {len(latencies)} jobs, "
          f"checks {counts['attempted']} ({counts['failed']} failed)")
    report = {
        "workload": args.workload,
        "machine": machine_facts(wl.threads, args.seed),
        "inputs": wl.inputs,
        "run_seconds": args.seconds,
        "summary": summary,
        "setup_samples_s": setup_samples,
        "job_latencies_s": {job.name: lat for job, lat, _, _ in records},
        "traced": {"wall_s": traced_wall, "spans": n_spans, "layer_moves": moves}
        if args.trace else None,
        "checks": [{"name": c.name, "status": c.status, "hard": c.hard, "detail": c.detail}
                   for c in checks],
    }
    print(json.dumps(report, sort_keys=True))
    return {
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in reported.items()},
    }


def run_all(args):
    """Each workload in its own process; prints every result, then a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2)
        lines = out.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit(f"error: workload {name} exited with {out.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one setup_s sample, in a fresh process
    args = parser.parse_args(argv)
    _use_checkout_package()
    if args.setup_only:
        _, elapsed = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": elapsed}))
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
