"""The closed loop: set up, run rounds for the measured time, check, report."""

from __future__ import annotations

import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans as tracing
import workloads

# set-up repeats at least this often and for at least this long; setup_s is the median
MIN_SETUPS, MIN_SETUP_SECONDS = 3, 4.0


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        workload=None) -> dict:
    """Run one workload and return its report.

    Rounds repeat until `seconds` have passed; there is always at least one.
    A traced run sets up once and records spans in that set-up and in every
    round but the first; it reports per-layer metrics only. Its first round
    records nothing and counts the objects the cyclic collector frees, as an
    untraced run would see them.
    """
    workload = workload or workloads.WORKLOADS[name]()
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        setup_times = []
        while not setup_times or not tracer and (
                len(setup_times) < MIN_SETUPS or sum(setup_times) < MIN_SETUP_SECONDS):
            if tracer:
                tracer.open_root(tracing.SETUP)
            t = time.perf_counter()
            state = workload.setup(seed, work / f"setup{len(setup_times)}")
            setup_times.append(time.perf_counter() - t)
            if tracer:
                tracer.close_root()

        rounds, round_times = [], []
        min_rounds = 2 if tracer else 1
        began = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - began < seconds:
            recording = tracer is not None and len(rounds) > 0
            if recording:
                tracer.open_root(tracing.ROUND)
            elif tracer:
                tracer.counting = True
            t = time.perf_counter()
            rounds.append(workload.run(state, work / f"round{len(rounds)}"))
            round_times.append(time.perf_counter() - t)
            if recording:
                tracer.close_root()
            elif tracer:
                tracer.counting = False
    finally:
        if tracer:
            tracer.uninstall()

    results = workload.check(state, rounds)
    shutil.rmtree(work, ignore_errors=True)
    if tracer:
        metrics = tracing.derive_metrics(tracer)
        tracer.save(out_dir / f"spans-{name}-s{seed}.npz")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "round_s": (statistics.median(round_times), "s"),
            "rougeL": (rounds[-1].quality, "F1x100"),
        }
    report = {
        "correct": all(v is None for v in results.values()),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_times_s": setup_times, "round_times_s": round_times,
        "checks": results, "errors": [e for r in rounds for e in r.errors],
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform(), "processor": platform.processor()},
        **report,
    }
    (out_dir / f"result-{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(details, indent=2) + "\n", encoding="utf-8")
    return details


def print_report(details: dict, file=sys.stdout) -> None:
    """Every metric by name and unit, each check, then the one-line JSON result."""
    for key, m in details["metrics"].items():
        print(f"{key:40s} {m['value']:16.6f} {m['unit']}", file=file)
    for key, failure in details["checks"].items():
        print(f"check {key}: {'ok' if failure is None else 'FAILED: ' + failure}", file=file)
    print(f"attempted {details['attempted']}, failed {details['failed']}", file=file)
    print(json.dumps({k: details[k] for k in ("correct", "attempted", "failed", "metrics")}),
          file=file)
