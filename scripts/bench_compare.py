#!/usr/bin/env python3
"""Compare the benchmark of a base revision with this checkout, in alternated pairs.

    python3 scripts/bench_compare.py --base HEAD~1 --pairs 10 \\
        --workload synthetic-decode warm-start --tag decode-heap

Run it from anywhere in a git checkout. The base revision is checked out
into a temporary `git worktree`, which is removed on exit, Ctrl-C included.
Pair i runs `bench/run.py --seed <1+i> --seconds 10 --trace 0` once in each
tree, base first in even-numbered pairs and the checkout first in odd ones.
The run length is fixed, so that every BENCH file compares runs of the same
length. The checkout is the working tree as it stands, uncommitted edits
included.

It writes BENCH_<tag>.json at the checkout's root: the machine, every run's
metrics and rounds (read from bench/out/result-*.json), and per workload and
end-to-end metric the median and quartiles of each side, the pairs in which
the checkout was better, whether the medians differ by no more than the
base's interquartile range ("within noise"), and a verdict against the bound
that BENCHMARK.json gives the metric ("unresolved" where the base's
interquartile range is wider than that bound).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")

SECONDS = 10  # each run's length, as `bench/run.py --seconds`
FIRST_SEED = 1  # pair i runs with seed FIRST_SEED + i


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method), and the values themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare_metric(pairs: list[tuple[float, float]], better: str, bound: float,
                   failed_share: dict | None = None) -> dict:
    """Summarise one metric over (base, change) pairs.

    `bound` is a share of the base's median, and `failed_share` each side's
    share of failed operations. The verdict is the first that holds of:

    - "unresolved": the base's IQR is wider than the bound, so the medians
      cannot tell a change inside the bound from the host's noise, and not
      every change run beats every base run;
    - "worse beyond bound": the checkout's median is worse than the base's by
      more than the bound;
    - "within noise": the medians differ by no more than the base's IQR;
    - for a better median, "better, but more operations failed" when the
      checkout's failed share is the larger, else "better" when the checkout
      is better in at least 9 of 10 pairs, else "better in fewer than 9 of
      10 pairs";
    - "worse, inside bound".
    """
    base, change = quartiles([b for b, _ in pairs]), quartiles([c for _, c in pairs])
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    beats_every_base = all(sign * (c - b) > 0 for c in change["values"] for b in base["values"])
    gain = sign * (change["median"] - base["median"])
    iqr = base["q3"] - base["q1"]
    too_wide = iqr > bound * abs(base["median"])
    relative = (change["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    more_failures = bool(failed_share) and failed_share["change"] > failed_share["base"]
    if too_wide and not beats_every_base:
        verdict = "unresolved"
    elif sign * relative < -bound:
        verdict = "worse beyond bound"
    elif abs(gain) <= iqr:
        verdict = "within noise"
    elif gain > 0 and more_failures:
        verdict = "better, but more operations failed"
    elif gain > 0:
        verdict = "better" if 10 * wins >= 9 * len(pairs) else "better in fewer than 9 of 10 pairs"
    else:
        verdict = "worse, inside bound"
    return {"base": base, "change": change, "change_better_in": wins, "pairs": len(pairs),
            "relative_change": relative, "base_iqr": iqr, "within_noise": abs(gain) <= iqr,
            "base_iqr_exceeds_bound": too_wide, "bound": bound, "verdict": verdict}


def aggregate(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of one workload's pairs, plus each side's rounds,
    correctness and failures. A pair counts for a metric only when both of its
    runs report it."""
    failed_share = {s: sum(r[s]["failed"] for r in runs)
                    / max(1, sum(r[s]["attempted"] for r in runs)) for s in SIDES}
    metrics = {}
    for m in end_to_end:
        pairs = [(r["base"]["metrics"][m["name"]], r["change"]["metrics"][m["name"]])
                 for r in runs if all(m["name"] in r[s]["metrics"] for s in SIDES)]
        if pairs:
            metrics[m["name"]] = compare_metric(pairs, m["better"], m["bound"], failed_share)
    return {
        "metrics": metrics,
        "rounds_per_run": {s: [r[s]["rounds"] for r in runs] for s in SIDES},
        "correct": {s: all(r[s]["correct"] for r in runs) for s in SIDES},
        "failed_share": failed_share,
    }


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in `tree`, as recorded by its result file."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = tree / "bench" / "out" / f"result-{workload}-s{seed}-t0.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not result.is_file():
        print(proc.stderr[-2000:], file=sys.stderr)
        return {"seed": seed, "exit_code": proc.returncode, "metrics": {}, "rounds": 0,
                "correct": False, "attempted": 0, "failed": 0}
    details = json.loads(result.read_text(encoding="utf-8"))
    return {"seed": seed, "exit_code": 0,
            "metrics": {k: m["value"] for k, m in details["metrics"].items()},
            "rounds": len(details["round_times_s"]),
            "correct": details["correct"], "attempted": details["attempted"],
            "failed": details["failed"]}


def _machine() -> dict:
    """The host, and the numpy and BLAS that both trees' runs import. warmsum
    pins that BLAS to one thread at import."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"cores": os.cpu_count(), "affinity": affinity, "python": platform.python_version(),
            "platform": platform.platform(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the git revision to compare against")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--tag", required=True, help="the output is BENCH_<tag>.json")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = set(args.workload) - {w["name"] for w in spec["workloads"]}
    if unknown or args.pairs < 1:
        ap.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs must be >= 1")
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    worktree = Path(tempfile.mkdtemp(prefix="bench-base-")) / "tree"
    try:
        _git("worktree", "add", "--detach", str(worktree), base_commit)
        trees = {"base": worktree, "change": ROOT}
        report = {
            "tag": args.tag,
            "base": {"rev": args.base, "commit": base_commit},
            "change": {"commit": _git("rev-parse", "HEAD"),
                       "uncommitted_edits": bool(_git("status", "--porcelain"))},
            "settings": {"pairs": args.pairs, "seconds": SECONDS,
                         "seeds": [FIRST_SEED + i for i in range(args.pairs)],
                         "order": "base first in even-numbered pairs"},
            "machine": {**_machine(), "loadavg_before": _loadavg()},
            "workloads": {},
        }
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                seed = FIRST_SEED + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = _run(trees[side], workload, seed)
                    print(f"{workload} pair {i} {side}: {run[side]['metrics']}", file=sys.stderr)
                runs.append(run)
            report["workloads"][workload] = {**aggregate(runs, spec["end_to_end"]), "runs": runs}
        report["machine"]["loadavg_after"] = _loadavg()
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(worktree.parent, ignore_errors=True)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:18s} {name:12s} {m['base']['median']:10.4f} -> "
                  f"{m['change']['median']:10.4f}  better in {m['change_better_in']}/{m['pairs']}"
                  f"  {m['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
