#!/usr/bin/env python3
"""Run the bundled warm-start comparison benchmark.

Uses the default ExperimentConfig (synthetic corpus, MLM pretraining, all
three assembly modes, three seeds) and writes artifacts plus the results
table under runs/warm_start/. Resumable: rerunning reuses finished cells.
Prints the wall time, the user and system CPU time and the minor page
faults of the run.
"""

import argparse
import resource
import time

from warmsum.experiment import ExperimentConfig, run_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--output-dir", default="runs/warm_start")
    args = ap.parse_args()
    cfg = ExperimentConfig(output_dir=args.output_dir)
    start = time.time()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    table = run_experiment(cfg)
    spent = resource.getrusage(resource.RUSAGE_SELF)
    print(table.render_text())
    meds = table.medians()
    if {"WARM2WARM", "WARM2RND", "RND2RND"} <= set(meds):
        gap = meds["WARM2WARM"][2] - meds["RND2RND"][2]
        print(f"median ROUGE-L gap (WARM2WARM - RND2RND): {gap:.2f}")
    print(f"wall time: {time.time() - start:.0f}s; "
          f"CPU user {spent.ru_utime - usage.ru_utime:.1f}s, "
          f"system {spent.ru_stime - usage.ru_stime:.1f}s; "
          f"minor page faults: {spent.ru_minflt - usage.ru_minflt}; "
          f"artifacts in {cfg.output_dir}")


if __name__ == "__main__":
    main()
