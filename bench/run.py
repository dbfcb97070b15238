#!/usr/bin/env python3
"""Run one warmsum benchmark workload and print its metrics.

    python3 bench/run.py --workload synthetic-decode --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run records
spans around every call into warmsum and reports the per-layer metrics.
Results and span files go to bench/out/. Exit code 2 means the program or its
data could not be found.
"""

import os

# one BLAS thread: the closed loop has one caller, and pinned threads keep
# the timings steady on a shared 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("warm-start", "synthetic-decode", "vietnamese-long"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "warmsum" / "__init__.py",
                           ROOT / "data" / "mini_corpus.jsonl") if not p.is_file()]
    if missing:
        print(f"cannot run: {', '.join(str(p.relative_to(ROOT)) for p in missing)} "
              f"not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    details = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          BENCH / "out")
    harness.print_report(details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
