"""papnf benchmark: train and evaluate through the public API, one client.

Run from the root of a papnf checkout:

    python3 perfbench/run.py --workload train_s8 --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines
before it list every metric with its unit, the sample counts and the
environment. Per-run records (and, when traced, the spans) go to
``.perfbench_out/`` in the checkout. perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_blas() -> int:
    """One BLAS thread; must run before numpy is imported.

    Returns the number of CPUs this process may run on, which is what
    ``nproc`` prints.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "papnf", "__init__.py")):
        print(f"perfbench: no papnf sources under {src}; run from a papnf checkout",
              file=sys.stderr)
        return 2
    nproc = pin_blas()
    sys.path.insert(0, src)
    import workloads  # imports numpy and papnf, so only after the two lines above

    # thread_count() defaults to min(4, os.cpu_count()), which can exceed the
    # CPUs this process may use; pool threads times BLAS threads stay <= nproc
    if workloads.peval.thread_count() > nproc:
        os.environ["PAPNF_THREADS"] = str(nproc)
    args = parse_args(argv, workloads.WORKLOADS)
    return workloads.run_workload(args, nproc, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
