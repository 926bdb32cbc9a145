"""Layer-timed serving benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload refresh-bound --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics.  Every metric is printed as ``name = value unit (n=…)``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.  Workloads and metrics: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS threads, pinned so the numbers measure the program and not the
#: scheduler (never more than the cores present).
BLAS_THREADS = 1


def _pin() -> list[int] | None:
    """Pin BLAS to ``BLAS_THREADS`` and the process to one CPU.

    One CPU keeps the hand-offs between the producer, the async worker and
    the tcp listener threads (serialized by the interpreter lock anyway)
    off cross-CPU wake-ups, whose latency on a virtual machine follows the
    host's load rather than the program.  Threads inherit the affinity, so
    this runs before any thread starts.  Returns the CPUs in use.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not hasattr(os, "sched_setaffinity"):
        return None
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return sorted(os.sched_getaffinity(0))


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not this checkout")


def environment(args, workload, cpus) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_affinity": cpus,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": args.seed,
        "offered_rate_pts_per_s": workload.offered_rate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpus = _pin()
    _import_program()
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"env: {json.dumps(environment(args, workload, cpus))}")
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    print(
        f"workload {workload.name}: {result['episodes']} episodes, "
        f"{result['measured_s']:.3f} s measured, failed_frac = "
        f"{result['failed_frac']:.6g} ({result['failed']}/{result['attempted']})"
    )
    for name in result["failed_checks"]:
        print(f"FAILED CHECK: {name}")
    for name, (value, unit, samples) in {**result["metrics"], **result["also"]}.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
