"""Run one benchmark workload and print its result as the last line.

    python3 irlbench/run.py --workload fixed32-b95 --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy. The BLAS/OpenMP thread count is set explicitly, for this
process and every child it starts. A full
record of the run (versions, revision, every sample and check, and with
``--trace 1`` the spans) is written under ``irlbench/out/``.
"""

import time

PROCESS_START = time.perf_counter()  # setup_s counts from here

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread per process, never more than nproc. On a shared
# 2-CPU machine, two threads made the timings hostage to any other load: with
# one competing process a fixed32 ccp training took 47-76 s with two threads
# and 5.5-6.1 s with one.
BLAS_THREADS = 1


def git_revision():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the package sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ccpirl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def main():
    # so that a terminated run still removes its work files and children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "ccpirl", "__init__.py")):
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import numpy
    import scipy

    import ccpirl
    import workloads

    if not os.path.abspath(ccpirl.__file__).startswith(SRC + os.sep):
        print(f"error: ccpirl imported from {ccpirl.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    summary, record, tracer = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        PROCESS_START, OUT_DIR)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    record.update(
        blas_threads=threads, nproc=nproc,
        numpy=numpy.__version__, scipy=scipy.__version__,
        python=sys.version.split()[0], git_revision=git_revision(),
        source_sha256=source_digest(), result=summary)
    if args.trace:
        tracer.write(stem + "-spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
