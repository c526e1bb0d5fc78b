"""mvhash benchmark: one workload per call, result as JSON on the last line.

    python3 bench/run.py --workload train-b8 --seed 1 --seconds 10 --trace 0

Runs from the repository root and imports mvhash from ``src/``. With
``--trace 0`` the last line holds every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` every per-layer metric. The line
before it is the full record: environment, operation counts, check
failures, and the workload's metrics under their own names. Exits 1 when
an output check fails, 2 when the program or BENCHMARK.json is missing.
See bench/README.md.
"""

import os

# Pinned before numpy loads: every workload is one single-threaded process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-b8", "eval-50k", "search-50k")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "mvhash" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no BENCHMARK.json or no src/mvhash to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ctx = workloads.Context(args.workload, args.seed, args.seconds, bool(args.trace),
                            work, ROOT / ".bench_out")
    try:
        result = workloads.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome = result.outcome
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "ops_attempted": outcome.attempted,
        "ops_failed": outcome.failed,
        "ops_failed_frac": outcome.failed / max(outcome.attempted, 1),
        "failures": outcome.failures,
        "e2e": result.e2e,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result.named.items()},
    }
    if result.trace is not None:
        record.update(result.trace)
    values = result.trace["layers"] if args.trace else result.e2e
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"workload reported no value for {missing}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
