"""specquad benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload verify_large --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout: the benchmark imports specquad from the
checkout's ``src/`` and nothing else.  Each measurement runs in a fresh
worker process (``worker.py``) with the BLAS thread count set.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; comment lines with the provenance and
every metric (unit and sample count) come first, and the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Exits 0 when it measured, whether or not every output was correct, and
non-zero without a result when it could not measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_large", "cli_batch", "finite_distance")
# fresh set-ups timed per untraced run; setup_s is their median
SETUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every run, set-ups included, ends within this many seconds or fails
TIME_LIMIT = 170.0
END_TO_END = ("setup_s", "wall_s", "op_p50_s", "peak_rss_mb")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> int:
    return min(2, nproc())


class WorkerError(RuntimeError):
    pass


def run_worker(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(blas_threads()) for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else []) + extra
    # CLOCK_MONOTONIC is system-wide, so the worker's ready stamp and this
    # start stamp share a clock
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the time limit")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - start, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specquad" / "__init__.py").is_file():
        print(f"bench: no specquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    setups = []
    try:
        if not args.trace:
            for _ in range((2 if args.tiny else SETUPS) - 1):
                setups.append(run_worker(args, ["--setup-only"], deadline)[0])
        setup, result = run_worker(args, [], deadline)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    metrics = result["metrics"]
    if args.trace:
        wanted = [name for name in metrics if name not in END_TO_END + ("fail_frac",)]
    else:
        metrics["setup_s"] = [statistics.median(setups), "s", len(setups)]
        wanted = list(END_TO_END)
    provenance = dict(result["provenance"], samples={n: metrics[n][2] for n in wanted})
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for name in wanted + ["fail_frac"]:
        value, unit, count = metrics[name]
        print(f"# {name} = {value:.6g} {unit} (n={count})")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
