"""One benchmark process: import specquad, set up a workload, measure it.

``run.py`` starts this script with PYTHONPATH set to the checkout's ``src``
and the BLAS thread variables set, and reads the JSON object it prints as
its last line.  ``--setup-only`` stops after the warm-up op, so the parent
can time several fresh set-ups.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import specquad
from specquad import desitter, quadruple

import spans
import workloads
from run import THREAD_VARS, nproc

ROOT = Path(__file__).resolve().parent.parent
PROBE_NMAX = (32, 64, 128)
PROBE_NMAX_TINY = (8, 16, 32)


def run_batches(workload, seconds: float, tracer=None) -> dict:
    """Repeat the workload's batch while another one fits in ``seconds``
    (at least once)."""
    walls, op_times = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        tally = workloads.Tally(tracer)
        t0 = time.perf_counter()
        workload.run_batch(tally)
        walls.append(time.perf_counter() - t0)
        op_times += tally.op_times
        attempted += tally.attempted
        failed += tally.failed
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    return {"walls": walls, "op_times": op_times,
            "attempted": attempted, "failed": failed}


def verify_nmax_exponent(sizes) -> float:
    """Log-log slope of verify_quadruple time over nmax."""
    times = []
    for nmax in sizes:
        q = desitter.assemble_quadruple(
            desitter.DeSitterParams(rm=1.0, theta=0.3, nmax=nmax))
        t0 = time.perf_counter()
        quadruple.verify_quadruple(q)
        times.append(time.perf_counter() - t0)
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def git_commit(root: Path) -> str | None:
    """HEAD commit read from the .git directory, if the checkout has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(), "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src" / "specquad"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(specquad.__file__).resolve().parents:
        print(f"bench: specquad imported from {specquad.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        workload.warm_up()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        metrics = {}
        if args.trace:
            exponent = verify_nmax_exponent(PROBE_NMAX_TINY if args.tiny else PROBE_NMAX)
            plain = run_batches(workload, args.seconds / 2)
            tracer = spans.Tracer()
            restore = spans.instrument(tracer)
            try:
                traced = run_batches(workload, args.seconds / 2, tracer)
            finally:
                restore()
            nbatch = len(traced["walls"])
            for name, (value, unit) in tracer.layer_metrics(nbatch).items():
                metrics[name] = [value, unit, nbatch]
            metrics["quadruple.verify.nmax_exponent"] = [exponent, "slope", 1]
            overhead = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
            metrics["trace.overhead_s"] = [overhead, "s", nbatch]
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            info = provenance(args)
            tracer.write(str(workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"), info)
        else:
            run = run_batches(workload, args.seconds)
            attempted, failed = run["attempted"], run["failed"]
            metrics["wall_s"] = [statistics.median(run["walls"]), "s", len(run["walls"])]
            metrics["op_p50_s"] = [statistics.median(run["op_times"]), "s",
                                   len(run["op_times"])]
            info = provenance(args)
        # ru_maxrss is in KiB on Linux
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = [rss_mb, "MB", 1]
        metrics["fail_frac"] = [failed / attempted, "ratio", attempted]
    finally:
        workload.close()
    print(json.dumps({"ready": ready, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "provenance": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
