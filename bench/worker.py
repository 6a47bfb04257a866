"""One benchmark process: set up a workload, then time executions of it.

Started by run.py with the package sources on PYTHONPATH and every BLAS and
OpenMP pool pinned to one thread.  It prints ``ready`` once the workload is
set up (imports done, untimed warm-up run), then one JSON line with every
execution's time, check failures and, for traced executions, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import torusdpa
from tracing import Tracer, layer_metrics
from workloads import WARM_UP_SCALE, WORKLOADS, artifact_digests


def run_op(workload, work_dir: Path, tracer: Tracer | None = None) -> dict:
    """Time one execution, then check its outputs outside the timed region.

    A raised exception or a failed check marks the execution failed; a failed
    execution reports no time.
    """
    out_dir = Path(tempfile.mkdtemp(dir=work_dir))
    record = {"traced": tracer is not None, "failures": []}
    try:
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = workload.execute(out_dir)
                elapsed = time.perf_counter() - t0
            record["failures"] = workload.check(out)
        except Exception as exc:  # an execution that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            record["failures"].append(f"{type(exc).__name__}: {exc}")
            return record
        digests = artifact_digests(out_dir)
        record["digests"] = {k: sha for k, (sha, _) in digests.items()}
        if not record["failures"]:
            record["run_s"] = elapsed
        if tracer:
            record["layers"] = layer_metrics(tracer)
            record["layers"]["harness.artifact_bytes"] = sum(n for _, n in digests.values())
        return record
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    # benchmark the sources of this checkout, never an installed copy
    if Path(torusdpa.__file__).resolve().parent != (args.src / "torusdpa").resolve():
        sys.exit(f"worker: torusdpa imported from {torusdpa.__file__}, not {args.src}")
    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work)
    warm_dir = Path(tempfile.mkdtemp(dir=args.work))
    try:
        workload.execute(warm_dir, scale=WARM_UP_SCALE)
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    print("ready", flush=True)

    # a round is one untraced execution, or an untraced and a traced one; the
    # next round starts while at least half of it fits in the time share
    plan = (None, Tracer) if args.trace else (None,)
    ops, spans, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.mean(rounds) / 2 <= args.seconds:
        t0 = time.perf_counter()
        for make in plan:
            tracer = make() if make else None
            ops.append(run_op(workload, args.work, tracer))
            if tracer:
                spans.append(tracer.spans)
        rounds.append(time.perf_counter() - t0)
    if args.spans and spans:
        args.spans.write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end", "ffts_start", "ffts_end",
                        "fft_bytes_start", "fft_bytes_end", "work"],
             "executions": spans}))
    print(json.dumps({
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }), flush=True)


if __name__ == "__main__":
    main()
