"""torusdpa benchmark: time to solution on three workloads.

    python3 bench/run.py --workload particles-2d --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The sources under src/ are benchmarked as
they are; nothing is installed.  Each run starts several worker processes
one after another (one when tracing), each pinned to one thread.  A worker
sets the workload up, then times executions of it for its share of
--seconds and checks every output outside the timed region.

--trace 0 prints the end-to-end metrics: run_s (median execution time),
setup_s (median, over the workers, of the time from a fresh interpreter to
ready) and peak_rss_mb.  --trace 1 alternates untraced and traced
executions in one worker and prints the per-layer metrics.  The last line of
standard output is one JSON object; the full record, with quartiles, sample
counts and machine facts, goes to bench/results/.  The exit code is 1 when
any execution failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKERS_UNTRACED = 2  # set-up is sampled once per worker
DEADLINE_S = 170.0

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    # equal samples (work counts) keep their type: 11, not 11.0
    median = values[0] if len(set(values)) == 1 else statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_worker(args, share: float, deadline: float, spans: Path | None) -> tuple:
    """Start one worker; return (set-up seconds, its result record)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({k: "1" for k in THREAD_PINS})
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(share), "--trace", str(args.trace),
           "--src", str(ROOT / "src"), "--work", str(BENCH / "work")]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        setup_s = None
        lines = []
        for line in proc.stdout:
            if line.strip() == "ready" and setup_s is None:
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu}


def check_repeatability(ops: list) -> None:
    """Mark failed every execution whose artifacts (manifest included) differ
    from the first one's, and every traced execution whose work counts differ
    from the first traced one's."""
    from tracing import COUNT_METRICS  # imports numpy; the workers are done by now

    ref = next((op["digests"] for op in ops if "digests" in op), None)
    ref_counts = next(({k: op["layers"][k] for k in COUNT_METRICS}
                       for op in ops if "layers" in op), None)
    for op in ops:
        bad = []
        if "digests" in op and op["digests"] != ref:
            bad.append("artifacts differ from the first execution")
        if "layers" in op and {k: op["layers"][k] for k in COUNT_METRICS} != ref_counts:
            bad.append("work counts differ from the first traced execution")
        if bad:
            op["failures"] += bad
            op.pop("run_s", None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "torusdpa" / "__init__.py").is_file():
        print("bench: no torusdpa sources under src/", file=sys.stderr)
        return 2
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    workers = 1 if args.trace else WORKERS_UNTRACED
    setups, rss, ops, versions = [], [], [], None
    try:
        for _ in range(workers):
            setup_s, res = run_worker(args, args.seconds / workers, deadline,
                                      results / f"{stem}-spans.json" if args.trace else None)
            setups.append(setup_s)
            rss.append(res["peak_rss_mb"])
            ops += res["ops"]
            versions = res["versions"]
    finally:
        shutil.rmtree(BENCH / "work", ignore_errors=True)
    check_repeatability(ops)
    failed = [op for op in ops if op["failures"]]

    untraced = [op["run_s"] for op in ops if "run_s" in op and not op["traced"]]
    stats = {"run_s": summary(untraced), "setup_s": summary(setups),
             "peak_rss_mb": summary(rss)}
    if args.trace:
        traced_ops = [op for op in ops if "layers" in op]
        traced = [op["run_s"] for op in traced_ops if "run_s" in op]
        for name in traced_ops[0]["layers"] if traced_ops else ():
            stats[name] = summary([op["layers"][name] for op in traced_ops])
        base = statistics.median(untraced) if untraced else None
        stats["trace.overhead_frac"] = summary(
            [(statistics.median(traced) - base) / base] if base and traced else [])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    # a metric without samples (every execution failed) reads null
    metrics = {m["name"]: {"value": stats.get(m["name"], summary([]))["median"],
                           "unit": m["unit"]} for m in wanted}

    record = {
        **machine_facts(), **versions,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_total": len(ops), "ops_failed": len(failed),
        "failures": [f for op in failed for f in op["failures"]],
        "metrics": {name: {"unit": units[name], **st} for name, st in stats.items()},
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for f in record["failures"]:
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
