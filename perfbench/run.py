#!/usr/bin/env python3
"""Single-threaded end-to-end and per-layer benchmark of the Stitch pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload cold_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default .bench_build), runs the parts the workload needs,
each as its own process, one after the other, and prints one JSON line:
`correct`, `attempted`, `failed` and the metrics BENCHMARK.json names, the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
Exits 1 if a build, a part or an output check fails. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each workload, with the layers it never calls: their per-layer metrics
# read 0 there.
OFF_PATH = {
    "cold_grid": ("cache.",),
    "warm_store": ("fault.",),
}
# cold_grid's cold region can run only once per process (the mapper and
# verify memos are process-wide), so an untraced cold_grid run starts this
# many processes and sums each call's best time across them, which damps
# slow spells shorter than a run (see "Host noise" in perfbench/README.md).
COLD_PROCESSES = 3
# Metrics of cold_grid that are times or memory, not exact results.
COLD_MEASURED = ("setup_s", "peak_rss_mb")
# A run must finish within this many seconds of the end of the build.
RUN_BUDGET_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"run.py: build failed ({done.returncode})")
    return target / "release" / "perfbench"


def host_sample():
    """(steal ticks, total ticks) over all CPUs, and the 1-minute load."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    with open("/proc/loadavg") as f:
        load = float(f.read().split()[0])
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8]), load


def run_part(binary, part, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit(f"run.py: no time left for part {part}")
    cmd = [str(binary), part] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: part {part} timed out")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py: part {part} printed nothing (exit {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 and result.get("correct", False):
        raise SystemExit(f"run.py: part {part} exited {done.returncode}")
    return result


def merge_cold(results):
    """Merges untraced cold_grid processes into one result: `wall_s` and
    `cpu_s` sum each call's best time across them, `setup_s` and
    `peak_rss_mb` are their medians, and every exact metric must read the
    same in all of them (else the merge is not correct)."""
    calls = [r["calls"] for r in results]
    metrics = dict(results[0]["metrics"])
    n = len(calls[0])
    same = n > 0 and all(len(c) == n for c in calls) and all(
        r["metrics"].get(k) == v for r in results
        for k, v in metrics.items() if k not in COLD_MEASURED)
    if not same:
        log("cold_grid processes disagree on their calls or exact metrics")
        return False, metrics
    metrics["wall_s"] = sum(min(c[i][0] for c in calls) for i in range(n))
    metrics["cpu_s"] = sum(min(c[i][1] for c in calls) for i in range(n))
    for k in ("setup_s", "peak_rss_mb"):
        metrics[k] = statistics.median(r["metrics"][k] for r in results)
    log("cold_grid region per process (s): " +
        " ".join(f"{sum(w for w, _ in c):.3f}" for c in calls))
    return True, metrics


def run_workload(binary, target, workload, seed, seconds, trace, tiny, deadline):
    out = target / "perfbench-out" / f"{workload}-s{seed}-t{trace}"
    out.mkdir(parents=True, exist_ok=True)
    common = ["--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    if tiny:
        common.append("--tiny")
    steal0, total0, load0 = host_sample()
    # The stage split needs an empty mapper memo: its own process.
    cold = workload == "cold_grid" and not trace
    if trace:
        parts = ["stages", workload]
    else:
        parts = [workload] * (COLD_PROCESSES if cold else 1)
    args = common + ["--trace", str(trace)]
    results = [run_part(binary, p, args, deadline) for p in parts]
    steal1, total1, load1 = host_sample()

    correct = all(r["correct"] for r in results)
    metrics = {}
    for r in results:
        metrics.update(r["metrics"])
    if cold and correct:
        correct, metrics = merge_cold(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if not trace:
        metrics["ok_frac"] = 1 - failed / max(1, attempted)
    host = {
        "host.steal_frac": (steal1 - steal0) / max(1, total1 - total0),
        "host.loadavg": max(load0, load1),
    }
    log(f"{workload} seed {seed} trace {trace}: " +
        ", ".join(f"{k} {v:.3f}" for k, v in host.items()))
    if trace:
        metrics.update(host)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        if m["name"] not in metrics and m["name"].startswith(OFF_PATH[workload]):
            metrics[m["name"]] = 0.0
    missing = [m["name"] for m in wanted
               if not isinstance(metrics.get(m["name"]), (int, float))
               or not math.isfinite(metrics[m["name"]])]
    if missing and correct:
        raise SystemExit(f"run.py: {workload} did not measure {', '.join(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=OFF_PATH)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="every workload at tiny sizes, traced and untraced")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target)
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.self_check:
        for workload in OFF_PATH:
            for trace in (0, 1):
                r = run_workload(binary, target, workload, args.seed, 0, trace, True,
                                 time.monotonic() + RUN_BUDGET_S)
                log(f"self-check {workload} trace {trace}: correct {r['correct']}, "
                    f"{len(r['metrics'])} metrics, {r['attempted']} ops")
                if not r["correct"]:
                    return 1
        return 0

    result = run_workload(binary, target, args.workload, args.seed, args.seconds,
                          args.trace, False, deadline)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
