"""Benchmark command for denshoe.

    python3 perfbench/run.py --workload {coding,wds_family,am_orbits}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and uses the package in ``src/``.  With
``--trace 0`` it starts the workload's worker three times, times set-up
in each, and lets the third one run closed-loop tasks for about S
seconds; it prints the end-to-end metrics.  With ``--trace 1`` one
traced worker prints the per-layer metrics and writes its spans under
``.perfbench_out/``.  The last line of output is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("coding", "wds_family", "am_orbits")
SETUPS = 3
TIME_LIMIT_S = 170.0


def worker(args, setup_only: bool, deadline: float):
    """Start one worker; return (set-up seconds, its result or None)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "READY":
        sys.exit(f"worker failed with exit code {proc.returncode}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "denshoe" / "__init__.py").is_file():
        sys.exit(f"no denshoe package under {ROOT / 'src'}")

    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(worker(args, True, deadline)[0])
    setup, res = worker(args, False, deadline)
    setups.append(setup)

    for p in res["problems"]:
        print(p, file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in sorted(res["layers"].items())}
        metrics["trace.overhead_pct"] = {"value": res["overhead_pct"], "unit": "%"}
        metrics["trace.spans"] = {"value": res["spans"], "unit": "count"}
    else:
        ms = res["task_ms"]
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        # throughput of a typical round: each slot's median over the rounds,
        # so that a short stretch of a busy machine moves it little
        n = res["round_len"]
        typical_round = sum(statistics.median(ms[i::n]) for i in range(n))
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "tasks_per_s": {"value": 1e3 * n / typical_round, "unit": "1/s"},
            "task_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
            "task_ms.p90": {"value": deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {res['attempted']} tasks in {res['rounds']} "
          f"rounds, {res['failed']} failed, {res['wall_s']:.1f} s", file=sys.stderr)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    summary = {"correct": res["wrong"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    (out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(summary, problems=res["problems"], setups_s=setups), indent=1))
    print(json.dumps(summary))


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith(("exact.us_", "circle.us_")):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
