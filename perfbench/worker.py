"""One workload in one process: set up, warm up, then time whole rounds.

Started by run.py.  Prints ``READY`` once set-up is done (the parent
times set-up up to that line), then, unless ``--setup-only``, one JSON
line with the run's raw figures.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is imported: on a two-core
# machine a second BLAS thread doubles the CPU time of the dense twist
# solves and makes their wall time depend on what else runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import denshoe  # noqa: E402

if not Path(denshoe.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"denshoe was imported from {denshoe.__file__}, not from this checkout")

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.tracer = None
        self.task_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def _note(self, where, msgs):
        for m in msgs:
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {m}")

    def run_round(self, tasks, label) -> float:
        """Run and check one round; return its summed task time in seconds."""
        outs, errors, busy = [], {}, 0.0
        for i, task in enumerate(tasks):
            # start each task on a collected heap, so that the garbage of the
            # checks is not collected inside the next timed task
            gc.collect()
            if self.tracer:
                self.tracer.task = self.attempted + i
            t0 = time.perf_counter()
            try:
                out = self.wl.run(task)
            except Exception as e:  # a failed task is counted, the run goes on
                out = None
                errors[i] = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if self.tracer:
                self.tracer.task = None
            busy += dt
            outs.append(out)
            if label is not None:
                self.task_ms.append(dt * 1e3)
        bad = {}
        for i, (task, out) in enumerate(zip(tasks, outs)):
            if i not in errors:
                bad[i] = self._check(lambda: self.wl.check(task, out))
        if not errors:
            for i, msgs in self._check_round(tasks, outs).items():
                bad.setdefault(i, []).extend(msgs)
        for i, task in enumerate(tasks):
            if i in errors:
                self._note(f"{label} task {i} {task[0]}", [errors[i]])
            elif bad.get(i):
                self.wrong += 1
                self._note(f"{label} task {i} {task[0]}", bad[i])
        if label is not None:
            self.attempted += len(tasks)
            self.failed += len(errors) + sum(1 for i in bad if bad[i])
        return busy

    def _check(self, fn):
        try:
            return fn()
        except Exception:
            return ["check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]]

    def _check_round(self, tasks, outs):
        try:
            return self.wl.check_round(tasks, outs)
        except Exception:
            return {0: ["round check raised " + traceback.format_exc(limit=2).splitlines()[-1]]}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    runner = Runner(wl)
    runner.run_round(wl.warmup(), None)
    tasks = wl.round(0)
    print("READY", flush=True)
    if args.setup_only:
        return

    result = {}
    start = time.perf_counter()
    if args.trace:
        # the first round untraced, then the same round traced: the ratio of
        # their task times is the tracing overhead
        untraced = runner.run_round(tasks, "untraced")
        runner.task_ms.clear()
        runner.attempted = runner.failed = 0
        tracer = runner.tracer = Tracer()
        tracer.install()
        traced = runner.run_round(tasks, "round 0")
        result["overhead_pct"] = 100.0 * (traced - untraced) / untraced
    else:
        runner.run_round(tasks, "round 0")
    r = 1
    while time.perf_counter() - start < args.seconds:
        runner.run_round(wl.round(r), f"round {r}")
        r += 1
    result.update(
        rounds=r,
        round_len=len(tasks),
        attempted=runner.attempted,
        failed=runner.failed,
        wrong=runner.wrong,
        problems=runner.problems,
        task_ms=runner.task_ms,
        wall_s=time.perf_counter() - start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        tracer = runner.tracer
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(runner.attempted)
        result["spans"] = len(tracer.spans)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl",
                    {"workload": args.workload, "seed": args.seed,
                     "fields": ["name", "start_ns", "end_ns", "parent", "task", "work"]})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
