"""Digest the task outputs of a benchmark workload, one sha256 per task kind.

    python3 scripts/digest_outputs.py --workload am_orbits --seed 101 [--rounds 3]

Runs rounds 0..R-1 of the workload W of `perfbench/workloads.py` at seed
N in this process, and prints, per task kind, the number of tasks, the
sha256 of their pickled outputs in task order and their summed
`time.process_time`.  A task that raises contributes its exception's
type and message.  Two trees whose digests agree gave byte-identical
outputs.  The pickle of a set follows string hashing, so the script runs
itself again under PYTHONHASHSEED=0 when that is not already set, and
it writes no bytecode, so the checkout it reads stays clean.  The
benchmark's modules are imported, never changed.
"""

import argparse
import hashlib
import os
import pickle
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main():
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    wl = WORKLOADS[args.workload](args.seed)
    digests, counts, cpu = {}, {}, {}
    for r in range(args.rounds):
        for task in wl.round(r):
            kind = task[0]
            t = time.process_time()
            try:
                out = wl.run(task)
            except Exception as exc:  # a failure is part of the output
                out = (type(exc).__name__, str(exc))
            cpu[kind] = cpu.get(kind, 0.0) + time.process_time() - t
            digests.setdefault(kind, hashlib.sha256()).update(pickle.dumps(out, protocol=4))
            counts[kind] = counts.get(kind, 0) + 1
    for kind, h in digests.items():
        print(f"{kind:<12} {counts[kind]:4d} tasks  {h.hexdigest()}  {1e3 * cpu[kind]:8.1f} ms")
    print(f"{'total':<12} {sum(counts.values()):4d} tasks  {1e3 * sum(cpu.values()):8.1f} ms")


if __name__ == "__main__":
    main()
