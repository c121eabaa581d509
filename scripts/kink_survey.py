"""Survey the kink connections of `assemble_am_set` over a fixed K x p/q grid.

    python3 scripts/kink_survey.py

Calls `twist.assemble_am_set(gf, p, q, branch)` for every K in KS, every
p/q in RATIONALS and both branches, 720 calls in all, and prints one
line per call: K, p/q, the branch, the outcome (`ok` or the exception's
type), the core size in bonds, the kink offset chosen (for
TailNotSettled, the one whose tails were checked), the centerings
descended, how many of them ended on a saddle, the `reach` of the chosen
centering (the largest entry of its last Newton step) and the sha256 of
the assembled point set.  Core, offset, centerings, saddles and reach
are the fields of the `heteroclinic_minimizer` DEBUG record,
read from its `record.args` and printed in the record's own formats
(`KINK`); they print as `-` when the call left no record, and when no
centering passed the record gives offset None and reach nan.
The last lines give the count of each outcome and the summed
`time.process_time` of the calls, DEBUG records included.  Two trees
whose lines agree gave the same outcome, offset and point set on every
call.  It writes no bytecode, so the checkout it reads stays clean.
"""

import argparse
import hashlib
import logging
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KS = (0.5, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2, 1.3, 1.5, 1.75, 2.0, 2.5,
      3.0, 3.5)
RATIONALS = ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8), (1, 4), (2, 7), (3, 7), (3, 10), (7, 10),
             (5, 13), (4, 9), (1, 5), (2, 9), (5, 8), (4, 11), (5, 12), (8, 21), (1, 6), (3, 11))
KINK = ("core=%(core)d offset=%(offset)s centerings=%(centerings)d saddles=%(saddles)d "
        "reach=%(reach).3e")


class LastKink(logging.Handler):
    """Keeps the fields of the last `heteroclinic_minimizer` record."""

    fields = None

    def emit(self, record):
        if record.msg.split()[0] == "heteroclinic_minimizer":
            self.fields = record.args


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    from denshoe import twist
    from denshoe.errors import DenshoeError

    log = logging.getLogger("denshoe.twist")
    kink = LastKink()
    log.addHandler(kink)
    log.setLevel(logging.DEBUG)
    outcomes = Counter()
    cpu = 0.0
    for K in KS:
        gf, _ = twist.standard_family(K)
        for p, q in RATIONALS:
            for branch in ("plus", "minus"):
                kink.fields = None
                t = time.process_time()
                try:
                    am = twist.assemble_am_set(gf, p, q, branch)
                except DenshoeError as exc:
                    outcome, digest = type(exc).__name__, "-"
                else:
                    outcome = "ok"
                    digest = hashlib.sha256(am.points.tobytes()).hexdigest()
                cpu += time.process_time() - t
                outcomes[outcome] += 1
                fields = (KINK % kink.fields if kink.fields
                          else "core=- offset=- centerings=- saddles=- reach=-")
                print(f"{K:<5} {p}/{q:<3} {branch:<5} {outcome:<15} {fields} points={digest}")
    for outcome, n in sorted(outcomes.items()):
        print(f"{outcome:<15} {n:4d}")
    print(f"{'total':<15} {sum(outcomes.values()):4d} calls  {cpu:.2f} s")


if __name__ == "__main__":
    main()
