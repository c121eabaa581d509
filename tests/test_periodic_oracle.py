"""`minimize_periodic` against the 20-start search it replaced.

`multi_start` is that search, copied here with its constants inlined:
ten shifted ramps, then ten random starts with seed 0, each descended by
`_newton_minimize` for at most 500 iterations, stopping after four
confirmations of the best action.  On a grid of 25 rotation numbers p/q
(the golden-mean and golden-square convergents with 2 <= q <= 144, and
ten small p/q) at nine couplings K around the golden circle's breakup,
`minimize_periodic`, which descends the symmetric ramp c = 1/(2q) and
the ramp c = 0 only when the first result does not pass, must return a
well-ordered configuration within TOL whose action is at most the
search's + 1e-12.
"""

import logging
import math

import numpy as np
import pytest

from denshoe import twist as tw
from denshoe.exact import ALPHA_STAR, QuadReal, convergents

GOLDEN = QuadReal(-0.5, 0.5, 5)
PERIODS = sorted({c for w in (GOLDEN, ALPHA_STAR) for c in convergents(w, 20) if 2 <= c[1] <= 144}
                 | {(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (2, 7), (3, 7), (3, 8), (2, 25)},
                 key=lambda c: (c[1], c[0]))
COUPLINGS = (0.3, 0.7, 0.93, 0.95, 0.97, 1.2, 1.5, 2.0, 3.0)


def multi_start(gf, p, q):
    """The replaced search: its least-action well-ordered configuration."""
    rng = np.random.default_rng(0)
    base = np.arange(q) * (p / q)
    candidates = [s + base for s in np.linspace(0.0, 1.0, 10, endpoint=False)]
    for _ in range(10):
        candidates.append(rng.uniform(0, 1) + base + rng.normal(0, 0.05, size=q))
    best = None
    confirmations = 0
    for x0 in candidates:
        e, _, res, steps, refused, _ = tw._newton_minimize(gf, lambda x: tw._pad(x, p), x0,
                                                           500, cyclic=True)
        if res > tw.TOL or (steps == 0 and refused
                            and tw._clearly_indefinite(gf, e, tw.NEGATIVE_CURVATURE, cyclic=True)):
            continue
        x = e[1:-1]
        cfg = tw.Configuration(x - math.floor(x[0]), "periodic", p, q)
        if not tw.check_well_ordered(cfg):
            continue
        a = tw.action(gf, cfg)
        if best is None or a < best[0] - 1e-12:
            best = (a, cfg)
            confirmations = 0
        elif a < best[0] + 1e-12:
            confirmations += 1
            if confirmations >= 4:
                break
    return best[1]


def test_the_grid_has_25_periods():
    assert len(PERIODS) == 25


@pytest.mark.parametrize("K", COUPLINGS)
def test_symmetric_starts_reach_the_multi_start_minimum(K, caplog):
    """The first ramp, c = 1/(2q), passes on every case, so it is the only
    descent, and that descent never raises tau past 10.  The ramp c = 0,
    with a site on the potential's maximum, descends towards the minimax;
    there 18 of its 225 descents stalled with tau past 1e38."""
    gf, _ = tw.standard_family(K)
    for p, q in PERIODS:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
            cfg = tw.minimize_periodic(gf, p, q)
        run, call = caplog.records
        assert call.msg.split()[0] == "minimize_periodic", call.msg
        assert (call.args["p"], call.args["q"], call.args["starts"]) == (p, q, 1), call.args
        assert run.msg.split()[0] == "newton" and run.args["max_tau"] <= 10.0
        assert cfg.well_ordered and tw.check_well_ordered(cfg), (p, q)
        assert tw.criticality_residual(gf, cfg) <= tw.TOL, (p, q)
        assert tw.action(gf, cfg) <= tw.action(gf, multi_start(gf, p, q)) + 1e-12, (p, q)
