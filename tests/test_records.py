"""The DEBUG record contract stated in `denshoe/__init__.py`: each
`_log.debug` call sits under `if _log.isEnabledFor(logging.DEBUG)` and
passes a format and one dict literal keyed by the format's `%(key)`
names, so every record carries its fields in `record.args`."""

import ast
import logging
import re
from fractions import Fraction
from pathlib import Path

from denshoe import circle as ci
from denshoe import symbolic as sy
from denshoe import twist as tw
from denshoe import wdsfamily as wf
from denshoe.exact import ALPHA_STAR

SITES = {"newton", "minimize_periodic", "heteroclinic_minimizer", "hyperbolicity_report",
         "coding_block", "factor_levels", "estimate_rotation_interval", "orbit",
         "cylinder_order", "graph_hausdorff"}
KEY = re.compile(r"%\((\w+)\)")


def test_every_debug_call_passes_its_fields_as_one_dict():
    names = set()
    for path in (Path(__file__).parents[1] / "src" / "denshoe").glob("*.py"):
        tree = ast.parse(path.read_text())
        guarded = {id(node) for branch in ast.walk(tree) if isinstance(branch, ast.If)
                   and ast.unparse(branch.test) == "_log.isEnabledFor(logging.DEBUG)"
                   for stmt in branch.body for node in ast.walk(stmt)}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "_log.debug"):
                continue
            where = f"{path.name}:{call.lineno}"
            assert id(call) in guarded, f"{where} is not under isEnabledFor(logging.DEBUG)"
            fmt, fields = call.args
            assert not call.keywords and isinstance(fields, ast.Dict), where
            keys = [k.value for k in fields.keys]
            assert "%" not in KEY.sub("", fmt.value), f"{where} has a positional field"
            assert sorted(keys) == sorted(set(KEY.findall(fmt.value))), where
            names.add(fmt.value.split()[0])
    assert names == SITES


def test_every_site_writes_its_fields(caplog):
    gf, tm = tw.standard_family(1.0)
    with caplog.at_level(logging.DEBUG, logger="denshoe"):
        left = tw.minimize_periodic(gf, 0, 1)
        tw.heteroclinic_minimizer(gf, left, tw.Configuration(left.x + 1, "periodic", 0, 1), 60)
        tw.hyperbolicity_report(tm, tw.config_orbit(gf, left))
        w = sy.sturmian_window(ALPHA_STAR, Fraction(1, 7), 50)
        sy.factor_family(w, 5)
        sy.estimate_rotation_interval(w)
        ci.denjoy_build(ALPHA_STAR, 1000).orbit(0.37, -10, 10)
        g = wf.cylinder_order(wf.build_wds(ALPHA_STAR, 4))
        wf.graph_hausdorff(g, g)
    assert {r.msg.split()[0] for r in caplog.records} == SITES
    for record in caplog.records:
        assert isinstance(record.args, dict), record.msg
        # a text field is its key, or joins several: k=%(lo)d..%(hi)d
        formats = dict(re.findall(r"(\w+)=(\S*)", record.msg))
        for name in re.findall(r"(?:^| )(\w+)=", record.getMessage()):
            assert name in record.args or len(KEY.findall(formats[name])) > 1, (record.msg, name)
