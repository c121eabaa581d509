"""Every script under scripts/ loads: its module body runs, with its
imports from the package, but not its main().  `digest_outputs.py`, on
which claims of byte-identical outputs rest, also runs one round, and
`kink_survey.py` renders its line from live records."""

import importlib.util
import logging
import re
import subprocess
import sys
from pathlib import Path

import pytest

from denshoe import twist as tw
from denshoe.errors import NoConvergence

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_there_are_scripts():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_loads(path):
    assert callable(load(path).main)


def test_kink_survey_renders_live_records(caplog):
    # `KINK` reads the fields of the `heteroclinic_minimizer` record by
    # name, so a field that the record drops fails here; the survey's (2,9)
    # minus at K = 0.7 is a call where no centering passes
    kink = load(SCRIPTS[0].parent / "kink_survey.py").KINK
    with caplog.at_level(logging.DEBUG, logger="denshoe.twist"):
        tw.assemble_am_set(tw.standard_family(1.0)[0], 0, 1, "plus")
        with pytest.raises(NoConvergence):
            tw.assemble_am_set(tw.standard_family(0.7)[0], 2, 9, "minus")
    ok, failed = (kink % r.args for r in caplog.records
                  if r.msg.split()[0] == "heteroclinic_minimizer")
    assert re.fullmatch(r"core=60 offset=0\.5 centerings=1 saddles=0 reach=\S+", ok)
    assert failed == "core=450 offset=None centerings=2 saddles=2 reach=nan"


def test_digest_outputs_runs_a_coding_round():
    script = SCRIPTS[0].parent / "digest_outputs.py"
    out = subprocess.run([sys.executable, str(script), "--workload", "coding", "--seed", "1",
                          "--rounds", "1"], capture_output=True, text=True, check=True,
                         timeout=600).stdout.splitlines()
    assert len(out) == 2
    # the outputs' digest, then the DEBUG records' digest
    assert re.fullmatch(r"coding +6 tasks  [0-9a-f]{64}  [0-9a-f]{64} +[0-9.]+ ms", out[0])
    assert re.fullmatch(r"total +6 tasks +[0-9.]+ ms", out[1])
