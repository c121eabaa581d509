"""Every script under scripts/ loads: its module body runs, with its
imports from the package, but not its main().  `digest_outputs.py`, on
which claims of byte-identical outputs rest, also runs one round."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_there_are_scripts():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_loads(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_digest_outputs_runs_a_coding_round():
    script = SCRIPTS[0].parent / "digest_outputs.py"
    out = subprocess.run([sys.executable, str(script), "--workload", "coding", "--seed", "1",
                          "--rounds", "1"], capture_output=True, text=True, check=True,
                         timeout=600).stdout.splitlines()
    assert len(out) == 2
    assert re.fullmatch(r"coding +6 tasks  [0-9a-f]{64} +[0-9.]+ ms", out[0])
    assert re.fullmatch(r"total +6 tasks +[0-9.]+ ms", out[1])
