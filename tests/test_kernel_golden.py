"""Golden equivalence: kernelize and the solver reproduce the recorded digests.

The digests in ``data/kernel_golden.json`` were written by
``scripts/record_kernel_golden.py`` before the shrink rule was batched and
before the solver pruned its search; any change to an outcome, kernel,
trace row, witness, solver answer or solver counter on those decisions
fails here.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "record_kernel_golden.py"


def load_recorder():
    spec = importlib.util.spec_from_file_location("record_kernel_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_outputs_match_the_recorded_digests():
    recorder = load_recorder()
    want = json.loads(recorder.GOLDEN.read_text())["digests"]
    got = recorder.record()
    assert got.keys() == want.keys()
    mismatched = sorted(key for key in want if got[key] != want[key])
    assert mismatched == []
