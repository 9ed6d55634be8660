import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("shape, clique", [("--plant", True), ("--triangle-free", False)])
def test_reduction_demo_verifies_end_to_end(capsys, monkeypatch, shape, clique):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on it
    monkeypatch.setattr(
        sys, "argv", ["reduction_demo.py", "--vertices", "7", "--edges", "5", "--k", "3", shape]
    )
    spec = importlib.util.spec_from_file_location("reduction_demo", SCRIPTS / "reduction_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main() == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["agree"]
    assert (report["clique"] is not None) == clique == report["reduction_answer"]
    assert ("witness_costs" in report) == clique
