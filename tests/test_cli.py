import json

import pytest

from bsm import fpt, kernel
from bsm.cli import main
from helpers import SAD_2X2_TEXT


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(SAD_2X2_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_optima(capsys, instance_file):
    code, doc = run(capsys, "optima", instance_file)
    assert code == 0
    assert doc["o_m"] == 2 and doc["o_w"] == 2
    assert doc["mu_m"] == [["m1", "w1"], ["m2", "w2"]]
    assert doc["objectives"]["mu_m"]["balance"] == 4


def test_check(capsys, tmp_path, instance_file):
    good = tmp_path / "good.txt"
    good.write_text("m1 w1\nm2 w2\n")
    code, doc = run(capsys, "check", instance_file, str(good))
    assert code == 0 and doc["stable"] and doc["blocking_pairs"] == []

    bad = tmp_path / "bad.txt"
    bad.write_text("")
    code, doc = run(capsys, "check", instance_file, str(bad))
    assert code == 1 and not doc["stable"] and len(doc["blocking_pairs"]) == 4


def test_enumerate(capsys, instance_file):
    code, doc = run(capsys, "enumerate", instance_file)
    assert code == 0
    assert isinstance(doc, list) and len(doc) == 2
    assert {entry["objectives"]["balance"] for entry in doc} == {4}


def test_kernelize_with_trace(capsys, instance_file):
    code, doc = run(capsys, "kernelize", instance_file, "--trace")
    assert code == 0
    assert doc["outcome"] == "kernel" and doc["k"] == 6
    assert any(step["rule"] == "add_dummies" for step in doc["trace"])
    assert "men:" in doc["instance"]


def test_solve_exit_codes(capsys, instance_file):
    code, doc = run(capsys, "solve", instance_file, "--k", "4")
    assert code == 0 and doc["answer"] and doc["t"] == 2
    code, doc = run(capsys, "solve", instance_file, "--k", "3")
    assert code == 1 and not doc["answer"]
    # --k defaults to the instance's stored k
    code, doc = run(capsys, "solve", instance_file)
    assert code == 0 and doc["answer"]


def test_solve_optimize(capsys, instance_file):
    code, doc = run(capsys, "solve", instance_file, "--optimize")
    assert code == 0 and doc["bal"] == 4
    assert doc["witness"] is not None


def test_reduce_and_verify(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("v1 v2\nv1 v3\nv2 v3\nv4 v5\nv6 v7\n")
    code, doc = run(capsys, "reduce", "--graph", str(graph), "--k", "3")
    assert code == 0
    assert doc["delta"] == 156 and doc["k_hat"] == 373 and doc["t"] == 36
    assert doc["name_maps"]["vertices"]["v1"]["m1"] == "m1_v1"

    out = tmp_path / "reduced.txt"
    code, doc = run(capsys, "reduce", "--graph", str(graph), "--k", "3", "--out", str(out))
    assert code == 0 and out.exists()
    sidecar = json.loads((tmp_path / "reduced.txt.meta.json").read_text())
    assert sidecar["k_hat"] == 373

    code, doc = run(capsys, "verify", "--graph", str(graph), "--k", "3")
    assert code == 0 and doc["agree"] and doc["ok"]


def test_verify_disagrees_never(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("vertices: a b c d e f g\na b\nb c\nc d\nd e\n")
    code, doc = run(capsys, "verify", "--graph", str(graph), "--k", "3")
    assert code == 0 and doc["agree"]
    assert not doc["clique_answer"]


def test_selftest(capsys):
    code, doc = run(capsys, "selftest", "--count", "5", "--seed", "7")
    assert code == 0 and doc["passed"] and doc["failures"] == []


def test_usage_errors(capsys, tmp_path):
    assert main(["solve", str(tmp_path / "missing.txt"), "--k", "1"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("men m1\n")
    assert main(["optima", str(bad)]) == 2
    assert main(["nonsense"]) == 2
    inst = tmp_path / "nok.txt"
    inst.write_text("men: m1\nwomen: w1\nm1: w1\nw1: m1\n")
    assert main(["solve", str(inst)]) == 2  # no k anywhere


def test_check_rejects_bad_matching_file(capsys, tmp_path, instance_file):
    unknown = tmp_path / "unknown.txt"
    unknown.write_text("m1 w9\n")
    assert main(["check", instance_file, str(unknown)]) == 2
    duplicated = tmp_path / "dup.txt"
    duplicated.write_text("m1 w1\nm2 w1\n")
    assert main(["check", instance_file, str(duplicated)]) == 2


def test_solve_empty_instance_has_an_empty_witness(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("men:\nwomen:\n")
    code, doc = run(capsys, "solve", str(empty), "--k", "0")
    assert code == 0 and doc["answer"] is True and doc["witness"] == []
    code, doc = run(capsys, "solve", str(empty), "--optimize")
    assert code == 0 and doc["bal"] == 0 and doc["witness"] == []


def test_internal_errors_exit_3_without_a_traceback(capsys, monkeypatch, instance_file):
    def broken(inst, k):
        raise kernel.DummyExhausted("no free dummy")

    monkeypatch.setattr(kernel, "kernelize", broken)
    monkeypatch.setattr(fpt, "kernelize", broken)
    for argv in (["kernelize", instance_file], ["solve", instance_file, "--k", "4"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: no free dummy\n"
