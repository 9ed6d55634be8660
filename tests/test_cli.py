import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bsm
from bsm import cli, fpt, hardness, instance, kernel
from bsm.cli import main
from bsm.generate import random_instance
from bsm.instance import serialize
from helpers import INT_DIGITS, SAD_2X2_TEXT


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


def test_negative_limit_is_a_usage_error(capsys, tmp_path):
    # No man moves in a mutually-first pair; a negative bound used to reach
    # the enumerator and report "0 men change partner, beyond the bound -1".
    path = tmp_path / "pair.txt"
    path.write_text("men: m1\nwomen: w1\nm1: w1\nw1: m1\n")
    for argv in (["--limit", "-1"], ["--limit=-1"]):
        assert main(["enumerate", str(path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "bsm enumerate: error: argument --limit: must not be negative, got -1\n"
        )
    code, doc = run(capsys, "enumerate", str(path), "--limit", "0")
    assert code == 0 and doc[0]["pairs"] == [["m1", "w1"]]


def test_negative_k_is_a_usage_error(capsys, tmp_path):
    # A negative target used to be decided: solve printed "answer": false with
    # exit 1 and kernelize outcome "no", while a stored k: -1 exits 2.
    path = tmp_path / "nok.txt"
    path.write_text(SAD_2X2_TEXT.replace("k: 4\n", ""))
    for verb in ("solve", "kernelize"):
        for argv in (["--k", "-3"], ["--k=-1"]):
            assert main([verb, str(path), *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            value = argv[-1].removeprefix("--k=")
            assert captured.err.endswith(
                f"bsm {verb}: error: argument --k: must not be negative, got {value}\n"
            )
    code, doc = run(capsys, "solve", str(path), "--k", "0")
    assert code == 1 and not doc["answer"]


def test_kernelize_with_trace(capsys, instance_file):
    code, doc = run(capsys, "kernelize", instance_file, "--trace")
    assert code == 0
    assert doc["outcome"] == "kernel" and doc["k"] == 6
    assert any(step["rule"] == "add_dummies" for step in doc["trace"])
    assert "men:" in doc["instance"]


def test_solve_exit_codes(capsys, instance_file):
    code, doc = run(capsys, "solve", instance_file, "--k", "4")
    assert code == 0 and doc["answer"] and doc["t"] == 2
    # Both singletons are cut: the solver walks the empty subset and the pair.
    code, doc = run(capsys, "solve", instance_file, "--k", "3")
    assert code == 1 and not doc["answer"]
    assert doc["stats"] == {"subsets_tried": 2, "branch_nodes": 3, "max_branch_nodes": 2}
    # --k defaults to the instance's stored k
    code, doc = run(capsys, "solve", instance_file)
    assert code == 0 and doc["answer"]


def test_solve_optimize(capsys, instance_file):
    code, doc = run(capsys, "solve", instance_file, "--optimize")
    assert code == 0 and doc["bal"] == 4
    assert doc["witness"] is not None


def test_solve_optimize_refuses_a_target_k(capsys, instance_file):
    # --optimize used to ignore --k silently: the search neither starts from it nor reports t at it.
    for argv, message in (
        (["--optimize", "--k", "4"], "argument --k: not allowed with argument --optimize"),
        (["--k=4", "--optimize"], "argument --optimize: not allowed with argument --k"),
    ):
        assert main(["solve", instance_file, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: bsm solve")
        assert captured.err.endswith(f"bsm solve: error: {message}\n")


def test_solve_optimize_runs_deferred_acceptance_on_its_input_once(capsys, tmp_path, monkeypatch):
    # Every decision of the binary search starts from the input's cached
    # extreme matchings (Instance.mu_m, Instance.mu_w) instead of recomputing them.
    path = tmp_path / "inst.txt"
    path.write_text(serialize(random_instance(random.Random(0), 7, 7, 1.0)))
    read = []
    real_read, real_da = cli._read_instance, instance._deferred_acceptance

    def reading(p):
        read.append(real_read(p))
        return read[-1]

    on_input = [0]

    def counted(order, *args, **kwargs):
        on_input[0] += order is read[0].m_rank or order is read[0].w_rank
        return real_da(order, *args, **kwargs)

    monkeypatch.setattr(cli, "_read_instance", reading)
    monkeypatch.setattr(instance, "_deferred_acceptance", counted)
    code, doc = run(capsys, "solve", str(path), "--optimize")
    assert code == 0 and doc["decisions"] == 4
    assert on_input[0] == 2  # once from each side


def test_solve_optimize_keeps_its_last_yes(capsys, tmp_path):
    # Instance (9, 52) of perfbench/optimize_pool.json: the search answers
    # yes at its least balance before it rules out the k below, and prints
    # that decision instead of making it a sixth time.
    path = tmp_path / "inst.txt"
    path.write_text(serialize(random_instance(random.Random(52), 9, 9, 1.0)))
    code, doc = run(capsys, "solve", str(path), "--optimize")
    assert code == 0 and (doc["bal"], doc["t"], doc["decisions"]) == (27, 14, 5)
    code, decided = run(capsys, "solve", str(path), "--k", "27")
    assert code == 0 and decided["witness"] == doc["witness"] and decided["t"] == doc["t"]


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


REDUCE_META_PATH_4_K2 = {
    "delta": 50,
    "k_hat": 133,
    "t": 18,
    "fallback": False,
    "name_maps": {
        "vertices": {
            v: {"m1": f"m1_v{i}", "m2": f"m2_v{i}", "w1": f"w1_v{i}", "w2": f"w2_v{i}"}
            for i, v in enumerate("abcd", start=1)
        },
        "edges": {
            e: {"m1": f"m1_e{j}", "m2": f"m2_e{j}", "w1": f"w1_e{j}", "w2": f"w2_e{j}"}
            for j, e in enumerate(("a b", "b c", "c d"), start=1)
        },
        "star": {"m": "mstar", "w": "wstar"},
    },
}


def test_reduce_meta_is_pinned(capsys, tmp_path):
    # Every name of a full reduction: 4 vertices and 3 edges, each with two
    # tiers of men and women, then the star.  The sidecar text is pinned
    # byte for byte, key order included.
    graph = tmp_path / "path.txt"
    graph.write_text("a b\nb c\nc d\n")
    out = tmp_path / "reduced.txt"
    code, doc = run(capsys, "reduce", "--graph", str(graph), "--k", "2", "--out", str(out))
    assert code == 0
    assert doc == {"written": str(out), **REDUCE_META_PATH_4_K2}
    sidecar = (tmp_path / "reduced.txt.meta.json").read_text()
    assert sidecar == json.dumps(REDUCE_META_PATH_4_K2, indent=2) + "\n"
    code, doc = run(capsys, "reduce", "--graph", str(graph), "--k", "2")
    assert code == 0 and doc.pop("instance") == out.read_text()
    assert doc == REDUCE_META_PATH_4_K2


def test_verify_disagrees_never(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("vertices: a b c d e f g\na b\nb c\nc d\nd e\n")
    code, doc = run(capsys, "verify", "--graph", str(graph), "--k", "3")
    assert code == 0 and doc["agree"]
    assert not doc["clique_answer"]


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


def test_check_refuses_a_second_line_for_a_person(capsys, tmp_path, instance_file):
    # A repeated pair used to vanish into the matching's set of pairs:
    # "m1 w1" twice then "m2 w2" printed "stable": true with exit 0.
    for text, err in (
        ("m1 w1\nm1 w1\nm2 w2\n", "error: line 2: M:m1 is matched twice\n"),
        ("m1 w1\n# note\nm1 w2\n", "error: line 3: M:m1 is matched twice\n"),
        ("m2 w1\nm1 w1\n", "error: line 2: W:w1 is matched twice\n"),
    ):
        matching = tmp_path / "matching.txt"
        matching.write_text(text)
        assert main(["check", instance_file, str(matching)]) == 2
        assert capsys.readouterr() == ("", err)


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
    # At k=3, below the balance 4 of both extreme matchings, solve reaches the kernel.
    for argv in (["kernelize", instance_file], ["solve", instance_file, "--k", "3"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: no free dummy\n"


def test_gap_left_in_the_kernel_is_internal(capsys, monkeypatch, tmp_path):
    # A list-form input whose reduced instance at k=12 has rank gaps; with
    # gap filling broken, the kernel would not be list-form.  That is a
    # fault of the program, not of the input.
    path = tmp_path / "inst.txt"
    path.write_text(
        "men: m1 m2 m3 m4 m5\nwomen: w1 w2 w3 w4 w5\n"
        "m1: w5 w3 w2 w4 w1\nm2: w4 w1 w3 w2 w5\nm3: w2 w5 w1 w4 w3\n"
        "m4: w5 w1 w2 w3 w4\nm5: w4 w2 w1 w5 w3\n"
        "w1: m2 m4 m3 m5 m1\nw2: m5 m3 m2 m1 m4\nw3: m2 m4 m3 m5 m1\n"
        "w4: m3 m4 m1 m5 m2\nw5: m3 m1 m2 m5 m4\n"
    )
    assert main(["kernelize", str(path), "--k", "12"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(kernel, "_gaps", lambda table: [])
    assert main(["kernelize", str(path), "--k", "12"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: dummy insertion left a gap in the ranks\n"


def test_other_value_errors_are_internal(capsys, monkeypatch, instance_file):
    def broken(inst, k):
        raise ValueError("bad index")

    monkeypatch.setattr(fpt, "solve_above_min", broken)
    assert main(["solve", instance_file, "--k", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: bad index\n"


def test_an_internal_error_without_text_is_named_by_its_type(capsys, monkeypatch, instance_file):
    def exhausted(inst, k):
        raise MemoryError()

    monkeypatch.setattr(fpt, "solve_above_min", exhausted)
    assert main(["solve", instance_file, "--k", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: MemoryError\n"


def test_bad_graph_input_is_a_usage_error(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    for text in ("a b c\n", "a a\n", "a b\na b\n"):
        graph.write_text(text)
        assert main(["verify", "--graph", str(graph), "--k", "2"]) == 2
        assert main(["reduce", "--graph", str(graph), "--k", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    graph.write_text("a b\n")
    assert main(["reduce", "--graph", str(graph), "--k", "0"]) == 2
    with pytest.raises(hardness.GraphError):
        hardness.parse_graph("a b c\n")


def test_rank_gaps_are_a_usage_error(capsys, tmp_path):
    gap = tmp_path / "gap.txt"
    gap.write_text("men: m1\nwomen: w1 w2\nk: 4\nm1: w1=1 w2=3\nw1: m1\nw2: m1\n")
    for argv in (["solve", str(gap)], ["solve", str(gap), "--optimize"], ["kernelize", str(gap)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the instance has gaps in its ranks")
        assert "Traceback" not in captured.err


def test_undecodable_input_is_a_usage_error(capsys, tmp_path):
    binary = tmp_path / "inst.bin"
    binary.write_bytes(b"men: m1\xff\n")
    assert main(["optima", str(binary)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"men": ["a"], "women": ["b"], "prefs": {"a": 5}},
    {"men": ["a"], "women": ["b"], "prefs": [1]},
    {"men": [1], "women": ["b"]},
    {"men": ["a"], "women": ["b"], "prefs": {"a": [[["b"], 1]]}},
    {"men": ["a"], "women": ["b"], "prefs": {"a": [["b", True]], "b": [["a", 1]]}},
    {"men": ["a"], "women": ["b"], "prefs": {"a": [["b", 1]], "b": [["a", 1]]}, "k": True},
])
def test_malformed_json_is_a_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    for verb in ("optima", "enumerate"):
        assert main([verb, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("text", [
    pytest.param('{"men": [], "women": [], "k": %s}' % ("9" * (INT_DIGITS + 1)), id="too-many-digits",
                 marks=pytest.mark.skipif(not INT_DIGITS, reason="no digit limit")),
    pytest.param('{"men": %s, "women": []}' % ("[" * 100_000 + "]" * 100_000), id="too-deep"),
])
def test_json_too_long_or_too_deep_is_a_usage_error(capsys, tmp_path, text):
    # json.loads raises a plain ValueError or a RecursionError here: both used to exit 3.
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert main(["optima", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: bad JSON: ")


def test_a_deeply_nested_name_is_named_by_its_type(capsys, tmp_path):
    # Nested 900 deep, within the recursion limit: the message used to echo
    # the whole value, 1,844 bytes of brackets on one line.
    path = tmp_path / "inst.json"
    path.write_text('{"men": [%s], "women": []}' % ("[" * 900 + "]" * 900))
    assert main(["optima", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: names in 'men' must be strings, got list\n"


@pytest.mark.parametrize("text", ["[1]", "[]", "\n  [\"men\", \"women\"]\n"])
def test_a_json_array_is_read_as_json(capsys, tmp_path, text):
    # It used to be read as text: "error: line 1: expected 'name: ...'".
    path = tmp_path / "inst.json"
    path.write_text(text)
    for verb in ("optima", "enumerate"):
        assert main([verb, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: JSON instance must be an object\n"


def test_any_other_exception_is_internal(capsys, monkeypatch, instance_file):
    def broken(inst, k):
        raise KeyError("w9")

    monkeypatch.setattr(fpt, "solve_above_min", broken)
    assert main(["solve", instance_file, "--k", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: 'w9'\n"


BRANCHING_3X3_TEXT = """\
men: m1 m2 m3
women: w1 w2 w3
m1: w3 w2 w1
m2: w2 w3 w1
m3: w1 w3 w2
w1: m2 m1 m3
w2: m1 m3 m2
w3: m2 m3 m1
"""

OBJECTIVES_KEYS = ("men_cost", "women_cost", "balance", "egalitarian", "sex_equal")
TRACE_KEYS = ("rule", "affected", "k_before", "k_after", "t_before", "t_after")
VERIFY_KEYS = (
    "clique", "clique_answer", "reduction_answer", "agree", "fallback", "delta", "k_hat",
    "t_expected", "t_actual", "optima_match", "bal_opt", "ok",
)


def _objectives(*values):
    return dict(zip(OBJECTIVES_KEYS, values))


def _verify(*values):
    return dict(zip(VERIFY_KEYS, values))


# The trace of the 3x3 instance at k=7, one (rule, affected, k_before,
# k_after, t_before, t_after) row per step.
TRACE_3X3_K7 = [
    ("clean_suffix", ["m1", "w1"], 7, 7, 4, 4),
    ("clean_suffix", ["m2", "w1"], 7, 7, 4, 4),
    ("clean_suffix", ["m3", "w2"], 7, 7, 4, 4),
    ("clean_suffix", ["m3", "w3"], 7, 7, 4, 4),
    ("remove_happy_pair", ["m3", "w1", "m1", "w2"], 7, 7, 4, 4),
    ("shrink", ["m1", "w2"], 7, 6, 4, 4),
    ("add_dummies", ["x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"], 6, 10, 4, 4),
    ("fill_gap", ["w2", "x1"], 10, 10, 4, 4),
    ("fill_gap", ["w2", "x2"], 10, 10, 4, 4),
    ("fill_gap", ["w2", "x3"], 10, 10, 4, 4),
    ("fill_gap", ["w3", "x1"], 10, 10, 4, 4),
]

KERNEL_3X3_K7 = (
    "men: m1 m2 x1 x2 x3 x4\nwomen: w2 w3 y1 y2 y3 y4\nk: 10\n"
    "m1: w3 w2\nm2: w2 w3\nx1: y1 w2 w3\nx2: y2 w2\nx3: y3 w2\nx4: y4\n"
    "w2: x1 x2 m1 x3 m2\nw3: m2 x1 m1\ny1: x1\ny2: x2\ny3: x3\ny4: x4\n"
)

WITNESS_3X3 = [["m1", "w2"], ["m2", "w3"], ["m3", "w1"]]

# argv (with {file} placeholders), exit code, and the JSON document whose
# json.dumps(..., indent=2) text is the whole of stdout, key order included.
PINNED_RUNS = {
    "optima": (["optima", "{sad}"], 0, {
        "mu_m": [["m1", "w1"], ["m2", "w2"]],
        "mu_w": [["m1", "w2"], ["m2", "w1"]],
        "o_m": 2,
        "o_w": 2,
        "objectives": {"mu_m": _objectives(2, 4, 4, 6, -2), "mu_w": _objectives(4, 2, 4, 6, 2)},
    }),
    "check": (["check", "{sad}", "{good}"], 0, {
        "stable": True, "blocking_pairs": [], "objectives": _objectives(2, 4, 4, 6, -2),
    }),
    "check-empty": (["check", "{sad}", "{empty}"], 1, {
        "stable": False,
        "blocking_pairs": [["m1", "w1"], ["m1", "w2"], ["m2", "w2"], ["m2", "w1"]],
        "objectives": _objectives(0, 0, 0, 0, 0),
    }),
    "solve-k": (["solve", "{branching}", "--k", "7"], 0, {
        "answer": True,
        "witness": WITNESS_3X3,
        "t": 4,
        # μ_W's balance, 5, is within k: it is the witness, and nothing branched.
        "stats": {"subsets_tried": 0, "branch_nodes": 0, "max_branch_nodes": 0},
    }),
    # μ_W's balance, 5, is the least: the search starts there and decides once.
    "solve-optimize": (["solve", "{branching}", "--optimize"], 0, {
        "bal": 5, "witness": WITNESS_3X3, "t": 2, "decisions": 1,
    }),
    "kernelize-trace": (["kernelize", "{branching}", "--k", "7", "--trace"], 0, {
        "outcome": "kernel",
        "k": 10,
        "t_input": 4,
        "instance": KERNEL_3X3_K7,
        "trace": [dict(zip(TRACE_KEYS, row)) for row in TRACE_3X3_K7],
    }),
    "kernelize-no": (["kernelize", "{sad}", "--k", "1"], 1, {
        "outcome": "no", "k": None, "t_input": -1, "instance": None,
    }),
    "reduce-fallback": (["reduce", "--graph", "{path4}", "--k", "3"], 0, {
        "instance": "men: m\nwomen: w\nk: 0\nm: w\nw: m\n",
        "delta": -28, "k_hat": 0, "t": -1, "fallback": True, "name_maps": {},
    }),
    "verify-full": (["verify", "--graph", "{graph}", "--k", "3"], 0, _verify(
        ["v1", "v2", "v3"], True, True, True, False, 156, 373, 36, 36, True, 373, True,
    )),
    "verify-fallback-no": (["verify", "--graph", "{path4}", "--k", "3"], 0, _verify(
        None, False, False, True, True, -28, 0, 36, None, None, None, True,
    )),
    "verify-fallback-yes": (["verify", "--graph", "{triangle}", "--k", "2"], 0, _verify(
        ["a", "b"], True, True, True, True, 30, 0, 18, None, None, None, True,
    )),
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_cli_output_is_pinned(capsys, tmp_path, name):
    # The whole of stdout, byte for byte, and the exit code of one run per verb shape.
    files = {
        "sad": SAD_2X2_TEXT,
        "branching": BRANCHING_3X3_TEXT,
        "good": "m1 w1\nm2 w2\n",
        "empty": "",
        "graph": "v1 v2\nv1 v3\nv2 v3\nv4 v5\nv6 v7\n",
        "path4": "a b\nb c\nc d\n",
        "triangle": "a b\nb c\na c\n",
    }
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(text)
    argv, want_code, want_doc = PINNED_RUNS[name]
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (want_code, "")
    assert captured.out == json.dumps(want_doc, indent=2) + "\n"


@pytest.mark.parametrize("argv, err", [
    pytest.param(["check", "{sad}", "{short}"], "error: line 2: expected 'man woman'", id="check-short-line"),
    pytest.param(["check", "{sad}", "{woman_first}"], "error: line 2: expected 'man woman'", id="check-woman-first"),
    pytest.param(["check", "{sad}", "{same_side}"], "error: line 1: expected 'man woman'", id="check-same-side"),
    pytest.param(["solve", "{sad}", "--k", "x"], "bsm solve: error: argument --k: invalid int value: 'x'",
                 id="solve-k"),
    pytest.param(["kernelize", "{sad}", "--k", "1.5"],
                 "bsm kernelize: error: argument --k: invalid int value: '1.5'", id="kernelize-k"),
    pytest.param(["enumerate", "{sad}", "--limit", "x"],
                 "bsm enumerate: error: argument --limit: invalid int value: 'x'", id="enumerate-limit"),
])
def test_each_usage_error_names_its_fault(capsys, tmp_path, argv, err):
    files = {"sad": SAD_2X2_TEXT, "short": "m1 w1\nm2\n", "woman_first": "m1 w1\nw2 m2\n", "same_side": "m1 m2\n"}
    paths = {key: tmp_path / f"{key}.txt" for key in files}
    for key, text in files.items():
        paths[key].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == err


def _run_module(args, stdin=None, hash_seed="0", timeout=60):
    """Run ``python -m bsm`` on the package under test, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(bsm.__file__).parents[1]), "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, "-m", "bsm", *args], input=stdin, capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_import_bsm_loads_no_bisect_fractions_or_decimal():
    # Every command starts with this import; none of these modules is needed.
    src = str(Path(bsm.__file__).parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import bsm; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    loaded = set(done.stdout.split())
    assert "bsm.oracle" in loaded
    assert not loaded & {"bisect", "fractions", "decimal"}


def test_solve_at_a_huge_k_answers_at_once_from_the_man_optimal_matching(instance_file):
    # A kernel at this k would hold about k dummy pairs and never be done.
    # μ_M's balance, 4, is within k, so no kernel is built.
    done = _run_module(["solve", instance_file, "--k", "99999999999999999999"], timeout=10)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {
        "answer": True,
        "witness": [["m1", "w1"], ["m2", "w2"]],
        "t": 99999999999999999999 - 2,
        "stats": {"subsets_tried": 0, "branch_nodes": 0, "max_branch_nodes": 0},
    }


def test_check_names_the_same_bad_pair_under_every_hash_seed(tmp_path):
    # Three unacceptable pairs.  The first named used to follow the string
    # hash seed: m1's, m2's or m3's from run to run.
    inst = tmp_path / "inst.txt"
    inst.write_text("men: m1 m2 m3\nwomen: w1 w2 w3\nm1: w1\nm2: w2\nm3: w3\nw1: m1\nw2: m2\nw3: m3\n")
    matching = tmp_path / "matching.txt"
    matching.write_text("m1 w2\nm2 w3\nm3 w1\n")
    for seed in range(6):
        done = _run_module(["check", str(inst), str(matching)], hash_seed=str(seed))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: (M:m1, W:w2) is not an acceptable pair\n"
    # Every other verb whose output names people prints the same bytes
    # under every seed: people hash as their (side, name) strings.
    full = tmp_path / "full.txt"
    # 7 sad men; at k=26, below the balance of both extreme matchings (29 and
    # 36), solve branches on the kernel and lifts its witness.
    full.write_text(serialize(random_instance(random.Random(18), 8, 8)))
    graph = tmp_path / "graph.txt"
    graph.write_text("v1 v2\nv1 v3\nv2 v3\nv4 v5\nv6 v7\n")
    for argv in (
        ["solve", str(full), "--k", "26"],
        ["solve", str(full), "--optimize"],
        ["kernelize", str(full), "--k", "26", "--trace"],
        ["enumerate", str(full)],
        ["verify", "--graph", str(graph), "--k", "3"],
    ):
        runs = [_run_module(argv, hash_seed=str(seed)) for seed in range(6)]
        assert (runs[0].returncode, runs[0].stderr) == (0, "") and runs[0].stdout
        for done in runs[1:]:
            assert (done.returncode, done.stdout, done.stderr) == (0, runs[0].stdout, "")


def test_module_entry_point_reads_the_instance_from_stdin(capsys, instance_file):
    assert main(["optima", instance_file]) == 0
    want = capsys.readouterr().out
    done = _run_module(["optima", "-"], stdin=SAD_2X2_TEXT)
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")
