"""Tests of the benchmark itself: output contract, checks and failure counting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from bsm import instance, oracle  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, group):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_and_seed_match_the_runner():
    assert WORKLOAD_NAMES == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert run.DEFAULT_SEED == workloads.DEFAULT_SEED


def _first(work, kind):
    return next(op for op in work.ops + work.enumerate_ops + work.reduce_ops if op.kind == kind)


def _falsify(kind, op, outcome):
    """A wrong outcome in place of the right one."""
    first, answer = outcome
    if kind == "decide":
        return first, dataclasses.replace(answer, answer=not answer.answer)
    if kind == "optimize":
        return first, (answer[0] + 1, answer[1])
    if kind == "enumerate":
        return first, dataclasses.replace(answer, bal_opt=answer.bal_opt - 1)
    if kind == "verify":
        return first, dataclasses.replace(answer, reduction_answer=not answer.reduction_answer)
    return first, dataclasses.replace(answer, target_k=answer.target_k + 1)


@pytest.mark.parametrize("workload, kind", [
    ("corpus", "decide"),
    ("large", "decide"),
    ("optimize", "optimize"),
    ("corpus", "enumerate"),
    ("reduction", "verify"),
    ("reduction", "reduce"),
])
def test_wrong_answer_is_counted_as_failed(workload, kind):
    work = workloads.build(workload, 5, 1, tiny=True)
    op = _first(work, kind)
    outcome = workloads.execute(op, NullTracer())
    assert run.failure(op, outcome, workloads.check) is None
    wrong = _falsify(kind, op, outcome)
    assert run.failure(op, wrong, workloads.check) is not None
    # The same wrong answer coming out of the timed loop is counted.
    _, problems = run.run_schedule(
        [("main", op)], NullTracer(), lambda op, tr: wrong, workloads.check)
    assert len(problems) == 1


def test_operation_that_raises_is_counted_as_failed():
    op = workloads.Op("decide", "men: m1\nwomen: w1\nm1: w9\n", k=1, key="bad")
    latencies, problems = run.run_schedule(
        [("main", op)], NullTracer(), workloads.execute, workloads.check)
    assert len(latencies["main"]) == 1
    assert len(problems) == 1 and "raised" in problems[0]


def test_side_samples_and_probes_are_spread_over_the_main_ops():
    items = run.interleave({"main": list(range(1, 9)), "enumerate": ["e1", "e2"]}, 2)
    labels = [label for label, _ in items]
    assert labels.count("main") == 8 and labels.count("setup") == 2
    assert [op for label, op in items if label == "main"] == list(range(1, 9))
    assert labels[:2] == ["main", "main"] and labels[-2:] == ["main", "main"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(5452) == 99.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(60) == 75.0
    assert run.tail_percentile(18) == 50.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_full_size_inputs_carry_their_references():
    large = workloads.build("large", workloads.DEFAULT_SEED, 1)
    assert len(large.ops) == 5 and all(op.expect is not None for op in large.ops)
    optimize = workloads.build("optimize", 1, 1)
    assert sorted(int(op.key.split("-")[0][1:]) for op in optimize.ops) == [9, 10, 10, 11, 11, 11, 12, 12]
    assert all(isinstance(op.expect, int) for op in optimize.ops)


def test_renamed_instance_has_the_same_minimal_balance():
    inst = workloads.optimize_instance(6, 3)
    other = workloads.renamed(inst, random.Random(1))
    assert instance.serialize(other) != instance.serialize(inst)
    assert oracle.enumerate_stable(other).bal_opt == oracle.enumerate_stable(inst).bal_opt


def test_times_are_scaled_by_the_probes_around_them():
    probes = speed.Speed()
    probes.at, probes.took = [1.0, 2.0, 3.0], [speed.REFERENCE_S, 2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S]
    # Began after the probe that ended at 2.0 and before the one at 3.0.
    assert probes.factor(2.5) == pytest.approx(1 / 3)
    spans = {"main": [(2.5, 2.8)]}
    assert run.durations(spans, probes)["main"] == [pytest.approx(0.1)]
    assert run.durations(spans)["main"] == [pytest.approx(0.3)]


def test_pool_references_are_the_oracle_answers():
    entries = json.loads(workloads.OPTIMIZE_POOL.read_text())["entries"]
    for n, gen_seed, _, bal_opt in [e for e in entries if e[0] == 9]:
        inst = workloads.optimize_instance(n, gen_seed)
        assert oracle.enumerate_stable(inst, limit=n).bal_opt == bal_opt
