#!/usr/bin/env python3
"""Record one digest per kernelization decision, stable-matching enumeration
and reduction check, for golden-equivalence tests.

    python scripts/record_kernel_golden.py    # rewrites tests/data/kernel_golden.json

``tests/test_kernel_golden.py`` recomputes the digests and compares them
with the file.

Each decision runs ``kernelize`` and ``solve_above_min`` and hashes a
canonical JSON of everything they report: the outcome, the kernel
instance as text, ``k``, ``t_input``, the trace rows as ``bsm kernelize
--trace`` prints them, the witness, the removed happy pairs, the dummies,
the functional instance before dummy insertion, and the solver's answer,
``t``, budget ``r``, witness and search counters (``subsets_tried``,
``branch_nodes``, ``max_branch_nodes``).  The two node counters were
re-recorded on every decision that branches when the solver began
counting the nodes its pruned search visits, in place of the unpruned
tree's size, and again on 323 decisions when it began cutting every
subset in which a selected man's start set or claimers miss the
selection: both times every count fell or stayed, and no other field moved.
``subsets_tried`` and ``branch_nodes`` were re-recorded on all 336
decisions that branch (255 ``pool-*``, 44 ``cyclic-*``, 19 ``branch-*``
and 18 ``corpus-*``) when the solver stopped counting the subsets it cuts:
both fell on each, ``max_branch_nodes`` stayed, and no other field moved.
Matchings are written as sorted name pairs, never through ``repr``, so the
digests do not depend on the hash seed.

Inputs: every k from ``max(O_M, O_W) - 1`` to ``O_M + O_W`` on the first
200 instances of the benchmark corpus (seed 20240807, at most 7 per side),
plus six full-list instances at each of n = 12, 16, 20 and 24 with
``k = max(O_M, O_W) + {0, 2, 5}``, plus six ``large-*`` full-list
instances at each of n = 20, 30 and 40, drawn as the benchmark's
``large`` workload draws them, with the same k offsets, plus four
full-list instances at each
of n = 9 and 10 at every k from ``max(O_M, O_W)`` to the balance of the
man-optimal matching, where the solver branches the most.  The
``pool-*`` decisions take the 32 instances of the benchmark's
``perfbench/optimize_pool.json``, and the ``cyclic-*`` ones the n x n
cyclic instances of ``generate.cyclic_instance`` at n = 6 and 8, each at
every k from ``max(O_M, O_W) - 1`` to its least balance plus 2.  The
``planted-*`` decisions take ``generate.planted_instance(Random(seed),
200, 3, 5)`` for seeds 0, 1 and 2 (14 to 17 sad men each), at every k
within 2 of the least balance the rotation engine finds; they were added,
with no other digest moving, before the solver listed its live subsets
by a pruned walk over the sad men.

Two more kinds of case hash the stable-matching enumerators:

- ``stable-*``: the ordered matchings and ``bal_opt`` of
  ``oracle.enumerate_stable`` on all 1,000 instances of the benchmark
  corpus, and on four full-list instances at each of n = 8, 9 and 10 with
  ``limit=n``;
- ``verify-*``: every field of the ``hardness.verify_reduction`` report
  on seeded graphs at k=3 covering every |V|+|E| from 12 to 20, each size
  once with a planted triangle and once triangle-free, plus two graphs
  that take the brute-force fallback.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bsm import cli, fpt, gs, hardness, kernel, oracle  # noqa: E402
from bsm.generate import (  # noqa: E402
    cyclic_instance, planted_instance, random_graph, random_instance, random_triangle_free_graph,
)
from bsm.instance import serialize  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "kernel_golden.json"
OPTIMIZE_POOL = ROOT / "perfbench" / "optimize_pool.json"
SEED = 20240807
CORPUS_COUNT = 200
FULL_SIZES = (12, 16, 20, 24)
FULL_PER_SIZE = 6
FULL_OFFSETS = (0, 2, 5)
LARGE_SIZES = (20, 30, 40)
BRANCH_SIZES = (9, 10)
BRANCH_PER_SIZE = 4
CYCLIC_SIZES = (6, 8)
BALANCE_ABOVE = 2  # the sweeps around the least balance end this far above it
PLANTED_SEEDS = (0, 1, 2)
PLANTED_SHAPE = (200, 3, 5)  # n per side, cores, extra partners
PLANTED_AROUND = 2  # the planted sweeps run this far below and above the least balance
STABLE_CORPUS_COUNT = 1000
STABLE_FULL_SIZES = (8, 9, 10)
STABLE_FULL_PER_SIZE = 4
# (vertices, edges) of the full reductions at k=3: |V|+|E| = 12..20.
VERIFY_SHAPES = ((7, 5), (7, 6), (7, 7), (8, 7), (8, 8), (9, 8), (9, 9), (10, 9), (10, 10))
# Six vertices at k=3 take the brute-force fallback.
VERIFY_FALLBACKS = ((6, 6, True), (6, 5, False))
VERIFY_K = 3


def _names(people) -> list[str]:
    return [p.name for p in people]


def _pairs(pairs) -> list[list[str]] | None:
    if pairs is None:
        return None
    return sorted([m.name, w.name] for m, w in pairs)


def _text(inst) -> str | None:
    return None if inst is None else serialize(inst)


def canonical(inst, k: int) -> dict:
    """Everything ``kernelize`` and ``solve_above_min`` report, as plain JSON."""
    res = kernel.kernelize(inst, k)
    solved = fpt.solve_above_min(inst, k)
    return {
        "outcome": res.outcome,
        "kernel": _text(res.kernel),
        "k": res.k,
        "t_input": res.t_input,
        "trace_outcome": res.trace.outcome,
        "trace": cli._trace_json(res.trace),
        "witness": _pairs(None if res.witness is None else res.witness.pairs),
        "removed_happy": _pairs(res.removed_happy),
        "dummy_men": _names(res.dummy_men),
        "dummy_women": _names(res.dummy_women),
        "functional": _text(res.functional),
        "functional_k": res.functional_k,
        "solve": {
            "answer": solved.answer,
            "t": solved.t,
            "r": solved.r,
            "witness": _pairs(None if solved.witness is None else solved.witness.pairs),
            "subsets_tried": solved.stats.subsets_tried,
            "branch_nodes": solved.stats.branch_nodes,
            "max_branch_nodes": solved.stats.max_branch_nodes,
        },
    }


def stable_canonical(inst, limit: int) -> dict:
    """The ordered stable matchings and the least balance ``enumerate_stable`` reports."""
    stable = oracle.enumerate_stable(inst, limit=limit)
    return {
        "matchings": [_pairs(mu.pairs) for mu in stable.matchings],
        "bal_opt": stable.bal_opt,
    }


def verify_canonical(graph, k: int) -> dict:
    """Every field of the ``verify_reduction`` report, and its verdict."""
    report = hardness.verify_reduction(graph, k)
    return {**dataclasses.asdict(report), "ok": report.ok}


def _hash(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(inst, k: int) -> str:
    return _hash(canonical(inst, k))


def cases():
    """Yield ``(key, instance, k)`` for every recorded decision."""
    rng = random.Random(SEED)
    for i in range(CORPUS_COUNT):
        inst = random_instance(rng, max_side=7)
        opt = gs.optima(inst)
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            yield f"corpus-{i}-k{k}", inst, k
    for prefix, gen_seed, sizes in (("full", SEED + 1, FULL_SIZES), ("large", SEED + 5, LARGE_SIZES)):
        rng = random.Random(gen_seed)
        for n in sizes:
            for j in range(FULL_PER_SIZE):
                inst = random_instance(rng, n, n, 1.0)
                opt = gs.optima(inst)
                d = FULL_OFFSETS[j % len(FULL_OFFSETS)]
                yield f"{prefix}-n{n}-{j}-d{d}", inst, max(opt.o_m, opt.o_w) + d
    rng = random.Random(SEED + 2)
    for n in BRANCH_SIZES:
        for j in range(BRANCH_PER_SIZE):
            inst = random_instance(rng, n, n, 1.0)
            opt = gs.optima(inst)
            top = gs.objectives(inst, opt.mu_m).balance
            for k in range(max(opt.o_m, opt.o_w), top + 1):
                yield f"branch-n{n}-{j}-k{k}", inst, k
    sweeps = [
        (f"pool-n{n}-s{gen_seed}", random_instance(random.Random(gen_seed), n, n, 1.0))
        for n, gen_seed, *_ in json.loads(OPTIMIZE_POOL.read_text())["entries"]
    ]
    sweeps += [(f"cyclic-n{n}", cyclic_instance(n)) for n in CYCLIC_SIZES]
    for name, inst in sweeps:
        bal_opt = oracle.enumerate_stable(inst, limit=len(inst.men)).bal_opt
        for k in range(max(inst.o_m, inst.o_w) - 1, bal_opt + BALANCE_ABOVE + 1):
            yield f"{name}-k{k}", inst, k
    for seed in PLANTED_SEEDS:
        inst = planted_instance(random.Random(seed), *PLANTED_SHAPE)
        bal = oracle._least_balance(oracle._chain(inst))
        for k in range(bal - PLANTED_AROUND, bal + PLANTED_AROUND + 1):
            yield f"planted-s{seed}-k{k}", inst, k


def stable_cases():
    """Yield ``(key, instance, limit)`` for every recorded enumeration."""
    rng = random.Random(SEED)
    for i in range(STABLE_CORPUS_COUNT):
        yield f"stable-corpus-{i}", random_instance(rng, max_side=7), oracle.DEFAULT_MAX_MEN
    rng = random.Random(SEED + 3)
    for n in STABLE_FULL_SIZES:
        for j in range(STABLE_FULL_PER_SIZE):
            yield f"stable-full-n{n}-{j}", random_instance(rng, n, n, 1.0), n


def verify_cases():
    """Yield ``(key, graph, k)`` for every recorded reduction check."""
    rng = random.Random(SEED + 4)
    for n_v, n_e in VERIFY_SHAPES:
        yield f"verify-{n_v}v{n_e}e-planted", random_graph(rng, n_v, n_e, plant_triangle=True), VERIFY_K
        yield f"verify-{n_v}v{n_e}e-free", random_triangle_free_graph(rng, n_v, n_e), VERIFY_K
    for n_v, n_e, planted in VERIFY_FALLBACKS:
        graph = (
            random_graph(rng, n_v, n_e, plant_triangle=True) if planted
            else random_triangle_free_graph(rng, n_v, n_e)
        )
        yield f"verify-fallback-{n_v}v{n_e}e-{'planted' if planted else 'free'}", graph, VERIFY_K


def record() -> dict[str, str]:
    digests = {key: digest(inst, k) for key, inst, k in cases()}
    digests.update(
        (key, _hash(stable_canonical(inst, limit))) for key, inst, limit in stable_cases()
    )
    digests.update((key, _hash(verify_canonical(g, k))) for key, g, k in verify_cases())
    return digests


def main() -> int:
    digests = record()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps({"seed": SEED, "digests": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
