#!/usr/bin/env python3
"""Record one digest per kernelization decision, for golden-equivalence tests.

    python scripts/record_kernel_golden.py    # rewrites tests/data/kernel_golden.json

``tests/test_kernel_golden.py`` recomputes the digests and compares them
with the file.

Each decision runs ``kernelize`` and ``solve_above_min`` and hashes a
canonical JSON of everything they report: the outcome, the kernel
instance as text, ``k``, ``t_input``, the trace rows as ``bsm kernelize
--trace`` prints them, the witness, the removed happy pairs, the dummies,
the functional instance before dummy insertion, and the solver's answer,
``t``, budget ``r``, witness and search counters (``subsets_tried``,
``branch_nodes``, ``max_branch_nodes``).
Matchings are written as sorted name pairs, never through ``repr``, so the
digests do not depend on the hash seed.

Inputs: every k from ``max(O_M, O_W) - 1`` to ``O_M + O_W`` on the first
200 instances of the benchmark corpus (seed 20240807, at most 7 per side),
plus six full-list instances at each of n = 12, 16, 20 and 24 with
``k = max(O_M, O_W) + {0, 2, 5}``, plus four full-list instances at each
of n = 9 and 10 at every k from ``max(O_M, O_W)`` to the balance of the
man-optimal matching, where the solver branches the most.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bsm import cli, fpt, gs, kernel  # noqa: E402
from bsm.generate import random_instance  # noqa: E402
from bsm.instance import serialize  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "kernel_golden.json"
SEED = 20240807
CORPUS_COUNT = 200
FULL_SIZES = (12, 16, 20, 24)
FULL_PER_SIZE = 6
FULL_OFFSETS = (0, 2, 5)
BRANCH_SIZES = (9, 10)
BRANCH_PER_SIZE = 4


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


def digest(inst, k: int) -> str:
    doc = json.dumps(canonical(inst, k), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def cases():
    """Yield ``(key, instance, k)`` for every recorded decision."""
    rng = random.Random(SEED)
    for i in range(CORPUS_COUNT):
        inst = random_instance(rng, max_side=7)
        opt = gs.optima(inst)
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            yield f"corpus-{i}-k{k}", inst, k
    rng = random.Random(SEED + 1)
    for n in FULL_SIZES:
        for j in range(FULL_PER_SIZE):
            inst = random_instance(rng, n, n, 1.0)
            opt = gs.optima(inst)
            d = FULL_OFFSETS[j % len(FULL_OFFSETS)]
            yield f"full-n{n}-{j}-d{d}", inst, max(opt.o_m, opt.o_w) + d
    rng = random.Random(SEED + 2)
    for n in BRANCH_SIZES:
        for j in range(BRANCH_PER_SIZE):
            inst = random_instance(rng, n, n, 1.0)
            opt = gs.optima(inst)
            top = gs.objectives(inst, opt.mu_m).balance
            for k in range(max(opt.o_m, opt.o_w), top + 1):
                yield f"branch-n{n}-{j}-k{k}", inst, k


def record() -> dict[str, str]:
    return {key: digest(inst, k) for key, inst, k in cases()}


def main() -> int:
    digests = record()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps({"seed": SEED, "digests": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
