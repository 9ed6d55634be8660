#!/usr/bin/env python3
"""Record the answers of the large workload at the default seed.

    python3 perfbench/record_large.py

The exhaustive oracle cannot enumerate n = 20..40 instances, so the large
workload compares its answers at the default seed with the ones this
script stored in ``large_expected.json`` from a trusted commit.  Other
seeds get the generic checks only: witness stability and balance, and the
bounds set by the two extreme stable matchings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from bsm import fpt, instance  # noqa: E402
from workloads import DEFAULT_SEED, LARGE_EXPECTED, large_ops  # noqa: E402

PASSES = 5  # enough for runs of up to 5 * NOMINAL_PASS_S["large"] seconds


def main() -> int:
    answers = {}
    for op in large_ops(DEFAULT_SEED, PASSES, tiny=False):
        answers[op.key] = fpt.solve_above_min(instance.parse_instance(op.text), op.k).answer
        print(op.key, answers[op.key], flush=True)
    LARGE_EXPECTED.write_text(json.dumps({
        "seed": DEFAULT_SEED,
        "passes": PASSES,
        "answers": answers,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
