#!/usr/bin/env python3
"""Sweep random instances and compare the parameterized solver with the
exhaustive oracle over the whole interesting k range.

    python scripts/solver_oracle_sweep.py --count 500 --seed 1 --max-side 7
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bsm import fpt, gs, oracle  # noqa: E402
from bsm.generate import random_instance  # noqa: E402
from bsm.instance import serialize  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20240807)
    parser.add_argument("--max-side", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.time()
    decisions = 0
    kernels = 0
    mismatches = []
    for index in range(args.count):
        inst = random_instance(rng, max_side=args.max_side)
        opt = gs.optima(inst)
        stable = oracle.enumerate_stable(inst, limit=len(inst.men))
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            expected = stable.bal_opt <= k
            result = fpt.solve_above_min(inst, k)
            decisions += 1
            if result.stats.subsets_tried:
                kernels += 1
            if result.answer != expected:
                mismatches.append({"instance": serialize(inst), "k": k})
    print(json.dumps({
        "instances": args.count,
        "decisions": decisions,
        "solved_after_kernel": kernels,
        "mismatches": mismatches,
        "seconds": round(time.time() - start, 2),
    }, indent=2))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
