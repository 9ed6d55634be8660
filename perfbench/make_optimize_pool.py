#!/usr/bin/env python3
"""Rebuild ``optimize_pool.json``, the instances the optimize workload draws from.

    python3 perfbench/make_optimize_pool.py

Branching in ``bsm solve --optimize`` is exponential in the number of sad
men left in the kernel, so plain random draws at n = 9..12 range from a few
milliseconds to over a minute per search.  This script scans generator
seeds in order and keeps, for each n, the first instances whose whole
search visits a number of branch nodes inside a fixed band: enough that
branching is most of the work, few enough that every search stays short.
Selection uses the solver's node counts, never a clock, so the pool is
the same on every machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from bsm import fpt, gs, oracle  # noqa: E402
from workloads import OPTIMIZE_POOL, minimal_balance, optimize_instance  # noqa: E402

# Instances per n: as many as one run of four passes searches, so every
# such run searches the whole pool and the seed changes only the order
# and the names.
PER_SIZE = {9: 4, 10: 8, 11: 12, 12: 8}
# Lowest accepted node count per n; the band is [low, 1.6 * low].  A larger
# n spends longer in the kernel, so it needs more branching to dominate.
NODES_LOW = {9: 40_000, 10: 50_000, 11: 65_000, 12: 80_000}
BAND = 1.6
MAX_SAD = 8  # more sad men than this makes searches that run for minutes
MAX_GAP = 40


class _TooManyNodes(Exception):
    pass


def branch_nodes(inst) -> int:
    """Branch nodes of the whole optimize search, or -1 once past every band."""
    total = 0

    def solve(i, k):
        nonlocal total
        result = fpt.solve_above_min(i, k)
        total += result.stats.branch_nodes
        if total > BAND * max(NODES_LOW.values()):
            raise _TooManyNodes
        return result

    try:
        minimal_balance(inst, solve)
    except _TooManyNodes:
        return -1
    return total


def main() -> int:
    entries = []
    for n, low in NODES_LOW.items():
        found = 0
        gen_seed = 0
        while found < PER_SIZE[n]:
            gen_seed += 1
            inst = optimize_instance(n, gen_seed)
            opt = gs.optima(inst)
            sad = sum(1 for m in inst.men if opt.mu_m.by_man.get(m) != opt.mu_w.by_man.get(m))
            gap = gs.objectives(inst, opt.mu_m).balance - max(opt.o_m, opt.o_w)
            if not 6 <= sad <= MAX_SAD or gap > MAX_GAP:
                continue
            nodes = branch_nodes(inst)
            if low <= nodes <= BAND * low:
                bal_opt = oracle.enumerate_stable(inst, limit=n).bal_opt
                entries.append([n, gen_seed, nodes, bal_opt])
                found += 1
                print(n, gen_seed, nodes, bal_opt, flush=True)
    OPTIMIZE_POOL.write_text(json.dumps({
        "about": "full-list n x n instances random_instance(Random(seed), n, n, 1.0); "
                 "entries are [n, seed, branch nodes of the whole optimize search, "
                 "least balance by oracle.enumerate_stable(inst, limit=n)]",
        "nodes_low": NODES_LOW,
        "band": BAND,
        "entries": entries,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
