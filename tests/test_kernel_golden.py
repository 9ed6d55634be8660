"""Golden equivalence: kernelize, the solver and the stable-matching
enumerators reproduce the recorded digests.

The digests in ``data/kernel_golden.json`` were written by
``scripts/record_kernel_golden.py``: the kernel and solver digests before
the shrink rule was batched and before the solver pruned its search, the
``stable-*`` and ``verify-*`` digests before both enumerators were replaced
by the rotation engine, and the ``pool-*`` and ``cyclic-*`` digests before
the solver cut branches on partial stability and counted its nodes from
the shape of the unpruned tree, and the ``large-*`` digests (full lists
at n = 20, 30 and 40) before the kernel stored its trace as one entry per
rule application.  The solver fields (``r``, the three counters and the
witness) of the 106 decisions that branched although μ_M or μ_W already
fit were recorded again when the solver began answering from the
extreme matchings before kernelizing; no other digest moved.  The
``branch_nodes`` and ``max_branch_nodes`` of the 336 decisions that branch
were recorded again when the solver began counting the nodes its pruned
search visits instead of reading the unpruned tree's size; each count
fell or, for ``max_branch_nodes`` on three decisions, stayed, and no
other field moved.  The same two counters of 323 decisions (251
``pool-*``, 44 ``cyclic-*``, 14 ``corpus-*`` and 14 ``branch-*``) were
recorded again when the solver began cutting every subset in which a
selected man's start set or claimers miss the selection; each fell or
stayed, and no other field moved.  The ``subsets_tried`` and
``branch_nodes`` of all 336 decisions that branch (255 ``pool-*``, 44
``cyclic-*``, 19 ``branch-*`` and 18 ``corpus-*``) were recorded again
when the solver stopped counting each subset it cuts as tried at one
node; both fell on each, and no other field moved.  The 15 ``planted-*``
decisions (three 200x200 instances with three planted cores, at every k
within 2 of the least balance) were recorded, with no other digest
moving, before the solver listed its live subsets by a pruned walk over
the sad men in place of a family of 2^s bits.  The 1,760 ``decide-*``
digests (the answer, t and witness of ``oracle.decide_above_min`` and
``decide_above_max`` at each decision's instance and k) were recorded,
with no other digest moving, before the oracle's tie walk moved onto the
least-balance walk.  Any change to an outcome, kernel, trace row,
witness, solver answer or counter, to an oracle decision, to the ordered
stable matchings or least balance of ``enumerate_stable``, or to a field
of a ``verify_reduction`` report on those cases fails here.
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
