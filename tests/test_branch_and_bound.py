"""The bounded closed-set walk against the full walk of the rotation engine.

The full walk lists every stable matching, and the reference answers are
read off all its rows: O_M and O_W as the least side costs, and the
witness as the first least-balance row in ``enumerate_stable`` order.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from bsm import oracle
from bsm.cli import main
from bsm.generate import random_instance
from bsm.hardness import parse_graph, reduce_clique, verify_reduction
from bsm.oracle import _chain, _closed_sets, _deltas, _decide, _least_balance, decide_above_min
from helpers import SAD_2X2_TEXT, sad_2x2

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def full_rows(chain):
    """Every stable matching as (partners, men's cost, women's cost), in ``enumerate_stable`` order."""
    return sorted((tuple(p), men, women) for p, men, women in _closed_sets(chain))


def bounded_nodes(chain) -> int:
    return sum(1 for _ in _closed_sets(chain, max(chain.costs), tighten=True))


def reference_decision(rows, k, above):
    o_m = min(men for _, men, _ in rows)
    o_w = min(women for _, _, women in rows)
    guarantee = min(o_m, o_w) if above == "min" else max(o_m, o_w)
    partner, men, women = min(rows, key=lambda row: max(row[1], row[2]))
    bal_opt = max(men, women)
    return bal_opt <= k, k - guarantee, partner if bal_opt <= k else None


def differential_instances():
    """300 corpus-style instances of at most 7 per side, 200 full-list ones at n = 6..10."""
    rng = random.Random(20240807)
    for _ in range(300):
        yield random_instance(rng, max_side=7)
    rng = random.Random(1010)
    for i in range(200):
        n = 6 + i % 5
        yield random_instance(rng, n, n, 1.0)


def test_bounded_walk_gives_the_least_balance_and_decisions_of_the_full_walk():
    full_total = bounded_total = 0
    for inst in differential_instances():
        chain = _chain(inst)
        rows = full_rows(chain)
        bal_opt = min(max(men, women) for _, men, women in rows)
        assert _least_balance(chain) == bal_opt
        nodes = bounded_nodes(chain)
        assert nodes <= len(rows)
        full_total += len(rows)
        bounded_total += nodes
        for k, above in ((bal_opt - 1, "min"), (bal_opt, "max"), (bal_opt + 3, "min")):
            answer, t, partner = reference_decision(rows, k, above)
            got = _decide(inst, k, above)
            assert (got.answer, got.t) == (answer, t)
            want = None if partner is None else inst.matching_from_arrays(partner)
            assert got.witness == want
    assert bounded_total < full_total  # the bound cuts somewhere


def verify_cases():
    spec = importlib.util.spec_from_file_location("record_kernel_golden", SCRIPTS / "record_kernel_golden.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return list(recorder.verify_cases())


def test_bounded_walk_gives_the_least_balance_on_every_recorded_reduction_graph():
    cases = verify_cases()
    assert len(cases) == 20
    for key, graph, k in cases:
        inst = reduce_clique(graph, k).inst
        chain = _chain(inst)
        full = [max(men, women) for _, men, women in _closed_sets(chain)]
        assert _least_balance(chain) == min(full), key
        assert bounded_nodes(chain) <= len(full), key


# --- the sign check on every rotation ------------------------------------

# The 2x2 instance of ``sad_2x2``: one rotation, both men one place down.
M_RANK = [{0: 1, 1: 2}, {1: 1, 0: 2}]
W_RANK = [{1: 1, 0: 2}, {0: 1, 1: 2}]
ROTATION = [(0, 0, 1), (1, 1, 0)]


def test_deltas_of_a_rotation():
    assert _deltas(ROTATION, M_RANK, W_RANK) == (2, -2)


@pytest.mark.parametrize("rotation, m_rank, w_rank", [
    # Backwards: the men move up and the women down.
    ([(0, 1, 0), (1, 0, 1)], M_RANK, W_RANK),
    # The men's cost stays put: one man up one place, one down one place.
    (ROTATION, [{0: 1, 1: 2}, {1: 2, 0: 1}], W_RANK),
    # Both women prefer the man they lose.
    (ROTATION, M_RANK, [{0: 1, 1: 2}, {1: 1, 0: 2}]),
])
def test_deltas_refuse_a_rotation_that_does_not_raise_the_mens_cost_and_lower_the_womens(
    rotation, m_rank, w_rank
):
    with pytest.raises(RuntimeError, match="a rotation changes the costs"):
        _deltas(rotation, m_rank, w_rank)


def flipped(side):
    """``_deltas`` reading one side's ranks negated, which flips that side's sign."""
    real = oracle._deltas

    def deltas(rotation, m_rank, w_rank):
        negate = [{p: -r for p, r in table.items()} for table in (m_rank if side == "men" else w_rank)]
        return real(rotation, *((negate, w_rank) if side == "men" else (m_rank, negate)))

    return deltas


@pytest.mark.parametrize("side", ["men", "women"])
def test_chain_walk_raises_on_a_wrong_signed_rotation(monkeypatch, capsys, tmp_path, side):
    monkeypatch.setattr(oracle, "_deltas", flipped(side))
    with pytest.raises(RuntimeError):
        _chain(sad_2x2())
    with pytest.raises(RuntimeError):
        decide_above_min(sad_2x2(), 4)
    with pytest.raises(RuntimeError):
        verify_reduction(parse_graph("v1 v2\nv1 v3\nv2 v3\nv4 v5\nv6 v7\n"), 3)
    path = tmp_path / "inst.txt"
    path.write_text(SAD_2X2_TEXT)
    assert main(["enumerate", str(path)]) == 3  # an internal error, not an input error
    assert capsys.readouterr().err.startswith("internal error: a rotation changes the costs")

