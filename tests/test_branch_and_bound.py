"""The engine's closed-set walk against the chain-order walk of ``helpers.chain_order_walk``.

The unbounded chain-order walk lists every stable matching, and the
reference answers are read off all its rows: O_M and O_W as the least
side costs, and the witness as the first least-balance row in
``enumerate_stable`` order.
The chain walk, which follows only the men who move, is checked against
the full-sweep reference ``helpers.full_sweep_chain``.
"""

import random
from fractions import Fraction
from itertools import combinations, islice, product
from math import inf

import pytest

from bsm import oracle
from bsm.cli import main
from bsm.generate import cyclic_instance, planted_instance, random_graph, random_instance
from bsm.hardness import parse_graph, reduce_clique, verify_reduction
from bsm.instance import Instance, Partners, serialize
from bsm.oracle import (
    TooLarge,
    _Chain,
    _by_ratio,
    _chain,
    _components,
    _deltas,
    _decide,
    _least_balance,
    _may_beat,
    _partners,
    _split_least_balance,
    _walk,
    _walk_least_balance,
    decide_above_min,
    enumerate_stable,
)
from helpers import (
    SAD_2X2_TEXT, chain_order_walk, component_least_balance, crossed_planted_instance, full_sweep_chain,
    later_by_ratio, pool_entries, sad_2x2, single_pair, suffix_bound_walk, tightened_walk, two_sort_walk, verify_cases,
)


def full_rows(chain):
    """Every stable matching as (partners, men's cost, women's cost), in ``enumerate_stable`` order."""
    return sorted((tuple(p), men, women) for p, men, women in chain_order_walk(chain, None, False, None))


def full_balances(chain) -> list[int]:
    """The balance of every stable matching, by the chain-order reference walk."""
    return [max(men, women) for _, men, women in chain_order_walk(chain, None, False, None)]


def bounded_nodes(chain) -> int:
    return sum(1 for _ in tightened_walk(chain))


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


def test_bounded_walk_gives_the_least_balance_on_every_recorded_reduction_graph():
    cases = verify_cases()
    assert len(cases) == 20
    for key, graph, k in cases:
        inst = reduce_clique(graph, k).inst
        chain = _chain(inst)
        full = full_balances(chain)
        assert _least_balance(chain) == min(full), key
        assert bounded_nodes(chain) <= len(full), key


# --- the relaxation bound against brute force and against the suffix bound ----

def small_chains():
    """Chains of 2 to 12 rotations from corpus instances and small reduction graphs.

    Few corpus instances have two rotations or more, so full-list ones
    and the cyclic family join them.
    """
    rng = random.Random(2024)
    insts = [random_instance(rng, max_side=7) for _ in range(1000)]
    insts += [random_instance(rng, n, n, 1.0) for n in range(6, 11) for _ in range(20)]
    insts.append(cyclic_instance(6))
    shapes = ((4, 3, 2), (5, 5, 2), (6, 6, 2), (7, 5, 3))
    insts += [
        reduce_clique(random_graph(rng, n_v, n_e, plant_triangle=planted), k).inst
        for n_v, n_e, k in shapes for planted in (True, False)
    ]
    chains = [_chain(inst) for inst in insts]
    return [chain for chain in chains if 2 <= len(chain.deltas) <= 12]


def test_relaxation_bound_never_cuts_a_set_that_beats_below():
    rng = random.Random(7)
    chains = small_chains()
    assert len(chains) >= 40 and max(len(chain.deltas) for chain in chains) == 12
    cuts = cuts_beyond_suffix = 0
    for chain in chains:
        later = later_by_ratio(chain.deltas)
        for j in range(len(chain.deltas)):
            rest = chain.deltas[j + 1:]
            sums = {
                (sum(d_men for d_men, _ in subset), sum(d_women for _, d_women in subset))
                for size in range(len(rest) + 1) for subset in combinations(rest, size)
            }
            rise, drop = sum(d for d, _ in rest), -sum(d for _, d in rest)
            for _ in range(20):
                below = rng.randint(1, 2 * max(chain.costs))
                men = below - 1 - rng.randint(-1, rise + 1)
                women = below - 1 + rng.randint(-1, drop + 1)
                suffix_cuts = max(men, women - drop) >= below
                if _may_beat(later[j], men, women, below):
                    assert not suffix_cuts, (j, men, women, below)  # it cuts all the suffix bound cuts
                    continue
                cuts += 1
                cuts_beyond_suffix += not suffix_cuts
                assert all(max(men + a, women + b) >= below for a, b in sums), (j, men, women, below)
    assert cuts_beyond_suffix > 0 and cuts > cuts_beyond_suffix  # cuts where the suffix bound would not


def test_relaxation_bound_takes_the_last_rotation_in_part():
    # Slack 1 buys half of a rotation that rises 2 and drops 3: a drop of 1.5.
    assert _may_beat([(2, 3)], 9, 10, 11)  # need 0: the set itself beats below
    assert _may_beat([(2, 3)], 9, 11, 11)  # need 1
    assert not _may_beat([(2, 3)], 9, 12, 11)  # need 2
    assert not _may_beat([(2, 3)], 11, 5, 11)  # the men's cost is already at below
    # Best drop per rise first: 3/1 whole, then 1 of the 2 rise left buys 2 of 4.
    later = [(1, 3), (2, 4)]
    assert later_by_ratio([(5, -1), (2, -4), (1, -3)])[0] == later
    assert _may_beat(later, 8, 15, 11) and not _may_beat(later, 8, 16, 11)


def rows(walk):
    return [(tuple(p), men, women) for p, men, women in walk]


def walk_rows(chain, bound):
    """What ``_walk`` yields under ``bound``, as (partners, men's cost, women's cost)."""
    return [(tuple(_partners(chain, chosen)), men, women) for chosen, men, women in _walk(chain, bound)]


def is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(row in rest for row in short)


def thinned_nodes(chain) -> tuple[int, int]:
    """Check both bounded walks against the suffix-bound walk; return (their rows, the reference's)."""
    start = max(chain.costs)
    least = rows(tightened_walk(chain))
    reference = rows(suffix_bound_walk(chain, start, tighten=True))
    assert is_subsequence(least, reference)
    bal_opt = min(max(row[1:]) for row in least)
    assert bal_opt == min(max(row[1:]) for row in reference)
    tied, tied_reference = walk_rows(chain, [bal_opt + 1]), rows(suffix_bound_walk(chain, bal_opt + 1))
    assert set(tied) <= set(tied_reference)
    assert {row for row in tied if max(row[1:]) == bal_opt} == {
        row for row in tied_reference if max(row[1:]) == bal_opt
    }
    return len(least) + len(tied), len(reference) + len(tied_reference)


def test_relaxation_bound_walk_keeps_a_subsequence_of_the_suffix_bound_walk():
    for inst in [*differential_instances(), cyclic_instance(6), cyclic_instance(8)]:
        thinned_nodes(_chain(inst))
    got_total = reference_total = 0
    for key, graph, k in verify_cases():
        got, reference = thinned_nodes(_chain(reduce_clique(graph, k).inst))
        got_total += got
        reference_total += reference
    assert got_total < reference_total


# --- the least-balance walk over the ratio-first order ------------------------

def walk_differential_chains():
    """1,000 corpus draws, the 32 pool instances, cyclic 6, 8 and 12, and planted n = 200 with 1 to 4 cores."""
    rng = random.Random(20240807)
    insts = [random_instance(rng, max_side=7) for _ in range(1000)]
    insts += [random_instance(random.Random(seed), n, n, 1.0) for n, seed, *_ in pool_entries()]
    insts += [cyclic_instance(n) for n in (6, 8, 12)]
    insts += [planted_instance(random.Random(seed), 200, cores, 5) for seed in range(3) for cores in range(1, 5)]
    return [_chain(inst) for inst in insts]


def test_walk_lists_every_closed_set_the_tied_ones_at_a_fixed_bound_and_the_least_under_a_falling_one():
    tied_total = 0
    for chain in walk_differential_chains():
        full = rows(chain_order_walk(chain, None, False, None))
        # Unbounded: each closed set once, with its matching and costs.
        masks = [chosen for chosen, _, _ in _walk(chain, [inf])]
        assert len(set(masks)) == len(masks) == len(full)
        assert all(not chain.preds[j] & ~chosen for chosen in masks for j in range(len(chain.preds)) if chosen >> j & 1)
        assert sorted(walk_rows(chain, [inf])) == sorted(full)
        # At the least balance b plus 1: μ_M first, then exactly the sets of balance b.
        b = min(max(row[1:]) for row in full)
        tied = walk_rows(chain, [b + 1])
        assert tied[0] == full[0] and all(max(row[1:]) == b for row in tied[1:])
        assert sorted(row for row in tied if max(row[1:]) == b) == sorted(row for row in full if max(row[1:]) == b)
        tied_total += len(tied) - 1
        # Lowered to each balance yielded: every yield beats the one before, down to b.
        bound, seen = [max(chain.costs)], []
        for _, men, women in _walk(chain, bound):
            seen.append(max(men, women))
            bound[0] = seen[-1]
        assert all(before > after for before, after in zip(seen, seen[1:]))
        assert seen[-1] == min(max(men, women) for _, men, women in tightened_walk(chain)) == b
    assert tied_total > 100

def test_least_balance_is_the_least_of_the_full_walk_and_of_the_chain_order_walk():
    for inst in chain_differential_instances():
        chain = _chain(inst)
        want = min(full_balances(chain))
        assert _least_balance(chain) == want == min(max(men, women) for _, men, women in tightened_walk(chain))
        assert _walk_least_balance(chain) == split(chain) == want


def test_ratio_order_is_a_linear_extension_taking_the_best_ready_ratio_first():
    assert _by_ratio(_chain(single_pair())) == ([], []) and _by_ratio(_chain(sad_2x2())) == ([0], [0])
    # Beyond the small chains: a full-list one whose masks hold mostly
    # transitive predecessors, and two longer chains of planted cores.
    dense = _chain(random_instance(random.Random(1), 200, 200, 1.0))
    planted = [_chain(planted_instance(random.Random(0), 1000, cores, 5)) for cores in (12, 16)]
    assert (len(dense.deltas), sum(mask.bit_count() for mask in dense.preds)) == (41, 460)
    assert [len(chain.deltas) for chain in planted] == [39, 51]
    held_back = 0  # chains whose order is not the ratio order alone
    for chain in small_chains() + [dense] + planted:
        n = len(chain.deltas)

        def best_first(i):  # the women's change per men's rise, most negative first, then the index
            return Fraction(chain.deltas[i][1], chain.deltas[i][0]), i

        order, ranked = _by_ratio(chain)
        assert sorted(order) == list(range(n)) and ranked == sorted(range(n), key=best_first)
        listed = 0
        for j in order:  # j's predecessors are in, and no ready rotation comes before it
            ready = [i for i in range(n) if not listed >> i & 1 and not chain.preds[i] & ~listed]
            assert min(ready, key=best_first) == j
            listed |= 1 << j
        held_back += order != sorted(range(n), key=best_first)
    assert held_back > 0


def test_ratio_order_calls_the_bound_less_often_than_chain_order_on_the_recorded_reduction_graphs(monkeypatch):
    calls = [0]
    real = oracle._may_beat

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(oracle, "_may_beat", counted)
    chains = [_chain(reduce_clique(graph, k).inst) for _, graph, k in verify_cases()]
    for chain in chains:
        _least_balance(chain)
    got, calls[0] = calls[0], 0
    for chain in chains:
        bounded_nodes(chain)
    assert 0 < got < calls[0]


# --- the one ratio sort against the two-sort construction --------------------

def falling_yields(chain, walk) -> list[tuple[int, int, int]]:
    """What ``walk(chain, bound)`` yields with the bound lowered to each balance yielded, from μ_M's."""
    bound, seen = [max(chain.costs)], []
    for chosen, men, women in walk(chain, bound):
        seen.append((chosen, men, women))
        bound[0] = max(men, women)
    return seen


def tied_chain() -> _Chain:
    """Four rotations without moves; two of drop per rise 2 come in walk order unlike chain order.

    Rotation 2 waits for rotation 1, of ratio 1, so the walk takes 0, 3, 1, 2.
    """
    return _Chain([], (10, 20), 10, [()] * 4, [0, 0, 0b10, 0], [(1, -3), (1, -1), (2, -4), (1, -2)])


def test_tied_rotations_out_of_chain_order_leave_the_walk_as_the_two_sort_walk():
    chain = tied_chain()
    order, ranked = _by_ratio(chain)
    assert (order, ranked) == ([0, 3, 1, 2], [0, 2, 3, 1])
    # After position 0 the one ranking lists rotation 2 before 3, the second sort 3 before 2.
    one_sort = [(chain.deltas[j][0], -chain.deltas[j][1]) for j in ranked if order.index(j) > 0]
    two_sort = later_by_ratio([chain.deltas[j] for j in order])[0]
    assert one_sort == [(2, 4), (1, 2), (1, 1)] and two_sort == [(1, 2), (2, 4), (1, 1)]
    for men, women, below in product(range(8, 18), range(8, 24), range(8, 22)):
        assert _may_beat(one_sort, men, women, below) == _may_beat(two_sort, men, women, below)
    for below in [inf, *range(8, 22)]:
        assert list(_walk(chain, [below])) == list(two_sort_walk(chain, [below])), below
    assert falling_yields(chain, _walk) == falling_yields(chain, two_sort_walk)


def one_sort_chains() -> list[_Chain]:
    """The corpus draws with a rotation, cyclic 6, 8 and 12, the pool, planted n = 200 and 1,000 with 1 to 12 cores,
    and the recorded reduction chains."""
    rng = random.Random(20240807)
    draws = [random_instance(rng, max_side=7) for _ in range(1000)]
    insts = [inst for inst in draws if inst.sad_men]
    insts += [cyclic_instance(n) for n in (6, 8, 12)]
    insts += [random_instance(random.Random(seed), n, n, 1.0) for n, seed, *_ in pool_entries()]
    insts += [planted_instance(random.Random(0), n, cores, 5) for n in (200, 1000) for cores in range(1, 13)]
    insts += [reduce_clique(graph, k).inst for _, graph, k in verify_cases()]
    return [_chain(inst) for inst in insts]


def test_walk_yields_what_the_two_sort_walk_yields_under_a_falling_bound_at_b_plus_1_and_unbounded():
    chains = one_sort_chains()
    assert len(chains) == 71 + 3 + 32 + 24 + 20
    whole = 0  # chains whose unbounded walk ends within the 25,000 yields compared
    for chain in chains:
        assert falling_yields(chain, _walk) == falling_yields(chain, two_sort_walk)
        tied = [_least_balance(chain) + 1]
        assert list(_walk(chain, tied)) == list(two_sort_walk(chain, tied))
        listed = list(islice(_walk(chain, [inf]), 25_000))
        assert listed == list(islice(two_sort_walk(chain, [inf]), 25_000))
        whole += len(listed) < 25_000
    assert whole == len(chains) - 14  # all but planted 6 to 12 cores, with 43,200 closed sets and more


# --- the split by the components of the rotation poset ----------------------

def split(chain) -> int:
    return _split_least_balance(chain, _components(chain.preds))


def test_split_gives_the_least_balance_of_the_walk_on_planted_cores():
    for cores in range(1, 17):
        chain = _chain(planted_instance(random.Random(0), 1000, cores, 5))
        assert split(chain) == _walk_least_balance(chain), cores


def random_poset_chain(rng) -> oracle._Chain:
    """A chain of 2 to 9 rotations with random predecessors, small deltas (so rises tie) and start costs."""
    n = rng.randint(2, 9)
    preds = [sum(1 << i for i in range(j) if rng.random() < 0.25) for j in range(n)]
    deltas = [(rng.randint(1, 6), -rng.randint(1, 6)) for _ in range(n)]
    men = rng.randint(0, 30)
    return oracle._Chain([], (men, men + rng.randint(0, 40)), 0, [()] * n, preds, deltas)


def test_walk_and_split_give_the_least_balance_on_random_posets():
    rng = random.Random(11)
    for _ in range(3000):
        chain = random_poset_chain(rng)
        want = min(full_balances(chain))
        assert _walk_least_balance(chain) == split(chain) == want, chain


def test_components_are_the_weak_components_of_the_poset():
    # 0 < 2 < 4 and 1 < 3, with the transitive bit 0 < 4 as ``_chain`` keeps it; 5 stands alone.
    assert sorted(_components([0, 0, 0b1, 0b10, 0b101, 0])) == [0b1010, 0b10101, 0b100000]
    assert _components([]) == []


def spied(monkeypatch):
    """Record which path each ``_least_balance`` call takes."""
    taken = []
    for name in ("_split_least_balance", "_walk_least_balance"):
        real = getattr(oracle, name)

        def path(*args, name=name, real=real):
            taken.append(name)
            return real(*args)

        monkeypatch.setattr(oracle, name, path)
    return taken


@pytest.mark.parametrize("cores, bal", [(20, 1207), (40, 1452)])
def test_split_gives_the_component_reference_beyond_the_walks_reach(monkeypatch, cores, bal):
    inst = planted_instance(random.Random(0), 1000, cores, 5)
    taken = spied(monkeypatch)
    assert _least_balance(_chain(inst)) == component_least_balance(inst) == bal
    assert taken == ["_split_least_balance"]


def test_split_gives_the_component_reference_on_crossed_planted_instances(monkeypatch):
    # The crossing pairs join the cores in the input but in no stable
    # matching, so the rotations and the reference are the plain instance's.
    taken = spied(monkeypatch)
    for seed in range(3):
        for cores in (3, 6, 9):
            crossed = crossed_planted_instance(random.Random(seed), 200, cores, 5)
            plain = planted_instance(random.Random(seed), 200, cores, 5)
            assert _least_balance(_chain(crossed)) == component_least_balance(plain), (seed, cores)
    assert taken == ["_split_least_balance"] * 9


def two_component_chain(largest: int) -> oracle._Chain:
    """A chain of a star of ``largest`` rotations (rotation 0 below every other) and a path of two."""
    rng = random.Random(largest)
    preds = [0] + [1] * (largest - 1) + [0, 1 << largest]
    deltas = [(rng.randint(1, 9), -rng.randint(1, 9)) for _ in preds]
    return oracle._Chain([], (40, 90), 0, [()] * len(preds), preds, deltas)


@pytest.mark.parametrize("largest, path", [
    (oracle._SPLIT_LIMIT, "_split_least_balance"),
    (oracle._SPLIT_LIMIT + 1, "_walk_least_balance"),
])
def test_split_is_taken_up_to_the_limit_on_the_largest_component(monkeypatch, largest, path):
    chain = two_component_chain(largest)
    assert sorted(part.bit_count() for part in _components(chain.preds)) == [2, largest]
    want = min(full_balances(chain))
    taken = spied(monkeypatch)
    assert _least_balance(chain) == want
    assert taken == [path]


def test_walk_is_taken_unless_two_components_hold_more_than_one_rotation(monkeypatch):
    taken = spied(monkeypatch)
    # One component; a path of two with a lone rotation beside it.
    for preds in ([0, 1, 0b10], [0, 1, 0]):
        chain = oracle._Chain([], (20, 30), 0, [()] * 3, preds, [(2, -3), (1, -1), (3, -5)])
        assert _least_balance(chain) == min(full_balances(chain))
    assert taken == ["_walk_least_balance"] * 2


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


# --- the chain walk from the moving men against the full-sweep reference ------

def rotation_poset(chain):
    """Each rotation, as the set of its moves, mapped to its deltas and the set of rotations below it."""
    below: list[set[int]] = []
    for j, mask in enumerate(chain.preds):
        under = set()
        for i in range(j):
            if mask >> i & 1:
                under |= below[i] | {i}
        below.append(under)
    keys = [frozenset(moves) for moves in chain.moves]
    return {keys[j]: (chain.deltas[j], frozenset(keys[i] for i in below[j])) for j in range(len(keys))}


def chain_end(chain) -> list[int]:
    """Each man's woman index after every rotation's moves, in chain order, from ``chain.mu_m``."""
    partner = list(chain.mu_m)
    for rotation in chain.moves:
        for m, _, w_to in rotation:
            partner[m] = w_to
    return partner


def engine_answers(inst):
    """The least balance, the decisions at and below it and ``enumerate_stable`` (or its refusal)."""
    bal = _least_balance(oracle._chain(inst))
    decisions = [_decide(inst, k, above) for k in (bal - 1, bal) for above in ("min", "max")]
    try:
        stable = enumerate_stable(inst)
    except TooLarge as e:
        stable = str(e)
    return bal, decisions, stable


def chain_differential_instances():
    """Corpus and full-list draws, cyclic 6 to 14, the optimize pool, planted cores and every verify graph."""
    yield from differential_instances()
    yield from (cyclic_instance(n) for n in range(6, 15, 2))
    yield from (random_instance(random.Random(seed), n, n, 1.0) for n, seed, *_ in pool_entries())
    for n in (200, 1000):
        yield from (planted_instance(random.Random(n + cores), n, cores, 5) for cores in range(2, 8))
    yield from (reduce_clique(graph, k).inst for _, graph, k in verify_cases())


def test_chain_walk_from_the_moving_men_matches_the_full_sweep(monkeypatch):
    rotations = 0
    for inst in chain_differential_instances():
        got, want = _chain(inst), full_sweep_chain(inst)
        assert (got.mu_m, got.costs, got.o_w) == (want.mu_m, want.costs, want.o_w)
        assert chain_end(got) == chain_end(want) == inst.mu_w.by_man
        assert rotation_poset(got) == rotation_poset(want)
        rotations += len(got.moves)
        answers = engine_answers(inst)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_chain", full_sweep_chain)
            assert engine_answers(inst) == answers
    assert rotations >= 900


class ListedTable(dict):
    """A rank table that records each man whose table is listed."""

    listed: set[int]

    def __iter__(self):
        self.listed.add(self.owner)
        return super().__iter__()


def test_chain_walk_lists_the_tables_of_the_moving_men_only():
    graph = random_graph(random.Random(1), 10, 10, plant_triangle=True)
    for inst in (reduce_clique(graph, 3).inst, planted_instance(random.Random(1), 1000, 7, 5)):
        sad = set(inst.sad_men)  # deferred acceptance has listed every table by now
        listed: set[int] = set()
        for m, table in enumerate(inst.m_rank):
            inst.m_rank[m] = ListedTable(table)
            inst.m_rank[m].owner, inst.m_rank[m].listed = m, listed
        chain = _chain(inst)
        assert listed == sad and len(sad) < len(inst.men)
        assert chain_end(chain) == chain_end(full_sweep_chain(inst)) == inst.mu_w.by_man


@pytest.mark.parametrize("inst, mu_w", [
    # Man 0 would move to w1, whose man m1 stays put.
    (sad_2x2(), Partners([1, 1], [-1, 0])),
    # Man 0 would move, but has no woman after his own.
    (single_pair(), Partners([-1], [-1])),
])
def test_chain_walk_raises_when_it_leaves_the_moving_men(monkeypatch, capsys, tmp_path, inst, mu_w):
    monkeypatch.setattr(Instance, "mu_w", property(lambda self: mu_w))
    with pytest.raises(RuntimeError, match="the rotation walk leaves the moving men"):
        _chain(inst)
    path = tmp_path / "inst.txt"
    path.write_text(serialize(inst))
    assert main(["enumerate", str(path)]) == 3
    assert capsys.readouterr().err.startswith("internal error: the rotation walk leaves the moving men")
