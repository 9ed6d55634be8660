import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsm import gs, instance
from bsm.generate import cyclic_instance, mutual_first_instance, planted_instance, random_instance
from bsm.gs import blocking_pairs, objectives, optima
from bsm.instance import MAN, WOMAN, Matching, Person, make_instance
from bsm.oracle import (
    TooLarge,
    _chain,
    _closed_sets,
    _least_balance,
    decide_above_max,
    decide_above_min,
    enumerate_stable,
)
from helpers import (
    chain_decision,
    chain_stable,
    component_least_balance,
    empty_instance,
    naive_stable,
    sad_2x2,
    single_pair,
)


def test_enumerate_2x2():
    stable = enumerate_stable(sad_2x2())
    assert len(stable.matchings) == 2
    assert stable.bal_opt == 4


def test_enumerate_single_pair():
    stable = enumerate_stable(single_pair())
    assert len(stable.matchings) == 1
    assert stable.bal_opt == 1


def test_enumerate_empty_instance():
    stable = enumerate_stable(empty_instance())
    assert len(stable.matchings) == 1
    assert len(stable.matchings[0]) == 0
    assert stable.bal_opt == 0


def test_decide_above_min_examples():
    inst = sad_2x2()
    yes = decide_above_min(inst, 4)
    assert yes.answer and yes.t == 2
    assert objectives(inst, yes.witness).balance == 4

    no = decide_above_min(inst, 1)
    assert (no.answer, no.t, no.witness) == (False, -1, None)

    trivial_no = single_pair()
    verdict = decide_above_min(trivial_no, 0)
    assert (verdict.answer, verdict.t, verdict.witness) == (False, -1, None)


def test_decide_above_max_examples():
    inst = sad_2x2()
    assert decide_above_max(inst, 4)[:2] == (True, 2)
    assert decide_above_max(inst, 3)[:2] == (False, 1)
    three = mutual_first_instance(3, full=True)
    assert decide_above_max(three, 3)[:2] == (True, 0)


def test_witness_minimizes_balance():
    rng = random.Random(99)
    for _ in range(30):
        inst = random_instance(rng, max_side=5)
        stable = enumerate_stable(inst)
        verdict = decide_above_min(inst, stable.bal_opt)
        assert verdict.answer
        assert objectives(inst, verdict.witness).balance == stable.bal_opt


def test_witness_is_the_first_least_balance_matching():
    # Among several matchings of least balance, the witness is the first in
    # enumeration order, whatever k is and whichever optimum t is counted from.
    rng = random.Random(4242)
    ties = 0
    for n in [4, 5, 6, 7] * 40:
        inst = random_instance(rng, n, n, density=1.0)
        stable = enumerate_stable(inst)
        least = [mu for mu in stable.matchings if objectives(inst, mu).balance == stable.bal_opt]
        ties += len(least) > 1
        for k in (stable.bal_opt, stable.bal_opt + 3):
            assert decide_above_min(inst, k).witness == least[0]
            assert decide_above_max(inst, k).witness == least[0]
    assert ties >= 5


def test_one_matching_lattices_are_answered_as_the_chain_walk_answers():
    # With no man moving, enumeration answers from μ_M alone and the decisions
    # walk an empty chain; the helpers' full chain walks must agree with both.
    rng = random.Random(20240807)
    cases = [inst for inst in (random_instance(rng, max_side=7) for _ in range(1000)) if not inst.sad_men]
    assert len(cases) >= 800 and any(inst.o_w > inst.o_m for inst in cases)
    cases += [mutual_first_instance(3), mutual_first_instance(4, full=True), single_pair(), empty_instance()]
    for inst in cases:
        assert not inst.sad_men
        stable = enumerate_stable(inst)
        want, bal_opt = chain_stable(inst)
        assert (list(stable.matchings), stable.bal_opt) == (want, bal_opt)
        for k in (bal_opt - 1, bal_opt, bal_opt + 1):
            assert tuple(decide_above_min(inst, k)) == chain_decision(inst, k, "min")
            assert tuple(decide_above_max(inst, k)) == chain_decision(inst, k, "max")


def test_size_bound():
    # A ring of preferences: all 11 men change partner, beyond the default 9.
    # Only enumeration is bounded; the decisions answer at any size.
    n = 11
    men = [Person(MAN, f"m{i}") for i in range(n)]
    women = [Person(WOMAN, f"w{i}") for i in range(n)]
    ranks = {}
    for i, m in enumerate(men):
        order = [women[(i + j) % n] for j in range(n)]
        ranks[m] = {w: r for r, w in enumerate(order, start=1)}
    for i, w in enumerate(women):
        order = [men[(i + 1 + j) % n] for j in range(n)]
        ranks[w] = {m: r for r, m in enumerate(order, start=1)}
    inst = make_instance(men, women, ranks)
    with pytest.raises(TooLarge, match=r"\A11 men change partner, beyond the bound 9\Z"):
        enumerate_stable(inst)
    stable = enumerate_stable(inst, limit=n)
    assert stable.matchings
    least = [mu for mu in stable.matchings if objectives(inst, mu).balance == stable.bal_opt]
    for decide in (decide_above_min, decide_above_max):
        assert not decide(inst, stable.bal_opt - 1).answer
        yes = decide(inst, stable.bal_opt)
        assert yes.answer and yes.witness == least[0]


def test_mutually_first_pairs_do_not_hit_the_bound():
    inst = mutual_first_instance(30, full=False)
    stable = enumerate_stable(inst)
    assert len(stable.matchings) == 1
    assert stable.bal_opt == 30


def test_bound_counts_the_men_who_change_partner():
    # At this seed the 25th instance has 12 men and no mutually-first pair,
    # but a single stable matching: no man changes partner.
    rng = random.Random(1)
    for _ in range(25):
        inst = random_instance(rng, max_side=12)
    assert len(inst.men) == 12
    stable = enumerate_stable(inst)
    assert stable.matchings == (optima(inst).mu_m,)


@st.composite
def seeded_instances(draw):
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    return random_instance(rng, max_side=4)


@settings(max_examples=50, deadline=None)
@given(seeded_instances())
def test_enumeration_matches_naive_filter(inst):
    assert set(enumerate_stable(inst).matchings) == naive_stable(inst)


@settings(max_examples=30, deadline=None)
@given(seeded_instances(), st.integers(0, 10**6))
def test_non_enumerated_matchings_are_blocked(inst, seed):
    rng = random.Random(seed)
    stable = set(enumerate_stable(inst).matchings)
    men = list(inst.men)
    rng.shuffle(men)
    pairs = []
    used = set()
    for m in men:
        options = [w for w in inst.prefs.ranks[m] if w not in used]
        if options and rng.random() < 0.8:
            w = rng.choice(options)
            used.add(w)
            pairs.append((m, w))
    mu = Matching.of(pairs)
    if mu not in stable:
        assert blocking_pairs(inst, mu)


@settings(max_examples=40, deadline=None)
@given(seeded_instances())
def test_guarantee_below_best_balance(inst):
    opt = optima(inst)
    stable = enumerate_stable(inst)
    assert max(opt.o_m, opt.o_w) <= stable.bal_opt
    assert opt.mu_m in stable.matchings and opt.mu_w in stable.matchings


@settings(max_examples=40, deadline=None)
@given(seeded_instances(), st.integers(-2, 40))
def test_decide_variants_agree_on_answer(inst, k):
    opt = optima(inst)
    bal = enumerate_stable(inst).bal_opt
    low = decide_above_min(inst, k)
    high = decide_above_max(inst, k)
    assert low.answer == high.answer == (bal <= k)
    assert low.t == k - min(opt.o_m, opt.o_w)
    assert high.t == k - max(opt.o_m, opt.o_w)
    assert high.t <= low.t


def test_decide_makes_no_optima_call(monkeypatch):
    # O_M and O_W come from the engine's rows; deferred acceptance is not rerun.
    rng = random.Random(5)
    cases = [(inst, optima(inst)) for inst in (random_instance(rng, max_side=6) for _ in range(40))]

    def refuse(inst):
        raise AssertionError("gs.optima called")

    monkeypatch.setattr(gs, "optima", refuse)
    for inst, opt in cases:
        for k in (max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w):
            assert decide_above_min(inst, k).t == k - min(opt.o_m, opt.o_w)
            assert decide_above_max(inst, k).t == k - max(opt.o_m, opt.o_w)


def test_enumerate_runs_deferred_acceptance_once_per_optimum(monkeypatch):
    # The chain walk starts from mu_M and stops at mu_W: one run with the
    # men proposing and one with the women proposing.
    inst = random_instance(random.Random(3), 8, 8, 1.0)
    real_da = instance._deferred_acceptance
    proposers = []

    def counted(order, *args, **kwargs):
        proposers.append(order)
        return real_da(order, *args, **kwargs)

    monkeypatch.setattr(instance, "_deferred_acceptance", counted)
    assert len(enumerate_stable(inst, limit=8).matchings) > 1
    assert sum(order is inst.m_rank for order in proposers) == 1
    assert sum(order is inst.w_rank for order in proposers) == 1


@pytest.mark.parametrize("make, moving", [
    (lambda: mutual_first_instance(4, full=True), False),  # one matching
    (lambda: random_instance(random.Random(3), 8, 8, 1.0), True),
], ids=["one-matching", "rotations"])
@pytest.mark.parametrize("decide", [decide_above_min, decide_above_max])
def test_decide_runs_deferred_acceptance_once_per_optimum(monkeypatch, make, moving, decide):
    # A decision reads μ_M, μ_W and O_M from the instance, which runs
    # deferred acceptance once per side, over every k asked.
    inst = make()
    real_da = instance._deferred_acceptance
    proposers = []

    def counted(order, *args, **kwargs):
        proposers.append(order)
        return real_da(order, *args, **kwargs)

    monkeypatch.setattr(instance, "_deferred_acceptance", counted)
    answers = [decide(inst, k).answer for k in range(-1, 80)]
    assert False in answers and True in answers
    assert bool(inst.sad_men) == moving
    assert sum(order is inst.m_rank for order in proposers) == 1
    assert sum(order is inst.w_rank for order in proposers) == 1


def seeded_small_instances():
    """Full-list and sparse seeded instances of at most 5 per side."""
    rng = random.Random(20240807)
    for i in range(120):
        yield random_instance(rng, 1 + i % 5, 1 + i % 5, 1.0)
        yield random_instance(rng, rng.randint(1, 5), rng.randint(1, 5), rng.uniform(0.3, 0.9))


def test_engine_matches_naive_filter_on_seeded_instances():
    for inst in seeded_small_instances():
        stable = enumerate_stable(inst)
        want = naive_stable(inst)
        assert len(stable.matchings) == len(want)
        assert set(stable.matchings) == want
        assert stable.bal_opt == min(objectives(inst, mu).balance for mu in want)


def test_engine_yields_each_stable_matching_once_with_its_costs():
    # Full lists up to n=8, beyond the naive filter's reach: every matching
    # must be stable, new, and carry its own two cost sums.
    rng = random.Random(11)
    total = 0
    for i in range(240):
        n = 3 + i % 6
        inst = random_instance(rng, n, n, 1.0)
        seen = set()
        for partner, men_cost, women_cost in _closed_sets(_chain(inst)):
            mu = inst.matching_from_arrays(partner)
            assert mu not in seen
            seen.add(mu)
            assert not blocking_pairs(inst, mu)
            obj = objectives(inst, mu)
            assert (obj.men_cost, obj.women_cost) == (men_cost, women_cost)
        opt = optima(inst)
        assert opt.mu_m in seen and opt.mu_w in seen
        total += len(seen)
    assert total > 400  # 240 instances, so many have several


def test_the_component_reference_gives_the_naive_least_balance():
    for inst in seeded_small_instances():
        want = min(objectives(inst, mu).balance for mu in naive_stable(inst))
        assert component_least_balance(inst) == want
    with pytest.raises(ValueError, match="exceeds 8"):
        component_least_balance(cyclic_instance(9))


@pytest.mark.parametrize("n", [200, 1000])
def test_the_engine_finds_the_least_balance_of_planted_instances_component_by_component(n):
    # Up to 80 people per side in the cores, far past enumeration; the
    # reference brute-forces each core and never builds a rotation.
    for cores in range(2, 11):
        inst = planted_instance(random.Random(n + cores), n, cores, 5)
        assert _least_balance(_chain(inst)) == component_least_balance(inst)
