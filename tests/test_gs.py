import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsm.generate import mutual_first_instance, random_instance
from bsm.gs import InvalidMatching, blocking_pairs, objectives, optima, validate_matching
from bsm.instance import MAN, WOMAN, Matching, Person, _deferred_acceptance, parse_instance
from helpers import naive_stable, partners, sad_2x2, single_pair


def pairs_by_name(mu):
    return sorted((m.name, w.name) for m, w in mu.pairs)


def test_man_optimal_2x2():
    inst = sad_2x2()
    assert pairs_by_name(optima(inst).mu_m) == [("m1", "w1"), ("m2", "w2")]
    # cross-check: best for every man among all stable matchings
    stable = naive_stable(inst)
    assert len(stable) == 2
    mu_m = dict(optima(inst).mu_m.pairs)
    ranks = inst.prefs.ranks
    for mu in stable:
        for m in inst.men:
            assert ranks[m][mu_m[m]] <= ranks[m][dict(mu.pairs)[m]]


def test_woman_optimal_2x2():
    inst = sad_2x2()
    assert pairs_by_name(optima(inst).mu_w) == [("m1", "w2"), ("m2", "w1")]


def test_mutual_first_choices_marry():
    inst = mutual_first_instance(4, full=True)
    expected = [(f"m{i}", f"w{i}") for i in range(1, 5)]
    assert pairs_by_name(optima(inst).mu_m) == expected
    assert pairs_by_name(optima(inst).mu_w) == expected


def test_blocking_pairs_of_stable_matching_empty():
    inst = sad_2x2()
    assert blocking_pairs(inst, optima(inst).mu_m) == []
    assert blocking_pairs(inst, optima(inst).mu_w) == []


def test_blocking_pairs_of_empty_matching():
    inst = sad_2x2()
    assert len(blocking_pairs(inst, Matching.of([]))) == 4


def test_blocking_pair_single():
    text = """
men: m1 m2
women: w1 w2
m1: w1 w2
m2: w1 w2
w1: m1 m2
w2: m1 m2
"""
    inst = parse_instance(text)
    m1, m2 = inst.men
    w1, w2 = inst.women
    mu = Matching.of([(m1, w2), (m2, w1)])
    assert blocking_pairs(inst, mu) == [(m1, w1)]


def test_blocking_pairs_rejects_foreign_pairs():
    inst = sad_2x2()
    from bsm.instance import MAN, WOMAN, Person

    with pytest.raises(InvalidMatching):
        blocking_pairs(inst, Matching.of([(Person(MAN, "mx"), Person(WOMAN, "wx"))]))
    m1, m2 = inst.men
    w1 = inst.women[0]
    with pytest.raises(InvalidMatching):
        blocking_pairs(inst, Matching.of([(m1, w1), (m2, w1)]))
    partial = parse_instance("men: m1 m2\nwomen: w1\nm1: w1\nw1: m1\n")
    with pytest.raises(InvalidMatching):
        blocking_pairs(partial, Matching.of([(partial.men[1], partial.women[0])]))


def definition_blocking_pairs(inst, mu):
    """Acceptable pairs whose two members each prefer the other to their lot, a
    single person preferring anyone acceptable: men in instance order, each
    man's partners in rank order."""
    ranks = inst.prefs.ranks
    partner = partners(mu)

    def prefers(a, b):
        return a not in partner or ranks[a][b] < ranks[a][partner[a]]

    return [
        (m, w) for m in inst.men for w in sorted(ranks[m], key=ranks[m].get)
        if prefers(m, w) and prefers(w, m)
    ]


def test_blocking_pairs_match_the_definition():
    from bsm.instance import make_instance

    rng = random.Random(8)
    seen = {"gaps": 0, "singles": 0, "blocked": 0, "stable": 0}
    for _ in range(300):
        inst = random_instance(rng, max_side=6)
        if rng.random() < 0.5:  # the same order with random gaps between ranks
            ranks = {}
            for p, table in inst.prefs.ranks.items():
                order = sorted(table, key=table.get)
                ranks[p] = dict(zip(order, accumulate(rng.randint(1, 3) for _ in order)))
            inst = make_instance(inst.men, inst.women, ranks)
            seen["gaps"] += not inst.contiguous
        acceptable = [(m, w) for m in inst.men for w in inst.prefs.ranks[m]]
        for _ in range(4):
            rng.shuffle(acceptable)
            pairs, used = [], set()
            for m, w in acceptable:
                if m not in used and w not in used and rng.random() < 0.6:
                    pairs.append((m, w))
                    used |= {m, w}
            mu = Matching.of(pairs)
            want = definition_blocking_pairs(inst, mu)
            assert blocking_pairs(inst, mu) == want
            seen["singles"] += len(used) < len(inst.people)
            seen["blocked" if want else "stable"] += 1
    assert min(seen.values()) >= 20, seen


def test_objectives_2x2():
    inst = sad_2x2()
    obj = objectives(inst, optima(inst).mu_m)
    assert (obj.men_cost, obj.women_cost, obj.balance) == (2, 4, 4)
    assert obj.egalitarian == 6 and obj.sex_equal == -2


def test_objectives_single_pair():
    inst = single_pair()
    obj = objectives(inst, optima(inst).mu_m)
    assert (obj.men_cost, obj.women_cost, obj.balance) == (1, 1, 1)
    assert obj.egalitarian == 2 and obj.sex_equal == 0


def test_optima_values():
    inst = sad_2x2()
    opt = optima(inst)
    assert opt.o_m == 2 and opt.o_w == 2
    n = 5
    opt = optima(mutual_first_instance(n, full=True))
    assert opt.o_m == n and opt.o_w == n
    rng = random.Random(26)
    for _ in range(200):
        inst = random_instance(rng)
        for mu in (inst.mu_m, inst.mu_w):
            assert validate_matching(inst, inst.matching_from_arrays(mu.by_man)) == (mu.by_man, mu.by_woman)
        opt = optima(inst)
        assert objectives(inst, opt.mu_m).men_cost == inst.o_m
        assert objectives(inst, opt.mu_w).women_cost == inst.o_w


def test_unmatched_contribute_zero():
    inst = parse_instance("men: m1 m2\nwomen: w1\nm1: w1\nm2: w1\nw1: m1 m2\n")
    obj = objectives(inst, optima(inst).mu_m)
    assert obj.men_cost == 1 and obj.women_cost == 1


@st.composite
def seeded_instances(draw):
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    return random_instance(rng, max_side=5)


@settings(max_examples=50, deadline=None)
@given(seeded_instances(), st.integers(0, 10**6))
def test_proposal_order_independence(inst, shuffle_seed):
    # Renumber the men, so that they propose in another order.
    by_man, by_woman = _deferred_acceptance(inst.m_rank, inst.w_rank, len(inst.women))
    order = list(range(len(inst.men)))  # new man i is man order[i]
    random.Random(shuffle_seed).shuffle(order)
    new_index = {m: i for i, m in enumerate(order)}
    w_rank = [{new_index[m]: r for m, r in table.items()} for table in inst.w_rank]
    shuffled = _deferred_acceptance([inst.m_rank[m] for m in order], w_rank, len(inst.women))
    assert shuffled == ([by_man[m] for m in order], [new_index.get(m, -1) for m in by_woman])


@settings(max_examples=40, deadline=None)
@given(seeded_instances(), st.integers(0, 10**6))
def test_monotone_rank_relabel_leaves_extremes_alone(inst, seed):
    rng = random.Random(seed)
    relabeled = {}
    for p in inst.people:
        table = inst.prefs.ranks[p]
        new_values = {}
        value = 0
        for q in sorted(table, key=table.get):
            value += rng.randint(1, 4)
            new_values[q] = value
        relabeled[p] = new_values
    from bsm.instance import make_instance

    other = make_instance(inst.men, inst.women, relabeled)
    assert optima(other).mu_m == optima(inst).mu_m
    assert optima(other).mu_w == optima(inst).mu_w


@settings(max_examples=30, deadline=None)
@given(seeded_instances())
def test_extremes_bound_every_stable_matching(inst):
    stable = naive_stable(inst)
    opt = optima(inst)
    assert opt.mu_m in stable and opt.mu_w in stable
    matched_sets = {frozenset(p for pair in mu.pairs for p in pair) for mu in stable}
    assert len(matched_sets) == 1  # the same people are matched in every stable matching
    ranks = inst.prefs.ranks
    mu_m, mu_w = partners(opt.mu_m), partners(opt.mu_w)
    for mu in map(partners, stable):
        for m in inst.men:
            if m in mu:
                r = ranks[m][mu[m]]
                assert ranks[m][mu_m[m]] <= r <= ranks[m][mu_w[m]]
        for w in inst.women:
            if w in mu:
                r = ranks[w][mu[w]]
                assert ranks[w][mu_w[w]] <= r <= ranks[w][mu_m[w]]


@pytest.mark.parametrize("pairs, message", [
    pytest.param([("mx", "wx")], "(M:mx, W:wx) uses people outside the instance", id="foreign-pair"),
    pytest.param([("m2", "w1"), ("m2", "w2")], "M:m2 is matched twice", id="man-twice"),
    pytest.param([("m1", "w2"), ("m2", "w2")], "W:w2 is matched twice", id="woman-twice"),
    pytest.param([("m1", "w1")], "(M:m1, W:w1) is not an acceptable pair", id="not-acceptable"),
])
def test_each_invalid_matching_names_its_fault(pairs, message):
    inst = parse_instance("men: m1 m2\nwomen: w1 w2\nm1: w2\nm2: w1 w2\nw1: m2\nw2: m1 m2\n")
    mu = Matching.of((Person(MAN, m), Person(WOMAN, w)) for m, w in pairs)
    for check in (blocking_pairs, objectives):
        with pytest.raises(InvalidMatching) as raised:
            check(inst, mu)
        assert str(raised.value) == message
