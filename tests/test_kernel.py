import dataclasses
import gc
import random
import weakref
from collections import Counter
from itertools import islice

import pytest

from bsm import instance, kernel
from bsm.generate import cyclic_instance, mutual_first_instance, planted_instance, random_instance
from bsm.gs import blocking_pairs, objectives, optima
from bsm.instance import MAN, WOMAN, Instance, Matching, Person, parse_instance, serialize
from bsm.kernel import (
    OUTCOME_KERNEL,
    TRIVIAL_NO,
    TRIVIAL_YES,
    DummyExhausted,
    NoSadPerson,
    TraceEntry,
    OptimaMoved,
    bound_check,
    bound_sad,
    clean_suffix,
    fill_gaps,
    kernelize,
    no_sad,
    remove_happy_pair,
    restrict_matched,
    shrink,
    truncate,
)
from bsm.fpt import _balance, solve_above_min
from bsm.oracle import _chain, _least_balance, decide_above_min, enumerate_stable
from helpers import (
    SAD_2X2_TEXT,
    assert_functional_kernel_bounds,
    assert_kernel_bounds,
    clean_suffix_once,
    empty_instance,
    functional_instance,
    partners,
    pool_entries,
    reference_clean_suffix,
    reference_within,
    remove_happy_pair_once,
    sad_2x2,
    sad_rich_instance,
    shrink_once,
)


# How far k falls per row of each rule; None for a rule that reads k.
K_STEP = {name: k_step for name, _, k_step in kernel.RULES}


def t_of(inst, k):
    """The parameter t = k - min(O_M, O_W) of an instance at target k."""
    return k - min(inst.o_m, inst.o_w)


def names(people):
    return sorted(p.name for p in people)


def optima_of(inst):
    """Both stable optima of an instance, as partner indices, with their costs."""
    return inst.mu_m, inst.mu_w, inst.o_m, inst.o_w


def step(rule, *args):
    """The next instance or verdict of one rule application, or None if the rule does not apply."""
    hit = rule(*args)
    return None if hit is None else hit[0]


def test_rr1_bound_check():
    inst = sad_2x2()
    assert bound_check(inst, 1) == (TRIVIAL_NO, ((),))
    assert bound_check(inst, 4) is None
    assert bound_check(empty_instance(), 0) is None


def test_rr2_clean_suffix_removes_worst_pair():
    inst = functional_instance(
        {"m1": {"w1": 1, "w2": 2}, "m2": {"w2": 2}},
        {"w1": {"m1": 1}, "w2": {"m1": 1, "m2": 2}},
    )
    st1 = step(clean_suffix_once, inst)
    assert st1 is not None
    m1 = st1.men[0]
    assert names(st1.prefs.ranks[m1]) == ["w1"]
    # the stable set is untouched
    assert set(enumerate_stable(inst).matchings) == set(enumerate_stable(st1).matchings)


def test_rr2_none_without_suffixes():
    assert clean_suffix_once(mutual_first_instance(3)) is None


def test_rr2_exhaustion_preserves_stable_set():
    rng = random.Random(21)
    inst = random_instance(rng, 5, 5, density=0.8)
    st = inst
    while (nxt := step(clean_suffix_once, st)) is not None:
        st = nxt
    assert set(enumerate_stable(inst).matchings) == set(enumerate_stable(st).matchings)


def test_rr2_exhaustion_cleans_prefixes_too():
    # After suffix cleaning, every surviving pair sits between both members'
    # optimal partners, and a happy person's list shrinks to their partner.
    rng = random.Random(77)
    for _ in range(15):
        inst = random_instance(rng, 6, 6, density=1.0)
        kin = inst
        while (nxt := step(clean_suffix_once, kin)) is not None:
            kin = nxt
        m_rank, w_rank = kin.m_rank, kin.w_rank
        for m in range(len(kin.men)):
            if kin.mu_m.by_man[m] < 0:
                continue
            for w, r in m_rank[m].items():
                assert m_rank[m][kin.mu_m.by_man[m]] <= r <= m_rank[m][kin.mu_w.by_man[m]]
                assert w_rank[w][kin.mu_w.by_woman[w]] <= w_rank[w][m] <= w_rank[w][kin.mu_m.by_woman[w]]
        for m, w in kin.happy_pairs:
            assert set(m_rank[m]) == {w} and set(w_rank[w]) == {m}


def test_rr3_removes_isolated_people():
    inst = functional_instance(
        {"m1": {"w1": 1}, "m2": {}},
        {"w1": {"m1": 1}},
    )
    st1 = step(restrict_matched, inst)
    assert st1 is not None
    assert names(st1.men) == ["m1"]
    assert restrict_matched(st1) is None


def test_rr3_preserves_stable_set_after_suffix_cleaning():
    rng = random.Random(8)
    for _ in range(20):
        inst = random_instance(rng, 4, 3, density=0.6)
        st = inst
        while (nxt := step(clean_suffix_once, st)) is not None:
            st = nxt
        cleaned = st
        restricted = step(restrict_matched, cleaned)
        if restricted is None:
            continue
        assert set(enumerate_stable(cleaned).matchings) == set(
            enumerate_stable(restricted).matchings
        )
        return
    pytest.skip("no instance with unmatched people in the sample")


def test_rr4_bound_sad():
    inst = sad_2x2()
    assert bound_sad(inst, 2) == (TRIVIAL_NO, ((),))  # t = 0 but two sad men
    assert bound_sad(inst, 4) is None
    assert bound_sad(mutual_first_instance(3), 3) is None


def test_rr5_no_sad():
    three = mutual_first_instance(3)
    assert no_sad(three, 3) == (TRIVIAL_YES, ((),))
    assert no_sad(three, 2) == (TRIVIAL_NO, ((),))
    assert no_sad(sad_2x2(), 4) is None


def test_rr6_transfers_happy_cost():
    inst = functional_instance(
        {
            "m0": {"w0": 1},
            "m1": {"w1": 1, "w2": 2},
            "m2": {"w2": 1, "w1": 2},
        },
        {
            "w0": {"m0": 1},
            "w1": {"m2": 1, "m1": 2},
            "w2": {"m1": 1, "m2": 2},
        },
        k=6,
    )
    kin = inst
    assert [(kin.men[m].name, kin.women[w].name) for m, w in kin.happy_pairs] == [("m0", "w0")]
    st1 = step(remove_happy_pair_once, inst)
    assert st1 is not None
    assert names(st1.men) == ["m1", "m2"]
    ranks = {p.name: {q.name: r for q, r in tbl.items()} for p, tbl in st1.prefs.ranks.items()}
    # the first sad man and first sad woman each absorb the removed rank 1
    assert ranks["m1"] == {"w1": 2, "w2": 3}
    assert ranks["w1"] == {"m2": 2, "m1": 3}
    assert ranks["m2"] == {"w2": 1, "w1": 2}
    # the best achievable balance is preserved
    assert enumerate_stable(inst).bal_opt == enumerate_stable(st1).bal_opt


def test_rr6_none_without_happy_pairs():
    assert remove_happy_pair_once(sad_2x2()) is None


def test_rr6_requires_sad_people():
    with pytest.raises(NoSadPerson):
        remove_happy_pair_once(mutual_first_instance(2))


def test_rr7_truncates_over_threshold():
    inst = sad_2x2()
    st1 = step(truncate, inst, 2)  # k = O_M, so any man's rank-2 woman goes
    assert st1 is not None
    m1 = st1.men[0]
    assert names(st1.prefs.ranks[m1]) == ["w1"]
    assert truncate(inst, 50) is None


def test_rr7_exhaustion_keeps_the_answer():
    rng = random.Random(31)
    tried = 0
    for _ in range(30):
        inst = random_instance(rng, 5, 5)
        bal = enumerate_stable(inst).bal_opt
        if bound_check(inst, bal) is not None:
            continue
        st = inst
        while (nxt := step(truncate, st, bal)) is not None:
            st = nxt
        tried += 1
        assert enumerate_stable(st).bal_opt == bal
    assert tried > 0


def test_rr8_shifts_one_man_and_one_woman():
    inst = functional_instance(
        {"m1": {"w1": 2, "w2": 3}, "m2": {"w2": 2, "w1": 3}},
        {"w1": {"m2": 2, "m1": 4}, "w2": {"m1": 2, "m2": 3}},
    )
    hit = shrink_once(inst)
    assert hit is not None
    st1, rows = hit
    assert 8 - K_STEP["shrink"] * len(rows) == 7
    ranks = {p.name: {q.name: r for q, r in tbl.items()} for p, tbl in st1.prefs.ranks.items()}
    assert ranks["m1"] == {"w1": 1, "w2": 2}
    assert ranks["w1"] == {"m2": 1, "m1": 3}
    assert ranks["m2"] == {"w2": 2, "w1": 3}  # untouched


def test_rr8_none_when_a_side_is_settled():
    assert shrink_once(sad_2x2()) is None


def test_rr8_keeps_the_stable_set_and_drops_best_balance_by_one():
    inst = functional_instance(
        {"m1": {"w1": 2, "w2": 3}, "m2": {"w2": 2, "w1": 3}},
        {"w1": {"m2": 2, "m1": 4}, "w2": {"m1": 2, "m2": 3}},
    )
    st1 = step(shrink_once, inst)
    before = enumerate_stable(inst)
    after = enumerate_stable(st1)
    pair_sets = lambda ss: {frozenset((m.name, w.name) for m, w in mu.pairs) for mu in ss.matchings}
    assert pair_sets(before) == pair_sets(after)
    assert after.bal_opt == before.bal_opt - 1


def test_kernelize_is_deterministic():
    rng = random.Random(606)
    for _ in range(10):
        inst = random_instance(rng, max_side=6)
        opt = optima(inst)
        k = max(opt.o_m, opt.o_w) + 1
        first = kernelize(inst, k)
        second = kernelize(inst, k)
        assert first.trace == second.trace
        assert first.kernel == second.kernel and first.k == second.k


def test_fill_gaps_plugs_every_gap():
    inst = functional_instance(
        {"m1": {"w1": 1, "w2": 3}, "m2": {"w2": 1, "w1": 3}},
        {"w1": {"m2": 1, "m1": 3}, "w2": {"m1": 1, "m2": 3}},
    )
    assert t_of(inst, 6) == 4
    st1 = fill_gaps(inst, 6)[0]
    assert st1.target_k == 10
    assert len(st1.men) == 6 and len(st1.women) == 6
    assert st1.contiguous
    # the rank-2 hole of each original person is plugged by a dummy
    m1 = st1.men[0]
    filler = next(w for w, r in st1.prefs.ranks[m1].items() if r == 2)
    assert filler not in inst.women and filler.name.startswith("y")
    # balance of the padded instance grows by exactly t
    assert enumerate_stable(st1).bal_opt == enumerate_stable(inst).bal_opt + 4


def test_fill_gaps_records_one_entry_for_the_dummies_and_one_for_the_gaps():
    inst = functional_instance(
        {"m1": {"w1": 1, "w2": 4}, "m2": {"w2": 1, "w1": 3}},
        {"w1": {"m2": 1, "m1": 3}, "w2": {"m1": 1, "m2": 2}},
    )
    assert t_of(inst, 5) == 3
    st1, xs, ys, entries = fill_gaps(inst, 5)
    m1, m2 = inst.men
    w1, w2 = inst.women
    assert entries == [
        TraceEntry("add_dummies", (xs + ys,), 5, -3, 3, 3),
        # m1's gaps at 2 and 3 take the first two dummy women, m2's at 2 the
        # first; w1's gap at 2 takes the first dummy man.
        TraceEntry("fill_gap", ((m1, ys[0]), (m1, ys[1]), (m2, ys[0]), (w1, xs[0])), 8, 0, 3, 3),
    ]
    ranks = st1.prefs.ranks
    assert ranks[ys[0]] == {xs[0]: 1, m1: 2, m2: 3} and ranks[ys[1]] == {xs[1]: 1, m1: 2}
    assert ranks[xs[0]] == {ys[0]: 1, w1: 2}
    assert st1.contiguous and st1.target_k == 8


def test_fill_gaps_names_a_gap_no_dummy_is_left_for():
    # One dummy pair (t = 1) cannot plug m1's two gaps.
    inst = functional_instance({"m1": {"w1": 1, "w2": 4}}, {"w1": {"m1": 1}, "w2": {"m1": 1}})
    assert t_of(inst, 2) == 1
    with pytest.raises(DummyExhausted, match=r"^no free dummy for the gap of M:m1 at 3$"):
        fill_gaps(inst, 2)


def test_fill_gaps_without_gaps_adds_only_dummies():
    st1 = fill_gaps(sad_2x2(), 4)[0]
    assert st1.target_k == 6
    assert len(st1.men) == 4
    for p in st1.people:
        image = sorted(st1.prefs.ranks[p].values())
        assert image == list(range(1, len(image) + 1))


def test_kernelize_2x2():
    result = kernelize(sad_2x2(), 4)
    assert result.outcome == OUTCOME_KERNEL
    t = result.k - min(optima(result.kernel).o_m, optima(result.kernel).o_w)
    assert t == 2 and t <= result.t_input
    assert len(result.kernel.men) <= 3 * t
    assert decide_above_min(result.kernel, result.k).answer is True


def test_kernelize_trivial_outcomes():
    three = mutual_first_instance(3)
    assert kernelize(three, 3).outcome == TRIVIAL_YES
    assert kernelize(three, 2).outcome == TRIVIAL_NO
    assert kernelize(sad_2x2(), 1).outcome == TRIVIAL_NO
    yes = kernelize(three, 3)
    assert yes.witness is not None
    assert not blocking_pairs(three, yes.witness)
    assert objectives(three, yes.witness).balance <= 3


def test_kernelize_trace_parameter_monotone():
    rng = random.Random(4)
    for _ in range(40):
        inst = random_instance(rng, max_side=6)
        opt = optima(inst)
        for k in (max(opt.o_m, opt.o_w), opt.o_m + opt.o_w):
            result = kernelize(inst, k)
            for step in result.trace.steps:
                assert step.t_after <= step.t_before
                if step.rule in ("clean_suffix", "restrict_matched", "remove_happy_pair",
                                 "shrink", "add_dummies", "fill_gap"):
                    assert step.t_after == step.t_before


def test_kernelize_requires_list_form():
    gapped = functional_instance(
        {"m1": {"w1": 1, "w2": 3}}, {"w1": {"m1": 1}, "w2": {"m1": 1}}
    )
    from bsm.instance import ValidationError

    with pytest.raises(ValidationError):
        kernelize(gapped, 4)


def test_kernel_equivalence_up_to_eight_per_side():
    rng = random.Random(1718)
    kernels = 0
    for _ in range(12):
        inst = random_instance(rng, 8, 8, density=1.0)
        opt = optima(inst)
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            want = decide_above_min(inst, k).answer
            result = kernelize(inst, k)
            if result.outcome == OUTCOME_KERNEL:
                kernels += 1
                got = decide_above_min(result.kernel, result.k).answer
            else:
                got = result.outcome == TRIVIAL_YES
            assert got == want
    assert kernels > 0


def test_kernel_equivalence_random():
    rng = random.Random(17)
    kernels = 0
    for _ in range(60):
        inst = random_instance(rng, max_side=6)
        opt = optima(inst)
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            want = decide_above_min(inst, k).answer
            result = kernelize(inst, k)
            if result.outcome == OUTCOME_KERNEL:
                kernels += 1
                got = decide_above_min(result.kernel, result.k).answer
            else:
                got = result.outcome == TRIVIAL_YES
            assert got == want
    assert kernels > 0


def test_planted_kernels_meet_the_size_bounds():
    # Acceptance criteria 2 and 3 beyond the corpus's 7 per side: every
    # kernel of planted instances at n = 200 and 1,000, at k from two below
    # to two above the least balance, the engine's.
    cases = [(200, cores, seed) for cores in (1, 2, 3) for seed in range(3)]
    cases += [(1000, cores, seed) for cores in (2, 3, 4, 5) for seed in range(2)]
    kernels = 0
    for n, cores, seed in cases:
        inst = planted_instance(random.Random(seed), n, cores, 5)
        bal = _least_balance(_chain(inst))
        for k in range(bal - 2, bal + 3):
            result = kernelize(inst, k)
            if result.outcome == OUTCOME_KERNEL:
                kernels += 1
                assert_kernel_bounds(result)
                assert_functional_kernel_bounds(result)
    assert kernels == 83


def test_a_kernel_is_at_the_fixpoint_the_branching_walk_reads():
    # The walk looks for no blocking woman whom a man ranks at or above his
    # man-optimal partner (``bsm.fpt``): on every kernel k >= max(O_M, O_W),
    # so the budget is not negative, everyone is matched in μ_M, no pair is
    # happy, each woman ranks her μ_M partner last and each man his μ_W
    # partner last, and in the padded kernel each real woman still ranks
    # her μ_M partner last.  Corpus draws, the pool, cyclic 4 to 12 and
    # planted n = 200, each at every k from max(O_M, O_W) - 1 to the larger
    # of O_M + O_W and the lower extreme balance.
    rng = random.Random(42)
    draws = [random_instance(rng, max_side=7) for _ in range(300)]
    draws += [random_instance(random.Random(seed), n, n, 1.0) for n, seed, _, _ in pool_entries()]
    draws += [cyclic_instance(n) for n in range(4, 13)]
    draws += [planted_instance(random.Random(seed), 200, cores, 5) for cores in (1, 2, 3) for seed in range(2)]
    kernels = padded = 0
    for inst in draws:
        high = min(_balance(inst, mu) for mu in (inst.mu_m, inst.mu_w))
        for k in range(max(inst.o_m, inst.o_w) - 1, max(high, inst.o_m + inst.o_w) + 1):
            result = kernelize(inst, k)
            if result.outcome != OUTCOME_KERNEL:
                continue
            fun = result.functional
            assert result.functional_k >= max(fun.o_m, fun.o_w)
            assert -1 not in fun.mu_m.by_man and -1 not in fun.mu_m.by_woman
            assert not fun.happy_pairs
            assert [next(reversed(table)) for table in fun.w_rank] == list(fun.mu_m.by_woman)
            assert [next(reversed(table)) for table in fun.m_rank] == list(fun.mu_w.by_man)
            pad, real = result.kernel, len(fun.women)
            assert [next(reversed(table)) for table in pad.w_rank[:real]] == list(pad.mu_m.by_woman[:real])
            kernels += 1
            padded += len(pad.women) > real
    assert kernels >= 2000 and padded >= 2000


def test_kernelize_respects_target_on_instance():
    inst = dataclasses.replace(sad_2x2(), target_k=None)
    result = kernelize(inst, 4)
    assert result.kernel.target_k == result.k


# --- batched rules against the single-step reference ------------------------

def diff_instances(seed, count, max_n=25):
    """Seeded instances up to ``max_n`` per side, alternating full and sparse lists."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, max_n)
        n_women = max(1, n + rng.randint(-2, 2))
        density = 1.0 if i % 2 else rng.uniform(0.3, 0.9)
        yield random_instance(rng, n, n_women, density)


def least_k(inst):
    opt = optima(inst)
    return max(opt.o_m, opt.o_w)


def test_rr2_batch_matches_repeated_single_drops():
    for inst in diff_instances(2201, 14):
        k = least_k(inst)
        ref = inst
        drops = []
        while (hit := clean_suffix_once(ref)) is not None:
            ref, rows = hit
            drops.extend(rows)
        batch = clean_suffix(inst)
        if not drops:
            assert batch is None
            continue
        nxt, make_rows = batch
        assert make_rows() == tuple(drops)
        assert nxt == ref and optima_of(nxt) == optima_of(ref)
        assert nxt.prefs.ranks == ref.prefs.ranks
        trace = kernelize(inst, k).trace.steps
        assert [(s.rule, s.affected) for s in trace[: len(drops)]] == [
            ("clean_suffix", pair) for pair in drops
        ]


def truncated(inst, k):
    """The functional instances that truncate leaves, one drop at a time, from ``inst`` at k."""
    while (hit := truncate(inst, k)) is not None:
        inst = hit[0]
        yield inst


def clean_suffix_cases():
    """Sparse and full draws, full lists at the ``large`` sizes, planted n = 200 and truncated draws."""
    rng = random.Random(3301)
    yield from diff_instances(3302, 40)
    for n in (20, 30, 40):
        for _ in range(3):
            yield random_instance(rng, n, n, 1.0)
            yield random_instance(rng, n, n + rng.randint(-3, 3), rng.uniform(0.2, 0.8))
    yield from (planted_instance(random.Random(cores), 200, cores, 5) for cores in (2, 4, 6))
    for inst in diff_instances(3303, 12, max_n=30):
        yield from islice(truncated(inst, least_k(inst)), 6)


def test_clean_suffix_matches_the_reference_scan():
    applied = gapped = 0
    for inst in clean_suffix_cases():
        want, got = reference_clean_suffix(inst), clean_suffix(inst)
        if want is None:
            assert got is None
            continue
        (ref, rows), (new, make_rows) = want, got
        assert make_rows() == rows and len(set(rows)) == len(rows)
        assert [list(t.items()) for t in new.m_rank + new.w_rank] == [
            list(t.items()) for t in ref.m_rank + ref.w_rank
        ]
        assert optima_of(new) == optima_of(ref) == optima_of(inst)
        applied += 1
        gapped += not inst.contiguous
    assert applied >= 100 and gapped >= 40


def test_within_stops_at_the_cut_and_keeps_what_a_full_scan_keeps():
    # Corpus draws (some people single in every stable matching, so their
    # anchor is -1 and their cut their last rank), then truncated draws,
    # whose ranks have gaps; clean_suffix's tables are _within's.
    rng = random.Random(4903)
    cases = [random_instance(rng) for _ in range(300)]
    cases += [kin for inst in diff_instances(4904, 12, max_n=30) for kin in islice(truncated(inst, least_k(inst)), 6)]
    applied = gapped = single = 0
    for inst in cases:
        m_rank, w_rank = inst.m_rank, inst.w_rank
        m_anchor, w_anchor = inst.mu_w.by_man, inst.mu_m.by_woman
        m_cut, w_cut = kernel._cuts(m_rank, m_anchor), kernel._cuts(w_rank, w_anchor)
        want = [
            [list(t.items()) for t in reference_within(m_rank, m_cut, w_rank, w_cut)],
            [list(t.items()) for t in reference_within(w_rank, w_cut, m_rank, m_cut)],
        ]
        got = [kernel._within(m_rank, m_cut, w_rank, w_cut), kernel._within(w_rank, w_cut, m_rank, m_cut)]
        assert [[list(t.items()) for t in side] for side in got] == want
        if (hit := clean_suffix(inst)) is not None:
            assert [[list(t.items()) for t in side] for side in (hit[0].m_rank, hit[0].w_rank)] == want
            applied += 1
            gapped += not inst.contiguous
        single += any(a < 0 and t for t, a in zip(m_rank + w_rank, m_anchor + w_anchor))
    assert applied >= 300 and gapped >= 50 and single >= 200


def cleaned(inst):
    """Exhaust the clean-suffix and restrict-to-matched rules, as kernelize does first."""
    while True:
        nxt = step(clean_suffix, inst) or step(restrict_matched, inst)
        if nxt is None:
            return inst
        inst = nxt


def test_rr6_batch_matches_repeated_single_removals():
    checked = 0
    for inst in diff_instances(2202, 20):
        k = least_k(inst) + 2
        st = cleaned(inst)
        if not st.happy_pairs or not st.sad_men:
            continue
        ref, removals = st, []
        while (hit := remove_happy_pair_once(ref)) is not None:
            ref, rows = hit
            removals.extend(rows)
        nxt, got = remove_happy_pair(st)
        assert got == tuple(removals)
        assert nxt == ref and K_STEP["remove_happy_pair"] == 0 and t_of(nxt, k) == t_of(ref, k)
        assert optima_of(nxt) == optima_of(ref)
        new, old = nxt, ref
        assert (new.sad_men, new.sad_women, new.happy_pairs) == (old.sad_men, old.sad_women, ())
        checked += 1
    assert checked >= 5


def test_rr6_batch_requires_sad_people():
    assert remove_happy_pair(sad_2x2()) is None
    with pytest.raises(NoSadPerson):
        remove_happy_pair(mutual_first_instance(2))


FACTS = ("mu_m", "mu_w", "o_m", "o_w", "sad_men", "sad_women", "happy_pairs")


def seeded(inst, **facts):
    """A copy of the instance that has the same derived facts, but for ``facts``."""
    copy = Instance(inst.men, inst.women, inst.m_rank, inst.w_rank, inst.target_k)
    vars(copy).update({name: getattr(inst, name) for name in FACTS}, **facts)
    return copy


def test_batches_raise_when_optima_move():
    st = sad_2x2()
    m1, m2 = range(2)  # indices, as the instance numbers its people
    w1, w2 = range(2)
    # Claiming the man-optimal matching is also woman-optimal makes each man
    # drop his second choice, and the real woman-optimal matching changes.
    stale = seeded(st, mu_w=st.mu_m)
    with pytest.raises(OptimaMoved):
        clean_suffix(stale)
    # (m1, w1) is not happy; removing it leaves (m2, w1) in mu_W without w1.
    fake = seeded(st, sad_men=(m2,), sad_women=(w2,), happy_pairs=((m1, w1),))
    with pytest.raises(OptimaMoved):
        remove_happy_pair(fake)
    # restrict_matched holds O_M and O_W: it drops the listless m3, and the
    # rebuilt instance's O_M is not the one claimed.
    lonely = parse_instance(SAD_2X2_TEXT.replace("men: m1 m2", "men: m1 m2 m3"))
    assert restrict_matched(lonely)[1] == ((Person("M", "m3"),),)
    with pytest.raises(OptimaMoved):
        restrict_matched(seeded(lonely, o_m=lonely.o_m + 1))


def test_rr8_batch_matches_repeated_single_shifts():
    checked = 0
    for inst in diff_instances(2204, 20):
        k = least_k(inst) + 3
        st = cleaned(inst)
        ref, ref_k, shifts, ts = st, k, [], []
        while (hit := shrink_once(ref)) is not None:
            nxt, rows = hit
            shifts.extend(rows)
            nxt_k = ref_k - K_STEP["shrink"] * len(rows)
            ts.append((ref_k, nxt_k, t_of(ref, ref_k), t_of(nxt, nxt_k)))
            ref, ref_k = nxt, nxt_k
        batch = shrink(st)
        if not shifts:
            assert batch is None
            continue
        nxt, got = batch
        assert got == tuple(shifts)
        nxt_k = k - K_STEP["shrink"] * len(got)
        assert nxt == ref and nxt_k == ref_k and optima_of(nxt) == optima_of(ref)
        assert nxt.prefs.ranks == ref.prefs.ranks
        assert ts == [(k - j, k - j - 1, t_of(st, k), t_of(st, k)) for j in range(len(shifts))]
        checked += 1
    assert checked >= 5


def test_kernelize_trace_matches_single_shifts(monkeypatch):
    single = tuple(
        (name, shrink_once if rule is shrink else rule, k_step) for name, rule, k_step in kernel.RULES
    )
    assert single != kernel.RULES

    decisions = shrinks = 0
    for inst in diff_instances(2205, 16, max_n=20):
        for k in (least_k(inst), least_k(inst) + 2, least_k(inst) + 6):
            batched = kernelize(inst, k)
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "RULES", single)
                one_by_one = kernelize(inst, k)
            assert batched == one_by_one
            decisions += 1
            shrinks += sum(step.rule == "shrink" for step in batched.trace.steps)
    assert decisions == 48 and shrinks >= 100


def test_rr8_batch_raises_when_optima_move():
    inst = functional_instance(
        {"m1": {"w1": 2, "w2": 3}, "m2": {"w2": 2, "w1": 3}},
        {"w1": {"m2": 2, "m1": 4}, "w2": {"m1": 2, "m2": 3}},
    )
    assert 8 - K_STEP["shrink"] * len(shrink(inst)[1]) == 6
    stale = seeded(inst, o_w=inst.o_w + 1)
    with pytest.raises(OptimaMoved):
        shrink(stale)


def test_kernelize_reruns_optima_a_few_times_per_decision(monkeypatch):
    # Each instance a rule builds runs deferred acceptance once for each
    # optimum; an outcome kept from an earlier decision builds none.
    calls = [0]
    real = kernel.Instance

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "Instance", counted)
    total_calls = total_drops = 0
    for inst in diff_instances(2203, 12):
        for k in (least_k(inst), least_k(inst) + 3):
            calls[0] = 0
            result = kernelize(inst, k)
            rules = Counter(step.rule for step in result.trace.steps)
            # One build per batch, one per single-step rebuild and one for
            # the dummies; the clean-suffix and happy-pair batches fire
            # again only after a single step, the shrink batch once at the end.
            singles = rules["restrict_matched"] + rules["truncate"]
            assert calls[0] <= 5 + 3 * singles
            total_calls += calls[0]
            total_drops += rules["clean_suffix"]
    assert total_calls <= 10 * 24
    assert total_drops > 10 * total_calls


def test_decisions_on_one_instance_share_its_k_free_rule_outcomes(monkeypatch):
    inst = random_instance(random.Random(125), 8, 8, 0.6)
    text = serialize(inst)
    low = least_k(inst)
    ks = list(range(low - 1, _balance(inst, inst.mu_m) + 1))
    shuffled = random.Random(5).sample(ks, len(ks))
    runs = []
    real = instance._deferred_acceptance

    def counted(*args):
        runs[-1] += 1
        return real(*args)

    monkeypatch.setattr(instance, "_deferred_acceptance", counted)
    fresh = {}
    for k in ks:
        runs.append(0)
        want = kernelize(parse_instance(text), k)
        want.kernel  # the padded kernel is built on first read: count it here
        fresh[k] = want, runs[-1]
    rules = {k: [e.rule for e in want.trace.entries] for k, (want, _) in fresh.items()}
    # Every k-free rule fires before any truncate on some k, and truncate fires on others.
    assert any({"remove_happy_pair", "shrink"} <= set(r) and "truncate" not in r for r in rules.values())
    assert any("truncate" in r for r in rules.values())
    assert fresh[low - 1][0].outcome == TRIVIAL_NO

    for order in (ks, ks[::-1], shuffled):
        one = parse_instance(text)
        untruncated = 0  # kernel decisions so far on which no truncate fired
        for i, k in enumerate(order):
            runs.append(0)
            got = kernelize(one, k)
            got.kernel  # in this decision's window too
            want, first_runs = fresh[k]
            assert (got.outcome, got.kernel, got.k, got.t_input, got.witness) == (
                want.outcome, want.kernel, want.k, want.t_input, want.witness
            )
            assert (got.removed_happy, got.dummy_men, got.dummy_women) == (
                want.removed_happy, want.dummy_men, want.dummy_women
            )
            assert got.trace.steps == want.trace.steps
            # Rule, rows, k before, k step and t before and after of every entry.
            assert got.trace.entries == want.trace.entries
            assert got == want
            # A later decision reuses every k-free outcome on the instances
            # it shares with earlier ones.  Decisions with no truncate share
            # all of theirs, so after the first such one the others build
            # only the padded kernel, whose t check runs both optima.
            assert runs[-1] == first_runs if i == 0 else runs[-1] < first_runs
            if "truncate" not in rules[k] and want.outcome == OUTCOME_KERNEL:
                assert untruncated == 0 or runs[-1] == 2
                untruncated += 1
        assert serialize(one) == text and parse_instance(text) == one


def test_each_k_free_rule_runs_once_per_instance_it_meets(monkeypatch):
    # Counters wrap the four k-free entries of the table, and every read
    # through ``_keep`` is logged.  Each order decides one freshly parsed
    # instance at every k of its range.  ``seen`` holds every instance a
    # counter or a read met, so no id is reused while the test runs.
    inst = random_instance(random.Random(125), 8, 8, 0.6)
    text = serialize(inst)
    ks = list(range(least_k(inst) - 1, _balance(inst, inst.mu_m) + 1))
    seen, runs, made, reads = [], Counter(), {}, []
    decision = [0]

    def counted(name, rule):
        def apply(one):
            seen.append(one)
            runs[name, id(one)] += 1
            made[name, id(one)] = decision[0], rule(one)
            return made[name, id(one)][1]
        return apply

    table = tuple(
        (name, rule if k_step is None else counted(name, rule), k_step) for name, rule, k_step in kernel.RULES
    )
    names = {rule: name for name, rule, k_step in table if k_step is not None}
    assert len(names) == 4
    real_keep = kernel._keep

    def logged(one, make):
        got = real_keep(one, make)
        seen.append(one)
        reads.append((decision[0], names[make], one, got))
        return got

    monkeypatch.setattr(kernel, "RULES", table)
    monkeypatch.setattr(kernel, "_keep", logged)
    for order in (ks, ks[::-1], random.Random(5).sample(ks, len(ks))):
        one = parse_instance(text)
        for k in order:
            decision[0] += 1
            kernelize(one, k)
    assert decision[0] == 3 * len(ks)
    assert runs and set(runs.values()) == {1}
    later = Counter()
    for when, name, one, got in reads:
        first, kept = made[name, id(one)]
        assert got is kept
        if when > first and got is not None:
            later[name] += 1
    # Every k-free rule applies on this instance, and later decisions read
    # back each one's kept outcome.
    assert set(later) == set(names.values())
    assert min(later.values()) >= len(ks)


def test_kept_outcomes_are_keyed_by_the_rule(monkeypatch):
    # Single-step references given to the table after a batched decision
    # must run on the same instance, not read the batch's kept outcomes,
    # so the traces below come from two computations.  Each decision gets
    # new references, which no earlier decision's kept outcome answers.
    references = {
        "clean_suffix": clean_suffix_once,
        "remove_happy_pair": remove_happy_pair_once,
        "shrink": shrink_once,
    }
    calls = Counter()

    def counted(name):
        def apply(inst):
            calls[name] += 1
            return references[name](inst)
        return apply

    checked = 0
    for inst in diff_instances(2206, 16, max_n=20):
        for k in (least_k(inst), least_k(inst) + 2, least_k(inst) + 6):
            batched = kernelize(inst, k)
            if not set(references) <= {e.rule for e in batched.trace.entries}:
                continue
            single = tuple(
                (name, counted(name) if name in references else rule, k_step)
                for name, rule, k_step in kernel.RULES
            )
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "RULES", single)
                assert kernelize(inst, k).trace == batched.trace
            assert all(calls[name] > 0 for name in references)
            checked += 1
    assert checked >= 5


# --- the integer instances against deferred acceptance on people -------------

def test_every_state_matches_the_optima_of_its_instance(monkeypatch):
    # The people-level extreme matchings of a fresh copy of each instance
    # the pipeline reads, and their costs by gs.objectives, are the slow
    # reference: every input, and every instance a rule or dummy insertion builds.
    instances = []
    real = kernel.Instance

    def recorded(*args):
        instances.append(real(*args))
        return instances[-1]

    monkeypatch.setattr(kernel, "Instance", recorded)
    rng = random.Random(8080)
    decisions = 0
    rules = Counter()
    for i in range(40):
        inst = sad_rich_instance(rng) if i % 2 else random_instance(rng, max_side=7)
        instances.append(inst)
        opt = optima(inst)
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            rules.update(step.rule for step in kernelize(inst, k).trace.steps)
            decisions += 1
    assert decisions >= 200
    assert set(rules) >= {name for name, _, _ in kernel.RULES} | {"add_dummies", "fill_gap"}

    for kin in instances:
        copy = Instance(kin.men, kin.women, kin.m_rank, kin.w_rank)  # nothing derived yet
        opt = optima(copy)
        by_m, by_w = opt.mu_m, opt.mu_w
        men, women = kin.men, kin.women
        assert (copy.men, copy.women) == (men, women)
        for mu, ref in ((kin.mu_m, by_m), (kin.mu_w, by_w)):
            assert {(men[m], women[w]) for m, w in enumerate(mu.by_man) if w >= 0} == ref.pairs
            assert {(men[m], women[w]) for w, m in enumerate(mu.by_woman) if m >= 0} == ref.pairs
        assert (kin.o_m, kin.o_w) == (objectives(copy, by_m).men_cost, objectives(copy, by_w).women_cost)
        pm, pw = partners(by_m), partners(by_w)
        assert [men[m] for m in kin.sad_men] == [m for m in men if pm.get(m) != pw.get(m)]
        assert [women[w] for w in kin.sad_women] == [w for w in women if pm.get(w) != pw.get(w)]
        assert [(men[m], women[w]) for m, w in kin.happy_pairs] == [
            (m, pm.get(m)) for m in men if pm.get(m) is not None and pm.get(m) == pw.get(m)
        ]
        for table in kin.m_rank + kin.w_rank:
            assert list(table.values()) == sorted(table.values())  # rank order, best first


def test_kernelize_names_people_only_in_its_result(monkeypatch):
    made = [0]
    real = Person.__new__

    def counted(cls, *args):
        made[0] += 1
        return real(cls, *args)

    monkeypatch.setattr(Person, "__new__", staticmethod(counted))
    outcomes = Counter()
    busiest = 0
    for inst in diff_instances(2206, 16, max_n=12):
        for k in range(least_k(inst) - 1, least_k(inst) + 6):
            made[0] = 0
            result = kernelize(inst, k)
            outcomes[result.outcome] += 1
            # The reduction makes nobody, however many rules fire.
            assert made[0] == 0
            if result.outcome == OUTCOME_KERNEL:
                # Reading the padded kernel makes the t dummy men and t dummy women.
                result.kernel
                assert made[0] == 2 * (result.k - result.functional_k) == len(result.dummy_men + result.dummy_women)
                busiest = max(busiest, len(result.trace.steps))
    assert min(outcomes[o] for o in (TRIVIAL_YES, TRIVIAL_NO, OUTCOME_KERNEL)) >= 5
    assert busiest >= 50


def test_lift_of_a_trivial_outcome_keeps_every_pair_and_adds_the_removed_happy_ones():
    # Without a kernel there are no dummies: lift drops no pair, not even
    # one of people from no instance.
    stranger = (Person(MAN, "zz"), Person(WOMAN, "zz"))
    lifted = 0
    for inst in diff_instances(2206, 16, max_n=12):
        mu = optima(inst).mu_m
        for k in range(least_k(inst) - 1, least_k(inst) + 6):
            result = kernelize(inst, k)
            if result.outcome == OUTCOME_KERNEL:
                continue
            assert result.functional is None and result.kernel is None
            removed = set(result.removed_happy)
            assert removed <= mu.pairs
            kept = Matching.of([p for p in mu.pairs if p not in removed] + [stranger])
            assert result.lift(kept) == Matching.of([*mu.pairs, stranger])
            lifted += bool(removed)
    assert lifted >= 10


@pytest.mark.parametrize("men, women, dummy_men, dummy_women", [
    pytest.param("x1 x2", "y1 y2", ["x1_", "x2_"], ["y1_", "y2_"], id="both-taken"),
    pytest.param("x1 x1_", "y2 w2", ["x1__", "x2"], ["y1", "y2_"], id="taken-twice"),
])
def test_dummies_skip_names_already_taken(men, women, dummy_men, dummy_women):
    # The sad 2x2 instance, renamed: t = 2 at k = 4, so two dummy pairs.
    (a, b), (c, d) = men.split(), women.split()
    text = f"men: {a} {b}\nwomen: {c} {d}\n{a}: {c} {d}\n{b}: {d} {c}\n{c}: {b} {a}\n{d}: {a} {b}\n"
    result = kernelize(parse_instance(text), 4)
    assert result.outcome == OUTCOME_KERNEL and result.k == 6
    assert [p.name for p in result.dummy_men] == dummy_men
    assert [p.name for p in result.dummy_women] == dummy_women
    assert parse_instance(serialize(result.kernel)) == result.kernel


def test_trace_rows_are_built_on_first_read_only(monkeypatch):
    built = []

    class Counted(kernel.TraceStep):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(kernel, "TraceStep", Counted)
    results = []
    for inst in diff_instances(1717, 12, max_n=20):
        for k in (least_k(inst), least_k(inst) + 2, least_k(inst) + 6):
            results.append(kernelize(inst, k))
            solve_above_min(inst, k)
    assert built == []
    rules = Counter()
    for result in results:
        before = len(built)
        steps = result.trace.steps
        assert len(built) - before == len(steps) == sum(len(e.rows) for e in result.trace.entries)
        assert result.trace.steps is steps and len(built) - before == len(steps)
        rules.update(step.rule for step in steps)
    assert set(rules) >= {"clean_suffix", "remove_happy_pair", "shrink", "add_dummies", "fill_gap", "bound_sad"}


def test_clean_suffix_rows_are_built_on_first_read_only(monkeypatch):
    built = []
    real_rows = kernel._suffix_rows

    def counted(*parts):
        built.append(real_rows(*parts))
        return built[-1]

    monkeypatch.setattr(kernel, "_suffix_rows", counted)
    results = []
    for inst in diff_instances(1719, 12, max_n=20):
        for k in (least_k(inst), least_k(inst) + 2, least_k(inst) + 6):
            results.append(kernelize(inst, k))
            solve_above_min(inst, k)
    assert built == []
    rows = 0
    for j, result in enumerate(results):
        before = len(built)
        read = "steps" if j % 2 else "entries"
        first = getattr(result.trace, read)
        made = [e.rows for e in result.trace.entries if e.rule == "clean_suffix"]
        assert built[before:] == made
        assert getattr(result.trace, read) is first and len(built) == before + len(made)
        rows += sum(map(len, made))
    assert rows >= 100


def test_a_decided_instance_is_freed_without_the_cyclic_collector():
    # The clean-suffix outcome kept with an instance holds a row maker; it
    # holds the tables and people, never the instance, so no cycle runs
    # back from the instance's store to the instance.
    was_enabled = gc.isenabled()
    gc.disable()
    kept = 0
    try:
        for seed, read in ((1720, False), (1721, True)):
            for inst in diff_instances(seed, 8, max_n=20):
                k = least_k(inst) + 2
                result = kernelize(inst, k)
                solve_above_min(inst, k)
                if read:
                    result.trace.steps
                kept += inst._store[clean_suffix] is not None
                ref = weakref.ref(inst)
                del inst
                assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    assert kept >= 8
