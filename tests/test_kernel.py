import dataclasses
import random
from collections import Counter

import pytest

from bsm import gs
from bsm.generate import mutual_first_instance, random_instance
from bsm.gs import blocking_pairs, objectives, optima
from bsm.instance import functional_to_lists, with_target
from bsm.kernel import (
    CONTINUE,
    OUTCOME_KERNEL,
    TRIVIAL_NO,
    TRIVIAL_YES,
    KernelState,
    NoSadPerson,
    OptimaMoved,
    _find_suffix_removal,
    _rr2_batch,
    _rr6,
    _rr6_batch,
    fill_gaps,
    kernelize,
    rr1_bound_check,
    rr2_clean_suffix,
    rr3_restrict_to_matched,
    rr4_bound_sad,
    rr5_no_sad,
    rr6_remove_happy_pair,
    rr7_truncate,
    rr8_shrink,
)
from bsm.oracle import decide_above_min, enumerate_stable
from helpers import empty_instance, functional_instance, sad_2x2


def state(inst, k):
    return KernelState.make(inst, k)


def names(people):
    return sorted(p.name for p in people)


def test_rr1_bound_check():
    inst = sad_2x2()
    assert rr1_bound_check(state(inst, 1)) == TRIVIAL_NO
    assert rr1_bound_check(state(inst, 4)) == CONTINUE
    assert rr1_bound_check(state(empty_instance(), 0)) == CONTINUE


def test_rr2_clean_suffix_removes_worst_pair():
    inst = functional_instance(
        {"m1": {"w1": 1, "w2": 2}, "m2": {"w2": 2}},
        {"w1": {"m1": 1}, "w2": {"m1": 1, "m2": 2}},
    )
    st0 = state(inst, 10)
    st1 = rr2_clean_suffix(st0)
    assert st1 is not None
    m1 = st1.inst.men[0]
    assert names(st1.inst.prefs.ranks[m1]) == ["w1"]
    # the stable set is untouched
    assert set(enumerate_stable(inst).matchings) == set(enumerate_stable(st1.inst).matchings)


def test_rr2_none_without_suffixes():
    assert rr2_clean_suffix(state(mutual_first_instance(3), 5)) is None


def test_rr2_exhaustion_preserves_stable_set():
    rng = random.Random(21)
    inst = random_instance(rng, 5, 5, density=0.8)
    st = state(inst, 50)
    while (nxt := rr2_clean_suffix(st)) is not None:
        st = nxt
    assert set(enumerate_stable(inst).matchings) == set(enumerate_stable(st.inst).matchings)


def test_rr2_exhaustion_cleans_prefixes_too():
    # After suffix cleaning, every surviving pair sits between both members'
    # optimal partners, and a happy person's list shrinks to their partner.
    rng = random.Random(77)
    for _ in range(15):
        inst = random_instance(rng, 6, 6, density=1.0)
        st = state(inst, 100)
        while (nxt := rr2_clean_suffix(st)) is not None:
            st = nxt
        opt = st.optima
        ranks = st.inst.prefs.ranks
        for m in st.inst.men:
            if m not in opt.mu_m.by_man:
                continue
            for w, r in ranks[m].items():
                assert ranks[m][opt.mu_m.by_man[m]] <= r <= ranks[m][opt.mu_w.by_man[m]]
                assert ranks[w][opt.mu_w.by_woman[w]] <= ranks[w][m] <= ranks[w][opt.mu_m.by_woman[w]]
        for m, w in st.happy_pairs:
            assert set(ranks[m]) == {w} and set(ranks[w]) == {m}


def test_rr3_removes_isolated_people():
    inst = functional_instance(
        {"m1": {"w1": 1}, "m2": {}},
        {"w1": {"m1": 1}},
    )
    st1 = rr3_restrict_to_matched(state(inst, 10))
    assert st1 is not None
    assert names(st1.inst.men) == ["m1"]
    assert rr3_restrict_to_matched(st1) is None


def test_rr3_preserves_stable_set_after_suffix_cleaning():
    rng = random.Random(8)
    for _ in range(20):
        inst = random_instance(rng, 4, 3, density=0.6)
        st = state(inst, 60)
        while (nxt := rr2_clean_suffix(st)) is not None:
            st = nxt
        cleaned = st
        restricted = rr3_restrict_to_matched(cleaned)
        if restricted is None:
            continue
        assert set(enumerate_stable(cleaned.inst).matchings) == set(
            enumerate_stable(restricted.inst).matchings
        )
        return
    pytest.skip("no instance with unmatched people in the sample")


def test_rr4_bound_sad():
    inst = sad_2x2()
    assert rr4_bound_sad(state(inst, 2)) == TRIVIAL_NO  # t = 0 but two sad men
    assert rr4_bound_sad(state(inst, 4)) == CONTINUE
    assert rr4_bound_sad(state(mutual_first_instance(3), 3)) == CONTINUE


def test_rr5_no_sad():
    three = mutual_first_instance(3)
    assert rr5_no_sad(state(three, 3)) == TRIVIAL_YES
    assert rr5_no_sad(state(three, 2)) == TRIVIAL_NO
    assert rr5_no_sad(state(sad_2x2(), 4)) is None


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
    st0 = state(inst, 6)
    assert [(m.name, w.name) for m, w in st0.happy_pairs] == [("m0", "w0")]
    st1 = rr6_remove_happy_pair(st0)
    assert st1 is not None
    assert names(st1.inst.men) == ["m1", "m2"]
    ranks = {p.name: {q.name: r for q, r in tbl.items()} for p, tbl in st1.inst.prefs.ranks.items()}
    # the first sad man and first sad woman each absorb the removed rank 1
    assert ranks["m1"] == {"w1": 2, "w2": 3}
    assert ranks["w1"] == {"m2": 2, "m1": 3}
    assert ranks["m2"] == {"w2": 1, "w1": 2}
    # the best achievable balance is preserved
    assert enumerate_stable(inst).bal_opt == enumerate_stable(st1.inst).bal_opt


def test_rr6_none_without_happy_pairs():
    assert rr6_remove_happy_pair(state(sad_2x2(), 4)) is None


def test_rr6_requires_sad_people():
    with pytest.raises(NoSadPerson):
        rr6_remove_happy_pair(state(mutual_first_instance(2), 5))


def test_rr7_truncates_over_threshold():
    inst = sad_2x2()
    st1 = rr7_truncate(state(inst, 2))  # k = O_M, so any man's rank-2 woman goes
    assert st1 is not None
    m1 = st1.inst.men[0]
    assert names(st1.inst.prefs.ranks[m1]) == ["w1"]
    assert rr7_truncate(state(inst, 50)) is None


def test_rr7_exhaustion_keeps_the_answer():
    rng = random.Random(31)
    tried = 0
    for _ in range(30):
        inst = random_instance(rng, 5, 5)
        bal = enumerate_stable(inst).bal_opt
        st = state(inst, bal)
        if rr1_bound_check(st) == TRIVIAL_NO:
            continue
        while (nxt := rr7_truncate(st)) is not None:
            st = nxt
        tried += 1
        assert enumerate_stable(st.inst).bal_opt == bal
    assert tried > 0


def test_rr8_shifts_one_man_and_one_woman():
    inst = functional_instance(
        {"m1": {"w1": 2, "w2": 3}, "m2": {"w2": 2, "w1": 3}},
        {"w1": {"m2": 2, "m1": 4}, "w2": {"m1": 2, "m2": 3}},
    )
    st0 = state(inst, 8)
    st1 = rr8_shrink(st0)
    assert st1 is not None
    assert st1.k == 7
    ranks = {p.name: {q.name: r for q, r in tbl.items()} for p, tbl in st1.inst.prefs.ranks.items()}
    assert ranks["m1"] == {"w1": 1, "w2": 2}
    assert ranks["w1"] == {"m2": 1, "m1": 3}
    assert ranks["m2"] == {"w2": 2, "w1": 3}  # untouched


def test_rr8_none_when_a_side_is_settled():
    assert rr8_shrink(state(sad_2x2(), 4)) is None


def test_rr8_keeps_the_stable_set_and_drops_best_balance_by_one():
    inst = functional_instance(
        {"m1": {"w1": 2, "w2": 3}, "m2": {"w2": 2, "w1": 3}},
        {"w1": {"m2": 2, "m1": 4}, "w2": {"m1": 2, "m2": 3}},
    )
    st1 = rr8_shrink(state(inst, 9))
    before = enumerate_stable(inst)
    after = enumerate_stable(st1.inst)
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
    st0 = state(inst, 6)
    assert st0.t == 4
    st1 = fill_gaps(st0)
    assert st1.k == 10
    assert len(st1.inst.men) == 6 and len(st1.inst.women) == 6
    listed = functional_to_lists(st1.inst)
    assert listed.contiguous
    # the rank-2 hole of each original person is plugged by a dummy
    m1 = st1.inst.men[0]
    filler = next(w for w, r in st1.inst.prefs.ranks[m1].items() if r == 2)
    assert filler not in inst.women and filler.name.startswith("y")
    # balance of the padded instance grows by exactly t
    assert enumerate_stable(st1.inst).bal_opt == enumerate_stable(inst).bal_opt + 4


def test_fill_gaps_without_gaps_adds_only_dummies():
    st0 = state(sad_2x2(), 4)
    st1 = fill_gaps(st0)
    assert st1.k == 6
    assert len(st1.inst.men) == 4
    for p in st1.inst.people:
        image = sorted(st1.inst.prefs.ranks[p].values())
        assert image == list(range(1, len(image) + 1))


def test_kernelize_2x2():
    result = kernelize(sad_2x2(), 4)
    assert result.outcome == OUTCOME_KERNEL
    t = result.k - min(optima(result.kernel).o_m, optima(result.kernel).o_w)
    assert t == 2 and t <= result.t_input
    assert len(result.kernel.men) <= 3 * t
    assert decide_above_min(result.kernel, result.k, limit=16).answer is True


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
                got = decide_above_min(result.kernel, result.k, limit=64).answer
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
                got = decide_above_min(result.kernel, result.k, limit=64).answer
            else:
                got = result.outcome == TRIVIAL_YES
            assert got == want
    assert kernels > 0


def test_kernelize_respects_target_on_instance():
    inst = with_target(sad_2x2(), None)
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
        ref = st = state(inst, k)
        drops = []
        while (hit := _find_suffix_removal(ref)) is not None:
            drops.append(hit)
            ref = rr2_clean_suffix(ref)
        batch = _rr2_batch(st)
        if not drops:
            assert batch is None
            continue
        nxt, got = batch
        assert got == drops
        assert nxt.inst == ref.inst and nxt.optima == ref.optima
        assert nxt.inst.prefs.ranks == ref.inst.prefs.ranks
        trace = kernelize(inst, k).trace.steps
        assert [(s.rule, s.affected) for s in trace[: len(drops)]] == [
            ("clean_suffix", pair) for pair in drops
        ]


def cleaned(st):
    """Exhaust the clean-suffix and restrict-to-matched rules, as kernelize does first."""
    while True:
        hit = _rr2_batch(st)
        if hit is not None:
            st = hit[0]
            continue
        nxt = rr3_restrict_to_matched(st)
        if nxt is None:
            return st
        st = nxt


def test_rr6_batch_matches_repeated_single_removals():
    checked = 0
    for inst in diff_instances(2202, 20):
        st = cleaned(state(inst, least_k(inst) + 2))
        if not st.happy_pairs or not st.sad_men:
            continue
        ref, removals = st, []
        while (hit := _rr6(ref)) is not None:
            ref, affected = hit
            removals.append(affected)
        nxt, got = _rr6_batch(st)
        assert got == removals
        assert nxt.inst == ref.inst and nxt.k == ref.k and nxt.t == ref.t
        assert nxt.optima == ref.optima
        assert (nxt.sad_men, nxt.sad_women, nxt.happy_pairs) == (ref.sad_men, ref.sad_women, ())
        checked += 1
    assert checked >= 5


def test_rr6_batch_requires_sad_people():
    assert _rr6_batch(state(sad_2x2(), 4)) is None
    with pytest.raises(NoSadPerson):
        _rr6_batch(state(mutual_first_instance(2), 5))


def test_batches_raise_when_optima_move():
    st = state(sad_2x2(), 4)
    m1, m2 = st.inst.men
    w1, w2 = st.inst.women
    # Claiming the man-optimal matching is also woman-optimal makes each man
    # drop his second choice, and the real woman-optimal matching changes.
    stale = dataclasses.replace(st, optima=dataclasses.replace(st.optima, mu_w=st.optima.mu_m))
    with pytest.raises(OptimaMoved):
        _rr2_batch(stale)
    # (m1, w1) is not happy; removing it leaves (m2, w1) in mu_W without w1.
    fake = dataclasses.replace(st, sad_men=(m2,), sad_women=(w2,), happy_pairs=((m1, w1),))
    with pytest.raises(OptimaMoved):
        _rr6_batch(fake)


def test_kernelize_reruns_optima_a_few_times_per_decision(monkeypatch):
    calls = [0]
    real = gs.optima

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(gs, "optima", counted)
    total_calls = total_drops = 0
    for inst in diff_instances(2203, 12):
        for k in (least_k(inst), least_k(inst) + 3):
            calls[0] = 0
            result = kernelize(inst, k)
            rules = Counter(step.rule for step in result.trace.steps)
            # One call to start, one per batch, one per single-step rebuild and
            # one for the dummies; a batch fires again only after a single step.
            singles = rules["restrict_matched"] + rules["truncate"] + rules["shrink"]
            assert calls[0] <= 4 + 3 * singles
            total_calls += calls[0]
            total_drops += rules["clean_suffix"]
    assert total_calls <= 10 * 24
    assert total_drops > 10 * total_calls
