import dataclasses
import random
from collections import Counter

import pytest

from bsm import gs, kernel
from bsm.generate import mutual_first_instance, random_instance
from bsm.gs import blocking_pairs, objectives, optima
from bsm.instance import Instance, Person, parse_instance, serialize
from bsm.kernel import (
    OUTCOME_KERNEL,
    TRIVIAL_NO,
    TRIVIAL_YES,
    KernelState,
    NoSadPerson,
    OptimaMoved,
    bound_check,
    bound_sad,
    clean_suffix,
    clean_suffix_once,
    fill_gaps,
    kernelize,
    no_sad,
    remove_happy_pair,
    remove_happy_pair_once,
    restrict_matched,
    shrink,
    shrink_once,
    truncate,
)
from bsm.oracle import decide_above_min, enumerate_stable
from helpers import empty_instance, functional_instance, sad_2x2, sad_rich_instance


def state(inst, k):
    return KernelState(inst, k)


def names(people):
    return sorted(p.name for p in people)


def optima_of(st):
    """Both stable optima of a state, as partner indices, with their costs."""
    return st.inst.mu_m, st.inst.mu_w, st.inst.o_m, st.inst.o_w


def step(rule, st):
    """The next state or verdict of one rule application, or None if the rule does not apply."""
    hit = rule(st)
    return None if hit is None else hit[0]


def test_rr1_bound_check():
    inst = sad_2x2()
    assert bound_check(state(inst, 1)) == (TRIVIAL_NO, [()])
    assert bound_check(state(inst, 4)) is None
    assert bound_check(state(empty_instance(), 0)) is None


def test_rr2_clean_suffix_removes_worst_pair():
    inst = functional_instance(
        {"m1": {"w1": 1, "w2": 2}, "m2": {"w2": 2}},
        {"w1": {"m1": 1}, "w2": {"m1": 1, "m2": 2}},
    )
    st0 = state(inst, 10)
    st1 = step(clean_suffix_once, st0)
    assert st1 is not None
    m1 = st1.inst.men[0]
    assert names(st1.inst.prefs.ranks[m1]) == ["w1"]
    # the stable set is untouched
    assert set(enumerate_stable(inst).matchings) == set(enumerate_stable(st1.inst).matchings)


def test_rr2_none_without_suffixes():
    assert clean_suffix_once(state(mutual_first_instance(3), 5)) is None


def test_rr2_exhaustion_preserves_stable_set():
    rng = random.Random(21)
    inst = random_instance(rng, 5, 5, density=0.8)
    st = state(inst, 50)
    while (nxt := step(clean_suffix_once, st)) is not None:
        st = nxt
    assert set(enumerate_stable(inst).matchings) == set(enumerate_stable(st.inst).matchings)


def test_rr2_exhaustion_cleans_prefixes_too():
    # After suffix cleaning, every surviving pair sits between both members'
    # optimal partners, and a happy person's list shrinks to their partner.
    rng = random.Random(77)
    for _ in range(15):
        inst = random_instance(rng, 6, 6, density=1.0)
        st = state(inst, 100)
        while (nxt := step(clean_suffix_once, st)) is not None:
            st = nxt
        kin = st.inst
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
    st1 = step(restrict_matched, state(inst, 10))
    assert st1 is not None
    assert names(st1.inst.men) == ["m1"]
    assert restrict_matched(st1) is None


def test_rr3_preserves_stable_set_after_suffix_cleaning():
    rng = random.Random(8)
    for _ in range(20):
        inst = random_instance(rng, 4, 3, density=0.6)
        st = state(inst, 60)
        while (nxt := step(clean_suffix_once, st)) is not None:
            st = nxt
        cleaned = st
        restricted = step(restrict_matched, cleaned)
        if restricted is None:
            continue
        assert set(enumerate_stable(cleaned.inst).matchings) == set(
            enumerate_stable(restricted.inst).matchings
        )
        return
    pytest.skip("no instance with unmatched people in the sample")


def test_rr4_bound_sad():
    inst = sad_2x2()
    assert bound_sad(state(inst, 2)) == (TRIVIAL_NO, [()])  # t = 0 but two sad men
    assert bound_sad(state(inst, 4)) is None
    assert bound_sad(state(mutual_first_instance(3), 3)) is None


def test_rr5_no_sad():
    three = mutual_first_instance(3)
    assert no_sad(state(three, 3)) == (TRIVIAL_YES, [()])
    assert no_sad(state(three, 2)) == (TRIVIAL_NO, [()])
    assert no_sad(state(sad_2x2(), 4)) is None


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
    kin = st0.inst
    assert [(kin.men[m].name, kin.women[w].name) for m, w in kin.happy_pairs] == [("m0", "w0")]
    st1 = step(remove_happy_pair_once, st0)
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
    assert remove_happy_pair_once(state(sad_2x2(), 4)) is None


def test_rr6_requires_sad_people():
    with pytest.raises(NoSadPerson):
        remove_happy_pair_once(state(mutual_first_instance(2), 5))


def test_rr7_truncates_over_threshold():
    inst = sad_2x2()
    st1 = step(truncate, state(inst, 2))  # k = O_M, so any man's rank-2 woman goes
    assert st1 is not None
    m1 = st1.inst.men[0]
    assert names(st1.inst.prefs.ranks[m1]) == ["w1"]
    assert truncate(state(inst, 50)) is None


def test_rr7_exhaustion_keeps_the_answer():
    rng = random.Random(31)
    tried = 0
    for _ in range(30):
        inst = random_instance(rng, 5, 5)
        bal = enumerate_stable(inst).bal_opt
        st = state(inst, bal)
        if bound_check(st) is not None:
            continue
        while (nxt := step(truncate, st)) is not None:
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
    st1 = step(shrink_once, st0)
    assert st1 is not None
    assert st1.k == 7
    ranks = {p.name: {q.name: r for q, r in tbl.items()} for p, tbl in st1.inst.prefs.ranks.items()}
    assert ranks["m1"] == {"w1": 1, "w2": 2}
    assert ranks["w1"] == {"m2": 1, "m1": 3}
    assert ranks["m2"] == {"w2": 2, "w1": 3}  # untouched


def test_rr8_none_when_a_side_is_settled():
    assert shrink_once(state(sad_2x2(), 4)) is None


def test_rr8_keeps_the_stable_set_and_drops_best_balance_by_one():
    inst = functional_instance(
        {"m1": {"w1": 2, "w2": 3}, "m2": {"w2": 2, "w1": 3}},
        {"w1": {"m2": 2, "m1": 4}, "w2": {"m1": 2, "m2": 3}},
    )
    st1 = step(shrink_once, state(inst, 9))
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
    st1 = fill_gaps(st0)[0]
    assert st1.k == 10
    assert len(st1.inst.men) == 6 and len(st1.inst.women) == 6
    assert st1.inst.contiguous
    # the rank-2 hole of each original person is plugged by a dummy
    m1 = st1.inst.men[0]
    filler = next(w for w, r in st1.inst.prefs.ranks[m1].items() if r == 2)
    assert filler not in inst.women and filler.name.startswith("y")
    # balance of the padded instance grows by exactly t
    assert enumerate_stable(st1.inst).bal_opt == enumerate_stable(inst).bal_opt + 4


def test_fill_gaps_without_gaps_adds_only_dummies():
    st0 = state(sad_2x2(), 4)
    st1 = fill_gaps(st0)[0]
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
        ref = st = state(inst, k)
        drops = []
        while (hit := clean_suffix_once(ref)) is not None:
            ref, rows = hit
            drops.extend(rows)
        batch = clean_suffix(st)
        if not drops:
            assert batch is None
            continue
        nxt, got = batch
        assert got == drops
        assert nxt.inst == ref.inst and optima_of(nxt) == optima_of(ref)
        assert nxt.inst.prefs.ranks == ref.inst.prefs.ranks
        trace = kernelize(inst, k).trace.steps
        assert [(s.rule, s.affected) for s in trace[: len(drops)]] == [
            ("clean_suffix", pair) for pair in drops
        ]


def cleaned(st):
    """Exhaust the clean-suffix and restrict-to-matched rules, as kernelize does first."""
    while True:
        nxt = step(clean_suffix, st) or step(restrict_matched, st)
        if nxt is None:
            return st
        st = nxt


def test_rr6_batch_matches_repeated_single_removals():
    checked = 0
    for inst in diff_instances(2202, 20):
        st = cleaned(state(inst, least_k(inst) + 2))
        if not st.inst.happy_pairs or not st.inst.sad_men:
            continue
        ref, removals = st, []
        while (hit := remove_happy_pair_once(ref)) is not None:
            ref, rows = hit
            removals.extend(rows)
        nxt, got = remove_happy_pair(st)
        assert got == removals
        assert nxt.inst == ref.inst and nxt.k == ref.k and nxt.t == ref.t
        assert optima_of(nxt) == optima_of(ref)
        new, old = nxt.inst, ref.inst
        assert (new.sad_men, new.sad_women, new.happy_pairs) == (old.sad_men, old.sad_women, ())
        checked += 1
    assert checked >= 5


def test_rr6_batch_requires_sad_people():
    assert remove_happy_pair(state(sad_2x2(), 4)) is None
    with pytest.raises(NoSadPerson):
        remove_happy_pair(state(mutual_first_instance(2), 5))


FACTS = ("mu_m", "mu_w", "o_m", "o_w", "sad_men", "sad_women", "happy_pairs")


def seeded(st, **facts):
    """The state on a copy of its instance that has the same derived facts, but for ``facts``."""
    inst = st.inst
    copy = Instance(inst.men, inst.women, inst.m_rank, inst.w_rank, inst.target_k)
    vars(copy).update({name: getattr(inst, name) for name in FACTS}, **facts)
    return KernelState(copy, st.k)


def test_batches_raise_when_optima_move():
    st = state(sad_2x2(), 4)
    m1, m2 = range(2)  # indices, as the state numbers its people
    w1, w2 = range(2)
    # Claiming the man-optimal matching is also woman-optimal makes each man
    # drop his second choice, and the real woman-optimal matching changes.
    stale = seeded(st, mu_w=st.inst.mu_m)
    with pytest.raises(OptimaMoved):
        clean_suffix(stale)
    # (m1, w1) is not happy; removing it leaves (m2, w1) in mu_W without w1.
    fake = seeded(st, sad_men=(m2,), sad_women=(w2,), happy_pairs=((m1, w1),))
    with pytest.raises(OptimaMoved):
        remove_happy_pair(fake)


def test_rr8_batch_matches_repeated_single_shifts():
    checked = 0
    for inst in diff_instances(2204, 20):
        st = cleaned(state(inst, least_k(inst) + 3))
        ref, shifts, ts = st, [], []
        while (hit := shrink_once(ref)) is not None:
            nxt, rows = hit
            shifts.extend(rows)
            ts.append((ref.k, nxt.k, ref.t, nxt.t))
            ref = nxt
        batch = shrink(st)
        if not shifts:
            assert batch is None
            continue
        nxt, got = batch
        assert got == shifts
        assert nxt.inst == ref.inst and nxt.k == ref.k and optima_of(nxt) == optima_of(ref)
        assert nxt.inst.prefs.ranks == ref.inst.prefs.ranks
        assert ts == [(st.k - j, st.k - j - 1, st.t, st.t) for j in range(len(shifts))]
        checked += 1
    assert checked >= 5


def test_kernelize_trace_matches_single_shifts(monkeypatch):
    single = tuple((name, shrink_once if rule is shrink else rule) for name, rule in kernel.RULES)
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
    st = state(inst, 8)
    assert shrink(st)[0].k == 6
    stale = seeded(st, o_w=st.inst.o_w + 1)
    with pytest.raises(OptimaMoved):
        shrink(stale)


def test_kernelize_reruns_optima_a_few_times_per_decision(monkeypatch):
    # Each state a rule builds has a new instance, which runs deferred
    # acceptance once for each optimum.
    calls = [0]
    real = kernel.KernelState

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "KernelState", counted)
    total_calls = total_drops = 0
    for inst in diff_instances(2203, 12):
        for k in (least_k(inst), least_k(inst) + 3):
            calls[0] = 0
            result = kernelize(inst, k)
            rules = Counter(step.rule for step in result.trace.steps)
            # One call to start, one per batch, one per single-step rebuild and
            # one for the dummies; the clean-suffix and happy-pair batches fire
            # again only after a single step, the shrink batch once at the end.
            singles = rules["restrict_matched"] + rules["truncate"]
            assert calls[0] <= 5 + 3 * singles
            total_calls += calls[0]
            total_drops += rules["clean_suffix"]
    assert total_calls <= 10 * 24
    assert total_drops > 10 * total_calls


# --- the integer state against deferred acceptance on people ----------------

def test_every_state_matches_the_optima_of_its_instance(monkeypatch):
    # The people-level extreme matchings of a fresh copy of each state's
    # instance, and their costs by gs.objectives, are the slow reference.
    states = []
    real = kernel.KernelState

    def recorded(*args):
        states.append(real(*args))
        return states[-1]

    monkeypatch.setattr(kernel, "KernelState", recorded)
    rng = random.Random(8080)
    decisions = 0
    rules = Counter()
    for i in range(40):
        inst = sad_rich_instance(rng) if i % 2 else random_instance(rng, max_side=7)
        opt = optima(inst)
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            rules.update(step.rule for step in kernelize(inst, k).trace.steps)
            decisions += 1
    assert decisions >= 200
    assert set(rules) >= {name for name, _ in kernel.RULES} | {"add_dummies", "fill_gap"}

    for kin in (st.inst for st in states):
        copy = Instance(kin.men, kin.women, kin.m_rank, kin.w_rank)  # nothing derived yet
        by_m, by_w = gs.man_optimal(copy), gs.woman_optimal(copy)
        men, women = kin.men, kin.women
        assert (copy.men, copy.women) == (men, women)
        for mu, ref in ((kin.mu_m, by_m), (kin.mu_w, by_w)):
            assert {(men[m], women[w]) for m, w in enumerate(mu.by_man) if w >= 0} == ref.pairs
            assert {(men[m], women[w]) for w, m in enumerate(mu.by_woman) if m >= 0} == ref.pairs
        assert (kin.o_m, kin.o_w) == (objectives(copy, by_m).men_cost, objectives(copy, by_w).women_cost)
        assert [men[m] for m in kin.sad_men] == [m for m in men if by_m.partner(m) != by_w.partner(m)]
        assert [women[w] for w in kin.sad_women] == [
            w for w in women if by_m.partner(w) != by_w.partner(w)
        ]
        assert [(men[m], women[w]) for m, w in kin.happy_pairs] == [
            (m, by_m.partner(m)) for m in men
            if by_m.partner(m) is not None and by_m.partner(m) == by_w.partner(m)
        ]
        for table in kin.m_rank + kin.w_rank:
            assert list(table.values()) == sorted(table.values())  # rank order, best first


def test_kernelize_names_people_only_in_its_result(monkeypatch):
    made = [0]
    real = Person.__post_init__

    def counted(self):
        made[0] += 1
        real(self)

    monkeypatch.setattr(Person, "__post_init__", counted)
    outcomes = Counter()
    busiest = 0
    for inst in diff_instances(2206, 16, max_n=12):
        for k in range(least_k(inst) - 1, least_k(inst) + 6):
            made[0] = 0
            result = kernelize(inst, k)
            outcomes[result.outcome] += 1
            if result.outcome == OUTCOME_KERNEL:
                # Only the t dummy men and t dummy women, however many rules fire.
                assert made[0] == 2 * (result.k - result.functional_k) == len(result.dummy_men + result.dummy_women)
                busiest = max(busiest, len(result.trace.steps))
            else:
                assert made[0] == 0
    assert min(outcomes[o] for o in (TRIVIAL_YES, TRIVIAL_NO, OUTCOME_KERNEL)) >= 5
    assert busiest >= 50


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
