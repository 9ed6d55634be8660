import gc
import random
import tracemalloc
import weakref
from itertools import combinations, islice
from types import GeneratorType

import pytest

from bsm import fpt, gs, kernel
from bsm.fpt import _Context, _first_accepted, solve_above_min
from bsm.generate import (
    cyclic_instance, mutual_first_instance, planted_instance, random_graph, random_instance,
)
from bsm.gs import blocking_pairs, objectives, optima
from bsm.hardness import Graph, verify_reduction
from bsm.instance import (
    MAN, WOMAN, Instance, Matching, Partners, Person, ValidationError, make_instance, parse_instance,
    serialize,
)
from bsm.kernel import OUTCOME_KERNEL, kernelize
from bsm.oracle import (
    DEFAULT_MAX_MEN, _chain, _closed_sets, _least_balance, decide_above_min, enumerate_stable,
)
from helpers import (
    BranchCertificate,
    assemble,
    component_least_balance,
    crossed_planted_instance,
    enumerate_certificates,
    functional_instance,
    iter_certificates,
    loaded,
    naive_certificates,
    pool_entries,
    reference_contiguous,
    reference_tables,
    sad_2x2,
    sad_rich_instance,
    swapped,
)


def anchored_instance():
    """m0's optimal partner is w0; w1, w2, w3 sit strictly below at offsets 1..3."""
    text = """
men: m0 m1 m2 m3
women: w0 w1 w2 w3
m0: w0 w1 w2 w3
m1: w1 w0
m2: w2 w0
m3: w3 w0
w0: m0 m1 m2 m3
w1: m1 m0
w2: m2 m0
w3: m3 m0
"""
    return parse_instance(text)


def test_certificates_single_man():
    inst = anchored_instance()
    m0 = inst.men[0]
    certs = enumerate_certificates(inst, [m0], 2)
    assert sorted(c.cost for c in certs) == [1, 2]
    women = {c.pairs[0][1].name for c in certs}
    assert women == {"w1", "w2"}


def test_certificates_empty_selection():
    inst = anchored_instance()
    assert enumerate_certificates(inst, [], 0) == [BranchCertificate((), 0)]
    assert enumerate_certificates(inst, [], -1) == []


def test_certificates_budget_too_small_for_two_men():
    text = """
men: m1 m2
women: w1 w2 w3 w4
m1: w1 w3
m2: w2 w4
w1: m1
w2: m2
w3: m1
w4: m2
"""
    inst = parse_instance(text)
    assert enumerate_certificates(inst, list(inst.men), 1) == []
    assert len(enumerate_certificates(inst, list(inst.men), 2)) == 1


def test_certificates_match_brute_force():
    rng = random.Random(13)
    compared = 0
    for _ in range(25):
        inst = sad_rich_instance(rng)
        opt = optima(inst)
        result = kernelize(inst, max(opt.o_m, opt.o_w) + rng.randint(0, 4))
        if result.outcome != OUTCOME_KERNEL:
            continue
        kin = result.kernel
        kopt = optima(kin)
        sad = [m for m in kin.men if kopt.mu_m.by_man.get(m) != kopt.mu_w.by_man.get(m)]
        r = result.k - kopt.o_m
        for size in range(min(4, len(sad)) + 1):
            m_prime = sad[:size]
            got = {frozenset(c.pairs) for c in enumerate_certificates(kin, m_prime, r)}
            want = naive_certificates(kin, m_prime, r)
            assert got == want
            compared += 1
    assert compared > 10


def people(st, by_man):
    """The matching of a partner array over the state's people; None stays None."""
    if by_man is None:
        return None
    return Matching.of((st.men[m], st.women[w]) for m, w in enumerate(by_man) if w >= 0)


def test_assemble_2x2_kernel():
    result = kernelize(sad_2x2(), 4)
    kin = result.kernel
    kopt = optima(kin)
    sad = [m for m in kin.men if kopt.mu_m.by_man.get(m) != kopt.mu_w.by_man.get(m)]
    assert len(sad) == 2
    ctx = _Context(result.kernel, result.k)
    st = ctx.inst
    m_prime = tuple(st.men.index(m) for m in sad)
    # both men move to their second choices: the woman-optimal matching
    women = tuple(st.mu_w.by_man[m] for m in m_prime)
    mu = people(st, assemble(ctx, m_prime, women))
    assert mu is not None
    assert result.lift(mu) == optima(sad_2x2()).mu_w

    # the empty certificate assembles the man-optimal matching
    mu0 = people(st, assemble(ctx, (), ()))
    assert mu0 == kopt.mu_m
    assert objectives(kin, mu0).balance <= result.k

    # a certificate aiming two men at one woman is rejected
    clash = (women[0], women[0])
    assert assemble(ctx, m_prime, clash) is None


def test_solve_examples():
    inst = sad_2x2()
    yes = solve_above_min(inst, 4)
    assert yes.answer and yes.t == 2
    assert objectives(inst, yes.witness).balance == 4
    assert not blocking_pairs(inst, yes.witness)

    no = solve_above_min(inst, 3)
    assert not no.answer and no.witness is None

    short_circuit = solve_above_min(inst, 1)
    assert not short_circuit.answer
    assert short_circuit.stats.subsets_tried == 0
    assert short_circuit.stats.branch_nodes == 0

    trivial_yes = solve_above_min(mutual_first_instance(3), 3)
    assert trivial_yes.answer and trivial_yes.stats.subsets_tried == 0


def test_solver_bounds_hold():
    rng = random.Random(55)
    for _ in range(25):
        inst = sad_rich_instance(rng)
        opt = optima(inst)
        for k in (max(opt.o_m, opt.o_w), enumerate_stable(inst).bal_opt - 1):
            result = solve_above_min(inst, k)
            if result.r is None:
                continue
            kres = result.kernel
            kopt = optima(kres.kernel)
            sad = sum(
                1 for m in kres.kernel.men
                if kopt.mu_m.by_man.get(m) != kopt.mu_w.by_man.get(m)
            )
            assert result.stats.subsets_tried <= 2 ** sad
            assert result.stats.max_branch_nodes <= 4 * 2 ** result.r


def test_solver_agrees_with_oracle():
    rng = random.Random(2024)
    for _ in range(120):
        inst = random_instance(rng, max_side=6)
        opt = optima(inst)
        bal = enumerate_stable(inst).bal_opt
        for k in (max(opt.o_m, opt.o_w) - 1, bal - 1, bal, opt.o_m + opt.o_w):
            want = decide_above_min(inst, k).answer
            got = solve_above_min(inst, k)
            assert want == got.answer
            if got.answer:
                assert not blocking_pairs(inst, got.witness)
                assert objectives(inst, got.witness).balance <= k


def test_witness_is_lifted_to_the_input_instance():
    rng = random.Random(31415)
    lifted = 0
    for _ in range(25):
        inst = sad_rich_instance(rng)
        bal = enumerate_stable(inst).bal_opt
        result = solve_above_min(inst, bal)
        assert result.answer
        people = set(inst.people)
        assert {p for pair in result.witness.pairs for p in pair} <= people
        if result.stats.subsets_tried > 0:
            lifted += 1
    assert lifted > 0


# --- the extreme matchings against the kernel path --------------------------

def test_extreme_matchings_decide_as_the_kernel_path_does():
    # Every k from max(O_M, O_W) - 1 to O_M + O_W on the first 200 corpus
    # instances, and full lists at n = 12..24 at max(O_M, O_W) + {0, 2, 5}.
    rng = random.Random(20240807)
    cases = []
    for inst in [random_instance(rng, max_side=7) for _ in range(200)]:
        cases += [(inst, k) for k in range(max(inst.o_m, inst.o_w) - 1, inst.o_m + inst.o_w + 1)]
    rng = random.Random(20240808)
    for inst in [random_instance(rng, n, n, 1.0) for n in (12, 16, 20, 24) for _ in range(6)]:
        cases += [(inst, max(inst.o_m, inst.o_w) + d) for d in (0, 2, 5)]
    decided = {True: 0, False: 0}  # by whether an extreme matching decided
    for inst, k in cases:
        got, slow = solve_above_min(inst, k), fpt._solve_on_kernel(inst, k)
        assert (got.answer, got.t) == (slow.answer, slow.t)
        decided[got.kernel is None] += 1
        if got.kernel is None:
            assert got.witness in (optima(inst).mu_m, optima(inst).mu_w)
            assert not blocking_pairs(inst, got.witness)
            assert objectives(inst, got.witness).balance <= k
            assert (got.answer, got.r, got.stats) == (True, None, fpt.SolveStats(0, 0, 0))
    assert decided[True] >= 750 and decided[False] >= 250


def test_a_decision_an_extreme_matching_settles_keeps_nothing():
    # At every k from the lower extreme balance to one past the upper, μ_M
    # or μ_W answers before anything is kernelized, so a freshly parsed
    # instance decided at all of them in turn never makes a store.
    rng = random.Random(20240807)
    texts = [serialize(random_instance(rng, max_side=7)) for _ in range(200)]
    texts += [serialize(random_instance(random.Random(seed), n, n, 1.0)) for n, seed, *_ in pool_entries()]
    decided = 0
    for text in texts:
        inst = parse_instance(text)
        balances = [fpt._balance(inst, mu) for mu in (inst.mu_m, inst.mu_w)]
        for k in range(min(balances), max(balances) + 2):
            result = solve_above_min(inst, k)
            assert (result.answer, result.kernel) == (True, None)
            assert "_store" not in vars(inst)
            decided += 1
    assert decided >= 750


def test_gap_ranked_input_is_refused_at_any_k():
    # μ_M's balance is 1, yet the check for list form comes first.
    gapped = functional_instance({"m1": {"w1": 1, "w2": 3}}, {"w1": {"m1": 1}, "w2": {"m1": 1}})
    with pytest.raises(ValidationError, match="gaps in its ranks"):
        solve_above_min(gapped, 10**20)


# --- the pruned search against the unpruned reference -----------------------

def search_kernels(corpus: int = 150):
    """Seeded kernels that branch: ``corpus`` corpus draws at every k, full lists n=9..12."""
    rng = random.Random(20240807)
    draws = [random_instance(rng, max_side=7) for _ in range(corpus)]
    rng = random.Random(7)
    draws += [random_instance(rng, n, n, 1.0) for n in (9, 10, 11, 12) for _ in range(2)]
    for inst in draws:
        opt = optima(inst)
        top = objectives(inst, opt.mu_m).balance
        for k in range(max(opt.o_m, opt.o_w), top + 1, 1 if len(inst.men) <= 7 else 3):
            result = kernelize(inst, k)
            if result.outcome != OUTCOME_KERNEL:
                continue
            ctx = _Context(result.kernel, result.k)
            if ctx.inst.sad_men:
                yield inst, k, result, ctx, result.k - ctx.inst.o_m


def busy_women(ctx, selected):
    """Women of the happy pairs and the man-optimal partners of unselected sad men."""
    st = ctx.inst
    return {w for _, w in st.happy_pairs} | {
        st.mu_m.by_man[m] for m in st.sad_men if m not in selected
    }


def injective(women, busy) -> bool:
    """No two men share a woman and none takes a busy one."""
    return len(set(women)) == len(women) and not set(women) & busy


def run(ctx, m_prime, r):
    """Each unpruned certificate with the node count when it came out, and the final count."""
    counter = [0]
    out = [(c, counter[0]) for c in iter_certificates(ctx, m_prime, r, counter)]
    return out, counter[0]


def reference_first_accepted(ctx, m_prime, r):
    """The matching of the unpruned search's first certificate that
    ``_accept`` accepts, or None, and the unpruned nodes up to it."""
    counter = [0]
    for women, _ in iter_certificates(ctx, m_prime, r, counter):
        hit = assemble(ctx, m_prime, women)
        if hit is not None:
            return hit, counter[0]
    return None, counter[0]


def cut_kernels():
    """Kernels with more sad men and free women than those of ``search_kernels``.

    The 6x6 cyclic instance at its least balance, two instances of
    ``perfbench/optimize_pool.json`` (n = 9, seed 52 and n = 12, seed 285)
    at the balance of μ_M, and a full list of 11 on which a search that
    left a backtracked man fixed at his last woman accepts another first
    certificate.
    """
    draws = [(cyclic_instance(6), 24)] + [
        (random_instance(random.Random(seed), n, n, 1.0), k)
        for n, seed, k in ((9, 52, 35), (12, 285, 57), (11, 315, 48))
    ]
    for inst, k in draws:
        result = kernelize(inst, k)
        ctx = _Context(result.kernel, result.k)
        yield result, ctx, result.k - ctx.inst.o_m


def check_first_accepted(ctx, m_prime, r):
    """``_first_accepted`` against the unpruned reference: the same matching,
    in no more nodes.  Returns the reference's answer."""
    st = ctx.inst
    want = reference_first_accepted(ctx, m_prime, r)
    hit, nodes = _first_accepted(ctx, m_prime)
    assert hit == want[0]
    assert 1 <= nodes <= want[1]
    # The partner arrays are back at μ_M for the next subset.
    assert (ctx.wife, ctx.husband) == (list(st.mu_m.by_man), list(st.mu_m.by_woman))
    return want


def test_pruned_search_finds_the_unpruned_first_certificate_within_its_node_count():
    kernels = subsets = accepted = 0
    for *_, ctx, r in search_kernels():
        kernels += 1
        st = ctx.inst
        for size in range(len(st.sad_men) + 1):
            for m_prime in combinations(st.sad_men, size):
                want = check_first_accepted(ctx, m_prime, r)
                men = [st.men[m] for m in m_prime]
                assert enumerate_certificates(st, men, r) == [
                    BranchCertificate(tuple(zip(men, (st.women[w] for w in women))), cost)
                    for (women, cost), _ in run(ctx, m_prime, r)[0]
                ]
                subsets += 1
                accepted += want[0] is not None
    assert kernels >= 30 and subsets >= 1000 and accepted >= 50


def test_pruned_search_finds_the_unpruned_first_certificate_on_cut_heavy_kernels():
    subsets = accepted = 0
    for _, ctx, r in cut_kernels():
        st = ctx.inst
        assert len(st.sad_men) >= 6
        for size in range(len(st.sad_men) + 1):
            for m_prime in combinations(st.sad_men, size):
                accepted += check_first_accepted(ctx, m_prime, r)[0] is not None
                subsets += 1
    assert subsets == 64 + 128 + 64 + 128 and accepted >= 10


def search_and_cut_kernels():
    """Every context of ``search_kernels`` and ``cut_kernels``, with its budget."""
    for *_, ctx, r in search_kernels():
        yield ctx, r
    for _, ctx, r in cut_kernels():
        yield ctx, r


def test_the_functional_kernel_branches_as_the_padded_kernel_does():
    # The padded kernel of the helpers above is the reference.  Its t dummy
    # pairs come after the real people, so every sad man keeps his index; a
    # dummy woman, held by her dummy man whom she ranks first, is skipped
    # without a node and only adds dummy men, who hold no bit, to start sets.
    kernels = subsets = accepted = 0
    contexts = [(result, ctx) for _, _, result, ctx, _ in search_kernels()]
    contexts += [(result, ctx) for result, ctx, _ in cut_kernels()]
    for result, padded in contexts:
        fun = _Context(result.functional, result.functional_k)
        assert padded.inst.men[len(fun.inst.men):] == result.dummy_men
        assert (fun.r, fun.inst.sad_men) == (padded.r, padded.inst.sad_men)
        assert fun.needs == padded.needs
        for size in range(len(fun.inst.sad_men) + 1):
            for m_prime in combinations(fun.inst.sad_men, size):
                lifted = []
                for ctx in (fun, padded):
                    hit, nodes = _first_accepted(ctx, m_prime)
                    lifted.append((None if hit is None else result.lift(people(ctx.inst, hit)), nodes))
                assert lifted[0] == lifted[1]
                subsets += 1
                accepted += lifted[0][0] is not None
        kernels += 1
    assert kernels >= 30 and subsets >= 1000 and accepted >= 50


def test_a_decision_pads_no_kernel(monkeypatch):
    def refuse(inst, k):
        raise AssertionError("a decision padded its kernel")

    rng = random.Random(3)
    cases = []
    for _ in range(30):
        inst = sad_rich_instance(rng)
        cases += [(inst, k) for k in range(max(inst.o_m, inst.o_w), inst.o_m + inst.o_w + 1)]
    want = [solve_above_min(inst, k) for inst, k in cases]
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "fill_gaps", refuse)
        got = [solve_above_min(inst, k) for inst, k in cases]
    branched = {True: 0, False: 0}
    for a, b in zip(want, got):
        assert (b.answer, b.witness, b.t, b.r, b.stats) == (a.answer, a.witness, a.t, a.r, a.stats)
        if b.stats.subsets_tried:
            branched[b.answer] += 1
    assert branched[True] >= 5 and branched[False] >= 5

    # Reading the padded kernel, its trace and its dummies pads it once.
    real = kernel.fill_gaps
    calls = []

    def counted(inst, k):
        calls.append((inst, k))
        return real(inst, k)

    monkeypatch.setattr(kernel, "fill_gaps", counted)
    padded = 0
    for (inst, k), result in zip(cases, got):
        kres = result.kernel
        if kres is None or kres.outcome != OUTCOME_KERNEL:
            continue
        calls.clear()
        read = (kres.kernel, kres.k, kres.trace, kres.dummy_men, kres.dummy_women)
        assert kres.kernel is read[0] and kres.trace is read[2] and len(calls) == 1
        fresh = kernelize(parse_instance(serialize(inst)), k)
        assert read == (fresh.kernel, fresh.k, fresh.trace, fresh.dummy_men, fresh.dummy_women)
        padded += 1
    assert padded >= 10


def cut(ctx, m_prime) -> bool:
    """Whether a selected man's start set or claimers miss every selected man."""
    sad = ctx.inst.sad_men
    chosen = sum(1 << sad.index(m) for m in m_prime)
    return any(not need & chosen for m in m_prime for need in ctx.needs[sad.index(m)])


def as_tuple(sad, subset: int) -> tuple[int, ...]:
    """The sad men ``sad`` whose bits ``subset`` holds, in order."""
    return tuple(m for i, m in enumerate(sad) if subset >> i & 1)


def listed(ctx) -> list[tuple[int, ...]]:
    """The subsets ``_live`` lists for the context, as tuples of sad men, in its order."""
    return [as_tuple(ctx.inst.sad_men, subset) for subset in fpt._live(ctx.needs)]


def test_start_sets_skip_only_subsets_whose_walk_ends_at_the_root():
    # A cut subset has no hit and is left out of the listing, so the solver
    # never walks it; every other subset is listed.
    subsets = decided = 0
    for ctx, _ in search_and_cut_kernels():
        st = ctx.inst
        live = set(listed(ctx))
        for size in range(len(st.sad_men) + 1):
            for m_prime in combinations(st.sad_men, size):
                if cut(ctx, m_prime):
                    assert _first_accepted(ctx, m_prime)[0] is None and m_prime not in live
                    decided += 1
                else:
                    assert m_prime in live
                subsets += 1
    assert subsets >= 1000 and decided >= 0.5 * subsets


def test_a_man_who_meets_a_woman_single_in_mu_m_is_never_skipped():
    # Not a kernel: w2 is single in μ_M and sits first in m0's worse list.
    # μ_W is seeded with a matching in which both men move, so both are sad.
    inst = parse_instance("""
men: m0 m1
women: w0 w1 w2
m0: w0 w2 w1
m1: w1 w0
w0: m1 m0
w1: m0 m1
w2: m0
""")
    assert inst.mu_m.by_man == [0, 1] and inst.mu_m.by_woman[2] == -1
    vars(inst)["mu_w"] = Partners([1, 0], [1, 0, -1])
    ctx = _Context(inst, 4)
    assert ctx.inst.sad_men == (0, 1) and ctx.worse[0][0] == (1, 2)
    # Only m1 can take w0 from m0, and only m0 can take w1 from m1, so
    # (m0,) is cut: nobody claims w0.  m0 has no start set; m1's is {m0}.
    # Sad man i holds bit i: m0 bit 0b01, m1 bit 0b10.
    assert ctx.needs == [[0b10], [0b01, 0b01]]
    for size in range(3):
        for m_prime in combinations(ctx.inst.sad_men, size):
            check_first_accepted(ctx, m_prime, ctx.r)
            chosen = sum(1 << m for m in m_prime)
            if m_prime[:1] == (0,) and all(ctx.needs[m][0] & chosen for m in m_prime):
                assert _first_accepted(ctx, m_prime)[1] > 1  # m0 takes w2 at the root: no skip
    live = listed(ctx)
    assert _first_accepted(ctx, (0,))[0] is None and (0,) not in live
    assert live == [(), (0, 1)]


def engine_contexts():
    """Each context of ``search_and_cut_kernels`` and the functional kernel's
    at every k the solver branches at on cyclic 6 and 8 and four instances
    of ``perfbench/optimize_pool.json``, with the largest budget at which
    its cut subsets' unpruned trees are walked (None for any).  On cyclic 8
    those trees pass 150,000 nodes from r = 11 on."""
    for ctx, _ in search_and_cut_kernels():
        yield ctx, None
    draws = [(cyclic_instance(6), None), (cyclic_instance(8), 10)] + [
        (random_instance(random.Random(seed), n, n, 1.0), None)
        for n, seed in ((9, 52), (9, 173), (10, 16), (12, 285))
    ]
    for inst, walk_up_to in draws:
        low = max(inst.o_m, inst.o_w)
        high = min(fpt._balance(inst, mu) for mu in (inst.mu_m, inst.mu_w))
        for k in range(low, high):
            result = kernelize(inst, k)
            if result.outcome == OUTCOME_KERNEL:
                ctx = _Context(result.functional, result.functional_k)
                if ctx.r >= 0:
                    yield ctx, walk_up_to


def test_contiguous_is_the_largest_rank_test_on_every_engine_kernel():
    # Each kernel table is stored in rank order, so its last rank is its largest.
    kernels = gapped = 0
    for ctx, _ in engine_contexts():
        assert ctx.inst.contiguous == reference_contiguous(ctx.inst)
        kernels += 1
        gapped += not ctx.inst.contiguous
    assert 0 < gapped < kernels


def covers(kept, need) -> bool:
    """Whether every selection that meets each of a sad man's ``need``
    masks (``[claim]`` or ``[claim, start]``) meets each of his ``kept``
    ones: each kept mask holds the one it stands for, and a kept start set
    is present only where ``need`` has one."""
    claim, *start = kept
    need_claim, *need_start = need
    if need_claim & ~claim:
        return False
    return not start or bool(need_start) and not need_start[0] & ~start[0]


def test_the_kept_needs_cut_no_subset_the_needs_at_any_budget_keep():
    # Contexts at other k on the same kernel fill its store first; every
    # context shares the kernel's tables, its worse tables are the ones
    # walked from scratch at its own budget, and each kept need, read at
    # r = ∞, holds the one read at that budget or is None against it.  The
    # budgets run, shuffled, from -1 past the kernel's largest rank offset,
    # so the budget binds below it.
    rng = random.Random(31)
    contexts = budgets = weaker = 0
    for ctx, _ in engine_contexts():
        kernel_ = ctx.inst
        top = max((offset for worse in ctx.worse for offset, _ in worse), default=0)
        for r in rng.sample(range(-1, top + 2), top + 3):
            other = _Context(kernel_, kernel_.o_m + r)
            _, worse, needs = reference_tables(kernel_, other.k)
            assert other.worse == worse
            assert other.worse is ctx.worse and other.needs is ctx.needs
            assert len(other.needs) == len(needs)
            assert all(covers(kept, need) for kept, need in zip(other.needs, needs))
            weaker += other.needs != needs
            budgets += 1
        contexts += 1
    assert contexts >= 150 and budgets >= 1500 and weaker >= 1000


def test_the_cuts_keep_every_stable_matching_within_the_budget():
    # The rotation engine lists every stable matching of the kernel.  The men
    # one of them moves off μ_M, when its men's cost is within O_M + r, are
    # a subset the solver must walk: no selected man may fail a test.  And
    # no certificate of a cut subset is accepted.
    contexts = moved_sets = cut_subsets = walked = 0
    for ctx, walk_up_to in engine_contexts():
        st = ctx.inst
        mu = st.mu_m.by_man
        for partner, men_cost, _ in _closed_sets(_chain(st)):
            if men_cost <= st.o_m + ctx.r:
                moved = tuple(m for m, w in enumerate(partner) if w != mu[m])
                assert set(moved) <= set(st.sad_men) and not cut(ctx, moved)
                moved_sets += bool(moved)
        contexts += 1
        if walk_up_to is not None and ctx.r > walk_up_to:
            continue
        for size in range(len(st.sad_men) + 1):
            for m_prime in combinations(st.sad_men, size):
                if cut(ctx, m_prime):
                    for women, _ in iter_certificates(ctx, m_prime, ctx.r, [0]):
                        assert assemble(ctx, m_prime, women) is None
                        walked += 1
                    cut_subsets += 1
    assert contexts >= 150 and moved_sets >= 300 and cut_subsets >= 10000 and walked >= 500000


def test_the_live_family_holds_exactly_the_subsets_the_cuts_keep_in_loop_order():
    # The listing against the subset loop with the subsets ``cut`` rejects
    # left out: the same subsets in the same order.
    contexts = subsets = kept = 0
    for ctx, _ in engine_contexts():
        st = ctx.inst
        every = [m_prime for size in range(len(st.sad_men) + 1) for m_prime in combinations(st.sad_men, size)]
        assert len(every) == 1 << len(st.sad_men)
        want = [m_prime for m_prime in every if not cut(ctx, m_prime)]
        assert listed(ctx) == want
        contexts += 1
        subsets += len(every)
        kept += len(want)
    assert contexts >= 150 and subsets >= 20000 and 500 <= kept <= 0.05 * subsets


def test_pruned_search_skips_only_certificates_that_assemble_rejects(monkeypatch):
    # With every certificate rejected, the search reaches all it keeps.
    reached = []

    def reject(ctx):
        reached.append(tuple(ctx.wife[m] for m in m_prime))

    subsets = skipped = cut = 0
    for *_, ctx, r in search_kernels():
        st = ctx.inst
        for size in range(len(st.sad_men) + 1):
            for m_prime in combinations(st.sad_men, size):
                full = [women for (women, _), _ in run(ctx, m_prime, r)[0]]
                reached.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(fpt, "_accept", reject)
                    _first_accepted(ctx, m_prime)
                kept = set(reached)
                assert reached == [women for women in full if women in kept]
                busy = busy_women(ctx, m_prime)
                for women in full:
                    if women not in kept:
                        assert assemble(ctx, m_prime, women) is None
                        skipped += 1
                        # Injective: the partial-stability cut, not the taken-woman skip.
                        cut += injective(women, busy)
                subsets += 1
    assert subsets >= 1000 and skipped >= 10000 and cut > 0


def test_on_a_kernel_the_walk_reaches_exactly_the_stable_certificates(monkeypatch):
    # The walk looks for no blocking woman whom a man ranks at or above his
    # man-optimal partner: the kernel's fixpoint leaves none.  So, with every
    # leaf rejected, each live subset's walk reaches only matchings no pair
    # blocks, on the padded kernels of ``search_and_cut_kernels`` and the
    # functional ones after them.  Up to the budget at which their unpruned
    # trees are walked, those are, in order, exactly the unpruned
    # certificates that load into μ_M as such a matching.
    leaves = []

    def reject(ctx):
        leaves.append((ctx.wife[:], ctx.husband[:]))

    monkeypatch.setattr(fpt, "_accept", reject)
    contexts = subsets = reached = compared = 0
    for ctx, walk_up_to in engine_contexts():
        st = ctx.inst
        for m_prime in listed(ctx):
            leaves.clear()
            assert _first_accepted(ctx, m_prime)[0] is None
            assert not any(any(gs._blocking(st.m_rank, st.w_rank, *arrays)) for arrays in leaves)
            if walk_up_to is None or ctx.r <= walk_up_to:
                want = []
                for women, _ in iter_certificates(ctx, m_prime, ctx.r, [0]):
                    arrays = loaded(ctx, m_prime, women)
                    if arrays is not None and not any(gs._blocking(st.m_rank, st.w_rank, *arrays)):
                        want.append(arrays)
                assert leaves == want
                compared += len(want)
            subsets += 1
            reached += len(leaves)
        contexts += 1
    assert contexts >= 180 and subsets >= 600 and reached >= 600 and compared >= 400


def reference_assemble(st, k, pairs, m_prime):
    """The people-level assembly: the selected men's pairs, the unselected sad
    men's man-optimal pairs and the happy pairs, accepted when injective,
    within k and without a blocking pair."""
    pairs = list(pairs)
    pairs += [(st.men[m], st.women[st.mu_m.by_man[m]]) for m in st.sad_men if m not in m_prime]
    pairs += [(st.men[m], st.women[w]) for m, w in st.happy_pairs]
    if len({w for _, w in pairs}) < len(pairs):
        return None
    mu = Matching.of(pairs)
    if objectives(st, mu).balance > k or blocking_pairs(st, mu):
        return None
    return mu


def test_assemble_accepts_exactly_the_stable_matchings_within_k():
    certificates = accepted = 0
    for *_, ctx, r in search_kernels():
        st = ctx.inst
        for size in range(len(st.sad_men) + 1):
            for m_prime in combinations(st.sad_men, size):
                men = [st.men[m] for m in m_prime]
                # The unpruned certificates, which hold the pruned search's.
                for (women, _), _ in run(ctx, m_prime, r)[0]:
                    pairs = zip(men, (st.women[w] for w in women))
                    want = reference_assemble(st, ctx.k, pairs, m_prime)
                    got = assemble(ctx, m_prime, women)
                    if want is None:
                        assert got is None
                    else:
                        assert got == gs.validate_matching(st, want)[0]
                        accepted += 1
                    certificates += 1
    assert certificates >= 50000 and accepted >= 50


def unpruned_solve(result, ctx, r):
    """The solver's loop over every certificate, without pruning: the answer,
    the witness, and each subset tried with its unpruned node count."""
    st = ctx.inst
    tried = []
    for size in range(len(st.sad_men) + 1):
        for m_prime in combinations(st.sad_men, size):
            hit, count = reference_first_accepted(ctx, m_prime, r)
            tried.append((m_prime, count))
            if hit is not None:
                return True, result.lift(people(st, hit)), tried
    return False, None, tried


def test_solver_witness_matches_the_unpruned_search_in_no_more_nodes(monkeypatch):
    real_accept, real_first = fpt._accept, fpt._first_accepted
    assembled = []
    visited = []
    selected = []

    def checked(ctx):
        women = [ctx.wife[m] for m in selected[-1]]
        assembled.append(injective(women, busy_women(ctx, selected[-1])))
        return real_accept(ctx)

    def counted(ctx, m_prime):
        selected.append(m_prime)
        hit, nodes = real_first(ctx, m_prime)
        visited.append(nodes)
        return hit, nodes

    compared = 0
    # More corpus draws than the other tests take: only the k below both
    # extreme balances reach the kernel through the solver.
    for inst, k, result, ctx, r in search_kernels(corpus=400):
        if k >= min(objectives(inst, mu).balance for mu in (optima(inst).mu_m, optima(inst).mu_w)):
            continue
        answer, witness, unpruned = unpruned_solve(result, ctx, r)
        visited.clear()
        with monkeypatch.context() as patch:
            patch.setattr(fpt, "_accept", checked)
            patch.setattr(fpt, "_first_accepted", counted)
            got = solve_above_min(inst, k)
        assert (got.answer, got.witness) == (answer, witness)
        # Only the subsets the cuts keep are walked, each in at most its
        # unpruned tree's nodes, and the stats are those of the walk.
        kept = [count for m_prime, count in unpruned if not cut(ctx, m_prime)]
        assert all(v <= u for v, u in zip(visited, kept, strict=True))
        assert got.stats == fpt.SolveStats(len(visited), sum(visited), max(visited))
        compared += 1
    assert compared >= 30
    # Only certificates that pair every man with a free woman reach ``_accept``.
    assert assembled and all(assembled)


def test_each_leaf_holds_its_certificate_in_the_partner_arrays(monkeypatch):
    # ``_accept`` reads the walk's partner arrays as they stand.  At every
    # leaf they must be inverse to each other and hold μ_M with each
    # selected man moved to a strictly worse woman, within the budget.
    real_accept, real_first = fpt._accept, fpt._first_accepted
    selected = []
    leaves = []

    def checked(ctx):
        st, wife, husband = ctx.inst, ctx.wife, ctx.husband
        assert all(husband[w] == m for m, w in enumerate(wife) if w >= 0)
        assert all(wife[m] == w for w, m in enumerate(husband) if m >= 0)
        want = list(st.mu_m.by_man)
        spent = 0
        for m in selected[-1]:
            offsets = {w: offset for offset, w in ctx.worse[m]}
            assert wife[m] in offsets
            want[m] = wife[m]
            spent += offsets[wife[m]]
        assert spent <= ctx.r
        assert wife == want
        assert husband == [want.index(w) if w in want else -1 for w in range(len(st.women))]
        leaves.append(ctx)
        return real_accept(ctx)

    def recorded(ctx, m_prime):
        selected.append(m_prime)
        return real_first(ctx, m_prime)

    monkeypatch.setattr(fpt, "_accept", checked)
    monkeypatch.setattr(fpt, "_first_accepted", recorded)
    for ctx, _ in search_and_cut_kernels():
        for size in range(len(ctx.inst.sad_men) + 1):
            for m_prime in combinations(ctx.inst.sad_men, size):
                fpt._first_accepted(ctx, m_prime)
    kernels = len(leaves)
    for n, seed, _, bal in pool_entries():
        assert fpt.minimal_balance(random_instance(random.Random(seed), n, n, 1.0))[0] == bal
    assert kernels >= 120 and len(leaves) - kernels >= 250


def test_branching_makes_no_people_level_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver called a people-level check")

    rng = random.Random(3)
    cases = []
    for _ in range(30):
        inst = sad_rich_instance(rng)
        opt = optima(inst)
        cases += [(inst, k, decide_above_min(inst, k).answer)
                  for k in range(max(opt.o_m, opt.o_w), opt.o_m + opt.o_w + 1)]
    for name in ("objectives", "blocking_pairs", "validate_matching"):
        monkeypatch.setattr(gs, name, refuse)
    branched = {True: 0, False: 0}
    for inst, k, want in cases:
        result = solve_above_min(inst, k)
        assert result.answer == want
        if result.stats.subsets_tried:
            branched[result.answer] += 1
    assert branched[True] >= 5 and branched[False] >= 5


def test_solver_oracle_sweep_beyond_nine_men():
    # Every k from one below max(O_M, O_W) to O_M + O_W.  At this seed six
    # instances have more men than enumeration's default bound of 9; the
    # bounded walk that gives the reference takes any size.
    rng = random.Random(1)
    beyond_default = 0
    mismatches = []
    for _ in range(40):
        inst = random_instance(rng, max_side=12)
        beyond_default += len(inst.men) > DEFAULT_MAX_MEN
        opt = optima(inst)
        bal_opt = _least_balance(_chain(inst))
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            if solve_above_min(inst, k).answer != (bal_opt <= k):
                mismatches.append((serialize(inst), k))
    assert beyond_default >= 1
    assert mismatches == []


def test_no_decision_builds_the_people_keyed_view(monkeypatch):
    # Instance.prefs is for callers that want people; every path below runs
    # on the rank tables, the kernel's and the reduction's instances included.
    rng = random.Random(3)
    instances = [sad_rich_instance(rng) for _ in range(30)]
    graphs = [random_graph(random.Random(2), 7, 9, plant_triangle=True), Graph.build("ab", [("a", "b")])]
    built = []
    monkeypatch.setattr(Instance, "prefs", property(built.append))
    branched = {True: 0, False: 0}
    for inst in instances:
        opt = optima(inst)
        for mu in enumerate_stable(inst).matchings:
            assert not blocking_pairs(inst, mu)
            objectives(inst, mu)
        for k in range(max(opt.o_m, opt.o_w), opt.o_m + opt.o_w + 1):
            result = solve_above_min(inst, k)
            if result.stats.subsets_tried:
                branched[result.answer] += 1
            decide_above_min(inst, k)
    assert [verify_reduction(g, 3).ok for g in graphs] == [True, True]
    assert built == []
    assert branched[True] >= 5 and branched[False] >= 5
    instances[0].prefs
    assert built == [instances[0]]  # the view, had any path built it, would show here


def test_minimal_balance_is_the_least_balance_with_a_stable_witness():
    rng = random.Random(20240807)
    instances = [random_instance(rng, max_side=7) for _ in range(200)]
    rng = random.Random(8)
    instances += [random_instance(rng, n, n, 1.0) for n in (8, 9) for _ in range(2)]
    for inst in instances:
        bal, result, decisions = fpt.minimal_balance(inst)
        assert bal == _least_balance(_chain(inst))
        assert result.answer and decisions >= 1
        assert not blocking_pairs(inst, result.witness)
        assert objectives(inst, result.witness).balance == bal


def test_minimal_balance_decides_each_k_once(monkeypatch):
    # The decision returned at the least balance is the search's last yes
    # when it made one; it is made again only if no decision answered that k.
    real = fpt.solve_above_min
    decided = {}

    def recorded(inst, k):
        assert k not in decided
        decided[k] = real(inst, k)
        return decided[k]

    monkeypatch.setattr(fpt, "solve_above_min", recorded)
    rng = random.Random(20240807)
    instances = [random_instance(rng, max_side=7) for _ in range(60)]
    # Eight instances of perfbench/optimize_pool.json.
    pool = ((9, 52), (9, 173), (10, 15), (10, 16), (11, 19), (11, 195), (12, 4), (12, 285))
    instances += [random_instance(random.Random(seed), n, n, 1.0) for n, seed in pool]
    kept = 0
    for inst in instances:
        decided.clear()
        bal, result, decisions = fpt.minimal_balance(inst)
        assert bal == _least_balance(_chain(inst)) and decisions == len(decided)
        assert result is decided[bal]
        fresh = real(parse_instance(serialize(inst)), bal)
        assert (result.answer, result.witness, result.t, result.r, result.stats) == (
            fresh.answer, fresh.witness, fresh.t, fresh.r, fresh.stats
        )
        # Below the lower extreme balance the least balance was answered
        # yes by a decision of the search, which is kept.
        kept += bal < min(fpt._balance(inst, mu) for mu in (inst.mu_m, inst.mu_w))
    assert kept >= 8


@pytest.mark.parametrize("n", [6, 8, 10])
def test_minimal_balance_on_the_cyclic_family(n):
    inst = cyclic_instance(n)
    bal, result, _ = fpt.minimal_balance(inst)
    assert bal == _least_balance(_chain(inst))
    assert result.answer and not blocking_pairs(inst, result.witness)
    stats = (result.stats.subsets_tried, result.stats.branch_nodes, result.stats.max_branch_nodes)
    # The subsets walked and the nodes visited in them; the unpruned trees
    # up to the same witness have (64, 40188, 4112) and (256, 13034431, 1689384).
    recorded = {6: (2, 40, 39), 8: (2, 265, 264)}
    assert stats == recorded.get(n, stats)


@pytest.mark.parametrize("n", [200, 1000])
def test_minimal_balance_is_the_least_balance_of_planted_instances_component_by_component(n):
    # The same instances as the engine's test against the reference, up to
    # 4 cores; no rotation is built on either side of the comparison.
    for cores in (2, 3, 4):
        inst = planted_instance(random.Random(n + cores), n, cores, 5)
        bal, result, _ = fpt.minimal_balance(inst)
        assert bal == component_least_balance(inst)
        assert not blocking_pairs(inst, result.witness) and objectives(inst, result.witness).balance == bal


# --- the planted near-optimum family -------------------------------------------

def test_minimal_balance_walks_only_the_live_subsets_of_three_planted_cores(monkeypatch):
    # 20 sad men in three independent cores: the subset loop up to the
    # decision's witness at the least balance holds 405,110 subsets, and
    # all but 43 are cut.
    inst = planted_instance(random.Random(3), 200, 3, 5)
    real_first = fpt._first_accepted
    walked = []

    def counted(ctx, m_prime):
        walked.append(m_prime)
        return real_first(ctx, m_prime)

    monkeypatch.setattr(fpt, "_first_accepted", counted)
    bal, result, decisions = fpt.minimal_balance(inst)
    assert bal == 239 == _least_balance(_chain(inst))
    assert (result.stats, decisions) == (fpt.SolveStats(43, 347, 17), 5)
    assert len(inst.sad_men) == 20 and len(walked) < 1000


def test_the_live_walk_builds_a_level_only_when_the_one_before_is_used_up():
    # 20 sad men, each needing all the others: every subset but the 20
    # singletons is live, 1,048,556 in all.  The first 211 come out, in loop
    # order, before the walk holds more than one level of pairs.
    s = 20
    everyone = (1 << s) - 1
    needs = [[everyone ^ 1 << i] for i in range(s)]
    want = [sum(1 << i for i in c) for size in (0, 2, 3) for c in combinations(range(s), size)][:211]
    tracemalloc.start()
    try:
        first = list(islice(fpt._live(needs), 211))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == want
    assert peak < 1 << 20


def test_a_decision_pulls_from_the_live_walk_only_the_subsets_it_walks(monkeypatch):
    # Every k of each pool instance's search range is decided on one parse,
    # highest first, so yeses that stop early come before the noes, and
    # later decisions reach kernels that an earlier one reached.  Each
    # decision reads, in ``_live`` order, exactly the subsets it walks.  A
    # kernel holds the list of ``_live``'s masks iff some decision on it
    # walked every live subset without a hit; a decision on a kernel with
    # the list starts no walk, and one without starts exactly one.
    real_first, real_live = fpt._first_accepted, fpt._live
    read = []
    walks = []

    def counted(ctx, m_prime):
        read.append(m_prime)
        return real_first(ctx, m_prime)

    def started(needs):
        walks.append(needs)
        return real_live(needs)

    monkeypatch.setattr(fpt, "_first_accepted", counted)
    monkeypatch.setattr(fpt, "_live", started)
    yes = early = no = again = from_list = masks = 0
    for n, seed, *_ in pool_entries():
        inst = random_instance(random.Random(seed), n, n, 1.0)
        exhausted = {}  # per kernel reached, by id, whether some decision on it walked every subset without a hit
        reached = []  # the kernels themselves, so that no id is reused by a later one
        low = max(inst.o_m, inst.o_w)
        for k in reversed(range(low, min(fpt._balance(inst, mu) for mu in (inst.mu_m, inst.mu_w)))):
            read.clear()
            walks.clear()
            result = solve_above_min(inst, k)
            if not read:
                continue
            kernel_ = result.kernel.functional
            reached.append(kernel_)
            had_list = exhausted.get(id(kernel_), False)
            assert len(walks) == (not had_list)
            everything = list(real_live(_Context(kernel_, result.kernel.functional_k).needs))
            sad = kernel_.sad_men
            assert len(read) == result.stats.subsets_tried
            assert read == [as_tuple(sad, subset) for subset in everything[:len(read)]]
            again += id(kernel_) in exhausted
            from_list += had_list
            exhausted[id(kernel_)] = had_list or not result.answer
            kept = kernel_._store.get(fpt._solve_on_kernel)
            if exhausted[id(kernel_)]:
                assert kept == everything and all(type(subset) is int for subset in kept)
                masks += len(kept)
            else:
                assert kept is None
            if result.answer:
                yes += 1
                early += len(read) < len(everything)
            else:
                assert len(read) == len(everything)
                no += 1
    assert yes >= 200 and early >= 200 and no >= 100 and again >= 300 and from_list >= 100 and masks >= 900


def test_no_kernel_keeps_a_generator_and_each_frees_with_its_instance(monkeypatch):
    # With the cyclic collector off, every kernel a decision walked goes as
    # soon as its instance does, and none keeps a generator in its store.
    # A search ends on a no that walks to the end, so a second parse is
    # decided only at the least balance, a yes that stops early.
    refs = []
    real_first = fpt._first_accepted

    def counted(ctx, m_prime):
        if not any(ref() is ctx.inst for ref in refs):
            refs.append(weakref.ref(ctx.inst))
        return real_first(ctx, m_prime)

    monkeypatch.setattr(fpt, "_first_accepted", counted)
    was_enabled = gc.isenabled()
    gc.disable()
    lists = unlisted = 0
    try:
        for n, seed, *_ in pool_entries()[:8]:
            inst = random_instance(random.Random(seed), n, n, 1.0)
            bal = fpt.minimal_balance(inst)[0]
            fresh = random_instance(random.Random(seed), n, n, 1.0)
            assert solve_above_min(fresh, bal).answer
            stores = [ref()._store for ref in refs if ref()]
            assert not any(isinstance(kept, GeneratorType) for store in stores for kept in store.values())
            lists += sum(fpt._solve_on_kernel in store for store in stores)
            unlisted += sum(fpt._solve_on_kernel not in store for store in stores)
            del inst, fresh, stores
            assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()
    assert len(refs) >= 12 and lists >= 5 and unlisted >= 5


def test_a_decision_cut_short_in_the_live_walk_leaves_later_decisions_exact(monkeypatch):
    # ``_solve_on_kernel`` keeps a kernel's list of subsets only when its
    # loop runs out.  A decision that an exception stops inside the walk
    # leaves no short list of subsets for later ones: each later decision
    # on that instance answers as on a fresh instance.
    real_live = fpt._live
    started = []

    def interrupted(needs):
        started.append(needs)
        for pulled, subset in enumerate(real_live(needs)):
            if pulled == 2 and len(started) == 1:
                raise KeyboardInterrupt
            yield subset

    cut_short = 0
    for n, seed, _, bal in pool_entries():
        inst = random_instance(random.Random(seed), n, n, 1.0)
        started.clear()
        with monkeypatch.context() as patch:
            patch.setattr(fpt, "_live", interrupted)
            try:
                solve_above_min(inst, bal - 1)
            except KeyboardInterrupt:
                cut_short += 1
            else:
                continue
        fresh = random_instance(random.Random(seed), n, n, 1.0)
        for k in (bal - 1, bal):
            got, want = solve_above_min(inst, k), solve_above_min(fresh, k)
            assert (got.answer, got.witness, got.stats) == (want.answer, want.witness, want.stats)
            assert got.answer is (k == bal)
    assert cut_short >= 31


def test_no_kernel_kernelize_returns_has_a_need_beyond_its_budget():
    # Truncate leaves no man of a kernel a partner more than r ranks below
    # his μ_M partner: every worse offset and every claimer offset lies
    # within r, so the needs read at r = ∞ and kept with the kernel are
    # those the walk from scratch reads at r.
    rng = random.Random(20240807)
    draws = [(random_instance(rng, max_side=7), None) for _ in range(300)]
    draws += [(random_instance(random.Random(seed), n, n, 1.0), bal) for n, seed, _, bal in pool_entries()]
    kernels = offsets = 0
    for inst, bal in draws:
        if bal is None:
            ks = range(max(inst.o_m, inst.o_w) - 1, inst.o_m + inst.o_w + 1)
        else:
            ks = range(max(inst.o_m, inst.o_w), min(fpt._balance(inst, mu) for mu in (inst.mu_m, inst.mu_w)))
        for k in ks:
            result = kernelize(inst, k)
            if result.outcome != OUTCOME_KERNEL:
                continue
            kernel_ = result.functional
            ctx = _Context(kernel_, result.functional_k)
            m_rank, w_rank, mu = kernel_.m_rank, kernel_.w_rank, kernel_.mu_m.by_man
            sad = set(kernel_.sad_men)
            found = [offset for worse in ctx.worse for offset, _ in worse]
            found += [
                m_rank[m2][mu[m]] - m_rank[m2][mu[m2]]
                for m in kernel_.sad_men
                for m2, rank in w_rank[mu[m]].items()
                if rank < w_rank[mu[m]][m] and m2 in sad
            ]
            assert all(offset <= ctx.r for offset in found)
            assert ctx.needs == reference_tables(kernel_, result.functional_k)[2]
            kernels += 1
            offsets += len(found)
    assert kernels >= 550 and offsets >= 12000


def bisection_order(ks):
    """``ks`` in the order a binary search meets them: the middle, then the
    middles of the two halves, level by level."""
    order, spans = [], [ks]
    while spans:
        later = []
        for span in spans:
            if span:
                mid = len(span) // 2
                order.append(span[mid])
                later += [span[:mid], span[mid + 1:]]
        spans = later
    return order


def test_decisions_on_one_instance_do_not_depend_on_their_order():
    # Each order decides every k on one parsed instance.  Its store keeps
    # what the decisions before it made: the k-free rule outcomes.  Each
    # kernel keeps its branching tables and, once a decision has walked
    # them all without an accepted certificate, its live subsets.
    # Truncate leaves a kernel no partner beyond its budget, so a kernel
    # that several k share reads the needs walked from scratch at each of
    # them, and ``test_the_kept_needs_cut_no_subset_the_needs_at_any_budget_keep``
    # holds the kept needs against those read at other budgets.
    inputs = [random_instance(random.Random(seed), n, n, 1.0) for n, seed, *_ in pool_entries()]
    inputs += [cyclic_instance(n) for n in (6, 8, 10)]
    inputs += [planted_instance(random.Random(seed), 200, 3, 5) for seed in range(3)]
    assert len(inputs) == 38
    branched = 0
    for inst in inputs:
        text = serialize(inst)
        bal = _least_balance(_chain(inst))
        ks = list(range(bal - 2, bal + 3))
        fresh = {k: solve_above_min(parse_instance(text), k) for k in ks}
        assert [fresh[k].answer for k in ks] == [k >= bal for k in ks]
        for order in (ks, ks[::-1], bisection_order(ks)):
            assert sorted(order) == ks
            one = parse_instance(text)
            for k in order:
                got, want = solve_above_min(one, k), fresh[k]
                assert (got.answer, got.witness, got.t, got.r, got.stats) == (
                    want.answer, want.witness, want.t, want.r, want.stats
                )
        branched += sum(fresh[k].stats.subsets_tried > 0 for k in ks)
    assert branched >= 60


def test_five_planted_cores_with_31_sad_men_are_decided_from_the_live_subsets():
    # A family of one bit per subset would need 2^31 bits here; the walk
    # lists only the subsets the cuts keep, and a no walks all of them.
    inst = planted_instance(random.Random(3), 1000, 5, 5)
    assert len(inst.sad_men) == 31 and _least_balance(_chain(inst)) == 1059
    below, at = solve_above_min(inst, 1058), solve_above_min(inst, 1059)
    assert (below.answer, at.answer) == (False, True)
    assert decide_above_min(inst, 1058).answer is False and decide_above_min(inst, 1059).answer is True
    assert not blocking_pairs(inst, at.witness) and objectives(inst, at.witness).balance == 1059
    assert at.stats == fpt.SolveStats(360, 5331, 69)
    assert below.stats == fpt.SolveStats(3920, 119861, 193)
    kres = below.kernel
    assert sum(1 for _ in fpt._live(_Context(kres.functional, kres.functional_k).needs)) == 3920


def test_planted_instances_hold_their_cores_and_mutually_first_pairs():
    rng = random.Random(11)
    for n, cores, extra in ((20, 1, 0), (50, 2, 5), (200, 3, 2), (1000, 5, 5)):
        inst = planted_instance(rng, n, cores, extra)
        assert (len(inst.men), len(inst.women)) == (n, n)
        # Each core has at least 3 rotations and at most 8 men, each of whom
        # may be sad; everyone else is in a mutually-first pair.
        assert len(_chain(inst).moves) >= 3 * cores
        assert 2 * cores <= len(inst.sad_men) <= 8 * cores
        first = [min(table, key=table.get) for table in inst.m_rank]
        mutual = sum(min(inst.w_rank[w], key=inst.w_rank[w].get) == m for m, w in enumerate(first))
        assert mutual >= n - 8 * cores
        assert max(len(table) for table in inst.m_rank + inst.w_rank) <= max(8, extra + 1)
    with pytest.raises(ValueError):
        planted_instance(rng, 17, 3, 5)  # three cores need at least 18 per side


@pytest.mark.parametrize("n, count", [(50, 6), (200, 3)])
def test_planted_decisions_agree_with_the_rotation_engine(n, count):
    # Two cores per instance: every kernel holds the sad men of both.
    rng = random.Random(20240807 + n)
    branched = 0
    for _ in range(count):
        inst = planted_instance(rng, n, 2, 5)
        bal = _least_balance(_chain(inst))
        for k in range(bal - 2, bal + 3):
            result = solve_above_min(inst, k)
            assert result.answer == (k >= bal)
            if result.answer:
                assert not blocking_pairs(inst, result.witness)
                assert objectives(inst, result.witness).balance <= k
            branched += result.stats.subsets_tried > 0
        got, result, _ = fpt.minimal_balance(inst)
        assert got == bal and objectives(inst, result.witness).balance == bal
    assert branched >= 1


@pytest.mark.parametrize("cores", [2, 3, 4])
def test_cores_that_touch_only_in_the_input_are_decided_as_separate_ones(cores):
    # The crossing pairs join every core to the next in the input, and no
    # stable matching holds one; the kernel drops them, so each search
    # runs on the plain instance's kernel.
    for seed in range(2):
        plain = planted_instance(random.Random(seed), 200, cores, 5)
        crossed = crossed_planted_instance(random.Random(seed), 200, cores, 5)
        assert sum(map(len, crossed.m_rank)) == sum(map(len, plain.m_rank)) + cores
        bal = _least_balance(_chain(plain))
        assert _least_balance(_chain(crossed)) == bal
        got, want = fpt.minimal_balance(crossed), fpt.minimal_balance(plain)
        assert (got[0], got[2], got[1].witness, got[1].stats) == (want[0], want[2], want[1].witness, want[1].stats)
        for k in range(bal - 1, bal + 2):
            result = solve_above_min(crossed, k)
            assert result.answer == (k >= bal)
            assert result.kernel.functional == solve_above_min(plain, k).kernel.functional
            if result.answer:
                assert not blocking_pairs(crossed, result.witness)
                assert objectives(crossed, result.witness).balance <= k


def relabelled(inst, rng):
    """``inst`` with both sides in a new order and every person renamed."""
    men, women = rng.sample(inst.men, len(inst.men)), rng.sample(inst.women, len(inst.women))
    new = {p: Person(MAN, f"a{i}") for i, p in enumerate(men)}
    new.update((p, Person(WOMAN, f"b{i}")) for i, p in enumerate(women))
    ranks = {new[p]: {new[q]: r for q, r in row.items()} for p, row in inst.prefs.ranks.items()}
    return make_instance([new[p] for p in men], [new[p] for p in women], ranks)


def with_a_mutually_first_pair(inst):
    """``inst`` with one more man and woman who accept only each other."""
    m, w = Person(MAN, "m_extra"), Person(WOMAN, "w_extra")
    ranks = {**inst.prefs.ranks, m: {w: 1}, w: {m: 1}}
    return make_instance(inst.men + (m,), inst.women + (w,), ranks)


def test_relabelling_and_a_mutually_first_pair_move_the_decisions_as_they_should():
    # Renaming and reordering both sides changes no decision.  A new
    # mutually-first pair is in every stable matching and adds 1 to both
    # side costs, so the least balance and every answer move up by one.
    rng = random.Random(29)
    branched = 0
    for _ in range(3):
        inst = planted_instance(rng, 50, 2, 5)
        bal = fpt.minimal_balance(inst)[0]
        ks = range(bal - 2, bal + 3)
        results = [solve_above_min(inst, k) for k in ks]
        answers = [result.answer for result in results]
        assert answers == [k >= bal for k in ks]
        branched += sum(result.stats.subsets_tried > 0 for result in results)
        renamed = relabelled(inst, rng)
        assert fpt.minimal_balance(renamed)[0] == bal
        assert [solve_above_min(renamed, k).answer for k in ks] == answers
        grown = with_a_mutually_first_pair(inst)
        assert fpt.minimal_balance(grown)[0] == bal + 1
        assert [solve_above_min(grown, k + 1).answer for k in ks] == answers
    assert branched >= 12


def test_swapping_the_sides_changes_no_least_balance_and_no_answer():
    # Balance is symmetric in the sides, but the kernel and the branching are
    # not: the solver branches on sad men and truncate checks men first.  So
    # each instance and its side swap are two different searches for one
    # answer, and every yes witness must hold in its own instance.
    pool = pool_entries()[::4]
    inputs = [random_instance(random.Random(seed), n, n, 1.0) for n, seed, *_ in pool]
    inputs += [cyclic_instance(n) for n in (6, 8, 10)]
    inputs += [planted_instance(random.Random(seed), 200, 3, 5) for seed in range(3)]
    inputs += [planted_instance(random.Random(seed), 1000, cores, 5) for cores in (2, 3, 4) for seed in range(2)]
    rng = random.Random(1707)
    for _ in range(40):
        n = rng.randint(6, 9)
        inputs.append(random_instance(rng, n, n, rng.uniform(0.4, 0.9)))
    decisions = branched = 0
    for inst in inputs:
        twin = swapped(inst)
        assert (twin.men, twin.women) == (
            tuple(Person(MAN, w.name) for w in inst.women), tuple(Person(WOMAN, m.name) for m in inst.men)
        )
        assert (twin.o_m, twin.o_w) == (inst.o_w, inst.o_m)
        bal = _least_balance(_chain(inst))
        assert fpt.minimal_balance(inst)[0] == bal == fpt.minimal_balance(twin)[0]
        for k in range(bal - 2, bal + 3):
            results = [solve_above_min(one, k) for one in (inst, twin)]
            assert results[0].answer == results[1].answer == (k >= bal)
            for one, result in zip((inst, twin), results):
                if result.answer:
                    assert not blocking_pairs(one, result.witness)
                    assert objectives(one, result.witness).balance <= k
                branched += result.stats.subsets_tried > 0
            decisions += 2
    assert len(inputs) == 60 and decisions == 600
    assert branched >= 120
