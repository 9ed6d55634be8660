import random
from itertools import combinations

from bsm import fpt, gs
from bsm.fpt import _assemble, _Context, _iter_certificates, solve_above_min
from bsm.generate import mutual_first_instance, random_graph, random_instance
from bsm.gs import blocking_pairs, objectives, optima
from bsm.hardness import Graph, verify_reduction
from bsm.instance import Instance, Matching, parse_instance, serialize
from bsm.kernel import OUTCOME_KERNEL, kernelize
from bsm.oracle import DEFAULT_MAX_MEN, _chain, _least_balance, decide_above_min, enumerate_stable
from helpers import BranchCertificate, enumerate_certificates, naive_certificates, sad_2x2, sad_rich_instance


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
    mu = people(st, _assemble(ctx, m_prime, women))
    assert mu is not None
    assert result.lift(mu) == optima(sad_2x2()).mu_w

    # the empty certificate assembles the man-optimal matching
    mu0 = people(st, _assemble(ctx, (), ()))
    assert mu0 == kopt.mu_m
    assert objectives(kin, mu0).balance <= result.k

    # a certificate aiming two men at one woman is rejected
    clash = (women[0], women[0])
    assert _assemble(ctx, m_prime, clash) is None


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


# --- the pruned search against the unpruned reference -----------------------

def search_kernels():
    """Seeded kernels that branch: corpus draws at every k, full lists n=9..12."""
    rng = random.Random(20240807)
    draws = [random_instance(rng, max_side=7) for _ in range(150)]
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


def run(ctx, m_prime, r, taken=None):
    """Each certificate with the node count when it came out, and the final count."""
    counter = [0]
    out = [(c, counter[0]) for c in _iter_certificates(ctx, m_prime, r, counter, taken)]
    return out, counter[0]


def test_pruned_search_yields_the_injective_certificates_at_unpruned_counts():
    kernels = subsets = skipped = 0
    for *_, ctx, r in search_kernels():
        kernels += 1
        st = ctx.inst
        for size in range(len(st.sad_men) + 1):
            for m_prime in combinations(st.sad_men, size):
                busy = busy_women(ctx, m_prime)
                taken = [w in busy for w in range(len(st.women))]
                full, full_nodes = run(ctx, m_prime, r)
                pruned, pruned_nodes = run(ctx, m_prime, r, taken)
                assert pruned == [(c, nodes) for c, nodes in full if injective(c[0], busy)]
                assert pruned_nodes == full_nodes
                assert taken == [w in busy for w in range(len(st.women))]
                men = [st.men[m] for m in m_prime]
                public = enumerate_certificates(st, men, r)
                assert public == [
                    BranchCertificate(tuple(zip(men, (st.women[w] for w in women))), cost)
                    for (women, cost), _ in full
                ]
                subsets += 1
                skipped += len(full) - len(pruned)
    assert kernels >= 30 and subsets >= 1000 and skipped >= 10000


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
                    got = _assemble(ctx, m_prime, women)
                    if want is None:
                        assert got is None
                    else:
                        assert got == st.arrays_from_matching(want)[0]
                        accepted += 1
                    certificates += 1
    assert certificates >= 50000 and accepted >= 50


def unpruned_solve(result, ctx, r):
    """The solver's loop over every certificate, without pruning."""
    st = ctx.inst
    subsets = nodes_total = nodes_max = 0
    for size in range(len(st.sad_men) + 1):
        for m_prime in combinations(st.sad_men, size):
            subsets += 1
            counter = [0]
            hit = None
            for women, _ in _iter_certificates(ctx, m_prime, r, counter):
                hit = _assemble(ctx, m_prime, women)
                if hit is not None:
                    break
            nodes_total += counter[0]
            nodes_max = max(nodes_max, counter[0])
            if hit is not None:
                return True, result.lift(people(st, hit)), (subsets, nodes_total, nodes_max)
    return False, None, (subsets, nodes_total, nodes_max)


def test_solver_counts_and_witness_match_the_unpruned_search(monkeypatch):
    real = fpt._assemble
    assembled = []

    def checked(ctx, m_prime, women):
        assembled.append(injective(women, busy_women(ctx, m_prime)))
        return real(ctx, m_prime, women)

    compared = 0
    for inst, k, result, ctx, r in search_kernels():
        want = unpruned_solve(result, ctx, r)
        with monkeypatch.context() as patch:
            patch.setattr(fpt, "_assemble", checked)
            got = solve_above_min(inst, k)
        stats = (got.stats.subsets_tried, got.stats.branch_nodes, got.stats.max_branch_nodes)
        assert (got.answer, got.witness, stats) == want
        compared += 1
    assert compared >= 30
    # Only certificates that pair every man with a free woman are assembled.
    assert assembled and all(assembled)


def test_branching_makes_no_people_level_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver called a people-level check")

    rng = random.Random(3)
    cases = []
    for _ in range(12):
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
    instances = [sad_rich_instance(rng) for _ in range(12)]
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
